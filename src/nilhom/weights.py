"""Weight-lattice combinatorics: pure functions on weight tuples.

A weight is a tuple of ints, one entry per coordinate of the torus.  The
symmetric group S_r permutes the coordinates; a table kept at its
non-increasing weights stands for the table spread over each weight's
orbit.  Weight tables are counted here, over {weight: multiplicity}
multisets, without listing a basis or a wedge.  This module imports no
other nilhom module.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterator, Mapping

Weight = tuple[int, ...]


def orbit(w: Weight) -> Iterator[Weight]:
    """The distinct rearrangements of w, each once, in increasing order.

    The next-permutation step on the sorted entries: swap the last ascent
    with the least larger entry after it, then reverse the tail.  A
    repeated entry is never swapped with its equal, so an orbit of k
    weights costs k steps, not the len(w)! of all permutations.
    """
    a = sorted(w)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = a[:i:-1]


def orbit_size(w: Weight) -> int:
    """The number of distinct rearrangements of w: len(w)! / prod m_i! over its entries' multiplicities.

    Built one sorted entry at a time: the n-th entry, the k-th of its run
    of equal entries, multiplies the count by n / k, which divides exactly.
    """
    size, run, last = 1, 0, None
    for n, x in enumerate(sorted(w), 1):
        run = run + 1 if x == last else 1
        size, last = size * n // run, x
    return size


def multinomials(total: int, length: int) -> Iterator[tuple[Weight, int]]:
    """Each weight of ``length`` entries >= 0 summing to ``total``, with total! / prod w_i!.

    The weights come in lexicographic order, and no factorial is taken.
    With entries h_1..h_k placed and rest left to place, a level holds
    total! / (h_1! ... h_k! rest!); raising the next entry from x to x + 1
    multiplies that by rest - x and divides it, exactly, by x + 1.
    """
    def walk(head: Weight, rest: int, value: int) -> Iterator[tuple[Weight, int]]:
        if len(head) == length - 1:
            yield (*head, rest), value
            return
        for x in range(rest + 1):
            yield from walk((*head, x), rest - x, value)
            value = value * (rest - x) // (x + 1)

    return walk((), total, 1)


def wedge_counts(inner: Mapping[Weight, int], q: int, length: int) -> Counter:
    """{weight: count} of the q-wedges of a basis whose weights have multiplicities ``inner``.

    Each distinct inner weight w, of multiplicity m, is visited once:
    layer k, from q down to 1, gains t*w on a (k - t)-wedge in comb(m, t)
    ways.  Layer j is empty above the inner multiplicity already visited,
    so t starts at k minus that.  ``length`` is the number of coordinates,
    which the empty wedge's zero weight needs.
    """
    if q > sum(inner.values()):
        return Counter()
    layers = [Counter({(0,) * length: 1})] + [Counter() for _ in range(q)]
    seen = 0  # the inner multiplicity visited so far: layers above it are empty
    for w, m in inner.items():
        ways = [1]  # comb(m, t), each from the one before
        for t in range(1, min(q, m) + 1):
            ways.append(ways[-1] * (m - t + 1) // t)
        for k in range(q, 0, -1):
            for t in range(max(1, k - seen), min(k, m) + 1):
                for v, count in layers[k - t].items():
                    layers[k][tuple(a + t * b for a, b in zip(v, w))] += count * ways[t]
        seen += m
    return layers[q]
