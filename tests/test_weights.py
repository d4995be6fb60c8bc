"""Weight-lattice combinatorics: wedge counts and S_r orbits against brute force."""

import random
from collections import Counter
from itertools import combinations, permutations
from math import comb

from nilhom.aut import ia_lie_algebra
from nilhom.lie_homology import _wedge_buckets, free_nilpotent_lie
from nilhom.weights import orbit, orbit_size, wedge_counts


def brute_wedge_counts(inner, q, length):
    """{weight: count} of the q-wedges, listed by combinations() of a basis with these multiplicities."""
    basis = [w for w, m in inner.items() for _ in range(m)]
    return Counter(tuple(sum(w[t] for w in combo) for t in range(length)) for combo in combinations(basis, q))


def test_wedge_counts_match_listed_combinations():
    rng = random.Random(3101)
    for _ in range(60):
        length = rng.randint(0, 3)
        inner = Counter()
        for _ in range(rng.randint(0, 4)):
            inner[tuple(rng.randint(-2, 2) for _ in range(length))] += rng.randint(1, 3)
        n = sum(inner.values())
        for q in range(n + 2):
            counts = wedge_counts(inner, q, length)
            assert counts == brute_wedge_counts(inner, q, length)
            assert sum(counts.values()) == comb(n, q)
            assert all(counts.values())


def test_wedge_counts_of_an_algebra_match_its_dominant_buckets():
    # the count over the algebra's basis weights, at its non-increasing
    # weights, is the size of each bucket the homology engine ranks
    for g in (free_nilpotent_lie(3, 3), free_nilpotent_lie(2, 5), ia_lie_algebra(3, 2)):
        inner = Counter(g.weights)
        for d in range(g.dim + 1):
            counts = wedge_counts(inner, d, g.weight_length)
            dominant = {w: c for w, c in counts.items() if list(w) == sorted(w, reverse=True)}
            assert dominant == {w: len(masks) for w, masks in _wedge_buckets(g, d, True).items()}


def test_orbit_size_counts_the_orbit():
    rng = random.Random(3102)
    cases = [(), (0,), (5, 5, 5), (2, 1, 2, 1), (-1, 0, -1, 3, 0, 0)]
    cases += [tuple(rng.randint(-2, 2) for _ in range(rng.randint(0, 7))) for _ in range(80)]
    for w in cases:
        assert orbit_size(w) == len(list(orbit(w))) == len(set(permutations(w)))
    assert orbit_size(tuple(range(12))) == 479_001_600
