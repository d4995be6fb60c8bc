"""Spans recorded at nilhom's module boundaries, from outside the package.

A Tracer keeps spans in memory: (id, name, start_ns, end_ns, parent_id,
item).  `install` replaces, in each nilhom module, the names it imports
from the layer below and the public entry points the benchmark calls with
wrappers that open a span around the call.  Nothing under src/ changes.

A span's layer is the part of its name before the first dot.  Self time is
a span's duration minus the durations of its direct children, so the self
times of all spans inside an item add up to the item's duration.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

LAYERS = ("free_lie", "lie_homology", "exact_linalg", "aut", "nilgroup", "rep", "cache", "cli")
RANK_CALLERS = ("lie_homology", "rep", "aut", "nilgroup")


class Tracer:
    """Spans and counters of one process; spans are kept only while an item is open."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.item = None
        self._stack: list[tuple[int, str, int | None, int]] = []
        self._next = 0

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        span_id = self._next
        self._next += 1
        self._stack.append((span_id, name, parent, time.perf_counter_ns()))

    def close(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, parent, start = self._stack.pop()
        self.spans.append((span_id, name, start, end, parent, self.item))

    @property
    def open_id(self):
        return self._stack[-1][0] if self._stack else None

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] += value

    def peak(self, key: str, value: float) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def graft(self, spans, parent_id) -> None:
        """Add spans recorded in another process under an open span of this one."""
        remap = {}
        for span in spans:
            remap[span[0]] = self._next
            self._next += 1
        for span_id, name, start, end, parent, _item in spans:
            new_parent = remap[parent] if parent is not None else parent_id
            self.spans.append((remap[span_id], name, start, end, new_parent, self.item))


def wrap(tracer: Tracer, name: str, fn, after=None, before=None):
    """fn with a span named `name` around each call made while an item is open.

    `after(result, args)` runs inside the span and must be O(1); `before(args)`
    does harness-side counting and runs in a `harness.hook` span of its own,
    so its cost is not charged to any layer.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.item is None:
            return fn(*args, **kwargs)
        if before is not None:
            tracer.open("harness.hook")
            try:
                before(args)
            finally:
                tracer.close()
        tracer.open(name)
        try:
            out = fn(*args, **kwargs)
            if after is not None:
                after(out, args)
            return out
        finally:
            tracer.close()

    return traced


def _bits(q) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def install(tracer: Tracer) -> None:
    """Wrap nilhom's module-boundary names so calls record spans in `tracer`."""
    from nilhom import aut, cache, cli, lie_homology, nilgroup, rep

    def patch(module, attr, name, **hooks):
        setattr(module, attr, wrap(tracer, name, getattr(module, attr), **hooks))

    def rank_before(args):
        m = args[0]
        tracer.count("exact_linalg.rank.calls")
        tracer.peak("exact_linalg.rank.rows_max", m.rows)
        tracer.peak("exact_linalg.rank.cols_max", m.cols)
        tracer.count("exact_linalg.rank.nnz_sum", len(m.entries))
        if m.entries:
            tracer.peak("exact_linalg.rank.in_bits_max", max(_bits(q) for q in m.entries.values()))

    def rank_after(out, args):
        if out == 0:
            tracer.count("exact_linalg.rank.zero")

    def bracket_after(out, args):
        if out.is_zero:
            tracer.count("free_lie.bracket.zero")

    def action_after(out, args):
        tracer.peak("rep.action_matrix.rows_max", out.rows)

    # free_lie, as imported by the layers above it
    for module in (lie_homology, aut, nilgroup, rep, cli):
        patch(module, "hall_basis", "free_lie.hall_basis")
    for module in (lie_homology, aut, nilgroup):
        patch(module, "bracket", "free_lie.bracket", after=bracket_after)
    for module in (aut, rep):
        patch(module, "induced_map_lie", "free_lie.induced_map_lie")
    patch(nilgroup, "_lie_coords_from_tensor", "free_lie.lie_coords_from_tensor")
    patch(nilgroup, "_expansion_dict", "free_lie.expansion_dict")

    # exact_linalg, as imported by each caller
    for module, attr in ((lie_homology, "rank"), (rep, "matrix_rank"), (aut, "rank"), (nilgroup, "rank")):
        caller = module.__name__.rsplit(".", 1)[1]
        patch(module, attr, f"exact_linalg.rank.{caller}", before=rank_before, after=rank_after)
    for module, attrs in (
        (nilgroup, ("nullspace_basis", "exp_nilpotent")),
        (aut, ("invert", "determinant", "exp_nilpotent")),
        (rep, ("invert",)),
        (lie_homology, ("row_space_basis",)),
    ):
        for attr in attrs:
            patch(module, attr, f"exact_linalg.{attr}")

    # lie_homology: entry points and the names aut and nilgroup import
    for attr in ("group_betti", "betti_numbers", "betti_number", "weighted_betti"):
        patch(lie_homology, attr, "lie_homology.homology")
    for attr in ("betti_number", "weighted_betti"):
        patch(aut, attr, "lie_homology.homology")
    for module in (lie_homology, aut, nilgroup):
        patch(module, "free_nilpotent_lie", "lie_homology.free_nilpotent_lie")
    patch(aut, "GradedLieAlgebra", "lie_homology.GradedLieAlgebra")

    # aut
    for attr in ("ia_lie_algebra", "derivation_from_images", "automorphism_from_gl",
                 "gl_conjugation_on_ia", "ia_betti"):
        patch(aut, attr, f"aut.{attr}")
    aut.LieAutomorphism.__init__ = wrap(tracer, "aut.LieAutomorphism", aut.LieAutomorphism.__init__)

    # nilgroup
    for attr in ("multiply", "inverse", "group_commutator", "lcs_ranks", "center_basis", "inner_action"):
        patch(nilgroup, attr, f"nilgroup.{attr}")

    # rep
    patch(rep, "action_matrix", "rep.action_matrix", after=action_after)
    for attr in ("coinvariants_dim", "evaluate", "schur_decompose_gl2", "weight_dominance_compare"):
        patch(rep, attr, f"rep.{attr}")

    # cache, as the CLI uses it
    def get_before(args):
        store, kind, params = args
        if store.enabled and store._path(store._key(kind, params)).exists():
            tracer.count("cache.get.present")

    def get_after(out, args):
        if out is not None:
            tracer.count("cache.get.hits")

    def put_after(out, args):
        store, kind, params = args[:3]
        if store.enabled:
            tracer.count("cache.put.bytes", store._path(store._key(kind, params)).stat().st_size)

    cache.Cache.get = wrap(tracer, "cache.get", cache.Cache.get, before=get_before, after=get_after)
    cache.Cache.put = wrap(tracer, "cache.put", cache.Cache.put, after=put_after)

    # cli: every subcommand handler
    for command, handler in list(cli._HANDLERS.items()):
        cli._HANDLERS[command] = wrap(tracer, "cli.handler", handler)


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans) -> dict[int, int]:
    """Self time in ns of every span: duration minus its direct children's durations."""
    out = {span[0]: span[3] - span[2] for span in spans}
    for span_id, _name, start, end, parent, _item in spans:
        if parent is not None and parent in out:
            out[parent] -= end - start
    return out


def name_totals(spans) -> dict[str, dict[str, float]]:
    """calls, s (outermost spans of the name only) and self_s for every span name."""
    by_id = {span[0]: span for span in spans}
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for span_id, name, start, end, parent, _item in spans:
        entry = totals[name]
        entry["calls"] += 1
        entry["self_s"] += selfs[span_id] / 1e9
        ancestor = parent
        nested = False
        while ancestor is not None and ancestor in by_id:
            if by_id[ancestor][1] == name:
                nested = True
                break
            ancestor = by_id[ancestor][4]
        if not nested:
            entry["s"] += (end - start) / 1e9
    return totals


def layer_of(name: str) -> str:
    layer = name.split(".", 1)[0]
    return layer if layer in LAYERS else "harness"


def layer_metrics(spans, counters, maxima) -> dict[str, float]:
    """The per-layer metrics of one traced pass, keyed by metric name."""
    totals = name_totals(spans)

    def t(name, key):
        return totals[name][key] if name in totals else 0

    m: dict[str, float] = {}
    for layer in LAYERS + ("harness",):
        m[f"{layer}.self_s"] = sum(v["self_s"] for n, v in totals.items() if layer_of(n) == layer)

    m["free_lie.hall_basis.calls"] = t("free_lie.hall_basis", "calls")
    m["free_lie.hall_basis.s"] = t("free_lie.hall_basis", "s")
    m["free_lie.bracket.calls"] = t("free_lie.bracket", "calls")
    m["free_lie.bracket.self_s"] = t("free_lie.bracket", "self_s")
    m["free_lie.bracket.zero_frac"] = _ratio(counters.get("free_lie.bracket.zero", 0), m["free_lie.bracket.calls"])
    for short in ("lie_coords_from_tensor", "expansion_dict"):
        m[f"free_lie.{short}.self_s"] = t(f"free_lie.{short}", "self_s")
    m["free_lie.induced_map_lie.calls"] = t("free_lie.induced_map_lie", "calls")
    m["free_lie.induced_map_lie.self_s"] = t("free_lie.induced_map_lie", "self_s")

    m["lie_homology.free_nilpotent_lie.self_s"] = t("lie_homology.free_nilpotent_lie", "self_s")
    m["lie_homology.GradedLieAlgebra.s"] = t("lie_homology.GradedLieAlgebra", "s")
    m["lie_homology.homology.self_s"] = t("lie_homology.homology", "self_s")
    m["lie_homology.blocks"] = t("exact_linalg.rank.lie_homology", "calls")

    rank_calls = counters.get("exact_linalg.rank.calls", 0)
    m["exact_linalg.rank.calls"] = rank_calls
    for caller in RANK_CALLERS:
        m[f"exact_linalg.rank.{caller}.calls"] = t(f"exact_linalg.rank.{caller}", "calls")
        m[f"exact_linalg.rank.{caller}.s"] = t(f"exact_linalg.rank.{caller}", "s")
    for key in ("rows_max", "cols_max", "in_bits_max"):
        m[f"exact_linalg.rank.{key}"] = maxima.get(f"exact_linalg.rank.{key}", 0)
    m["exact_linalg.rank.nnz_sum"] = counters.get("exact_linalg.rank.nnz_sum", 0)
    m["exact_linalg.rank.zero_frac"] = _ratio(counters.get("exact_linalg.rank.zero", 0), rank_calls)
    for short in ("nullspace_basis", "invert", "determinant", "exp_nilpotent", "row_space_basis"):
        m[f"exact_linalg.{short}.s"] = t(f"exact_linalg.{short}", "s")

    m["aut.ia_lie_algebra.self_s"] = t("aut.ia_lie_algebra", "self_s")
    m["aut.derivation_from_images.calls"] = t("aut.derivation_from_images", "calls")
    m["aut.derivation_from_images.self_s"] = t("aut.derivation_from_images", "self_s")
    m["aut.automorphism_from_gl.self_s"] = t("aut.automorphism_from_gl", "self_s")
    m["aut.gl_conjugation_on_ia.self_s"] = t("aut.gl_conjugation_on_ia", "self_s")
    m["aut.LieAutomorphism.s"] = t("aut.LieAutomorphism", "s")

    m["nilgroup.multiply.calls"] = t("nilgroup.multiply", "calls")
    m["nilgroup.multiply.self_s"] = t("nilgroup.multiply", "self_s")
    for short in ("lcs_ranks", "center_basis", "inner_action"):
        m[f"nilgroup.{short}.s"] = t(f"nilgroup.{short}", "s")

    m["rep.action_matrix.calls"] = t("rep.action_matrix", "calls")
    m["rep.action_matrix.self_s"] = t("rep.action_matrix", "self_s")
    m["rep.action_matrix.rows_max"] = maxima.get("rep.action_matrix.rows_max", 0)
    m["rep.coinvariants_dim.self_s"] = t("rep.coinvariants_dim", "self_s")
    for short in ("evaluate", "schur_decompose_gl2", "weight_dominance_compare"):
        m[f"rep.{short}.s"] = t(f"rep.{short}", "s")

    gets = t("cache.get", "calls")
    hits = counters.get("cache.get.hits", 0)
    m["cache.get.calls"] = gets
    m["cache.get.hits"] = hits
    m["cache.get.hit_frac"] = _ratio(hits, gets)
    m["cache.get.rejected"] = counters.get("cache.get.present", 0) - hits
    m["cache.get.s"] = t("cache.get", "s")
    m["cache.put.calls"] = t("cache.put", "calls")
    m["cache.put.s"] = t("cache.put", "s")
    m["cache.put.bytes"] = counters.get("cache.put.bytes", 0)

    m["cli.import_s"] = t("cli.import", "s")
    m["cli.main.self_s"] = t("cli.main", "self_s")
    m["cli.handler.s"] = t("cli.handler", "s")

    m["trace.run_s"] = sum(end - start for _i, name, start, end, _p, _it in spans if name == "harness.item") / 1e9
    return m


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0
