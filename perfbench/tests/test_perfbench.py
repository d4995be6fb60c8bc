"""Tests of the benchmark's own code: oracles, span arithmetic and seeded inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _pinned():
    with open(os.path.join(BENCH, "pinned.json"), encoding="utf-8") as fh:
        return json.load(fh)["digests"]


# -- oracles must be able to fail ------------------------------------------------


def test_pinned_oracle_fails_on_a_corrupted_expected_value():
    specs = [s for s in workloads.make_inputs("automorphisms", 1) if s["id"] == "ia_betti(2,4,0..4)"]
    ctx = workloads.Context(specs)
    spec = specs[0]
    result = workloads.run_item(spec, ctx)
    pinned = _pinned()
    assert workloads.check_item(spec, result, ctx, pinned) == []
    corrupted = dict(pinned)
    wrong = [(betti + (q == 2), table) for q, (betti, table) in enumerate(result)]
    corrupted[spec["id"]] = oracles.digest(workloads.normalized(spec, wrong))
    assert workloads.check_item(spec, result, ctx, corrupted)


def test_invariants_fail_on_corrupted_answers():
    good = [1, 5, 40, 176, 440, 835, 1423, 1980, 1980, 1423, 835, 440, 176, 40, 5, 1]
    assert oracles.class2_betti(5) == good
    assert oracles.betti_vector(good, 5) == []
    bad = list(good)
    bad[3] += 1
    assert oracles.betti_vector(bad, 5)
    assert oracles.class2_betti(5) != bad
    table = {(1, 2): 3, (2, 1): 3, (3, 0): 1, (0, 3): 1}
    assert oracles.weight_table(table, 8, [1, 0]) == []
    assert oracles.weight_table({(1, 2): 3, (2, 1): 2, (3, 0): 1, (0, 3): 1}, 7, [1, 0])
    assert oracles.weight_table(table, 9, [1, 0])


def test_class2_closed_form_matches_small_cases():
    assert oracles.class2_betti(2) == [1, 2, 2, 1]
    assert oracles.class2_betti(3) == [1, 3, 8, 12, 8, 3, 1]


def test_bch_oracle_fails_on_a_corrupted_product():
    specs = [s for s in workloads.make_inputs("group_arith", 3) if s["op"] == "product"][:3]
    ctx = workloads.Context(specs)
    for spec in specs:
        z = workloads.run_item(spec, ctx)
        assert workloads.check_item(spec, z, ctx, {}) == []
        coords = dict(z.coords)
        coords[(1,)] = coords.get((1,), Fraction(0)) + 1
        assert workloads.check_item(spec, ctx.nilhom.malcev_element(z.basis, coords), ctx, {})


def test_cli_warm_output_must_match_cold_output():
    spec = {"id": "warm1:x", "op": "cli", "argv": ["hall"], "same_as": "cold:x"}
    ctx = workloads.Context([])
    ctx.results["cold:x"] = (0, b"a\n")
    assert workloads.check_item(spec, (0, b"a\n"), ctx, {}) == []
    assert workloads.check_item(spec, (0, b"b\n"), ctx, {})
    assert workloads.check_item(spec, (1, b"a\n"), ctx, {})


def test_seeded_matrices_are_unimodular_with_an_exact_inverse():
    for spec in workloads.make_inputs("automorphisms", 5):
        if "matrix" in spec:
            a = spec["matrix"]
            a_inv = oracles.inverse(a)
            n = len(a)
            product = [[sum(a[i][k] * a_inv[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
            assert product == [[int(i == j) for j in range(n)] for i in range(n)]
            assert all(x == int(x) for row in a_inv for x in row)


# -- span arithmetic ------------------------------------------------------------------


def _synthetic_spans():
    # item [0, 100): lie_homology.homology [10, 90) with two rank calls
    # [20, 40) and [50, 60), and a hall_basis call nested in the second one
    # [52, 55); a harness hook [5, 8) directly under the item.
    return [
        (0, "harness.item", 0, 100, None, "a"),
        (1, "harness.hook", 5, 8, 0, "a"),
        (2, "lie_homology.homology", 10, 90, 0, "a"),
        (3, "exact_linalg.rank.lie_homology", 20, 40, 2, "a"),
        (4, "exact_linalg.rank.lie_homology", 50, 60, 2, "a"),
        (5, "free_lie.hall_basis", 52, 55, 4, "a"),
        (6, "lie_homology.homology", 91, 95, 0, "a"),
        (7, "lie_homology.homology", 92, 93, 6, "a"),
    ]


def test_self_times_of_a_synthetic_tree():
    selfs = tracing.self_times(_synthetic_spans())
    assert selfs == {0: 100 - 3 - 80 - 4, 1: 3, 2: 80 - 20 - 10, 3: 20, 4: 10 - 3, 5: 3, 6: 3, 7: 1}
    assert sum(selfs.values()) == 100


def test_layer_metrics_add_up_to_the_traced_run():
    m = tracing.layer_metrics(_synthetic_spans(), {}, {})
    layers = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert m["trace.run_s"] == pytest.approx(100e-9)
    assert layers + m["harness.self_s"] == pytest.approx(m["trace.run_s"])
    assert m["lie_homology.homology.self_s"] == pytest.approx((50 + 3 + 1) * 1e-9)
    assert m["exact_linalg.rank.lie_homology.calls"] == 2
    assert m["exact_linalg.rank.lie_homology.s"] == pytest.approx(30e-9)
    assert m["free_lie.hall_basis.calls"] == 1


def test_nested_spans_of_one_name_count_once_in_total_time():
    totals = tracing.name_totals(_synthetic_spans())
    assert totals["lie_homology.homology"]["calls"] == 3
    assert totals["lie_homology.homology"]["s"] == pytest.approx((80 + 4) * 1e-9)


def test_benchmark_json_names_exactly_the_metrics_the_harness_produces():
    import run

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    items = [{"id": "warm1:a", "ns": 2_000_000, "probe_ns": 1.5e6, "errors": []},
             {"id": "b", "ns": 5_000_000, "probe_ns": 3e6, "errors": []}]
    fake = {"setup_ns": 1, "setup_probe_ns": 1.5e6, "rss_kb": 1024, "children_rss_kb": 2048, "items": items,
            "layers": tracing.layer_metrics(_synthetic_spans(), {}, {})}
    setup = {"setup_ns": 2, "setup_probe_ns": 1.5e6}
    assert {m["name"] for m in spec["end_to_end"]} == set(run.end_to_end("homology", [fake, fake], [setup]))
    assert run.item_stats([fake, fake])["warm_hit_ms_p50"] == 2.0
    # an item measured while the probe ran at half the reference speed counts half
    assert run.end_to_end("homology", [fake, fake], [setup])["run_ref_s"] == pytest.approx(0.002 + 0.0025)
    assert run.end_to_end("homology", [fake], [setup, setup])["setup_s"] == pytest.approx(2e-9)
    assert {m["name"] for m in spec["per_layer"]} == set(run.per_layer(fake, fake))


def test_tracing_overhead_is_taken_from_probe_scaled_times():
    import run

    def one_pass(ns, probe_ns):
        items = [{"id": name, "ns": ns // 2, "probe_ns": probe_ns, "errors": []} for name in ("a", "b")]
        return {"setup_ns": 1, "items": items, "layers": {"trace.run_s": ns / 1e9}}

    # the traced pass ran on a core twice as slow: raw time doubles, no overhead
    m = run.per_layer(one_pass(4_000_000, 1.5e6), one_pass(8_000_000, 3e6))
    assert m["trace.run_s"] - m["trace.run_s_untraced"] == pytest.approx(0.004)
    assert m["trace.overhead_s"] == pytest.approx(0)
    # same host speed, 10% more time traced
    m = run.per_layer(one_pass(4_000_000, 1.5e6), one_pass(4_400_000, 1.5e6))
    assert m["trace.overhead_s"] == pytest.approx(0.0004)
    assert m["trace.overhead_frac"] == pytest.approx(0.1)


def test_cli_probes_are_read_from_the_last_probe_line():
    assert workloads._child_probes(b"nilhom: note\nperfbench-probe 1 2\nperfbench-probe 1500 1700\n") == (1500, 1700)
    assert workloads._child_probes(b"nilhom: error: x\n") is None


# -- seeded inputs ------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert workloads.make_inputs(workload, 7) == workloads.make_inputs(workload, 7)


def test_other_seed_gives_other_group_arith_inputs():
    a = workloads.make_inputs("group_arith", 7)
    b = workloads.make_inputs("group_arith", 8)
    assert [s["id"] for s in a] == [s["id"] for s in b]
    assert a != b


def test_group_arith_is_large_enough_for_a_p95():
    assert len(workloads.make_inputs("group_arith", 1)) >= 200
