"""The nilhom benchmark: closed-loop passes of one workload, checked by oracles.

    python3 perfbench/run.py --workload homology --seed 1 --seconds 20 --trace 0

Run from the root of a nilhom checkout; the program is imported from
./src, and metric names and units come from ./BENCHMARK.json.  One client
issues the workload's items one at a time, each after the previous one
returns.  A pass is one run of all items in a fresh interpreter (worker.py),
because nilhom memoizes bases and algebras in-process.

--trace 0 first starts SETUP_LAUNCHES workers that stop after set-up,
then repeats passes until --seconds have gone by, and reports the
end-to-end metrics over those passes.  --trace 1 makes one untraced and one
traced pass with the same seed and reports the per-layer metrics of the
traced pass, plus the tracing overhead.  Spans of the traced pass go to
.perfbench/trace-<workload>-<seed>.json.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A readable summary goes to stderr; with --trace 0 its last line is
`item_stats <JSON>`, the unbounded figures of item_stats.  Exit code 2 means
the checkout has no nilhom source or no BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as _fh:
    DEFAULT_SEEDS = {name: meta["default_seed"] for name, meta in json.load(_fh)["workloads"].items()}
PASS_TIMEOUT_S = 150
# Workers per --trace 0 run that only set up; setup_s is the median over them and the passes.
SETUP_LAUNCHES = 8
# The probe time (worker.probe_ns) that defines the reference host speed of run_ref_s.
REFERENCE_PROBE_NS = 1.5e6


class PassFailed(RuntimeError):
    pass


def run_pass(root: str, workload: str, seed: int, trace: bool, work_dir: str, spans_out: str | None = None,
             setup_only: bool = False) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("NILHOM_CACHE_DIR", "PERFBENCH_SPANS")}
    env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
            "--trace", str(int(trace)), "--work-dir", work_dir]
    if spans_out:
        argv += ["--spans-out", spans_out]
    if setup_only:
        argv.append("--setup-only")
    env["PERFBENCH_T0"] = str(time.monotonic_ns())
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed(f"a {workload} pass took longer than {PASS_TIMEOUT_S} s")
    finally:
        shutil.rmtree(os.path.join(work_dir, "cache"), ignore_errors=True)
    if proc.returncode != 0:
        raise PassFailed(f"worker exited with {proc.returncode}: {err.decode(errors='replace')[-2000:]}")
    return json.loads(out.decode().strip().splitlines()[-1])


def _pass_run_s(p: dict) -> float:
    return sum(item["ns"] for item in p["items"]) / 1e9


def _pass_run_ref_s(p: dict) -> float:
    return sum(item["ns"] * REFERENCE_PROBE_NS / item["probe_ns"] for item in p["items"]) / 1e9


def _peak_mb(workload: str, p: dict) -> float:
    kb = p["children_rss_kb"] if workload == "cli_session" else p["rss_kb"]
    return kb / 1024


def _setup_ref_s(p: dict) -> float:
    return p["setup_ns"] * REFERENCE_PROBE_NS / p["setup_probe_ns"] / 1e9


def end_to_end(workload: str, passes: list[dict], setups: list[dict]) -> dict[str, float]:
    """The bounded metrics of a run of untraced passes and set-up-only launches.

    run_ref_s is the wall time of a pass's items with each item scaled to the
    reference host speed, REFERENCE_PROBE_NS over the mean of the probes taken
    just before and after it, averaged over the run's passes.  On a 2-core
    Xeon VM whose cores switch between a fast and a slow state every few
    seconds, six runs of homology spread 0.14 in raw pass time and 0.03 in
    scaled time (automorphisms: 0.21 and 0.07).  The raw mean pass time,
    wall_run_s, is printed beside it.  setup_s, the median over set-up-only
    launches and passes of the time from starting the worker to its inputs
    being ready, is scaled the same way by the probe taken right after
    set-up; wall_setup_s is raw.
    """
    return {
        "setup_s": statistics.median(_setup_ref_s(p) for p in setups + passes),
        "run_ref_s": statistics.mean(_pass_run_ref_s(p) for p in passes),
        "peak_rss_mb": statistics.median(_peak_mb(workload, p) for p in passes),
    }


def item_stats(passes: list[dict]) -> dict[str, float]:
    """Raw wall time and per-item figures pooled over passes; none of them has a bound."""
    samples = [item["ns"] / 1e6 for p in passes for item in p["items"]]
    warm = [item["ns"] / 1e6 for p in passes for item in p["items"] if item["id"].startswith("warm")]
    return {
        "wall_run_s": statistics.mean(_pass_run_s(p) for p in passes),
        "wall_setup_s": statistics.median(p["setup_ns"] / 1e9 for p in passes),
        "item_ms_p50": statistics.median(samples),
        "item_ms_p95": statistics.quantiles(samples, n=20, method="inclusive")[18],
        "item_samples": len(samples),
        "warm_hit_ms_p50": statistics.median(warm) if warm else 0.0,
        "fail_frac": sum(1 for p in passes for item in p["items"] if item["errors"]) / len(samples),
    }


def per_layer(untraced: dict, traced: dict) -> dict[str, float]:
    """The per-layer metrics of a traced pass, with the untraced pass of the same seed as base.

    trace.run_s and trace.run_s_untraced are the two passes' raw item times.
    The tracing overhead is taken from their probe-scaled times instead, so
    that the host's speed changes do not show as overhead: trace.overhead_s
    is the traced pass's run_ref_s minus the untraced one's, and
    trace.overhead_frac its share of the untraced one's.
    """
    m = dict(traced["layers"])
    m["trace.run_s_untraced"] = _pass_run_s(untraced)
    base = _pass_run_ref_s(untraced)
    m["trace.overhead_s"] = _pass_run_ref_s(traced) - base
    m["trace.overhead_frac"] = m["trace.overhead_s"] / base
    stats = item_stats([untraced])
    m["item_ms_p50"] = stats["item_ms_p50"]
    m["item_ms_p95"] = stats["item_ms_p95"]
    m["cli.warm_hit_ms_p50"] = stats["warm_hit_ms_p50"]
    m["fail_frac"] = item_stats([untraced, traced])["fail_frac"]
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "nilhom", "__init__.py")):
        print("run.py: no nilhom source at ./src/nilhom; run from the root of a nilhom checkout",
              file=sys.stderr)
        return 2
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"run.py: cannot read ./BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(root, "src", "nilhom"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    started = time.monotonic()
    try:
        if args.trace:
            spans_out = os.path.join(out_dir, f"trace-{args.workload}-{seed}.json")
            passes = [run_pass(root, args.workload, seed, False, work_dir),
                      run_pass(root, args.workload, seed, True, work_dir, spans_out)]
            values = per_layer(*passes)
            wanted = spec["per_layer"]
        else:
            setups = [run_pass(root, args.workload, seed, False, work_dir, setup_only=True)
                      for _ in range(SETUP_LAUNCHES)]
            passes = []
            while True:
                before = time.monotonic()
                passes.append(run_pass(root, args.workload, seed, False, work_dir))
                elapsed = time.monotonic() - started
                if elapsed >= args.seconds or elapsed + (time.monotonic() - before) > PASS_TIMEOUT_S:
                    break
            values = end_to_end(args.workload, passes, setups)
            wanted = spec["end_to_end"]
    except PassFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"run.py: BENCHMARK.json names metrics this benchmark does not produce: {missing}",
              file=sys.stderr)
        return 1
    attempted = sum(len(p["items"]) for p in passes)
    failures = [(item["id"], item["errors"]) for p in passes for item in p["items"] if item["errors"]]
    for item_id, errors in failures[:20]:
        print(f"FAILED {item_id}: {'; '.join(errors)}", file=sys.stderr)
    print(f"{args.workload} seed {seed}: {len(passes)} passes, {attempted} items, {len(failures)} failed "
          f"(fail_frac {len(failures) / attempted:.4f}), {time.monotonic() - started:.1f} s wall",
          file=sys.stderr)
    if args.trace:
        untraced, traced = passes
        print(f"  untraced pass: run_ref_s {_pass_run_ref_s(untraced):.3f} s, median probe "
              f"{statistics.median(item['probe_ns'] for item in untraced['items']) / 1e6:.3f} ms; traced pass: "
              f"{traced['spans']} spans, raw overhead {values['trace.run_s'] - values['trace.run_s_untraced']:.3f} s",
              file=sys.stderr)
    for m in wanted:
        print(f"  {m['name']:45s} {values[m['name']]:14.6g} {m['unit']}", file=sys.stderr)
    if not args.trace:
        stats = item_stats(passes)
        print(f"  each pass's wall_run_s: {', '.join(f'{_pass_run_s(p):.3f}' for p in passes)}", file=sys.stderr)
        print(f"item_stats {json.dumps(stats)}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
