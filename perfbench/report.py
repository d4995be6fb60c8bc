"""Run the benchmark over several seeds and summarize it, one row per metric.

    python3 perfbench/report.py --seeds 1-10 --out perfbench/results/NAME.json

Run from the root of a nilhom checkout.  For each workload it makes one
--trace 0 run per seed and reports each end-to-end metric's median,
quartiles (statistics.quantiles, n=4) and spread, the distance between the
quartiles as a share of the median; the same for the unbounded per-item
percentiles, the raw wall time and the warm-hit time, read from the
`item_stats` line each run prints last on stderr.  Then it makes one --trace 1 run per
workload with the first seed and reports the per-layer metrics.  The runs
go one after another, never in parallel, so they do not slow each other.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
UNBOUNDED = {"wall_setup_s": "s", "wall_run_s": "s", "item_ms_p50": "ms", "item_ms_p95": "ms", "warm_hit_ms_p50": "ms"}


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    """The result line of one run.py run, and its stderr."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def host() -> dict:
    """The machine the numbers were measured on."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpu": cpu, "cores": os.cpu_count(), "python": platform.python_version(), "system": platform.system()}


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None,
            "values": values}


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    seconds = bench["run_seconds"]
    report = {"seeds": seeds, "run_seconds": seconds, "host": host(),
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        outputs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        runs = [result for result, _ in outputs]
        stats = [json.loads(err.strip().splitlines()[-1].split(" ", 1)[1]) for _, err in outputs]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {name: summarize([r["metrics"][name]["value"] for r in runs]) for name in bounds},
        }
        entry["unbounded"] = {name: summarize([s[name] for s in stats]) for name in UNBOUNDED}
        entry["item_samples_per_run"] = statistics.median(s["item_samples"] for s in stats)
        print(f"{workload}: {entry['failed']} of {entry['attempted']} items failed over {len(seeds)} runs")
        for name, s in entry["end_to_end"].items():
            unit = runs[0]["metrics"][name]["unit"]
            print(f"  {name:14s} median {s['median']:11.5g} {unit:3s}  q1 {s['q1']:11.5g}  q3 {s['q3']:11.5g}"
                  f"  spread {s['spread']:.3f}  (bound {bounds[name]})")
        for name, s in entry["unbounded"].items():
            print(f"  {name:14s} median {s['median']:11.5g} {UNBOUNDED[name]:3s}  q1 {s['q1']:11.5g}  q3 {s['q3']:11.5g}"
                  f"  spread {s['spread'] if s['spread'] is not None else 0:.3f}  (no bound; "
                  f"{entry['item_samples_per_run']:.0f} item samples a run)")
        traced, _ = run_once(workload, seeds[0], seconds, 1)
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        print(f"  tracing overhead {entry['per_layer']['trace.overhead_s']:.3f} s "
              f"({entry['per_layer']['trace.overhead_frac']:.3f} of the untraced pass, probe-scaled)")
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
