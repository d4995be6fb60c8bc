"""One pass of one workload, in a fresh interpreter.

run.py starts this file once per pass, with PERFBENCH_T0 set to the
monotonic clock just before the start, so set-up time covers interpreter
launch, `import nilhom`, the seeded inputs and their Hall bases.  Items run
one at a time, each after the previous one returned; each is timed alone
and its oracle is checked after the timer stops.  The last line of stdout
is a JSON object with the pass's timings, peak RSS and, when traced, the
per-layer metrics.  With --setup-only it stops after set-up and reports
only the set-up time and its probe.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from fractions import Fraction


def probe_ns() -> int:
    """Time of a fixed loop of Fraction sums in a dict: the host's speed just before or after an item.

    On a 2-core Xeon VM whose cores switch between a fast and a slow state
    every few seconds, run.py scales each item by the probes taken around
    it, and the set-up time by the probe taken right after set-up.  The loop
    does what nilhom spends its time on, exact rational arithmetic on
    dict-held coordinates.  On that VM, six runs each of the same passes
    spread 0.03 / 0.07 / 0.04 (homology / automorphisms / group_arith) when
    scaled by it and 0.10 / 0.12 / 0.05 when scaled by a loop of integer
    arithmetic.  The garbage collector is off while it runs, because its
    collections take time in proportion to the live heap, which is the
    program's and grows over a pass.  A CLI item is scaled by the probes
    cli_shim.py takes inside its `nilhom` process instead, and their time is
    left out of the item.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter_ns()
    sums: dict[int, Fraction] = {}
    for i in range(300):
        k = i % 37
        sums[k] = sums.get(k, Fraction(0)) + Fraction(i, 7 + k)
    elapsed = time.perf_counter_ns() - start
    if enabled:
        gc.enable()
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spans-out")
    parser.add_argument("--pin", action="store_true", help="record digests of pinned answers, check nothing")
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = parser.parse_args()
    t0 = int(os.environ["PERFBENCH_T0"])

    import oracles
    import workloads

    pinned = {}
    if not args.pin:
        with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json"), encoding="utf-8") as fh:
            pinned = json.load(fh)["digests"]
    shim_env = {k: v for k, v in os.environ.items() if k not in ("PERFBENCH_T0", "NILHOM_CACHE_DIR")}
    specs = workloads.make_inputs(args.workload, args.seed)
    ctx = workloads.Context(specs, args.work_dir, shim_env)
    ready = time.monotonic_ns()
    setup_probe = probe_ns()
    if args.setup_only:
        sys.stdout.write(json.dumps({"setup_ns": ready - t0, "setup_probe_ns": setup_probe}) + "\n")
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        ctx.tracer = tracer

    items = []
    for spec in specs:
        before = probe_ns()
        if tracer is not None:
            tracer.item = spec["id"]
            tracer.open("harness.item")
        start = time.perf_counter_ns()
        try:
            result = workloads.run_item(spec, ctx)
            error = None
        except Exception as exc:  # an item that raises is a failed item, not a harness crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.close()
            tracer.item = None
        probe = (before + probe_ns()) / 2
        if ctx.child_probes is not None:
            elapsed -= sum(ctx.child_probes)
            probe = sum(ctx.child_probes) / 2
            ctx.child_probes = None
        if error is None and args.pin:
            ctx.results[spec["id"]] = result
            errors = []
            if workloads.is_pinned(spec):
                pinned[spec["id"]] = oracles.digest(workloads.normalized(spec, result))
        elif error is None:
            ctx.results[spec["id"]] = result
            try:
                errors = workloads.check_item(spec, result, ctx, pinned)
            except Exception as exc:  # an oracle that cannot read the answer fails the item
                errors = [f"oracle raised {type(exc).__name__}: {exc}"]
        else:
            errors = [error]
        items.append({"id": spec["id"], "ns": elapsed, "probe_ns": probe, "errors": errors})

    out = {
        "setup_ns": ready - t0,
        "setup_probe_ns": setup_probe,
        "items": items,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if args.pin:
        out["pins"] = pinned
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer.spans, tracer.counters, tracer.maxima)
        out["spans"] = len(tracer.spans)
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent", "item"],
                           "spans": tracer.spans}, fh)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
