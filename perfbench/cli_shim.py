"""Entry point of each `nilhom` process the cli_session workload starts.

It takes the host-speed probe (worker.probe_ns) once before importing
nilhom.cli and once after main returns, in the process that does the work,
and writes both as the last stderr line, `perfbench-probe <before> <after>`;
the worker scales the item by them and leaves their time out of it.
Untraced, it otherwise only calls nilhom.cli.main with the command line.
With PERFBENCH_SPANS set, it also times the import of nilhom.cli, installs
the same wrappers as the in-process workloads, runs main inside a
`cli.main` span and writes the spans and counters to that path as JSON;
the probes then run in `harness.probe` spans.

    PYTHONPATH=src python3 perfbench/cli_shim.py betti group -r 3 -c 3
"""

import json
import os
import sys

from worker import probe_ns


def main() -> int:
    spans_path = os.environ.get("PERFBENCH_SPANS")
    if not spans_path:
        before = probe_ns()
        from nilhom.cli import main as cli_main

        code = cli_main(sys.argv[1:])
        sys.stderr.write(f"perfbench-probe {before} {probe_ns()}\n")
        return code

    import tracing

    tracer = tracing.Tracer()
    tracer.item = "cli"

    def probe() -> int:
        tracer.open("harness.probe")
        try:
            return probe_ns()
        finally:
            tracer.close()

    before = probe()
    tracer.open("cli.import")
    import nilhom.cli

    tracer.close()
    tracer.open("harness.install")
    tracing.install(tracer)
    tracer.close()
    tracer.open("cli.main")
    try:
        code = nilhom.cli.main(sys.argv[1:])
    finally:
        tracer.close()
        after = probe()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters, "maxima": tracer.maxima}, fh)
    sys.stderr.write(f"perfbench-probe {before} {after}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
