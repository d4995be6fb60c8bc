"""Record the pinned answers that the oracles compare against.

    python3 perfbench/pin.py

Run from the root of a nilhom checkout at the commit whose answers are to
be pinned.  Only items whose inputs do not depend on the seed are pinned;
their digests go to perfbench/pinned.json.  Re-pinning is a change to the
benchmark's oracles and needs its own review.
"""

import json
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    root = os.getcwd()
    digests = {}
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        workloads = json.load(fh)["workloads"]
    for name, meta in workloads.items():
        with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-pin-") as work_dir:
            env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
                       PERFBENCH_T0=str(time.monotonic_ns()))
            env.pop("NILHOM_CACHE_DIR", None)
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
                 "--seed", str(meta["default_seed"]), "--work-dir", work_dir, "--pin"],
                env=env, capture_output=True, check=True)
        digests.update(json.loads(proc.stdout.decode().splitlines()[-1])["pins"])
    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
    with open(os.path.join(HERE, "pinned.json"), "w", encoding="utf-8") as fh:
        json.dump({"recorded_at_commit": commit or None, "digests": dict(sorted(digests.items()))}, fh, indent=1)
        fh.write("\n")
    print(f"pinned {len(digests)} answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
