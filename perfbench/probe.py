"""Set-up probe: a fresh process that gets one workload ready for its first op.

    python3 perfbench/probe.py --workload NAME --seed N

It imports the package, builds the workload's inputs and runs its warm-up
op, then prints one JSON line with the import time.  ``run.py`` times it
from process start to that line.  It then times the speed probe of
``speed.py`` and prints its median duration on a second line, so that the
set-up time can be scaled to the reference speed of the core it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEED_SAMPLES = 9


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args()
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    start = perf_counter()
    import ifedcrowd  # noqa: F401  (the package import is what setup.import_s times)

    import_s = perf_counter() - start
    from perfbench import workloads
    from perfbench.speed import SpeedProbe

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    w = workloads.make(args.workload, args.seed, out_dir)
    try:
        w.warmup()
    finally:
        w.close()
    print(json.dumps({"import_s": import_s}), flush=True)
    probe = SpeedProbe()
    for _ in range(SPEED_SAMPLES):
        probe.sample()
    print(json.dumps({"probe_s": statistics.median(probe.durations)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
