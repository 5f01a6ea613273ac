"""Run the benchmark over several seeds and workloads and summarise the spread.

    python3 perfbench/series.py --out A.jsonl [--workloads sweep scale simulate]
        [--seeds 1-10 | --heldout] [--trace 0|1]

Each run is ``run.py`` in a fresh process with ``--save OUT``, so OUT becomes
a result set that ``compare.py`` reads.  Every run measures for the
``run_seconds`` that BENCHMARK.json sets.  The summary prints, per workload and
metric, the median, quartiles and spread (interquartile distance over the
median) next to the metric's bound from BENCHMARK.json.

``--heldout`` runs the held-out seed instead: keep it out of tuning, and
use it once to confirm that a claim holds on inputs it was not made on.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import stats  # noqa: E402

HELDOUT_SEEDS = (7919,)


def parse_seeds(text: str) -> list[int]:
    """'1-10' or '1,4,9' into a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, sep, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(lo)])
    return seeds


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def metric_specs(bench: dict) -> dict[str, dict]:
    return {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}


def load_results(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def group(records: list[dict]) -> dict[tuple[str, int], list[dict]]:
    """Records by (workload, trace), in file order."""
    out: dict[tuple[str, int], list[dict]] = {}
    for rec in records:
        out.setdefault((rec["meta"]["workload"], rec["meta"]["trace"]), []).append(rec)
    return out


def summarise(records: list[dict], specs: dict[str, dict]) -> list[str]:
    lines = []
    for (workload, trace), recs in group(records).items():
        failed = sum(r["failed"] for r in recs)
        attempted = sum(r["attempted"] for r in recs)
        lines.append(f"{workload} trace={trace}: {len(recs)} runs, {failed}/{attempted} ops failed")
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in recs]
            q1, med, q3 = stats.quartiles(values)
            bound = specs.get(name, {}).get("bound")
            spread = stats.spread(values)
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
            lines.append(
                f"  {name:40s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                f"spread {spread:.4f}" + (f" bound {bound} {flag}" if bound is not None else "")
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSONL result set to append to")
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--heldout", action="store_true", help="run the held-out seed only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bench = load_benchmark()
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    seeds = list(HELDOUT_SEEDS) if args.heldout else parse_seeds(args.seeds)
    for workload in workloads:
        for seed in seeds:
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
                   "--save", os.path.abspath(args.out)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            print(f"{workload} seed={seed} exit={proc.returncode} {last[:160]}", flush=True)
    print("\n".join(summarise(load_results(args.out), metric_specs(bench))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
