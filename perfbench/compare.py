"""Compare two result sets metric by metric; reports only, gates nothing.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Result sets come from ``series.py`` (or ``run.py --save``).  Runs pair up by
workload, trace mode and seed; sets measured at different run lengths are not
compared.  Per workload and metric the report gives each
side's median and quartiles, how many pairs NEW wins, and a verdict:

- improved: NEW wins at least nine tenths of the pairs (ties count for
  neither) and the medians differ by more than BASE's interquartile distance;
- worse: NEW's median is worse than BASE's by more than the metric's bound
  from BENCHMARK.json; a per-layer metric has no bound and is worse by the
  mirror of the improved rule;
- unresolved: neither, with a note saying whether BASE's own spread is wider
  than the bound (the difference cannot be told from noise) or not (the
  change stays within the bound).
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import stats  # noqa: E402
from perfbench.series import group, load_benchmark, load_results, metric_specs  # noqa: E402

WIN_SHARE = 0.9


def pairs(base: list[dict], new: list[dict]) -> list[tuple[dict, dict]]:
    """Pair runs with the same seed, in file order where a seed repeats; runs
    left over pair up in file order."""
    by_seed: dict[int, list[dict]] = {}
    for r in new:
        by_seed.setdefault(r["meta"]["seed"], []).append(r)
    matched, rest_base = [], []
    for b in base:
        queue = by_seed.get(b["meta"]["seed"])
        if queue:
            matched.append((b, queue.pop(0)))
        else:
            rest_base.append(b)
    left = {id(r) for queue in by_seed.values() for r in queue}
    return matched + list(zip(rest_base, [r for r in new if id(r) in left]))


def verdict(base: list[float], new: list[float], pair_list, better: str, bound) -> tuple[str, int, str]:
    """(verdict, pair wins of NEW, note) for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, n in pair_list if sign * (n - b) > 0)
    losses = sum(1 for b, n in pair_list if sign * (n - b) < 0)
    q1, base_med, q3 = stats.quartiles(base)
    new_med = stats.quartiles(new)[1]
    gain = sign * (new_med - base_med)  # positive when NEW is better
    beyond_noise = abs(new_med - base_med) > q3 - q1
    enough = WIN_SHARE * len(pair_list)
    if pair_list and wins >= enough and gain > 0 and beyond_noise:
        return "improved", wins, ""
    if bound is not None:
        if base_med != 0 and -gain / abs(base_med) > bound:
            return "worse", wins, f"by {-gain / abs(base_med):.1%}, bound {bound:.0%}"
    elif pair_list and losses >= enough and gain < 0 and beyond_noise:
        return "worse", wins, ""
    if bound is not None and stats.spread(base) > bound:
        return "unresolved", wins, "base spread wider than bound"
    return "unresolved", wins, "within bound" if bound is not None else "no clear change"


def compare(base_records: list[dict], new_records: list[dict], specs: dict[str, dict]) -> list[str]:
    lines = []
    new_groups = group(new_records)
    for key, base in group(base_records).items():
        new = new_groups.get(key)
        if not new:
            lines.append(f"{key[0]} trace={key[1]}: no runs in NEW")
            continue
        lengths = {r["meta"]["seconds"] for r in base + new}
        if len(lengths) > 1:
            lines.append(f"{key[0]} trace={key[1]}: run lengths differ ({sorted(lengths)} s), not compared")
            continue
        pair_list = pairs(base, new)
        lines.append(f"{key[0]} trace={key[1]}: {len(base)} vs {len(new)} runs, {len(pair_list)} pairs")
        for name, spec in specs.items():
            if name not in base[0]["metrics"] or name not in new[0]["metrics"]:
                continue
            b_vals = [r["metrics"][name]["value"] for r in base]
            n_vals = [r["metrics"][name]["value"] for r in new]
            value_pairs = [(b["metrics"][name]["value"], n["metrics"][name]["value"]) for b, n in pair_list]
            result, wins, note = verdict(b_vals, n_vals, value_pairs, spec["better"], spec.get("bound"))
            bq1, bmed, bq3 = stats.quartiles(b_vals)
            nq1, nmed, nq3 = stats.quartiles(n_vals)
            lines.append(
                f"  {name:40s} base {bmed:.6g} [{bq1:.6g}, {bq3:.6g}]  new {nmed:.6g} "
                f"[{nq1:.6g}, {nq3:.6g}]  wins {wins}/{len(value_pairs)}  {result}"
                + (f" ({note})" if note else "")
            )
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    specs = metric_specs(load_benchmark())
    print("\n".join(compare(load_results(argv[0]), load_results(argv[1]), specs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
