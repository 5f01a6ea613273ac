"""Run one benchmark measurement and print its metrics.

    python3 perfbench/run.py --workload sweep|scale|simulate --seed N \
        --seconds S --trace 0|1 [--save RESULTS.jsonl]

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--save`` also appends the full record, run metadata included,
to a JSON-lines result set for ``series.py`` and ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter, perf_counter_ns

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
PROBE = os.path.join(ROOT, "perfbench", "probe.py")
SETUP_PROBES = 7
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MAX_REPORTED_ERRORS = 5
BALANCE_TOLERANCE = 0.01  # share of the traced wall time

sys.path.insert(0, ROOT)
from perfbench import stats  # noqa: E402
from perfbench.speed import SPEED_REFERENCE_S, SpeedProbe  # noqa: E402


@dataclass
class Phase:
    """Outcome of one measured stretch of whole passes."""

    latencies: list[float]
    mids: list[float]
    probe: SpeedProbe
    attempted: int
    failed: int
    passes: int
    wall_ns: int
    outside_ns: int  # time between the op and check calls: probes and loop glue
    next_op: int

    def scaled(self) -> list[float]:
        """Op latencies at the reference speed."""
        return stats.speed_scaled(
            self.latencies, self.mids, self.probe.times, self.probe.durations, SPEED_REFERENCE_S
        )

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.scaled())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "scale", "simulate"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--save", help="append the full result record to this JSONL file")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(workload: str, seed: int) -> tuple[float, float, float]:
    """Median set-up time, median import time and median unscaled set-up time.

    Set-up is the time from a fresh process to ready for the first op.  Each
    child times the speed probe on its own core once it is ready, and its
    times are scaled to the reference speed by that probe, as op times are.
    """
    totals, imports, walls = [], [], []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, PROBE, "--workload", workload, "--seed", str(seed)]
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = perf_counter()
            rest = proc.stdout.read()
        if proc.returncode != 0 or not line or not rest:
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        scale = SPEED_REFERENCE_S / json.loads(rest)["probe_s"]
        walls.append(ready - start)
        totals.append((ready - start) * scale)
        imports.append(json.loads(line)["import_s"] * scale)
    return statistics.median(totals), statistics.median(imports), statistics.median(walls)


def measure(w, first_op: int, stop, call, errors: list[str]) -> Phase:
    """Closed loop over whole passes until ``stop(passes, elapsed_s, last_pass_s)``.

    ``call(name, fn, *args)`` runs the op and its check, inside a span when
    tracing.  An op fails if it raises or if its check reports a problem.
    The time outside those calls is summed as it passes, so that a traced
    run can check its spans against it.
    """
    latencies: list[float] = []
    mids: list[float] = []
    attempted = failed = passes = outside_ns = 0
    i = first_op
    probe = SpeedProbe()
    probe.sample()
    start_ns = mark = perf_counter_ns()
    while True:
        pass_start = mark
        for _ in range(w.pass_ops):
            attempted += 1
            t0 = perf_counter_ns()
            outside_ns += t0 - mark
            try:
                out = call("bench.op", w.op, i)
                problems = None
            except Exception:
                problems = [traceback.format_exc()]
            t1 = mark = perf_counter_ns()
            latencies.append((t1 - t0) / 1e9)
            mids.append((t0 + t1) / 2e9)
            probe.maybe_sample()
            if problems is None:
                c0 = perf_counter_ns()
                outside_ns += c0 - t1
                problems = call("bench.check", w.check, i, out)
                mark = perf_counter_ns()
            if problems:
                failed += 1
                if len(errors) < MAX_REPORTED_ERRORS:
                    errors.append(f"op {i}: " + "; ".join(problems))
            i += 1
        passes += 1
        now = perf_counter_ns()
        if stop(passes, (now - start_ns) / 1e9, (now - pass_start) / 1e9):
            break
    end_ns = perf_counter_ns()
    outside_ns += end_ns - mark
    probe.sample()
    return Phase(
        latencies, mids, probe, attempted, failed, passes, end_ns - start_ns, outside_ns, i
    )


def untraced_call(name, fn, *args):
    return fn(*args)


def end_to_end(w, args, setup_s: float, setup_wall_s: float, errors: list[str]):
    phase = measure(
        w,
        0,
        # stop before a pass that would likely end past the deadline
        lambda passes, elapsed, last: passes >= w.min_passes and elapsed + last > args.seconds,
        untraced_call,
        errors,
    )
    scaled = phase.scaled()
    inputs = [w.input_of(i) for i in range(phase.attempted)]
    tail_ms, tail_pct, beyond, tail_over = stats.repeat_tail([x * 1e3 for x in scaled], inputs)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "op_ms_p50": (statistics.median(scaled) * 1e3, "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = {
        "ops": len(scaled),
        "passes": phase.passes,
        "tail_percentile": tail_pct,
        "tail_beyond": beyond,
        "tail_over": tail_over,
        "fail_ratio": phase.failed / phase.attempted,
        "measured_s": phase.wall_ns / 1e9,
        "setup_wall_s": setup_wall_s,
        "wall_ops_per_s": len(scaled) / sum(phase.latencies),
        "wall_op_ms_p50": statistics.median(phase.latencies) * 1e3,
        "probe_ms_median": statistics.median(phase.probe.durations) * 1e3,
    }
    return phase.attempted, phase.failed, metrics, notes


def traced(w, args, import_s: float, errors: list[str]):
    """Untraced whole passes for half the time, then as many passes traced."""
    from perfbench import spans

    plain = measure(
        w,
        0,
        lambda passes, elapsed, last: elapsed + last > args.seconds / 2,
        untraced_call,
        errors,
    )
    tracer = spans.Tracer()

    def call(name, fn, i, *rest):
        tracer.op_id = i
        return tracer.call(name, fn, i, *rest)

    with spans.installed(tracer, type(w)):
        traced_phase = measure(
            w, plain.next_op, lambda passes, *_: passes >= plain.passes, call, errors
        )
    wall_ns = traced_phase.wall_ns
    overhead = traced_phase.ops_per_s / plain.ops_per_s
    # span times scale to the reference speed by the phase's mean slowdown
    time_scale = sum(traced_phase.scaled()) / sum(traced_phase.latencies)
    values = spans.layer_metrics(
        tracer, traced_phase.passes, wall_ns, traced_phase.outside_ns, time_scale, import_s, overhead
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    span_path = os.path.join(OUT_DIR, f"spans-{w.name}-seed{args.seed}.csv")
    tracer.write(span_path)
    gap_ns = balance_gap_ns(tracer, traced_phase)
    balanced = abs(gap_ns) <= BALANCE_TOLERANCE * wall_ns
    if not balanced:
        errors.append(
            f"span self times plus the untraced time miss the traced wall time by {gap_ns / 1e9:.6f} s"
        )
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    metrics = {name: (values[name], units[name]) for name in units}
    notes = {
        "passes": traced_phase.passes,
        "spans": len(tracer.spans),
        "span_file": os.path.relpath(span_path, ROOT),
        "traced_wall_s": wall_ns / 1e9,
        "self_plus_untraced_s": (sum(tracer.self_times_ns().values()) + traced_phase.outside_ns) / 1e9,
        "balance_gap_s": gap_ns / 1e9,
        "time_scale": time_scale,
        "span_balance_ok": balanced,
    }
    attempted = plain.attempted + traced_phase.attempted
    failed = plain.failed + traced_phase.failed
    notes["fail_ratio"] = failed / attempted
    return attempted, failed, metrics, notes


def balance_gap_ns(tracer, phase: Phase) -> int:
    """Traced wall time that neither the spans nor the separately timed glue cover.

    Self times of all spans add up to the root spans by definition, so the
    balance rests on the glue that ``measure`` timed on its own.  What is
    left is the tracer's bookkeeping around the root calls, a few
    microseconds each; spans that overlap or go missing show as a large gap.
    """
    return phase.wall_ns - tracer.root_ns() - phase.outside_ns


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return "unknown"


def run_metadata(args) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ifedcrowd", "__init__.py")):
        print(f"perfbench: no ifedcrowd package under {SRC}", file=sys.stderr)
        return 2
    # One thread per process: BLAS must not fan out over the cores.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    import ifedcrowd

    if not os.path.abspath(ifedcrowd.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported ifedcrowd from {ifedcrowd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from perfbench import workloads

    setup_s, import_s, setup_wall_s = measure_setup(args.workload, args.seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    w = workloads.make(args.workload, args.seed, OUT_DIR)
    errors: list[str] = []
    try:
        w.warmup()
        if args.trace:
            attempted, failed, metrics, notes = traced(w, args, import_s, errors)
        else:
            attempted, failed, metrics, notes = end_to_end(w, args, setup_s, setup_wall_s, errors)
    finally:
        w.close()

    meta = run_metadata(args)
    print("perfbench " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print("  " + " ".join(f"{k}={v}" for k, v in notes.items()))
    for err in errors:
        print(f"  FAILED {err}", file=sys.stderr)
    result = {
        "correct": failed == 0 and notes.get("span_balance_ok", True),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.save:
        with open(args.save, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**result, "notes": notes, "meta": meta}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
