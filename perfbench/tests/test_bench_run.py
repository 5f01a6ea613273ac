import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no ifedcrowd package" in proc.stderr


class _Busy:
    """A stand-in workload: five equal ops a pass, each a few milliseconds."""

    pass_ops = 5

    def op(self, i):
        return sum(range(200_000))

    def check(self, i, out):
        return [] if out == sum(range(200_000)) else ["wrong sum"]


def _traced_phase():
    from perfbench import run, spans

    tracer = spans.Tracer()
    phase = run.measure(
        _Busy(), 0, lambda passes, *_: passes >= 3,
        lambda name, fn, *args: tracer.call(name, fn, *args), [],
    )
    return run, tracer, phase


def test_measure_runs_whole_passes_and_times_the_glue():
    run, tracer, phase = _traced_phase()
    assert (phase.passes, phase.attempted, phase.failed, phase.next_op) == (3, 15, 0, 15)
    assert tracer.call_counts() == {"bench.op": 15, "bench.check": 15}
    assert 0 < phase.outside_ns < phase.wall_ns
    assert abs(run.balance_gap_ns(tracer, phase)) <= run.BALANCE_TOLERANCE * phase.wall_ns


def test_balance_catches_a_span_counted_twice():
    run, tracer, phase = _traced_phase()
    tracer.spans.append(tracer.spans[0])  # a root op span recorded twice
    assert -run.balance_gap_ns(tracer, phase) > run.BALANCE_TOLERANCE * phase.wall_ns
