"""The benchmark's own op checks, run on a short stretch of each workload.

A change that breaks what `perfbench/run.py` checks on every op (the sweep
reference table, the server and client certificates at n = 2000, repeatable
round reports) fails here, not only in a timed benchmark run.  So does a
change that breaks the traced run's span wrappers and counters.
"""

import math
import os
import sys
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import run as bench_run  # noqa: E402
from perfbench import spans, workloads  # noqa: E402

OPS = {"sweep": 18, "scale": 1, "simulate": 5}  # one sweep pass, one n=2000 op, 5 rounds


@pytest.mark.parametrize("name", sorted(OPS))
def test_workload_ops_pass_their_checks(name, tmp_path):
    workload = workloads.make(name, seed=1, out_dir=str(tmp_path))
    try:
        workload.warmup()
        for i in range(OPS[name]):
            assert workload.check(i, workload.op(i)) == [], (name, i)
    finally:
        workload.close()


@pytest.mark.parametrize("name", sorted(OPS))
def test_traced_pass_reports_every_layer_metric(name, tmp_path, monkeypatch):
    # one untraced pass, then one traced pass; the span balance depends on
    # timing and is left to the benchmark run itself
    monkeypatch.setattr(bench_run, "OUT_DIR", str(tmp_path))
    workload = workloads.make(name, seed=1, out_dir=str(tmp_path))
    errors = []
    try:
        workload.warmup()
        attempted, failed, metrics, _ = bench_run.traced(
            workload, SimpleNamespace(seconds=1e-3, seed=1), 0.0, errors
        )
    finally:
        workload.close()
    assert failed == 0, errors
    assert attempted == 2 * workload.pass_ops
    assert set(metrics) == {metric for metric, _, _ in spans.PER_LAYER}
    assert all(math.isfinite(value) for value, _ in metrics.values())
