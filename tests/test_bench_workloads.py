"""The benchmark's own op checks, run on a short stretch of each workload.

A change that breaks what `perfbench/run.py` checks on every op (the sweep
reference table, the server and client certificates at n = 2000, repeatable
round reports) fails here, not only in a timed benchmark run.
"""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import workloads  # noqa: E402

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
