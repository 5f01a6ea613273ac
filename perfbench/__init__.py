"""Benchmark for the ifedcrowd package: workloads, tracing, statistics and comparison.

Run one measurement with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see README.md here.
"""
