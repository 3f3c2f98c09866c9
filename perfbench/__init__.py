"""Benchmark for abclab: seeded workloads, an outside-in layer tracer and the runner.

Run it from the repository root as ``python3 perfbench/run.py --workload NAME
--seed N --seconds S --trace 0|1``; METRICS.md describes every metric.
"""
