"""Steady-state end-to-end benchmark of the shared auction engine.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; ``run.py`` documents
the workloads, the metrics and the output line.
"""
