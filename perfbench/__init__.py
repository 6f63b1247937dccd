"""Layered end-to-end benchmark for the PPLB grid runner.

Run ``python3 perfbench/run.py --workload <name>`` from the repository
root; see ``perfbench/README.md`` for the workloads and metrics.
"""
