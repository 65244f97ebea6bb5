"""The repository's benchmark: two seeded workloads, end-to-end and
per-layer metrics, and a correctness check on every operation.

Run it from the repository root::

    python3 perfbench/run.py --workload join_uniform --seed 1 --seconds 40 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and which
layer metric should move which end-to-end metric.
"""
