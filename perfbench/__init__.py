"""The repository's end-to-end benchmark: fit, draw, stream and serve.

Run it from the repository root::

    python3 perfbench/run.py --workload draw --seed 1 --seconds 16 --trace 0

``perfbench/README.md`` describes the workloads, the metrics and how
they relate to the older ``benchmarks/`` numbers.
"""
