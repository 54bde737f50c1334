"""One benchmark ladder: four workloads, end-to-end metrics, a per-layer split.

``python3 benchmarks/ladder/run.py --workload W --seed N --seconds S --trace 0|1``
is the command BENCHMARK.json names; ``PYTHONPATH=src python -m
benchmarks.ladder`` runs every workload both ways and prints a table.
See README.md in this directory.
"""
