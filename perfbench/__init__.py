"""The repository benchmark: end-to-end and per-layer timing from outside.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload in-process and prints one JSON result line; see
``run.py`` for the contract and ``workloads.py`` for what each workload
does and why it was chosen.
"""
