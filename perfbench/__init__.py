"""End-to-end and per-layer benchmark for ``repro sweep`` and ``repro serve``.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see ``perfbench/README.md``.
"""
