"""End-to-end and per-layer benchmark of the simulated mobile computer.

Run from the repository root::

    python3 e2ebench/run.py --workload ss_office_2c --seed 0 --seconds 20 --trace 0

See ``e2ebench/run.py`` for the command line and the output contract.
"""
