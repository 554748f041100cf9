"""Library behind ``perfbench/run.py``: workloads, tracing and reporting.

Everything here drives the simulator from outside, through its public
entry points; nothing in ``src/`` is modified or patched at class level.
"""
