"""Former home of the cross-cell vectorized lane simulator (removed).

Sweep cells run on :class:`~repro.sim.batch_kernels.CellKernel` only.
This module is kept
importable, and empty, only because the repository benchmark's tracing
probes (``perfbench/probes.py``) import it; it can go once they stop.
"""
