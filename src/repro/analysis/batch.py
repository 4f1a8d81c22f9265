"""The cell runner every executor shares.

Every sweep cell runs through :func:`repro.analysis.sweep.run_cell` on the
per-cell simulator (:func:`repro.sim.batch_kernels.batch_simulate`: the
flat-array :class:`~repro.sim.batch_kernels.CellKernel` inside its
envelope, the discrete-event engine outside it).  The event engine and the
tick simulator are its oracles, never a production path.

:func:`iter_cells` and :func:`encode_cells` are what the inline path
and the distributed worker run.  Importing this module loads no kernel
module, and no path of the package imports numpy.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Tuple

from repro.analysis.sweep import CellSpec, SweepContext, run_cell
from repro.analysis.transport import encode_cell


def iter_cells(context: SweepContext, specs: Sequence[CellSpec],
               ) -> Iterator[Tuple[int, Dict[str, object]]]:
    """Yield ``(index, outcome)`` for every spec, in submission order."""
    return ((index, run_cell(context, spec))
            for index, spec in enumerate(specs))


def encode_cells(context: SweepContext,
                 specs: Sequence[CellSpec]) -> List[bytes]:
    """Run ``specs``; return their CTR1 payloads
    (:func:`~repro.analysis.transport.encode_cell`) in spec order."""
    return [encode_cell(outcome) for _, outcome in iter_cells(context, specs)]
