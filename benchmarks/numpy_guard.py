"""Single source of truth for the numpy-laziness invariant.

The scalar simulation path must never pull numpy into the process: the
memory benchmark's record-path children measure a delta that a stray
~30 MB numpy import would drown, and cold-sweep startup pays the import
latency for nothing.  The only execution path sanctioned to import numpy
is the **block engine** (``repro.sim.batch_kernels.numpy_backend``,
lazily and only for blocks past its size threshold).

This helper used to live as two diverging copies in ``mem_workload.py``
and ``write_bench_json.py``; both now call here, as does the
``fig9_sweep_batch`` benchmark's scalar-subprocess check, so the
invariant cannot rot silently in one copy while the other still passes.
"""

from __future__ import annotations

import sys
from typing import Optional

#: Engine names allowed to import numpy on the simulation path (the
#: block lanes and their per-cell kernel share one lazy seam,
#: ``repro.sim.batch_kernels.numpy_backend``).
ARRAY_ENGINES = ("block",)


def numpy_imported() -> bool:
    """Whether numpy is resident in this process right now."""
    return "numpy" in sys.modules


def numpy_violation(label: str, imported: Optional[bool] = None,
                    engine: str = "scalar") -> Optional[str]:
    """A failure string when the laziness invariant is broken, else None.

    ``imported`` defaults to this process's live state; pass a child
    report's recorded flag when checking a subprocess measurement.
    ``engine`` names the execution path that produced the measurement —
    only the :data:`ARRAY_ENGINES` are allowed to have imported numpy.
    """
    if imported is None:
        imported = numpy_imported()
    if not imported or engine in ARRAY_ENGINES:
        return None
    return (f"{label}: numpy crept into a scalar path — only the "
            "block engine may import numpy (a stray ~30 MB import "
            "skews memory deltas and slows every scalar startup)")
