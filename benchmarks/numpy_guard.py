"""Single source of truth for the numpy-free invariant.

No simulation path may pull numpy into the process: the memory
benchmark's record-path children measure a delta that a stray ~30 MB
numpy import would drown, and cold-sweep startup pays the import
latency for nothing.  The package declares no
run-time dependency at all.

This helper used to live as two diverging copies in ``mem_workload.py``
and ``write_bench_json.py``; both now call here, as does the
``fig9_sweep_batch`` benchmark's scalar-subprocess check, so the
invariant cannot rot silently in one copy while the other still passes.
"""

from __future__ import annotations

import sys
from typing import Optional


def numpy_imported() -> bool:
    """Whether numpy is resident in this process right now."""
    return "numpy" in sys.modules


def numpy_violation(label: str,
                    imported: Optional[bool] = None) -> Optional[str]:
    """A failure string when the numpy-free invariant is broken, else None.

    ``imported`` defaults to this process's live state; pass a child
    report's recorded flag when checking a subprocess measurement.
    """
    if imported is None:
        imported = numpy_imported()
    if not imported:
        return None
    return (f"{label}: numpy crept into a simulation path — the package "
            "runs without numpy (a stray ~30 MB import skews memory "
            "deltas and slows every startup)")
