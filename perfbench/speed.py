"""Fixed reference work that measures how fast the host runs right now.

The benchmark's host is a shared virtual machine whose CPU speed moves by
up to a factor of two between runs and within one, with user CPU time
moving with wall time.  The runner times reference work next to every
timed unit and reports times at the host's reference speed:

    adjusted = measured * reference / (median probe of the run)

Both probes are program-independent.  :func:`probe` is a loop of plain
Python integer and dict work plus small-array numpy calls, the two kinds
of work the program's engines do.  :func:`import_probe` starts a fresh
interpreter that imports numpy and the standard modules the program
uses: starting processes slows down with the host by more than the loop
does, so the set-up steps that start processes are scaled by it.
"""

from __future__ import annotations

import gc
import subprocess
import sys
from statistics import median
from time import perf_counter
from typing import Sequence

try:
    import numpy
except ImportError:  # the Python half alone still tracks the host
    numpy = None

#: About the probe's duration on the reference host (2 vCPUs, Intel
#: Xeon, Python 3.11, numpy 2.4: medians of 0.09-0.15 s, depending on
#: the period), so adjusted times read as seconds on that host.
REFERENCE_S = 0.1

#: The same for :func:`import_probe` (medians of 0.25-0.3 s).
IMPORT_REFERENCE_S = 0.3

IMPORTS = "import asyncio, concurrent.futures, json, multiprocessing" + (
    ", numpy" if numpy is not None else "")


def probe() -> float:
    """Seconds the fixed reference loop takes now.

    The garbage collector is off meanwhile, so the program's live heap
    cannot make the loop slower.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        total, table = 0, {}
        for i in range(400_000):
            total += i * i % 7
            table[i & 1023] = total
        if numpy is not None:
            limit = numpy.full(96, 50.0)
            x = numpy.arange(96.0)
            for _ in range(8_000):
                x = numpy.where(x < limit, x + 1.5, x - 0.5)
                int(numpy.argmin(x))
        return perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def import_probe() -> float:
    """Seconds a fresh interpreter takes to import :data:`IMPORTS`."""
    started = perf_counter()
    subprocess.run([sys.executable, "-c", IMPORTS], check=True)
    return perf_counter() - started


def factor(probes: Sequence[float], reference: float = REFERENCE_S
           ) -> float:
    """What measured times are multiplied by to read at the reference
    speed, from the probes taken around them (1 if there are none)."""
    return reference / median(probes) if probes else 1.0
