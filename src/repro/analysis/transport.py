"""Compact columnar transport for sweep cell outcomes.

Worker processes used to return cell outcomes as pickled dictionaries of
nested Python objects (label -> float, residency tables as dicts of dicts).
Pickle round-trips floats exactly but serializes *structure* expensively:
every dict, key string and float object is encoded per cell, and the
driver pays the same again on load.  This codec flattens an outcome into

``b"CTR1" | <I header length | JSON header | raw float64 columns``

where the JSON header carries only the *shape* (energy labels in order,
residency table sizes, integer counters) and every float travels in one
contiguous little/native-endian float64 buffer — the same
header-plus-columns layout as :meth:`repro.sim.timeline.SimTimeline.to_bytes`.
Raw IEEE-754 bytes round-trip bit-exactly by construction, so the
serial-vs-parallel bit-identity gates hold over the wire.

The cell cache (schema 3) stores the identical encoding on disk, with an
extra ``meta`` block in the header for the schema tag and content key —
one codec for IPC and persistence.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from typing import Dict, Optional, Tuple

from repro.errors import ReproError

#: Leading magic of every encoded cell outcome.
MAGIC = b"CTR1"

_HEADER_LEN = struct.Struct("<I")


def is_encoded_cell(data: object) -> bool:
    """Whether ``data`` is a codec payload (bytes with the right magic)."""
    return isinstance(data, (bytes, bytearray)) and \
        bytes(data[:4]) == MAGIC


def encode_cell(outcome: Dict[str, object],
                meta: Optional[Dict[str, object]] = None) -> bytes:
    """Flatten one cell outcome into the columnar wire format.

    ``outcome`` maps policy labels to float energies plus the private
    ``_rm_fallbacks`` / ``_residency`` blocks
    :func:`repro.analysis.sweep.run_cell` produces.  ``meta`` is an
    optional JSON-safe dict stored alongside (the cell cache uses it for
    its schema tag and key); it never affects the outcome columns.
    """
    labels = [label for label in outcome if not label.startswith("_")]
    columns = array("d", (outcome[label] for label in labels))
    header: Dict[str, object] = {
        "labels": labels,
        "rm_fallbacks": int(outcome.get("_rm_fallbacks", 0)),
        "byteorder": sys.byteorder,
    }
    residency = outcome.get("_residency")
    if residency:
        shape = []
        for policy, table in residency.items():
            pairs = sorted(table.items())
            shape.append([policy, len(pairs)])
            for frequency, fraction in pairs:
                columns.append(frequency)
                columns.append(fraction)
        header["residency"] = shape
    if meta is not None:
        header["meta"] = meta
    head = json.dumps(header, separators=(",", ":"),
                      allow_nan=False).encode("utf-8")
    return b"".join((MAGIC, _HEADER_LEN.pack(len(head)), head,
                     columns.tobytes()))


def decode_cell(data: bytes, with_meta: bool = False
                ) -> "Dict[str, object] | Tuple[Dict[str, object], dict]":
    """Inverse of :func:`encode_cell`.

    Returns the outcome dict, or ``(outcome, meta)`` when ``with_meta``
    (``meta`` is ``{}`` if none was stored).  Raises
    :class:`~repro.errors.ReproError` on a malformed payload.
    """
    if not is_encoded_cell(data):
        raise ReproError("not an encoded cell outcome (bad magic)")
    data = bytes(data)
    try:
        (head_len,) = _HEADER_LEN.unpack_from(data, 4)
        head_end = 8 + head_len
        header = json.loads(data[8:head_end].decode("utf-8"))
        columns = array("d")
        columns.frombytes(data[head_end:])
        if header.get("byteorder", sys.byteorder) != sys.byteorder:
            columns.byteswap()
        labels = header["labels"]
        outcome: Dict[str, object] = {
            "_rm_fallbacks": int(header["rm_fallbacks"])}
        cursor = len(labels)
        if len(columns) < cursor:
            raise ValueError("energy column shorter than label list")
        for label, energy in zip(labels, columns):
            outcome[label] = energy
        shape = header.get("residency")
        if shape:
            residency: Dict[str, Dict[float, float]] = {}
            for policy, n_pairs in shape:
                table: Dict[float, float] = {}
                for _ in range(int(n_pairs)):
                    table[columns[cursor]] = columns[cursor + 1]
                    cursor += 2
                residency[policy] = table
            outcome["_residency"] = residency
    except (KeyError, ValueError, IndexError, TypeError,
            UnicodeDecodeError, struct.error) as exc:
        raise ReproError(f"malformed cell payload: {exc}") from exc
    if with_meta:
        return outcome, dict(header.get("meta") or {})
    return outcome
