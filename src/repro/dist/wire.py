"""Frame and payload codecs of the distributed sweep protocol.

Coordinator and workers speak length-prefixed frames over a plain TCP
stream:

``<I frame length | b"DWP1" | <I header length | JSON header | payloads``

The outer length covers everything after the prefix, so a reader always
knows exactly how many bytes to pull before parsing; the JSON header
carries the message ``kind`` plus small structured fields, and binary
payloads (encoded cell outcomes) ride as a raw tail whose segment sizes
are listed in the header (``"sizes"``).  Cell outcomes are *never*
re-encoded for the wire — workers produce the exact CTR1 bytes of
:mod:`repro.analysis.transport` and the coordinator forwards them to
:func:`~repro.analysis.transport.decode_cell` untouched, so distributed
outcomes are bit-identical to in-process ones by construction (raw
IEEE-754 columns round-trip exactly).

Message kinds
-------------
``hello`` (worker -> coordinator)
    First frame on a fresh connection: worker pid, pinned engine, wire
    version.
``welcome`` (coordinator -> worker)
    Assigned worker id, lease sizing, and the heartbeat interval the
    worker must honor.
``request`` (worker -> coordinator)
    The worker is idle and wants a lease.
``lease`` (coordinator -> worker)
    A batch of cells: lease id, context digest (full context JSON on
    first sight per connection), engine hint, and the cell specs.
``heartbeat`` (worker -> coordinator)
    Extends the named lease's deadline while a long batch simulates.
``result`` (worker -> coordinator)
    Completed tickets of a lease; one CTR1 payload per ticket, plus the
    block engine's stats dict when applicable.
``error`` (worker -> coordinator)
    A lease's cells raised a *deterministic* simulation error; the
    coordinator fails those tickets instead of retrying them.
``shutdown`` (coordinator -> worker)
    No more work will ever arrive; the worker exits its loop.

Socket invariant
----------------
Both ends of a worker connection go through :func:`tune_socket`
(``TCP_NODELAY``), and each protocol turn is one ``sendall`` of one
packed frame.  A worker sends ``result`` and then ``request``
back to back; with Nagle on, the small ``request`` would wait for the
ACK of ``result``, which the coordinator delays (~40 ms on Linux)
because it has nothing to send until that ``request`` arrives.

Specs and contexts travel as JSON built from the same canonical fields
:meth:`~repro.analysis.sweep.SweepContext.description` hashes, so a
worker-side rebuild reproduces cache keys and outcomes exactly.
Trace-carrying (uncacheable) specs are rejected at encode time — they
hold live demand traces that cannot be regenerated remotely, and the
coordinator runs them inline instead.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.sweep import CellSpec, SweepContext
from repro.errors import ReproError
from repro.hw.machine import Machine

#: Leading magic of every frame (Distributed Worker Protocol v1).
MAGIC = b"DWP1"

#: Version tag carried in ``hello`` frames; bump on incompatible change.
WIRE_VERSION = 1

#: Upper bound on a single frame — a lease of hundreds of cells plus a
#: context is a few hundred KB; anything near this limit is corruption.
MAX_FRAME_BYTES = 64 << 20

_LEN = struct.Struct("<I")


class WireError(ReproError):
    """A malformed, oversized, or truncated protocol frame."""


# ---------------------------------------------------------------------------
# frame codec
# ---------------------------------------------------------------------------

def pack_frame(kind: str, header: Optional[Dict[str, object]] = None,
               payloads: Sequence[bytes] = ()) -> bytes:
    """Serialize one frame to bytes (length prefix included)."""
    head: Dict[str, object] = {"kind": kind}
    if header:
        head.update(header)
    if payloads:
        head["sizes"] = [len(p) for p in payloads]
    head_bytes = json.dumps(head, separators=(",", ":"),
                            allow_nan=False).encode("utf-8")
    body = b"".join((MAGIC, _LEN.pack(len(head_bytes)), head_bytes,
                     *payloads))
    if len(body) > MAX_FRAME_BYTES:
        raise WireError(f"frame of {len(body)} bytes exceeds the "
                        f"{MAX_FRAME_BYTES}-byte limit")
    return _LEN.pack(len(body)) + body


def unpack_frame(body: bytes) -> Tuple[Dict[str, object], List[bytes]]:
    """Parse a frame body (everything after the length prefix)."""
    try:
        if body[:4] != MAGIC:
            raise ValueError("bad frame magic")
        (head_len,) = _LEN.unpack_from(body, 4)
        head_end = 8 + head_len
        header = json.loads(body[8:head_end].decode("utf-8"))
        if not isinstance(header, dict) or "kind" not in header:
            raise ValueError("frame header must be an object with 'kind'")
        payloads: List[bytes] = []
        cursor = head_end
        for size in header.get("sizes", ()):
            payloads.append(body[cursor:cursor + size])
            cursor += size
        if cursor != len(body):
            raise ValueError("payload sizes disagree with frame length")
    except (ValueError, KeyError, IndexError, TypeError, struct.error,
            UnicodeDecodeError) as exc:
        raise WireError(f"malformed frame: {exc}") from exc
    return header, payloads


def tune_socket(sock: socket.socket) -> None:
    """Configure a connected DWP1 socket (both ends call this).

    Disables Nagle's algorithm so a frame written right after another
    one leaves at once instead of waiting for the peer's delayed ACK.
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def send_frame(sock: socket.socket, kind: str,
               header: Optional[Dict[str, object]] = None,
               payloads: Sequence[bytes] = (),
               lock: Optional[threading.Lock] = None) -> int:
    """Write one frame to ``sock``; returns the bytes sent.

    ``lock`` serializes writers sharing a socket (the worker's heartbeat
    thread interleaves with its result sender).
    """
    frame = pack_frame(kind, header, payloads)
    if lock is not None:
        with lock:
            sock.sendall(frame)
    else:
        sock.sendall(frame)
    return len(frame)


def recv_frame(sock: socket.socket
               ) -> Optional[Tuple[Dict[str, object], List[bytes]]]:
    """Read one frame from ``sock``; ``None`` on clean EOF.

    Raises :class:`WireError` on a torn frame (EOF mid-body) or a length
    prefix beyond :data:`MAX_FRAME_BYTES`; socket timeouts propagate as
    :class:`socket.timeout` for the caller's keepalive logic.
    """
    prefix = _recv_exact(sock, _LEN.size, eof_ok=True)
    if prefix is None:
        return None
    (length,) = _LEN.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame length {length} exceeds the "
                        f"{MAX_FRAME_BYTES}-byte limit")
    body = _recv_exact(sock, length, eof_ok=False)
    return unpack_frame(body)


def _recv_exact(sock: socket.socket, count: int,
                eof_ok: bool) -> Optional[bytes]:
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if eof_ok and remaining == count:
                return None
            raise WireError(
                f"connection closed mid-frame ({count - remaining}/"
                f"{count} bytes read)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# context / spec codecs
# ---------------------------------------------------------------------------

def context_to_wire(context: SweepContext) -> Dict[str, object]:
    """JSON-safe encoding of a shared sweep context.

    Carries the machine's operating points verbatim (floats survive JSON
    bit-exactly), so the worker-side rebuild hashes to the same digest.
    """
    return {
        "machine": [[p.frequency, p.voltage] for p in
                    context.machine.points],
        "machine_name": context.machine.name,
        "policies": list(context.policies),
        "duration": context.duration,
        "idle_level": context.idle_level,
        "cycle_energy_scale": context.cycle_energy_scale,
        "residency_policies": list(context.residency_policies),
    }


def context_from_wire(data: Dict[str, object]) -> SweepContext:
    """Rebuild a :class:`SweepContext` from its wire form."""
    try:
        return SweepContext(
            machine=Machine([tuple(point) for point in data["machine"]],
                            name=data.get("machine_name", "machine")),
            policies=tuple(data["policies"]),
            duration=data["duration"],
            idle_level=data["idle_level"],
            cycle_energy_scale=data["cycle_energy_scale"],
            residency_policies=tuple(data.get("residency_policies", ())))
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise WireError(f"malformed wire context: {exc}") from exc


def spec_to_wire(spec: CellSpec) -> Dict[str, object]:
    """JSON-safe encoding of one cell spec (seed-level cells only)."""
    if spec.trace is not None:
        raise WireError(
            "trace-carrying cell specs are not wire-able (live demand "
            "traces cannot be regenerated remotely); run them locally")
    return spec.description()


def spec_from_wire(data: Dict[str, object]) -> CellSpec:
    """Rebuild a :class:`CellSpec` from its wire form."""
    try:
        bands = data.get("bands")
        return CellSpec(
            utilization=data["utilization"],
            set_index=data["set_index"],
            n_tasks=data["n_tasks"],
            gen_seed=data["gen_seed"],
            demand_seed=data["demand_seed"],
            demand=data["demand"],
            bands=tuple(tuple(band) for band in bands)
            if bands is not None else None)
    except (KeyError, TypeError) as exc:
        raise WireError(f"malformed wire spec: {exc}") from exc


def specs_from_wire(data: Iterable[Dict[str, object]]) -> List[CellSpec]:
    return [spec_from_wire(item) for item in data]
