"""Tests for the columnar cell-outcome wire codec."""

import pickle
import sys
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.executor import CellExecutor
from repro.analysis.transport import (MAGIC, decode_cell, encode_cell,
                                      is_encoded_cell)
from repro.errors import ReproError

finite = st.floats(allow_nan=False, allow_infinity=False)
fractions = st.floats(min_value=0.0, max_value=1.0)
# Labels never start with "_" — run_cell reserves that prefix for the
# private blocks (_rm_fallbacks/_residency) the codec encodes
# structurally, and the encoder keys off exactly that convention.
labels = st.text(st.characters(categories=("L", "Nd"),
                               include_characters="_- "),
                 min_size=1, max_size=12).filter(
                     lambda s: not s.startswith("_"))


def outcomes():
    """Strategy over run_cell-shaped outcome dicts."""
    energies = st.dictionaries(labels, finite, min_size=1, max_size=6)
    residency = st.dictionaries(
        labels,
        st.dictionaries(st.sampled_from([0.25, 0.5, 0.75, 1.0]),
                        fractions, min_size=1, max_size=4),
        max_size=3)
    return st.tuples(energies, residency,
                     st.integers(0, 5)).map(_assemble)


def _assemble(parts):
    energies, residency, fallbacks = parts
    outcome = {"_rm_fallbacks": fallbacks, **energies}
    if residency:
        outcome["_residency"] = residency
    return outcome


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(outcome=outcomes())
    def test_lossless(self, outcome):
        assert decode_cell(encode_cell(outcome)) == outcome

    @settings(max_examples=50, deadline=None)
    @given(outcome=outcomes(),
           meta=st.dictionaries(labels, st.integers(-5, 5), max_size=3))
    def test_meta_rides_along_without_touching_the_outcome(self, outcome,
                                                           meta):
        blob = encode_cell(outcome, meta=meta)
        decoded, got_meta = decode_cell(blob, with_meta=True)
        assert decoded == outcome
        assert got_meta == meta
        # A meta-free decode of the same payload sees the same outcome.
        assert decode_cell(blob) == outcome

    def test_extreme_floats_survive(self):
        outcome = {"_rm_fallbacks": 0,
                   "a": 5e-324, "b": 1.7976931348623157e308,
                   "c": -0.0, "d": 0.1 + 0.2}
        decoded = decode_cell(encode_cell(outcome))
        for k in "abcd":
            # Bit-exact, not approx: -0.0 keeps its sign, subnormals live.
            assert str(decoded[k]) == str(outcome[k])

    def test_cross_endian_payload(self):
        """A payload stamped with the other byte order decodes to the
        same floats (columns are byteswapped on ingest)."""
        outcome = {"_rm_fallbacks": 1, "EDF": 123.456,
                   "_residency": {"ccEDF": {0.5: 0.25, 1.0: 0.75}}}
        blob = encode_cell(outcome)
        head_len = int.from_bytes(blob[4:8], "little")
        head = blob[8:8 + head_len]
        other = b"big" if sys.byteorder == "little" else b"little"
        swapped_head = head.replace(
            sys.byteorder.encode(), other)
        columns = array("d")
        columns.frombytes(blob[8 + head_len:])
        columns.byteswap()
        foreign = (MAGIC + len(swapped_head).to_bytes(4, "little")
                   + swapped_head + columns.tobytes())
        assert decode_cell(foreign) == outcome


class TestMalformed:
    def test_magic_required(self):
        assert not is_encoded_cell(b"NOPE....")
        assert not is_encoded_cell("CTR1 but a string")
        with pytest.raises(ReproError):
            decode_cell(b"NOPE" + b"\x00" * 16)

    def test_truncated_header(self):
        blob = encode_cell({"_rm_fallbacks": 0, "EDF": 1.0})
        with pytest.raises(ReproError):
            decode_cell(blob[:6])

    def test_garbage_header(self):
        with pytest.raises(ReproError):
            decode_cell(MAGIC + (8).to_bytes(4, "little") + b"\xffnotjson")

    def test_missing_columns(self):
        blob = encode_cell({"_rm_fallbacks": 0, "EDF": 1.0, "RM": 2.0})
        head_len = int.from_bytes(blob[4:8], "little")
        with pytest.raises(ReproError):
            decode_cell(blob[:8 + head_len])  # header intact, columns gone

    def test_empty_and_sub_magic_inputs(self):
        for blob in (b"", b"C", b"CTR", MAGIC):
            with pytest.raises(ReproError):
                decode_cell(blob)

    @settings(max_examples=100, deadline=None)
    @given(outcome=outcomes(), data=st.data())
    def test_any_truncation_raises_not_garbage_decodes(self, outcome,
                                                       data):
        """Cut a valid blob anywhere — including mid-float in the column
        block — and the decoder must raise, never return a wrong
        outcome.  This is the cache's torn-write story: a partial
        entry is *detected*, not averaged into a curve."""
        blob = encode_cell(outcome)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        with pytest.raises(ReproError):
            decode_cell(blob[:cut])

    @settings(max_examples=50, deadline=None)
    @given(outcome=outcomes(), data=st.data())
    def test_header_length_field_corruption_raises(self, outcome, data):
        """Bit-flip the header-length word: the decoder must reject the
        frame (bad JSON, truncated header, or column misalignment) —
        never trust it into reading past the buffer."""
        blob = encode_cell(outcome)
        head_len = int.from_bytes(blob[4:8], "little")
        bogus = data.draw(st.integers(min_value=0, max_value=2 ** 31 - 1)
                          .filter(lambda n: n != head_len))
        frame = blob[:4] + bogus.to_bytes(4, "little") + blob[8:]
        with pytest.raises(ReproError):
            decode_cell(frame)


class TestExecutorTransport:
    def test_inline_path_ships_no_bytes(self):
        executor = CellExecutor(workers=1)
        assert executor.ipc_bytes == 0

    def test_smaller_than_pickle_on_residency_heavy_cells(self):
        """The shape the transport exists for: many policies with full
        residency tables — the float columns dominate and pack flat."""
        outcome = {"_rm_fallbacks": 0}
        residency = {}
        for i in range(8):
            outcome[f"policy{i}"] = 1000.0 / (i + 1)
            residency[f"policy{i}"] = {
                0.25 * (j + 1): 0.125 * (j + 1) for j in range(4)}
        outcome["_residency"] = residency
        blob = encode_cell(outcome)
        assert decode_cell(blob) == outcome
        assert len(blob) < len(pickle.dumps(outcome))
