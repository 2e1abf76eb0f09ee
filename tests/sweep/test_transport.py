"""The packed result transport must be invisible.

Workers ship reservoirs and metrics snapshots as packed buffers
(repro.sweep.transport); the contract is that nothing observable
changes: pack/unpack round-trips a LatencyRecorder bit-exactly, the
vectorized crc32 matches zlib's, and merge_packed over any set of
packed reservoirs equals folding the live recorders pairwise through
LatencyRecorder.merge() — including at the cap, where the bottom-k
selection must pick the exact same survivors.
"""

import copy
import math
import struct
import zlib
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.monitor import LatencyRecorder
from repro.sweep.transport import (PackedRecorder, crc32_rows,
                                   decode_result, encode_result,
                                   merge_packed, pack_metrics,
                                   pack_recorder, unpack_metrics,
                                   unpack_recorder)
from repro.telemetry import MetricsRegistry


def build(name, values, cap, tid_style="mixed"):
    """A recorder with every trace_id shape the wire must preserve:
    None, ordinary ids, and -1 (which collides with the packed None
    sentinel and is disambiguated by the presence flags)."""
    rec = LatencyRecorder(name=name, max_samples=cap)
    for i, v in enumerate(values):
        if tid_style == "none":
            tid = None
        elif tid_style == "all":
            tid = i
        else:
            tid = (None, i, -1)[i % 3]
        rec.record(v, trace_id=tid)
    return rec


def full_state(rec):
    rec._flush()
    return (rec.name, rec._max_samples, rec._count, rec._sum,
            tuple(rec._merged_sums), rec._min, rec._max,
            tuple(rec._sorted))


latencies = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=0, max_size=60)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(values=latencies, cap=st.integers(min_value=1, max_value=40),
           tid_style=st.sampled_from(["none", "all", "mixed"]))
    def test_pack_unpack_is_bit_exact(self, values, cap, tid_style):
        rec = build("w0", values, cap, tid_style)
        back = unpack_recorder(pack_recorder(rec))
        assert full_state(back) == full_state(rec)
        # Same stats, same exemplar tuples, same content digest.
        assert back.samples == rec.samples
        assert back.exemplars() == rec.exemplars()
        if rec.count:
            assert back.mean() == rec.mean()
            assert back.min() == rec.min() and back.max() == rec.max()
        # RNG stream position matches a fresh recorder of the same name
        # (pack/unpack consume no draws), so post-transport record()
        # behaves exactly like it would have in the worker.
        assert back._rng.getstate() == \
            Random(zlib.crc32(rec.name.encode()) or 1).getstate()

    def test_round_trip_preserves_merge_bookkeeping(self):
        rec = LatencyRecorder(name="m", max_samples=8)
        rec.merge(build("a", [1.0, 2.0], cap=8))
        rec.merge(build("b", [3.0] * 20, cap=8))
        back = unpack_recorder(pack_recorder(rec))
        assert back._merged_sums == rec._merged_sums
        assert back.total() == rec.total()      # fsum over same terms

    def test_minus_one_trace_id_survives(self):
        rec = LatencyRecorder(name="m", max_samples=4)
        rec.record(1.0, trace_id=-1)
        rec.record(2.0, trace_id=None)
        back = unpack_recorder(pack_recorder(rec))
        assert back._sorted == [(1.0, 1, -1), (2.0, 2, None)]

    def test_unpack_leaves_ambient_registry_alone(self):
        """Rebuilt recorders announce themselves to no registry, and the
        one that was active stays installed afterwards."""
        packed = pack_recorder(build("w0", [1.0, 2.0], cap=8))
        registry = MetricsRegistry("ambient")
        with registry.installed():
            unpack_recorder(packed)
            merge_packed("rollup", [packed])
            assert registry.names() == []
            LatencyRecorder(name="after")
            assert registry.names() == ["after"]

    def test_packed_is_buffers_not_objects(self):
        packed = pack_recorder(build("w0", [1.0, 2.0, 3.0], cap=8))
        assert isinstance(packed, PackedRecorder)
        assert isinstance(packed.entries, bytes)
        assert len(packed.entries) == 3 * 24
        assert packed.sample_count == 3
        assert len(packed.tid_present) == 3


class TestVectorizedCrc32:
    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(st.binary(min_size=24, max_size=24),
                         min_size=1, max_size=50))
    def test_matches_zlib_rowwise(self, rows):
        got = crc32_rows(b"".join(rows))
        assert [int(c) for c in got] == [zlib.crc32(r) for r in rows]

    def test_rejects_ragged_buffer(self):
        with pytest.raises(ValueError):
            crc32_rows(b"\x00" * 25)

    def test_matches_merge_priority_digest(self):
        """The digest crc32_rows computes is the same one
        LatencyRecorder._merge_priority hashes per entry."""
        entry = (0.125, 7, None)
        row = struct.pack("!dqq", entry[0], entry[1], -1)
        assert int(crc32_rows(row)[0]) == \
            LatencyRecorder._merge_priority(entry)[0]


class TestMergeEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(streams=st.lists(latencies, min_size=1, max_size=4),
           cap=st.integers(min_value=1, max_value=40))
    def test_merge_packed_equals_pairwise_merge(self, streams, cap):
        """Vectorized bottom-k over the union == pairwise merge() folds,
        bit for bit — under-cap unions and over-cap selections alike."""
        sources = [build(f"w{i}", vals, cap)
                   for i, vals in enumerate(streams)]
        pairwise = LatencyRecorder(name="rollup", max_samples=cap)
        for src in sources:
            pairwise.merge(copy.deepcopy(src))
        vectorized = merge_packed(
            "rollup", [pack_recorder(s) for s in sources],
            max_samples=cap)
        assert full_state(vectorized) == full_state(pairwise)

    def test_empty_pack_list(self):
        rec = merge_packed("rollup", [], max_samples=16)
        assert rec.count == 0 and rec.sample_count == 0
        assert math.isnan(rec.mean())

    def test_cap_defaults_to_first_pack(self):
        packs = [pack_recorder(build("w0", [1.0, 2.0], cap=7))]
        assert merge_packed("rollup", packs)._max_samples == 7


class TestMetricsAndResultCodec:
    def test_metrics_round_trip(self):
        snap = {"schema": "repro-metrics/1",
                "counters": {"a": 1}, "nested": [{"x": None}]}
        assert unpack_metrics(pack_metrics(snap)) == snap
        assert pack_metrics(None) is None and unpack_metrics(None) is None

    def test_encode_decode_result(self):
        rec = build("lat", [1.0, 2.0], cap=8)
        result = {"values": {"tp": 3.5},
                  "metrics": {"schema": "repro-metrics/1"},
                  "recorders": {"lat": rec}}
        wire = encode_result(result)
        assert "recorders" not in wire and "metrics" not in wire
        assert isinstance(wire["metrics_z"], bytes)
        assert isinstance(wire["recorders_packed"]["lat"],
                          PackedRecorder)
        back = decode_result(wire)
        assert back["values"] == {"tp": 3.5}
        assert back["metrics"] == {"schema": "repro-metrics/1"}
        # Reservoirs deliberately stay packed for the vectorized rollup.
        packed = back["recorders"]["lat"]
        assert isinstance(packed, PackedRecorder)
        assert full_state(unpack_recorder(packed)) == full_state(rec)

    def test_encode_result_without_recorders_or_metrics(self):
        wire = encode_result({"values": {"v": 1}})
        assert decode_result(wire) == {"values": {"v": 1}}
