"""Packed zero-copy result transfer for sweep workers.

Shipping a worker's harvest back to the parent used to pickle whole
``LatencyRecorder`` object graphs — one Python tuple per reservoir
entry, each pickled element by element — plus a nested dict per
``repro-metrics/1`` snapshot.  This module flattens both into compact
buffers at the process boundary:

* a reservoir becomes one packed ``!dqq`` byte string (24 bytes per
  entry: latency, seq, trace_id) plus a one-byte-per-entry presence
  flag for ``trace_id`` (so ``None`` survives exactly), and the exact
  scalar accumulators (count, sum terms, min, max, cap);
* a metrics snapshot becomes one zlib-compressed JSON byte string.

On the parent side, :func:`merge_packed` folds any number of packed
reservoirs into a single :class:`LatencyRecorder` **vectorized**: entry
buffers are concatenated and viewed through numpy, the content-keyed
crc32 bottom-k selection of ``LatencyRecorder.merge()`` is computed
with a table-driven vectorized crc32, and the survivors are sorted with
one lexsort.  Selection semantics are byte-identical to folding the
recorders pairwise through ``merge()``: bottom-k under a total order is
associative, so the global bottom-k over the union equals any sequence
of pairwise bottom-k folds.  The serial sweep path keeps using the
pairwise merge, which makes the serial-vs-parallel identity check a
cross-validation of the two implementations on every run.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from ..sim.monitor import LatencyRecorder, set_active_registry

__all__ = ["PackedRecorder", "pack_recorder", "unpack_recorder",
           "merge_packed", "pack_metrics", "unpack_metrics",
           "encode_result", "decode_result", "crc32_rows"]

_ENTRY = struct.Struct("!dqq")
_ENTRY_BYTES = _ENTRY.size                      # 24
_ROW_DTYPE = np.dtype([("lat", ">f8"), ("seq", ">i8"), ("tid", ">i8")])


@dataclass(frozen=True)
class PackedRecorder:
    """A ``LatencyRecorder`` flattened to buffers for the wire.

    ``entries`` holds the sorted reservoir as consecutive ``!dqq``
    records; ``tid_present`` has one ``0x01`` byte per entry whose
    trace_id is not ``None`` (the packed tid field is ``-1`` for
    ``None``, which a real trace_id may legitimately equal — the flag
    disambiguates).  ``terms`` carries the exact sum terms in merge
    order: ``[own_sum, *merged_sums]``.
    """

    name: str
    max_samples: int
    count: int
    terms: tuple[float, ...]
    min: float
    max: float
    entries: bytes
    tid_present: bytes

    @property
    def sample_count(self) -> int:
        return len(self.entries) // _ENTRY_BYTES


def pack_recorder(rec: LatencyRecorder) -> PackedRecorder:
    """Flatten a recorder into a :class:`PackedRecorder`."""
    rec._flush()
    pack = _ENTRY.pack
    rows = []
    flags = bytearray(len(rec._sorted))
    for i, (latency, seq, trace_id) in enumerate(rec._sorted):
        if trace_id is None:
            rows.append(pack(latency, seq, -1))
        else:
            rows.append(pack(latency, seq, trace_id))
            flags[i] = 1
    return PackedRecorder(
        name=rec.name,
        max_samples=rec._max_samples,
        count=rec._count,
        terms=(rec._sum, *rec._merged_sums),
        min=rec._min,
        max=rec._max,
        entries=b"".join(rows),
        tid_present=bytes(flags))


def _entries_list(packed: PackedRecorder
                  ) -> list[tuple[float, int, Optional[int]]]:
    out = []
    flags = packed.tid_present
    for i, (latency, seq, tid) in enumerate(
            _ENTRY.iter_unpack(packed.entries)):
        out.append((latency, seq, tid if flags[i] else None))
    return out


def _new_recorder(name: str, max_samples: int) -> LatencyRecorder:
    """A fresh recorder built with no ambient registry installed (the
    parent process has no registry for it to announce itself to)."""
    previous = set_active_registry(None)
    try:
        return LatencyRecorder(name=name, max_samples=max_samples)
    finally:
        set_active_registry(previous)


def unpack_recorder(packed: PackedRecorder) -> LatencyRecorder:
    """Reconstitute the exact recorder :func:`pack_recorder` flattened.

    Round-trip is bit-exact: same reservoir tuples, same accumulators,
    same RNG stream position as a freshly named recorder (merge and
    pack consume no draws)."""
    rec = _new_recorder(packed.name, packed.max_samples)
    rec._sorted = _entries_list(packed)
    rec._count = packed.count
    rec._sum = packed.terms[0] if packed.terms else 0.0
    rec._merged_sums = list(packed.terms[1:])
    rec._min = packed.min
    rec._max = packed.max
    return rec


# -- vectorized crc32 -------------------------------------------------------

def _crc32_table() -> np.ndarray:
    table = np.empty(256, dtype=np.uint32)
    for i in range(256):
        c = i
        for _ in range(8):
            c = (c >> 1) ^ 0xEDB88320 if c & 1 else c >> 1
        table[i] = c
    return table


_CRC_TABLE = _crc32_table()


def crc32_rows(buf: bytes, row_bytes: int = _ENTRY_BYTES) -> np.ndarray:
    """crc32 of every consecutive ``row_bytes`` slice of ``buf`` at
    once — one table lookup per byte column, vectorized down the rows.
    Matches ``zlib.crc32`` exactly (same polynomial, init, final xor).
    """
    if len(buf) % row_bytes:
        raise ValueError(f"buffer of {len(buf)} bytes is not a multiple "
                         f"of row size {row_bytes}")
    rows = np.frombuffer(buf, dtype=np.uint8).reshape(-1, row_bytes)
    crc = np.full(rows.shape[0], 0xFFFFFFFF, dtype=np.uint32)
    for col in range(row_bytes):
        crc = _CRC_TABLE[(crc ^ rows[:, col]) & 0xFF] ^ (crc >> np.uint32(8))
    return crc ^ np.uint32(0xFFFFFFFF)


def merge_packed(name: str, packs: list[PackedRecorder],
                 max_samples: Optional[int] = None) -> LatencyRecorder:
    """Fold packed reservoirs into one merged :class:`LatencyRecorder`.

    Produces state byte-identical to creating a fresh recorder and
    pairwise-``merge()``-ing the unpacked recorders in list order:

    * exact accumulators — count adds; the sum terms concatenate in
      fold order (rendered later with one ``math.fsum``); min/max fold;
    * the retained reservoir is the union of all entries while it fits
      the cap, else the bottom-``cap`` of the union under the same
      content-keyed priority as ``LatencyRecorder._merge_priority``
      (crc32 of the packed entry, then the entry fields) — computed
      here with vectorized crc32 + one lexsort instead of per-entry
      Python hashing.  Bottom-k under a total order is associative,
      which is exactly why pairwise folds and this global selection
      agree.
    """
    if max_samples is None:
        max_samples = packs[0].max_samples if packs else 200_000
    rec = _new_recorder(name, max_samples)
    nonempty = [p for p in packs if p.count]
    rec._count = sum(p.count for p in nonempty)
    terms: list[float] = []
    for p in nonempty:
        terms.extend(p.terms)
    rec._merged_sums = terms
    if nonempty:
        rec._min = min(p.min for p in nonempty)
        rec._max = max(p.max for p in nonempty)

    buf = b"".join(p.entries for p in packs)
    if not buf:
        return rec
    flags = np.frombuffer(b"".join(p.tid_present for p in packs),
                          dtype=np.uint8)
    rows = np.frombuffer(buf, dtype=_ROW_DTYPE)
    lat = rows["lat"].astype("=f8")
    seq = rows["seq"].astype("=i8")
    tid = rows["tid"].astype("=i8")
    if rows.shape[0] > max_samples:
        # Bottom-cap of the union under (digest, latency, seq,
        # tid-present, tid) — the exact _merge_priority tuple.  lexsort
        # orders by the *last* key first.
        digest = crc32_rows(buf)
        order = np.lexsort((tid, flags, seq, lat, digest))[:max_samples]
        lat, seq, tid, flags = (lat[order], seq[order], tid[order],
                                flags[order])
    # Final ascending reservoir order.  (latency, seq) pairs are unique
    # per recorder and, in practice, across points; tid participates
    # only as the documented third tie-break.
    order = np.lexsort((tid, seq, lat))
    lat, seq, tid, flags = lat[order], seq[order], tid[order], flags[order]
    rec._sorted = [
        (latency, int(s), int(t) if f else None)
        for latency, s, t, f in zip(lat.tolist(), seq.tolist(),
                                    tid.tolist(), flags.tolist())]
    return rec


# -- metrics snapshots ------------------------------------------------------

def pack_metrics(metrics: Optional[dict]) -> Optional[bytes]:
    """One compressed buffer instead of a pickled nested dict.  JSON
    round-trips the snapshot exactly — it was parsed from JSON in the
    worker to begin with."""
    if metrics is None:
        return None
    return zlib.compress(
        json.dumps(metrics, separators=(",", ":")).encode(), 1)


def unpack_metrics(blob: Optional[bytes]) -> Optional[dict]:
    """Inverse of :func:`pack_metrics` (``None`` passes through)."""
    if blob is None:
        return None
    return json.loads(zlib.decompress(blob))


# -- whole-result codec (the worker/parent seam) ----------------------------

def encode_result(result: dict) -> dict:
    """Rewrite a point runner's result for the wire (worker side)."""
    out = dict(result)
    recorders = out.pop("recorders", None)
    if recorders:
        out["recorders_packed"] = {
            name: pack_recorder(rec) for name, rec in recorders.items()}
    metrics = out.pop("metrics", None)
    if metrics is not None:
        out["metrics_z"] = pack_metrics(metrics)
    return out


def decode_result(result: dict) -> dict:
    """Invert :func:`encode_result` (parent side).

    Metrics come back as the original snapshot dict.  Reservoirs stay
    *packed* (under ``"recorders"``) — the merged-rollup path consumes
    them vectorized via :func:`merge_packed` without ever rebuilding
    per-entry tuples for intermediate recorders.
    """
    out = dict(result)
    blob = out.pop("metrics_z", None)
    if blob is not None:
        out["metrics"] = unpack_metrics(blob)
    packed = out.pop("recorders_packed", None)
    if packed is not None:
        out["recorders"] = packed
    return out
