"""Equivalence tests for the LatencyRecorder lazy-sort fast path.

Below the reservoir cap the optimized recorder appends and defers the
sort until an ordered read; the pre-pass implementation insorted every
record.  Both must expose identical state at every observable point —
samples, percentiles, exemplars, merges — including across the
append->reservoir transition, where the deferred sort must happen at
exactly the moment the cap is reached so the RNG draws and eviction
indices line up with the eager implementation's.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.reference import _lr_record_ref
from repro.sim.monitor import LatencyRecorder
from repro.sweep.transport import pack_recorder, unpack_recorder


def eager_recorder(name="lat", max_samples=200_000):
    """A recorder forced onto the pre-pass insort-every-record path."""
    rec = LatencyRecorder(name=name, max_samples=max_samples)
    rec.record = _lr_record_ref.__get__(rec, LatencyRecorder)
    return rec


def feed(rec, values, trace_ids=None):
    for i, v in enumerate(values):
        rec.record(v, trace_ids[i] if trace_ids else None)


def assert_identical(a, b):
    assert a.count == b.count
    assert a.sample_count == b.sample_count
    assert a.samples == b.samples
    assert a.exemplars() == b.exemplars()
    for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
        assert a.percentile(q) == b.percentile(q)


def test_below_cap_identical():
    rng = np.random.default_rng(3)
    values = rng.exponential(1.0, 500).tolist()
    ids = rng.integers(1, 1000, 500).tolist()
    fast, ref = LatencyRecorder("x"), eager_recorder("x")
    feed(fast, values, ids)
    feed(ref, values, ids)
    assert_identical(fast, ref)


def test_across_cap_transition_identical():
    """The reservoir RNG is consumed in the same order whether the
    below-cap records were insorted eagerly or sorted on overflow."""
    rng = np.random.default_rng(9)
    values = rng.exponential(1.0, 400).tolist()
    fast = LatencyRecorder("y", max_samples=100)
    ref = eager_recorder("y", max_samples=100)
    feed(fast, values)
    feed(ref, values)
    assert_identical(fast, ref)


def test_read_mid_stream_then_continue():
    """An ordered read below the cap (forcing the deferred sort early)
    must not change what the reservoir phase later does."""
    rng = np.random.default_rng(21)
    values = rng.exponential(1.0, 300).tolist()
    fast = LatencyRecorder("z", max_samples=120)
    ref = eager_recorder("z", max_samples=120)
    feed(fast, values[:50])
    _ = fast.samples          # triggers the deferred sort
    _ = fast.percentile(0.5)
    feed(fast, values[50:])
    feed(ref, values)
    assert_identical(fast, ref)


def test_merge_identical():
    rng = np.random.default_rng(5)
    a_vals = rng.exponential(1.0, 150).tolist()
    b_vals = rng.exponential(2.0, 150).tolist()
    fast_a, fast_b = LatencyRecorder("m"), LatencyRecorder("m2")
    ref_a, ref_b = eager_recorder("m"), eager_recorder("m2")
    feed(fast_a, a_vals), feed(fast_b, b_vals)
    feed(ref_a, a_vals), feed(ref_b, b_vals)
    fast_a.merge(fast_b)
    ref_a.merge(ref_b)
    assert_identical(fast_a, ref_a)


def test_negative_latency_still_rejected():
    rec = LatencyRecorder("neg")
    with pytest.raises(ValueError):
        rec.record(-0.1)


# -- property: random interleavings against the eager recorder ---------------

_latency = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
_quantile = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)
_ops = st.lists(st.one_of(
    st.tuples(st.just("record"), st.lists(_latency, min_size=1,
                                          max_size=40)),
    st.tuples(st.just("percentile"), _quantile),
    st.tuples(st.just("samples"), st.none()),
    st.tuples(st.just("exemplar_for"), _quantile),
    st.tuples(st.just("merge"), st.lists(_latency, max_size=30)),
    st.tuples(st.just("transport"), st.none()),
), max_size=25)


def _same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=120, deadline=None)
@given(ops=_ops, cap=st.integers(min_value=1, max_value=80),
       linked=st.booleans())
def test_random_interleavings_match_eager(ops, cap, linked):
    """Whatever mix of records, reads, merges and pack/unpack round
    trips happens — below the cap, across it and beyond it — every
    read sees the same sorted reservoir, the same answers and the same
    RNG position as the recorder that insorts on every record.  Trace
    ids are all linked or all None, so equal (latency, seq) pairs from
    a merge never compare an int against None."""
    fast = LatencyRecorder("prop", max_samples=cap)
    ref = eager_recorder("prop", max_samples=cap)
    n_records = 0
    for op, arg in ops:
        if op == "record":
            for v in arg:
                n_records += 1
                tid = n_records if linked else None
                fast.record(v, tid)
                ref.record(v, tid)
            continue
        if op == "merge":
            other_fast = LatencyRecorder("other", max_samples=cap)
            other_ref = eager_recorder("other", max_samples=cap)
            for i, v in enumerate(arg):
                tid = -i if linked else None
                other_fast.record(v, tid)
                other_ref.record(v, tid)
            fast.merge(other_fast)
            ref.merge(other_ref)
            continue
        if op == "transport":
            fast = unpack_recorder(pack_recorder(fast))
            ref = unpack_recorder(pack_recorder(ref))
            ref.record = _lr_record_ref.__get__(ref, LatencyRecorder)
            continue
        if op == "percentile":
            assert _same(fast.percentile(arg), ref.percentile(arg))
        elif op == "samples":
            assert fast.samples == ref.samples
        else:
            assert fast.exemplar_for(arg) == ref.exemplar_for(arg)
        assert fast._sorted == ref._sorted
        assert fast._rng.getstate() == ref._rng.getstate()
    assert fast.count == ref.count
    if fast.sample_count:
        assert_identical(fast, ref)
    assert fast._rng.getstate() == ref._rng.getstate()


# -- work counter: reads cost O(k log n), not a re-sort ----------------------

class _CountingFloat(float):
    """A float that counts every comparison made on it."""

    calls = 0

    def _counted(op):
        def compare(self, other):
            _CountingFloat.calls += 1
            return op(float(self), other)
        return compare

    __lt__ = _counted(float.__lt__)
    __le__ = _counted(float.__le__)
    __gt__ = _counted(float.__gt__)
    __ge__ = _counted(float.__ge__)
    __eq__ = _counted(float.__eq__)
    __hash__ = float.__hash__
    del _counted


def test_p99_after_every_record_costs_n_log_n_comparisons():
    """The fleet balancer reads its client p99 after nearly every
    record.  Folding the one new entry into the sorted prefix keeps the
    whole stream within c·n·log2(n) element comparisons; re-sorting on
    every read costs about n²/2 (2·10^8 here), so the loop stops as
    soon as the budget is spent rather than running that to the end."""
    n = 20_000
    budget = 4 * n * math.log2(n)
    rng = random.Random(11)
    rec = LatencyRecorder("hedge")
    _CountingFloat.calls = 0
    for _ in range(n):
        rec.record(_CountingFloat(rng.expovariate(1.0)))
        rec.p99()
        if _CountingFloat.calls > budget:
            break
    assert rec.count == n
    assert _CountingFloat.calls <= budget
    assert rec.samples == tuple(sorted(rec.samples))
