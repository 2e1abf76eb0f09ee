"""The event order the calendar-queue scheduler was held to.

The calendar queue and the ``scheduler=`` option are gone; the kernel
is a single binary heap.  While both schedulers existed, this load was
required to give bit-identical event logs and counts under either one.
Those logs are pinned here, so the heap-only kernel must reproduce
exactly the order both schedulers agreed on.
"""

import hashlib

import pytest

from repro.sim import Environment
from tests.sim.test_core import _actor_soup

# seed -> (sha256 of repr(event log), events_processed), as produced by
# both the heap and the calendar scheduler before the calendar was removed.
_AGREED_RUNS = {
    0: ("856e1905616fc874319bd4dfa2f4c89f1536a406fb500c4c0ced7470183d1fcd",
        1364),
    1: ("6d61aba370b59f9d6845b0d8b54a54e4c22a3eb7b0394f49ba7b724f8ef82185",
        1359),
    2: ("6e073b182422abd0fd5e609771e2504eee784aa0ce9abfb4764472da12558604",
        1362),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_heap_and_calendar_runs_bit_identical(seed):
    env = Environment()
    log = _actor_soup(env, seed)
    env.run(until=2.0)
    digest, events = _AGREED_RUNS[seed]
    assert hashlib.sha256(repr(log).encode()).hexdigest() == digest
    assert env.events_processed == events
