"""Unit tests for the DES kernel (repro.sim.core)."""

import hashlib
import random

import pytest

from repro.sim import (AllOf, AnyOf, Channel, Environment, Interrupt,
                       SimulationError, Store)


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_clock_custom_start():
    assert Environment(initial_time=7.5).now == 7.5


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(3.0)
    env.run()
    assert env.now == 3.0


def test_timeout_negative_delay_rejected():
    env = Environment()
    for delay in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            env.timeout(delay)


def test_timeout_carries_value():
    env = Environment()
    seen = []

    def p(env):
        v = yield env.timeout(1.0, value="payload")
        seen.append(v)

    env.process(p(env))
    env.run()
    assert seen == ["payload"]


def test_process_sequences_timeouts():
    env = Environment()
    trace = []

    def p(env):
        yield env.timeout(1.0)
        trace.append(env.now)
        yield env.timeout(2.5)
        trace.append(env.now)

    env.process(p(env))
    env.run()
    assert trace == [1.0, 3.5]


def test_processes_interleave_in_time_order():
    env = Environment()
    trace = []

    def p(env, name, delay):
        yield env.timeout(delay)
        trace.append((name, env.now))

    env.process(p(env, "slow", 2.0))
    env.process(p(env, "fast", 1.0))
    env.run()
    assert trace == [("fast", 1.0), ("slow", 2.0)]


def test_same_time_events_fire_fifo():
    env = Environment()
    trace = []

    def p(env, name):
        yield env.timeout(1.0)
        trace.append(name)

    for name in "abc":
        env.process(p(env, name))
    env.run()
    assert trace == ["a", "b", "c"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def p(env):
        while True:
            yield env.timeout(1.0)

    env.process(p(env))
    env.run(until=5.5)
    assert env.now == 5.5


def test_run_until_past_raises():
    env = Environment(initial_time=10.0)
    with pytest.raises(ValueError):
        env.run(until=5.0)


def test_run_until_event_returns_value():
    env = Environment()

    def p(env):
        yield env.timeout(2.0)
        return 42

    proc = env.process(p(env))
    assert env.run(until=proc) == 42
    assert env.now == 2.0


def test_run_until_never_fires_raises():
    env = Environment()
    orphan = env.event()
    with pytest.raises(SimulationError):
        env.run(until=orphan)


def test_join_on_process_gets_return_value():
    env = Environment()
    got = []

    def worker(env):
        yield env.timeout(3.0)
        return "result"

    def waiter(env, target):
        value = yield target
        got.append((env.now, value))

    target = env.process(worker(env))
    env.process(waiter(env, target))
    env.run()
    assert got == [(3.0, "result")]


def test_join_on_already_finished_process():
    env = Environment()
    got = []

    def worker(env):
        yield env.timeout(1.0)
        return "early"

    def late_waiter(env, target):
        yield env.timeout(5.0)
        value = yield target
        got.append((env.now, value))

    target = env.process(worker(env))
    env.process(late_waiter(env, target))
    env.run()
    assert got == [(5.0, "early")]


def test_event_succeed_wakes_waiters():
    env = Environment()
    gate = env.event()
    woken = []

    def waiter(env):
        v = yield gate
        woken.append((env.now, v))

    def opener(env):
        yield env.timeout(4.0)
        gate.succeed("open")

    env.process(waiter(env))
    env.process(opener(env))
    env.run()
    assert woken == [(4.0, "open")]


def test_event_double_trigger_rejected():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter(env):
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter(env))
    gate.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_event_value_before_trigger_raises():
    env = Environment()
    evt = env.event()
    with pytest.raises(SimulationError):
        _ = evt.value


def test_strict_mode_propagates_process_errors():
    env = Environment(strict=True)

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("bug in process")

    env.process(bad(env))
    with pytest.raises(ValueError, match="bug in process"):
        env.run()


def test_nonstrict_mode_fails_process_event():
    env = Environment(strict=False)

    def bad(env):
        yield env.timeout(1.0)
        raise ValueError("contained")

    proc = env.process(bad(env))
    env.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.value, ValueError)


def test_yield_non_event_rejected():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError, match="yielded"):
        env.run()


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as i:
            log.append((env.now, i.cause))

    def interrupter(env, victim):
        yield env.timeout(2.0)
        victim.interrupt("wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [(2.0, "wake up")]


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1.0)

    proc = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_interrupted_process_can_continue():
    env = Environment()
    trace = []

    def resilient(env):
        try:
            yield env.timeout(100.0)
        except Interrupt:
            trace.append(("interrupted", env.now))
        yield env.timeout(1.0)
        trace.append(("done", env.now))

    def interrupter(env, victim):
        yield env.timeout(5.0)
        victim.interrupt()

    victim = env.process(resilient(env))
    env.process(interrupter(env, victim))
    env.run()
    assert trace == [("interrupted", 5.0), ("done", 6.0)]


def test_all_of_waits_for_slowest():
    env = Environment()
    got = []

    def p(env):
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(3.0, value="b")
        result = yield env.all_of([t1, t2])
        got.append((env.now, sorted(result.values())))

    env.process(p(env))
    env.run()
    assert got == [(3.0, ["a", "b"])]


def test_any_of_fires_on_fastest():
    env = Environment()
    got = []

    def p(env):
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(3.0, value="slow")
        result = yield env.any_of([t1, t2])
        got.append((env.now, list(result.values())))

    env.process(p(env))
    env.run(until=10.0)
    assert got == [(1.0, ["fast"])]


def test_all_of_empty_triggers_immediately():
    env = Environment()
    got = []

    def p(env):
        yield env.all_of([])
        got.append(env.now)

    env.process(p(env))
    env.run()
    assert got == [0.0]


def test_peek_and_step():
    env = Environment()
    env.timeout(2.0)
    env.timeout(5.0)
    assert env.peek() == 2.0
    env.step()
    assert env.now == 2.0
    assert env.peek() == 5.0


def test_step_empty_queue_raises():
    with pytest.raises(SimulationError):
        Environment().step()


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_is_alive_lifecycle():
    env = Environment()

    def p(env):
        yield env.timeout(1.0)

    proc = env.process(p(env))
    assert proc.is_alive
    env.run()
    assert not proc.is_alive
    assert proc.ok


def _two_periodic(env):
    trace = []

    def p(env, name, period):
        while env.now < 10:
            yield env.timeout(period)
            trace.append((name, env.now))

    env.process(p(env, "x", 1.7))
    env.process(p(env, "y", 2.3))
    return trace


def _actor_soup(env, seed):
    """A deliberately messy load: timers, zero-delay events and
    processes waking each other, logging every step."""
    rng = random.Random(seed)
    log = []

    def ticker(name, period):
        while True:
            yield env.timeout(period)
            log.append((round(env.now, 9), "tick", name))

    def chatter(name, peer_delay):
        for i in range(30):
            yield env.timeout(rng.random() * peer_delay)
            log.append((round(env.now, 9), "chat", name, i))
            if rng.random() < 0.3:
                yield env.timeout(0)
                log.append((round(env.now, 9), "zero", name, i))

    for i in range(12):
        env.process(ticker(f"t{i}", 0.01 + 0.013 * i))
    for i in range(20):
        env.process(chatter(f"c{i}", 0.05 + 0.01 * (i % 5)))
    return log


def _channel_pingpong(env):
    """A fast producer and a slow consumer through a 4-slot Channel: the
    Store's put/get admission, the channel's wait recorder and its put
    counter.  The log ends with ``(now, wait p99, put_count)``."""
    ch = Channel(env, capacity=4, name="t")
    got = []

    def producer():
        for i in range(50):
            yield from ch.put(i)
            yield env.timeout(0.25)

    def consumer():
        for _ in range(50):
            item = yield from ch.get()
            got.append((env.now, item))
            yield env.timeout(0.4)
        got.append((env.now, ch.wait.percentile(0.99), ch.put_count))

    env.process(producer())
    env.process(consumer())
    return got


def _store_getter_queue(env):
    """Three getters queue on an empty Store as items trickle in: each
    item goes to the longest-waiting getter."""
    store = Store(env, capacity=2)
    log = []

    def getter(name):
        for _ in range(4):
            item = yield store.get()
            log.append((env.now, name, item))
            yield env.timeout(0.05)

    def producer():
        for i in range(12):
            yield env.timeout(0.1)
            yield store.put(i)

    for name in ("a", "b", "c"):
        env.process(getter(name))
    env.process(producer())
    return log


# (load, until, sha256 of repr(event log), events_processed).  The pins
# freeze the kernel's event order: any change to it fails here.  The
# ping-pong and getter-queue pins are also what the pre-optimization
# kernel, store and telemetry produced.
_PINNED_RUNS = [
    (_two_periodic, 20.0,
     "f6c505d240710c3929419a610eefd30dd17c33c314de5b092e234e31b45b9fe8",
     15),
    (lambda env: _actor_soup(env, seed=0), 2.0,
     "856e1905616fc874319bd4dfa2f4c89f1536a406fb500c4c0ced7470183d1fcd",
     1364),
    (lambda env: _actor_soup(env, seed=1), 2.0,
     "6d61aba370b59f9d6845b0d8b54a54e4c22a3eb7b0394f49ba7b724f8ef82185",
     1359),
    (lambda env: _actor_soup(env, seed=2), 2.0,
     "6e073b182422abd0fd5e609771e2504eee784aa0ce9abfb4764472da12558604",
     1362),
    (_channel_pingpong, 30.0,
     "2ae0accc8cbf45f8f2f4c75e5e3c1800b8ff695bdfbf8a77273378e970017285",
     204),
    (_store_getter_queue, 5.0,
     "ca75da04fdc8aeb488de980df1717a52040fda4ea2480f419a18a38e6aa417f6",
     56),
]


def test_determinism_two_runs_identical():
    def build_and_run(build, until):
        env = Environment()
        log = build(env)
        env.run(until=until)
        return log, env.events_processed

    for build, until, digest, events in _PINNED_RUNS:
        log, processed = build_and_run(build, until)
        assert (log, processed) == build_and_run(build, until)
        assert hashlib.sha256(repr(log).encode()).hexdigest() == digest
        assert processed == events


def test_interrupt_while_waiting_on_resource_withdraws_request():
    """An interrupted resource wait must not leak the queued request:
    the slot goes to the next live waiter instead."""
    from repro.sim import Resource

    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder(env):
        req = res.request()
        yield req
        yield env.timeout(10.0)
        res.release(req)

    def impatient(env):
        req = res.request()
        try:
            yield req
            order.append("impatient-got-slot")
            res.release(req)
        except Interrupt:
            order.append("impatient-interrupted")

    def patient(env):
        yield env.timeout(1.0)
        req = res.request()
        yield req
        order.append(("patient-got-slot", env.now))
        res.release(req)

    env.process(holder(env))
    victim = env.process(impatient(env))
    env.process(patient(env))

    def interrupter(env):
        yield env.timeout(5.0)
        victim.interrupt()

    env.process(interrupter(env))
    env.run()
    assert order == ["impatient-interrupted", ("patient-got-slot", 10.0)]
    assert res.count == 0
    assert res.queue_len == 0
