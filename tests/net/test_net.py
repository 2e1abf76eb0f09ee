"""Tests for the link, NIC RX path and client fleet."""

import pytest

from repro.net import ClientFleet, Link, NetRequest, Nic
from repro.sim import BusyTracker, Environment, SeedBank


def make_stack(env, rate=1e9, mtu=1000, rx_capacity=64):
    link = Link(env, rate_bytes_per_s=rate, mtu=mtu)
    cpu = BusyTracker(env, name="cpu")
    nic = Nic(env, link, cpu, per_packet_s=1e-6, rx_capacity=rx_capacity)
    return link, cpu, nic


def req(rid, size, env, done=True):
    return NetRequest(request_id=rid, client_id=0, size_bytes=size,
                      height=375, width=500, channels=3, sent_at=env.now,
                      done_event=env.event() if done else None)


def test_link_transmit_time():
    env = Environment()
    link = Link(env, rate_bytes_per_s=1e6)
    done = []

    def p(env):
        yield from link.transmit(500_000)
        done.append(env.now)

    env.process(p(env))
    env.run()
    assert done == [pytest.approx(0.5)]
    assert link.bytes_sent.total == 500_000


def test_link_serializes_senders():
    env = Environment()
    link = Link(env, rate_bytes_per_s=1e6)
    done = []

    def p(env, name):
        yield from link.transmit(1_000_000)
        done.append((name, env.now))

    env.process(p(env, "a"))
    env.process(p(env, "b"))
    env.run()
    assert done[0][1] == pytest.approx(1.0)
    assert done[1][1] == pytest.approx(2.0)


def test_link_packet_count():
    env = Environment()
    link = Link(env, rate_bytes_per_s=1e9, mtu=9000)
    assert link.packets_for(9000) == 1
    assert link.packets_for(9001) == 2
    assert link.packets_for(1) == 1


def test_link_validation():
    env = Environment()
    with pytest.raises(ValueError):
        Link(env, rate_bytes_per_s=0)
    link = Link(env, rate_bytes_per_s=1e6)

    def p(env):
        yield from link.transmit(0)

    env.process(p(env))
    with pytest.raises(ValueError):
        env.run()


def test_nic_delivers_to_rx_queue():
    env = Environment()
    link, cpu, nic = make_stack(env)
    r = req(1, 10_000, env)

    def p(env):
        yield from nic.deliver(r)

    env.process(p(env))
    env.run()
    assert len(nic.rx_queue) == 1
    assert r.received_at > 0
    assert nic.packets.total == 10  # 10,000 B / 1,000 MTU


def test_nic_charges_per_packet_cpu():
    env = Environment()
    link, cpu, nic = make_stack(env)

    def p(env):
        yield from nic.deliver(req(1, 50_000, env))
        yield env.timeout(1.0)

    env.process(p(env))
    env.run()
    assert cpu.busy_seconds("net-rx") == pytest.approx(50e-6)


def test_nic_rx_overflow_drops_and_fails_request():
    env = Environment()
    link, cpu, nic = make_stack(env, rx_capacity=1)
    r1, r2 = req(1, 1000, env), req(2, 1000, env)
    failed = []

    def sender(env):
        yield from nic.deliver(r1)
        yield from nic.deliver(r2)

    def watcher(env):
        try:
            yield r2.done_event
        except ConnectionError:
            failed.append(r2.request_id)

    env.process(sender(env))
    env.process(watcher(env))
    env.run()
    assert nic.drops.total == 1
    assert failed == [2]


def test_client_fleet_closed_loop_window():
    env = Environment()
    link, cpu, nic = make_stack(env, rate=1e12)
    fleet = ClientFleet(env, nic, num_clients=2, image_hw=(375, 500),
                        rng=SeedBank(0).stream("clients"), window=3)
    fleet.start()

    # A server that answers instantly.
    def server(env):
        while True:
            r = yield from nic.rx_queue.get()
            r.done_event.succeed()

    env.process(server(env))
    # Zero-latency round trips: 1 ms of simulated time already holds
    # ~16k of them, plenty to show the window keeps cycling.
    env.run(until=0.001)
    # 2 clients x 3 window slots all active.
    assert fleet.completed.total > 10
    assert fleet.rtt.count == fleet.completed.total


def test_client_fleet_outstanding_bounded():
    env = Environment()
    link, cpu, nic = make_stack(env, rate=1e12, rx_capacity=10_000)
    fleet = ClientFleet(env, nic, num_clients=2, image_hw=(375, 500),
                        rng=SeedBank(0).stream("clients"), window=4)
    fleet.start()
    env.run(until=0.05)  # no server: queue fills to the window and stops
    assert len(nic.rx_queue) == 2 * 4
    assert fleet.sent.total == 8


def test_client_image_sizes_plausible():
    env = Environment()
    link, cpu, nic = make_stack(env, rate=1e12, rx_capacity=10_000)
    fleet = ClientFleet(env, nic, num_clients=1, image_hw=(375, 500),
                        rng=SeedBank(7).stream("clients"), window=200)
    fleet.start()

    def server(env):
        while True:
            r = yield from nic.rx_queue.get()
            r.done_event.succeed()

    env.process(server(env))
    # The assertion below re-samples the size distribution directly;
    # the run only shows the fleet starts, so 1 ms of zero-latency
    # round trips is plenty.
    env.run(until=0.001)

    # Re-sample the distribution directly for statistics.
    rng = SeedBank(7).stream("check")
    sizes = [fleet._default_size(rng) for _ in range(2000)]
    mean = sum(sizes) / len(sizes)
    # Paper: 500x375 color JPEGs, ~110 KB mean at web quality.
    assert 60_000 < mean < 200_000


def test_client_fleet_validation():
    env = Environment()
    link, cpu, nic = make_stack(env)
    with pytest.raises(ValueError):
        ClientFleet(env, nic, num_clients=0, image_hw=(1, 1),
                    rng=SeedBank(0).stream("x"))
