"""Transport semantics: UDP loss/duplication, TCP reliability + HOL.

UDP is exercised through :meth:`Network.transmit` (its one
implementation); TCP through :meth:`TcpChannelState.send`, which
``Network.transmit`` calls for every stream segment.
"""

import numpy as np
import pytest

from repro.net.link import Link
from repro.net.loss_models import BernoulliLoss
from repro.net.network import Network
from repro.net.topology import uniform_topology
from repro.net.transport import MAX_TCP_ATTEMPTS, RTO_MIN_MS, TcpChannelState
from repro.sim.loop import EventLoop
from repro.sim.rng import RngRegistry


def make_link(loss=0.0, rtt=100.0, dup=0.0, seed=0):
    link = Link(
        "a",
        "b",
        loss=BernoulliLoss(loss),
        duplicate_p=dup,
        rng=np.random.default_rng(seed),
    )
    link.set_rtt(rtt)
    return link


class Sink:
    def __init__(self, name, loop):
        self.name = name
        self.loop = loop
        self.got = []

    def deliver(self, sender, payload):
        self.got.append((self.loop.now, payload))


def wire(link):
    """A two-node network whose only ``a -> b`` link is ``link``."""
    loop = EventLoop()
    network = Network(loop, RngRegistry(0))
    sink = Sink("b", loop)
    network.attach(Sink("a", loop))
    network.attach(sink)
    network.add_link(link)
    return loop, network, sink


class DropFirst:
    """Loss process that drops exactly the first transmission it sees."""

    def __init__(self):
        self.dropped = False

    def should_drop(self, rng):
        if self.dropped:
            return False
        self.dropped = True
        return True


# -- UDP ------------------------------------------------------------------- #


def test_udp_delivers_without_loss():
    loop, network, sink = wire(make_link())
    network.transmit("a", "b", "x", "udp")
    loop.run()
    assert len(sink.got) == 1
    assert sink.got[0][0] == pytest.approx(50.0, abs=1.0)


def test_udp_drops_at_full_loss():
    loop, network, sink = wire(make_link(loss=1.0))
    network.transmit("a", "b", "x", "udp")
    loop.run()
    assert sink.got == []
    assert network.link("a", "b").stats.dropped == 1


def test_udp_duplicates():
    loop, network, sink = wire(make_link(dup=1.0))
    network.transmit("a", "b", "x", "udp")
    loop.run()
    assert len(sink.got) == 2
    assert network.link("a", "b").stats.duplicated == 1


def test_udp_loss_rate_statistics():
    loop, network, sink = wire(make_link(loss=0.25))
    for _ in range(8000):
        network.transmit("a", "b", "x", "udp")
    loop.run()
    delivered = len(sink.got)
    assert abs(delivered / 8000 - 0.75) < 0.02


# -- TCP ------------------------------------------------------------------- #


def test_tcp_always_delivers():
    loop, network, sink = wire(make_link(loss=0.5, seed=3))
    for _ in range(200):
        network.transmit("a", "b", "x", "tcp")
    loop.run()
    assert len(sink.got) == 200
    assert network.link("a", "b").stats.dropped == 0


def test_tcp_no_loss_means_no_retransmit():
    link = make_link()
    state = TcpChannelState()
    delay = state.send(link, 0.0)
    assert link.stats.retransmits == 0
    assert delay == pytest.approx(50.0, abs=1.0)


def test_tcp_loss_becomes_rto_delay():
    link = make_link(loss=0.5, seed=1)
    state = TcpChannelState()
    retransmitted = []
    for i in range(300):
        before = link.stats.retransmits
        delay = state.send(link, float(i) * 1000.0)
        if link.stats.retransmits > before:
            retransmitted.append(delay)
    assert retransmitted, "with 50% loss some segments must retransmit"
    for delay in retransmitted:
        assert delay >= RTO_MIN_MS


def test_tcp_fifo_head_of_line_blocking():
    """A retransmitted segment delays the segments sent right after it."""
    link = make_link(rtt=100.0)
    state = TcpChannelState()
    # Simulate: segment 1 suffered a retransmission -> delivered late.
    state.last_delivery_ms = 500.0
    delay = state.send(link, now_ms=100.0)
    # Raw delay would be ~50ms (deliver at 150), but FIFO pins it to 500.
    assert delay == pytest.approx(400.0)
    assert state.last_delivery_ms == 500.0


def test_tcp_fifo_monotone_delivery_times():
    link = make_link(loss=0.3, seed=7)
    state = TcpChannelState()
    deliveries = []
    now = 0.0
    for _ in range(500):
        deliveries.append(now + state.send(link, now))
        now += 10.0
    assert deliveries == sorted(deliveries)


def test_tcp_gives_up_at_max_attempts():
    link = make_link(loss=1.0)
    state = TcpChannelState()
    delay = state.send(link, 0.0)
    assert np.isfinite(delay)  # still delivered (bounded model)
    assert link.stats.retransmits == MAX_TCP_ATTEMPTS


def test_tcp_srtt_ewma():
    link = make_link(rtt=100.0)
    state = TcpChannelState()
    state.send(link, 0.0)
    assert state.srtt_ms == 100.0
    link.set_rtt(200.0)
    state.send(link, 0.0)
    assert state.srtt_ms == pytest.approx(112.5)


def test_tcp_rto_floor():
    # One drop costs exactly one RTO on top of the 5 ms one-way delay.
    link = make_link(rtt=10.0)
    link.loss = DropFirst()
    assert TcpChannelState().send(link, 0.0) == RTO_MIN_MS + 5.0
    # A 300 ms smoothed RTT lifts the RTO above the floor to 2 x 300.
    state = TcpChannelState()
    link.set_rtt(300.0)
    state.send(link, 0.0)
    link.set_rtt(10.0)
    link.loss = DropFirst()
    assert state.send(link, 10_000.0) == 600.0 + 5.0


# -- exactness ------------------------------------------------------------- #
# Values captured from the previous implementation of the TCP send path,
# so this one is checked against it bit for bit: same drop/delay draw
# order on the link stream, same RTO and srtt float arithmetic, same FIFO
# clamp, same ``now + delay`` event time.

PINNED_TCP_DELIVERIES = [
    (21.329136892321582, 0),
    (217.17934586290193, 1),
    (321.63262361426837, 2),
    (321.63262361426837, 3),
    (820.4783125788778, 4),
    (820.4783125788778, 5),
    (928.1856843355455, 6),
    (928.1856843355455, 7),
    *[(2625.6167529994577, k) for k in range(8, 18)],
    (2758.78454140291, 18),
    (2765.155918023938, 19),
    (3065.0075027849243, 20),
    (3065.0075027849243, 21),
    (3561.0109068302836, 22),
    (3561.0109068302836, 23),
]


def test_tcp_send_path_pinned_on_lossy_link():
    loop = EventLoop()
    network = Network(loop, RngRegistry(2024))
    sink = Sink("b", loop)
    network.attach(Sink("a", loop))
    network.attach(sink)
    uniform_topology(network, ["a", "b"], rtt_ms=40.0, jitter_sigma_ms=4.0, loss=0.25)
    seq = iter(range(24))

    def burst():
        for _ in range(2):
            network.transmit("a", "b", next(seq), "tcp")

    for k in range(12):
        loop.schedule(k * 300.0, burst)
    loop.schedule(1650.0, lambda: network.set_rtt("a", "b", 120.0))
    loop.run()

    assert sink.got == PINNED_TCP_DELIVERIES
    link = network.link("a", "b")
    stats = link.stats
    assert (stats.sent, stats.delivered, stats.dropped) == (24, 24, 0)
    assert stats.retransmits == 8
    state = network._tcp_state[("a", "b")]
    assert state.srtt_ms == 103.88662095996551
    assert state.last_delivery_ms == 3561.0109068302836
    # The link's stream advanced by exactly the same number of draws.
    assert link.rng.random() == 0.5826616672377163
