"""Network fabric: delivery, partitions, impairment control, stats."""

from typing import Any

import pytest

from repro.net.link import Link
from repro.net.loss_models import BernoulliLoss
from repro.net.network import Network
from repro.net.topology import uniform_topology
from repro.sim.loop import EventLoop
from repro.sim.rng import RngRegistry


class Sink:
    def __init__(self, name: str):
        self.name = name
        self.got: list[tuple[str, Any]] = []
        self.alive = True

    def deliver(self, sender: str, payload: Any) -> None:
        self.got.append((sender, payload))


@pytest.fixture
def net():
    loop = EventLoop()
    network = Network(loop, RngRegistry(1))
    a, b, c = Sink("a"), Sink("b"), Sink("c")
    for s in (a, b, c):
        network.attach(s)
    uniform_topology(network, ["a", "b", "c"], rtt_ms=10.0)
    return loop, network, a, b, c


def test_send_delivers_after_one_way_delay(net):
    loop, network, a, b, c = net
    network.transmit("a", "b", "hello", "udp")
    loop.run()
    assert b.got == [("a", "hello")]
    assert loop.now == pytest.approx(5.0, abs=0.5)


def test_duplicate_attach_rejected(net):
    loop, network, a, b, c = net
    with pytest.raises(ValueError):
        network.attach(Sink("a"))


def test_missing_link_raises(net):
    loop, network, a, b, c = net
    with pytest.raises(KeyError):
        network.link("a", "nope")


def test_unknown_channel_rejected(net):
    loop, network, a, b, c = net
    with pytest.raises(ValueError):
        network.transmit("a", "b", "x", "quic")


def test_partition_blocks_cross_group(net):
    loop, network, a, b, c = net
    network.set_partitions([{"a"}, {"b", "c"}])
    network.transmit("a", "b", "x", "udp")
    network.transmit("b", "c", "y", "udp")
    loop.run()
    assert b.got == []
    assert c.got == [("b", "y")]
    assert network.partition_drops == 1


def test_partition_implicit_rest_group(net):
    loop, network, a, b, c = net
    network.set_partitions([{"a"}])  # b, c form the implicit rest
    assert network.partitioned("a", "b")
    assert not network.partitioned("b", "c")


def test_partition_clear_restores(net):
    loop, network, a, b, c = net
    network.set_partitions([{"a"}, {"b"}])
    network.clear_partitions()
    network.transmit("a", "b", "x", "udp")
    loop.run()
    assert b.got == [("a", "x")]


def test_node_in_two_groups_rejected(net):
    loop, network, a, b, c = net
    with pytest.raises(ValueError):
        network.set_partitions([{"a"}, {"a", "b"}])


def test_link_down_drops(net):
    loop, network, a, b, c = net
    network.link("a", "b").up = False
    network.transmit("a", "b", "x", "udp")
    loop.run()
    assert b.got == []
    # reverse direction unaffected
    network.transmit("b", "a", "y", "udp")
    loop.run()
    assert a.got == [("b", "y")]


def test_set_rtt_symmetric(net):
    loop, network, a, b, c = net
    network.set_rtt("a", "b", 80.0)
    assert network.link("a", "b").one_way_ms == 40.0
    assert network.link("b", "a").one_way_ms == 40.0
    assert network.link("a", "c").one_way_ms == 5.0  # untouched


def test_set_all_rtt_and_loss(net):
    loop, network, a, b, c = net
    network.set_all_rtt(60.0)
    network.set_all_loss(1.0)
    for link in network.links():
        assert link.one_way_ms == 30.0
        assert link.loss.rate() == 1.0


def test_stats_counters(net):
    loop, network, a, b, c = net
    network.set_loss("a", "b", 1.0)
    network.transmit("a", "b", "x", "udp", size_bytes=100)
    network.transmit("a", "c", "y", "udp", size_bytes=50)
    loop.run()
    total = network.total_stats()
    assert total.sent == 2
    assert total.dropped == 1
    assert total.delivered == 1
    assert total.bytes_sent == 150
    assert network.link("a", "b").stats.observed_loss_rate() == 1.0


def test_delivery_to_detached_endpoint_is_noop(net):
    loop, network, a, b, c = net
    # Install a link to a name that has no endpoint.
    network.add_link(Link("a", "ghost", rng=network.rngs.stream("x")))
    network.transmit("a", "ghost", "x", "udp")
    loop.run()  # must not raise


# Values captured while the UDP path was still checked against a separate
# reference implementation: they fix the per-link draw order (drop, delay,
# duplicate, duplicate's delay) and the scheduling of duplicates.
PINNED_UDP_DELIVERIES = [
    (4.719459302322292, 0),
    (5.138368120300436, 0),
    (6.5688644763644, 1),
    (8.484833128013221, 1),
    (13.73221798191499, 3),
    (20.462974126103017, 5),
    (23.54840990064928, 6),
    (23.572333319822746, 6),
    (28.44360495487499, 8),
    (28.762891212638593, 8),
    (31.246878508461567, 9),
    (33.274152551104834, 9),
    (36.94304005141487, 11),
    (37.46895405179859, 11),
    (44.90332385264787, 13),
    (47.00044353816614, 14),
    (51.45893178731136, 15),
    (53.32385747739179, 16),
    (53.55988804122434, 16),
    (56.92655140722261, 17),
    (59.06064904791499, 18),
]


def test_udp_send_path_pinned_on_lossy_link():
    """Seeded UDP sends with loss, jitter and duplication reproduce the
    pinned delivery times, counters and RNG stream position exactly."""
    loop = EventLoop()
    network = Network(loop, RngRegistry(777))
    got: list[tuple[float, Any]] = []
    sink = Sink("b")
    sink.deliver = lambda sender, payload: got.append((loop.now, payload))  # type: ignore[method-assign]
    network.attach(Sink("a"))
    network.attach(sink)
    uniform_topology(
        network, ["a", "b"], rtt_ms=10.0, jitter_sigma_ms=1.0, loss=0.3, duplicate_p=0.4
    )
    for k in range(20):
        loop.schedule(k * 3.0, lambda k=k: network.transmit("a", "b", k, "udp"))
    loop.run()

    assert got == PINNED_UDP_DELIVERIES
    link = network.link("a", "b")
    stats = link.stats
    assert (stats.sent, stats.delivered, stats.dropped, stats.duplicated) == (20, 21, 6, 7)
    assert link.rng.random() == 0.6820634594052792


def test_tcp_loss_delays_but_delivers(net):
    loop, network, a, b, c = net
    network.link("a", "b").loss = BernoulliLoss(0.9)
    network.link("a", "b").rng = network.rngs.stream("lossy")
    for _ in range(20):
        network.transmit("a", "b", "x", "tcp")
    loop.run()
    assert len(b.got) == 20  # reliable despite 90% loss


# -- partitions vs. late attachment ---------------------------------------- #


def test_attach_after_partition_joins_implicit_group(net):
    loop, network, a, b, c = net
    network.set_partitions([{"a"}, {"b"}])  # c lands in the implicit group 2
    late = Sink("d")
    network.attach(late)
    # The newcomer must behave exactly like the unlisted node "c": cut off
    # from the named groups but connected to the implicit rest group.
    assert network.partitioned("d", "a")
    assert network.partitioned("d", "b")
    assert not network.partitioned("d", "c")


def test_attach_after_partition_delivers_within_rest_group(net):
    loop, network, a, b, c = net
    network.set_partitions([{"a"}])
    late = Sink("d")
    network.attach(late)
    from repro.net.link import Link

    for src, dst in (("c", "d"), ("d", "c"), ("a", "d"), ("d", "a")):
        network.add_link(Link(src, dst))
    network.transmit("c", "d", "hello", "udp")
    network.transmit("a", "d", "blocked", "udp")
    loop.run()
    assert late.got == [("c", "hello")]
    assert network.partition_drops == 1


def test_clear_partitions_resets_late_attach_state(net):
    loop, network, a, b, c = net
    network.set_partitions([{"a"}])
    network.clear_partitions()
    late = Sink("e")
    network.attach(late)
    assert not network.partitioned("e", "a")
