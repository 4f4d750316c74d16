"""The leader's heartbeat schedule, pinned to seeded values.

Each heartbeat's send time depends on the staggered first beat, the
per-tick timer jitter and the order in which those draws consume the
node's private RNG stream.  Golden-seed digests cover elections but not
the consolidated-timer path, so both timer layouts are pinned here: the
first heartbeat send times toward each follower, and every node's
position in its buffered uniform stream afterwards.
"""

import hashlib

import pytest

from repro.cluster.builder import ClusterConfig, build_cluster
from repro.dynatune.policy import DynatunePolicy, StaticPolicy
from repro.raft.messages import HeartbeatRequest
from repro.raft.types import RaftConfig

BEATS_PER_FOLLOWER = 50


def _heartbeat_schedule(policy: str, consolidated: bool):
    raft = RaftConfig(consolidated_heartbeat_timer=consolidated)
    if policy == "static":
        cfg = ClusterConfig(n_nodes=5, seed=11, rtt_ms=20.0, raft=raft)
        factory = lambda name: StaticPolicy(  # noqa: E731
            election_timeout_ms=300.0, heartbeat_interval_ms=50.0
        )
    else:
        # Lossy enough that K > 1: tuned h differs per follower and the
        # consolidated timer beats at their minimum.
        cfg = ClusterConfig(n_nodes=5, seed=11, rtt_ms=100.0, loss=0.05, raft=raft)
        factory = lambda name: DynatunePolicy()  # noqa: E731
    c = build_cluster(cfg, factory)
    sends: dict[str, list[tuple[str, float]]] = {}
    for node in c.nodes.values():
        inner = node._transmit

        def recording(src, dst, payload, channel, size, inner=inner):
            if payload.__class__ is HeartbeatRequest:
                sends.setdefault(dst, []).append((src, c.loop.now))
            inner(src, dst, payload, channel, size)

        node._transmit = recording
    c.start()
    leader = c.run_until_leader()
    followers = [p for p in c.nodes if p != leader]
    while any(len(sends.get(f, ())) < BEATS_PER_FOLLOWER for f in followers):
        c.run_for(100.0)
    times = {f: sends[f][:BEATS_PER_FOLLOWER] for f in sorted(followers)}
    rand_pos = {name: c.nodes[name]._rand_pos for name in sorted(c.nodes)}
    return leader, times, rand_pos


# sha256 of repr((leader, first 50 (sender, send time) per follower,
# _rand_pos per node)), captured before the heartbeat path was refactored.
PINNED_SCHEDULES = {
    ("static", False): "1e2758ec6358ea63ca322f340925490d300d81c60fe48e9c73d23b386e29dab1",
    ("static", True): "002a051eeb4eaccdad1725f28cd5eeffe1f025c307a6cc6069de2c43e1bb57bb",
    ("dynatune", False): "5eb88d8981b3817653e7098a8e987d77764aab2bae248434f551d90e1cb8593d",
    ("dynatune", True): "791683d446a971b013d2c00734ba2d7e024dfdab7d21c59e7cd315b19d353013",
}


@pytest.mark.parametrize(
    "policy,consolidated",
    sorted(PINNED_SCHEDULES),
    ids=[f"{p}-{'consolidated' if c else 'per_follower'}" for p, c in sorted(PINNED_SCHEDULES)],
)
def test_heartbeat_schedule_pinned(policy, consolidated):
    leader, times, rand_pos = _heartbeat_schedule(policy, consolidated)
    assert all(len(t) == BEATS_PER_FOLLOWER for t in times.values())
    digest = hashlib.sha256(repr((leader, times, rand_pos)).encode()).hexdigest()
    assert digest == PINNED_SCHEDULES[(policy, consolidated)]
