"""CommitTracker: incremental quorum-match vs the seed sorted() oracle.

The seed ``_advance_commit`` sorted every match index (plus the leader's
own last index) on every response and took the quorum-th largest.  The
tracker must agree with that oracle over arbitrary match progressions —
including leader changes (full reset) and interleaved per-follower
advancement — while doing O(1) amortized work per acknowledged entry.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.raft.node as node_module
from repro.cluster.faults import pause_for
from repro.raft.commit import CommitTracker
from repro.raft.state_machine import kv_put
from repro.raft.types import Role
from tests.conftest import make_raft_cluster


def oracle_candidate(matches: dict[str, int], last_index: int, quorum: int) -> int:
    """The seed implementation: sort all matches, take the quorum-th."""
    ranked = sorted(list(matches.values()) + [last_index], reverse=True)
    return ranked[quorum - 1]


def test_validates_acks_needed():
    with pytest.raises(ValueError):
        CommitTracker(-1)


def test_single_follower_cluster_of_three():
    # n=3: quorum 2, one follower ack commits.
    t = CommitTracker(1)
    assert t.advance(0, 5) == 5
    assert t.advance(5, 7) == 7
    assert t.frontier == 7


def test_needs_quorum_minus_one_distinct_acks():
    # n=5: quorum 3 -> 2 follower acks per index.
    t = CommitTracker(2)
    assert t.advance(0, 10) == 0  # one follower alone commits nothing
    assert t.advance(0, 4) == 4  # second follower: min(10, 4)
    assert t.advance(4, 12) == 10  # now min(10, 12)


def test_discard_through_keeps_frontier_correct():
    t = CommitTracker(2)
    t.advance(0, 5)
    t.advance(0, 5)
    assert t.frontier == 5
    t.discard_through(5)
    assert t.pending == 0
    # Progress past the discarded region still counts correctly.
    t.advance(5, 8)
    assert t.frontier == 5
    t.advance(5, 9)
    assert t.frontier == 8


def test_acks_needed_zero_returns_frontier_unchanged():
    # Degenerate single-voter case: callers use last_index directly.
    t = CommitTracker(0)
    assert t.advance(0, 100) == 0


def test_stale_or_equal_match_is_a_noop():
    t = CommitTracker(1)
    t.advance(0, 5)
    assert t.advance(5, 5) == 5
    assert t.advance(5, 3) == 5  # defensive: regression reported as no-op
    assert t.pending == 5


@settings(max_examples=200, deadline=None)
@given(
    n_nodes=st.sampled_from([3, 5, 7, 9]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n_events=st.integers(min_value=1, max_value=120),
)
def test_agrees_with_sorted_oracle_over_random_histories(n_nodes, seed, n_events):
    """Random interleavings of per-follower progress + leader changes."""
    rng = np.random.default_rng(seed)
    quorum = n_nodes // 2 + 1
    followers = [f"f{i}" for i in range(n_nodes - 1)]

    def fresh():
        return CommitTracker(quorum - 1), {f: 0 for f in followers}

    tracker, matches = fresh()
    last_index = 0
    commit = 0
    for _ in range(n_events):
        ev = rng.integers(0, 10)
        if ev == 0:
            # Leader change: new reign, everything resets (the node builds
            # a fresh tracker and zeroes match_index in _become_leader).
            tracker, matches = fresh()
            # The new leader's log keeps growing from wherever it was.
            last_index += int(rng.integers(0, 3))
            commit = 0
            continue
        if ev == 1:
            last_index += int(rng.integers(1, 6))  # client appends
            continue
        f = followers[int(rng.integers(0, len(followers)))]
        if matches[f] >= last_index:
            continue
        new = int(rng.integers(matches[f] + 1, last_index + 1))
        old = matches[f]
        matches[f] = new
        got = tracker.advance(old, new)
        want = oracle_candidate(matches, last_index, quorum)
        assert got == want, (matches, last_index, quorum)
        # Emulate the node's commit + discard (term check always passes
        # here; discarding must never perturb later candidates).
        if got > commit:
            commit = got
            tracker.discard_through(commit)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_bookkeeping_stays_bounded_by_replication_lag(seed):
    """With discard_through applied, pending counters track the lag window,
    not the log length."""
    rng = np.random.default_rng(seed)
    t = CommitTracker(2)
    matches = {"a": 0, "b": 0, "c": 0, "d": 0}
    commit = 0
    top = 0
    for _ in range(500):
        top += 1
        for f in matches:
            if rng.random() < 0.5 and matches[f] < top:
                old = matches[f]
                matches[f] = old + 1
                got = t.advance(old, old + 1)
                if got > commit:
                    commit = got
                    t.discard_through(commit)
    lag = top - commit
    assert t.pending <= max(lag + 1, 1) * 2 + 8


# -- floored trackers (one per reign, floored at the inherited commit) ------ #


def test_validates_floor():
    with pytest.raises(ValueError):
        CommitTracker(2, floor=-1)


def test_floor_starts_frontier_and_skips_committed_prefix():
    t = CommitTracker(2, floor=100)
    assert t.frontier == 100
    assert t.advance(0, 100) == 100  # all at or below the floor: nothing counted
    assert t.pending == 0
    assert t.advance(0, 103) == 100  # one ack above the floor
    assert t.pending == 3
    assert t.advance(100, 102) == 102
    assert t.pending == 3


@settings(max_examples=200, deadline=None)
@given(
    n_nodes=st.sampled_from([3, 5, 7, 9]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    floor=st.integers(min_value=0, max_value=60),
    n_events=st.integers(min_value=1, max_value=150),
)
def test_floored_and_unfloored_make_identical_commit_decisions(
    n_nodes, seed, floor, n_events
):
    """One reign that inherits ``commit == floor``: a tracker floored there
    and a tracker counting from index 1, fed the same monotone match
    histories, commit the same indices at the same steps."""
    rng = np.random.default_rng(seed)
    quorum = n_nodes // 2 + 1
    followers = [f"f{i}" for i in range(n_nodes - 1)]
    floored = CommitTracker(quorum - 1, floor=floor)
    unfloored = CommitTracker(quorum - 1)
    # A new leader's match table starts at 0; its log already holds the
    # committed prefix plus some uncommitted suffix.
    matches = {f: 0 for f in followers}
    last_index = floor + int(rng.integers(0, 8))
    commit = floor
    for _ in range(n_events):
        if rng.integers(0, 6) == 0:
            last_index += int(rng.integers(1, 6))  # client appends
            continue
        f = followers[int(rng.integers(0, len(followers)))]
        if matches[f] >= last_index:
            continue
        old = matches[f]
        new = int(rng.integers(old + 1, last_index + 1))
        matches[f] = new
        got_floored = floored.advance(old, new)
        got_unfloored = unfloored.advance(old, new)
        assert got_floored == max(got_unfloored, floor)
        assert (got_floored > commit) == (got_unfloored > commit)
        if got_unfloored > commit:
            assert got_floored == got_unfloored
            commit = got_unfloored
            floored.discard_through(commit)
            unfloored.discard_through(commit)
        # The floored tracker never holds a counter at or below the floor.
        assert floored.pending <= unfloored.pending
        assert floored.pending <= last_index - floor


class CountingTracker(CommitTracker):
    """Records how many per-index counts a reign makes and its peak
    bookkeeping size."""

    __slots__ = ("counted", "peak_pending", "initial_floor")

    def __init__(self, acks_needed, floor=0):
        super().__init__(acks_needed, floor=floor)
        self.initial_floor = floor
        self.counted = 0
        self.peak_pending = 0

    def advance(self, old_match, new_match):
        if self.acks_needed and new_match > old_match:
            self.counted += max(0, new_match - max(old_match, self._floor))
        frontier = super().advance(old_match, new_match)
        self.peak_pending = max(self.peak_pending, self.pending)
        return frontier


def test_reelection_on_long_log_counts_only_uncommitted_suffix(monkeypatch):
    """A leader elected over a long committed log must not re-count it:
    the reign's bookkeeping is bounded by the uncommitted suffix it
    inherited, not by the log length."""
    monkeypatch.setattr(node_module, "CommitTracker", CountingTracker)
    c = make_raft_cluster(5)
    client = c.add_client("cl")
    old_leader = c.run_until_leader()
    for i in range(5000):
        client.submit(kv_put(f"k{i % 50}", i))
    c.run_for(5000)
    assert len(client.completed) == 5000
    assert c.node(old_leader).commit_index >= 5000

    pause_for(c.loop, c.node(old_leader), 5000.0)
    c.run_for(3000)
    leaders = [
        n for n in c.names if n != old_leader and c.node(n).role is Role.LEADER
    ]
    assert len(leaders) == 1
    node = c.node(leaders[0])
    tracker = node._commit
    assert isinstance(tracker, CountingTracker)
    inherited = tracker.initial_floor
    assert inherited >= 5000  # the reign started on the long committed log
    suffix = node.log.last_index - inherited  # the new reign's no-op and tail
    assert node.commit_index == node.log.last_index
    assert tracker.peak_pending <= suffix
    assert tracker.pending <= suffix
    assert tracker.counted <= (len(c.names) - 1) * suffix
