"""The follower half of :class:`DynatunePolicy` against the reference
mechanisms it is built from.

A seeded heartbeat-metadata stream — in-order, lost, out-of-order and
duplicate IDs, repeated ``rtt_sample_seq`` values, window eviction past a
small ``max_list_size`` and one outage gap — drives the policy and, in
parallel, a separate :class:`PathMeasurement` fed by the rules of §III-C.
After every beat the policy's tuned values must equal, exactly, what the
reference functions of :mod:`repro.dynatune.tuner` derive from that
measurement.
"""

import random

import pytest

from repro.dynatune.config import DynatuneConfig
from repro.dynatune.measurement import PathMeasurement
from repro.dynatune.metadata import HeartbeatMeta
from repro.dynatune.policy import DynatunePolicy
from repro.dynatune.tuner import (
    required_heartbeats,
    tune_election_timeout,
    tune_heartbeat,
)

LEADER = "L"


def _stream(seed: int, beats: int):
    """``(now_ms, HeartbeatMeta)`` pairs with every arrival pattern."""
    rnd = random.Random(seed)
    now = 0.0
    seq = 0
    rtt_seq = 0
    out = []
    for i in range(beats):
        # Alternate a slow, jittery path (Et can reach its ceiling) with a
        # loopback-fast one (Et and h hit their floors).
        fast = (i // 50) % 2 == 1
        now += rnd.uniform(1.0, 4.0) if fast else rnd.uniform(5.0, 40.0)
        if i == beats // 2:
            now += 10_000.0  # an outage longer than 2·Et: gap reset
        roll = rnd.random()
        if roll < 0.10 and seq > 3:
            sent = seq - rnd.randint(1, 3)  # late (out-of-order) or duplicate
        elif roll < 0.15:
            sent = seq  # immediate duplicate of the newest ID
        else:
            seq += rnd.choice((1, 1, 1, 2, 3))  # gaps are losses
            sent = seq
        roll = rnd.random()
        if roll < 0.15:
            rtt = None
        else:
            if roll > 0.3:
                rtt_seq += 1  # else: the leader re-sends a stale sample
            rtt = rnd.uniform(0.0, 3.0) if fast else rnd.uniform(20.0, 120.0)
        out.append((now, HeartbeatMeta(sent, now, rtt, rtt_seq)))
    return out


@pytest.mark.parametrize(
    "cfg",
    [
        DynatuneConfig(min_list_size=3, max_list_size=8, h_floor_ms=4.0),
        DynatuneConfig(
            min_list_size=3,
            max_list_size=8,
            safety_factor=3.0,
            et_floor_ms=2.0,
            et_ceiling_ms=150.0,
            h_floor_ms=6.0,
            fixed_k=7,
        ),
    ],
    ids=["loss_k", "fixed_k"],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_follower_tuning_equals_reference_mechanisms(cfg, seed):
    policy = DynatunePolicy(cfg)
    policy.on_leader_change(LEADER, 0.0)
    ref = PathMeasurement(cfg.min_list_size, cfg.max_list_size)
    ref_et = None
    last_hb = None
    last_rtt_seq = 0
    gap_resets = clamps = tuned_beats = 0

    for now, meta in _stream(seed, 400):
        if last_hb is not None:
            et_in_force = ref_et if ref_et is not None else cfg.default_election_timeout_ms
            if now - last_hb > 2.0 * et_in_force:
                ref.reset()
                ref_et = None
                last_rtt_seq = 0
                gap_resets += 1
        last_hb = now
        ref.record_id(meta.seq)
        if meta.rtt_sample_ms is not None and meta.rtt_sample_seq > last_rtt_seq:
            last_rtt_seq = meta.rtt_sample_seq
            ref.record_rtt(meta.rtt_sample_ms)

        resp = policy.on_heartbeat(LEADER, meta, now)

        assert policy.measurement.ids() == ref.ids()
        assert policy.measurement.rtt_mean_std() == ref.rtt_mean_std()
        if ref.ready:
            mu, sigma = ref.rtt_mean_std()
            ref_et = tune_election_timeout(
                mu,
                sigma,
                safety_factor=cfg.safety_factor,
                floor_ms=cfg.et_floor_ms,
                ceiling_ms=cfg.et_ceiling_ms,
            )
            k = cfg.fixed_k
            if k is None:
                k = required_heartbeats(
                    ref.loss_rate(), cfg.arrival_probability, k_max=cfg.k_max
                )
            tuning = tune_heartbeat(ref_et, k, floor_ms=cfg.h_floor_ms)
            assert policy.tuned_et_ms == ref_et
            assert policy.tuned_h_ms == tuning.h_ms
            assert policy.last_tuning == tuning
            clamps += tuning.floor_clamped
            tuned_beats += 1
        else:
            assert policy.tuned_et_ms is None
            assert policy.tuned_h_ms is None
        assert (resp.echo_seq, resp.echo_ts, resp.tuned_h_ms, resp.tuned_et_ms) == (
            meta.seq,
            meta.send_ts,
            policy.tuned_h_ms,
            policy.tuned_et_ms,
        )

    # The stream really exercised what it claims to.
    assert policy.gap_resets == gap_resets >= 1
    assert policy.floor_clamps == clamps > 0
    assert policy.retunes == tuned_beats > 250
    assert ref.duplicates_ignored > 0
