"""The benchmark's four workloads (see README.md for why each exists).

A workload is run in *rounds*.  One round is a complete seeded simulation:
a set-up phase (build, start, first leader, warm-up) followed by a timed
phase (the workload's fixed simulated content, metric extraction and the
oracles' verdicts).  Everything a round simulates is a pure function of
the seed, so two rounds with one seed simulate exactly the same events and
report exactly the same simulated metrics; only their wall times differ.

The timed phase is cut into *chunks* (a slice of simulated time, one
leader failure or one fuzz trial), each timed separately by a
:class:`Meter`, which can run a fixed calibration probe between chunks so
that every stretch of wall time has a machine-speed sample taken under the
same conditions.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import itertools
import json
import time
from typing import Any, Callable

import numpy as np

import repro.cluster.builder as builder
import repro.cluster.measurements as measurements
import repro.fuzz.oracle as oracle
from repro.cluster.builder import Cluster, ClusterConfig
from repro.cluster.harness import ClusterHarness
from repro.cluster.workload import OpenLoopDriver
from repro.experiments.common import make_policy_factory
from repro.experiments.runner import derive_trial_seed
from repro.fuzz.generator import GenConfig, ScenarioGen
from repro.fuzz.history import OpHistory
from repro.fuzz.oracle import FuzzTrialConfig
from repro.fuzz.workload import WorkloadConfig, WorkloadDriver
from repro.net.schedule import (
    NetworkSchedule,
    gradual_rtt_profile,
    loss_staircase_profile,
)
from repro.raft.types import RaftConfig
from repro.scenarios.liveness import LivenessChecker
from repro.scenarios.safety import SafetyChecker
from repro.scenarios.scenario import Scenario
from repro.scenarios.steps import Crash, Recover, Repeat

perf = time.perf_counter

#: Upper bound on simulated warm-up before a round gives up waiting for
#: every follower to be tuned.
WARMUP_LIMIT_MS = 60_000.0

#: Warm-up of the 5-node workloads: first leader by about 1.5 s, followers
#: tuned about 1 s later (10 heartbeats at the default 100 ms).
N5_WARMUP_MS = 4_000.0


class Meter:
    """Wall-clock laps, optionally scaled by a machine-speed probe.

    With a probe (a fixed calibration loop returning its own run time),
    the probe runs outside the laps: once at :meth:`start` and after every
    :meth:`lap`.  Each lap's wall time is then scaled by ``ref_s`` over the
    mean of the probes just before and just after it, which cancels the
    machine's speed drift at the lap's own moment.
    """

    def __init__(self, probe: Callable[[], float] | None = None, ref_s: float = 1.0) -> None:
        self.probe = probe
        self.ref_s = ref_s
        self.probes: list[float] = []
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._before = 0.0
        self._t = perf()

    def start(self) -> None:
        if self.probe is not None:
            self._before = self.probe()
        self._t = perf()

    def lap(self) -> float:
        """Wall seconds since the last start or lap (scaled if probing)."""
        wall = perf() - self._t
        if self.probe is not None:
            after = self.probe()
            self.probes.append(after)
            self.raw_s += wall
            wall *= self.ref_s / ((self._before + after) / 2.0)
            self.scaled_s += wall
            self._before = after
        self._t = perf()
        return wall


@dataclasses.dataclass(slots=True)
class Round:
    """One round's measurements.

    ``sim`` holds simulated metrics and ``counters`` exact work counts;
    both repeat bit-for-bit for a seed.  ``chunks`` holds ``(simulated
    seconds, wall seconds)`` per timed chunk; ``verify_s`` is the wall
    time of metric extraction and the oracles' verdicts.
    """

    #: wall seconds of each cluster set-up in the round
    setups: list[float] = dataclasses.field(default_factory=list)
    verify_s: float = 0.0
    #: Trials the round ran, and whether a trial's wall time includes the
    #: set-up (it does unless trials build their own clusters).
    trials: int = 1
    trial_includes_setup: bool = True
    chunks: list[tuple[float, float]] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    sim: dict[str, float] = dataclasses.field(default_factory=dict)
    counters: dict[str, float] = dataclasses.field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return sum(self.setups)

    @property
    def sim_s(self) -> float:
        return sum(sim for sim, _ in self.chunks)

    @property
    def timed_s(self) -> float:
        return sum(wall for _, wall in self.chunks) + self.verify_s


def pct(values: list[float], q: float) -> float:
    """Percentile by linear interpolation (numpy's default method)."""
    return float(np.percentile(values, q)) if values else float("nan")


def _digest(obj: Any) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


# --------------------------------------------------------------------- #
# shared cluster helpers
# --------------------------------------------------------------------- #


def _build(config: ClusterConfig) -> Cluster:
    # Looked up through the module so a traced run's wrapper is used.
    return builder.build_cluster(config, make_policy_factory("dynatune"))


def _warm_up(cluster: Cluster, until_ms: float) -> str:
    """Start, elect a first leader and run to ``until_ms``, and on until
    every follower has tuned at least once.

    A fixed warm-up length keeps the set-up's simulated work nearly the
    same for every seed.  "Has tuned at least once" rather than "is tuned
    now": on 101 nodes some follower is always back on defaults for a
    moment after one of its (frequent) false election timeouts.
    """
    cluster.start()
    leader = cluster.run_until_leader()
    tuned: set[str] = set()
    deadline = max(until_ms, cluster.loop.now) + WARMUP_LIMIT_MS
    while cluster.loop.now < deadline:
        leader = cluster.leader() or leader
        tuned.update(
            n.name for n in cluster.nodes.values() if n.policy.tuned_et_ms is not None
        )
        if cluster.loop.now >= until_ms and tuned >= set(cluster.names) - {leader}:
            return leader
        cluster.run_for(100.0)
    raise RuntimeError(f"followers not tuned within {WARMUP_LIMIT_MS} ms")


def _work_counters(cluster: Cluster) -> dict[str, float]:
    stats = cluster.network.total_stats()
    nodes = list(cluster.nodes.values())
    metric = lambda field: sum(getattr(n.metrics, field) for n in nodes)  # noqa: E731
    return {
        "events": cluster.loop.executed,
        "transmits": stats.sent,
        "dropped": stats.dropped,
        "bytes": stats.bytes_sent,
        "trace_records": len(cluster.trace),
        "elections": metric("elections_started"),
        "leaders_elected": metric("times_leader"),
        "client_requests": metric("client_requests"),
        "client_redirects": metric("client_redirects"),
        "batches": metric("batches_flushed"),
        "batched_cmds": metric("batched_commands"),
    }


def _delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {k: after[k] - before.get(k, 0) for k in after}


def _false_timeouts(cluster: Cluster, t0: float, t1: float) -> int:
    """Election timeouts in ``[t0, t1]`` that fired while a leader acted."""
    gaps = measurements.leaderless_intervals(cluster.trace, t_end=t1)
    count = 0
    for rec in cluster.trace.of_kind("election_timeout"):
        if t0 <= rec.time <= t1 and not any(a <= rec.time <= b for a, b in gaps):
            count += 1
    return count


def _timed_slices(
    cluster: Cluster, total_ms: float, chunk_ms: float, meter: Meter
) -> list[tuple[float, float]]:
    chunks = []
    left = total_ms
    while left > 1e-9:
        step = min(chunk_ms, left)
        cluster.run_for(step)
        chunks.append((step / 1000.0, meter.lap()))
        left -= step
    return chunks


# --------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------- #


class Workload:
    """Base: a named round generator."""

    name = ""
    #: one-line description of the injected delay, loss and faults
    schedule = ""

    def inputs(self, seed: int) -> str:
        """Digest of the inputs the workload generates from ``seed``."""
        raise NotImplementedError

    def setup(self, seed: int) -> Any:
        """Build, start and warm up a cluster (the set-up phase)."""
        raise NotImplementedError

    def round(
        self, seed: int, meter: Meter, on_phase: Callable[[str], None] | None = None
    ) -> Round:
        """One complete seeded simulation, timed lap by lap on ``meter``."""
        raise NotImplementedError


def _phase(on_phase: Callable[[str], None] | None, phase: str) -> None:
    if on_phase is not None:
        on_phase(phase)


class SteadyN101(Workload):
    """Idle Dynatune cluster: the heartbeat chain and nothing else."""

    name = "steady_n101"
    #: first leader by about 1.2 s, every follower tuned by about 5.5 s
    WARMUP_MS = 8_000.0

    #: About a tenth of the steady traffic is prevote rounds after false
    #: election timeouts, whose count per seed is noisy over short runs:
    #: 72 s brought the seed-to-seed spread of events per simulated second
    #: from 3.0 % (24 s) to 0.8 %.
    TIMED_MS = 72_000.0
    CHUNK_MS = 1_000.0

    def __init__(self, *, n_nodes: int = 101, timed_ms: float = TIMED_MS):
        self.n_nodes = n_nodes
        self.timed_ms = timed_ms
        self.schedule = (
            f"{n_nodes} Dynatune nodes, uniform RTT 100 ms, jitter sigma 0.1 ms, "
            f"loss 0, ideal storage, no clients, no faults; "
            f"{timed_ms / 1000:g} sim-s timed after warm-up"
        )

    def _config(self, seed: int) -> ClusterConfig:
        return ClusterConfig(n_nodes=self.n_nodes, seed=seed, rtt_ms=100.0, jitter_sigma_ms=0.1)

    def inputs(self, seed: int) -> str:
        cluster = builder.build_cluster(self._config(seed), make_policy_factory("dynatune"))
        link = cluster.network.link("n1", "n2")
        return _digest([link.sample_delay(link.rng) for _ in range(16)])

    def setup(self, seed: int) -> tuple[Cluster, str]:
        cluster = _build(self._config(seed))
        return cluster, _warm_up(cluster, self.WARMUP_MS)

    def round(
        self, seed: int, meter: Meter, on_phase: Callable[[str], None] | None = None
    ) -> Round:
        out = Round()
        _phase(on_phase, "setup")
        meter.start()
        cluster, _ = self.setup(seed)
        out.setups.append(meter.lap())
        _phase(on_phase, "timed")
        start = cluster.loop.now
        before = _work_counters(cluster)
        out.chunks = _timed_slices(cluster, self.timed_ms, self.CHUNK_MS, meter)
        end = cluster.loop.now
        counters = _delta(_work_counters(cluster), before)
        checker = SafetyChecker(cluster)
        checker.sample()
        out.problems = list(checker.verify())
        if cluster.leader() is None:
            out.problems.append("no leader at the end of the steady run")
        false_timeouts = _false_timeouts(cluster, start, end)
        out.verify_s = meter.lap()
        out.attempted = 1
        out.counters = counters
        out.sim = {
            "false_timeouts_per_h": false_timeouts / ((end - start) / 3_600_000.0),
            "elections": counters["elections"],
            "warmed_up_at_ms": start,
        }
        return out


def _node_pairs(cluster: Cluster) -> list[tuple[str, str]]:
    return list(itertools.combinations(cluster.names, 2))


class FailoverN5(Workload):
    """The paper's leader-failure loop under moving RTT and loss."""

    name = "failover_n5"
    #: Loss levels of the staircase.  Above 5 % a few client requests
    #: exhaust their retries during failovers (see README), and the
    #: workload must not fail operations.
    LOSS_LEVELS = (0.0, 0.01, 0.02, 0.03, 0.04, 0.05)
    SLEEP_MS = 5_000.0
    SETTLE_MS = 5_000.0
    #: simulated time one failure takes (kill, re-election, settle); sets
    #: the profiles' dwell so both span the whole loop
    PER_FAILURE_MS = 6_000.0
    DRAIN_MS = 5_000.0
    CLIENT_RPS = 50.0

    def __init__(self, *, n_failures: int = 200):
        self.n_failures = n_failures
        span = n_failures * self.PER_FAILURE_MS
        self.rtt_dwell_ms = span / 31.0  # 50 -> 200 -> 50 ms in 10 ms steps
        self.loss_dwell_ms = span / (2 * len(self.LOSS_LEVELS) - 1)
        self.schedule = (
            f"5 Dynatune nodes; node-to-node RTT 50->200->50 ms in 10 ms steps "
            f"({self.rtt_dwell_ms / 1000:g} s each), loss "
            f"{'/'.join(f'{p:.0%}' for p in self.LOSS_LEVELS)} up and down "
            f"({self.loss_dwell_ms / 1000:g} s each), jitter sigma 0.1 ms; "
            f"{n_failures} leader pauses of {self.SLEEP_MS / 1000:g} s, "
            f"{self.SETTLE_MS / 1000:g} s settle; one open-loop Poisson kv_put "
            f"client at {self.CLIENT_RPS:g} req/s over a loss-free 10 ms RTT link"
        )

    def _config(self, seed: int) -> ClusterConfig:
        return ClusterConfig(n_nodes=5, seed=seed, rtt_ms=50.0, jitter_sigma_ms=0.1)

    def inputs(self, seed: int) -> str:
        cluster = builder.build_cluster(self._config(seed), make_policy_factory("dynatune"))
        rng = cluster.rngs.stream("bench/client")
        return _digest([float(rng.exponential(1000.0 / self.CLIENT_RPS)) for _ in range(16)])

    def _schedule(self, cluster: Cluster, start: float) -> NetworkSchedule:
        rtt = gradual_rtt_profile(
            low_ms=50.0, high_ms=200.0, step_ms=10.0, dwell_ms=self.rtt_dwell_ms, start_ms=start
        )
        loss = loss_staircase_profile(
            rtt_ms=50.0, levels=self.LOSS_LEVELS, dwell_ms=self.loss_dwell_ms, start_ms=start
        )
        # Node-to-node paths only: the client's edge link stays at 10 ms.
        pairs = _node_pairs(cluster)
        actions = [dataclasses.replace(a, pair=p) for a in rtt.actions for p in pairs]
        actions += [
            dataclasses.replace(a, rtt_ms=None, pair=p) for a in loss.actions for p in pairs
        ]
        return NetworkSchedule(actions)

    def setup(self, seed: int) -> dict[str, Any]:
        cluster = _build(self._config(seed))
        safety = SafetyChecker(cluster)
        safety.install(event_hooks=True)
        # Each failover is its own leaderless window; the cumulative
        # budget scales with the number of failures injected.
        liveness = LivenessChecker(
            cluster, leaderless_total_bound_ms=self.n_failures * 10_000.0
        )
        liveness.install()
        client = cluster.add_client("c1", rtt_ms=10.0)
        driver = OpenLoopDriver(
            cluster.loop, client, rps=self.CLIENT_RPS, rng=cluster.rngs.stream("bench/client")
        )
        _warm_up(cluster, N5_WARMUP_MS)
        return {
            "cluster": cluster,
            "safety": safety,
            "liveness": liveness,
            "client": client,
            "driver": driver,
        }

    def round(
        self, seed: int, meter: Meter, on_phase: Callable[[str], None] | None = None
    ) -> Round:
        out = Round()
        _phase(on_phase, "setup")
        meter.start()
        s = self.setup(seed)
        out.setups.append(meter.lap())
        _phase(on_phase, "timed")
        cluster: Cluster = s["cluster"]
        start = cluster.loop.now
        before = _work_counters(cluster)
        self._schedule(cluster, start).install(cluster.loop, cluster.network)
        s["driver"].start()
        harness = ClusterHarness(cluster)
        for _ in range(self.n_failures):
            c0 = cluster.loop.now
            harness.run_leader_failure_loop(
                1, warmup_ms=0.0, sleep_ms=self.SLEEP_MS, settle_ms=self.SETTLE_MS
            )
            out.chunks.append(((cluster.loop.now - c0) / 1000.0, meter.lap()))
        s["driver"].stop()
        cluster.run_for(self.DRAIN_MS)
        out.chunks.append((self.DRAIN_MS / 1000.0, meter.lap()))
        end = cluster.loop.now
        client = s["client"]
        counters = _delta(_work_counters(cluster), before)
        counters["ops_done"] = len(client.completed)
        counters["writes"] = len(client.completed)

        episodes = measurements.extract_failure_episodes(cluster.trace, cluster_size=5)
        out.problems = list(s["safety"].verify()) + list(s["liveness"].verify())
        unresolved = [e for e in episodes if not e.resolved]
        if len(episodes) != self.n_failures or unresolved:
            out.problems.append(
                f"{len(unresolved)} of {len(episodes)} failovers unresolved "
                f"({self.n_failures} injected)"
            )
        ots = _client_ots(cluster, client.completed)
        if len(ots) != len(episodes):
            out.problems.append(
                f"{len(episodes) - len(ots)} failovers with no client reply afterwards"
            )
        detect = [e.detection_latency_ms for e in episodes if e.resolved]
        writes = [c.latency_ms for c in client.completed]
        failed = len(client.failed) + client.inflight_count
        false_timeouts = _false_timeouts(cluster, start, end)
        out.verify_s = meter.lap()
        out.attempted = s["driver"].submitted
        out.failed = failed
        out.counters = counters
        out.sim = {
            "detect_ms_p50": pct(detect, 50),
            "detect_ms_p95": pct(detect, 95),
            "ots_ms_p50": pct(ots, 50),
            "ots_ms_p95": pct(ots, 95),
            "false_timeouts_per_h": false_timeouts / ((end - start) / 3_600_000.0),
            "write_ms_p50": pct(writes, 50),
            "write_ms_p99": pct(writes, 99),
            "failed_op_frac": failed / max(out.attempted, 1),
            "ops_attempted": out.attempted,
            "failovers": len(episodes),
        }
        return out


def _client_ots(cluster: Cluster, completed: list[Any]) -> list[float]:
    """Per failure: failure instant to the first reply to a request
    submitted at or after it (and before the next failure)."""
    failures = [r.time for r in cluster.trace.of_kind(measurements.LEADER_FAILURE_KIND)]
    done = sorted((c.submitted_ms, c.completed_ms) for c in completed)
    submitted = [d[0] for d in done]
    out = []
    for i, f in enumerate(failures):
        hi = failures[i + 1] if i + 1 < len(failures) else float("inf")
        lo_i = bisect.bisect_left(submitted, f)
        hi_i = bisect.bisect_left(submitted, hi)
        replies = [done[j][1] for j in range(lo_i, hi_i)]
        if replies:
            out.append(min(replies) - f)
    return out


class ServingN5(Workload):
    """Closed-loop KV serving on the fast path, with a follower crashing."""

    name = "serving_n5"
    CRASH_EVERY_MS = 4_000.0
    CRASH_DOWN_MS = 1_500.0
    OP_TIMEOUT_MS = 2_000.0
    #: clients stop issuing this long before the end, so that the last
    #: operations settle (a normal operation takes 10-150 ms)
    DRAIN_MS = 1_000.0
    CHUNK_MS = 500.0
    #: Work per simulated second differs by about 8 % from one cluster seed
    #: to the next however long the run (events per simulated second
    #: 3818-4480 over seeds 41-50), so a round serves on several clusters,
    #: seeded ``derive_trial_seed(seed, k)``, and pools them.
    N_CLUSTERS = 4

    def __init__(
        self,
        *,
        n_nodes: int = 5,
        n_clients: int = 64,
        timed_ms: float = 10_000.0,
        n_clusters: int = N_CLUSTERS,
    ):
        self.name = f"serving_n{n_nodes}"
        self.n_nodes = n_nodes
        self.n_clients = n_clients
        self.timed_ms = timed_ms
        self.n_clusters = n_clusters
        crash = (
            f"one follower crashes every {self.CRASH_EVERY_MS / 1000:g} s and "
            f"recovers {self.CRASH_DOWN_MS / 1000:g} s later"
            if n_nodes > 1
            else "no faults"
        )
        self.schedule = (
            f"{n_nodes} Dynatune nodes, RTT 80 ms, jitter sigma 0.1 ms, loss 0, "
            f"simdisk storage without disk faults; {n_clients} closed-loop clients "
            f"at 10 ms RTT, think 1-8 ms, 30% put / 65% lease get / 5% delete "
            f"over 32 keys; {crash}; {timed_ms / 1000:g} sim-s timed on each of "
            f"{n_clusters} clusters per round (seeds derive_trial_seed(seed, k))"
        )

    def _config(self, seed: int) -> ClusterConfig:
        return ClusterConfig(
            n_nodes=self.n_nodes,
            seed=seed,
            rtt_ms=80.0,
            jitter_sigma_ms=0.1,
            storage="simdisk",
            raft=RaftConfig(
                client_batching=True,
                client_batch_max=64,
                client_batch_window_ms=5.0,
                replication_pipelining=True,
                max_inflight_appends=4,
                lease_reads=True,
                compaction_threshold=1_000,
                compaction_retain_margin=64,
            ),
        )

    def _workload(self, start: float) -> WorkloadConfig:
        return WorkloadConfig(
            n_clients=self.n_clients,
            n_keys=32,
            op_timeout_ms=self.OP_TIMEOUT_MS,
            think_min_ms=1.0,
            think_max_ms=8.0,
            p_put=0.30,
            p_get=0.65,
            start_ms=start,
            max_ops_per_client=1_000_000,
            read_fastpath=True,
            client_rtt_ms=10.0,
        )

    def inputs(self, seed: int) -> str:
        cluster = builder.build_cluster(
            self._config(derive_trial_seed(seed, 0)), make_policy_factory("dynatune")
        )
        rng = cluster.rngs.stream("fuzz/client/fc1")
        return _digest([float(rng.random()) for _ in range(16)])

    def setup(self, seed: int, k: int = 0) -> tuple[Cluster, SafetyChecker, str]:
        """Build and warm up the round's ``k``-th cluster."""
        cluster = _build(self._config(derive_trial_seed(seed, k)))
        safety = SafetyChecker(cluster)
        safety.install(event_hooks=True)
        return cluster, safety, _warm_up(cluster, N5_WARMUP_MS)

    def round(
        self, seed: int, meter: Meter, on_phase: Callable[[str], None] | None = None
    ) -> Round:
        out = Round()
        reads: list[float] = []
        writes: list[float] = []
        attempted = lease_reads = crashes = 0
        counters: dict[str, float] = {}
        for k in range(self.n_clusters):
            _phase(on_phase, "setup")
            meter.start()
            cluster, safety, leader = self.setup(seed, k)
            out.setups.append(meter.lap())
            _phase(on_phase, "timed")
            start = cluster.loop.now
            before = _work_counters(cluster)
            history = self._install_load(cluster, leader, start)
            out.chunks += _timed_slices(cluster, self.timed_ms, self.CHUNK_MS, meter)
            for key, value in _delta(_work_counters(cluster), before).items():
                counters[key] = counters.get(key, 0) + value
            out.problems += safety.verify()
            ops = history.ops()
            done = [o for o in ops if o.completed]
            reads += [o.return_ms - o.invoke_ms for o in done if o.op == "get"]
            writes += [o.return_ms - o.invoke_ms for o in done if o.op != "get"]
            attempted += len(ops)
            lease_reads += sum(n.metrics.reads_served_lease for n in cluster.nodes.values())
            crashes += len(cluster.trace.of_kind("process_crashed"))
            out.verify_s += meter.lap()
        done_n = len(reads) + len(writes)
        out.attempted = attempted
        out.failed = attempted - done_n
        counters["writes"] = len(writes)
        counters["ops_done"] = done_n
        out.counters = counters
        out.sim = {
            "write_ms_p50": pct(writes, 50),
            "write_ms_p99": pct(writes, 99),
            "read_ms_p50": pct(reads, 50),
            "read_ms_p99": pct(reads, 99),
            "ops_per_sim_s": done_n / (self.n_clusters * self.timed_ms / 1000.0),
            "failed_op_frac": out.failed / max(attempted, 1),
            "ops_attempted": attempted,
            "lease_reads": lease_reads,
            "crashes": crashes,
        }
        return out

    def _install_load(self, cluster: Cluster, leader: str, start: float) -> OpHistory:
        """Install the clients, and the crash schedule of the first follower
        (every crash recovers inside the timed phase); returns the history."""
        followers = [n for n in cluster.names if n != leader]
        if followers:
            last = self.timed_ms - 1_000.0 - self.CRASH_DOWN_MS
            times = int(last // self.CRASH_EVERY_MS) + 1
            every = Repeat(every_ms=self.CRASH_EVERY_MS, times=times)
            Scenario(
                "serving-follower-crash",
                [
                    Crash(at_ms=start + 1_000.0, node=followers[0], repeat=every),
                    Recover(
                        at_ms=start + 1_000.0 + self.CRASH_DOWN_MS,
                        node=followers[0],
                        repeat=every,
                    ),
                ],
            ).install(cluster)
        history = OpHistory()
        WorkloadDriver(
            cluster,
            self._workload(start),
            history,
            stop_ms=start + self.timed_ms - self.DRAIN_MS,
        ).install()
        return history


class FuzzTrials(Workload):
    """A fixed stream of generated scenarios through the full fuzz oracle."""

    name = "fuzz_trials"
    SYSTEMS = ("raft", "dynatune")

    #: Generated scenarios differ a lot in cost per simulated second (one
    #: trial of seed 1 ran at 97 sim-s/s, another at 622), so a round runs
    #: as many trials as the CI campaign job: 120.
    N_TRIALS = 120
    #: Linearizability search budget per key (the campaign default is
    #: 500 000).  Now and then a generated trial exhausts any budget (one
    #: in 480 over seeds 11-20); at the default that search took 11.6 s,
    #: more than the rest of the round, so a round's cost depended on
    #: whether its stream held such a trial.  An exhausted search is
    #: reported as undecided either way (``lin_undecided_frac``).
    LIN_BUDGET = 20_000

    def __init__(self, *, n_trials: int = N_TRIALS):
        self.n_trials = n_trials
        self.gen = GenConfig()
        self.schedule = (
            f"{n_trials} generated scenarios per round (default GenConfig: "
            f"{self.gen.n_nodes} nodes, partitions/flaps/crashes/gray links/"
            f"disk faults drawn by ScenarioGen), systems alternating "
            f"{'/'.join(self.SYSTEMS)}, default FuzzTrialConfig (RTT 50 ms, "
            f"3 at-most-once clients) but a linearizability budget of "
            f"{self.LIN_BUDGET}, trial seeds derive_trial_seed(seed, i)"
        )

    def trial_config(self, seed: int, index: int) -> tuple[FuzzTrialConfig, int]:
        """The campaign's per-trial config (systems round-robin)."""
        trial_seed = derive_trial_seed(seed, index)
        config = dataclasses.replace(
            FuzzTrialConfig(),
            system=self.SYSTEMS[index % len(self.SYSTEMS)],
            n_nodes=self.gen.n_nodes,
            seed=trial_seed,
            lin_budget=self.LIN_BUDGET,
        )
        return config, trial_seed

    def inputs(self, seed: int) -> str:
        return _digest(
            [
                ScenarioGen(self.gen).generate(self.trial_config(seed, i)[1]).to_dict()
                for i in range(self.n_trials)
            ]
        )

    def setup(self, seed: int) -> None:
        """What every trial pays before its scenario starts: build the
        trial's cluster and elect a first leader."""
        config, _ = self.trial_config(seed, 0)
        cluster = builder.build_cluster(
            ClusterConfig(n_nodes=config.n_nodes, seed=config.seed, rtt_ms=config.rtt_ms),
            make_policy_factory(config.system),
        )
        cluster.start()
        cluster.run_until_leader()

    def round(
        self, seed: int, meter: Meter, on_phase: Callable[[str], None] | None = None
    ) -> Round:
        out = Round(trials=self.n_trials, trial_includes_setup=False)
        _phase(on_phase, "setup")
        meter.start()
        self.setup(seed)
        out.setups.append(meter.lap())
        _phase(on_phase, "timed")
        # Trials build their clusters inside run_trial; capture each one
        # (a plain pass-through, no timing) to read its work counters.
        built: list[Cluster] = []
        build = oracle.build_cluster

        def capture(*args: Any, **kwargs: Any) -> Cluster:
            cluster = build(*args, **kwargs)
            built.append(cluster)
            return cluster

        oracle.build_cluster = capture
        totals: dict[str, float] = {}
        ops = opened = undecided = lin_configs = 0
        try:
            for i in range(self.n_trials):
                config, trial_seed = self.trial_config(seed, i)
                scenario = ScenarioGen(self.gen).generate(trial_seed)
                result = oracle.run_trial(config, scenario)
                out.chunks.append((result.duration_ms / 1000.0, meter.lap()))
                for k, v in _work_counters(built.pop()).items():
                    totals[k] = totals.get(k, 0) + v
                if not result.ok:
                    out.problems.append(f"trial {i} (seed {trial_seed}): {result.violations[:3]}")
                ops += result.n_ops
                opened += result.n_open
                undecided += result.lin_undecided
                lin_configs += result.lin_configs
        finally:
            oracle.build_cluster = build
        out.attempted = self.n_trials
        out.failed = len(out.problems)
        totals["ops_done"] = ops - opened
        totals["lin_configs"] = lin_configs
        totals["lin_undecided"] = undecided
        out.counters = totals
        out.sim = {
            "failed_op_frac": opened / max(ops, 1),
            "ops_attempted": ops,
            "trials_ok": self.n_trials - len(out.problems),
            "lin_undecided_frac": undecided / self.n_trials,
        }
        return out


def make(name: str, size: str = "full") -> Workload:
    """The named workload at ``full`` (benchmark) or ``tiny`` (test) size."""
    tiny = size == "tiny"
    if name == "steady_n101":
        return SteadyN101(n_nodes=7, timed_ms=2_000.0) if tiny else SteadyN101()
    if name == "failover_n5":
        return FailoverN5(n_failures=3) if tiny else FailoverN5()
    if name == "serving_n5":
        return ServingN5(n_clients=8, timed_ms=6_000.0, n_clusters=1) if tiny else ServingN5()
    if name == "serving_n1":
        return ServingN5(n_nodes=1, n_clients=8 if tiny else 64, timed_ms=6_000.0, n_clusters=1)
    if name == "fuzz_trials":
        return FuzzTrials(n_trials=2) if tiny else FuzzTrials()
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("steady_n101", "failover_n5", "serving_n5", "fuzz_trials")
