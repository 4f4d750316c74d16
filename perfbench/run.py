"""One-command end-to-end benchmark of the Dynatune/Raft simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload steady_n101 --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs one untraced reference round, then traced rounds with
span wrappers around every layer boundary, checks that tracing changed
no simulated event, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
are a human-readable report plus a ``report:`` JSON line carrying every
simulated metric, the correctness gates and the environment record.  The
exit code is 0 only when every gate held.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Unit of every metric the last line carries, by mode.
END_TO_END_UNITS = {
    "sim_s_per_wall_s": "sim_s/s",
    "trials_per_wall_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Simulated end-to-end metrics reported per workload (units).
SIMULATED_UNITS = {
    "detect_ms_p50": "ms",
    "detect_ms_p95": "ms",
    "ots_ms_p50": "ms",
    "ots_ms_p95": "ms",
    "false_timeouts_per_h": "1/h",
    "write_ms_p50": "ms",
    "write_ms_p99": "ms",
    "read_ms_p50": "ms",
    "read_ms_p99": "ms",
    "ops_per_sim_s": "1/sim_s",
    "failed_op_frac": "frac",
    "ops_attempted": "count",
    "violations": "count",
    "elections": "count",
    "warmed_up_at_ms": "ms",
    "failovers": "count",
    "lease_reads": "count",
    "crashes": "count",
    "trials_ok": "count",
    "lin_undecided_frac": "frac",
}

PER_LAYER_UNITS = {
    "sim.events_per_sim_s": "1/sim_s",
    "sim.self_s": "s",
    "sim.trace_records_per_sim_s": "1/sim_s",
    "sim.trace_record_self_s": "s",
    "net.transmits_per_sim_s": "1/sim_s",
    "net.transmit_self_s": "s",
    "net.drop_frac": "frac",
    "net.bytes_per_op": "B/op",
    "raft.deliver_self_s": "s",
    "raft.deliveries_per_sim_s": "1/sim_s",
    "raft.timer_self_s": "s",
    "raft.timer_fires_per_sim_s": "1/sim_s",
    "raft.client_self_s": "s",
    "raft.msgs_per_op": "msg/op",
    "raft.cmds_per_batch": "cmd/batch",
    "raft.redirects_per_op": "1/op",
    "raft.elections_per_min": "1/min",
    "raft.elections_no_winner_frac": "frac",
    "dynatune.on_heartbeat_self_s": "s",
    "dynatune.leader_side_self_s": "s",
    "dynatune.calls_per_sim_s": "1/sim_s",
    "dynatune.retune_useful_frac": "frac",
    "storage.sync_self_s": "s",
    "storage.syncs_per_write": "1/write",
    "storage.wal_appends_per_write": "1/write",
    "storage.sync_fail_frac": "frac",
    "storage.wal_append_self_s": "s",
    "storage.recover_self_s": "s",
    "scenarios.safety_self_s": "s",
    "scenarios.liveness_self_s": "s",
    "scenarios.step_apply_self_s": "s",
    "fuzz.generate_self_s": "s",
    "fuzz.lin_check_self_s": "s",
    "fuzz.lin_configs_per_trial": "1/trial",
    "fuzz.lin_undecided_frac": "frac",
    "cluster.build_self_s": "s",
    "cluster.extract_self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_x": "x",
    "floor.raft.msgs_per_op": "msg/op",
    "floor.storage.syncs_per_write": "1/write",
}

#: Stand-alone set-ups timed before the rounds (each round adds one more):
#: at least the first count, then more until their total reaches the
#: seconds, at most the second count.
SETUP_REPEATS = (3, 60)
SETUP_TOTAL_S = 0.5

#: Calibration time of the reference machine the timed metrics are scaled
#: to (see :class:`Probe`).
CAL_REF_S = 0.010

#: String hashing is randomised per process unless PYTHONHASHSEED is set,
#: and the resulting dict layouts alone moved the failover rate by about
#: 10 % between otherwise identical processes.  Every run uses this seed.
HASH_SEED = "0"


class _Cell:
    __slots__ = ("key", "hits", "next")

    def __init__(self, key: int) -> None:
        self.key = key
        self.hits = 0
        self.next: _Cell | None = None


def _ring(n: int = 60_000) -> list[_Cell]:
    """Cells linked in a fixed pseudo-random order (a cache-unfriendly walk
    over a few megabytes, like the simulator's per-node and per-link state)."""
    cells = [_Cell(i) for i in range(n)]
    x = 12345
    order = list(range(n))
    for i in range(n - 1, 0, -1):  # Fisher-Yates with a fixed LCG
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        j = x % (i + 1)
        order[i], order[j] = order[j], order[i]
    for a, b in zip(order, order[1:] + order[:1]):
        cells[a].next = cells[b]
    return cells


class Probe:
    """Times a fixed pure-Python loop: a pointer walk over a few megabytes
    of objects plus heap, dict and arithmetic work.

    The loop is the same on every run and every commit and calls no code of
    the program, so it measures the machine, not the program.  It runs
    before and after every timed lap, and each lap is scaled by
    :data:`CAL_REF_S` over the mean of those two probes (see
    ``workloads.Meter``), which cancels most of the speed drift a shared
    host shows from one second to the next.
    """

    STEPS = 6_000

    def __init__(self) -> None:
        # The cells form one cycle, so holding one keeps them all alive.
        self._start = _ring()[0]

    def __call__(self) -> float:
        t0 = time.perf_counter()
        cell = self._start
        heap: list[tuple[float, int]] = []
        seen: dict[int, int] = {}
        x = 12345
        for i in range(self.STEPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            cell.hits += 1
            heapq.heappush(heap, (cell.key / 7.0, i))
            seen[x & 4095] = seen.get(x & 4095, 0) + 1
            if len(heap) > 64:
                heapq.heappop(heap)
            cell = cell.next  # type: ignore[assignment]
        return time.perf_counter() - t0


def calibrate(probe: Probe, reps: int = 20) -> float:
    """Median of ``reps`` probes: the run's stand-alone calibration record."""
    return statistics.median(probe() for _ in range(reps))


def environment(cal_start: float, cal_end: float) -> dict[str, Any]:
    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "calibration_s": (cal_start + cal_end) / 2.0,
        "calibration_start_s": cal_start,
        "calibration_end_s": cal_end,
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _repeat(fn: Callable[[], Any], deadline: float) -> list[Any]:
    """Call ``fn`` at least once, then again while another call as long
    as the last one still ends before ``deadline``."""
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(fn())
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return results


def _determinism_problems(rounds: list[Any], ref: Any, what: str) -> list[str]:
    """Rounds whose simulated metrics or work counters differ from ``ref``
    (compared as JSON so that NaN equals NaN)."""

    def key(r: Any) -> str:
        return json.dumps([r.sim, r.counters], sort_keys=True)

    bad = [i for i, r in enumerate(rounds) if key(r) != key(ref)]
    if not bad:
        return []
    return [f"{len(bad)} {what} round(s) differ from the reference round, first {bad[0]}"]


def measure(
    wl: Any, seed: int, seconds: float, probe: Probe
) -> tuple[dict[str, float], dict[str, float], Any, list[str], int]:
    """Untraced run: end-to-end metrics, scaling record, first round,
    problems, round count."""
    import workloads

    meter = workloads.Meter(probe, CAL_REF_S)
    wl.setup(seed)  # untimed warm-up: imports, allocator and code caches
    setups: list[float] = []
    least, most = SETUP_REPEATS
    while len(setups) < most and (len(setups) < least or sum(setups) < SETUP_TOTAL_S):
        meter.start()
        wl.setup(seed)
        setups.append(meter.lap())
    rounds = _repeat(lambda: wl.round(seed, meter), time.perf_counter() + seconds)
    first = rounds[0]
    problems = list(first.problems) + _determinism_problems(rounds[1:], first, "untraced")
    setups += [x for r in rounds for x in r.setups]
    trial_wall = sum(r.timed_s + (r.setup_s if r.trial_includes_setup else 0.0) for r in rounds)
    metrics = {
        "sim_s_per_wall_s": sum(r.sim_s for r in rounds) / sum(r.timed_s for r in rounds),
        "trials_per_wall_s": sum(r.trials for r in rounds) / trial_wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    scaling = {
        "probe_median_s": statistics.median(meter.probes),
        "probes": len(meter.probes),
        "raw_over_scaled_wall": meter.raw_s / meter.scaled_s,
    }
    return metrics, scaling, first, problems, len(rounds)


def layer_metrics(r: Any, rec: Any, ref: Any) -> dict[str, float]:
    """Per-layer metrics of one traced round (timed phase)."""
    t = "timed"
    c = r.counters
    sim_s = r.sim_s

    def self_s(name: str) -> float:
        return rec.span(t, name).self_s

    def count(name: str) -> int:
        return rec.span(t, name).count

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    ops = c.get("ops_done", 0)
    writes = c.get("writes", 0)
    on_hb = count("dynatune.on_heartbeat")
    syncs = count("storage.sync")
    return {
        "sim.events_per_sim_s": c["events"] / sim_s,
        "sim.self_s": self_s("sim.run"),
        "sim.trace_records_per_sim_s": count("sim.trace_record") / sim_s,
        "sim.trace_record_self_s": self_s("sim.trace_record"),
        "net.transmits_per_sim_s": count("net.transmit") / sim_s,
        "net.transmit_self_s": self_s("net.transmit"),
        "net.drop_frac": ratio(c["dropped"], c["transmits"]),
        "net.bytes_per_op": ratio(c["bytes"], ops),
        "raft.deliver_self_s": self_s("raft.deliver"),
        "raft.deliveries_per_sim_s": count("raft.deliver") / sim_s,
        "raft.timer_self_s": self_s("raft.timer"),
        "raft.timer_fires_per_sim_s": count("raft.timer") / sim_s,
        "raft.client_self_s": self_s("raft.client"),
        "raft.msgs_per_op": ratio(c["transmits"], ops),
        "raft.cmds_per_batch": ratio(c["batched_cmds"], c["batches"]),
        "raft.redirects_per_op": ratio(c["client_redirects"], ops),
        "raft.elections_per_min": c["elections"] / (sim_s / 60.0),
        "raft.elections_no_winner_frac": ratio(
            c["elections"] - c["leaders_elected"], c["elections"]
        ),
        "dynatune.on_heartbeat_self_s": self_s("dynatune.on_heartbeat"),
        "dynatune.leader_side_self_s": self_s("dynatune.leader_side"),
        "dynatune.calls_per_sim_s": (on_hb + count("dynatune.leader_side")) / sim_s,
        "dynatune.retune_useful_frac": ratio(rec.counter(t, "retune_useful"), on_hb),
        "storage.sync_self_s": self_s("storage.sync"),
        "storage.syncs_per_write": ratio(syncs, writes),
        "storage.wal_appends_per_write": ratio(count("storage.wal_append"), writes),
        "storage.sync_fail_frac": ratio(rec.counter(t, "sync_failed"), syncs),
        "storage.wal_append_self_s": self_s("storage.wal_append"),
        "storage.recover_self_s": self_s("storage.recover"),
        "scenarios.safety_self_s": self_s("scenarios.safety"),
        "scenarios.liveness_self_s": self_s("scenarios.liveness"),
        "scenarios.step_apply_self_s": self_s("scenarios.step_apply"),
        "fuzz.generate_self_s": self_s("fuzz.generate"),
        "fuzz.lin_check_self_s": self_s("fuzz.lin_check"),
        "fuzz.lin_configs_per_trial": ratio(c.get("lin_configs", 0), r.trials),
        "fuzz.lin_undecided_frac": ratio(c.get("lin_undecided", 0), r.trials),
        "cluster.build_self_s": self_s("cluster.build")
        + rec.span("setup", "cluster.build").self_s,
        "cluster.extract_self_s": self_s("cluster.extract"),
        "trace.wall_s": r.timed_s,
        "trace.unattributed_s": r.timed_s - rec.self_s(t),
        "trace.overhead_x": r.timed_s / ref.timed_s,
        "floor.raft.msgs_per_op": 0.0,
        "floor.storage.syncs_per_write": 0.0,
    }


def traced_round(wl: Any, seed: int) -> tuple[Any, Any]:
    import spans
    import workloads

    rec = spans.SpanRecorder()
    patches = spans.install(rec)
    try:
        r = wl.round(seed, workloads.Meter(), rec.set_phase)
    finally:
        patches.restore()
    return r, rec


def measure_traced(
    wl: Any, seed: int, seconds: float, size: str
) -> tuple[dict[str, float], Any, list[str], int, Any]:
    """Traced run: per-layer metrics of the median traced round."""
    import workloads

    wl.setup(seed)
    deadline = time.perf_counter() + seconds
    ref = wl.round(seed, workloads.Meter())
    problems = list(ref.problems)
    traced = _repeat(lambda: traced_round(wl, seed), deadline)
    problems += _determinism_problems([r for r, _ in traced], ref, "traced")
    per_round = [layer_metrics(r, rec, ref) for r, rec in traced]
    for m in per_round:
        if m["trace.unattributed_s"] < -1e-6:
            problems.append("layer self times exceed the traced wall (double counting)")
    # One whole round (the median by traced wall), so that its self times
    # and unattributed time add up to its wall exactly.
    per_round.sort(key=lambda m: m["trace.wall_s"])
    metrics = per_round[(len(per_round) - 1) // 2]
    if wl.name == "serving_n5":
        # No-replication floor: the same serving mix on one node.
        floor_wl = workloads.make("serving_n1", size)
        floor_wl.setup(seed)
        floor, floor_rec = traced_round(floor_wl, seed)
        problems += [f"serving_n1: {p}" for p in floor.problems]
        c = floor.counters
        metrics["floor.raft.msgs_per_op"] = c["transmits"] / max(c["ops_done"], 1)
        metrics["floor.storage.syncs_per_write"] = floor_rec.span(
            "timed", "storage.sync"
        ).count / max(c["writes"], 1)
    return metrics, ref, problems, len(traced), traced[0][1]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every workload for smoke tests",
    )
    args = parser.parse_args(argv)

    if argv is None and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Replace this process (no child is left behind) with one whose
        # string hashes are fixed.
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.make(args.workload, args.size)

    probe = Probe()
    cal_start = calibrate(probe)
    scaling: dict[str, float] = {}
    if args.trace:
        metrics, first, problems, n_rounds, rec = measure_traced(
            wl, args.seed, args.seconds, args.size
        )
        units = PER_LAYER_UNITS
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        rec.dump(spans_path)
    else:
        metrics, scaling, first, problems, n_rounds = measure(
            wl, args.seed, args.seconds, probe
        )
        units = END_TO_END_UNITS
        spans_path = None
    env = environment(cal_start, calibrate(probe))

    simulated = dict(first.sim)
    simulated["violations"] = len(first.problems)
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} rounds={n_rounds}")
    print(f"# inputs: {wl.schedule}")
    print(f"# env: {json.dumps(env)}")
    for name, value in metrics.items():
        print(f"{name:<34} {_fmt(value):>14} {units[name]}")
    for name, value in simulated.items():
        print(f"{name:<34} {_fmt(value):>14} {SIMULATED_UNITS[name]}  (simulated)")
    for p in problems:
        print(f"GATE FAILED: {p}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": n_rounds,
        "env": env,
        "scaling": scaling,
        "simulated": simulated,
        "counters": first.counters,
        "problems": problems,
        "spans": str(spans_path.relative_to(ROOT)) if spans_path else None,
    }
    print("report: " + json.dumps(report, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": int(first.attempted),
        "failed": int(first.failed),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
