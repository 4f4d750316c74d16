"""Outside-in layer attribution: span wrappers around each layer's public calls.

The traced run wraps public functions at class level (or at the module
name the caller looks up) *before* the cluster is built, so every instance
created afterwards calls through a wrapper.  Each wrapper times the call and
records a span ``(name, start, end, parent)``.  A span's self time is its
duration minus the time its child spans cover, so summing self times over
all spans never counts a nanosecond twice.

Spans are aggregated in memory per ``(phase, name)`` — count, total and
self time — plus a per ``(parent, name)`` edge count; the first
:data:`RAW_SPAN_CAP` raw spans are kept verbatim for inspection.  Keeping
every raw span of a 101-node run would cost hundreds of megabytes.

The wrappers only read the clock and a few attributes: they schedule no
events and draw from no random stream, so a traced run executes exactly
the events of the untraced run (``run.py`` checks this).
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path
from typing import Any, Callable

#: Raw spans kept verbatim (the aggregates cover every span).
RAW_SPAN_CAP = 20_000


@dataclasses.dataclass(slots=True)
class SpanStats:
    count: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class SpanRecorder:
    """In-memory span sink shared by every installed wrapper."""

    def __init__(self) -> None:
        self.phase = "setup"
        #: phase -> span name -> stats
        self.stats: dict[str, dict[str, SpanStats]] = {}
        #: (phase, parent name, child name) -> count
        self.edges: dict[tuple[str, str, str], int] = {}
        #: (name, start, end, parent) of the first RAW_SPAN_CAP spans
        self.raw: list[tuple[str, float, float, str]] = []
        #: open spans: [name, child time so far]
        self._stack: list[list[Any]] = []
        #: extra counters wrappers bump (e.g. useful retunes)
        self.counters: dict[str, int] = {}

    def set_phase(self, phase: str) -> None:
        if self._stack:
            raise RuntimeError(f"phase change to {phase!r} inside an open span")
        self.phase = phase

    def bump(self, counter: str, by: int = 1) -> None:
        key = f"{self.phase}:{counter}"
        self.counters[key] = self.counters.get(key, 0) + by

    def counter(self, phase: str, counter: str) -> int:
        return self.counters.get(f"{phase}:{counter}", 0)

    def span(self, phase: str, name: str) -> SpanStats:
        return self.stats.get(phase, {}).get(name, SpanStats())

    def self_s(self, phase: str) -> float:
        return sum(s.self_s for s in self.stats.get(phase, {}).values())

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Return ``fn`` wrapped in a span called ``name``."""
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self._close(name, t0, t1, frame[1])

        return wrapper

    def _close(self, name: str, t0: float, t1: float, child_s: float) -> None:
        dur = t1 - t0
        by_name = self.stats.setdefault(self.phase, {})
        st = by_name.get(name)
        if st is None:
            st = by_name[name] = SpanStats()
        st.count += 1
        st.total_s += dur
        st.self_s += dur - child_s
        stack = self._stack
        parent = stack[-1][0] if stack else ""
        if stack:
            stack[-1][1] += dur
        key = (self.phase, parent, name)
        self.edges[key] = self.edges.get(key, 0) + 1
        if len(self.raw) < RAW_SPAN_CAP:
            self.raw.append((name, t0, t1, parent))

    def dump(self, path: Path) -> None:
        """Write the aggregates, edges and raw spans as JSON."""
        payload = {
            "stats": {
                phase: {n: dataclasses.asdict(s) for n, s in sorted(by.items())}
                for phase, by in self.stats.items()
            },
            "edges": [
                {"phase": p, "parent": a, "name": b, "count": c}
                for (p, a, b), c in sorted(self.edges.items())
            ],
            "counters": dict(sorted(self.counters.items())),
            "raw_spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.raw
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1))


class Patches:
    """Attribute replacements that :meth:`restore` undoes exactly."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


#: (module path, class name or None, attribute, span name) of every
#: plainly wrapped public function, grouped by layer.
PLAIN_SPANS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.sim.loop", "EventLoop", "run_until", "sim.run"),
    ("repro.sim.loop", "EventLoop", "step", "sim.run"),
    ("repro.sim.tracing", "TraceLog", "record", "sim.trace_record"),
    ("repro.net.network", "Network", "transmit", "net.transmit"),
    ("repro.raft.node", "RaftNode", "deliver", "raft.deliver"),
    ("repro.raft.client", "RaftClient", "submit", "raft.client"),
    ("repro.raft.client", "RaftClient", "deliver", "raft.client"),
    ("repro.dynatune.policy", "DynatunePolicy", "heartbeat_meta", "dynatune.leader_side"),
    (
        "repro.dynatune.policy",
        "DynatunePolicy",
        "on_heartbeat_response",
        "dynatune.leader_side",
    ),
    ("repro.storage.simdisk", "SimDiskStorage", "wal_append", "storage.wal_append"),
    ("repro.storage.simdisk", "SimDiskStorage", "recover", "storage.recover"),
    ("repro.scenarios.safety", "SafetyChecker", "sample", "scenarios.safety"),
    ("repro.scenarios.safety", "SafetyChecker", "check_now", "scenarios.safety"),
    ("repro.scenarios.safety", "SafetyChecker", "verify", "scenarios.safety"),
    ("repro.scenarios.liveness", "LivenessChecker", "sample", "scenarios.liveness"),
    ("repro.scenarios.liveness", "LivenessChecker", "verify", "scenarios.liveness"),
    ("repro.fuzz.generator", "ScenarioGen", "generate", "fuzz.generate"),
    # Module-level names, patched where their callers look them up.
    ("repro.fuzz.oracle", None, "check_history", "fuzz.lin_check"),
    ("repro.fuzz.oracle", None, "build_cluster", "cluster.build"),
    ("repro.cluster.builder", None, "build_cluster", "cluster.build"),
    (
        "repro.cluster.measurements",
        None,
        "extract_failure_episodes",
        "cluster.extract",
    ),
)


def install(rec: SpanRecorder) -> Patches:
    """Wrap every layer boundary; returns the patches to restore."""
    import importlib

    from repro.dynatune.policy import DynatunePolicy
    from repro.scenarios.steps import STEP_TYPES
    from repro.sim.timers import TimerService
    from repro.storage.simdisk import SimDiskStorage

    patches = Patches()
    for module, cls_name, attr, span in PLAIN_SPANS:
        owner: Any = importlib.import_module(module)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        patches.set(owner, attr, rec.wrap(span, owner.__dict__[attr]))

    for cls in STEP_TYPES.values():
        patches.set(cls, "apply", rec.wrap("scenarios.step_apply", cls.__dict__["apply"]))

    # Timer callbacks are bound when the timer is created, so the wrapper
    # sits on the factory and wraps the callback it is handed.
    timer = TimerService.__dict__["timer"]

    def traced_timer(self: Any, name: str, callback: Callable[[], Any]) -> Any:
        return timer(self, name, rec.wrap("raft.timer", callback))

    patches.set(TimerService, "timer", traced_timer)

    # A retune is useful when the tuned Et or h differs after the call.
    # The property reads sit outside the span, in the caller's self time.
    on_heartbeat = rec.wrap("dynatune.on_heartbeat", DynatunePolicy.__dict__["on_heartbeat"])

    def traced_on_heartbeat(self: Any, *args: Any, **kwargs: Any) -> Any:
        before = (self.tuned_et_ms, self.tuned_h_ms)
        result = on_heartbeat(self, *args, **kwargs)
        if (self.tuned_et_ms, self.tuned_h_ms) != before:
            rec.bump("retune_useful")
        return result

    patches.set(DynatunePolicy, "on_heartbeat", traced_on_heartbeat)

    # Only the simulated disk does storage work; the ideal backend's
    # barriers are no-ops and stay unwrapped, so storage reads zero there.
    sync = rec.wrap("storage.sync", SimDiskStorage.__dict__["sync"])

    def traced_sync(self: Any) -> bool:
        ok = sync(self)
        if not ok:
            rec.bump("sync_failed")
        return ok

    patches.set(SimDiskStorage, "sync", traced_sync)
    return patches
