"""The benchmark's own tests, at tiny sizes (seconds, not minutes).

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _key(r: workloads.Round) -> str:
    return json.dumps([r.sim, r.counters], sort_keys=True)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_round_passes_its_gates_and_repeats_exactly(name: str) -> None:
    wl = workloads.make(name, "tiny")
    first = wl.round(3, workloads.Meter())
    assert first.problems == []
    assert first.sim_s > 0 and first.chunks and first.attempted >= 1
    assert set(first.sim) <= set(run.SIMULATED_UNITS)
    assert _key(wl.round(3, workloads.Meter(run.Probe(), run.CAL_REF_S))) == _key(first)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_round_reproduces_the_untraced_round(name: str) -> None:
    wl = workloads.make(name, "tiny")
    ref = wl.round(5, workloads.Meter())
    traced, rec = run.traced_round(wl, 5)
    assert _key(traced) == _key(ref)
    m = run.layer_metrics(traced, rec, ref)
    assert m["trace.unattributed_s"] >= 0.0
    assert m["sim.events_per_sim_s"] > 0 and m["net.transmits_per_sim_s"] > 0


def test_tracing_is_removed_after_a_traced_round() -> None:
    from repro.net.network import Network
    from repro.sim.timers import TimerService

    before = (Network.__dict__["transmit"], TimerService.__dict__["timer"])
    run.traced_round(workloads.make("steady_n101", "tiny"), 1)
    assert (Network.__dict__["transmit"], TimerService.__dict__["timer"]) == before


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_another_seed_changes_the_generated_inputs(name: str) -> None:
    wl = workloads.make(name, "tiny")
    assert wl.inputs(1) == wl.inputs(1)
    assert wl.inputs(1) != wl.inputs(2)


def test_metric_names_and_units_match_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == ["perfbench"]


def test_span_self_times_exclude_children() -> None:
    rec = spans.SpanRecorder()
    inner = rec.wrap("inner", lambda: sum(range(20_000)))
    outer = rec.wrap("outer", lambda: inner() + inner())
    outer()
    o, i = rec.span("setup", "outer"), rec.span("setup", "inner")
    assert (o.count, i.count) == (1, 2)
    assert o.self_s == pytest.approx(o.total_s - i.total_s)
    assert rec.self_s("setup") == pytest.approx(o.total_s)


def _cli(cwd: Path, *args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_every_metric_on_the_last_line(trace: str) -> None:
    p = _cli(ROOT, "--workload", "serving_n5", "--seed", "2", "--seconds", "0.1",
             "--trace", trace, "--size", "tiny")
    assert p.returncode == 0, p.stdout + p.stderr
    last = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units


def test_cli_fails_without_the_simulator_sources(tmp_path: Path) -> None:
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    p = _cli(tmp_path, "--workload", "steady_n101", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert p.returncode != 0
    assert "correct" not in p.stdout
