"""Tests of the benchmark itself: ledger arithmetic, wrapper hygiene, smoke runs.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from cases import Gauge, Stopwatch, make_case  # noqa: E402
from ledger import (  # noqa: E402
    BOUNDARIES,
    SpanLog,
    Tracer,
    patch_sites,
    self_times,
    summarize,
)

WORKLOADS = ("cluster-flash", "service-bulk", "service-skewed", "bridges-road")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_subtracts_children_once():
    log = SpanLog()
    root = log.add("a", 0, 100)
    b = log.add("b", 10, 40, parent=root)
    log.add("c", 15, 25, parent=b)
    log.add("c", 30, 35, parent=b)
    log.add("b", 60, 90, parent=root)
    other = log.add("a", 200, 210)
    assert log.roots == [root, root, root, root, root, other]
    assert self_times(log, [(0, 300)]) == {
        "a": 100 - 30 - 30 + 10, "b": 30 - 15 + 30, "c": 15}
    assert log.top_level_ns([(0, 300)]) == 110
    assert log.top_level_ns([(0, 150)]) == 100
    # Spans under a call outside the timed regions are not counted.
    assert self_times(log, [(0, 150)])["a"] == 100 - 30 - 30
    assert self_times(log, [(150, 300)]) == {"a": 10}


def test_self_time_clips_overlapping_children():
    log = SpanLog()
    root = log.add("a", 0, 100)
    log.add("b", 10, 50, parent=root)
    log.add("b", 40, 120, parent=root)  # overlaps its sibling and its parent
    assert self_times(log, [(0, 100)])["a"] == 10


def test_summarize_counts_calls_and_rows():
    log = SpanLog()
    root = log.add("workloads.replay", 0, 10)
    log.add("primitives.sort_pairs", 1, 2, parent=root, rows=7)
    log.add("primitives.sort_pairs", 3, 4, parent=root, rows=5)
    fetch = "service.registry.IndexRegistry.fetch_by_key"
    log.add(fetch, 5, 6, parent=root, count=1)
    log.add(fetch, 6, 7, parent=root, count=0)
    # A call the harness makes after the timed region.
    log.add("primitives.sort_pairs", 20, 30, rows=100)
    log.add(fetch, 31, 32, count=1)
    ledger = summarize(log, [(0, 10)])
    assert ledger["primitives.sort_pairs"]["calls"] == 2
    assert ledger["primitives.sort_pairs"]["rows"] == 12
    assert ledger["primitives.sort_pairs"]["self_s"] == pytest.approx(2e-9)
    assert ledger[fetch]["calls"] == 2
    assert ledger[fetch]["misses"] == 1
    assert ledger["workloads.replay"]["self_s"] == pytest.approx(6e-9)
    assert ledger["graphs.bfs_gpu"]["calls"] == 0


@pytest.mark.parametrize("workload", ["cluster-flash", "bridges-road"])
def test_tracer_restores_every_patched_attribute(workload):
    with Tracer():
        pass  # imports every repro module before the snapshot
    before = [site for boundary in BOUNDARIES for site in patch_sites(boundary)]
    assert before
    case = make_case(workload)
    case.prepare(0, small=True)
    tracer = Tracer()
    with tracer:
        assert all(vars(holder)[attr] is not original
                   for holder, attr, original in before)
        case.run_pass(Stopwatch(Gauge()), record=False)
    after = [site for boundary in BOUNDARIES for site in patch_sites(boundary)]
    assert after == before
    assert all(vars(holder).get(attr) is original for holder, attr, original in before)
    assert len(tracer.log) > 0
    assert len(set(tracer.log.roots)) < len(tracer.log)


def test_ledger_leaves_out_the_harness_calls():
    """The pass reads every answer and latency for its digest after the
    replay; only the replay's own calls may reach the ledger."""
    case = make_case("service-bulk")
    case.prepare(0, small=True)
    tracer = Tracer()
    with tracer:
        result = case.run_pass(Stopwatch(Gauge()), record=False)
    latencies = summarize(tracer.log, result.regions)[
        "service.service.LCAQueryService.latencies"]
    # The replay reads the latencies of its single phase, then those of its
    # single dataset for the per-tenant tail.
    assert latencies["calls"] == 2
    assert latencies["rows"] == 2 * result.outputs["admitted"]
    everything = summarize(tracer.log, [(0, 1 << 62)])
    assert everything["service.service.LCAQueryService.latencies"]["calls"] == 3


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--small"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    result = _run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced(workload):
    result = _run(workload, 1)
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "bridges-road":
        assert metrics["primitives.sort_pairs.calls"] > 0
        assert metrics["graphs.CSRGraph.from_edgelist.calls"] == 1  # CK reuses it
        ck_calls = metrics["bridges.find_bridges_ck.calls"]
        assert ck_calls == metrics["graphs.bfs_gpu.calls"]
    else:
        assert metrics["workloads.replay.calls"] == 1
        assert metrics["service.registry.IndexRegistry.fetch_by_key.misses"] > 0
    # Time cannot go missing: the top-level spans fit inside the timed region.
    assert metrics["ledger.residual_s"] >= 0
    assert (BENCH / "out" / f"{workload}.trace.json").is_file()


def test_metric_names_fit_the_contract():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(len(name) <= 64 for name in names)


def test_unknown_workload_fails():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "nope", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
