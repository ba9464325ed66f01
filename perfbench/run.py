#!/usr/bin/env python3
"""Host wall-clock benchmark of the repro library: one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload cluster-flash --seed 1 --seconds 20 --trace 0

A run generates the workload's inputs from ``--seed`` (untimed), makes one
cold pass, then repeats measured passes until ``--seconds`` of measuring
have passed.  Peak memory is read next; then one last pass records its
answers, which are checked against an oracle.  Every pass must reproduce
the cold pass's deterministic outputs exactly.

``--trace 0`` reports the end-to-end metrics, measured with no wrapper
installed.  ``--trace 1`` alternates untraced passes with passes traced by
:class:`ledger.Tracer` and reports the per-layer ledger; the spans of the
last traced pass are written to ``perfbench/out/<workload>.trace.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
# The benchmark measures this checkout's library, never an installed copy.
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"no src/repro under {ROOT}: run from a checkout of the repository")
sys.path.insert(0, str(ROOT / "src"))

from cases import (  # noqa: E402
    NOMINAL_GAUGE_S,
    Case,
    Gauge,
    PassResult,
    Stopwatch,
    make_case,
    median,
)
from ledger import BOUNDARIES, Tracer, summarize, write_perfetto  # noqa: E402

#: Fewest measured passes of each kind, however long they take.
MIN_PASSES = 3
OUT_DIR = Path(__file__).resolve().parent / "out"


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _region_ns(result: PassResult) -> int:
    return sum(end - start for start, end in result.regions)


def _mismatches(reference: PassResult, result: PassResult) -> List[str]:
    return [f"{key}: {result.outputs.get(key)!r} != {value!r}"
            for key, value in reference.outputs.items()
            if result.outputs.get(key) != value]


class Run:
    """Passes of one workload, with their failure accounting."""

    def __init__(self, case: Case) -> None:
        self.case = case
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.cold: Optional[PassResult] = None
        self.cpus = sorted(os.sched_getaffinity(0))
        self.passes = 0
        self.gauge = Gauge()

    def run_pass(self, record: bool = False) -> PassResult:
        # The host slows one vCPU at a time, for up to tens of seconds; a
        # process left where the scheduler put it can spend a whole run on
        # the slow one.  Each pass moves to the next CPU instead, and the
        # stopwatch reads the gauge on that CPU around every timed call.
        os.sched_setaffinity(0, {self.cpus[self.passes % len(self.cpus)]})
        self.passes += 1
        result = self.case.run_pass(Stopwatch(self.gauge), record)
        # Serving targets hold reference cycles; free the pass's target now
        # rather than let it overlap the next pass's.
        gc.collect()
        self.attempted += result.attempted
        self.failed += result.failed
        if self.cold is None:
            self.cold = result
        else:
            diff = _mismatches(self.cold, result)
            if diff:
                # Its outputs are not the verified ones: none of it counts.
                self.failed += result.attempted - result.failed
                self.errors.append("pass differs from the first: " + "; ".join(diff))
        return result

    def verify(self) -> None:
        wrong, errors = self.case.verify()
        self.failed += wrong
        self.errors.extend(errors)


def end_to_end(passes: List[PassResult], peak_rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics: medians over the measured passes, with every
    time scaled to the nominal gauge speed (see :class:`Gauge`)."""
    return {
        "setup_s": median([p.setup.nominal for p in passes]),
        "throughput": median([p.items / p.work.nominal for p in passes]),
        "peak_rss_mb": peak_rss_mb,
    }


END_TO_END_UNITS = {"setup_s": "s", "throughput": "1/s", "peak_rss_mb": "MB"}


def per_layer(untraced: List[PassResult], traced: List[PassResult],
              ledgers: List[Dict[str, Dict[str, float]]],
              residuals: List[float]) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for boundary in BOUNDARIES:
        name = boundary.name
        metrics[f"{name}.self_s"] = median([led[name]["self_s"] for led in ledgers])
        metrics[f"{name}.calls"] = median([led[name]["calls"] for led in ledgers])
        if boundary.rows is not None:
            metrics[f"{name}.rows"] = median([led[name]["rows"] for led in ledgers])
        if boundary.result_count is not None:
            counter = boundary.result_count[0]
            metrics[f"{name}.{counter}"] = median(
                [led[name].get(counter, 0) for led in ledgers])
    lookups = metrics["service.cache.AnswerCache.lookup.rows"]
    hits = metrics["service.cache.AnswerCache.lookup.hits"]
    metrics["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    rows = calls = 0.0
    for cls in ("InlabelLCA", "SequentialInlabelLCA"):
        rows += metrics[f"lca.{cls}.query.rows"]
        calls += metrics[f"lca.{cls}.query.calls"]
    metrics["lca.query.rows_per_call"] = rows / calls if calls else 0.0
    metrics["ledger.residual_s"] = median(residuals)
    metrics["trace.overhead_ratio"] = (
        median([(p.setup + p.work).nominal for p in traced])
        / median([(p.setup + p.work).nominal for p in untraced]) - 1.0
    )
    return metrics


def per_layer_units(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("rows_per_call"):
        return "ratio"
    return "count"


def _time_left(start: float, seconds: float, untraced: List[PassResult]) -> bool:
    """Whether another round of passes fits in the measuring time."""
    elapsed = time.perf_counter() - start
    per_round = elapsed / len(untraced)
    return elapsed + per_round <= seconds


def _report(run: Run, untraced: List[PassResult], traced: List[PassResult],
            e2e: Dict[str, float], metrics: Dict[str, float],
            units: Dict[str, str], seed: int) -> None:
    """Print the run for a reader; the JSON line that follows is for tools."""
    cold = run.cold
    assert cold is not None
    print(f"{run.case.name}  seed {seed}: 1 cold pass + {len(untraced)} measured"
          f" + {len(traced)} traced + 1 checked")
    print(f"end to end (median pass; host time scaled to a {NOMINAL_GAUGE_S * 1e3:g} ms gauge):")
    rows = [(name, e2e[name], END_TO_END_UNITS[name]) for name in e2e]
    rows += run.case.headline(cold, untraced)
    for name, value, unit in rows:
        print(f"  {name:<16} {value:>14.6g} {unit}")
    print("deterministic outputs (every pass repeats them exactly):")
    for key, value in cold.outputs.items():
        print(f"  {key:<16} {value}")
    passes = [cold] + untraced
    per_pass = {"setup_s": [p.setup.raw for p in passes],
                "work_s": [p.work.raw for p in passes]}
    per_pass.update({part: [p.parts[part].raw for p in passes] for part in cold.parts})
    for label, values in per_pass.items():
        print(f"  {label + ' per pass':<21}" + " ".join(f"{v:.3f}" for v in values))
    print(f"  {'gauge_s per pass':<21}"
          + " ".join("/".join(f"{g * 1e3:.1f}" for g in p.gauges) for p in passes)
          + " (ms)")
    if traced:
        print("per-layer ledger (median over traced passes):")
        for name, value in metrics.items():
            print(f"  {name:<60} {value:.6g} {units[name]}")
    print(f"ops attempted {run.attempted}, failed {run.failed}")
    for error in run.errors:
        print(f"ERROR {run.case.name}: {error}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    case = make_case(args.workload)
    case.prepare(args.seed, args.small)
    run = Run(case)
    run.run_pass()

    untraced: List[PassResult] = []
    traced: List[PassResult] = []
    ledgers: List[Dict[str, Dict[str, float]]] = []
    residuals: List[float] = []
    tracer = Tracer() if args.trace else None
    log = None
    start = time.perf_counter()
    while len(untraced) < MIN_PASSES or _time_left(start, args.seconds, untraced):
        if tracer is None:
            untraced.append(run.run_pass())
            continue
        # Alternate which side goes first, so drift hits both alike.
        for side in ((0, 1) if len(untraced) % 2 == 0 else (1, 0)):
            if side == 0:
                untraced.append(run.run_pass())
                continue
            with tracer:
                result = run.run_pass()
            log = tracer.log
            tracer.log = type(log)()
            traced.append(result)
            ledgers.append(summarize(log, result.regions))
            residuals.append((_region_ns(result) - log.top_level_ns(result.regions)) / 1e9)

    # Read before the checked pass, so that neither the answers it records
    # nor the oracle count towards the program's peak memory.
    peak_rss_mb = _peak_rss_mb()
    run.run_pass(record=True)
    run.verify()
    os.sched_setaffinity(0, run.cpus)
    e2e = end_to_end(untraced, peak_rss_mb)
    if tracer is None:
        metrics, units = e2e, END_TO_END_UNITS
    else:
        metrics = per_layer(untraced, traced, ledgers, residuals)
        units = {name: per_layer_units(name) for name in metrics}
    _report(run, untraced, traced, e2e, metrics, units, args.seed)
    if log is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{case.name}.trace.json"
        write_perfetto(log, str(path), process=case.name)
        print(f"spans of the last traced pass: {path.relative_to(ROOT)}")

    correct = not run.errors
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
