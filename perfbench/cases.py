"""The benchmark's four workloads: inputs, one timed pass, and answer checks.

Every workload is a :class:`Case`.  :meth:`Case.prepare` generates the inputs
from the seed (never timed); :meth:`Case.run_pass` sets the program up and
runs it once, timing set-up and work separately with a :class:`Stopwatch`;
:meth:`Case.verify` checks the answers of the pass run with ``record=True``
against an oracle.  Passes of one run use the same inputs, so every
deterministic output of a pass must repeat exactly.

The serving workloads drive :func:`repro.workloads.replay` on a fresh target
per pass.  Their work time is the replay's own host-time account of submit,
drain and latencies, which excludes generating the query trace.  The bridge
workload runs three bridge algorithms on one road-like graph; its set-up is
the CSR adjacency, which CK takes prebuilt.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

import repro.bridges as bridges
import repro.workloads as workloads
from repro.errors import Overloaded
from repro.graphs import largest_connected_component
from repro.graphs.csr import CSRGraph
from repro.graphs.generators import random_attachment_tree
from repro.graphs.generators.road import road_graph_with_target_size
from repro.lca import BinaryLiftingLCA
from repro.service import BatchPolicy, ClusterService, LCAQueryService
from repro.workloads import (
    DeterministicArrivals,
    Phase,
    Scenario,
    TrafficSource,
    UniformKeys,
    make_scenario,
)


#: Seconds :class:`Gauge` takes on an unloaded vCPU of the 2-vCPU VM the
#: benchmark was tuned on.  Host times are reported scaled to it.
NOMINAL_GAUGE_S = 0.0135


class Gauge:
    """Fixed CPU work that times how fast the CPU running a pass is now.

    It allocates nothing and touches 128 KiB and a 256-key dict, so the
    program's memory cannot slow it; only the machine can.  It mixes what
    the workloads spend their time on: NumPy gathers and sorts, NumPy calls
    on tiny arrays, and a Python loop over a dict.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.values = rng.integers(0, 1 << 16, 1 << 14)
        self.index = rng.permutation(1 << 14)
        self.out = np.empty_like(self.values)
        self.tiny = np.arange(16)

    def _once(self) -> float:
        start = time.perf_counter()
        for _ in range(40):
            np.take(self.values, self.index, out=self.out)
            self.out.sort()
        counts: Dict[int, int] = {}
        for i in range(60_000):
            counts[i & 255] = counts.get(i & 255, 0) + i
        for _ in range(4_000):
            self.tiny.sum()
        return time.perf_counter() - start

    def seconds(self) -> float:
        return min(self._once() for _ in range(3))


@dataclass(frozen=True)
class Seconds:
    """Host seconds, raw and scaled to a CPU on which the gauge takes
    :data:`NOMINAL_GAUGE_S`."""

    raw: float
    nominal: float

    def __add__(self, other: "Seconds") -> "Seconds":
        return Seconds(self.raw + other.raw, self.nominal + other.nominal)


@dataclass
class _Timed:
    value: Any
    region: Tuple[int, int]
    #: Mean of the gauge readings just before and just after the call.
    gauge_s: float

    def scaled(self, raw: float) -> Seconds:
        """``raw`` seconds spent inside this call, with their nominal value."""
        return Seconds(raw, raw * NOMINAL_GAUGE_S / self.gauge_s)

    @property
    def seconds(self) -> Seconds:
        return self.scaled((self.region[1] - self.region[0]) / 1e9)


class Stopwatch:
    """Times the calls of one pass, reading the gauge between them.

    The host's vCPUs change speed on their own, often within a second, so
    each timed call is scaled by the readings taken right around it.
    """

    def __init__(self, gauge: Gauge) -> None:
        self._gauge = gauge
        self.readings = [gauge.seconds()]

    def __call__(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> _Timed:
        start = time.perf_counter_ns()
        value = fn(*args, **kwargs)
        region = (start, time.perf_counter_ns())
        self.readings.append(self._gauge.seconds())
        return _Timed(value, region, (self.readings[-2] + self.readings[-1]) / 2)


@dataclass
class PassResult:
    """What one pass measured and produced."""

    setup: Seconds
    work: Seconds
    items: int
    attempted: int
    failed: int
    #: Outputs that must repeat exactly between passes of one run.
    outputs: Dict[str, Any]
    #: ``perf_counter_ns`` intervals of everything the pass timed, set-up
    #: included; the traced run checks its span ledger against them.
    regions: List[Tuple[int, int]]
    #: Gauge readings of the pass, in the order they were taken.
    gauges: List[float]
    #: Host seconds of named parts of the work.
    parts: Dict[str, Seconds] = field(default_factory=dict)


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:16]


class Case:
    """One workload.  Subclasses fill in the three steps."""

    name = ""

    def prepare(self, seed: int, small: bool) -> None:
        raise NotImplementedError

    def run_pass(self, timer: Stopwatch, record: bool) -> PassResult:
        raise NotImplementedError

    def verify(self) -> Tuple[int, List[str]]:
        """Wrong operations, and what was wrong, in the ``record=True`` pass."""
        raise NotImplementedError

    def headline(self, cold: PassResult, passes: List[PassResult]
                 ) -> List[Tuple[str, float, str]]:
        """The workload's own end-to-end figures, as (name, value, unit)."""
        raise NotImplementedError


class ServingCase(Case):
    """A scenario replayed on a fresh serving target each pass."""

    def __init__(self, name: str,
                 scenario: Callable[[int, bool], Scenario],
                 target: Callable[[], Any]) -> None:
        self.name = name
        self._scenario = scenario
        self._target = target

    def prepare(self, seed: int, small: bool) -> None:
        self.scenario = self._scenario(seed, small)
        self.trees = {
            s.dataset: random_attachment_tree(s.nodes, seed=s.tree_seed)
            for s in self.scenario.sources
        }
        self._recorded: List[Tuple[str, np.ndarray, np.ndarray, int]] = []
        self._answers = np.empty(0, dtype=np.int64)

    def _setup(self, target: Any) -> None:
        """Register and warm every source, as an operator does before traffic."""
        for dataset, parents in self.trees.items():
            if isinstance(target, ClusterService):
                target.register_tree(dataset, parents, replicas=0)
                target.warm(dataset)
            else:
                target.register_tree(dataset, parents)
                for backend in target.dispatcher.backends:
                    target.registry.fetch(dataset, "lca", backend.spec,
                                          sequential=backend.sequential)

    def _record_submissions(self, target: Any) -> None:
        """Shadow ``target.submit_many`` to keep every admitted (x, y) pair."""
        submit = target.submit_many
        recorded = self._recorded

        def submit_many(dataset: str, xs: np.ndarray, ys: np.ndarray,
                        **kwargs: Any) -> np.ndarray:
            try:
                block = submit(dataset, xs, ys, **kwargs)
            except Overloaded as exc:
                recorded.append((dataset, xs, ys, int(exc.admitted)))
                raise
            recorded.append((dataset, xs, ys, int(block.size)))
            return block

        target.submit_many = submit_many

    def run_pass(self, timer: Stopwatch, record: bool) -> PassResult:
        target = self._target()
        setup = timer(self._setup, target)
        if record:
            self._record_submissions(target)
        # Looked up at call time, so a traced pass times the wrapper.
        served = timer(workloads.replay, target, self.scenario, warm=False)
        report = served.value
        tickets = np.arange(target.tickets_issued, dtype=np.int64)
        answers = target.results(tickets)
        latencies = target.latencies(tickets)
        if record:
            self._answers = answers
        replicas = getattr(report.stats, "replicas", (report.stats,))
        outputs = {
            "offered": report.queries_offered,
            "admitted": report.queries_admitted,
            "shed": report.queries_shed,
            "modeled_p50_us": report.latency_p50_s * 1e6,
            "modeled_p99_us": report.latency_p99_s * 1e6,
            "hit_rate": report.answer_cache_hit_rate,
            "dedup_factor": report.dedup_factor,
            "batches": sum(r.batches_flushed for r in replicas),
            "kernel_calls": sum(sum(r.backend_choices.values()) for r in replicas),
            "kernel_queries": sum(r.kernel_queries for r in replicas),
            "answers": _digest(answers, latencies),
        }
        return PassResult(
            setup=setup.seconds,
            work=served.scaled(report.serve_wall_s),
            items=report.queries_admitted,
            attempted=report.queries_offered,
            failed=report.queries_shed,
            outputs=outputs,
            regions=[setup.region, served.region],
            gauges=timer.readings,
        )

    def verify(self) -> Tuple[int, List[str]]:
        oracles = {name: BinaryLiftingLCA(parents)
                   for name, parents in self.trees.items()}
        # Tickets are issued consecutively to admitted queries, so the
        # admitted prefixes, in submission order, line up with the answers.
        expected = [oracles[dataset].query(xs[:admitted], ys[:admitted])
                    for dataset, xs, ys, admitted in self._recorded if admitted]
        truth = np.concatenate(expected) if expected else np.empty(0, np.int64)
        if truth.size != self._answers.size:
            return truth.size, [f"{truth.size} admitted queries recorded, "
                                f"{self._answers.size} tickets issued"]
        wrong = int(np.count_nonzero(truth != self._answers))
        return wrong, [f"{wrong} wrong answers"] if wrong else []


    def headline(self, cold: PassResult, passes: List[PassResult]
                 ) -> List[Tuple[str, float, str]]:
        out = cold.outputs
        return [
            ("serve_qps", median([p.items / p.work.nominal for p in passes]), "q/s"),
            ("shed_rate", out["shed"] / out["offered"], "ratio"),
            ("modeled_p50_us", out["modeled_p50_us"], "us (modeled)"),
            ("modeled_p99_us", out["modeled_p99_us"], "us (modeled)"),
        ]


class BridgesCase(Case):
    """Tarjan–Vishkin, hybrid and CK bridge finding on one road-like graph."""

    name = "bridges-road"
    #: Short name -> bridge function in :mod:`repro.bridges`.
    algorithms = {"tv": "find_bridges_tarjan_vishkin",
                  "hybrid": "find_bridges_hybrid",
                  "ck": "find_bridges_ck"}

    def prepare(self, seed: int, small: bool) -> None:
        graph, _ = road_graph_with_target_size(
            2_000 if small else 110_000, removal_fraction=0.45,
            subdivide_fraction=0.10, deadend_fraction=0.5, seed=seed,
        )
        self.graph, _ = largest_connected_component(graph)
        self._masks: List[np.ndarray] = []

    def run_pass(self, timer: Stopwatch, record: bool) -> PassResult:
        # Set-up is the CSR adjacency, which CK takes prebuilt.
        setup = timer(CSRGraph.from_edgelist, self.graph)
        runs = [
            # Looked up at call time, so a traced pass times the wrapper.
            timer(getattr(bridges, algorithm), self.graph,
                   **({"csr": setup.value} if short == "ck" else {}))
            for short, algorithm in self.algorithms.items()
        ]
        parts = {f"{short}_s": run.seconds for short, run in zip(self.algorithms, runs)}
        masks = [run.value.bridge_mask for run in runs]
        if record:
            self._masks = masks
        outputs: Dict[str, Any] = {}
        for short, mask in zip(self.algorithms, masks):
            outputs[f"{short}_bridges"] = int(np.count_nonzero(mask))
            outputs[f"{short}_mask"] = _digest(mask)
        return PassResult(
            setup=setup.seconds,
            work=sum(parts.values(), Seconds(0.0, 0.0)),
            items=len(masks) * self.graph.num_edges,
            attempted=len(masks),
            failed=0,
            outputs=outputs,
            regions=[setup.region] + [run.region for run in runs],
            gauges=timer.readings,
            parts=parts,
        )

    def verify(self) -> Tuple[int, List[str]]:
        truth = bridges.find_bridges_dfs(self.graph).bridge_mask
        errors = [f"{algorithm} differs from find_bridges_dfs"
                  for algorithm, mask in zip(self.algorithms.values(), self._masks)
                  if not np.array_equal(mask, truth)]
        return len(errors), errors

    def headline(self, cold: PassResult, passes: List[PassResult]
                 ) -> List[Tuple[str, float, str]]:
        return [(part, median([p.parts[part].nominal for p in passes]), "s")
                for part in cold.parts]


def _cluster_flash(seed: int, small: bool) -> Scenario:
    return make_scenario("flash-crowd", scale=0.1 if small else 2.0, seed=seed,
                         nodes_scale=0.25 if small else 4.0)


def _service_bulk(seed: int, small: bool) -> Scenario:
    queries = 20_000 if small else 2_000_000
    rate = 5e6
    return Scenario(
        name="service-bulk",
        description="uniform pairs at a deterministic 5M q/s on one tree",
        sources=(TrafficSource("bulk", nodes=4_096 if small else 1 << 18,
                               keys=UniformKeys(), tree_seed=seed),),
        phases=(Phase("steady", DeterministicArrivals(rate), queries / rate),),
        seed=seed,
    )


def _service_skewed(seed: int, small: bool) -> Scenario:
    return make_scenario("skewed-hotspot", scale=0.2 if small else 16.0, seed=seed,
                         nodes_scale=0.125 if small else 8.0)


CASES: Dict[str, Callable[[], Case]] = {
    # The queue bound is checked on every admission block but is far above
    # what the flash leaves pending, so no query is shed: a shed counts as a
    # failed operation, and the benchmark's workloads must not fail any.
    "cluster-flash": lambda: ServingCase(
        "cluster-flash",
        _cluster_flash,
        lambda: ClusterService(
            4, policy=BatchPolicy(max_batch_size=256, max_wait_s=200e-6),
            router="least-outstanding", max_pending=1 << 20),
    ),
    "service-bulk": lambda: ServingCase(
        "service-bulk",
        _service_bulk,
        lambda: LCAQueryService(
            policy=BatchPolicy(max_batch_size=4096, max_wait_s=200e-6)),
    ),
    "service-skewed": lambda: ServingCase(
        "service-skewed",
        _service_skewed,
        lambda: LCAQueryService(
            policy=BatchPolicy(max_batch_size=1024, max_wait_s=200e-6),
            answer_cache_bytes=16 << 20),
    ),
    "bridges-road": BridgesCase,
}


def make_case(name: str) -> Case:
    try:
        return CASES[name]()
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; known: {sorted(CASES)}") from None
