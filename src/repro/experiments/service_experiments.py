"""Experiment runners for the query-serving subsystem (beyond the paper).

The paper's Figure 6 replays a pre-batched query stream; these experiments
answer the follow-up question a serving system poses: *given queries arriving
one at a time at some offered load, what throughput and tail latency does a
micro-batching policy actually deliver?*  Every run is fully simulated —
deterministic arrivals on the simulated clock, modeled device times — so rows
are reproducible bit for bit.

:func:`wallclock_serve_run` is the exception: it measures *host-side* wall
time — how fast this Python process pushes a query stream through
``submit → drain → results`` — which is what the columnar fast path of
:mod:`repro.service` optimizes.  Modeled device times are unaffected by the
admission mode; wall time is the whole point.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import Overloaded, ServiceError
from ..graphs.generators import random_attachment_tree
from ..graphs.trees import generate_random_queries
from ..lca import BinaryLiftingLCA
from ..service import (
    GPU_BATCH_BACKEND,
    ROUTER_POLICIES,
    BatchPolicy,
    ClusterConfig,
    ClusterService,
    CostModelDispatcher,
    LCAQueryService,
    ServiceConfig,
    estimate_batch_query_time,
)
from ..workloads import SCENARIOS, make_scenario, replay

__all__ = [
    "serve_query_stream",
    "offered_load_sweep",
    "wallclock_serve_run",
    "replica_scaling_sweep",
    "scenario_suite",
    "DEFAULT_POLICIES",
]

#: Default (max_batch_size, max_wait_s) policies swept by the benchmark:
#: pass-through, a latency-lean micro-batcher, and a throughput-lean one.
DEFAULT_POLICIES: Tuple[Tuple[int, float], ...] = (
    (1, 0.0),
    (256, 2e-4),
    (8192, 2e-3),
)


def serve_query_stream(parents: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                       arrivals_s: np.ndarray, policy: BatchPolicy, *,
                       check_answers: bool = False) -> Dict[str, object]:
    """Serve one timed query stream through a fresh service; return a stats row.

    When ``check_answers`` is set the service's answers are verified against
    the binary-lifting oracle (slower; meant for tests and spot checks).
    """
    service = LCAQueryService(
        config=ServiceConfig(
            max_batch_size=policy.max_batch_size, max_wait_s=policy.max_wait_s
        ),
        dispatcher=CostModelDispatcher(),
    )
    service.register_tree("stream", parents)
    tickets = service.submit_many("stream", xs, ys, at=arrivals_s)
    service.drain()
    if check_answers:
        expected = BinaryLiftingLCA(parents).query(xs, ys)
        if not np.array_equal(service.results(tickets), expected):
            raise AssertionError("service answers disagree with the oracle")
    stats = service.stats()
    backends = stats.backend_choices
    total_batches = max(stats.batches_flushed, 1)
    return {
        "policy": f"batch<={policy.max_batch_size}, wait<={policy.max_wait_s * 1e6:.0f}us",
        "max_batch_size": policy.max_batch_size,
        "max_wait_us": round(policy.max_wait_s * 1e6, 1),
        "queries": stats.queries_answered,
        "batches": stats.batches_flushed,
        "mean_batch": round(stats.mean_batch_size, 1),
        "gpu_batch_frac": round(backends.get("gpu", 0) / total_batches, 3),
        "throughput_qps": float(f"{stats.throughput_qps:.4g}"),
        "latency_p50_us": round(stats.latency_p50_s * 1e6, 2),
        "latency_p99_us": round(stats.latency_p99_s * 1e6, 2),
        "cache_hit_rate": round(stats.cache_hit_rate, 3),
    }


def wallclock_serve_run(parents: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                        arrivals_s: np.ndarray, policy: BatchPolicy, *,
                        mode: str = "columnar", warm: bool = True,
                        check_answers: bool = False,
                        observer: Optional[object] = None) -> Dict[str, object]:
    """Measure host-side wall-clock throughput of one admission mode.

    ``mode="columnar"`` admits the stream through the vectorized
    :meth:`~repro.service.LCAQueryService.submit_many` block path;
    ``mode="per-query"`` replays the pre-columnar behaviour — a Python loop
    of individual :meth:`~repro.service.LCAQueryService.submit` calls (which
    is exactly what ``submit_many`` used to do).  Both modes produce
    bit-identical tickets, batches, answers and modeled stats; only the wall
    time differs.  The timed region spans submit → drain → results.

    With ``warm`` (the default) the index cache is populated for every
    dispatcher backend *before* the timer starts, so the number reported is
    sustained steady-state throughput rather than one cold index build
    amortized over however long the stream happens to be.

    ``observer`` optionally attaches a
    :class:`~repro.obs.events.TraceRecorder` to the service *inside* the
    timed region's setup, so the overhead benchmark prices tracing with
    this exact harness.
    """
    if mode not in ("columnar", "per-query"):
        raise ServiceError(f"unknown admission mode {mode!r}")
    service = LCAQueryService(
        config=ServiceConfig(
            max_batch_size=policy.max_batch_size, max_wait_s=policy.max_wait_s
        ),
        dispatcher=CostModelDispatcher(),
    )
    if observer is not None:
        from ..obs.events import TraceRecorder
        if not isinstance(observer, TraceRecorder):
            raise ServiceError("observer must be a repro.obs TraceRecorder")
        service.attach_observer(observer)
    service.register_tree("stream", parents)
    if warm:
        service.warm("stream")
    start = time.perf_counter()
    if mode == "columnar":
        tickets = service.submit_many("stream", xs, ys, at=arrivals_s)
    else:
        tickets = np.empty(xs.size, dtype=np.int64)
        for i in range(xs.size):
            tickets[i] = service.submit("stream", int(xs[i]), int(ys[i]),
                                        at=float(arrivals_s[i]))
    service.drain()
    answers = service.results(tickets)
    elapsed = time.perf_counter() - start
    if check_answers:
        expected = BinaryLiftingLCA(parents).query(xs, ys)
        if not np.array_equal(answers, expected):
            raise AssertionError("service answers disagree with the oracle")
    stats = service.stats()
    return {
        "mode": mode,
        "queries": int(stats.queries_answered),
        "batches": int(stats.batches_flushed),
        "mean_batch": round(stats.mean_batch_size, 1),
        "wall_s": elapsed,
        "wall_qps": xs.size / elapsed if elapsed > 0 else float("inf"),
        "modeled_qps": float(f"{stats.throughput_qps:.4g}"),
    }


def replica_scaling_sweep(
    n: int = 65_536,
    q: int = 131_072,
    *,
    replica_counts: Sequence[int] = (1, 2, 4, 8),
    policies: Sequence[str] = ROUTER_POLICIES,
    rate_qps: Optional[float] = None,
    max_batch: int = 256,
    max_wait_s: float = 2e-4,
    chunk: int = 8192,
    max_pending: Optional[int] = None,
    seed: int = 0,
    check_answers: bool = False,
) -> List[Dict[str, object]]:
    """Sweep replica count × routing policy on one hot, fully replicated tree.

    The cluster-scaling question the paper's Fig. 6 poses at the next level
    up: once one worker's batch-size-dependent backends saturate, does adding
    replicas keep absorbing offered load?  Each configuration serves the same
    ``q``-query stream, warmed, submitted in ``chunk``-sized column blocks
    (so routing and admission observe mid-stream queue depths), at an offered
    rate that deeply saturates even the largest cluster — by default twice
    the modeled GPU capacity of ``max(replica_counts)`` workers, derived from
    the same cost model the dispatcher prices with.

    Expected shape: the load-spreading policies (round-robin,
    least-outstanding) scale delivered throughput with the replica count,
    while consistent-hash pins the hot dataset to one copy and stays flat —
    the affinity-versus-scale-out trade-off in one table.

    ``max_pending`` bounds the cluster queue: chunks beyond the bound are
    shed (the raised ``Overloaded`` is absorbed) and the rows' ``shed_rate``
    column reports the admission-control drop rate.  Unbounded by default,
    so ``shed_rate`` is 0.0 unless a bound is passed; answer verification is
    skipped for configurations that shed (the rejected queries have no
    tickets to resolve).
    """
    parents = random_attachment_tree(n, seed=seed)
    xs, ys = generate_random_queries(n, q, seed=seed + 1)
    expected = BinaryLiftingLCA(parents).query(xs, ys) if check_answers else None
    policy = BatchPolicy(max_batch_size=int(max_batch), max_wait_s=float(max_wait_s))
    if rate_qps is None:
        per_replica_cap = max_batch / estimate_batch_query_time(
            GPU_BATCH_BACKEND, max_batch
        )
        rate_qps = 2.0 * max(replica_counts) * per_replica_cap
    arrivals = np.arange(q, dtype=np.float64) / float(rate_qps)
    rows: List[Dict[str, object]] = []
    for policy_name in policies:
        for n_replicas in replica_counts:
            cluster = ClusterService(config=ClusterConfig(
                n_replicas=int(n_replicas),
                max_batch_size=policy.max_batch_size,
                max_wait_s=policy.max_wait_s,
                router=policy_name,
                max_pending=max_pending,
            ))
            cluster.register_tree("hot", parents, replicas=int(n_replicas))
            cluster.warm("hot")
            tickets = []
            for i in range(0, q, chunk):
                try:
                    tickets.append(cluster.submit_many(
                        "hot", xs[i:i + chunk], ys[i:i + chunk],
                        at=arrivals[i:i + chunk],
                    ))
                except Overloaded:
                    # Admission control shed (part of) this chunk; the drop
                    # is accounted in the cluster's shed-rate statistics.
                    pass
            cluster.drain()
            stats = cluster.stats()
            if expected is not None and stats.queries_shed == 0:
                answers = cluster.results(np.concatenate(tickets))
                if not np.array_equal(answers, expected):
                    raise AssertionError(
                        "cluster answers disagree with the oracle "
                        f"({policy_name}, {n_replicas} replicas)"
                    )
            rows.append({
                "policy": policy_name,
                "replicas": int(n_replicas),
                "n": n,
                "queries": stats.queries_answered,
                "offered_qps": float(f"{rate_qps:.4g}"),
                "throughput_qps": float(f"{stats.throughput_qps:.6g}"),
                "latency_p50_us": round(stats.latency_p50_s * 1e6, 2),
                "latency_p99_us": round(stats.latency_p99_s * 1e6, 2),
                "load_imbalance": round(stats.load_imbalance, 3),
                "shed_rate": round(stats.shed_rate, 4),
                "cache_hit_rate": round(stats.cache_hit_rate, 3),
            })
    return rows


def scenario_suite(
    scenario_names: Optional[Sequence[str]] = None,
    *,
    policies: Sequence[str] = ROUTER_POLICIES,
    n_replicas: int = 4,
    max_pending: Optional[int] = 8192,
    max_batch: int = 256,
    max_wait_s: float = 2e-4,
    admission_window_s: float = 5e-3,
    scale: float = 1.0,
    seed: int = 0,
    check_answers: bool = False,
    dedup: bool = False,
    answer_cache_bytes: Optional[int] = None,
) -> List[Dict[str, object]]:
    """Sweep named scenarios × routing policies on a bounded replica cluster.

    The serving-layer question the workload package exists to answer: *how
    does the same cluster behave under every traffic shape we can imagine?*
    Each (scenario, policy) cell builds a fresh ``n_replicas``-replica
    cluster with a ``max_pending`` admission bound, replays the named
    scenario through :func:`repro.workloads.replay`, and reports the
    scenario totals — delivered throughput, p50/p99 modeled latency, shed
    rate and load imbalance — plus the per-phase peak shed rate (the
    flash-crowd signature).

    Expected shape: ``steady``/``diurnal`` never shed under any policy;
    ``flash-crowd`` sheds heavily during its flash phase no matter how the
    copies are balanced (admission control, not routing, is the binding
    constraint); the skewed scenarios separate the load-spreading policies
    (imbalance ≈ 1) from ``consistent-hash`` (imbalance grows with the
    number of pinned-hot datasets per replica).
    """
    names = list(scenario_names) if scenario_names is not None else sorted(SCENARIOS)
    policy = BatchPolicy(max_batch_size=int(max_batch), max_wait_s=float(max_wait_s))
    rows: List[Dict[str, object]] = []
    for policy_name in policies:
        for name in names:
            cluster = ClusterService(config=ClusterConfig(
                n_replicas=int(n_replicas),
                max_batch_size=policy.max_batch_size,
                max_wait_s=policy.max_wait_s,
                router=policy_name,
                max_pending=max_pending,
                dedup=dedup,
                answer_cache_bytes=answer_cache_bytes,
            ))
            report = replay(
                cluster,
                make_scenario(name, scale=scale, seed=seed),
                admission_window_s=admission_window_s,
                check_answers=check_answers,
            )
            peak_shed = max(p.shed_rate for p in report.phases)
            rows.append({
                "scenario": name,
                "policy": policy_name,
                "replicas": int(n_replicas),
                "phases": len(report.phases),
                "offered": report.queries_offered,
                "admitted": report.queries_admitted,
                "shed_rate": round(report.shed_rate, 4),
                "peak_phase_shed_rate": round(peak_shed, 4),
                "throughput_qps": float(f"{report.throughput_qps:.6g}"),
                "latency_p50_us": round(report.latency_p50_s * 1e6, 2),
                "latency_p99_us": round(report.latency_p99_s * 1e6, 2),
                "load_imbalance": round(report.load_imbalance, 3),
                "answer_cache_hit_rate": round(report.answer_cache_hit_rate, 4),
                "dedup_factor": round(report.dedup_factor, 3),
            })
    return rows


def offered_load_sweep(n: int = 65_536, q: int = 16_384, *,
                       rates_qps: Sequence[float] = (1e4, 1e5, 1e6, 1e7),
                       policies: Sequence[Tuple[int, float]] = DEFAULT_POLICIES,
                       seed: int = 0,
                       check_answers: bool = False) -> List[Dict[str, object]]:
    """Sweep offered load × batching policy on one shallow tree.

    For every combination a fresh service serves ``q`` queries arriving at a
    uniform rate; rows report delivered throughput, p50/p99 modeled latency,
    realized mean batch size and the fraction of batches the dispatcher sent
    to the GPU.  The expected shape: at low load every policy degenerates to
    small CPU-served batches, while at high load the micro-batching policies
    form device-sized batches and the GPU sustains the offered rate.
    """
    parents = random_attachment_tree(n, seed=seed)
    xs, ys = generate_random_queries(n, q, seed=seed + 1)
    rows: List[Dict[str, object]] = []
    for rate in rates_qps:
        arrivals = np.arange(q, dtype=np.float64) / float(rate)
        for max_batch, max_wait in policies:
            policy = BatchPolicy(max_batch_size=int(max_batch),
                                 max_wait_s=float(max_wait))
            row = serve_query_stream(parents, xs, ys, arrivals, policy,
                                     check_answers=check_answers)
            row["offered_qps"] = float(f"{rate:.4g}")
            row["n"] = n
            rows.append(row)
    return rows
