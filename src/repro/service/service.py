"""The query service: registry + micro-batch scheduler + dispatcher, wired up.

:class:`LCAQueryService` is the subsystem's front door.  Callers register
named trees, submit LCA queries (one at a time or as column blocks) with
arrival timestamps, and read back answers by ticket; internally each dataset
gets a :class:`~repro.service.scheduler.MicroBatchScheduler` (all sharing one
simulated clock), every flushed batch is priced by the
:class:`~repro.service.dispatch.CostModelDispatcher` and executed on the
chosen backend's algorithm fetched from — or lazily built into — the
:class:`~repro.service.registry.IndexRegistry`.

The modeled end-to-end latency of a query is::

    (flush_time - arrival_time)        # waiting for the batch to form
    + backend queueing                 # waiting for the device to come free
    + index build time                 # only when the batch hit a cold cache
    + batch execution time             # the backend's modeled kernel time

which is exactly the latency decomposition of a real batched serving system.
Each backend is a single serially occupied device: a batch starts at
``max(flush_time, backend_free_time)``, so offered load beyond a backend's
modeled capacity shows up as growing queueing delay and saturating delivered
throughput rather than as impossible numbers.

Host-side, the hot path is *columnar*: tickets are consecutive integers
indexing growable answer/latency tables (so storing a served batch and
resolving :meth:`LCAQueryService.results` are single fancy-indexing
operations), and :meth:`LCAQueryService.submit_many` admits a whole arrival
block through :meth:`MicroBatchScheduler.submit_block` instead of looping
over Python objects — the host cost of forming a batch no longer dwarfs the
modeled kernel cost being scheduled.

An opt-in *skew-aware fast path* (``dedup=True`` / ``answer_cache_bytes=``)
exploits repetition: pairs are canonicalized (LCA is symmetric) and packed
into uint64 keys, blocks are probed against a bounded exact
:class:`~repro.service.cache.AnswerCache` at the front door (hits are
answered at arrival, without queueing for a batch), and batches run the
kernel on their *unique cache misses* only — which is also the count the
dispatcher prices, so key skew moves the CPU/GPU crossover.  Answers are
bit-identical with the fast path on or off.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike

from ..device import ExecutionContext
from ..errors import InvalidQueryError, ServiceError
from ..graphs.trees import query_bounds_mask
from ..lca.dedup import PACK_LIMIT, pack_query_pairs, unpack_query_pairs
from ..obs.events import (
    EV_ARRIVAL,
    EV_CACHE_HITS,
    EV_CACHE_INSERT,
    EV_CACHE_LANE_HIT,
    EV_CACHE_MISSES,
    EV_CACHE_RESET,
    EV_COMPLETE,
    EV_DISPATCH,
    EV_FLUSH,
    EV_INDEX_EVICT,
    EV_INDEX_LOAD,
    EV_KERNEL_END,
    EV_KERNEL_START,
    TraceRecorder,
)
from .cache import AnswerCache, answer_cache_probe_time
from .clock import SimulatedClock
from .config import ServiceConfig
from .dispatch import Backend, CostModelDispatcher, dispatcher_for
from .registry import ArtifactKey, ForestStore, IndexRegistry
from .scheduler import BatchPolicy, FlushedBatch, MicroBatchScheduler
from .stats import ServiceStats, StatsCollector, grow_table

__all__ = ["LCAQueryService"]

#: Initial ticket-table capacity (grows by doubling).
_MIN_TICKET_TABLE = 1024

#: Backend-lane key full-cache-hit batches are booked under (they occupy the
#: host-side cache lane, not a compute backend).
CACHE_BACKEND_KEY = "cache"


def _node_id(value: Any) -> int:
    if isinstance(value, (int, np.integer)):
        return int(value)
    as_float = float(value)
    if not as_float.is_integer():
        raise InvalidQueryError(f"query node ids must be integers, got {value!r}")
    return int(as_float)


def query_pair(x: Any, y: Any, *, n: int, dataset: str) -> Tuple[int, int]:
    """One submitted node pair as ints; refused unless integral and in range."""
    x, y = _node_id(x), _node_id(y)
    if not (0 <= x < n and 0 <= y < n):
        raise InvalidQueryError(
            f"query nodes ({x}, {y}) out of range for dataset {dataset!r} "
            f"with {n} nodes"
        )
    return x, y


def arrival_time(at: Optional[float], now: float) -> float:
    """One submitted arrival instant; it must be finite and not before ``now``."""
    t = now if at is None else float(at)
    if not math.isfinite(t):
        raise ServiceError(f"arrival times must be finite, got {t}")
    if t < now:
        raise ServiceError(
            f"cannot move the clock backwards (now={now}, requested={t})"
        )
    return t


def _node_column(values: ArrayLike) -> np.ndarray:
    raw = np.atleast_1d(np.asarray(values))
    if raw.dtype.kind != "f":
        return raw.astype(np.int64, copy=False)
    with np.errstate(invalid="ignore"):
        ids = raw.astype(np.int64)
    truncated = ids != raw
    if truncated.any():
        raise InvalidQueryError(
            f"query node ids must be integers, got {raw[truncated.argmax()]!r}"
        )
    return ids


def admission_columns(
    xs: ArrayLike,
    ys: ArrayLike,
    at: Optional[ArrayLike],
    *,
    now: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validate a submitted block, in vectorized passes, before any state changes.

    Returns int64 node columns and float64 arrivals (``now`` when ``at`` is
    omitted).  Non-integral ids, non-finite arrivals, and arrivals before
    ``now`` or before their predecessor raise, so the block admits nothing.

    >>> admission_columns([1, 2], [3, 4], [1e-3, 0.0], now=0.0)
    Traceback (most recent call last):
        ...
    repro.errors.ServiceError: cannot move the clock backwards (now=0.001, requested=0.0)
    """
    xs = _node_column(xs)
    ys = _node_column(ys)
    if xs.shape != ys.shape:
        raise ServiceError("query arrays must have the same shape")
    if at is None:
        return xs, ys, np.full(xs.size, now, dtype=np.float64)
    arrivals = np.atleast_1d(np.asarray(at, dtype=np.float64))
    if arrivals.shape != xs.shape:
        raise ServiceError("timestamp array must match the query arrays")
    if xs.size == 0:
        return xs, ys, arrivals
    # One pass: NaN fails every comparison, so an in-order block whose last
    # arrival is below +inf is also finite (``now`` is).
    in_order = np.empty(arrivals.size, dtype=bool)
    in_order[0] = arrivals[0] >= now
    np.greater_equal(arrivals[1:], arrivals[:-1], out=in_order[1:])
    if in_order.all() and arrivals[-1] < np.inf:
        return xs, ys, arrivals
    finite = np.isfinite(arrivals)
    if not finite.all():
        raise ServiceError(
            f"arrival times must be finite, got {arrivals[finite.argmin()]}"
        )
    stop = int(in_order.argmin())
    prev = now if stop == 0 else float(arrivals[stop - 1])
    raise ServiceError(
        f"cannot move the clock backwards (now={prev}, "
        f"requested={float(arrivals[stop])})"
    )


def block_clean_prefix(
    xs: np.ndarray,
    ys: np.ndarray,
    *,
    n: int,
    dataset: str,
) -> Tuple[int, Optional[Exception]]:
    """Admissible prefix of a validated block, with the first offender's error.

    Replicates the per-query loop's error semantics for out-of-range nodes
    in bulk: one fused bounds check finds every out-of-range query and the
    earliest one wins.  Returns ``(stop, error)`` — admit ``[:stop]``, then
    raise ``error`` (``None`` when the whole block is in range).

    Shared by :meth:`LCAQueryService.submit_many` and the cluster layer's
    block path, which must stay in lockstep for the documented 1-replica
    bit-identical equivalence.
    """
    bad = query_bounds_mask(xs, ys, n)
    if not bad.any():
        return int(xs.size), None
    stop = int(bad.argmax())
    return stop, InvalidQueryError(
        f"query nodes ({xs[stop]}, {ys[stop]}) out of range for "
        f"dataset {dataset!r} with {n} nodes"
    )


class LCAQueryService:
    """Serves LCA queries against named, index-cached trees in micro-batches.

    Parameters
    ----------
    store:
        Raw dataset store; a fresh empty one by default.
    config:
        A :class:`~repro.service.config.ServiceConfig` carrying every
        serializable knob in one value.  Mutually exclusive with the
        legacy per-knob kwargs below (``policy``, ``capacity_bytes``,
        ``dedup``, ``answer_cache_bytes``, ``answer_cache_seed``,
        ``ticket_capacity``): passing ``config=`` together with a
        non-default legacy value raises :class:`~repro.errors.ServiceError`.
        Either way the service normalizes onto one internal config,
        exposed as :attr:`config`.
    policy:
        Micro-batching policy applied to every dataset's scheduler.
    dispatcher:
        Backend-choice policy; defaults to CPU-vs-GPU under the roofline
        cost model.
    capacity_bytes:
        Optional index-cache capacity (see :class:`IndexRegistry`).
    clock:
        Simulated time source shared by all schedulers.
    dedup:
        Enable the skew-aware canonicalization path: each batch's pairs are
        sorted to ``x <= y``, packed into uint64 keys and deduplicated, the
        kernel runs on the *unique* pairs only (the dispatcher prices that
        unique count, so the CPU/GPU crossover shifts under skew) and the
        answers are scattered back.  Answers are bit-identical either way
        (LCA is symmetric); off by default.
    answer_cache_bytes:
        Enable the answer cache with this byte budget (implies ``dedup``):
        a bounded, exact, vectorized hash table
        (:class:`~repro.service.cache.AnswerCache`) consulted and populated
        per batch, so pairs repeated *across* batches cost one probe instead
        of a kernel run.  ``None`` (the default) disables it.
    answer_cache_seed:
        Salt seed for the answer cache's slot hash.
    ticket_capacity:
        Optional pre-sizing of the ticket-indexed result tables (capacity
        planning for long streams; growth stays amortized O(1) without it).

    Usage
    -----
    >>> import numpy as np
    >>> from repro.graphs.generators import random_attachment_tree
    >>> from repro.service import LCAQueryService
    >>> svc = LCAQueryService()
    >>> svc.register_tree("t", random_attachment_tree(64, seed=0))
    >>> tickets = svc.submit_many("t", [1, 3, 5], [2, 4, 6],
    ...                           at=np.arange(3) * 1e-6)
    >>> svc.drain()
    >>> answers = svc.results(tickets)
    """

    def __init__(self, store: Optional[ForestStore] = None, *,
                 config: Optional[ServiceConfig] = None,
                 policy: Optional[BatchPolicy] = None,
                 dispatcher: Optional[CostModelDispatcher] = None,
                 capacity_bytes: Optional[int] = None,
                 clock: Optional[SimulatedClock] = None,
                 dedup: bool = False,
                 answer_cache_bytes: Optional[int] = None,
                 answer_cache_seed: int = 0,
                 ticket_capacity: Optional[int] = None,
                 observer: Optional[TraceRecorder] = None) -> None:
        # Single normalization path: legacy kwargs build the same
        # ServiceConfig a config= caller passes; everything below reads
        # from the config only.
        if config is not None:
            conflicts = [
                name for name, given in (
                    ("policy", policy is not None),
                    ("capacity_bytes", capacity_bytes is not None),
                    ("dedup", bool(dedup)),
                    ("answer_cache_bytes", answer_cache_bytes is not None),
                    ("answer_cache_seed", answer_cache_seed != 0),
                    ("ticket_capacity", ticket_capacity is not None),
                ) if given
            ]
            if conflicts:
                raise ServiceError(
                    f"pass configuration via config= or the legacy kwargs, "
                    f"not both (conflicting: {', '.join(conflicts)})"
                )
        else:
            base = policy or BatchPolicy()
            config = ServiceConfig(
                max_batch_size=base.max_batch_size,
                max_wait_s=base.max_wait_s,
                capacity_bytes=capacity_bytes,
                dedup=bool(dedup),
                answer_cache_bytes=answer_cache_bytes,
                answer_cache_seed=int(answer_cache_seed),
                ticket_capacity=ticket_capacity,
            )
        self.config = config
        self.clock = clock or SimulatedClock()
        self._observer: Optional[TraceRecorder] = None
        self._obs_replica = 0
        self.answer_cache: Optional[AnswerCache] = (
            AnswerCache(int(config.answer_cache_bytes),
                        seed=config.answer_cache_seed)
            if config.answer_cache_bytes is not None else None
        )
        self._dedup = config.dedup or self.answer_cache is not None
        # Whether each dataset's node ids fit the uint64 pair packing
        # (memoized on first serve; oversized trees use the plain path).
        self._packable: Dict[str, bool] = {}
        self.store = store or ForestStore()
        self.registry = IndexRegistry(self.store,
                                      capacity_bytes=config.capacity_bytes)
        self.policy = config.batch_policy()
        # An explicit dispatcher= wins (the cluster passes pre-built ones);
        # otherwise the config's backend fields describe the dispatcher.
        if dispatcher is None:
            if config.backends is not None or config.calibration_path is not None:
                dispatcher = dispatcher_for(config.backends,
                                            config.calibration_path)
            else:
                dispatcher = CostModelDispatcher()
        self.dispatcher = dispatcher
        self.stats_collector = StatsCollector()
        self._schedulers: Dict[str, MicroBatchScheduler] = {}
        self._dataset_rank: Dict[str, int] = {}
        self._next_ticket = 0
        # Ticket-indexed columnar result tables: tickets are consecutive
        # integers, so answers/latencies live in flat arrays and a batch of
        # results is stored (and read back) with one fancy-indexing op.
        # ``ticket_capacity`` pre-sizes them (capacity planning for long
        # streams — growth stays amortized O(1) either way, but reserving
        # keeps the doubling copies out of the serving windows).
        reserve = config.ticket_capacity
        table = max(_MIN_TICKET_TABLE, 0 if reserve is None else int(reserve))
        self._answers = np.empty(table, dtype=np.int64)
        self._latencies = np.empty(table, dtype=np.float64)
        self._answered = np.zeros(table, dtype=bool)
        if reserve is not None:
            self.stats_collector.reserve(int(reserve))
        # Memoized (dataset, backend) -> ArtifactKey for the registry's keyed
        # fast path; rebuilt lazily, invalidation-free (keys are pure values).
        self._artifact_keys: Dict[Tuple[str, str], ArtifactKey] = {}
        # When each backend's (single, serially occupied) device next comes
        # free; batches queue behind it.
        self._backend_free_s: Dict[str, float] = {}
        # Fault-tolerance hooks, all inert by default (a single `is None` /
        # `== 1.0` check on the serving path keeps fault-free runs
        # bit-identical to builds that predate them).  The cluster layer
        # installs the interceptor (captures batches a dead/failing replica
        # must not serve) and the hedge hook (offers a straggling batch to a
        # second copy); ``latency_debt`` re-admissions populate the debt
        # table so retried queries keep their true end-to-end latency.
        self._serve_interceptor: Optional[
            Callable[[str, FlushedBatch], bool]] = None
        self._hedge_hook: Optional[
            Callable[[str, FlushedBatch, float], Optional[float]]] = None
        self._service_factor = 1.0
        self._debt: Optional[np.ndarray] = None
        # Tree datasets already in a caller-provided store are servable
        # immediately — they get schedulers just like register_tree()'d ones.
        for name in self.store.names:
            if self.store.has_tree(name):
                self._add_scheduler(name)
        if observer is not None:
            self.attach_observer(observer)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def observer(self) -> Optional[TraceRecorder]:
        """The attached trace recorder, if any."""
        return self._observer

    def attach_observer(self, observer: Optional[TraceRecorder], *,
                        replica: int = 0) -> None:
        """Attach (or detach, with ``None``) a lifecycle trace recorder.

        Every layer of the service starts emitting into it: arrivals and
        completions here, enqueue/flush from each dataset's scheduler,
        dispatch decisions, cache hits/misses/inserts/resets, and index
        registry loads/evictions.  ``replica`` stamps every event (the
        cluster layer assigns each worker its index).  With no observer
        attached — the default — each hook is one ``is None`` check.
        """
        self._observer = observer
        self._obs_replica = int(replica)
        for scheduler in self._schedulers.values():
            scheduler.set_observer(observer, replica=self._obs_replica)
        self.registry.event_hook = (
            self._record_index_event if observer is not None else None
        )

    def _record_index_event(self, event: str, key: ArtifactKey,
                            value: float) -> None:
        obs = self._observer
        if obs is None:  # pragma: no cover - hook detached concurrently
            return
        kind = EV_INDEX_LOAD if event == "load" else EV_INDEX_EVICT
        obs.record(kind, self.clock.now, replica=self._obs_replica,
                   detail=value,
                   aux=obs.intern(f"{key.dataset}/{key.variant or key.kind}"))

    # ------------------------------------------------------------------
    # Fault-tolerance hooks (driven by the cluster layer; inert standalone)
    # ------------------------------------------------------------------
    def set_serve_interceptor(
            self, interceptor: Optional[Callable[[str, FlushedBatch], bool]]
    ) -> None:
        """Install (or remove, with ``None``) a batch-serve interceptor.

        Called as ``interceptor(dataset, batch)`` before every batch would
        execute; returning ``True`` claims the batch — the service skips it
        entirely (no kernel, no answers, no stats).  The cluster layer uses
        this to capture batches on a dead or transiently failing replica and
        re-dispatch them to a surviving copy.
        """
        self._serve_interceptor = interceptor

    def set_hedge_hook(
            self,
            hook: Optional[Callable[[str, FlushedBatch, float],
                                    Optional[float]]],
    ) -> None:
        """Install (or remove) the hedged-dispatch hook.

        Called as ``hook(dataset, batch, completion_s)`` after a kernel
        batch's completion time is known; returning an earlier instant means
        a duplicate execution elsewhere finished first and the batch's
        queries complete then instead.  The original lane stays booked —
        hedging trades duplicate backend work for tail latency.
        """
        self._hedge_hook = hook

    def set_service_factor(self, factor: float) -> None:
        """Scale every subsequent kernel service time by ``factor``.

        The fault injector's ``slowdown`` action routes here; ``1.0``
        restores full speed.

        >>> svc = LCAQueryService()
        >>> svc.set_service_factor(4.0)
        >>> svc.set_service_factor(0.5)
        Traceback (most recent call last):
            ...
        repro.errors.ServiceError: service factor must be >= 1.0, got 0.5
        """
        if not float(factor) >= 1.0:
            raise ServiceError(
                f"service factor must be >= 1.0, got {factor}")
        self._service_factor = float(factor)

    def evict_pending(self) -> Dict[
            str, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Pull every queued query back out, per dataset, without serving it.

        Returns ``{dataset: (tickets, xs, ys, arrival_s)}`` for each dataset
        with a non-empty queue (array copies; the schedulers end up empty).
        The cluster layer calls this when a replica is killed so the
        stranded queries can be re-dispatched to surviving copies.

        >>> svc = LCAQueryService()
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> t = svc.submit("t", 1, 2, at=0.0)
        >>> sorted(svc.evict_pending())
        ['t']
        >>> svc.pending_count()
        0
        """
        evicted: Dict[str, Tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]] = {}
        for name, scheduler in self._schedulers.items():
            if scheduler.pending_count:
                evicted[name] = scheduler.evict()
        return evicted

    def debt_of(self, tickets: ArrayLike) -> np.ndarray:
        """Per-ticket latency debt (0.0 for tickets admitted normally).

        A query re-admitted after a replica failure arrives *again* at the
        retry instant; its debt is the gap back to its true first arrival,
        added to the modeled latency when it completes so tail attribution
        survives failover.
        """
        idx = np.atleast_1d(np.asarray(tickets)).astype(np.int64, copy=False)
        if self._debt is None or idx.size == 0:
            return np.zeros(idx.size, dtype=np.float64)
        return self._debt[idx].copy()

    def serve_hedge(self, dataset: str, xs: np.ndarray, ys: np.ndarray, *,
                    issue_s: float) -> float:
        """Run a duplicate of a straggling batch; return its completion time.

        The hedge is a real execution on this replica: the dispatcher picks
        a backend for the duplicate's size, a cold index pays its build
        time, the kernel runs (answers are discarded — LCA is deterministic,
        so the original batch's answers are bit-identical), the lane is
        serially booked from ``issue_s``, and the duplicate backend time is
        billed to this replica's stats.  Only the completion instant flows
        back; the caller takes ``min(original, hedge)``.
        """
        size = int(np.asarray(xs).size)
        backend = self.dispatcher.choose(size)
        entry, hit = self.registry.fetch_by_key(
            self._artifact_key(dataset, backend), spec=backend.spec)
        service_time = 0.0 if hit else entry.build_time_s
        _, charge = self._charged_query(
            entry.artifact, backend,
            np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64),
            size)
        service_time += charge
        if self._service_factor != 1.0:
            service_time *= self._service_factor
        start = max(float(issue_s),
                    self._backend_free_s.get(backend.key, 0.0))
        completion = start + service_time
        self._backend_free_s[backend.key] = completion
        self.stats_collector.record_hedge(service_time)
        obs = self._observer
        if obs is not None:
            obs.record_span(EV_KERNEL_START, EV_KERNEL_END, start, completion,
                            batch=obs.next_batch_id(),
                            replica=self._obs_replica, detail=service_time,
                            aux=obs.intern(backend.key))
        return completion

    # ------------------------------------------------------------------
    # Dataset management
    # ------------------------------------------------------------------
    def _add_scheduler(self, name: str) -> None:
        self._dataset_rank[name] = len(self._schedulers)
        scheduler = MicroBatchScheduler(self.policy, clock=self.clock)
        if self._observer is not None:
            scheduler.set_observer(self._observer, replica=self._obs_replica)
        self._schedulers[name] = scheduler

    def register_tree(self, name: str, parents: Optional[np.ndarray] = None, *,
                      loader: Optional[Callable[[], np.ndarray]] = None,
                      validate: bool = False) -> None:
        """Register a named tree and give it a scheduler.

        Pass the parent array directly, or a zero-argument ``loader`` for
        lazy materialization on first use.

        >>> svc = LCAQueryService()
        >>> svc.register_tree("eager", np.array([-1, 0, 0]))
        >>> svc.register_tree("lazy", loader=lambda: np.array([-1, 0]))
        >>> svc.datasets
        ['eager', 'lazy']
        """
        self.store.add_tree(name, parents, loader=loader, validate=validate)
        self._add_scheduler(name)

    @property
    def datasets(self) -> List[str]:
        """Names of all registered datasets.

        >>> svc = LCAQueryService()
        >>> svc.register_tree("a", np.array([-1, 0]))
        >>> svc.register_tree("b", np.array([-1, 0, 0]))
        >>> svc.datasets
        ['a', 'b']
        """
        return list(self._schedulers)

    def warm(self, dataset: str) -> None:
        """Prebuild the LCA index of ``dataset`` for every backend.

        >>> svc = LCAQueryService()
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> svc.warm("t"); svc.registry.misses
        2
        """
        for backend in self.dispatcher.backends:
            self.registry.fetch(dataset, "lca", backend.spec,
                                sequential=backend.sequential)

    @property
    def tickets_issued(self) -> int:
        """How many tickets have been issued so far (tickets are ``0..n-1``).

        Tickets are consecutive integers, so a caller that records this
        before a submission knows exactly which tickets that submission
        received — including a partially admitted block (the workload
        replay harness uses this to keep per-phase ticket ranges).

        >>> svc = LCAQueryService()
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> svc.tickets_issued
        0
        >>> _ = svc.submit_many("t", [1, 2], [2, 1])
        >>> svc.tickets_issued
        2
        """
        return self._next_ticket

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def submit(self, dataset: str, x: int, y: int, *,
               at: Optional[float] = None) -> int:
        """Submit one LCA query; returns a ticket redeemable after its flush.

        ``at`` is the simulated arrival time (monotone across calls); omitted,
        the query arrives at the clock's current instant.  Arrival may trigger
        flushes — on this dataset (size trigger) or on any dataset whose wait
        deadline the advancing clock passed.

        Query nodes are validated here, before the query is accepted (a
        lazily registered tree is materialized by its first submission): a
        bad query is rejected at its own submit call instead of exploding at
        flush time inside a batch of other callers' queries.

        >>> svc = LCAQueryService()
        >>> svc.register_tree("t", np.array([-1, 0, 0, 1]))
        >>> svc.submit("t", 2, 3)       # tickets count up from 0
        0
        >>> svc.drain(); svc.result(0)  # LCA of nodes 2 and 3 is the root
        0
        """
        scheduler = self._scheduler(dataset)
        x, y = query_pair(x, y, n=self.store.tree(dataset).size, dataset=dataset)
        t = arrival_time(at, self.clock.now)
        # Serve everything that expired before this arrival, across all
        # datasets, in global flush-time order; the submitted dataset's
        # deadline exactly at t stays pending so this query can join it.
        for name, batch in self._expired_batches(t, exclusive=dataset):
            self._serve(name, batch)
        ticket = self._next_ticket
        self._next_ticket += 1
        self._ensure_ticket_capacity(self._next_ticket)
        self.stats_collector.record_submit()
        if self._observer is not None:
            self._observer.record(EV_ARRIVAL, t, ticket=ticket,
                                  replica=self._obs_replica)
        for batch in scheduler.submit(ticket, x, y):
            self._serve(dataset, batch)
        return ticket

    def submit_many(self, dataset: str, xs: np.ndarray, ys: np.ndarray, *,
                    at: Optional[np.ndarray] = None,
                    latency_debt: Optional[np.ndarray] = None) -> np.ndarray:
        """Submit a column block of single queries; returns their tickets.

        With the skew-aware path off (the default), observationally
        equivalent to calling :meth:`submit` once per query — each query is
        still an individual arrival seen by the scheduler, *not* a
        pre-formed batch — but admission is columnar: the block is validated
        with vectorized comparisons, cut into flush-sized chunks by
        :meth:`MicroBatchScheduler.submit_block`, and every resulting batch is
        served in the same global flush-time order the per-query path
        produces.  ``at`` optionally gives each query its own (non-decreasing)
        arrival timestamp.  With the answer cache on the two admission styles
        diverge observably (answers stay exact): only the columnar path takes
        the front-door memoization, so its cache hits are answered at arrival
        instead of at batch flush (see :meth:`_admit_memoized`).

        A malformed block is refused whole, before any state changes: a
        non-integral node id, a non-finite arrival, or an arrival before the
        clock or before its predecessor (see :func:`admission_columns`).  An
        out-of-range query raises at its own position, after every query
        before it has been admitted (and possibly served), exactly like the
        per-query loop.

        ``latency_debt`` (cluster failover only) gives each query latency
        already accrued before this re-admission — the gap between its true
        first arrival and the retry instant ``at`` carries.  Debt is added
        to the modeled latency at completion, and a debt-carrying block
        always takes the standard scheduler path (no front-door
        memoization): a retried query re-queues like any other arrival.

        >>> svc = LCAQueryService()
        >>> svc.register_tree("t", np.array([-1, 0, 0, 1]))
        >>> tickets = svc.submit_many("t", [1, 2], [3, 3],
        ...                           at=np.array([0.0, 1e-6]))
        >>> svc.drain()
        >>> svc.results(tickets).tolist()   # LCA(1,3)=1, LCA(2,3)=0
        [1, 0]
        """
        scheduler = self._scheduler(dataset)
        xs, ys, arrivals = admission_columns(xs, ys, at, now=self.clock.now)
        if xs.size == 0:
            return np.empty(0, dtype=np.int64)
        n = self.store.tree(dataset).size

        # Admissible prefix: the per-query loop raises at the first
        # out-of-range index after admitting everything before it —
        # replicate that by admitting the clean prefix, then raising the
        # same error.
        stop, error = block_clean_prefix(xs, ys, n=n, dataset=dataset)

        tickets = np.arange(self._next_ticket, self._next_ticket + stop,
                            dtype=np.int64)
        if stop:
            self._next_ticket += stop
            self._ensure_ticket_capacity(self._next_ticket)
            self.stats_collector.record_submit(stop)
            if self._observer is not None:
                self._observer.record_block(EV_ARRIVAL, arrivals[:stop],
                                            tickets,
                                            replica=self._obs_replica)
            if latency_debt is not None:
                debt = np.atleast_1d(np.asarray(latency_debt,
                                                dtype=np.float64))
                if debt.shape != xs.shape:
                    raise ServiceError(
                        "latency_debt array must match the query arrays")
                # Tickets are consecutive: store the block's debt with one
                # slice assignment before anything can flush and serve it.
                if self._debt is None:
                    self._debt = np.zeros(self._answers.size,
                                          dtype=np.float64)
                self._debt[int(tickets[0]):int(tickets[-1]) + 1] = debt[:stop]
            handled = (
                latency_debt is None
                and self.answer_cache is not None
                and self._is_packable(dataset)
                and self._admit_memoized(dataset, scheduler, tickets,
                                         xs[:stop], ys[:stop],
                                         arrivals[:stop])
            )
            if not handled:
                own = scheduler.submit_block(tickets, xs[:stop], ys[:stop],
                                             arrivals[:stop])
                self._serve_in_submission_order(dataset, own, arrivals[:stop],
                                                int(tickets[0]))
        if error is not None:
            raise error
        return tickets

    def advance_to(self, t: float, *, joining: Optional[str] = None) -> None:
        """Advance simulated time, serving every wait-expired batch.

        ``joining`` names a dataset about to receive a submission at exactly
        ``t``: its wait deadlines equal to ``t`` are left pending so the
        arriving query can still join them (the same rule :meth:`submit`
        applies internally).  The cluster layer uses this to pre-advance
        replica workers to an arrival instant without perturbing the batch
        the arrival belongs to.

        >>> svc = LCAQueryService(policy=BatchPolicy(max_batch_size=8,
        ...                                          max_wait_s=1e-3))
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> t = svc.submit("t", 1, 2, at=0.0)
        >>> svc.advance_to(2e-3)        # past the 1 ms wait deadline
        >>> svc.result(t)
        0
        """
        for name, batch in self._expired_batches(float(t), exclusive=joining):
            self._serve(name, batch)

    def sync_to(self, t: float) -> None:
        """Advance to ``t``, serving only deadlines *strictly* before ``t``.

        Deadlines exactly at ``t`` stay pending — they can still be joined
        by an arrival at ``t`` or be drained at ``t`` with the ``drain``
        trigger, exactly as if time had been advanced one submission at a
        time.  The cluster layer uses this to align a lagging replica clock
        with the cluster frontier at a drain boundary; on a replica whose
        clock already sits at ``t`` it is a no-op (every strictly earlier
        deadline was flushed by the submission that advanced the clock).

        >>> svc = LCAQueryService(policy=BatchPolicy(max_batch_size=8,
        ...                                          max_wait_s=1e-3))
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> t = svc.submit("t", 1, 2, at=0.0)
        >>> svc.sync_to(1e-3)           # deadline exactly at t stays pending
        >>> svc.pending_count("t")
        1
        >>> svc.advance_to(1e-3)        # inclusive semantics: now it flushes
        >>> svc.pending_count("t")
        0
        """
        for name, batch in self._expired_batches(float(t), include_equal=False):
            self._serve(name, batch)

    def drain(self) -> None:
        """Flush and serve everything still queued, on every dataset.

        >>> svc = LCAQueryService()
        >>> svc.register_tree("t", np.array([-1, 0]))
        >>> t = svc.submit("t", 0, 1)
        >>> svc.drain()
        >>> svc.pending_count()
        0
        """
        for name, scheduler in self._schedulers.items():
            for batch in scheduler.drain():
                self._serve(name, batch)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def result(self, ticket: int) -> int:
        """The answer for one ticket (its batch must have been served).

        >>> svc = LCAQueryService()
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> t = svc.submit("t", 1, 2)
        >>> svc.drain()
        >>> svc.result(t)
        0
        >>> svc.result(99)
        Traceback (most recent call last):
            ...
        repro.errors.ServiceError: unknown ticket 99
        """
        t = int(ticket)
        if not 0 <= t < self._next_ticket:
            raise ServiceError(f"unknown ticket {ticket}")
        if not self._answered[t]:
            raise ServiceError(
                f"ticket {ticket} is still queued; advance time or drain()"
            )
        return int(self._answers[t])

    def results(self, tickets: ArrayLike) -> np.ndarray:
        """Vector of answers for a sequence of tickets (one table lookup).

        Raises :class:`ServiceError` exactly as :meth:`result` would for the
        first unknown or still-queued ticket in the sequence.

        >>> svc = LCAQueryService()
        >>> svc.register_tree("t", np.array([-1, 0, 0, 1]))
        >>> tickets = svc.submit_many("t", [3, 2], [1, 3])
        >>> svc.drain()
        >>> svc.results(tickets).tolist()
        [1, 0]
        """
        idx = np.atleast_1d(np.asarray(tickets)).astype(np.int64, copy=False)
        if idx.size == 0:
            return np.empty(0, dtype=np.int64)
        unknown = (idx < 0) | (idx >= self._next_ticket)
        if unknown.any():
            raise ServiceError(f"unknown ticket {idx[int(unknown.argmax())]}")
        queued = ~self._answered[idx]
        if queued.any():
            raise ServiceError(
                f"ticket {idx[int(queued.argmax())]} is still queued; "
                f"advance time or drain()"
            )
        return self._answers[idx]

    def answered(self, tickets: ArrayLike) -> np.ndarray:
        """Boolean mask over ``tickets``: which have been served already.

        Unlike :meth:`results` this never raises for still-queued tickets —
        it is the non-throwing probe the cluster layer uses to report the
        first still-queued ticket of a cross-replica sequence in the caller's
        order.  Unknown tickets still raise :class:`ServiceError`.

        >>> svc = LCAQueryService(policy=BatchPolicy(max_batch_size=2,
        ...                                          max_wait_s=1.0))
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> a, b, c = [svc.submit("t", 1, 2) for _ in range(3)]
        >>> svc.answered([a, b, c]).tolist()   # size flush served a and b
        [True, True, False]
        """
        idx = np.atleast_1d(np.asarray(tickets)).astype(np.int64, copy=False)
        if idx.size == 0:
            return np.empty(0, dtype=bool)
        unknown = (idx < 0) | (idx >= self._next_ticket)
        if unknown.any():
            raise ServiceError(f"unknown ticket {idx[int(unknown.argmax())]}")
        return self._answered[idx]

    def latency(self, ticket: int) -> float:
        """Modeled end-to-end latency of one answered query.

        >>> svc = LCAQueryService()
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> t = svc.submit("t", 1, 2)
        >>> svc.drain()
        >>> svc.latency(t) > 0.0       # waiting + queueing + execution
        True
        """
        self.result(ticket)  # raises uniformly for unknown/queued tickets
        return float(self._latencies[int(ticket)])

    def latencies(self, tickets: ArrayLike) -> np.ndarray:
        """Vector of modeled latencies for a sequence of answered tickets.

        >>> svc = LCAQueryService()
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> tickets = svc.submit_many("t", [1, 2], [2, 1])
        >>> svc.drain()
        >>> bool((svc.latencies(tickets) > 0.0).all())
        True
        """
        idx = np.atleast_1d(np.asarray(tickets)).astype(np.int64, copy=False)
        if idx.size == 0:
            return np.empty(0, dtype=np.float64)
        # Same validation as results(), without gathering the answers.
        unknown = (idx < 0) | (idx >= self._next_ticket)
        if unknown.any():
            raise ServiceError(f"unknown ticket {idx[int(unknown.argmax())]}")
        queued = ~self._answered[idx]
        if queued.any():
            raise ServiceError(
                f"ticket {idx[int(queued.argmax())]} is still queued; "
                f"advance time or drain()"
            )
        return self._latencies[idx]

    def pending_count(self, dataset: Optional[str] = None) -> int:
        """Queries currently queued (for one dataset, or in total).

        >>> svc = LCAQueryService(policy=BatchPolicy(max_batch_size=8,
        ...                                          max_wait_s=1.0))
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> t = svc.submit("t", 1, 2)
        >>> svc.pending_count("t"), svc.pending_count()
        (1, 1)
        """
        if dataset is not None:
            return self._scheduler(dataset).pending_count
        return sum(s.pending_count for s in self._schedulers.values())

    def stats(self) -> ServiceStats:
        """Snapshot of the service's accumulated statistics.

        >>> svc = LCAQueryService()
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> _ = svc.submit_many("t", [1, 2], [2, 1])
        >>> svc.drain()
        >>> svc.stats().queries_answered
        2
        """
        return self.stats_collector.snapshot(registry=self.registry,
                                             answer_cache=self.answer_cache)

    # ------------------------------------------------------------------
    # Online tuning
    # ------------------------------------------------------------------
    def apply_tuning(self, *, max_batch_size: Optional[int] = None,
                     max_wait_s: Optional[float] = None,
                     dataset: Optional[str] = None) -> ServiceConfig:
        """Hot-swap the safe-to-retune batching knobs at a flush boundary.

        Only the :attr:`ServiceConfig.TUNABLE` subset can move mid-stream
        (``None`` leaves a knob unchanged); structural knobs — cache
        budgets, dedup, ticket capacity — are fixed at construction.  The
        swap happens *now* on the simulated clock and never touches an
        already-flushed batch: each scheduler's pending window is re-judged
        under the new policy (see :meth:`MicroBatchScheduler.retune`) and
        any batches the swap forces out — queries made late by a shorter
        wait, windows made oversized by a smaller batch bound — are served
        immediately, in flush-time order.  Answers are bit-identical under
        any retuning schedule; only batching (and therefore latency and
        cost) changes.

        ``dataset`` scopes the swap to one dataset's scheduler — a
        *priority lane*: the named lane keeps its own policy until the
        next global (``dataset=None``) swap resets every lane.  Lane
        overrides do not change :attr:`config` (the global default that
        newly registered datasets inherit).

        Returns :attr:`config` after the call.

        >>> svc = LCAQueryService(config=ServiceConfig(max_batch_size=8,
        ...                                            max_wait_s=1.0))
        >>> svc.register_tree("t", np.array([-1, 0, 0]))
        >>> tickets = [svc.submit("t", 1, 2, at=i * 1e-4) for i in range(3)]
        >>> svc.apply_tuning(max_batch_size=2).max_batch_size  # forces a flush
        2
        >>> svc.answered(tickets).tolist()
        [True, True, False]
        """
        changes: Dict[str, object] = {}
        if max_batch_size is not None:
            changes["max_batch_size"] = int(max_batch_size)
        if max_wait_s is not None:
            changes["max_wait_s"] = float(max_wait_s)
        if not changes:
            return self.config
        if dataset is None:
            self.config = self.config.derive(**changes)
            policy = self.config.batch_policy()
            self.policy = policy
            targets = list(self._schedulers.items())
        else:
            scheduler = self._scheduler(dataset)
            base = scheduler.policy
            policy = BatchPolicy(
                max_batch_size=int(
                    changes.get("max_batch_size", base.max_batch_size)),
                max_wait_s=float(
                    changes.get("max_wait_s", base.max_wait_s)),
            )
            targets = [(dataset, scheduler)]
        collected: List[Tuple[float, int, str, FlushedBatch]] = []
        for name, scheduler in targets:
            for batch in scheduler.retune(policy):
                collected.append((batch.flush_s, self._dataset_rank[name],
                                  name, batch))
        collected.sort(key=lambda item: item[:2])
        for _, _, name, batch in collected:
            self._serve(name, batch)
        return self.config

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _ensure_ticket_capacity(self, needed: int) -> None:
        if needed <= self._answers.size:
            return
        # Callers bump _next_ticket before growing, so the count of live
        # slots can already exceed the old capacity — copy the whole table.
        used = self._answers.size
        self._answers = grow_table(self._answers, used, needed)
        self._latencies = grow_table(self._latencies, used, needed)
        self._answered = grow_table(self._answered, used, needed)
        if self._debt is not None:
            # The debt table must stay zero beyond the used region (it is
            # only ever written for retried tickets), so it grows by
            # zero-filled reallocation rather than grow_table's np.empty.
            debt = np.zeros(self._answers.size, dtype=np.float64)
            debt[:used] = self._debt
            self._debt = debt

    def _scheduler(self, dataset: str) -> MicroBatchScheduler:
        try:
            return self._schedulers[dataset]
        except KeyError:
            raise ServiceError(
                f"unknown dataset {dataset!r}; register_tree() it first"
            ) from None

    def _expired_batches(self, t: float, exclusive: Optional[str] = None,
                         include_equal: bool = True) -> List[tuple]:
        # One shared clock: advancing it for one dataset fires every other
        # dataset's expired wait deadlines too.  Batches are returned sorted
        # by flush time so they queue on the backends in FIFO order no matter
        # which dataset they came from; for ``exclusive`` (a dataset about to
        # receive a submission at ``t``) deadlines equal to ``t`` are left
        # pending so the arriving query can join them, and with
        # ``include_equal=False`` they are left pending on *every* dataset
        # (the :meth:`sync_to` semantics).
        self.clock.advance_to(t)
        collected: List[tuple] = []
        for name, scheduler in self._schedulers.items():
            # An empty scheduler can never flush — skipping it keeps the
            # per-submit cost independent of how many idle datasets exist.
            if scheduler.pending_count == 0:
                continue
            batches = scheduler.advance_to(
                t, include_equal=include_equal and name != exclusive)
            collected.extend((name, batch) for batch in batches)
        collected.sort(key=lambda item: item[1].flush_s)
        return collected

    def _serve_in_submission_order(self, dataset: str, own: List[FlushedBatch],
                                   arrivals: np.ndarray, first_ticket: int
                                   ) -> None:
        """Serve a block's own batches plus other datasets' expired ones.

        The per-query path serves batches at well-defined points of the
        submission loop: at query ``i`` it first serves every batch whose
        wait deadline the arrival reached — the submitted dataset's strictly
        (deadline < t_i), other datasets' inclusively (deadline <= t_i), all
        sorted by flush time with ties broken by dataset registration order —
        and then the size-completed batch the arriving query just filled, if
        any.  Reconstruct exactly that order from the merged batch lists:
        each batch gets (serving query index, phase, flush time, dataset
        rank) as its sort key, where phase 0 is the deadline sweep and
        phase 1 the size flush.
        """
        merged: List[Tuple[int, int, float, int, str, FlushedBatch]] = []
        own_rank = self._dataset_rank[dataset]
        for batch in own:
            if batch.trigger == "size":
                # Served right after the query that completed the batch.
                at_query = int(batch.tickets[-1]) - first_ticket
                phase = 1
            else:
                # A wait flush fires at the first arrival strictly past the
                # deadline (arrival exactly at the deadline joins the batch).
                at_query = int(np.searchsorted(arrivals, batch.flush_s,
                                               side="right"))
                phase = 0
            merged.append((at_query, phase, batch.flush_s, own_rank,
                           dataset, batch))
        need_sort = False
        t_last = float(arrivals[-1])
        for name, scheduler in self._schedulers.items():
            if name == dataset or scheduler.pending_count == 0:
                continue
            for batch in scheduler.advance_to(t_last, include_equal=True):
                # Other datasets' deadlines fire at the first arrival at or
                # past them.
                at_query = int(np.searchsorted(arrivals, batch.flush_s,
                                               side="left"))
                merged.append((at_query, 0, batch.flush_s,
                               self._dataset_rank[name], name, batch))
                need_sort = True
        if need_sort:
            merged.sort(key=lambda item: item[:4])
        for _, _, _, _, name, batch in merged:
            self._serve(name, batch)

    def _is_packable(self, dataset: str) -> bool:
        ok = self._packable.get(dataset)
        if ok is None:
            ok = int(self.store.tree(dataset).size) <= PACK_LIMIT
            self._packable[dataset] = ok
        return ok

    def _admit_memoized(self, dataset: str, scheduler: MicroBatchScheduler,
                        tickets: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                        arrivals: np.ndarray) -> bool:
        """Front-door memoization for the columnar path.

        With the answer cache on, a block is probed *at admission*: queries
        whose canonical pair is already cached are answered immediately on
        the host-side cache lane — they never enter the batching pipeline,
        which is both the standard serving architecture (memoize before you
        queue) and the realistic latency model (a memoized answer does not
        wait for a batch to form).  Only the cache misses are handed to the
        micro-batch scheduler; their batches probe again at serve time (a
        sibling batch may have filled the cache in between) and repopulate
        it.  Returns False when nothing hit — the caller then admits the
        whole block through the standard path unchanged.

        Cache-off behaviour is untouched, and answers are bit-identical
        either way; what changes with the cache on is *when* repeated
        queries are answered (at arrival) and that only unique misses reach
        the kernel.
        """
        cache = self.answer_cache
        assert cache is not None
        # Batches whose wait deadline expired before this block's first
        # arrival flush earlier on the simulated timeline, so they serve —
        # and populate the cache — before the block is probed (deadlines
        # falling *inside* the block's arrival span are served after the
        # probe, an acknowledged approximation of the per-arrival
        # interleaving; answers are exact either way).
        for name, batch in self._expired_batches(float(arrivals[0]),
                                                 exclusive=dataset):
            self._serve(name, batch)
        keys = pack_query_pairs(xs, ys)
        space = self._dataset_rank[dataset]
        values, found, hits = cache.lookup(space, keys)
        obs = self._observer
        if hits == 0:
            if obs is not None:
                obs.record(EV_CACHE_MISSES, float(arrivals[-1]),
                           replica=self._obs_replica,
                           detail=float(tickets.size))
            return False
        t_last = float(arrivals[-1])
        full = hits == int(tickets.size)
        # The hits are answered straight from the cache: the bulk probe
        # occupies the serially-booked host-side cache lane (starting once
        # both the block has arrived and the lane is free), and a memoized
        # answer's modeled latency is one per-query probe plus any lane
        # queueing — never a batching wait.  Tickets are a contiguous
        # range, so the whole block is stored with slice assignments
        # *before* any miss batch serves — miss rows carry unanswered
        # placeholders (``found`` is exactly the answered mask) that their
        # batches overwrite when they serve.
        probe_time = answer_cache_probe_time(int(tickets.size))
        probe_one = answer_cache_probe_time(1)
        start = max(t_last, self._backend_free_s.get(CACHE_BACKEND_KEY, 0.0))
        completion = start + probe_time
        self._backend_free_s[CACHE_BACKEND_KEY] = completion
        hit_latency = (start - t_last) + probe_one
        if obs is not None:
            # The front-door hits form a pseudo-batch on the cache lane:
            # flush at the probe instant, kernel span for the bulk probe,
            # one cache_lane_hit completion per answered ticket.
            obs.record(EV_CACHE_HITS, t_last, replica=self._obs_replica,
                       detail=float(hits))
            if not full:
                obs.record(EV_CACHE_MISSES, t_last,
                           replica=self._obs_replica,
                           detail=float(int(tickets.size) - hits))
            pseudo = obs.next_batch_id()
            obs.record(EV_FLUSH, t_last, batch=pseudo,
                       replica=self._obs_replica, detail=float(hits),
                       aux=obs.intern("hit"))
            obs.record_span(EV_KERNEL_START, EV_KERNEL_END, start, completion,
                            batch=pseudo, replica=self._obs_replica,
                            detail=probe_time,
                            aux=obs.intern(CACHE_BACKEND_KEY))
            hit_tickets = tickets if full else tickets[found]
            obs.record_block(EV_CACHE_LANE_HIT, completion, hit_tickets,
                             batch=pseudo, replica=self._obs_replica,
                             detail=hit_latency)
        lo, hi = int(tickets[0]), int(tickets[-1]) + 1
        self._answers[lo:hi] = values
        self._latencies[lo:hi] = hit_latency
        if full:
            self._answered[lo:hi] = True
            own: List[FlushedBatch] = []
        else:
            self._answered[lo:hi] = found
            miss_pos = np.flatnonzero(~found)
            own = scheduler.submit_block(tickets[miss_pos], xs[miss_pos],
                                         ys[miss_pos], arrivals[miss_pos])
        self.stats_collector.record_batch(
            size=hits,
            trigger="hit",
            backend_key=CACHE_BACKEND_KEY,
            service_time_s=probe_time,
            latencies_s=np.full(hits, hit_latency),
            first_arrival_s=float(arrivals[0]),
            completion_s=completion,
            kernel_queries=0,
        )
        # The block's arrivals moved time to its last timestamp: fire every
        # wait deadline that expired on the way (this dataset's pending
        # misses and other datasets alike) and serve everything in
        # flush-time order.  As on every submit path, this dataset's
        # deadlines exactly at the arrival instant stay pending so a
        # same-instant follow-up submission can still join them.
        own_rank = self._dataset_rank[dataset]
        collected = [(batch.flush_s, own_rank, dataset, batch)
                     for batch in own]
        for name, batch in self._expired_batches(t_last, exclusive=dataset):
            collected.append((batch.flush_s, self._dataset_rank[name], name,
                              batch))
        collected.sort(key=lambda item: item[:2])
        for _, _, name, batch in collected:
            self._serve(name, batch)
        return True

    def _serve(self, dataset: str, batch: FlushedBatch) -> None:
        if (self._serve_interceptor is not None
                and self._serve_interceptor(dataset, batch)):
            # The interceptor claimed the batch (dead or transiently failing
            # replica): it is re-dispatched by the cluster layer, not served
            # here.
            return
        if self._dedup and self._is_packable(dataset):
            self._serve_deduped(dataset, batch)
            return
        if self._observer is not None:
            backend, predicted = self.dispatcher.choose_with_estimate(
                batch.size)
            self._observer.record(EV_DISPATCH, batch.flush_s,
                                  batch=batch.batch_id,
                                  replica=self._obs_replica,
                                  detail=predicted,
                                  aux=self._observer.intern(backend.key))
        else:
            backend = self.dispatcher.choose(batch.size)
        entry, hit = self.registry.fetch_by_key(
            self._artifact_key(dataset, backend), spec=backend.spec)
        service_time = 0.0 if hit else entry.build_time_s
        answers, charge = self._charged_query(entry.artifact, backend,
                                              batch.xs, batch.ys, batch.size)
        service_time += charge
        self._finish_batch(batch, answers, service_time, backend.key,
                           batch.size, dataset=dataset)

    def _serve_deduped(self, dataset: str, batch: FlushedBatch) -> None:
        """The skew-aware fast path: canonicalize, dedup, probe, kernel misses.

        Every batch pays a small modeled host-side probe charge
        (:func:`~repro.service.cache.answer_cache_probe_time`, covering
        canonicalization + table probe); the kernel then runs only on the
        *unique miss* pairs, priced by the dispatcher at that unique count —
        which is how key skew moves the CPU/GPU crossover.  A batch answered
        entirely from the cache never touches a compute backend: it is booked
        on the host-side ``"cache"`` lane.
        """
        cache = self.answer_cache
        obs = self._observer
        keys = pack_query_pairs(batch.xs, batch.ys)
        service_time = answer_cache_probe_time(batch.size)
        if cache is not None:
            space = self._dataset_rank[dataset]
            answers, found, hits = cache.lookup(space, keys)
            if obs is not None:
                if hits:
                    obs.record(EV_CACHE_HITS, batch.flush_s,
                               batch=batch.batch_id,
                               replica=self._obs_replica, detail=float(hits))
                if hits < batch.size:
                    obs.record(EV_CACHE_MISSES, batch.flush_s,
                               batch=batch.batch_id,
                               replica=self._obs_replica,
                               detail=float(batch.size - hits))
            if hits == batch.size:
                self._finish_batch(batch, answers, service_time,
                                   CACHE_BACKEND_KEY, 0, dataset=dataset)
                return
            miss = np.flatnonzero(~found)
            miss_keys = keys[miss]
        else:
            miss = None
            miss_keys = keys
        kernel_queries = 0
        if miss_keys.size:
            unique_keys, inverse = np.unique(miss_keys, return_inverse=True)
            ux, uy = unpack_query_pairs(unique_keys)
            kernel_queries = int(unique_keys.size)
            if obs is not None:
                backend, predicted = self.dispatcher.choose_with_estimate(
                    kernel_queries)
                obs.record(EV_DISPATCH, batch.flush_s, batch=batch.batch_id,
                           replica=self._obs_replica, detail=predicted,
                           aux=obs.intern(backend.key))
            else:
                backend = self.dispatcher.choose(kernel_queries)
            entry, hit = self.registry.fetch_by_key(
                self._artifact_key(dataset, backend), spec=backend.spec)
            if not hit:
                service_time += entry.build_time_s
            unique_answers, charge = self._charged_query(
                entry.artifact, backend, ux, uy, kernel_queries)
            service_time += charge
            if cache is not None:
                resets_before = cache.resets
                cache.insert(space, unique_keys, unique_answers)
                if obs is not None:
                    obs.record(EV_CACHE_INSERT, batch.flush_s,
                               batch=batch.batch_id,
                               replica=self._obs_replica,
                               detail=float(kernel_queries))
                    if cache.resets != resets_before:
                        obs.record(EV_CACHE_RESET, batch.flush_s,
                                   replica=self._obs_replica,
                                   detail=float(cache.resets - resets_before))
                answers[miss] = unique_answers[inverse]
            else:
                answers = unique_answers[inverse]
            lane = backend.key
        else:
            lane = CACHE_BACKEND_KEY
        self._finish_batch(batch, answers, service_time, lane, kernel_queries,
                           dataset=dataset)

    def _store_results(self, idx: np.ndarray, answers: np.ndarray,
                       latencies: np.ndarray) -> None:
        """Write one served group into the ticket-indexed result tables.

        Tickets within a group are ascending; single-dataset streams issue
        consecutive ones, so the common case is a contiguous table window
        stored with slice assignments (bulk copies) instead of fancy-index
        scatters.
        """
        lo, hi = int(idx[0]), int(idx[-1]) + 1
        if hi - lo == idx.size:
            self._answers[lo:hi] = answers
            self._latencies[lo:hi] = latencies
            self._answered[lo:hi] = True
        else:
            self._answers[idx] = answers
            self._latencies[idx] = latencies
            self._answered[idx] = True

    def _finish_batch(self, batch: FlushedBatch, answers: np.ndarray,
                      service_time: float, backend_key: str,
                      kernel_queries: int, *,
                      dataset: Optional[str] = None) -> None:
        if self._service_factor != 1.0:
            # An injected slowdown stretches kernel time (degraded device);
            # the host-side cache lane is unaffected.
            if backend_key != CACHE_BACKEND_KEY:
                service_time *= self._service_factor
        # The batch starts once both it is flushed and its lane is free;
        # this serializes batches per backend so overload manifests as
        # queueing delay, not as impossible overlapping service times.
        start = max(batch.flush_s, self._backend_free_s.get(backend_key, 0.0))
        completion = start + service_time
        self._backend_free_s[backend_key] = completion
        effective = completion
        if (self._hedge_hook is not None and dataset is not None
                and backend_key != CACHE_BACKEND_KEY):
            # Offer the straggler to a second copy; an earlier duplicate
            # completion wins for the queries, the original lane stays
            # booked (the work is duplicated, not cancelled — the kernel
            # span below still shows the full original occupancy).
            hedged = self._hedge_hook(dataset, batch, completion)
            if hedged is not None and hedged < completion:
                effective = hedged
        latencies = effective - batch.arrival_s
        if self._debt is not None:
            # Retried queries carry the latency accrued before this
            # (re-)admission; everyone else's slot is zero.
            latencies = latencies + self._debt[batch.tickets]
        obs = self._observer
        if obs is not None:
            lane = obs.intern(backend_key)
            obs.record_span(EV_KERNEL_START, EV_KERNEL_END, start, completion,
                            batch=batch.batch_id, replica=self._obs_replica,
                            detail=service_time, aux=lane)
            # ``own=True``: batch tickets and the fresh latency array are
            # never mutated after this point.
            obs.record_block(EV_COMPLETE, effective, batch.tickets,
                             batch=batch.batch_id,
                             replica=self._obs_replica, detail=latencies,
                             own=True)
        self._store_results(batch.tickets, answers, latencies)
        self.stats_collector.record_batch(
            size=batch.size,
            trigger=batch.trigger,
            backend_key=backend_key,
            service_time_s=service_time,
            latencies_s=latencies,
            # Batch arrivals are non-decreasing by construction, so the
            # first element is the minimum — no reduction pass needed.
            first_arrival_s=float(batch.arrival_s[0]),
            completion_s=effective,
            kernel_queries=kernel_queries,
        )

    def _artifact_key(self, dataset: str, backend: Backend) -> ArtifactKey:
        cached = self._artifact_keys.get((dataset, backend.key))
        if cached is None:
            # A backend naming a real kernel gets its own per-backend
            # artifact (the registry compiles that kernel); the modeled
            # endpoints keep the legacy flavour variants.
            variant = backend.kernel or (
                "sequential" if backend.sequential else "parallel"
            )
            cached = ArtifactKey(dataset, "lca", backend.spec.name, variant)
            self._artifact_keys[(dataset, backend.key)] = cached
        return cached

    def _charged_query(self, artifact: Any, backend: Backend,
                       xs: np.ndarray, ys: np.ndarray,
                       batch_size: int) -> Tuple[np.ndarray, float]:
        """Run the kernel; return ``(answers, charged_time)``.

        With no calibration profile on the dispatcher the charge is the
        modeled :class:`ExecutionContext` elapsed time (bit-identical to the
        historic path).  With a measured profile the charge is the profile's
        prediction for this backend and batch size — the same number the
        dispatcher compared during backend choice, preserving the serving
        invariant that the dispatch estimate equals the booked charge.
        """
        if getattr(self.dispatcher, "profile", None) is None:
            ctx = ExecutionContext(backend.spec)
            answers = artifact.query(xs, ys, ctx=ctx)
            return answers, ctx.elapsed
        answers = artifact.query(xs, ys)
        return answers, self.dispatcher.estimate(backend, batch_size)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (f"LCAQueryService(datasets={self.datasets}, "
                f"pending={self.pending_count()}, "
                f"answered={int(self._answered[:self._next_ticket].sum())})")
