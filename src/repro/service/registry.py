"""Dataset store and LRU-cached index registry for the serving subsystem.

A production query server cannot afford to rebuild an Euler tour or the
Inlabel tables on every request: preprocessing costs milliseconds while a
query costs nanoseconds.  This module therefore separates the two concerns:

* :class:`ForestStore` owns the *raw* named datasets — trees as parent arrays
  and graphs as edge lists — registered either eagerly or through a lazy
  zero-argument loader (so a registry over hundreds of datasets does not
  materialize them all up front);
* :class:`IndexRegistry` owns the *derived* artifacts (Inlabel LCA
  structures, Euler tours, tree statistics, CSR adjacency, bridge results),
  built lazily on first use, keyed by ``(dataset, kind, device)`` and held in
  a byte-accounted LRU cache with optional capacity-driven eviction;
* :class:`InlabelTableMemo` holds the host-side Inlabel tables by content, so
  both execution flavours — and, in a cluster, every replica — of one tree
  share a single build.

Builds are charged to an :class:`~repro.device.ExecutionContext` on the
artifact's device, so the modeled preprocessing cost of a cache miss is
available to the service layer (a cold dataset's first batch pays for its own
index build, exactly like a real serving system warming a cache) — even when
its host tables were shared.
"""

from __future__ import annotations

import dataclasses
import hashlib
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..bridges import find_bridges_tarjan_vishkin
from ..device import DeviceSpec, ExecutionContext
from ..errors import ServiceError
from ..euler import build_euler_tour_from_parents, tree_statistics_from_parents
from ..graphs import CSRGraph, EdgeList
from ..graphs.trees import validate_parents
from ..lca import (
    InlabelLCA,
    InlabelTables,
    SequentialInlabelLCA,
    build_inlabel_tables,
)

__all__ = [
    "ArtifactKey",
    "CacheEntry",
    "ForestStore",
    "IndexRegistry",
    "InlabelTableMemo",
    "ARTIFACT_KINDS",
    "artifact_nbytes",
]

#: Artifact kinds the registry knows how to build.
ARTIFACT_KINDS = ("lca", "tour", "stats", "csr", "bridges")


def artifact_nbytes(obj: object) -> int:
    """Recursively sum the ``nbytes`` of every NumPy array reachable from ``obj``.

    Walks dataclass fields, instance ``__dict__`` attributes, dicts, lists and
    tuples; every distinct array buffer is counted once — views are resolved
    to their base array, so an artifact holding both an array and slices of
    it is not double-counted.  Non-array leaves contribute nothing — the
    arrays utterly dominate the footprint of every artifact this registry
    caches.
    """
    seen: set = set()
    buffers: set = set()
    total = 0
    stack = [obj]
    while stack:
        item = stack.pop()
        if item is None or id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            base = item
            while isinstance(base.base, np.ndarray):
                base = base.base
            if id(base) not in buffers:
                buffers.add(id(base))
                total += int(base.nbytes)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, (list, tuple)):
            stack.extend(item)
        elif dataclasses.is_dataclass(item) and not isinstance(item, type):
            stack.extend(getattr(item, f.name) for f in dataclasses.fields(item))
        elif hasattr(item, "__dict__"):
            stack.extend(vars(item).values())
    return total


@dataclass(frozen=True)
class ArtifactKey:
    """Cache key: which derived artifact of which dataset on which device.

    ``variant`` distinguishes flavours of the same kind on the same device —
    for ``"lca"`` it is ``"sequential"`` or ``"parallel"`` (which execution
    flavour of the Inlabel algorithm the entry holds), or the key of a real
    kernel backend from the :mod:`repro.backends` registry (the entry then
    holds that backend's compiled kernel).  Every key is cached and charged
    on its own; only the two Inlabel flavours share host tables (see
    :class:`InlabelTableMemo`).
    """

    dataset: str
    kind: str
    device: str
    variant: str = ""


@dataclass
class CacheEntry:
    """One cached artifact with its accounting metadata."""

    key: ArtifactKey
    artifact: object
    nbytes: int
    build_time_s: float
    hits: int = 0


class ForestStore:
    """Named raw datasets: trees (parent arrays) and graphs (edge lists).

    Datasets can be registered eagerly (pass the data) or lazily (pass a
    zero-argument ``loader``); lazy datasets are materialized once on first
    access and memoized.
    """

    def __init__(self) -> None:
        self._trees: Dict[str, Optional[np.ndarray]] = {}
        self._graphs: Dict[str, Optional[EdgeList]] = {}
        self._loaders: Dict[str, Callable[[], object]] = {}
        self._validate_on_load: Dict[str, bool] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _check_name(self, name: str) -> None:
        if not name:
            raise ServiceError("dataset name must be non-empty")
        if name in self._trees or name in self._graphs:
            raise ServiceError(f"dataset {name!r} is already registered")

    def add_tree(self, name: str, parents: Optional[np.ndarray] = None, *,
                 loader: Optional[Callable[[], np.ndarray]] = None,
                 validate: bool = False) -> None:
        """Register a tree dataset, either eagerly or via a lazy loader.

        With ``validate=True`` the parent array is checked with
        :func:`~repro.graphs.trees.validate_parents` — immediately for an
        eager registration, at materialization time for a lazy one.
        """
        self._check_name(name)
        if (parents is None) == (loader is None):
            raise ServiceError("pass exactly one of parents= or loader=")
        if parents is not None:
            parents = np.asarray(parents, dtype=np.int64)
            if validate:
                validate_parents(parents)
            self._trees[name] = parents
        else:
            self._trees[name] = None
            self._loaders[name] = loader  # type: ignore[assignment]
            self._validate_on_load[name] = validate

    def add_graph(self, name: str, edges: Optional[EdgeList] = None, *,
                  loader: Optional[Callable[[], EdgeList]] = None) -> None:
        """Register a graph dataset, either eagerly or via a lazy loader."""
        self._check_name(name)
        if (edges is None) == (loader is None):
            raise ServiceError("pass exactly one of edges= or loader=")
        if edges is not None:
            self._graphs[name] = edges
        else:
            self._graphs[name] = None
            self._loaders[name] = loader  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def has_tree(self, name: str) -> bool:
        """Whether ``name`` is a registered tree dataset."""
        return name in self._trees

    def has_graph(self, name: str) -> bool:
        """Whether ``name`` is a registered graph dataset."""
        return name in self._graphs

    @property
    def names(self) -> List[str]:
        """All registered dataset names (trees first, then graphs)."""
        return list(self._trees) + list(self._graphs)

    def tree(self, name: str) -> np.ndarray:
        """The parent array of tree dataset ``name`` (materializing it if lazy)."""
        if name not in self._trees:
            raise ServiceError(f"unknown tree dataset {name!r}")
        if self._trees[name] is None:
            # The loader is removed only after it succeeds (and the loaded
            # array passes validation when requested), so a transient loader
            # failure leaves the dataset retryable, not broken.
            parents = np.asarray(self._loaders[name](), dtype=np.int64)
            if self._validate_on_load[name]:
                validate_parents(parents)
            self._trees[name] = parents
            del self._loaders[name]
            del self._validate_on_load[name]
        return self._trees[name]  # type: ignore[return-value]

    def graph(self, name: str) -> EdgeList:
        """The edge list of graph dataset ``name`` (materializing it if lazy)."""
        if name not in self._graphs:
            raise ServiceError(f"unknown graph dataset {name!r}")
        if self._graphs[name] is None:
            self._graphs[name] = self._loaders[name]()  # type: ignore[assignment]
            del self._loaders[name]
        return self._graphs[name]  # type: ignore[return-value]


class InlabelTableMemo:
    """Inlabel tables by tree content, built once and shared while in use.

    Keyed by a BLAKE2b digest of the parent array, confirmed on a hit by
    comparing the arrays.  Tables are held weakly, so capacity eviction still
    frees them once no registry holds an artifact made from them.  One memo
    serves one target: a service, or every replica of a cluster.
    """

    def __init__(self) -> None:
        self._entries: Dict[
            bytes, Tuple[np.ndarray, "weakref.ref[InlabelTables]"]] = {}

    def tables(self, parents: np.ndarray) -> InlabelTables:
        """The tables of ``parents`` (an int64 parent array), built on a miss."""
        parents = np.asarray(parents, dtype=np.int64)
        digest = hashlib.blake2b(parents.tobytes(), digest_size=16).digest()
        entry = self._entries.get(digest)
        if entry is not None:
            built_from, ref = entry
            tables = ref()
            if tables is not None and np.array_equal(built_from, parents):
                return tables
        tables = build_inlabel_tables(parents)
        self._entries = {key: value for key, value in self._entries.items()
                         if value[1]() is not None}
        self._entries[digest] = (parents, weakref.ref(tables))
        return tables


class IndexRegistry:
    """Byte-accounted LRU cache of derived artifacts over a :class:`ForestStore`.

    Parameters
    ----------
    store:
        The raw datasets the artifacts are derived from.
    capacity_bytes:
        Optional cache capacity.  After every insertion, least-recently-used
        entries are evicted until the accounted bytes fit; the entry just
        inserted is never evicted (a single artifact larger than the capacity
        is served but not retained alongside anything else).  ``None`` means
        unbounded.

    Each key is its own entry with its own bytes and modeled build time, but
    the ``"sequential"`` and ``"parallel"`` Inlabel entries take their host
    tables from :attr:`inlabel_tables` (a cluster shares one memo).
    """

    def __init__(self, store: ForestStore, *,
                 capacity_bytes: Optional[int] = None) -> None:
        if capacity_bytes is not None and capacity_bytes <= 0:
            raise ServiceError("capacity_bytes must be positive (or None)")
        self.store = store
        self.capacity_bytes = capacity_bytes
        self._cache: "OrderedDict[ArtifactKey, CacheEntry]" = OrderedDict()
        self._bytes_in_use = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._build_time_s = 0.0
        #: Optional observability hook, called as ``hook(event, key, value)``
        #: with ``("load", key, modeled build seconds)`` after each miss
        #: build and ``("evict", key, freed bytes)`` after each eviction.
        #: The service layer wires this to the attached trace recorder.
        self.event_hook: Optional[Callable[[str, ArtifactKey, float], None]] = None
        #: Where the Inlabel flavours get their host tables from.
        self.inlabel_tables = InlabelTableMemo()

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def _build(self, key: ArtifactKey, spec: DeviceSpec,
               ctx: ExecutionContext) -> object:
        kind = key.kind
        if kind == "lca":
            parents = self.store.tree(key.dataset)
            if key.variant == "sequential":
                return SequentialInlabelLCA.from_tables(
                    self.inlabel_tables.tables(parents), ctx=ctx)
            if key.variant in ("", "parallel"):
                return InlabelLCA.from_tables(
                    self.inlabel_tables.tables(parents), ctx=ctx)
            # Any other variant names a real kernel backend; compile its
            # per-tree kernel as the artifact (lazy import: the registry
            # stays usable without the backend package loaded).
            from ..backends import get_kernel_backend

            return get_kernel_backend(key.variant).compile(parents, ctx=ctx)
        if kind == "tour":
            return build_euler_tour_from_parents(self.store.tree(key.dataset), ctx=ctx)
        if kind == "stats":
            return tree_statistics_from_parents(self.store.tree(key.dataset), ctx=ctx)
        if kind == "csr":
            return CSRGraph.from_edgelist(self.store.graph(key.dataset), ctx=ctx)
        if kind == "bridges":
            return find_bridges_tarjan_vishkin(self.store.graph(key.dataset), ctx=ctx)
        raise ServiceError(
            f"unknown artifact kind {kind!r}; known kinds: {ARTIFACT_KINDS}"
        )

    # ------------------------------------------------------------------
    # Cache interface
    # ------------------------------------------------------------------
    def fetch(self, dataset: str, kind: str, spec: DeviceSpec,
              *, ctx: Optional[ExecutionContext] = None,
              sequential: Optional[bool] = None) -> Tuple[CacheEntry, bool]:
        """Return ``(entry, hit)`` for an artifact, building it on a miss.

        On a miss the build is charged to ``ctx`` when given, otherwise to a
        fresh private context on ``spec``; either way the entry records the
        modeled build time so callers can account cold-start latency.

        For ``kind="lca"``, ``sequential`` selects the execution flavour; it
        must match the :class:`~repro.service.dispatch.Backend` that will
        serve the batches, so dispatch estimates equal actual charges.  When
        omitted it is inferred from the spec (single-core CPU → sequential).
        """
        variant = ""
        if kind == "lca":
            if sequential is None:
                sequential = spec.kind == "cpu" and spec.cores == 1
            variant = "sequential" if sequential else "parallel"
        return self.fetch_by_key(ArtifactKey(dataset, kind, spec.name, variant),
                                 spec=spec, ctx=ctx)

    def fetch_by_key(self, key: ArtifactKey, *, spec: Optional[DeviceSpec] = None,
                     ctx: Optional[ExecutionContext] = None
                     ) -> Tuple[CacheEntry, bool]:
        """Keyed fast path of :meth:`fetch` for callers that hold a prebuilt key.

        The service layer memoizes one :class:`ArtifactKey` per
        (dataset, backend) pair, so its per-batch cache lookup is a single
        dict probe with no key construction or variant resolution.  ``spec``
        is only needed on a miss (to build and charge the artifact), so it
        must be passed whenever the entry might not be cached.
        """
        entry = self._cache.get(key)
        if entry is not None:
            self._hits += 1
            entry.hits += 1
            self._cache.move_to_end(key)
            return entry, True

        self._misses += 1
        if spec is None:
            raise ServiceError(
                f"artifact {key} is not cached and no device spec was given "
                f"to build it"
            )
        build_ctx = ctx if ctx is not None else ExecutionContext(spec)
        before = build_ctx.elapsed
        artifact = self._build(key, spec, build_ctx)
        build_time = build_ctx.elapsed - before
        entry = CacheEntry(key=key, artifact=artifact,
                           nbytes=artifact_nbytes(artifact),
                           build_time_s=build_time)
        self._cache[key] = entry
        self._bytes_in_use += entry.nbytes
        self._build_time_s += build_time
        if self.event_hook is not None:
            self.event_hook("load", key, float(build_time))
        self._evict_over_capacity(keep=key)
        return entry, False

    def get(self, dataset: str, kind: str, spec: DeviceSpec,
            *, ctx: Optional[ExecutionContext] = None,
            sequential: Optional[bool] = None) -> object:
        """The artifact itself (see :meth:`fetch` for the accounting variant)."""
        entry, _ = self.fetch(dataset, kind, spec, ctx=ctx, sequential=sequential)
        return entry.artifact

    def _evict_over_capacity(self, keep: ArtifactKey) -> None:
        if self.capacity_bytes is None:
            return
        while self._bytes_in_use > self.capacity_bytes and len(self._cache) > 1:
            victim_key = next(k for k in self._cache if k != keep)
            self.evict(victim_key)

    def evict(self, key: ArtifactKey) -> None:
        """Drop one cached artifact (a no-op if it is not cached)."""
        entry = self._cache.pop(key, None)
        if entry is not None:
            self._bytes_in_use -= entry.nbytes
            self._evictions += 1
            if self.event_hook is not None:
                self.event_hook("evict", key, float(entry.nbytes))

    def clear(self) -> None:
        """Drop every cached artifact (counted as evictions)."""
        for key in list(self._cache):
            self.evict(key)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def keys(self) -> List[ArtifactKey]:
        """Cached keys from least- to most-recently used."""
        return list(self._cache)

    def __contains__(self, key: ArtifactKey) -> bool:
        return key in self._cache

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def bytes_in_use(self) -> int:
        """Accounted bytes of all cached artifacts."""
        return self._bytes_in_use

    @property
    def hits(self) -> int:
        """Number of cache hits so far."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of cache misses (i.e. artifact builds) so far."""
        return self._misses

    @property
    def evictions(self) -> int:
        """Number of entries evicted so far."""
        return self._evictions

    @property
    def build_time_s(self) -> float:
        """Total modeled time spent building artifacts on misses."""
        return self._build_time_s

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups (0.0 before the first lookup)."""
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        cap = "unbounded" if self.capacity_bytes is None else f"{self.capacity_bytes}B"
        return (f"IndexRegistry(entries={len(self._cache)}, "
                f"bytes={self._bytes_in_use}, capacity={cap}, "
                f"hit_rate={self.hit_rate:.2f})")
