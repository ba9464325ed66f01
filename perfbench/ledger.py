"""Outside-in per-layer ledger: spans recorded around calls into each layer.

The benchmark times the repo's layers without changing any of them.  For the
duration of a traced pass, :class:`Tracer` replaces each boundary named in
:data:`BOUNDARIES` with a thin wrapper that records one span per call, then
puts every original attribute back.  Class methods are patched on the class
that defines them (for ``Router.route_block``, on every subclass that
overrides it); a module-level function is patched in every ``repro`` module
that holds it, because a caller looks the name up in its own module (for
example ``sort_pairs`` is called through ``repro.euler.dcel``).

Spans live in memory as parallel lists.  Each records its name, start, end
(``perf_counter_ns``), its parent span and the id shared by every span under
one top-level call.  :func:`summarize` turns the spans under the calls a
pass timed into per-boundary self time (a span's duration minus the part of
it covered by its child spans), calls, rows and counters; the harness's own
calls around the timed regions are left out.
:func:`write_perfetto` writes them as a Chrome trace-event JSON file that
Perfetto loads.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.obs.export import write_chrome_trace


def _len_arg(index: int, name: str) -> Callable[[tuple, dict], int]:
    """Rows of a call: the length of positional ``index`` or keyword ``name``."""

    def rows(args: tuple, kwargs: dict) -> int:
        value = kwargs[name] if name in kwargs else args[index]
        return len(value)

    return rows


def _int_arg(index: int, name: str) -> Callable[[tuple, dict], int]:
    """Rows of a call given directly as an integer argument."""

    def rows(args: tuple, kwargs: dict) -> int:
        return int(kwargs[name] if name in kwargs else args[index])

    return rows


@dataclass(frozen=True)
class Boundary:
    """One wrapped entry point of a layer.

    ``owner`` is ``"module.path:Class"`` for a method or ``"module.path"`` for
    a module-level function; ``attr`` is the method or function name.
    ``rows`` extracts the row count from ``(args, kwargs)`` (positional
    indices count ``self`` or ``cls`` for methods).  ``result_count`` names an extra
    counter and extracts its increment from the call's return value.
    """

    layer: str
    owner: str
    attr: str
    rows: Optional[Callable[[tuple, dict], int]] = None
    result_count: Optional[Tuple[str, Callable[[Any], int]]] = None

    @property
    def name(self) -> str:
        cls = self.owner.partition(":")[2]
        return f"{self.layer}.{cls}.{self.attr}" if cls else f"{self.layer}.{self.attr}"


#: Every layer boundary the traced run times, grouped by the repo's modules.
BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("service.cluster", "repro.service.cluster:ClusterService",
             "submit_many", rows=_len_arg(2, "xs")),
    Boundary("service.cluster", "repro.service.cluster:ClusterService", "warm"),
    Boundary("service.routing", "repro.service.routing:Router", "route_block",
             rows=_int_arg(4, "size")),
    Boundary("service.service", "repro.service.service:LCAQueryService",
             "submit_many", rows=_len_arg(2, "xs")),
    Boundary("service.service", "repro.service.service:LCAQueryService", "drain"),
    Boundary("service.service", "repro.service.service:LCAQueryService",
             "latencies", rows=_len_arg(1, "tickets")),
    Boundary("service.scheduler", "repro.service.scheduler:MicroBatchScheduler",
             "submit_block", rows=_len_arg(1, "tickets")),
    Boundary("service.scheduler", "repro.service.scheduler:MicroBatchScheduler",
             "advance_to"),
    Boundary("service.dispatch", "repro.service.dispatch:CostModelDispatcher",
             "choose", rows=_int_arg(1, "batch_size")),
    Boundary("service.dispatch", "repro.service.dispatch:CostModelDispatcher",
             "choose_with_estimate", rows=_int_arg(1, "batch_size")),
    Boundary("service.registry", "repro.service.registry:IndexRegistry", "fetch"),
    Boundary("service.registry", "repro.service.registry:IndexRegistry",
             "fetch_by_key", result_count=("misses", lambda r: 0 if r[1] else 1)),
    Boundary("service.cache", "repro.service.cache:AnswerCache", "lookup",
             rows=_len_arg(2, "keys"), result_count=("hits", lambda r: int(r[2]))),
    Boundary("service.cache", "repro.service.cache:AnswerCache", "insert",
             rows=_len_arg(2, "keys")),
    Boundary("service.stats", "repro.service.stats:StatsCollector",
             "record_batch", rows=lambda args, kwargs: int(kwargs["size"])),
    Boundary("lca", "repro.lca.inlabel:InlabelLCA", "query",
             rows=_len_arg(1, "xs")),
    Boundary("lca", "repro.lca.inlabel:SequentialInlabelLCA", "query",
             rows=_len_arg(1, "xs")),
    Boundary("lca", "repro.lca.inlabel", "build_inlabel_structure"),
    Boundary("lca", "repro.lca.dedup", "pack_query_pairs", rows=_len_arg(0, "xs")),
    Boundary("euler", "repro.euler.tour", "build_euler_tour"),
    Boundary("euler", "repro.euler.tour", "build_euler_tour_from_parents"),
    Boundary("euler", "repro.euler.dcel", "build_dcel"),
    Boundary("euler", "repro.euler.stats", "compute_tree_stats"),
    Boundary("primitives", "repro.primitives.sort", "sort_pairs",
             rows=_len_arg(0, "first")),
    Boundary("primitives", "repro.primitives.listrank", "list_rank",
             rows=_len_arg(0, "succ")),
    Boundary("primitives", "repro.primitives.rmq", "build_rmq",
             rows=_len_arg(0, "values")),
    Boundary("graphs", "repro.graphs.csr:CSRGraph", "from_edgelist",
             rows=_len_arg(1, "edges")),
    Boundary("graphs", "repro.graphs.components", "spanning_forest"),
    Boundary("graphs", "repro.graphs.bfs", "bfs_gpu"),
    Boundary("bridges", "repro.bridges.marking", "mark_cycle_edges"),
    Boundary("bridges", "repro.bridges.tarjan_vishkin",
             "find_bridges_tarjan_vishkin"),
    Boundary("bridges", "repro.bridges.hybrid", "find_bridges_hybrid"),
    Boundary("bridges", "repro.bridges.ck", "find_bridges_ck"),
    Boundary("workloads", "repro.workloads.replay", "replay"),
)


class SpanLog:
    """In-memory spans of one traced pass, as parallel lists indexed by span id."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.roots: List[int] = []
        self.rows: List[int] = []
        #: Increment of the boundary's result counter (0 if it has none).
        self.counts: List[int] = []
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str, rows: int) -> int:
        span = len(self.names)
        stack = self._stack
        parent = stack[-1] if stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.roots.append(self.roots[parent] if parent >= 0 else span)
        self.rows.append(rows)
        self.counts.append(0)
        self.ends.append(0)
        stack.append(span)
        self.starts.append(time.perf_counter_ns())
        return span

    def close(self, span: int) -> None:
        self.ends[span] = time.perf_counter_ns()
        self._stack.pop()

    def add(self, name: str, start: int, end: int, parent: int = -1,
            rows: int = -1, count: int = 0) -> int:
        """Append a finished span (used to build span trees by hand)."""
        span = len(self.names)
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.roots.append(self.roots[parent] if parent >= 0 else span)
        self.rows.append(rows)
        self.counts.append(count)
        return span

    def timed_roots(self, regions: Sequence[Tuple[int, int]]) -> Set[int]:
        """The parentless spans that lie inside ``regions``.

        A pass also calls into the program outside what it times, for
        example to digest its answers; spans under those calls are not
        the program's work and the ledger leaves them out.
        """
        return {
            span
            for span, (start, end, parent)
            in enumerate(zip(self.starts, self.ends, self.parents))
            if parent < 0 and any(lo <= start and end <= hi for lo, hi in regions)
        }

    def top_level_ns(self, regions: Sequence[Tuple[int, int]]) -> int:
        """Summed duration of the parentless spans that lie inside ``regions``."""
        return sum(self.ends[span] - self.starts[span]
                   for span in self.timed_roots(regions))


def _covered(intervals: List[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_times(log: SpanLog, regions: Sequence[Tuple[int, int]]) -> Dict[str, int]:
    """Self nanoseconds per span name, summed over the spans under the
    top-level calls inside ``regions``."""
    roots = log.timed_roots(regions)
    children: Dict[int, List[Tuple[int, int]]] = {}
    for span, parent in enumerate(log.parents):
        if parent >= 0:
            children.setdefault(parent, []).append((log.starts[span], log.ends[span]))
    totals: Dict[str, int] = {}
    for span, name in enumerate(log.names):
        if log.roots[span] not in roots:
            continue
        start, end = log.starts[span], log.ends[span]
        own = end - start - _covered(children.get(span, []), start, end)
        totals[name] = totals.get(name, 0) + own
    return totals


def summarize(log: SpanLog, regions: Sequence[Tuple[int, int]]
              ) -> Dict[str, Dict[str, float]]:
    """Per boundary name: ``self_s``, ``calls``, ``rows`` and the result
    counter, over the calls inside the pass's timed ``regions``."""
    out: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, str] = {}
    for b in BOUNDARIES:
        out[b.name] = {"self_s": 0.0, "calls": 0, "rows": 0}
        if b.result_count is not None:
            counters[b.name] = b.result_count[0]
            out[b.name][b.result_count[0]] = 0
    for name, ns in self_times(log, regions).items():
        out[name]["self_s"] = ns / 1e9
    roots = log.timed_roots(regions)
    for span, name in enumerate(log.names):
        if log.roots[span] not in roots:
            continue
        entry = out[name]
        entry["calls"] += 1
        if log.rows[span] > 0:
            entry["rows"] += log.rows[span]
        if name in counters:
            entry[counters[name]] += log.counts[span]
    return out


def _resolve(owner: str) -> Tuple[Any, Optional[type]]:
    module_name, _, cls_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return module, (getattr(module, cls_name) if cls_name else None)


def _subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _import_all_repro() -> None:
    """Import every ``repro`` submodule, so a lazy import made mid-run cannot
    copy a wrapped function into a module this tracer did not patch."""
    package = importlib.import_module("repro")
    for info in pkgutil.walk_packages(package.__path__, "repro."):
        importlib.import_module(info.name)


def patch_sites(boundary: Boundary) -> List[Tuple[Any, str, Any]]:
    """Every ``(holder, attribute, original)`` the boundary's wrapper replaces."""
    module, cls = _resolve(boundary.owner)
    if cls is not None:
        return [(c, boundary.attr, c.__dict__[boundary.attr])
                for c in _subclasses(cls) if boundary.attr in c.__dict__]
    original = getattr(module, boundary.attr)
    sites = []
    for name, mod in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and mod is not None:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    sites.append((mod, attr, original))
    return sites


class Tracer:
    """Installs the boundary wrappers, recording into :attr:`log`.

    Use as a context manager; leaving it restores every patched attribute.
    ``log`` may be swapped between passes while the wrappers stay installed.
    """

    def __init__(self) -> None:
        self.log = SpanLog()
        self._patched: List[Tuple[Any, str, Any]] = []

    def _wrapper(self, boundary: Boundary, fn: Callable) -> Callable:
        name = boundary.name
        rows_of = boundary.rows
        count_of = boundary.result_count[1] if boundary.result_count else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            log = tracer.log
            span = log.open(name, rows_of(args, kwargs) if rows_of else -1)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.close(span)
            if count_of is not None:
                log.counts[span] = count_of(result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        _import_all_repro()
        try:
            for boundary in BOUNDARIES:
                for holder, attr, original in patch_sites(boundary):
                    self._patched.append((holder, attr, original))
                    if isinstance(original, classmethod):
                        wrapped = classmethod(self._wrapper(boundary, original.__func__))
                    else:
                        wrapped = self._wrapper(boundary, original)
                    setattr(holder, attr, wrapped)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._patched:
            holder, attr, original = self._patched.pop()
            setattr(holder, attr, original)


def write_perfetto(log: SpanLog, path: str, *, process: str) -> None:
    """Write ``log`` as Chrome trace-event JSON (loadable by Perfetto)."""
    t0 = min(log.starts) if log.starts else 0
    events: List[Dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": 1, "tid": 1,
         "args": {"name": process}},
    ]
    for span, name in enumerate(log.names):
        args: Dict[str, Any] = {"span": span, "parent": log.parents[span],
                                "root": log.roots[span]}
        if log.rows[span] >= 0:
            args["rows"] = log.rows[span]
        events.append({
            "ph": "X", "name": name, "cat": name.rsplit(".", 1)[0],
            "pid": 1, "tid": 1,
            "ts": (log.starts[span] - t0) / 1e3,
            "dur": (log.ends[span] - log.starts[span]) / 1e3,
            "args": args,
        })
    write_chrome_trace(path, events)
