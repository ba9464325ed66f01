"""The Inlabel LCA algorithm of Schieber and Vishkin (paper §3.1).

The algorithm maps every tree node to a node of a conceptual full binary tree
``B`` (identified with its inorder number) such that

* nodes with the same *inlabel* form top-down paths in the tree
  (path-partition property), and
* descendants in the tree map to descendants in ``B`` (inorder property).

With three per-node tables — ``inlabel``, ``ascendant`` (the set of ``B``
levels used by inlabel paths above the node) and ``head`` (the shallowest node
of every inlabel path) — any LCA query is answered with a constant number of
word operations.

Preprocessing needs the preorder number, subtree size and depth of every node,
which the GPU implementation obtains with the Euler tour technique; everything
after that is a constant number of map kernels plus an ``O(log n)``-round
head-jumping pass for ``ascendant``.

Two execution flavours are provided:

* :class:`InlabelLCA` — the data-parallel implementation (the paper's GPU
  algorithm, also used for the multi-core CPU baseline by pointing the
  execution context at the multi-core device spec);
* :class:`SequentialInlabelLCA` — the single-core CPU baseline; identical
  results, but preprocessing is charged as a sequential DFS plus a sequential
  labeling pass and queries are charged one by one.

Both flavours are made from one read-only :class:`InlabelTables` value (see
:func:`build_inlabel_tables`), so one build can back any number of them; the
parallel flavour replays the build's recorded kernel charges into its own
context, which reproduces a fresh build's modeled cost bit for bit.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..device import GTX980, ExecutionContext, KernelRecord, ensure_context
from ..errors import InvalidQueryError
from ..euler import TreeStats, tree_statistics_from_parents
from ..graphs.trees import query_bounds_mask, validate_parents
from ..primitives import elementwise

__all__ = [
    "InlabelStructure",
    "InlabelTables",
    "build_inlabel_structure",
    "build_inlabel_tables",
    "InlabelLCA",
    "SequentialInlabelLCA",
    "QueryKernelCost",
    "INLABEL_QUERY_COST",
]


def _ilog2(x: np.ndarray) -> np.ndarray:
    """Elementwise ``floor(log2(x))`` for positive integers (exact)."""
    x = np.asarray(x, dtype=np.int64)
    _, exp = np.frexp(x.astype(np.float64))
    return (exp - 1).astype(np.int64)


@dataclass
class InlabelStructure:
    """The three Schieber–Vishkin tables plus the node statistics they need.

    Attributes
    ----------
    inlabel:
        Inlabel number of every node (1-based; a value of the full binary tree
        ``B`` identified by its inorder number).
    ascendant:
        Bit set of ``B`` levels of the inlabel paths intersecting the
        root-to-node path.
    head:
        For every inlabel value, the node closest to the root on that inlabel
        path (indexed by inlabel value; unused slots are ``-1``).
    depth, parent, preorder, subtree_size:
        Standard node statistics (see :class:`repro.euler.TreeStats`).
    levels:
        Number of bits ``L`` such that every inlabel fits in ``L`` bits
        (``B`` has ``2^L - 1`` nodes).
    """

    inlabel: np.ndarray
    ascendant: np.ndarray
    head: np.ndarray
    depth: np.ndarray
    parent: np.ndarray
    preorder: np.ndarray
    subtree_size: np.ndarray
    root: int
    levels: int

    @property
    def n(self) -> int:
        """Number of tree nodes."""
        return int(self.inlabel.size)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the node tables (sum over all array fields)."""
        return sum(
            int(value.nbytes)
            for field_ in dataclasses.fields(self)
            for value in (getattr(self, field_.name),)
            if isinstance(value, np.ndarray)
        )


def build_inlabel_structure(stats: TreeStats,
                            *, ctx: Optional[ExecutionContext] = None
                            ) -> InlabelStructure:
    """Compute the Inlabel tables from preorder / subtree size / depth / parent.

    All steps are bulk map kernels except the ``ascendant`` computation, which
    jumps from inlabel-path head to inlabel-path head and therefore needs at
    most ``L = O(log n)`` rounds (the number of distinct inlabels on any
    root-to-node path is at most ``L``).
    """
    ctx = ensure_context(ctx)
    n = stats.n
    pre = stats.preorder.astype(np.int64)
    size = stats.subtree_size.astype(np.int64)
    parent = stats.parent.astype(np.int64)
    depth = stats.depth.astype(np.int64)
    root = stats.root

    # inlabel(v): the element of [pre(v), pre(v)+size(v)-1] with the most
    # trailing zeros, computed with the classical XOR trick.
    lo = pre - 1
    hi = pre + size - 1
    i = _ilog2(lo ^ hi)
    inlabel = (hi >> i) << i
    elementwise(n, ops_per_element=6.0, bytes_per_element=32.0, ctx=ctx,
                name="inlabel_compute")

    levels = int(_ilog2(np.asarray([max(n, 1)]))[0]) + 1

    # head: the shallowest node of every inlabel path.  A node is a path head
    # iff it is the root or its parent lies on a different inlabel path.
    head = np.full(1 << (levels + 1), -1, dtype=np.int64)
    parent_inlabel = np.where(parent >= 0, inlabel[np.maximum(parent, 0)], -1)
    is_head = parent_inlabel != inlabel
    head[inlabel[is_head]] = np.flatnonzero(is_head)
    elementwise(n, ops_per_element=3.0, bytes_per_element=32.0, ctx=ctx,
                name="inlabel_head_scatter")

    # ascendant: prefix-OR of inlabel level bits along root-to-node paths.
    # Each node's value only depends on the ≤ L inlabel-path heads above it,
    # so on the device one thread per node walks head-to-head inside a single
    # kernel; the lockstep rounds below vectorize that walk and the cost is
    # charged once with the total number of hops as the work.
    # ``x & -x`` isolates the lowest set bit directly — the same value as
    # ``1 << trailing_zeros(x)`` without the float round-trip through frexp.
    ascendant = inlabel & -inlabel
    # jump[v]: the node just above v's inlabel path (parent of the path head),
    # or -1 when the path contains the root.
    path_head = head[inlabel]
    jump = np.where(path_head == root, -1, parent[np.maximum(path_head, 0)])
    jump = np.where(path_head >= 0, jump, -1)
    rounds = 0
    total_hops = 0
    while True:
        active = jump >= 0
        if not active.any():
            break
        tgt = jump[active]
        tgt_inlabel = inlabel[tgt]
        ascendant[active] |= tgt_inlabel & -tgt_inlabel
        tgt_head = head[tgt_inlabel]
        new_jump = np.where(tgt_head == root, -1, parent[np.maximum(tgt_head, 0)])
        jump[active] = new_jump
        total_hops += int(active.sum())
        rounds += 1
        if rounds > levels + 2:  # pragma: no cover - defensive
            raise RuntimeError("ascendant computation exceeded the level bound")
    ctx.kernel(
        "inlabel_ascendant_walk",
        threads=n,
        ops=2.0 * n + 4.0 * total_hops,
        bytes_read=16.0 * n + 32.0 * total_hops,
        bytes_written=8.0 * n,
        launches=1,
        random_access=True,
    )

    return InlabelStructure(
        inlabel=inlabel,
        ascendant=ascendant,
        head=head,
        depth=depth,
        parent=parent,
        preorder=pre,
        subtree_size=size,
        root=root,
        levels=levels,
    )


#: Phase every Inlabel preprocessing charge is booked under.
_PREPROCESSING = "preprocessing"


@dataclass(frozen=True)
class InlabelTables:
    """Read-only tree statistics and Inlabel structure of one parent array,
    plus the parallel build's *charge tape*: its kernel records, in order."""

    stats: TreeStats
    structure: InlabelStructure
    tape: Tuple[KernelRecord, ...]

    def replay(self, ctx: ExecutionContext) -> None:
        """Charge the parallel build to ``ctx``, recomputed on its device.

        The totals, breakdown and trace then equal those of a fresh build.
        """
        with ctx.phase(_PREPROCESSING):
            for record in self.tape:
                with ctx.phase(record.phase):
                    ctx.kernel(
                        record.name,
                        threads=record.threads,
                        ops=record.ops,
                        bytes_read=record.bytes_read,
                        bytes_written=record.bytes_written,
                        launches=record.launches,
                        divergent=record.divergent,
                        random_access=record.random_access,
                    )


def build_inlabel_tables(parents: np.ndarray) -> InlabelTables:
    """Run the parallel Inlabel preprocessing once, recording its charges.

    Kernel shapes do not depend on the device, so neither does the tape.
    """
    recorder = ExecutionContext(GTX980, trace=True)
    with recorder.phase(_PREPROCESSING):
        stats = tree_statistics_from_parents(
            np.asarray(parents, dtype=np.int64), ctx=recorder)
        structure = build_inlabel_structure(stats, ctx=recorder)
    for table in (stats, structure):
        for field_ in dataclasses.fields(table):
            value = getattr(table, field_.name)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
    return InlabelTables(stats=stats, structure=structure,
                         tape=tuple(recorder.records))


def _query_inlabel(structure: InlabelStructure, xs: np.ndarray, ys: np.ndarray
                   ) -> np.ndarray:
    """Vectorized constant-time LCA queries against an Inlabel structure.

    Pure computation (no cost accounting); both execution flavours wrap this.
    """
    inlabel = structure.inlabel
    ascendant = structure.ascendant
    head = structure.head
    depth = structure.depth
    parent = structure.parent

    xs = np.asarray(xs, dtype=np.int64)
    ys = np.asarray(ys, dtype=np.int64)
    if xs.shape != ys.shape:
        raise InvalidQueryError("query arrays must have the same shape")
    if xs.size == 0:
        return np.empty(0, dtype=np.int64)
    n = structure.n
    # Single fused bounds check (uint64 reinterpretation) instead of the
    # four separate min/max reduction passes over the query arrays.
    if query_bounds_mask(xs, ys, n).any():
        raise InvalidQueryError("query nodes out of range")

    ix = inlabel[xs]
    iy = inlabel[ys]
    answer = np.empty(xs.size, dtype=np.int64)

    same = ix == iy
    if same.any():
        take_x = depth[xs[same]] <= depth[ys[same]]
        answer[same] = np.where(take_x, xs[same], ys[same])

    diff = ~same
    if diff.any():
        dx = xs[diff]
        dy = ys[diff]
        ixd = ix[diff]
        iyd = iy[diff]
        # i: highest bit where the inlabels differ; low_j: the lowest common
        # ascendant level at or above i — the B-level bit of the LCA's
        # inlabel.  ``x & -x`` isolates it directly; no trailing-zero count
        # (and its frexp float round-trip) is needed, because every use of
        # the level j below only ever needs the bit ``1 << j`` or the mask
        # ``(1 << j) - 1``.
        i = _ilog2(ixd ^ iyd)
        common = ascendant[dx] & ascendant[dy]
        common_high = (common >> i) << i
        low_j = common_high & -common_high
        inlabel_z = (ixd & ~((low_j << 1) - 1)) | low_j

        def climb(nodes: np.ndarray, node_inlabels: np.ndarray) -> np.ndarray:
            """Lowest ancestor of each node whose inlabel equals inlabel_z."""
            out = nodes.copy()
            needs_climb = node_inlabels != inlabel_z
            if needs_climb.any():
                nn = nodes[needs_climb]
                # Highest ascendant level of the node strictly below j: the
                # inlabel path entered just below the LCA's path.
                below = ascendant[nn] & (low_j[needs_climb] - 1)
                k = _ilog2(below)
                high_k = np.int64(1) << k
                inlabel_w = (node_inlabels[needs_climb]
                             & ~((high_k << 1) - 1)) | high_k
                w = head[inlabel_w]
                out[needs_climb] = parent[w]
            return out

        xbar = climb(dx, ixd)
        ybar = climb(dy, iyd)
        take_x = depth[xbar] <= depth[ybar]
        answer[diff] = np.where(take_x, xbar, ybar)
    return answer


@dataclass(frozen=True)
class QueryKernelCost:
    """Modeled per-query kernel shape of a constant-time LCA query.

    Both execution flavours charge their query kernels from these constants,
    and :mod:`repro.service.dispatch` prices candidate backends with the very
    same numbers — so a dispatch decision is, by construction, a comparison of
    the costs the backends would actually be charged.
    """

    #: Word operations per query (a few dozen ALU ops).
    ops: float
    #: Bytes read per query (node tables hit through scattered reads).
    bytes_read: float
    #: Bytes written per query (the answer).
    bytes_written: float


#: The modeled cost of one Schieber–Vishkin Inlabel query.
INLABEL_QUERY_COST = QueryKernelCost(ops=40.0, bytes_read=112.0, bytes_written=8.0)


class _InlabelFlavour:
    """What both execution flavours share: their tables and how they are made."""

    def __init__(self, parents: np.ndarray, *, ctx: Optional[ExecutionContext] = None,
                 validate: bool = False) -> None:
        parents = np.asarray(parents, dtype=np.int64)
        if validate:
            validate_parents(parents)
        self._adopt(build_inlabel_tables(parents), ctx)

    @classmethod
    def from_tables(cls, tables: InlabelTables,
                    *, ctx: Optional[ExecutionContext] = None):
        """Make this flavour from prebuilt tables, charging its preprocessing.

        Equals ``cls(parents, ctx=ctx)`` for the parents of ``tables`` —
        arrays, answers and every charge to ``ctx``.
        """
        self = cls.__new__(cls)
        self._adopt(tables, ctx)
        return self

    def _adopt(self, tables: InlabelTables,
               ctx: Optional[ExecutionContext]) -> None:
        self.tables = tables
        self.structure = tables.structure
        self.stats = tables.stats
        self._charge_preprocessing(ensure_context(ctx))

    @property
    def n(self) -> int:
        """Number of tree nodes."""
        return self.structure.n


class InlabelLCA(_InlabelFlavour):
    """Data-parallel Inlabel LCA (the paper's GPU algorithm).

    Parameters
    ----------
    parents:
        Tree as a parent array (``-1`` marks the root).
    ctx:
        Execution context charged with the preprocessing cost (Euler tour +
        labeling kernels).  Point it at :data:`repro.device.GTX980` for the
        GPU algorithm or :data:`repro.device.XEON_X5650_MULTI` for the OpenMP
        multi-core baseline.
    validate:
        When true, validate the parent array up front (costs an extra O(n log n)
        host-side check; disable for large benchmark runs).
    """

    name = "Parallel Inlabel"

    def _charge_preprocessing(self, ctx: ExecutionContext) -> None:
        self.tables.replay(ctx)

    def query(self, xs: np.ndarray, ys: np.ndarray,
              *, ctx: Optional[ExecutionContext] = None) -> np.ndarray:
        """Answer a batch of LCA queries; one map kernel over the batch."""
        ctx = ensure_context(ctx)
        xs = np.atleast_1d(np.asarray(xs, dtype=np.int64))
        ys = np.atleast_1d(np.asarray(ys, dtype=np.int64))
        with ctx.phase("queries"):
            out = _query_inlabel(self.structure, xs, ys)
            ctx.kernel(
                "inlabel_query_batch",
                threads=int(xs.size),
                ops=INLABEL_QUERY_COST.ops * xs.size,
                bytes_read=INLABEL_QUERY_COST.bytes_read * xs.size,
                bytes_written=INLABEL_QUERY_COST.bytes_written * xs.size,
                launches=1,
                random_access=True,
            )
        return out


class SequentialInlabelLCA(_InlabelFlavour):
    """Single-core CPU Inlabel baseline (identical answers, sequential cost).

    The preprocessing is charged as one sequential DFS over the tree (to get
    preorder, subtree sizes and depths) followed by a sequential labeling
    pass; queries are charged one at a time.  The tables are the very ones
    the parallel flavour builds — only the cost model differs — so the two
    flavours are bit-for-bit consistent.
    """

    name = "Sequential Inlabel"

    #: Modeled sequential cost per node of the DFS + labeling preprocessing:
    #: a handful of dependent pointer dereferences per node.
    _PREPROCESS_OPS_PER_NODE = 30.0
    _PREPROCESS_BYTES_PER_NODE = 180.0

    def _charge_preprocessing(self, ctx: ExecutionContext) -> None:
        n = self.n
        with ctx.phase(_PREPROCESSING):
            ctx.sequential(
                "cpu_inlabel_preprocess",
                ops=self._PREPROCESS_OPS_PER_NODE * n,
                bytes_touched=self._PREPROCESS_BYTES_PER_NODE * n,
                random_access=True,
            )

    def query(self, xs: np.ndarray, ys: np.ndarray,
              *, ctx: Optional[ExecutionContext] = None) -> np.ndarray:
        """Answer a batch of LCA queries sequentially (one query at a time)."""
        ctx = ensure_context(ctx)
        xs = np.atleast_1d(np.asarray(xs, dtype=np.int64))
        ys = np.atleast_1d(np.asarray(ys, dtype=np.int64))
        with ctx.phase("queries"):
            out = _query_inlabel(self.structure, xs, ys)
            ctx.sequential(
                "cpu_inlabel_query_batch",
                ops=INLABEL_QUERY_COST.ops * xs.size,
                bytes_touched=INLABEL_QUERY_COST.bytes_read * xs.size,
                random_access=True,
            )
        return out
