"""Tuned low-overhead Inlabel kernel for small batches.

:func:`repro.lca.inlabel._query_inlabel` already answers batches of at most
``_SCALAR_MAX`` queries with a scalar pass that reads the shared NumPy
tables through ``ndarray.item``; above that it pays ~40 us of fixed ufunc
dispatch for its vector pass.  On the small-batch hot path — a hedged
retry, a cache-miss straggler, an interactive probe — that dispatch *is*
the latency.

:class:`SmallBatchBackend` compiles a kernel specialized for that regime:

* **compile-time layout**: the Inlabel tables are pinned as plain Python int
  lists at compile time, so every table read is a list index with no numpy
  scalar boxing (~25% less per query than ``ndarray.item``, for a private
  copy of the tables);
* **one scalar routine**: each query runs the same fused probe pass as the
  shared kernel's scalar path (:func:`~repro.lca.inlabel._scalar_pass`,
  handed the lists' ``__getitem__``);
* **no per-call array allocation**: answers are written into a preallocated
  scratch buffer.

Batches larger than the scratch fall back to the shared kernel, so the
backend is correct at any size and merely fastest below its tuning point.
Measured against the vector pass on a 2^16-node tree (best of 25 runs,
2-vCPU VM, Python 3.11, NumPy 2.4): 3.2 us against 41 us at one query,
32 against 40 us at 24, 42 against 40 us at 32 and 84 against 43 us at 64.
The crossover is ~30 queries, so the default scratch is 24.

The returned answer array is a view into the kernel's scratch: it is valid
until the next launch on the same compiled kernel.  The serving layer copies
answers into its result tables immediately, so this is safe there; callers
holding answers across launches must copy.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..device import ExecutionContext, ensure_context
from ..euler import tree_statistics_from_parents
from ..lca.inlabel import (
    INLABEL_QUERY_COST,
    InlabelStructure,
    SequentialInlabelLCA,
    _query_inlabel,
    _scalar_pass,
    build_inlabel_structure,
)
from .base import BackendCapabilities, CompiledKernel, KernelBackend

__all__ = ["SmallBatchBackend", "SMALLBATCH_BACKEND_KEY", "DEFAULT_SCRATCH_SIZE"]

SMALLBATCH_BACKEND_KEY = "smallbatch"

#: Batches up to this size run the fused scalar pass; larger ones fall back
#: to the shared kernel.
DEFAULT_SCRATCH_SIZE = 24


class _SmallBatchKernel(CompiledKernel):
    """Compile-time-specialized Inlabel kernel for one tree."""

    def __init__(
        self, key: str, structure: InlabelStructure, scratch_size: int
    ) -> None:
        self.backend_key = key
        self.structure = structure
        self.scratch_size = int(scratch_size)
        # Compile-time specialization: pin the tables as plain Python ints so
        # the fused pass never touches numpy scalar boxing.
        self._inlabel = structure.inlabel.tolist()
        self._ascendant = structure.ascendant.tolist()
        self._head = structure.head.tolist()
        self._depth = structure.depth.tolist()
        self._parent = structure.parent.tolist()
        # Preallocated answer scratch (the only array the hot path writes).
        self._out = np.empty(self.scratch_size, np.int64)

    @property
    def n(self) -> int:
        """Number of tree nodes the kernel was compiled for."""
        return self.structure.n

    def _execute(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        if xs.shape != ys.shape or xs.ndim != 1 or xs.size > self.scratch_size:
            # The shared kernel answers, or refuses, everything else.
            return _query_inlabel(self.structure, xs, ys)
        m = int(xs.size)
        out = self._out[:m]
        out[:] = _scalar_pass(
            xs.tolist(),
            ys.tolist(),
            self.structure.n,
            self._inlabel.__getitem__,
            self._ascendant.__getitem__,
            self._head.__getitem__,
            self._depth.__getitem__,
            self._parent.__getitem__,
        )
        return out

    def _charge(self, ctx: ExecutionContext, batch_size: int) -> None:
        # Identical modeled shape to the sequential CPU baseline: the tuned
        # kernel does the same logical work, it just wastes less host time.
        with ctx.phase("queries"):
            ctx.sequential(
                "smallbatch_inlabel_query_batch",
                ops=INLABEL_QUERY_COST.ops * batch_size,
                bytes_touched=INLABEL_QUERY_COST.bytes_read * batch_size,
                random_access=True,
            )


class SmallBatchBackend(KernelBackend):
    """Preallocated-scratch, fused-pass Inlabel backend for small batches."""

    key = SMALLBATCH_BACKEND_KEY
    label = "Tuned small-batch Inlabel"

    def __init__(self, *, scratch_size: int = DEFAULT_SCRATCH_SIZE) -> None:
        if scratch_size < 1:
            raise ValueError(f"scratch_size must be positive, got {scratch_size}")
        self.scratch_size = int(scratch_size)

    def capabilities(self) -> BackendCapabilities:
        """Unbounded (large batches fall back to the vectorized kernel)."""
        return BackendCapabilities(parallel=False)

    def compile(
        self, parents: np.ndarray, *, ctx: Optional[ExecutionContext] = None
    ) -> CompiledKernel:
        """Build the Inlabel tables and pin them in hot-loop layout.

        The modeled preprocessing charge matches the sequential CPU baseline
        (:class:`~repro.lca.SequentialInlabelLCA`) — same logical work.
        """
        parents = np.asarray(parents, dtype=np.int64)
        stats = tree_statistics_from_parents(parents, ctx=None)
        structure = build_inlabel_structure(stats, ctx=None)
        ctx = ensure_context(ctx)
        with ctx.phase("preprocessing"):
            ctx.sequential(
                "smallbatch_inlabel_preprocess",
                ops=SequentialInlabelLCA._PREPROCESS_OPS_PER_NODE * structure.n,
                bytes_touched=(
                    SequentialInlabelLCA._PREPROCESS_BYTES_PER_NODE * structure.n
                ),
                random_access=True,
            )
        return _SmallBatchKernel(self.key, structure, self.scratch_size)
