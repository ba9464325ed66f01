"""Lowest common ancestor algorithms (paper §3).

* :class:`InlabelLCA` — parallel Schieber–Vishkin Inlabel algorithm (GPU, or
  multi-core CPU when given a multi-core execution context).
* :class:`SequentialInlabelLCA` — the single-core CPU Inlabel baseline.
* :func:`build_inlabel_tables` — one shared, read-only build both Inlabel
  flavours can be made from (``from_tables``).
* :class:`NaiveGPULCA` — the naïve walk-up algorithm of Martins et al.
* :class:`RMQLCA` — the RMQ-based baseline of the §3.1 preliminary experiment.
* :class:`BinaryLiftingLCA`, :func:`brute_force_lca_batch` — test oracles.
* :func:`run_batched_queries` — online batched querying (Figure 6).
* :func:`pack_query_pairs` / :func:`dedup_query_pairs` — canonicalization
  and intra-batch dedup for symmetric pair queries (the serving stack's
  skew-aware fast path builds on these).
"""

from .batch import BatchQueryResult, run_batched_queries
from .dedup import (
    PACK_LIMIT,
    dedup_query_pairs,
    pack_query_pairs,
    unpack_query_pairs,
)
from .inlabel import (
    INLABEL_QUERY_COST,
    InlabelLCA,
    InlabelStructure,
    InlabelTables,
    QueryKernelCost,
    SequentialInlabelLCA,
    build_inlabel_structure,
    build_inlabel_tables,
)
from .naive import NaiveGPULCA, pointer_jump_levels
from .reference import BinaryLiftingLCA, brute_force_lca_batch
from .rmq import RMQLCA

__all__ = [
    "InlabelLCA",
    "SequentialInlabelLCA",
    "InlabelStructure",
    "InlabelTables",
    "build_inlabel_structure",
    "build_inlabel_tables",
    "QueryKernelCost",
    "INLABEL_QUERY_COST",
    "NaiveGPULCA",
    "pointer_jump_levels",
    "RMQLCA",
    "BinaryLiftingLCA",
    "brute_force_lca_batch",
    "BatchQueryResult",
    "run_batched_queries",
    "PACK_LIMIT",
    "pack_query_pairs",
    "unpack_query_pairs",
    "dedup_query_pairs",
]
