"""Shared Inlabel tables: one host build per tree, bit-identical charges.

Both Inlabel flavours are made from one :class:`~repro.lca.InlabelTables`
value; the parallel flavour replays the build's charge tape.  These tests pin
that a flavour made from shared tables is indistinguishable from a fresh
build — arrays, answers and every modeled charge — and that the serving
layers build each tree's tables once per target while every per-replica
number stays as it was.
"""

import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.lca.inlabel as inlabel_module
import repro.service.registry as registry_module
from repro.device import GTX980, XEON_X5650_MULTI, XEON_X5650_SINGLE, ExecutionContext
from repro.graphs.generators import random_attachment_tree
from repro.graphs.trees import generate_random_queries
from repro.lca import InlabelLCA, SequentialInlabelLCA, build_inlabel_tables
from repro.service import (
    ClusterService,
    ForestStore,
    IndexRegistry,
    LCAQueryService,
    artifact_nbytes,
)
from repro.service.registry import InlabelTableMemo

from .test_property_euler_lca import random_parent_arrays

FLAVOURS = (InlabelLCA, SequentialInlabelLCA)
SPECS = (GTX980, XEON_X5650_SINGLE, XEON_X5650_MULTI)


def table_arrays(lca):
    """Every array of a flavour's stats and structure, by name."""
    out = {}
    for prefix, table in (("stats", lca.stats), ("structure", lca.structure)):
        for name, value in vars(table).items():
            if isinstance(value, np.ndarray):
                out[f"{prefix}.{name}"] = value
    return out


def charges(ctx):
    return (ctx.elapsed, ctx.breakdown(), ctx.total_ops, ctx.total_bytes,
            ctx.total_launches, ctx.records)


def assert_same_flavour(shared, fresh):
    a, b = table_arrays(shared), table_arrays(fresh)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].dtype == b[name].dtype, name
        assert np.array_equal(a[name], b[name]), name
    assert shared.structure.root == fresh.structure.root
    assert shared.structure.levels == fresh.structure.levels
    assert artifact_nbytes(shared) == artifact_nbytes(fresh)


@pytest.fixture
def build_counter(monkeypatch):
    """Counts host builds: calls to ``build_inlabel_structure``."""
    calls = []
    original = inlabel_module.build_inlabel_structure

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(inlabel_module, "build_inlabel_structure", counted)
    return calls


# ----------------------------------------------------------------------
# Bit identity
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(parents=st.one_of(st.just(np.array([-1])), st.just(np.array([-1, 0])),
                         st.just(np.array([1, -1])),
                         random_parent_arrays(max_nodes=120)),
       spec=st.sampled_from(SPECS))
def test_flavours_from_shared_tables_equal_fresh_builds(parents, spec):
    tables = build_inlabel_tables(parents)
    xs, ys = generate_random_queries(parents.size, 16, seed=0)
    for cls in FLAVOURS:
        fresh_ctx = ExecutionContext(spec, trace=True)
        fresh = cls(parents, ctx=fresh_ctx)
        shared_ctx = ExecutionContext(spec, trace=True)
        shared = cls.from_tables(tables, ctx=shared_ctx)
        assert_same_flavour(shared, fresh)
        assert charges(shared_ctx) == charges(fresh_ctx)
        # Queries charge the same on top of the same preprocessing.
        assert np.array_equal(shared.query(xs, ys, ctx=shared_ctx),
                              fresh.query(xs, ys, ctx=fresh_ctx))
        assert charges(shared_ctx) == charges(fresh_ctx)


def test_replay_into_a_busy_context_matches_a_fresh_build():
    parents = random_attachment_tree(500, seed=1)
    tables = build_inlabel_tables(parents)
    fresh_ctx = ExecutionContext(GTX980, trace=True)
    shared_ctx = ExecutionContext(GTX980, trace=True)
    for ctx in (fresh_ctx, shared_ctx):
        with ctx.phase("warmup"):
            ctx.kernel("earlier_work", threads=64, ops=640.0)
    with fresh_ctx.phase("outer"):
        InlabelLCA(parents, ctx=fresh_ctx)
    with shared_ctx.phase("outer"):
        InlabelLCA.from_tables(tables, ctx=shared_ctx)
    assert charges(shared_ctx) == charges(fresh_ctx)
    assert list(shared_ctx.breakdown()) == list(fresh_ctx.breakdown())


@pytest.mark.parametrize("sequential", [True, False])
def test_registry_fetch_charges_a_caller_context_like_a_fresh_build(sequential):
    parents = random_attachment_tree(300, seed=2)
    store = ForestStore()
    store.add_tree("t", parents)
    registry = IndexRegistry(store)
    cls = SequentialInlabelLCA if sequential else InlabelLCA
    spec = XEON_X5650_SINGLE if sequential else GTX980
    # Warm the memo through the other flavour first, so this fetch is the
    # one served from shared tables.
    registry.fetch("t", "lca", spec, sequential=not sequential)
    fetch_ctx = ExecutionContext(spec, trace=True)
    entry, hit = registry.fetch("t", "lca", spec, ctx=fetch_ctx,
                                sequential=sequential)
    fresh_ctx = ExecutionContext(spec, trace=True)
    fresh = cls(parents, ctx=fresh_ctx)
    assert not hit and isinstance(entry.artifact, cls)
    assert_same_flavour(entry.artifact, fresh)
    assert charges(fetch_ctx) == charges(fresh_ctx)
    assert entry.build_time_s == fresh_ctx.elapsed
    assert entry.nbytes == artifact_nbytes(fresh)


# ----------------------------------------------------------------------
# Read-only tables
# ----------------------------------------------------------------------

def test_shared_tables_are_read_only():
    parents = random_attachment_tree(64, seed=3)
    tables = build_inlabel_tables(parents)
    assert parents.flags.writeable  # the caller's array is left alone
    arrays = table_arrays(InlabelLCA.from_tables(tables))
    assert len(arrays) == 11
    for name, array in arrays.items():
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[0] = 7
    with pytest.raises(ValueError):
        tables.structure.inlabel += 1


# ----------------------------------------------------------------------
# One host build per tree and target
# ----------------------------------------------------------------------

def test_single_service_builds_once_for_both_flavours(build_counter):
    svc = LCAQueryService()
    svc.register_tree("t", random_attachment_tree(256, seed=4))
    for backend in svc.dispatcher.backends:
        svc.registry.fetch("t", "lca", backend.spec, sequential=backend.sequential)
    assert len(svc.dispatcher.backends) == 2
    assert svc.registry.misses == 2
    assert len(build_counter) == 1


def test_identical_parents_share_one_build_and_different_parents_do_not(
        build_counter):
    svc = LCAQueryService()
    parents = random_attachment_tree(256, seed=5)
    svc.register_tree("a", parents)
    svc.register_tree("a-copy", parents.copy())
    svc.register_tree("other", random_attachment_tree(256, seed=6))
    a = svc.registry.get("a", "lca", GTX980)
    assert len(build_counter) == 1
    a_copy = svc.registry.get("a-copy", "lca", GTX980)
    assert len(build_counter) == 1
    assert a_copy.tables is a.tables
    other = svc.registry.get("other", "lca", GTX980)
    assert len(build_counter) == 2
    assert other.tables is not a.tables


def test_each_target_pays_for_its_own_build(build_counter):
    parents = random_attachment_tree(256, seed=7)
    for expected in (1, 2):
        svc = LCAQueryService()
        svc.register_tree("t", parents)
        svc.registry.get("t", "lca", GTX980)
        assert len(build_counter) == expected


def test_memo_checks_contents_behind_a_digest_hit(build_counter, monkeypatch):
    # Force every tree onto one digest: equal contents still share, unequal
    # contents are built separately despite the colliding key.
    colliding = SimpleNamespace(digest=lambda: b"same")
    monkeypatch.setattr(registry_module, "hashlib",
                        SimpleNamespace(blake2b=lambda *a, **k: colliding))
    memo = InlabelTableMemo()
    first = memo.tables(np.array([-1, 0, 0]))
    assert memo.tables(np.array([-1, 0, 0])) is first
    second = memo.tables(np.array([-1, 0, 1]))
    assert second is not first
    assert np.array_equal(second.stats.parent, [-1, 0, 1])
    assert len(build_counter) == 2


def test_capacity_eviction_frees_tables_and_refetch_charges_the_build(
        build_counter):
    parents = random_attachment_tree(512, seed=9)
    probe = LCAQueryService()
    probe.register_tree("a", parents)
    one_entry = probe.registry.fetch("a", "lca", GTX980)[0].nbytes
    # Room for one entry only: each fetch evicts the previous one.
    svc = LCAQueryService(capacity_bytes=one_entry + 1)
    svc.register_tree("a", parents)
    svc.register_tree("b", random_attachment_tree(512, seed=10))
    first, _ = svc.registry.fetch("a", "lca", GTX980)
    build_time = first.build_time_s
    a_tables = weakref.ref(first.artifact.tables)
    del first
    other, _ = svc.registry.fetch("b", "lca", GTX980)
    assert svc.registry.evictions == 1
    # The memo holds tables weakly: evicting a's only entry freed them.
    assert a_tables() is None
    again, hit = svc.registry.fetch("a", "lca", GTX980)
    assert not hit
    assert again.build_time_s == build_time > 0
    assert svc.registry.build_time_s == 2 * build_time + other.build_time_s
    assert len(build_counter) == 1 + 3  # probe, then a, b and a again


def _serve_flash(cluster):
    xs, ys = generate_random_queries(4096, 3000, seed=11)
    cluster.submit_many("a", xs, ys, at=np.arange(xs.size) * 1e-6)
    cluster.submit_many("b", ys, xs, at=(xs.size + np.arange(xs.size)) * 1e-6)
    cluster.drain()


def _run_cluster():
    cluster = ClusterService(4)
    cluster.register_tree("a", random_attachment_tree(4096, seed=12), replicas=0)
    cluster.register_tree("b", random_attachment_tree(4096, seed=13), replicas=0)
    cluster.warm("a")
    cluster.warm("b")
    return cluster


def test_cluster_warm_builds_once_per_dataset_and_scale_out_not_at_all(
        build_counter):
    cluster = _run_cluster()
    assert len(build_counter) == 2
    assert all(r.registry.misses == 4 for r in cluster.replicas)
    cluster.scale_to(6)
    assert len(build_counter) == 2
    assert all(r.registry.misses == 4 for r in cluster.replicas)
    _serve_flash(cluster)
    assert len(build_counter) == 2


def test_cluster_accounting_is_unchanged_by_sharing(monkeypatch):
    def per_replica(cluster):
        return [(r.registry.misses, r.registry.hits, r.registry.bytes_in_use,
                 r.registry.build_time_s, r.stats()) for r in cluster.replicas]

    shared = _run_cluster()
    shared.scale_to(6)
    _serve_flash(shared)
    # The same run with every fetch building its own tables, as each
    # registry did before tables were shared.
    monkeypatch.setattr(InlabelTableMemo, "tables",
                        lambda self, parents: build_inlabel_tables(parents))
    private = _run_cluster()
    private.scale_to(6)
    _serve_flash(private)
    assert per_replica(shared) == per_replica(private)
    assert shared.stats() == private.stats()
    assert np.array_equal(shared.latencies(np.arange(6000)),
                          private.latencies(np.arange(6000)))
