"""Tests for the Inlabel (Schieber–Vishkin) LCA algorithm."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.lca.inlabel as inlabel_module
from repro.device import ExecutionContext, GTX980, XEON_X5650_SINGLE
from repro.errors import InvalidQueryError
from repro.euler import tree_statistics_from_parents
from repro.graphs import generate_random_queries
from repro.lca import (
    BinaryLiftingLCA,
    InlabelLCA,
    SequentialInlabelLCA,
    build_inlabel_structure,
    brute_force_lca_batch,
)

from .conftest import TREE_KINDS, make_tree
from .test_property_euler_lca import random_parent_arrays

IMPLEMENTATIONS = [InlabelLCA, SequentialInlabelLCA]


class TestStructureProperties:
    @pytest.mark.parametrize("kind", TREE_KINDS)
    def test_path_partition_property(self, kind):
        """Nodes sharing an inlabel value form a single top-down path."""
        parents = make_tree(kind, 120, seed=3)
        stats = tree_statistics_from_parents(parents)
        structure = build_inlabel_structure(stats)
        inlabel = structure.inlabel
        for value in np.unique(inlabel):
            members = np.flatnonzero(inlabel == value)
            depths = sorted(structure.depth[members].tolist())
            # Consecutive depths (a path, one node per level) ...
            assert depths == list(range(depths[0], depths[0] + len(members)))
            # ... and each non-head member's parent is also on the path.
            head = structure.head[value]
            for v in members:
                if v != head:
                    assert inlabel[parents[v]] == value or parents[v] == -1

    @pytest.mark.parametrize("kind", TREE_KINDS)
    def test_inlabel_lies_in_subtree_interval(self, kind):
        parents = make_tree(kind, 150, seed=4)
        stats = tree_statistics_from_parents(parents)
        structure = build_inlabel_structure(stats)
        lo = stats.preorder
        hi = stats.preorder + stats.subtree_size - 1
        assert np.all(structure.inlabel >= lo)
        assert np.all(structure.inlabel <= hi)

    def test_head_is_shallowest_on_path(self):
        parents = make_tree("shallow", 200, seed=5)
        stats = tree_statistics_from_parents(parents)
        structure = build_inlabel_structure(stats)
        for value in np.unique(structure.inlabel):
            members = np.flatnonzero(structure.inlabel == value)
            head = structure.head[value]
            assert head in members
            assert structure.depth[head] == structure.depth[members].min()

    def test_ascendant_root_bit_always_present(self):
        parents = make_tree("shallow", 100, seed=6)
        stats = tree_statistics_from_parents(parents)
        structure = build_inlabel_structure(stats)
        root_bit = structure.ascendant[stats.root]
        assert np.all((structure.ascendant & root_bit) == root_bit)


class TestQueryCorrectness:
    @pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
    @pytest.mark.parametrize("kind", TREE_KINDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 120])
    def test_against_brute_force(self, implementation, kind, n):
        parents = make_tree(kind, n, seed=n * 7 + 1)
        xs, ys = generate_random_queries(n, 80, seed=n)
        expected = brute_force_lca_batch(parents, xs, ys)
        algo = implementation(parents)
        assert np.array_equal(algo.query(xs, ys), expected)

    @pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
    def test_against_binary_lifting_on_large_tree(self, implementation):
        parents = make_tree("deep", 4000, seed=11)
        xs, ys = generate_random_queries(4000, 3000, seed=12)
        expected = BinaryLiftingLCA(parents).query(xs, ys)
        assert np.array_equal(implementation(parents).query(xs, ys), expected)

    def test_query_of_node_with_itself(self, figure1_parents):
        algo = InlabelLCA(figure1_parents)
        nodes = np.arange(6)
        assert np.array_equal(algo.query(nodes, nodes), nodes)

    def test_query_with_ancestor(self, figure1_parents):
        algo = InlabelLCA(figure1_parents)
        assert algo.query(np.asarray([5]), np.asarray([2]))[0] == 2
        assert algo.query(np.asarray([2]), np.asarray([5]))[0] == 2
        assert algo.query(np.asarray([1]), np.asarray([0]))[0] == 0

    def test_scalar_like_single_query(self, figure1_parents):
        algo = SequentialInlabelLCA(figure1_parents)
        assert algo.query(1, 5)[0] == 2

    def test_empty_query_batch(self, figure1_parents):
        algo = InlabelLCA(figure1_parents)
        out = algo.query(np.asarray([], dtype=np.int64), np.asarray([], dtype=np.int64))
        assert out.size == 0

    @pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
    @pytest.mark.parametrize("shape", [(2, 2), (3, 4), (2, 3, 5)])
    def test_multidimensional_queries_keep_their_shape(self, implementation,
                                                       shape):
        parents = make_tree("shallow", 50, seed=21)
        rng = np.random.default_rng(22)
        xs = rng.integers(0, 50, size=shape)
        ys = rng.integers(0, 50, size=shape)
        expected = BinaryLiftingLCA(parents).query(xs, ys)
        got = implementation(parents).query(xs, ys)
        assert got.shape == shape
        assert np.array_equal(got, expected)

    def test_gpu_and_sequential_agree(self):
        parents = make_tree("scale-free", 2500, seed=13)
        xs, ys = generate_random_queries(2500, 2000, seed=14)
        a = InlabelLCA(parents).query(xs, ys)
        b = SequentialInlabelLCA(parents).query(xs, ys)
        assert np.array_equal(a, b)


class TestValidationAndErrors:
    def test_out_of_range_query_rejected(self, figure1_parents):
        algo = InlabelLCA(figure1_parents)
        with pytest.raises(InvalidQueryError):
            algo.query(np.asarray([0]), np.asarray([17]))

    def test_mismatched_query_shapes_rejected(self, figure1_parents):
        algo = InlabelLCA(figure1_parents)
        with pytest.raises(InvalidQueryError):
            algo.query(np.asarray([0, 1]), np.asarray([1]))

    def test_validate_flag(self):
        from repro.errors import NotATreeError

        with pytest.raises(NotATreeError):
            InlabelLCA(np.asarray([-1, -1]), validate=True)


class TestCostAccounting:
    def test_preprocessing_and_queries_charged_to_phases(self):
        parents = make_tree("shallow", 3000, seed=15)
        ctx = ExecutionContext(GTX980)
        algo = InlabelLCA(parents, ctx=ctx)
        assert "preprocessing" in ctx.breakdown()
        xs, ys = generate_random_queries(3000, 3000, seed=16)
        qctx = ExecutionContext(GTX980)
        algo.query(xs, ys, ctx=qctx)
        assert "queries" in qctx.breakdown()

    def test_query_cost_independent_of_tree_depth(self):
        """The defining property of the Inlabel algorithm: O(1) per query
        regardless of depth (contrast with NaiveGPULCA)."""
        n, q = 5000, 5000
        xs, ys = generate_random_queries(n, q, seed=17)
        times = []
        for kind in ("shallow", "path"):
            parents = make_tree(kind, n, seed=18)
            algo = InlabelLCA(parents)
            ctx = ExecutionContext(GTX980)
            algo.query(xs, ys, ctx=ctx)
            times.append(ctx.elapsed)
        assert times[1] == pytest.approx(times[0], rel=0.01)

    def test_sequential_query_cost_linear_in_batch(self):
        parents = make_tree("shallow", 1000, seed=19)
        algo = SequentialInlabelLCA(parents)
        xs, ys = generate_random_queries(1000, 1000, seed=20)
        small = ExecutionContext(XEON_X5650_SINGLE)
        algo.query(xs[:100], ys[:100], ctx=small)
        large = ExecutionContext(XEON_X5650_SINGLE)
        algo.query(xs, ys, ctx=large)
        assert large.elapsed == pytest.approx(10 * small.elapsed, rel=0.05)


# ----------------------------------------------------------------------
# The two host paths of the query kernel
# ----------------------------------------------------------------------

SCALAR_MAX = inlabel_module._SCALAR_MAX
#: ``_SCALAR_MAX`` values that force every batch onto one host path.
HOST_PATHS = {"scalar": 1 << 62, "vector": -1}


def on_path(path):
    return mock.patch.object(inlabel_module, "_SCALAR_MAX", HOST_PATHS[path])


@st.composite
def query_trees(draw):
    """Random trees, including n=1 and n=2, a path and a star."""
    kind = draw(st.sampled_from(["tiny", "random", "path", "star"]))
    if kind == "tiny":
        return draw(st.sampled_from([np.array([-1]), np.array([-1, 0]),
                                     np.array([1, -1])]))
    if kind == "random":
        return draw(random_parent_arrays(max_nodes=120))
    n = draw(st.integers(min_value=1, max_value=120))
    return make_tree(kind, n, seed=draw(st.integers(0, 1000)))


def forced_pairs(parents, structure, m, rng):
    """``m`` query pairs mixing random, x==y, ancestor/descendant and
    same-inlabel-path pairs."""
    n = parents.size
    xs = rng.integers(0, n, size=m)
    ys = rng.integers(0, n, size=m)
    kind = rng.integers(0, 4, size=m)
    ys[kind == 1] = xs[kind == 1]
    # An ancestor a random number of steps up, on either side.
    anc = xs.copy()
    for _ in range(int(rng.integers(0, n))):
        up = parents[anc]
        anc = np.where(up >= 0, up, anc)
    ys[kind == 2] = anc[kind == 2]
    flip = (kind == 2) & (rng.random(m) < 0.5)
    xs[flip], ys[flip] = ys[flip], xs[flip].copy()
    # Another node on the same inlabel path.
    order = np.argsort(structure.inlabel, kind="stable")
    sorted_labels = structure.inlabel[order]
    lo = np.searchsorted(sorted_labels, structure.inlabel[xs], side="left")
    hi = np.searchsorted(sorted_labels, structure.inlabel[xs], side="right")
    pick = order[lo + (rng.random(m) * (hi - lo)).astype(np.int64)]
    ys[kind == 3] = pick[kind == 3]
    return xs, ys


def query_charges(cls, parents, xs, ys):
    ctx = ExecutionContext(GTX980, trace=True)
    cls(parents).query(xs, ys, ctx=ctx)
    return ctx.elapsed, ctx.breakdown(), ctx.records


@settings(max_examples=60, deadline=None)
@given(parents=query_trees(),
       m=st.sampled_from([0, 1, SCALAR_MAX, SCALAR_MAX + 1, 10_000]),
       seed=st.integers(0, 2**32 - 1),
       bad=st.sampled_from([-1, "n"]))
def test_both_host_paths_answer_and_charge_alike(parents, m, seed, bad):
    rng = np.random.default_rng(seed)
    structure = InlabelLCA(parents).structure
    n = parents.size
    xs, ys = forced_pairs(parents, structure, m, rng)
    expected = BinaryLiftingLCA(parents).query(xs, ys)
    bad_xs = np.append(xs, n if bad == "n" else bad)
    bad_ys = np.append(ys, 0)
    position = int(rng.integers(0, bad_xs.size))
    bad_xs[[position, -1]] = bad_xs[[-1, position]]
    bad_ys[[position, -1]] = bad_ys[[-1, position]]
    charges = {}
    for path in HOST_PATHS:
        with on_path(path):
            got = inlabel_module._query_inlabel(structure, xs, ys)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected), path
            with pytest.raises(InvalidQueryError, match="out of range"):
                inlabel_module._query_inlabel(structure, bad_xs, bad_ys)
            charges[path] = [query_charges(cls, parents, xs, ys)
                             for cls in IMPLEMENTATIONS]
    assert charges["scalar"] == charges["vector"]


def test_batch_size_picks_the_host_path():
    parents = make_tree("shallow", 64, seed=23)
    structure = InlabelLCA(parents).structure
    xs, ys = generate_random_queries(64, SCALAR_MAX + 1, seed=24)
    with mock.patch.object(inlabel_module, "_vector_pass",
                           wraps=inlabel_module._vector_pass) as vector:
        inlabel_module._query_inlabel(structure, xs[:SCALAR_MAX],
                                      ys[:SCALAR_MAX])
        assert vector.call_count == 0
        inlabel_module._query_inlabel(structure, xs, ys)
        assert vector.call_count == 1
