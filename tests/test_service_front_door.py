"""Front-door validation: malformed submissions are refused before any state changes.

Each probe runs against both serving targets — a single
:class:`~repro.service.LCAQueryService` and a
:class:`~repro.service.ClusterService` — through both ``submit`` and
``submit_many``, and checks that a typed error is raised while
``tickets_issued``, ``pending_count()`` and the clock stay where they were.
"""

import numpy as np
import pytest

from repro.errors import InvalidQueryError, ServiceError
from repro.graphs.generators import random_attachment_tree
from repro.lca import BinaryLiftingLCA
from repro.service import BatchPolicy, ClusterService, LCAQueryService

PARENTS = random_attachment_tree(64, seed=0)
# Queries wait in the queue, so ``pending_count()`` sees every admission.
POLICY = BatchPolicy(max_batch_size=64, max_wait_s=1.0)


def make_service():
    svc = LCAQueryService(policy=POLICY)
    svc.register_tree("t", PARENTS)
    return svc


def make_cluster():
    cluster = ClusterService(2, policy=POLICY)
    cluster.register_tree("t", PARENTS, replicas=2)
    return cluster


TARGETS = pytest.mark.parametrize(
    "make_target", [make_service, make_cluster], ids=["service", "cluster"]
)


def state(target):
    return target.tickets_issued, target.pending_count(), target.clock.now


def admit_some(target):
    """Put two queries in the queue, so a refusal has state it could spoil."""
    target.submit_many("t", [1, 2], [3, 4], at=[0.0, 1e-6])
    return state(target)


def assert_refused(target, before, error, call, *args, **kwargs):
    with pytest.raises(error):
        call("t", *args, **kwargs)
    assert state(target) == before


def assert_still_serves(target):
    """A refused submission leaves the target fully usable and exact."""
    tickets = target.submit_many("t", [5, 6], [7, 8], at=[1e-3, 2e-3])
    target.drain()
    expected = BinaryLiftingLCA(PARENTS).query([5, 6], [7, 8])
    assert np.array_equal(target.results(tickets), expected)
    latencies = target.latencies(np.arange(target.tickets_issued))
    assert np.isfinite(latencies).all()


@TARGETS
def test_nan_arrival_is_refused(make_target):
    # Used to hang forever in MicroBatchScheduler.submit_block.
    target = make_target()
    before = admit_some(target)
    at = [1e-6, np.nan, 1e-3]
    assert_refused(
        target, before, ServiceError, target.submit_many, [1, 2, 3], [4, 5, 6], at=at
    )
    assert_refused(target, before, ServiceError, target.submit, 1, 2, at=np.nan)
    assert_still_serves(target)


@TARGETS
def test_infinite_arrival_is_refused(make_target):
    # Used to be admitted, then drain to NaN latencies with a RuntimeWarning.
    target = make_target()
    before = admit_some(target)
    submit_many = target.submit_many
    assert_refused(
        target, before, ServiceError, submit_many, [1, 2], [4, 5], at=[1e-6, np.inf]
    )
    assert_refused(target, before, ServiceError, submit_many, [1], [4], at=[-np.inf])
    assert_refused(target, before, ServiceError, target.submit, 1, 2, at=np.inf)
    assert_still_serves(target)


@TARGETS
def test_block_whose_arrivals_decrease_is_refused_whole(make_target):
    # Used to admit the block's prefix before raising.
    target = make_target()
    before = admit_some(target)
    at = [1e-5, 2e-5, 1.5e-5]
    assert_refused(
        target, before, ServiceError, target.submit_many, [1, 2, 3], [4, 5, 6], at=at
    )
    assert_still_serves(target)


@TARGETS
def test_non_integral_node_ids_are_refused(make_target):
    # Used to be truncated silently and answered.
    target = make_target()
    before = admit_some(target)
    at = [1e-5, 2e-5]
    submit_many = target.submit_many
    assert_refused(
        target, before, InvalidQueryError, submit_many, [1.5, 2.7], [3, 4], at=at
    )
    assert_refused(
        target, before, InvalidQueryError, submit_many, [1, 2], [3.0, np.nan], at=at
    )
    assert_refused(target, before, InvalidQueryError, target.submit, 1.5, 2, at=1e-5)
    # Integral floats are node ids like any other.
    tickets = submit_many("t", np.array([5.0, 6.0]), [7, 8], at=at)
    target.drain()
    expected = BinaryLiftingLCA(PARENTS).query([5, 6], [7, 8])
    assert np.array_equal(target.results(tickets), expected)
