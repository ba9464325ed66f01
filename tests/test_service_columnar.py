"""Columnar fast-path tests: block admission ≡ per-query loop, ring buffers,
vectorized results, and the error surface of the vectorized paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidQueryError, ServiceError
from repro.graphs.generators import random_attachment_tree
from repro.graphs.trees import generate_random_queries
from repro.lca import BinaryLiftingLCA
from repro.service import BatchPolicy, LCAQueryService, MicroBatchScheduler

from .conftest import make_tree


def arrival_schedule(q, seed, *, mean_gap_s=1e-4, tie_fraction=0.3):
    """Randomized non-decreasing arrivals with deliberate same-instant ties."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(mean_gap_s, size=q)
    gaps[rng.random(q) < tie_fraction] = 0.0  # bursts arriving together
    return np.cumsum(gaps)


def batch_signature(batch):
    return (batch.trigger, batch.flush_s, batch.tickets.tolist(),
            batch.xs.tolist(), batch.ys.tolist(), batch.arrival_s.tolist())


def stats_signature(stats):
    return (stats.queries_submitted, stats.queries_answered,
            stats.batches_flushed, stats.batch_size_histogram,
            stats.flush_triggers, stats.backend_choices,
            stats.latency_mean_s, stats.latency_p50_s, stats.latency_p99_s,
            stats.latency_max_s, stats.busy_time_s, stats.span_s)


# ----------------------------------------------------------------------
# Scheduler: submit_block ≡ a loop of submit() calls
# ----------------------------------------------------------------------

@pytest.mark.parametrize("max_batch,max_wait,seed", [
    (1, 0.0, 0), (4, 0.0, 1), (8, 5e-5, 2), (64, 1e-3, 3), (1024, 1e-4, 4),
])
def test_submit_block_matches_per_query_submission(max_batch, max_wait, seed):
    q = 500
    arrivals = arrival_schedule(q, seed)
    xs = np.arange(q, dtype=np.int64)
    ys = xs + 1
    tickets = np.arange(q, dtype=np.int64)

    loop = MicroBatchScheduler(BatchPolicy(max_batch, max_wait))
    loop_batches = []
    for i in range(q):
        loop_batches.extend(loop.submit(i, int(xs[i]), int(ys[i]),
                                        at=float(arrivals[i])))
    block = MicroBatchScheduler(BatchPolicy(max_batch, max_wait))
    block_batches = block.submit_block(tickets, xs, ys, arrivals)

    assert [batch_signature(b) for b in block_batches] == \
           [batch_signature(b) for b in loop_batches]
    assert block.pending_count == loop.pending_count
    assert block.next_deadline == loop.next_deadline
    assert block.clock.now == loop.clock.now
    # Drain the stragglers identically too.
    assert [batch_signature(b) for b in block.drain()] == \
           [batch_signature(b) for b in loop.drain()]


def test_flushed_slices_survive_buffer_refills():
    # Tiny pending windows over many submissions force several buffer
    # refills; previously flushed zero-copy slices must stay intact.
    sched = MicroBatchScheduler(BatchPolicy(max_batch_size=2, max_wait_s=10.0))
    batches = []
    for i in range(5_000):
        batches.extend(sched.submit(i, 2 * i, 2 * i + 1, at=float(i) * 1e-6))
    assert len(batches) == 2_500
    for k, batch in enumerate(batches):
        assert batch.tickets.tolist() == [2 * k, 2 * k + 1]
        assert batch.xs.tolist() == [4 * k, 4 * k + 2]


def test_submit_block_rejects_backwards_arrivals():
    sched = MicroBatchScheduler(BatchPolicy())
    sched.submit(0, 1, 2, at=1.0)
    with pytest.raises(ServiceError):
        sched.submit_block(np.asarray([1]), np.asarray([3]), np.asarray([4]),
                           np.asarray([0.5]))


def test_pending_snapshot_is_row_wise():
    sched = MicroBatchScheduler(BatchPolicy(max_batch_size=8, max_wait_s=1.0))
    sched.submit(7, 1, 2, at=0.25)
    (pending,) = sched.pending
    assert (pending.ticket, pending.x, pending.y, pending.arrival_s) == \
           (7, 1, 2, 0.25)


# ----------------------------------------------------------------------
# Service: submit_many ≡ a loop of submit() calls (the satellite's
# property/equivalence test)
# ----------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(("shallow", "deep", "star")),
    n=st.integers(min_value=2, max_value=200),
    q=st.integers(min_value=1, max_value=80),
    max_batch=st.integers(min_value=1, max_value=32),
    max_wait_us=st.sampled_from((0.0, 10.0, 200.0, 1000.0)),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_columnar_equals_per_query(kind, n, q, max_batch, max_wait_us,
                                            seed):
    parents = make_tree(kind, n, seed)
    xs, ys = generate_random_queries(n, q, seed=seed + 1)
    arrivals = arrival_schedule(q, seed + 2)
    policy = BatchPolicy(max_batch_size=max_batch, max_wait_s=max_wait_us * 1e-6)

    columnar = LCAQueryService(policy=policy)
    columnar.register_tree("t", parents)
    col_tickets = columnar.submit_many("t", xs, ys, at=arrivals)

    reference = LCAQueryService(policy=policy)
    reference.register_tree("t", parents)
    ref_tickets = np.asarray([
        reference.submit("t", int(xs[i]), int(ys[i]), at=float(arrivals[i]))
        for i in range(q)
    ])

    assert np.array_equal(col_tickets, ref_tickets)
    assert columnar.pending_count("t") == reference.pending_count("t")
    columnar.drain()
    reference.drain()
    assert np.array_equal(columnar.results(col_tickets),
                          reference.results(ref_tickets))
    assert np.array_equal(columnar.latencies(col_tickets),
                          reference.latencies(ref_tickets))
    # Same batches, same triggers, same backend mix, same tail percentiles.
    assert stats_signature(columnar.stats()) == stats_signature(reference.stats())


def test_columnar_interleaves_other_datasets_deadlines():
    # Queries pending on dataset b must flush (and queue on the backends, in
    # flush-time order) while a block is being admitted to dataset a —
    # exactly as they do under per-query submission.
    pa = random_attachment_tree(600, seed=0)
    pb = random_attachment_tree(600, seed=1)
    q = 120
    xs, ys = generate_random_queries(600, q, seed=2)
    # Starts after b's submissions (the shared clock is monotone), paced
    # slower than the wait budget so b's deadlines expire mid-block.
    arrivals = 4e-5 + np.arange(q, dtype=np.float64) * 2e-4

    def run(columnar: bool):
        service = LCAQueryService(
            policy=BatchPolicy(max_batch_size=16, max_wait_s=5e-4))
        service.register_tree("a", pa)
        service.register_tree("b", pb)
        tb = [service.submit("b", 3 * i, 3 * i + 1, at=float(i) * 1e-5)
              for i in range(4)]
        if columnar:
            ta = service.submit_many("a", xs, ys, at=arrivals)
        else:
            ta = [service.submit("a", int(xs[i]), int(ys[i]),
                                 at=float(arrivals[i])) for i in range(q)]
        service.drain()
        return (service.results(ta).tolist(), service.results(tb).tolist(),
                service.latencies(ta).tolist(),
                service.latencies(tb).tolist(),
                stats_signature(service.stats()))

    assert run(columnar=True) == run(columnar=False)


def test_same_instant_size_and_wait_batches_keep_submission_order():
    # Regression: with max_wait_s=0 and same-instant arrivals, a block can
    # produce a size-triggered batch and a later wait-triggered batch with
    # the *same* flush time.  The per-query path serves them in submission
    # order (the size batch completed first and occupies the backend first);
    # the columnar path must not let another dataset's pending queries
    # reshuffle that tie.
    pa = random_attachment_tree(64, seed=20)
    pb = random_attachment_tree(64, seed=21)

    def run(columnar: bool):
        service = LCAQueryService(
            policy=BatchPolicy(max_batch_size=2, max_wait_s=0.0))
        service.register_tree("a", pa)
        service.register_tree("b", pb)
        tb = service.submit("b", 1, 2, at=0.0)  # pending on another dataset
        xs, ys = np.asarray([3, 4, 5, 6]), np.asarray([7, 8, 9, 10])
        at = np.asarray([0.0, 0.0, 0.0, 1.0])
        if columnar:
            ta = service.submit_many("a", xs, ys, at=at)
        else:
            ta = [service.submit("a", int(xs[i]), int(ys[i]), at=float(at[i]))
                  for i in range(4)]
        service.drain()
        return (service.latencies(ta).tolist(), service.latency(tb),
                stats_signature(service.stats()))

    assert run(columnar=True) == run(columnar=False)


def test_submit_many_with_default_arrivals_coalesces_now():
    parents = random_attachment_tree(300, seed=5)
    xs, ys = generate_random_queries(300, 40, seed=6)
    service = LCAQueryService(policy=BatchPolicy(max_batch_size=8,
                                                 max_wait_s=1e-3))
    service.register_tree("t", parents)
    tickets = service.submit_many("t", xs, ys)  # all arrive "now"
    service.drain()
    assert np.array_equal(service.results(tickets),
                          BinaryLiftingLCA(parents).query(xs, ys))
    stats = service.stats()
    assert stats.flush_triggers.get("size", 0) == 5
    assert stats.queries_answered == 40


# ----------------------------------------------------------------------
# Vectorized admission: error positions match the per-query loop
# ----------------------------------------------------------------------

def test_submit_many_out_of_range_rejects_at_its_own_position():
    parents = random_attachment_tree(100, seed=7)
    service = LCAQueryService(policy=BatchPolicy(max_batch_size=4,
                                                 max_wait_s=1e-3))
    service.register_tree("t", parents)
    xs = np.asarray([1, 2, 3, 4, 5, 500, 6])  # index 5 is out of range
    ys = np.asarray([2, 3, 4, 5, 6, 7, 8])
    at = np.arange(7, dtype=np.float64) * 1e-6
    with pytest.raises(InvalidQueryError):
        service.submit_many("t", xs, ys, at=at)
    # The clean prefix was admitted (and its size-triggered batch served),
    # exactly like the per-query loop.
    assert service.stats().queries_submitted == 5
    assert service.pending_count("t") == 1
    service.drain()
    assert np.array_equal(
        service.results(np.arange(5)),
        BinaryLiftingLCA(parents).query(xs[:5], ys[:5]))
    # Negative nodes are caught by the same fused check.
    with pytest.raises(InvalidQueryError):
        service.submit_many("t", [-1], [3], at=[1e-3])


def test_submit_many_backwards_arrival_rejects_at_its_own_position():
    parents = random_attachment_tree(100, seed=8)
    service = LCAQueryService()
    service.register_tree("t", parents)
    with pytest.raises(ServiceError,
                       match=r"backwards \(now=0.002, requested=0.001\)"):
        service.submit_many("t", [1, 2, 3], [4, 5, 6],
                            at=[1e-3, 2e-3, 1e-3])  # third query rewinds
    # A rewinding block is malformed: it is refused whole, before any state
    # changes (its clean prefix is not admitted).
    assert service.stats().queries_submitted == 0
    assert service.tickets_issued == 0
    service.submit_many("t", [1, 2], [4, 5], at=[1e-3, 2e-3])
    # A block starting before the current clock admits nothing.
    with pytest.raises(ServiceError, match="backwards"):
        service.submit_many("t", [1], [2], at=[1e-4])
    assert service.stats().queries_submitted == 2


# ----------------------------------------------------------------------
# Vectorized results(): one lookup, uniform error surface (regression
# tests for the former quadratic-ish per-ticket path)
# ----------------------------------------------------------------------

def test_results_vectorized_and_error_surface():
    parents = random_attachment_tree(200, seed=9)
    # max_batch_size > stream length: every query stays queued until drain().
    service = LCAQueryService(policy=BatchPolicy(max_batch_size=16,
                                                 max_wait_s=1e-3))
    service.register_tree("t", parents)
    xs, ys = generate_random_queries(200, 8, seed=10)
    tickets = service.submit_many("t", xs, ys,
                                  at=np.arange(8, dtype=np.float64) * 1e-6)

    # Unknown tickets raise uniformly — never issued, negative, or mixed
    # with known ones.
    with pytest.raises(ServiceError, match="unknown ticket 999"):
        service.results([999])
    with pytest.raises(ServiceError, match="unknown ticket -1"):
        service.results([-1])
    with pytest.raises(ServiceError, match="unknown ticket"):
        service.results([0, 1, 999])
    # Queued tickets raise uniformly before the drain...
    with pytest.raises(ServiceError, match="still queued"):
        service.results(tickets)
    with pytest.raises(ServiceError, match="still queued"):
        service.result(int(tickets[0]))
    with pytest.raises(ServiceError, match="still queued"):
        service.latency(int(tickets[0]))
    # ...and unknown takes precedence over queued, as in result().
    with pytest.raises(ServiceError, match="unknown ticket"):
        service.results([int(tickets[0]), 999])

    service.drain()
    expected = BinaryLiftingLCA(parents).query(xs, ys)
    assert np.array_equal(service.results(tickets), expected)
    # Scalars, lists, and duplicated / permuted fancy indexes all resolve.
    assert service.results(int(tickets[3])).tolist() == [int(expected[3])]
    perm = [int(tickets[5]), int(tickets[2]), int(tickets[5])]
    assert service.results(perm).tolist() == \
           [int(expected[5]), int(expected[2]), int(expected[5])]
    assert service.results([]).size == 0
    assert service.latencies([]).size == 0
    assert service.results([]).dtype == np.int64


def test_latencies_matches_scalar_latency():
    parents = random_attachment_tree(150, seed=11)
    service = LCAQueryService(policy=BatchPolicy(max_batch_size=4,
                                                 max_wait_s=1e-4))
    service.register_tree("t", parents)
    xs, ys = generate_random_queries(150, 12, seed=12)
    tickets = service.submit_many("t", xs, ys,
                                  at=np.arange(12, dtype=np.float64) * 1e-5)
    service.drain()
    vec = service.latencies(tickets)
    assert vec.tolist() == [service.latency(int(t)) for t in tickets]
    assert (vec > 0).all()


# ----------------------------------------------------------------------
# Ticket tables survive growth
# ----------------------------------------------------------------------

def test_ticket_tables_grow_past_initial_capacity():
    parents = random_attachment_tree(500, seed=13)
    q = 3_000  # > the initial 1024-slot ticket table
    xs, ys = generate_random_queries(500, q, seed=14)
    service = LCAQueryService(policy=BatchPolicy(max_batch_size=256,
                                                 max_wait_s=1e-4))
    service.register_tree("t", parents)
    at = np.arange(q, dtype=np.float64) * 1e-7
    tickets = service.submit_many("t", xs, ys, at=at)
    service.drain()
    assert np.array_equal(service.results(tickets),
                          BinaryLiftingLCA(parents).query(xs, ys))
    assert service.stats().queries_answered == q
