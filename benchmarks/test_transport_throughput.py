"""Micro-benchmark: work-queue cycle throughput across the transports.

Measures full queue cycles — enqueue, claim (conditional-create CAS),
complete (result write + retirement) — per second over each
:class:`~repro.campaign.dist.transport.QueueTransport` backend, in one
process back-to-back so machine noise hits all sides alike.

This is scheduling *overhead*, not simulation work: the numbers bound how
small a job can be before queue bookkeeping dominates.  Expected shape:
memory ≫ filesystem ≳ HTTP — server-side ``POST /claim`` plus the
one-shot ``mutate_many`` settle cut a broker cycle from ~6 round trips
to ~2, so HTTP now competes with the filesystem.  Floors are asserted
loose enough to survive CI hosts.  Opt-in via ``pytest -m bench``.
"""

import time

import pytest

from repro.campaign import SweepSpec
from repro.campaign.dist import (
    FsTransport,
    HttpTransport,
    MemoryTransport,
    WorkQueue,
)
from repro.campaign.dist.server import Broker
from repro.campaign.jobs import JobResult

pytestmark = pytest.mark.bench

#: Queue cycles per measured round.
N_JOBS = 60

#: Timed rounds per transport; the best round is reported.  Taking the
#: minimum time over repeats is the standard way to estimate the true
#: cost under host noise (CI neighbours, frequency scaling).
ROUNDS = 3


def _jobs(n):
    spec = SweepSpec(name="queue-bench", case="synthetic",
                     base={"rate": 150.0}, grid={"tasks": list(range(n))})
    return spec.expand()


def _drain(queue, jobs):
    queue.enqueue_grid(jobs)
    settled = 0
    while True:
        item = queue.claim("bench-worker")
        if item is None:
            break
        queue.complete(item, JobResult(
            job_id=item.key, case=item.job.case, params=item.job.params,
            seed=item.job.seed, metrics={"x": 1.0}, wall_time=0.001))
        settled += 1
    return settled


def _cycle_rate(transport):
    """Best full-cycle (enqueue→claim→complete) rate over ``transport``.

    Enqueueing uses the batched bulk path (``enqueue_grid``) — the way
    campaigns actually submit grids — so the measured cycle is the
    operational hot loop: batch enqueue, paginated claim scan with
    batch-probed candidates, batched settle.  An untimed warmup round
    drains first-use costs (interpreter-cold code paths, connection
    setup) so transport order in the run doesn't skew the comparison,
    then the best of :data:`ROUNDS` disjoint timed rounds is reported.
    """
    queue = WorkQueue(transport=transport, lease_seconds=60.0)
    grid = _jobs((ROUNDS + 1) * N_JOBS)
    rounds = [grid[i * N_JOBS:(i + 1) * N_JOBS] for i in range(ROUNDS + 1)]
    assert _drain(queue, rounds[0]) == N_JOBS  # warmup, untimed
    best = 0.0
    for jobs in rounds[1:]:
        start = time.perf_counter()
        settled = _drain(queue, jobs)
        elapsed = time.perf_counter() - start
        assert settled == len(jobs)
        assert queue.drained()
        best = max(best, settled / elapsed)
    return best


@pytest.fixture(scope="module")
def rates(tmp_path_factory):
    root = tmp_path_factory.mktemp("transport-bench")
    out = {"memory": _cycle_rate(MemoryTransport()),
           "fs": _cycle_rate(FsTransport(root / "fs-queue"))}
    with Broker() as broker:
        out["http"] = _cycle_rate(HttpTransport(broker.url, retries=1))
    return out


def test_report_and_floor_cycle_rates(rates, bench_artifact):
    for name, rate in sorted(rates.items(), key=lambda kv: -kv[1]):
        print(f"\n{name:>7}: {rate:8,.0f} queue cycles/s")
    bench_artifact("transport", {
        f"{name}_cycles_per_s": rate for name, rate in rates.items()})
    # Conservative floors (the perf-smoke CI leg fails on regression
    # below them).  The HTTP floor is calibrated to the server-side
    # ``POST /claim`` + single ``mutate_many`` settle (~2 round trips
    # per cycle): the previous client-side scan measured ~560 cycles/s
    # locally and could not clear it.
    assert rates["memory"] > 200.0
    assert rates["fs"] > 50.0
    assert rates["http"] > 250.0


def test_memory_transport_is_the_fast_path(rates):
    """The in-process store exists to make many-tiny-job fleets cheap: it
    must comfortably outpace the network hop."""
    assert rates["memory"] > rates["http"]
