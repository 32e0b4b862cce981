"""Executor semantics and campaign determinism across executors."""

import pytest

from repro.campaign import (
    CampaignResult,
    MultiprocessingExecutor,
    SerialExecutor,
    SweepSpec,
    UnknownCaseError,
    execute_job,
    run_campaign,
)


def _spec(**overrides):
    kwargs = dict(name="exec-spec", case="synthetic",
                  base={"rate": 120.0},
                  grid={"workers": [1, 2, 3], "tasks": [6, 12, 24, 48]})
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


def test_serial_executor_preserves_order():
    assert SerialExecutor().map(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]


def test_multiprocessing_executor_preserves_order():
    executor = MultiprocessingExecutor(processes=3)
    items = list(range(20))
    assert executor.map(_double, items) == [2 * i for i in items]


def _double(x):
    return 2 * x


def test_multiprocessing_single_item_runs_inline():
    executor = MultiprocessingExecutor(processes=4)
    assert executor.map(_double, [21]) == [42]


def test_identical_aggregates_under_serial_and_parallel():
    """The acceptance property: a >=12-job grid produces bit-identical
    aggregate results no matter which executor ran it."""
    spec = _spec()
    assert spec.job_count == 12
    serial = run_campaign(spec, executor=SerialExecutor())
    parallel = run_campaign(spec, executor=MultiprocessingExecutor(processes=4))
    assert len(serial) == len(parallel) == 12
    assert serial.ok and parallel.ok
    assert serial.aggregate_fingerprint() == parallel.aggregate_fingerprint()
    assert serial.rows() == parallel.rows()
    assert serial.executor == "serial"
    assert parallel.executor == "multiprocessing"


def test_job_failures_are_isolated_not_fatal():
    spec = SweepSpec(name="failing", case="synthetic",
                     grid={"workers": [0, 1]})  # workers=0 raises ValueError
    result = run_campaign(spec)
    assert not result.ok
    assert len(result.failures) == 1
    assert "ValueError" in result.failures[0].error
    ok_jobs = [r for r in result if r.ok]
    assert len(ok_jobs) == 1


def test_failed_jobs_are_not_cached(tmp_path):
    from repro.campaign import ResultCache

    cache = ResultCache(tmp_path)
    spec = SweepSpec(name="failing", case="synthetic",
                     grid={"workers": [0, 1]})
    run_campaign(spec, cache=cache)
    assert len(cache) == 1  # only the successful job was persisted
    again = run_campaign(spec, cache=cache)
    assert again.cache_hits == 1
    assert again.cache_misses == 1


def test_unknown_case_raises():
    spec = SweepSpec(name="nope", case="does-not-exist", grid={"x": [1]})
    with pytest.raises(UnknownCaseError):
        execute_job(spec.expand()[0])


def test_campaign_result_views():
    result = run_campaign(_spec())
    xs, ys = result.series("tasks", "makespan", where={"workers": 2})
    assert xs == [6, 12, 24, 48]
    assert ys == sorted(ys)  # more tasks -> longer makespan
    groups = result.group_by("workers")
    assert set(groups) == {1, 2, 3}
    assert all(len(group) == 4 for group in groups.values())
    table = result.table(["workers", "tasks", "completed"])
    assert len(table) == 12
    assert all(row[2] == row[1] for row in table)  # all tasks completed
    best = result.best("makespan", minimize=True)
    assert best.params["tasks"] == 6
    one = result.one({"workers": 3, "tasks": 48})
    assert one.metrics["completed"] == 48
    assert isinstance(result, CampaignResult)
    assert "12 jobs" in result.summary()
