"""Tests for the simulated worker pool."""

import gc
import sys

import pytest

from repro.sim import Environment, WorkerPool


def make_task(env, duration, result=None):
    def task():
        yield env.timeout(duration)
        return result
    return task


def test_pool_requires_positive_workers():
    env = Environment()
    with pytest.raises(ValueError):
        WorkerPool(env, workers=0)


def test_single_worker_serializes_tasks():
    env = Environment()
    pool = WorkerPool(env, workers=1)
    jobs = [pool.submit(make_task(env, 2.0, i)) for i in range(3)]
    env.run(until=env.all_of(jobs))
    assert env.now == pytest.approx(6.0)
    assert [j.value for j in jobs] == [0, 1, 2]


def test_parallel_workers_overlap_tasks():
    env = Environment()
    pool = WorkerPool(env, workers=4)
    jobs = [pool.submit(make_task(env, 2.0, i)) for i in range(4)]
    env.run(until=env.all_of(jobs))
    assert env.now == pytest.approx(2.0)


def test_failed_task_fails_job_event():
    env = Environment()
    pool = WorkerPool(env, workers=1)

    def bad():
        yield env.timeout(1.0)
        raise RuntimeError("task exploded")

    job = pool.submit(bad)

    def waiter():
        try:
            yield job
        except RuntimeError as exc:
            return str(exc)

    p = env.process(waiter())
    assert env.run(until=p) == "task exploded"


def test_pool_continues_after_failed_task():
    env = Environment()
    pool = WorkerPool(env, workers=1)

    def bad():
        raise RuntimeError("early failure")
        yield  # pragma: no cover - makes this a generator

    bad_job = pool.submit(bad)
    good_job = pool.submit(make_task(env, 1.0, "ok"))

    def waiter():
        try:
            yield bad_job
        except RuntimeError:
            pass
        result = yield good_job
        return result

    p = env.process(waiter())
    assert env.run(until=p) == "ok"


def test_close_drains_queue_then_stops_workers():
    env = Environment()
    pool = WorkerPool(env, workers=2)
    jobs = [pool.submit(make_task(env, 1.0, i)) for i in range(4)]
    done = pool.close()
    env.run(until=done)
    assert pool.completed_jobs == 4
    assert all(j.triggered for j in jobs)
    with pytest.raises(RuntimeError):
        pool.submit(make_task(env, 1.0))


def test_collected_pool_closes_its_workers_cleanly(monkeypatch):
    """A pool dropped mid-task must let its worker generator close: the
    worker may not swallow the GeneratorExit that garbage collection sends."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    env = Environment()
    pool = WorkerPool(env, workers=1)
    pool.submit(make_task(env, 10.0))
    env.run(until=0.5)
    del env, pool
    gc.collect()
    assert unraisable == []
