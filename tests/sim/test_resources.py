"""Tests for Resource and Store."""

import gc
import types

import pytest

from repro.sim import Environment, Process, Request, Resource, Store


def test_resource_capacity_positive():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    log = []

    def user(name, hold):
        req = res.request()
        yield req
        log.append((name, "acquired", env.now))
        yield env.timeout(hold)
        res.release(req)

    env.process(user("a", 5.0))
    env.process(user("b", 5.0))
    env.process(user("c", 1.0))
    env.run()
    acquire_times = {name: t for name, _, t in log}
    assert acquire_times["a"] == 0.0
    assert acquire_times["b"] == 0.0
    # c waits for one of a/b to release at t=5
    assert acquire_times["c"] == 5.0


def test_resource_release_requires_held_request():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc():
        req = res.request()
        yield req
        res.release(req)
        with pytest.raises(Exception):
            res.release(req)

    env.process(proc())
    env.run()


def test_resource_count_tracks_users():
    env = Environment()
    res = Resource(env, capacity=3)

    def proc():
        req = res.request()
        yield req
        assert res.count >= 1
        yield env.timeout(1.0)
        res.release(req)

    for _ in range(3):
        env.process(proc())
    env.run()
    assert res.count == 0


def test_finished_processes_and_requests_leave_no_cyclic_garbage():
    """A finished process and a granted request are freed by refcount."""
    was_enabled = gc.isenabled()
    debug = gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        env = Environment()
        res = Resource(env, capacity=1)

        def user(hold):
            req = res.request()
            yield req
            yield env.timeout(hold)
            res.release(req)

        for hold in (1.0, 2.0, 3.0):
            env.process(user(hold))
        env.run()
        del env, res
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = [obj for obj in gc.garbage
                  if isinstance(obj, (Process, Request, types.GeneratorType))]
        assert leaked == []
    finally:
        gc.set_debug(debug)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()


def test_store_fifo_order():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for i in range(5):
            yield store.put(i)
            yield env.timeout(1.0)

    def consumer():
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_capacity_blocks_producer():
    env = Environment()
    store = Store(env, capacity=2)
    put_times = []

    def producer():
        for i in range(4):
            yield store.put(i)
            put_times.append(env.now)

    def consumer():
        yield env.timeout(10.0)
        for _ in range(4):
            yield store.get()
            yield env.timeout(10.0)

    env.process(producer())
    env.process(consumer())
    env.run()
    # First two puts succeed immediately; the rest wait for consumer gets.
    assert put_times[0] == 0.0
    assert put_times[1] == 0.0
    assert put_times[2] == 10.0
    assert put_times[3] == 20.0


def test_store_get_blocks_until_item_available():
    env = Environment()
    store = Store(env)
    result = {}

    def consumer():
        item = yield store.get()
        result["time"] = env.now
        result["item"] = item

    def producer():
        yield env.timeout(3.0)
        yield store.put("payload")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert result == {"time": 3.0, "item": "payload"}


def test_store_len_reflects_queued_items():
    env = Environment()
    store = Store(env)

    def proc():
        yield store.put("a")
        yield store.put("b")
        assert len(store) == 2
        yield store.get()
        assert len(store) == 1

    env.process(proc())
    env.run()
