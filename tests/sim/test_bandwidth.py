"""Tests for the fluid fair-sharing bandwidth model and CPU pools."""

import math

import pytest

from repro.sim import CPUPool, Environment, SharedBandwidth


def test_single_flow_gets_full_rate():
    env = Environment()
    link = SharedBandwidth(env, rate=100.0)

    def proc():
        record = yield link.transfer(500.0)
        return record

    p = env.process(proc())
    record = env.run(until=p)
    assert record.duration == pytest.approx(5.0)
    assert env.now == pytest.approx(5.0)


def test_two_equal_flows_share_rate():
    env = Environment()
    link = SharedBandwidth(env, rate=100.0)
    ends = []

    def proc():
        rec = yield link.transfer(100.0)
        ends.append(rec.end)

    env.process(proc())
    env.process(proc())
    env.run()
    # Each flow gets 50 units/s -> both finish at t=2.
    assert ends == [pytest.approx(2.0), pytest.approx(2.0)]


def test_flow_speeds_up_when_other_finishes():
    env = Environment()
    link = SharedBandwidth(env, rate=100.0)
    results = {}

    def small():
        rec = yield link.transfer(100.0)
        results["small"] = rec.end

    def large():
        rec = yield link.transfer(300.0)
        results["large"] = rec.end

    env.process(small())
    env.process(large())
    env.run()
    # Phase 1: both at 50 u/s. small finishes at t=2 with large having 200 left.
    # Phase 2: large alone at 100 u/s -> finishes at t=4.
    assert results["small"] == pytest.approx(2.0)
    assert results["large"] == pytest.approx(4.0)


def test_staggered_flow_arrival():
    env = Environment()
    link = SharedBandwidth(env, rate=100.0)
    results = {}

    def first():
        rec = yield link.transfer(200.0)
        results["first"] = rec.end

    def second():
        yield env.timeout(1.0)
        rec = yield link.transfer(100.0)
        results["second"] = rec.end

    env.process(first())
    env.process(second())
    env.run()
    # t in [0,1): first alone, does 100, has 100 left.
    # t in [1,3): both at 50 -> at t=3 first has 0 and second has 0.
    assert results["first"] == pytest.approx(3.0)
    assert results["second"] == pytest.approx(3.0)


def test_per_flow_cap_limits_single_flow():
    env = Environment()
    link = SharedBandwidth(env, rate=100.0, per_flow_rate=20.0)

    def proc():
        rec = yield link.transfer(100.0)
        return rec.end

    p = env.process(proc())
    assert env.run(until=p) == pytest.approx(5.0)


def test_zero_amount_completes_instantly():
    env = Environment()
    link = SharedBandwidth(env, rate=10.0)

    def proc():
        rec = yield link.transfer(0.0)
        return (rec.duration, env.now)

    p = env.process(proc())
    assert env.run(until=p) == (0.0, 0.0)


def test_total_transferred_accumulates():
    env = Environment()
    link = SharedBandwidth(env, rate=10.0)

    def proc(amount):
        yield link.transfer(amount)

    env.process(proc(30.0))
    env.process(proc(70.0))
    env.run()
    assert link.total_transferred == pytest.approx(100.0)


def test_invalid_parameters_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        SharedBandwidth(env, rate=0.0)
    with pytest.raises(ValueError):
        SharedBandwidth(env, rate=1.0, per_flow_rate=0.0)
    link = SharedBandwidth(env, rate=1.0)
    # A non-finite amount is refused before it joins the link: an infinite
    # flow would never complete, and a NaN one would poison every other.
    for amount in (math.inf, math.nan):
        with pytest.raises(ValueError):
            link.transfer(amount)
        assert link.active_flows == 0


def test_cpu_pool_full_speed_up_to_cores():
    env = Environment()
    cpu = CPUPool(env, cores=4)
    ends = []

    def task():
        rec = yield cpu.compute(2.0)
        ends.append(rec.end)

    for _ in range(4):
        env.process(task())
    env.run()
    assert all(end == pytest.approx(2.0) for end in ends)


def test_cpu_pool_oversubscription_slows_down():
    env = Environment()
    cpu = CPUPool(env, cores=2)
    ends = []

    def task():
        rec = yield cpu.compute(2.0)
        ends.append(rec.end)

    for _ in range(4):
        env.process(task())
    env.run()
    # 4 tasks of 2 core-seconds on 2 cores -> 4 seconds total.
    assert all(end == pytest.approx(4.0) for end in ends)
