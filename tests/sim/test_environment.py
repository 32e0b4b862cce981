"""Tests for the simulation environment, events and processes."""

import math

import pytest

from repro.sim import Environment, Interrupt, SimulationError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_starts_at_initial_time():
    env = Environment(initial_time=10.0)
    assert env.now == 10.0


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(5.0)
    env.run()
    assert env.now == 5.0


def test_timeout_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1.0)


def test_timeout_nan_delay_rejected():
    # NaN compares false against everything: a `delay < 0` check lets it
    # through and the un-orderable fire time then corrupts the schedule.
    # Infinity has no wheel tick and would never fire.
    env = Environment()
    for delay in (math.nan, math.inf):
        with pytest.raises(ValueError):
            env.timeout(delay)


def test_schedule_negative_delay_rejected():
    # Regression: schedule() used to accept negative delays, planting a
    # heap entry in the past and silently breaking the merge invariant
    # that the immediate deque always beats strictly-earlier entries.
    env = Environment()
    with pytest.raises(ValueError):
        env.schedule(env.event(), delay=-0.5)


def test_schedule_nan_delay_rejected():
    env = Environment()
    for delay in (math.nan, math.inf):
        with pytest.raises(ValueError):
            env.schedule(env.event(), delay=delay)
    # run(until=t) schedules its stop event through the same check.
    with pytest.raises(ValueError):
        env.run(until=math.inf)


def test_run_until_time_stops_early():
    env = Environment()
    env.timeout(100.0)
    env.run(until=3.0)
    assert env.now == 3.0


def test_run_until_past_time_rejected():
    env = Environment()
    env.timeout(5.0)
    env.run()
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_process_return_value():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        return 42

    p = env.process(proc())
    result = env.run(until=p)
    assert result == 42
    assert env.now == 1.0


def test_process_sequencing():
    env = Environment()
    log = []

    def proc(name, delay):
        yield env.timeout(delay)
        log.append((name, env.now))

    env.process(proc("b", 2.0))
    env.process(proc("a", 1.0))
    env.run()
    assert log == [("a", 1.0), ("b", 2.0)]


def test_process_waits_for_other_process():
    env = Environment()

    def child():
        yield env.timeout(3.0)
        return "child-result"

    def parent():
        result = yield env.process(child())
        return result

    p = env.process(parent())
    assert env.run(until=p) == "child-result"
    assert env.now == 3.0


def test_event_succeed_value_propagates():
    env = Environment()
    evt = env.event()

    def waiter():
        value = yield evt
        return value

    def trigger():
        yield env.timeout(1.0)
        evt.succeed("hello")

    p = env.process(waiter())
    env.process(trigger())
    assert env.run(until=p) == "hello"


def test_event_double_trigger_rejected():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_failed_event_raises_in_waiting_process():
    env = Environment()
    evt = env.event()

    def waiter():
        try:
            yield evt
        except RuntimeError as exc:
            return f"caught:{exc}"

    def trigger():
        yield env.timeout(1.0)
        evt.fail(RuntimeError("boom"))

    p = env.process(waiter())
    env.process(trigger())
    assert env.run(until=p) == "caught:boom"


def test_unhandled_process_exception_surfaces_from_run():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise ValueError("broken process")

    env.process(bad())
    with pytest.raises(ValueError, match="broken process"):
        env.run()


def test_yielding_non_event_fails_process():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_all_of_collects_all_values():
    env = Environment()
    t1 = env.timeout(1.0, value="a")
    t2 = env.timeout(2.0, value="b")

    def proc():
        results = yield env.all_of([t1, t2])
        return sorted(results.values())

    p = env.process(proc())
    assert env.run(until=p) == ["a", "b"]
    assert env.now == 2.0


def test_any_of_fires_on_first():
    env = Environment()
    t1 = env.timeout(1.0, value="fast")
    t2 = env.timeout(5.0, value="slow")

    def proc():
        results = yield env.any_of([t1, t2])
        return list(results.values())

    p = env.process(proc())
    assert env.run(until=p) == ["fast"]
    assert env.now == 1.0


def test_and_or_operators():
    env = Environment()
    t1 = env.timeout(1.0, value=1)
    t2 = env.timeout(2.0, value=2)

    def proc():
        yield t1 & t2
        return env.now

    p = env.process(proc())
    assert env.run(until=p) == 2.0


def test_interrupt_delivered_to_process():
    env = Environment()

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            return ("interrupted", interrupt.cause, env.now)

    def interrupter(target):
        yield env.timeout(2.0)
        target.interrupt(cause="stop-now")

    target = env.process(sleeper())
    env.process(interrupter(target))
    result = env.run(until=target)
    assert result == ("interrupted", "stop-now", 2.0)


def test_interrupting_dead_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_run_until_already_processed_event():
    env = Environment()
    t = env.timeout(1.0, value="x")
    env.run()
    assert env.run(until=t) == "x"


def test_run_until_already_processed_failed_event_raises():
    # Regression: run(until=<processed failed event>) used to *return* the
    # exception instance as the run value instead of raising it, unlike
    # the _stop_on path taken when the target fails during the run.
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise RuntimeError("went wrong")

    p = env.process(bad())
    with pytest.raises(RuntimeError, match="went wrong"):
        env.run()
    assert p.processed and not p.ok
    with pytest.raises(RuntimeError, match="went wrong"):
        env.run(until=p)


def test_any_of_second_failure_after_trigger_is_defused():
    # Regression: a sub-event failure arriving after the condition already
    # triggered was never defused, so run() re-raised an exception the
    # condition's waiter had already handled.
    env = Environment()
    e1 = env.event()
    e2 = env.event()

    def waiter():
        try:
            yield env.any_of([e1, e2])
        except RuntimeError as exc:
            return f"caught:{exc}"

    def failer():
        yield env.timeout(1.0)
        e1.fail(RuntimeError("first"))
        e2.fail(RuntimeError("second"))

    p = env.process(waiter())
    env.process(failer())
    assert env.run(until=p) == "caught:first"
    # And the queue drains cleanly afterwards — no orphaned failure left.
    env.run()


def test_wide_all_of_collects_every_value_in_declaration_order():
    # Covers the set-based fired-event tracking in Condition (the old list
    # probe made wide AllOf grids quadratic) and pins that the result dict
    # preserves declaration order, not completion order.
    env = Environment()
    n = 400
    events = [env.timeout(1.0 + (i % 7) * 0.25, value=i) for i in range(n)]

    def proc():
        results = yield env.all_of(events)
        return list(results.values())

    p = env.process(proc())
    assert env.run(until=p) == list(range(n))


def test_timestamps_are_monotonic_across_many_events():
    env = Environment()
    times = []

    def proc(delay):
        yield env.timeout(delay)
        times.append(env.now)

    for d in [5, 1, 3, 2, 4, 0.5, 2.5]:
        env.process(proc(d))
    env.run()
    assert times == sorted(times)
