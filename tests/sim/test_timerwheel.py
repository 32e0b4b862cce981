"""Unit tests for the calendar-queue timer wheel.

The wheel's correctness contract is deliberately narrow: it may refuse any
entry (the environment's heap is always a correct fallback), but every
entry it *accepts* must come back in ``(time, key)`` order.  These tests
pin that contract plus the geometry details (power-of-two validation,
current-tick refusal, horizon, wrap-around, idle resync) directly;
``test_properties.py`` then proves the composed kernel differentially
against the frozen seed scheduler.
"""

import pytest

from repro.sim import Environment
from repro.sim.timerwheel import TimerWheel


def _drain(wheel):
    out = []
    while wheel.head() is not None:
        out.append(wheel.pop())
    return out


def test_nslots_must_be_a_power_of_two():
    for bad in (0, 1, 3, 12, 1000):
        with pytest.raises(ValueError):
            TimerWheel(nslots=bad)
    TimerWheel(nslots=2)  # smallest legal wheel


def test_push_refuses_current_tick_past_and_beyond_horizon():
    # tick = 0.25 s, 8 slots -> horizon 2 s with the cursor at tick 0.
    w = TimerWheel(0.0, tick_bits=2, nslots=8)
    assert not w.push(0.1, 1, "current-tick", now=0.0)
    assert not w.push(-1.0, 2, "past", now=0.0)
    assert not w.push(2.0, 3, "at-horizon", now=0.0)
    assert not w.push(50.0, 4, "far-future", now=0.0)
    assert len(w) == 0
    assert w.push(0.5, 5, "in-horizon", now=0.0)
    assert w.push(1.75, 6, "last-slot", now=0.0)
    assert len(w) == 2


def test_serves_entries_in_time_then_key_order():
    w = TimerWheel(0.0, tick_bits=2, nslots=8)
    assert w.push(1.0, 5, "c", now=0.0)
    assert w.push(0.3, 7, "b", now=0.0)
    assert w.push(0.3, 2, "a", now=0.0)
    got = []
    while w:
        head = w.head()
        assert head == w.pop()
        got.append(head)
    assert got == [(0.3, 2, "a"), (0.3, 7, "b"), (1.0, 5, "c")]


def test_same_slot_orders_by_time_before_key():
    # 0.26 and 0.30 both bucket into tick 1 (0.25 s tick); the later push
    # has the smaller fire time and must still come out first.
    w = TimerWheel(0.0, tick_bits=2, nslots=8)
    w.push(0.30, 1, "later", now=0.0)
    w.push(0.26, 2, "earlier", now=0.0)
    assert _drain(w) == [(0.26, 2, "earlier"), (0.30, 1, "later")]


def test_len_and_bool_track_the_drain_buffer():
    w = TimerWheel(0.0, tick_bits=2, nslots=8)
    w.push(0.3, 1, "a", now=0.0)
    w.push(0.3, 2, "b", now=0.0)
    assert len(w) == 2 and w
    w.head()  # sorts the slot into the drain buffer
    assert len(w) == 2 and w
    w.pop()
    assert len(w) == 1 and w
    w.pop()
    assert len(w) == 0 and not w
    assert w.head() is None
    assert w.head() is None  # idempotent on an empty wheel


def test_wraps_around_the_slot_array():
    # tick = 1 s, 4 slots: ticks 5..6 reuse the slot lists of ticks 1..2.
    w = TimerWheel(0.0, tick_bits=0, nslots=4)
    for t, key in [(1.0, 1), (2.0, 2), (3.0, 3)]:
        assert w.push(float(t), key, key, now=0.0)
    assert _drain(w) == [(1.0, 1, 1), (2.0, 2, 2), (3.0, 3, 3)]
    # Cursor now sits at tick 3; 5.0 and 6.0 are in-horizon again and land
    # in the recycled slots.
    assert w.push(6.0, 5, "f", now=3.0)
    assert w.push(5.0, 4, "e", now=3.0)
    assert _drain(w) == [(5.0, 4, "e"), (6.0, 5, "f")]


def test_idle_wheel_resyncs_cursor_to_now():
    w = TimerWheel(0.0, tick_bits=0, nslots=4)
    # Far beyond the horizon while the cursor is at 0: refused.
    assert not w.push(1000.0, 1, "far", now=0.0)
    # After the simulation ran heap-only to t=999 the idle wheel snaps its
    # cursor forward, and the same fire time is suddenly in-horizon.
    assert w.push(1000.0, 2, "near", now=999.0)
    assert _drain(w) == [(1000.0, 2, "near")]


def test_pending_entries_pin_the_cursor():
    w = TimerWheel(0.0, tick_bits=0, nslots=4)
    assert w.push(1.0, 1, "a", now=0.0)
    # A pending entry forbids the resync — snapping forward would strand
    # "a" behind the cursor.
    assert not w.push(1000.0, 2, "b", now=999.0)
    assert _drain(w) == [(1.0, 1, "a")]


# ---------------------------------------------------------------------------
# The wheel inside the Environment
# ---------------------------------------------------------------------------

def test_tick_knobs_change_the_container_not_the_order():
    """Every (tick_bits, nslots) wheel geometry must produce the identical
    schedule — the geometry only moves events between wheel and heap."""
    def run(geometry=None):
        env = Environment()
        if geometry is not None:
            tick_bits, nslots = geometry
            env._wheel = TimerWheel(env.now, tick_bits=tick_bits, nslots=nslots)
        log = []

        def proc(i, d1, d2):
            yield env.timeout(d1)
            log.append((env.now, i, 0))
            yield env.timeout(d2)
            log.append((env.now, i, 1))

        delays = [0.0, 2.0 ** -11, 2.0 ** -10, 0.25, 0.999, 1.0, 1.5, 70.0]
        for i, d1 in enumerate(delays):
            env.process(proc(i, d1, delays[-1 - i]))
        env.run()
        return env.now, log

    baseline = run()
    assert run((2, 8)) == baseline
    assert run((0, 2)) == baseline
    assert run((16, 4096)) == baseline
