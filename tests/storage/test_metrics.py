"""Tests for device metrics and throughput timelines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.metrics import DeviceMetrics, merge_timelines


def test_bytes_between_full_overlap():
    m = DeviceMetrics("d")
    m.record_transfer(1.0, 3.0, 200)
    assert m.bytes_between(0.0, 4.0) == pytest.approx(200)


def test_bytes_between_partial_overlap_is_proportional():
    m = DeviceMetrics("d")
    m.record_transfer(0.0, 10.0, 1000)
    assert m.bytes_between(0.0, 5.0) == pytest.approx(500)
    assert m.bytes_between(2.5, 7.5) == pytest.approx(500)
    assert m.bytes_between(9.0, 20.0) == pytest.approx(100)


def test_bytes_between_read_write_filter():
    m = DeviceMetrics("d")
    m.record_transfer(0.0, 1.0, 100, is_write=False)
    m.record_transfer(0.0, 1.0, 50, is_write=True)
    assert m.bytes_between(0, 1, writes=False) == pytest.approx(100)
    assert m.bytes_between(0, 1, writes=True) == pytest.approx(50)
    assert m.bytes_between(0, 1) == pytest.approx(150)


def test_instantaneous_transfer_lands_in_its_bin():
    m = DeviceMetrics("d")
    m.record_transfer(2.0, 2.0, 42)
    assert m.bytes_between(2.0, 3.0) == pytest.approx(42)
    assert m.bytes_between(0.0, 2.0) == pytest.approx(0)


def test_throughput_timeline_bins():
    m = DeviceMetrics("d")
    m.record_transfer(0.0, 2.0, 200)  # 100 B/s for two seconds
    times, rates = m.throughput_timeline(bin_seconds=1.0)
    assert len(times) == 2
    assert rates[0] == pytest.approx(100)
    assert rates[1] == pytest.approx(100)


def test_throughput_timeline_total_is_conserved():
    m = DeviceMetrics("d")
    m.record_transfer(0.3, 4.7, 1234)
    m.record_transfer(1.1, 1.9, 777)
    times, rates = m.throughput_timeline(bin_seconds=0.5)
    assert rates.sum() * 0.5 == pytest.approx(1234 + 777, rel=1e-9)


def _per_bin_timeline(m, bin_seconds, until, writes):
    """The timeline as one bytes_between call per bin: the reference."""
    t_end = until if until is not None else max(iv.end for iv in m.intervals)
    n_bins = max(1, int(np.ceil(t_end / bin_seconds)))
    edges = np.arange(n_bins + 1) * bin_seconds
    values = np.zeros(n_bins)
    for i in range(n_bins):
        values[i] = m.bytes_between(edges[i], edges[i + 1], writes=writes)
    return edges[:-1], values / bin_seconds


@st.composite
def _transfers(draw, bin_seconds):
    """Intervals as (start, end): zero-length on and between bin edges,
    long ones spanning many bins, and ones starting past ``until``."""
    edge = st.integers(0, 40).map(lambda k: k * bin_seconds)
    point = st.floats(0.0, 40.0, allow_nan=False)
    kind = draw(st.sampled_from(("on-edge", "between", "spanning", "late")))
    if kind == "on-edge":
        start = draw(edge)
        return start, start
    if kind == "between":
        start = draw(point)
        return start, start
    if kind == "spanning":
        start = draw(st.one_of(edge, point))
        return start, start + draw(st.floats(0.0, 25.0, allow_nan=False))
    start = draw(st.floats(40.0, 60.0, allow_nan=False))
    return start, start + draw(st.floats(0.0, 5.0, allow_nan=False))


@st.composite
def _timeline_cases(draw):
    bin_seconds = draw(st.sampled_from((1.0, 0.5, 0.3)))
    transfers = draw(st.lists(
        st.tuples(_transfers(bin_seconds), st.integers(0, 1 << 40),
                  st.booleans()),
        min_size=1, max_size=40))
    until = draw(st.one_of(
        st.none(),
        st.integers(0, 40).map(lambda k: k * bin_seconds),
        st.floats(0.0, 40.0, allow_nan=False)))
    writes = draw(st.sampled_from((None, True, False)))
    return bin_seconds, transfers, until, writes


@settings(max_examples=300, deadline=None)
@given(_timeline_cases())
def test_throughput_timeline_equals_per_bin_bytes_between(case):
    bin_seconds, transfers, until, writes = case
    m = DeviceMetrics("d")
    for (start, end), nbytes, is_write in transfers:
        m.record_transfer(start, end, nbytes, is_write=is_write)
    times, rates = m.throughput_timeline(bin_seconds=bin_seconds, until=until,
                                         writes=writes)
    want_times, want_rates = _per_bin_timeline(m, bin_seconds, until, writes)
    assert np.array_equal(times, want_times)
    assert np.array_equal(rates, want_rates)


def test_invalid_interval_rejected():
    m = DeviceMetrics("d")
    with pytest.raises(ValueError):
        m.record_transfer(5.0, 4.0, 10)


def test_reset_clears_everything():
    m = DeviceMetrics("d")
    m.record_transfer(0.0, 1.0, 10)
    m.record_metadata_op()
    m.reset()
    assert m.total_bytes == 0
    assert m.metadata_ops == 0
    assert m.intervals == []


def test_merge_timelines_sums_rates():
    a = (np.array([0.0, 1.0]), np.array([10.0, 20.0]))
    b = (np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
    times, total = merge_timelines([a, b])
    assert len(times) == 3
    assert total[0] == pytest.approx(11.0)
    assert total[1] == pytest.approx(22.0)
    assert total[2] == pytest.approx(3.0)


def test_merge_timelines_empty():
    times, total = merge_timelines([])
    assert len(times) == 0 and len(total) == 0
