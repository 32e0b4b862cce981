"""Tests for the reporting helpers, plus property tests of them and of
Darshan's access-size buckets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.darshan import size_bucket
from repro.tools import (
    PaperComparison,
    comparison_table,
    format_table,
    gib,
    mbps,
    mib,
    percent,
    within_factor,
)


# -- reporting ---------------------------------------------------------------

def test_format_table_alignment():
    text = format_table(["a", "bbbb"], [["x", 1], ["yyyy", 22]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
    assert "yyyy" in lines[3]


def test_comparison_table_marks_mismatches():
    rows = [PaperComparison("q1", "1", "1", True),
            PaperComparison("q2", "2", "3", False, note="off")]
    text = comparison_table(rows)
    assert "ok" in text and "DIFFERS" in text and "off" in text


def test_unit_formatters():
    assert mbps(94e6) == "94.0 MB/s"
    assert mib(1 << 20) == "1.0 MiB"
    assert gib(1 << 30) == "1.00 GiB"
    assert percent(0.197) == "19.7 %"


def test_within_factor():
    assert within_factor(94, 100, 1.1)
    assert not within_factor(50, 100, 1.5)
    assert within_factor(0.0, 0.0, 2.0)


@given(st.floats(min_value=1e-6, max_value=1e12),
       st.floats(min_value=1.0, max_value=10.0))
@settings(max_examples=50, deadline=None)
def test_within_factor_symmetric(value, factor):
    assert within_factor(value, value, factor)
    assert within_factor(value * factor * 1.01, value, factor) is False


# -- Darshan size buckets (property) -------------------------------------------

@given(st.integers(min_value=0, max_value=2**40))
@settings(max_examples=200, deadline=None)
def test_size_bucket_total_order(nbytes):
    """Every size maps to exactly one bucket and boundaries are inclusive."""
    label = size_bucket(nbytes)
    assert label in {
        "0_100", "100_1K", "1K_10K", "10K_100K", "100K_1M", "1M_4M",
        "4M_10M", "10M_100M", "100M_1G", "1G_PLUS"}
    if nbytes <= 100:
        assert label == "0_100"
    if nbytes > (1 << 30):
        assert label == "1G_PLUS"


def test_size_bucket_rejects_negative():
    with pytest.raises(ValueError):
        size_bucket(-1)
