"""A window delta shares the end snapshot's counters of a record new in the
window, and cannot write them."""

import tracemalloc

import pytest

from repro.core import DarshanMiddleman, enable
from repro.tfmini import io_ops
from tests.core.conftest import make_files, run


def _window(runtime, env, before, during):
    """Start and stop snapshots around reading the ``during`` files."""
    def proc():
        attachment = enable(runtime).attachment
        yield from attachment.attach()
        for path in before:
            yield from io_ops.read_file(runtime, path)
        middleman = DarshanMiddleman(attachment)
        start = yield from middleman.take_snapshot()
        for path in during:
            yield from io_ops.read_file(runtime, path)
        stop = yield from middleman.take_snapshot()
        return middleman, start, stop

    return run(env, proc())


def test_writing_a_delta_view_raises_and_leaves_the_snapshot_unchanged(
        runtime, os_image, env):
    old, new = make_files(os_image, 2, 30_000)
    middleman, start, stop = _window(runtime, env, [old], [old, new])
    delta = middleman.diff(start, stop)
    assert len(delta.posix) == 2
    before = {rid: rec.as_dict() for rid, rec in stop.posix.items()}
    for record in delta.posix:
        for view, name, value in ((record.counters, "POSIX_READS", 99),
                                  (record.end_counters, "POSIX_READS", 99),
                                  (record.fcounters, "POSIX_F_READ_TIME", 9.0)):
            with pytest.raises(TypeError):
                view[name] = value
    assert {rid: rec.as_dict() for rid, rec in stop.posix.items()} == before
    assert delta.total("POSIX", "POSIX_READS") == 4


def test_diff_of_new_records_allocates_under_1_kib_per_record(
        runtime, os_image, env):
    n = 200
    paths = make_files(os_image, n, 20_000)
    middleman, start, stop = _window(runtime, env, [], paths)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        delta = middleman.diff(start, stop)
        used, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(delta.posix) == n and len(delta.dxt_posix) == n
    assert used - base < 1024 * n
    assert peak - base < 1024 * n
