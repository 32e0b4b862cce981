"""Snapshots reuse the copies of unchanged records and equal full copies."""

import random

import pytest

from repro.core import (
    DarshanMiddleman,
    Snapshot,
    TfDarshanOptions,
    get_attachment,
)
from repro.darshan import (
    DarshanConfig,
    darshan_record_id,
    get_dxt_records,
    get_module_records,
)
from repro.posix import O_WRONLY, SimBytes
from repro.tfmini import io_ops
from tests.core.conftest import make_files, run

MODULES = ("posix", "stdio", "dxt_posix", "dxt_stdio")


def _full_copies(core, time):
    """The snapshot as independent, freshly copied module buffers."""
    return Snapshot(time=time,
                    posix=get_module_records(core, "POSIX"),
                    stdio=get_module_records(core, "STDIO"),
                    dxt_posix=get_dxt_records(core, "POSIX"),
                    dxt_stdio=get_dxt_records(core, "STDIO"))


def _assert_same_records(snapshot, full):
    for module in MODULES:
        got, want = getattr(snapshot, module), getattr(full, module)
        assert list(got) == list(want)
        assert {rid: rec.as_dict() for rid, rec in got.items()} == \
            {rid: rec.as_dict() for rid, rec in want.items()}


def _reused(before, after):
    return sum(after[rid] is before.get(rid) for rid in after)


def _random_op(rng, runtime, os_image, attachment, path):
    """One random POSIX or STDIO operation (or a finalize) on ``path``."""
    call = os_image.call
    kind = rng.choice(("read", "read", "pwrite", "stat", "seek", "fwrite",
                       "fread", "finalize"))
    if kind == "read":
        yield from io_ops.read_file(runtime, path)
    elif kind == "pwrite":
        fd = yield from call("open", path, O_WRONLY)
        for _ in range(rng.randint(1, 3)):
            yield from call("pwrite", fd, rng.randint(0, 40_000),
                            rng.randint(0, 60_000))
        yield from call("close", fd)
    elif kind == "stat":
        yield from call("stat", path)
    elif kind == "seek":
        fd = yield from call("open", path)
        yield from call("lseek", fd, rng.randint(0, 10_000))
        yield from call("read", fd, rng.randint(0, 20_000))
        yield from call("fstat", fd)
        yield from call("fsync", fd)
        yield from call("close", fd)
    elif kind == "fwrite":
        stream = yield from call("fopen", path, "ab")
        for _ in range(rng.randint(1, 4)):
            yield from call("fwrite", stream, SimBytes(rng.randint(1, 30_000)))
        yield from call("fflush", stream)
        yield from call("fclose", stream)
    elif kind == "fread":
        stream = yield from call("fopen", path, "rb")
        yield from call("fread", stream, rng.randint(0, 20_000))
        yield from call("fseek", stream, rng.randint(0, 5_000))
        yield from call("fread", stream, rng.randint(0, 20_000))
        yield from call("fclose", stream)
    else:
        attachment.posix_module.finalize()
        attachment.stdio_module.finalize()


@pytest.mark.parametrize("seed", range(8))
def test_snapshots_and_diffs_equal_full_copies_under_random_io(
        seed, runtime, os_image, env):
    rng = random.Random(seed)
    # Odd seeds cap the DXT segments, so dropped segments move the stamp.
    cap = 3 if seed % 2 else 1 << 16
    options = TfDarshanOptions(
        darshan=DarshanConfig(max_dxt_segments_per_record=cap))
    paths = make_files(os_image, 5, 30_000)

    def proc():
        attachment = get_attachment(runtime, options)
        yield from attachment.attach()
        middleman = DarshanMiddleman(attachment)
        taken = []
        for _ in range(40):
            if rng.random() < 0.3:
                full = _full_copies(attachment.core, env.now)
                snapshot = yield from middleman.take_snapshot()
                taken.append((snapshot, full))
            yield from _random_op(rng, runtime, os_image, attachment,
                                  rng.choice(paths))
        full = _full_copies(attachment.core, env.now)
        snapshot = yield from middleman.take_snapshot()
        taken.append((snapshot, full))
        return middleman, taken

    middleman, taken = run(env, proc())
    for snapshot, full in taken:
        _assert_same_records(snapshot, full)
    for i, (start, full_start) in enumerate(taken):
        for end, full_end in taken[i + 1:]:
            assert middleman.diff(start, end) == middleman.diff(full_start,
                                                                full_end)
    assert sum(_reused(a.posix, b.posix) + _reused(a.stdio, b.stdio)
               for (a, _), (b, _) in zip(taken, taken[1:])) > 0


def test_stop_snapshot_reuses_the_copies_of_untouched_records(
        runtime, os_image, env):
    n = 8
    paths = make_files(os_image, n, 20_000)

    def proc():
        attachment = get_attachment(runtime)
        yield from attachment.attach()
        for path in paths:
            yield from io_ops.read_file(runtime, path)
        middleman = DarshanMiddleman(attachment)
        start = yield from middleman.take_snapshot()
        yield from io_ops.read_file(runtime, paths[3])
        stop = yield from middleman.take_snapshot()
        return start, stop, middleman.diff(start, stop)

    start, stop, delta = run(env, proc())
    touched = darshan_record_id(paths[3])
    for module in ("posix", "dxt_posix"):
        before, after = getattr(start, module), getattr(stop, module)
        assert len(after) == n
        assert {rid for rid in after if after[rid] is before[rid]} == \
            set(after) - {touched}
    assert [rec.record_id for rec in delta.posix] == [touched]
    assert list(delta.dxt_posix) == [touched]


def test_reattached_runtime_reuses_nothing(runtime, os_image, env):
    paths = make_files(os_image, 4, 20_000)

    def proc():
        attachment = get_attachment(runtime)
        middleman = DarshanMiddleman(attachment)
        yield from attachment.attach()
        for path in paths:
            yield from io_ops.read_file(runtime, path)
        before = yield from middleman.take_snapshot()
        yield from attachment.detach()
        yield from attachment.attach()
        # The same I/O again, so the fresh core's records reach the same
        # stamps with different timestamps.
        for path in paths:
            yield from io_ops.read_file(runtime, path)
        full = _full_copies(attachment.core, env.now)
        after = yield from middleman.take_snapshot()
        return before, after, full

    before, after, full = run(env, proc())
    assert {rid: rec.stamp for rid, rec in after.posix.items()} == \
        {rid: rec.stamp for rid, rec in before.posix.items()}
    for module in MODULES:
        assert _reused(getattr(before, module), getattr(after, module)) == 0
    _assert_same_records(after, full)
