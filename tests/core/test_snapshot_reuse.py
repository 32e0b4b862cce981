"""Snapshots share unchanged counter records with the live modules, across
profiling sessions too, and equal full copies; a DXT snapshot is a log
length, and a window's segments equal a diff of full DXT copies."""

import random

import pytest

from repro.core import (
    DarshanMiddleman,
    Snapshot,
    TfDarshanOptions,
    enable,
)
from repro.darshan import (
    DarshanConfig,
    darshan_record_id,
    get_dxt_records,
    get_module_records,
)
from repro.posix import O_WRONLY
from repro.tfmini import io_ops
from tests.core.conftest import make_files, run

MODULES = ("posix", "stdio")
DXT_MODULES = {"dxt_posix": "POSIX", "dxt_stdio": "STDIO"}


def _full_copies(core, time):
    """The snapshot as independent, freshly copied module buffers: a
    counter-only :class:`Snapshot` and the DXT records by snapshot field."""
    snapshot = Snapshot(time=time,
                        posix=get_module_records(core, "POSIX"),
                        stdio=get_module_records(core, "STDIO"))
    dxt = {field: get_dxt_records(core, module)
           for field, module in DXT_MODULES.items()}
    return snapshot, dxt


def _reference_dxt_diff(before, after, window_start, window_end):
    """The window's segments from two full DXT copies, computed the way the
    diff did when each file kept its own segment lists."""
    out = {}
    for record_id, end_rec in after.items():
        start_rec = before.get(record_id)
        if start_rec is end_rec:
            continue
        skip_reads = len(start_rec.read_segments) if start_rec else 0
        skip_writes = len(start_rec.write_segments) if start_rec else 0
        segments = (end_rec.read_segments[skip_reads:]
                    + end_rec.write_segments[skip_writes:])
        segments = [s for s in segments
                    if s.end_time > window_start and s.start_time < window_end]
        if segments:
            out[record_id] = sorted(segments, key=lambda s: s.start_time)
    return out


def _assert_same_records(snapshot, full):
    for module in MODULES:
        got, want = getattr(snapshot, module), getattr(full, module)
        assert list(got) == list(want)
        assert {rid: rec.as_dict() for rid, rec in got.items()} == \
            {rid: rec.as_dict() for rid, rec in want.items()}


def _assert_capped(counter_records, dxt, cap):
    """Each file keeps its first ``cap`` segments per direction and counts
    the rest as dropped; its READS/WRITES counters count every attempt."""
    assert list(dxt) == list(counter_records)
    for record_id, record in dxt.items():
        counter_record = counter_records[record_id]
        prefix = counter_record.layout.prefix
        reads = counter_record.counters[f"{prefix}_READS"]
        writes = counter_record.counters[f"{prefix}_WRITES"]
        assert len(record.read_segments) == min(reads, cap)
        assert len(record.write_segments) == min(writes, cap)
        assert record.dropped_segments == \
            max(0, reads - cap) + max(0, writes - cap)


def _live_tables(attachment):
    """The live record tables, under the names of the snapshot fields."""
    posix, stdio = attachment.posix_module, attachment.stdio_module
    return {"posix": posix.records, "stdio": stdio.records}


def _reused(before, after):
    return sum(after[rid] is before.get(rid) for rid in after)


def _random_op(rng, runtime, os_image, attachment, path, pause):
    """One random POSIX or STDIO operation (or a finalize) on ``path``.

    ``pause()`` runs after each call, so it can see the file open.
    """
    def call(*args):
        result = yield from os_image.call(*args)
        yield from pause()
        return result

    kind = rng.choice(("read", "read", "write", "pwrite", "stat", "seek",
                       "fwrite", "fread", "finalize"))
    if kind == "read":
        yield from io_ops.read_file(runtime, path)
    elif kind == "write":
        fd = yield from call("open", path, O_WRONLY)
        for _ in range(rng.randint(1, 3)):
            yield from call("write", fd, rng.randint(0, 40_000))
        yield from call("close", fd)
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
            yield from call("fwrite", stream, rng.randint(1, 30_000))
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
    # Odd seeds cap the DXT segments, so some adds only count a drop.
    cap = 3 if seed % 2 else 1 << 16
    options = TfDarshanOptions(
        darshan=DarshanConfig(max_dxt_segments_per_record=cap))
    paths = make_files(os_image, 5, 30_000)

    def proc():
        attachment = enable(runtime, options).attachment
        yield from attachment.attach()
        middleman = DarshanMiddleman(attachment)
        taken = []

        def snapshot(chance=1.0):
            if rng.random() < chance:
                full, dxt = _full_copies(attachment.core, env.now)
                taken.append(((yield from middleman.take_snapshot()), full,
                              dxt))

        for _ in range(40):
            yield from snapshot(0.15)
            yield from _random_op(rng, runtime, os_image, attachment,
                                  rng.choice(paths), lambda: snapshot(0.15))
        yield from snapshot()
        return middleman, taken

    middleman, taken = run(env, proc())
    for snapshot, full, dxt in taken:
        _assert_same_records(snapshot, full)
        _assert_capped(full.posix, dxt["dxt_posix"], cap)
        _assert_capped(full.stdio, dxt["dxt_stdio"], cap)
    for i, (start, full_start, dxt_start) in enumerate(taken):
        for end, full_end, dxt_end in taken[i + 1:]:
            delta = middleman.diff(start, end)
            full = middleman.diff(full_start, full_end)
            assert (delta.posix, delta.stdio) == (full.posix, full.stdio)
            wants = {field: _reference_dxt_diff(dxt_start[field],
                                                dxt_end[field],
                                                start.time, end.time)
                     for field in DXT_MODULES}
            # Counted before any segment is built.
            assert delta.segment_count == sum(
                len(segments) for want in wants.values()
                for segments in want.values())
            for field, want in wants.items():
                assert list(getattr(delta, field).items()) == \
                    list(want.items())
    assert sum(_reused(a.posix, b.posix) + _reused(a.stdio, b.stdio)
               for (a, _, _), (b, _, _) in zip(taken, taken[1:])) > 0
    dropped = sum(record.dropped_segments for field in DXT_MODULES
                  for record in taken[-1][2][field].values())
    assert (dropped > 0) == (seed % 2 == 1)


def test_stop_snapshot_reuses_the_copies_of_untouched_records(
        runtime, os_image, env):
    n = 8
    paths = make_files(os_image, n, 20_000)

    def proc():
        attachment = enable(runtime).attachment
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
    before, after = start.posix, stop.posix
    assert len(after) == n
    assert {rid for rid in after if after[rid] is before[rid]} == \
        set(after) - {touched}
    assert [rec.record_id for rec in delta.posix] == [touched]
    assert list(delta.dxt_posix) == [touched]


def test_reattached_runtime_reuses_nothing(runtime, os_image, env):
    paths = make_files(os_image, 4, 20_000)

    def proc():
        attachment = enable(runtime).attachment
        middleman = DarshanMiddleman(attachment)
        yield from attachment.attach()
        for path in paths:
            yield from io_ops.read_file(runtime, path)
        before = yield from middleman.take_snapshot()
        yield from attachment.detach()
        yield from attachment.attach()
        for path in paths:
            yield from io_ops.read_file(runtime, path)
        full = _full_copies(attachment.core, env.now)
        after = yield from middleman.take_snapshot()
        return middleman, before, after, full

    middleman, before, after, (full, dxt) = run(env, proc())
    for module in MODULES:
        assert _reused(getattr(before, module), getattr(after, module)) == 0
    _assert_same_records(after, full)
    # The new core starts from empty tables and an empty log, so a diff
    # across the re-attach holds every record and segment it traced.
    assert after.core is not before.core
    assert after.dxt_posix[0] is not before.dxt_posix[0]
    delta = middleman.diff(before, after)
    assert [(rec.record_id, dict(rec.counters), dict(rec.fcounters))
            for rec in delta.posix] == \
        [(rid, dict(rec.counters), dict(rec.fcounters))
         for rid, rec in full.posix.items()]
    assert len(delta.posix) == len(paths)
    assert all(rec.get("POSIX_READS") == 2 for rec in delta.posix)
    assert delta.segment_count == 2 * len(paths)
    assert delta.dxt_posix == _reference_dxt_diff(
        {}, dxt["dxt_posix"], before.time, after.time)
    assert sum(map(len, delta.dxt_posix.values())) == 2 * len(paths)


def test_sessions_share_records_until_the_module_writes_one(
        runtime, os_image, env):
    n = 6
    paths = make_files(os_image, n, 20_000)

    def proc():
        attachment = enable(runtime).attachment
        yield from attachment.attach()
        # Two middlemen stand for two profiling sessions of one process.
        first = DarshanMiddleman(attachment)
        second = DarshanMiddleman(attachment)
        for path in paths:
            yield from io_ops.read_file(runtime, path)
            stream = yield from os_image.call("fopen", path + ".ckpt", "wb")
            yield from os_image.call("fwrite", stream, 5_000)
            yield from os_image.call("fclose", stream)
        stop = yield from first.take_snapshot()
        start = yield from second.take_snapshot()
        live = {module: dict(table)
                for module, table in _live_tables(attachment).items()}
        full, _ = _full_copies(attachment.core, env.now)
        yield from io_ops.read_file(runtime, paths[2])
        return attachment, stop, start, live, full

    attachment, stop, start, live, full = run(env, proc())
    for module in MODULES:
        ended, began = getattr(stop, module), getattr(start, module)
        assert len(ended) == n
        assert all(began[rid] is ended[rid] is live[module][rid]
                   for rid in ended)
    # Each file logged a data read and a zero-length read, and one fwrite.
    for field, module, rows in (("dxt_posix", attachment.posix_module, 2 * n),
                                ("dxt_stdio", attachment.stdio_module, n)):
        assert getattr(stop, field) == getattr(start, field) == \
            (module.dxt_log, rows)
    read = darshan_record_id(paths[2])
    for module, table in _live_tables(attachment).items():
        changed = {rid for rid in table if table[rid] is not live[module][rid]}
        assert changed == ({read} if module == "posix" else set())
    _assert_same_records(stop, full)
    _assert_same_records(start, full)
