"""Tests for the Darshan POSIX module counter semantics."""

import pytest

from repro.darshan import darshan_record_id
from tests.darshan.conftest import read_file_like_tf, run


def posix_record(darshan, path):
    return darshan.posix_module.records[darshan_record_id(path)]


def test_open_read_close_counters(darshan, os_image, env):
    os_image.vfs.create_file("/data/f.bin", size=250_000)
    run(env, read_file_like_tf(os_image, "/data/f.bin"))
    rec = posix_record(darshan, "/data/f.bin")
    assert rec.counters["POSIX_OPENS"] == 1
    # One full read plus the terminating zero-length read.
    assert rec.counters["POSIX_READS"] == 2
    assert rec.counters["POSIX_BYTES_READ"] == 250_000
    assert rec.counters["POSIX_MAX_BYTE_READ"] == 249_999


def test_first_read_neither_seq_nor_consec_zero_read_both(darshan, os_image, env):
    """The exact semantics behind the paper's 50%/50% ImageNet split."""
    os_image.vfs.create_file("/data/img.jpg", size=88_000)
    run(env, read_file_like_tf(os_image, "/data/img.jpg"))
    rec = posix_record(darshan, "/data/img.jpg")
    assert rec.counters["POSIX_READS"] == 2
    # Only the zero-length read at EOF counts as sequential and consecutive.
    assert rec.counters["POSIX_SEQ_READS"] == 1
    assert rec.counters["POSIX_CONSEC_READS"] == 1


def test_segmented_read_majority_sequential(darshan, os_image, env):
    """Malware-style files read in 1 MB segments are mostly seq+consec."""
    size = 4_400_000
    os_image.vfs.create_file("/data/mal.bytes", size=size)
    run(env, read_file_like_tf(os_image, "/data/mal.bytes", buffer_size=1 << 20))
    rec = posix_record(darshan, "/data/mal.bytes")
    reads = rec.counters["POSIX_READS"]
    assert reads == 6  # 4 full MiB + 1 partial + 1 zero-length
    assert rec.counters["POSIX_SEQ_READS"] == reads - 1
    assert rec.counters["POSIX_CONSEC_READS"] == reads - 1
    assert rec.counters["POSIX_BYTES_READ"] == size


def test_read_size_histogram_buckets(darshan, os_image, env):
    os_image.vfs.create_file("/data/small", size=88_000)    # 10K-100K bucket
    os_image.vfs.create_file("/data/large", size=3_000_000)  # 1M-4M + smaller

    run(env, read_file_like_tf(os_image, "/data/small"))
    run(env, read_file_like_tf(os_image, "/data/large", buffer_size=4 << 20))

    small = posix_record(darshan, "/data/small")
    large = posix_record(darshan, "/data/large")
    assert small.counters["POSIX_SIZE_READ_10K_100K"] == 1
    assert small.counters["POSIX_SIZE_READ_0_100"] == 1  # zero-length read
    assert large.counters["POSIX_SIZE_READ_1M_4M"] == 1
    assert large.counters["POSIX_SIZE_READ_0_100"] == 1


def test_timestamps_and_cumulative_time(darshan, os_image, env):
    os_image.vfs.create_file("/data/f", size=1_000_000)
    run(env, read_file_like_tf(os_image, "/data/f"))
    rec = posix_record(darshan, "/data/f")
    f = rec.fcounters
    assert f["POSIX_F_OPEN_START_TIMESTAMP"] <= f["POSIX_F_READ_START_TIMESTAMP"]
    assert f["POSIX_F_READ_START_TIMESTAMP"] < f["POSIX_F_READ_END_TIMESTAMP"]
    assert f["POSIX_F_READ_END_TIMESTAMP"] <= f["POSIX_F_CLOSE_END_TIMESTAMP"]
    assert f["POSIX_F_READ_TIME"] > 0
    assert f["POSIX_F_META_TIME"] > 0
    assert f["POSIX_F_MAX_READ_TIME"] <= f["POSIX_F_READ_TIME"]


def test_write_counters_and_rw_switches(darshan, os_image, env):
    from repro.posix import O_CREAT, O_RDWR

    def proc():
        fd = yield from os_image.call("open", "/data/out.bin", O_RDWR | O_CREAT)
        yield from os_image.call("write", fd, 200_000)
        yield from os_image.call("write", fd, 200_000)
        yield from os_image.call("pread", fd, 100_000, 0)
        yield from os_image.call("write", fd, 100_000)
        yield from os_image.call("close", fd)

    run(env, proc())
    rec = posix_record(darshan, "/data/out.bin")
    assert rec.counters["POSIX_WRITES"] == 3
    assert rec.counters["POSIX_READS"] == 1
    assert rec.counters["POSIX_BYTES_WRITTEN"] == 500_000
    # write -> read -> write causes two switches.
    assert rec.counters["POSIX_RW_SWITCHES"] == 2
    # The second write is consecutive and sequential w.r.t. the first.
    assert rec.counters["POSIX_SEQ_WRITES"] >= 1
    assert rec.counters["POSIX_CONSEC_WRITES"] >= 1


def test_lseek_and_stat_counters(darshan, os_image, env):
    os_image.vfs.create_file("/data/f", size=1000)

    def proc():
        yield from os_image.call("stat", "/data/f")
        fd = yield from os_image.call("open", "/data/f")
        yield from os_image.call("lseek", fd, 500, 0)
        yield from os_image.call("read", fd, 100)
        yield from os_image.call("fsync", fd)
        yield from os_image.call("close", fd)

    run(env, proc())
    rec = posix_record(darshan, "/data/f")
    assert rec.counters["POSIX_STATS"] == 1
    assert rec.counters["POSIX_SEEKS"] == 1
    assert rec.counters["POSIX_FSYNCS"] == 1
    # The read after lseek(500) starts at offset 500 (darshan's own offset
    # tracking), so it is sequential but not consecutive.
    assert rec.counters["POSIX_SEQ_READS"] == 1
    assert rec.counters["POSIX_CONSEC_READS"] == 0


def test_common_access_sizes_finalized(darshan, os_image, env):
    os_image.vfs.create_file("/data/f", size=3_000_000)

    def proc():
        fd = yield from os_image.call("open", "/data/f")
        for i in range(3):
            yield from os_image.call("pread", fd, 1_000_000, i * 1_000_000)
        yield from os_image.call("pread", fd, 500, 0)
        yield from os_image.call("close", fd)

    run(env, proc())
    darshan.posix_module.finalize()
    rec = posix_record(darshan, "/data/f")
    assert rec.counters["POSIX_ACCESS1_ACCESS"] == 1_000_000
    assert rec.counters["POSIX_ACCESS1_COUNT"] == 3
    assert rec.counters["POSIX_ACCESS2_ACCESS"] == 500
    assert rec.counters["POSIX_ACCESS2_COUNT"] == 1


def test_common_access_sizes_rank_as_counter_most_common():
    """Most frequent first, ties in first-seen order, and no cap on the
    number of distinct sizes."""
    from collections import Counter

    from repro.darshan import CounterRecord
    from repro.darshan.counters import POSIX_LAYOUT

    sizes = [7, 3, 3, 9, 7, 1, 9, 5] + list(range(100, 160)) + [160] * 2
    record = CounterRecord(1, 0, POSIX_LAYOUT)
    for size in sizes:
        record.note_access_size(size)
    record.copy().finalize_common_accesses()
    record.finalize_common_accesses()
    got = [(record.counters[f"POSIX_ACCESS{n}_ACCESS"],
            record.counters[f"POSIX_ACCESS{n}_COUNT"]) for n in range(1, 5)]
    assert got == Counter(sizes).most_common(4)
    assert got == [(7, 2), (3, 2), (9, 2), (160, 2)]


def test_a_cloned_record_continues_the_file(env, os_image):
    """Snapshots between the calls make the module clone the record before
    each write; the clone keeps the last byte read and written, the last
    operation and the access sizes, so the counters come out the same."""
    from repro.darshan import DarshanConfig, PreloadedDarshan
    from repro.posix import O_RDWR

    os_image.vfs.create_file("/data/a", size=50_000)
    os_image.vfs.create_file("/data/b", size=50_000)
    darshan = PreloadedDarshan(env, os_image.symbols, DarshanConfig())
    darshan.install()
    module = darshan.posix_module

    def proc(path, snapshot):
        fd = yield from os_image.call("open", path, O_RDWR)
        for call, args in (("pread", (10_000, 0)), ("pread", (10_000, 10_000)),
                           ("write", (500,)), ("pread", (7, 20_001)),
                           ("pwrite", (500, 40_000)), ("pread", (10_000, 0))):
            snapshot()
            yield from os_image.call(call, fd, *args)
        yield from os_image.call("close", fd)

    run(env, proc("/data/a", lambda: None))
    run(env, proc("/data/b", module.records.snapshot))
    module.finalize()
    plain, cloned = (module.records[darshan_record_id(path)]
                     for path in ("/data/a", "/data/b"))
    assert cloned.counters["POSIX_SEQ_READS"] == 2
    assert cloned.counters["POSIX_RW_SWITCHES"] == 4
    assert dict(cloned.counters) == dict(plain.counters)


def test_dxt_segments_recorded(darshan, os_image, env):
    os_image.vfs.create_file("/data/f", size=2_500_000)
    run(env, read_file_like_tf(os_image, "/data/f", buffer_size=1 << 20))
    rid = darshan_record_id("/data/f")
    dxt = darshan.posix_module.dxt_records[rid]
    # 3 data reads (1M, 1M, 0.5M) + 1 zero-length read.
    assert len(dxt.read_segments) == 4
    lengths = [s.length for s in dxt.read_segments]
    assert lengths == [1 << 20, 1 << 20, 2_500_000 - 2 * (1 << 20), 0]
    offsets = [s.offset for s in dxt.read_segments]
    assert offsets == [0, 1 << 20, 2 << 20, 2_500_000]
    for seg in dxt.read_segments:
        assert seg.end_time >= seg.start_time


def test_dxt_disabled_records_nothing(env, os_image):
    from repro.darshan import DarshanConfig, PreloadedDarshan

    darshan = PreloadedDarshan(env, os_image.symbols,
                               DarshanConfig(enable_dxt=False))
    darshan.install()
    os_image.vfs.create_file("/data/f", size=100_000)
    run(env, read_file_like_tf(os_image, "/data/f"))
    assert darshan.posix_module.dxt_records == {}


def test_record_limit_sets_partial_flag(env, os_image):
    from repro.darshan import DarshanConfig, PreloadedDarshan

    darshan = PreloadedDarshan(env, os_image.symbols,
                               DarshanConfig(max_records_per_module=2))
    darshan.install()
    for i in range(4):
        os_image.vfs.create_file(f"/data/f{i}", size=1000)

    def proc():
        for i in range(4):
            fd = yield from os_image.call("open", f"/data/f{i}")
            yield from os_image.call("pread", fd, 1000, 0)
            yield from os_image.call("close", fd)

    run(env, proc())
    assert darshan.posix_module.file_count() == 2
    assert darshan.posix_module.partial_flag is True


def test_untracked_fd_passthrough(env, os_image):
    """A file opened before Darshan attaches is read but not instrumented."""
    from repro.darshan import DarshanConfig, PreloadedDarshan

    os_image.vfs.create_file("/data/early", size=1000)
    state = {}

    def proc():
        fd = yield from os_image.call("open", "/data/early")
        state["fd"] = fd
        # Attach Darshan only now.
        darshan = PreloadedDarshan(env, os_image.symbols, DarshanConfig())
        darshan.install()
        state["darshan"] = darshan
        nbytes = yield from os_image.call("pread", fd, 1000, 0)
        yield from os_image.call("close", fd)
        return nbytes

    assert run(env, proc()) == 1000
    darshan = state["darshan"]
    assert darshan.posix_module.file_count() == 0
    assert darshan.posix_module.untracked_ops >= 1


def test_instrumentation_overhead_charged(env, os_image):
    """Wrapped I/O must cost (slightly) more simulated time than unwrapped."""
    from repro.darshan import DarshanConfig, PreloadedDarshan

    for i in range(20):
        os_image.vfs.create_file(f"/data/file{i}.bin", size=1_000_000)

    def workload():
        for i in range(20):
            fd = yield from os_image.call("open", f"/data/file{i}.bin")
            yield from os_image.call("pread", fd, 1_000_000, 0)
            yield from os_image.call("close", fd)

    os_image.drop_caches()
    t0 = env.now
    run(env, workload())
    baseline = env.now - t0

    darshan = PreloadedDarshan(env, os_image.symbols,
                               DarshanConfig(instrumentation_overhead=5e-6))
    darshan.install()
    os_image.drop_caches()
    t1 = env.now
    run(env, workload())
    instrumented = env.now - t1
    assert instrumented > baseline
    # ... but Darshan remains a low-overhead tool (well under 10% here).
    assert instrumented < baseline * 1.10


def test_total_counter_aggregates_across_files(darshan, os_image, env):
    for i in range(5):
        os_image.vfs.create_file(f"/data/f{i}", size=10_000)

    def proc():
        for i in range(5):
            fd = yield from os_image.call("open", f"/data/f{i}")
            yield from os_image.call("pread", fd, 10_000, 0)
            yield from os_image.call("close", fd)

    run(env, proc())
    assert darshan.posix_module.total_counter("POSIX_OPENS") == 5
    assert darshan.posix_module.total_counter("POSIX_READS") == 5
    assert darshan.posix_module.total_counter("POSIX_BYTES_READ") == 50_000
    assert darshan.posix_module.file_count() == 5
