"""Tests for the Darshan STDIO module."""

import pytest

from repro.darshan import darshan_record_id
from tests.darshan.conftest import run


def stdio_record(darshan, path):
    return darshan.stdio_module.records[darshan_record_id(path)]


def test_fwrite_counters(darshan, os_image, env):
    def proc():
        stream = yield from os_image.call("fopen", "/data/ckpt", "wb")
        for _ in range(10):
            yield from os_image.call("fwrite", stream, 100_000)
        yield from os_image.call("fclose", stream)

    run(env, proc())
    rec = stdio_record(darshan, "/data/ckpt")
    assert rec.counters["STDIO_OPENS"] == 1
    assert rec.counters["STDIO_WRITES"] == 10
    assert rec.counters["STDIO_BYTES_WRITTEN"] == 1_000_000
    assert rec.counters["STDIO_MAX_BYTE_WRITTEN"] == 999_999
    assert rec.fcounters["STDIO_F_WRITE_TIME"] > 0


def test_fread_counters(darshan, os_image, env):
    os_image.vfs.create_file("/data/f", size=300_000)

    def proc():
        stream = yield from os_image.call("fopen", "/data/f", "rb")
        total = 0
        while True:
            nbytes = yield from os_image.call("fread", stream, 100_000)
            total += nbytes
            if nbytes == 0:
                break
        yield from os_image.call("fclose", stream)
        return total

    assert run(env, proc()) == 300_000
    rec = stdio_record(darshan, "/data/f")
    assert rec.counters["STDIO_READS"] == 4  # 3 data reads + EOF read
    assert rec.counters["STDIO_BYTES_READ"] == 300_000


def test_fseek_and_fflush_counters(darshan, os_image, env):
    def proc():
        stream = yield from os_image.call("fopen", "/data/out", "wb")
        yield from os_image.call("fwrite", stream, 1000)
        yield from os_image.call("fflush", stream)
        yield from os_image.call("fseek", stream, 0, 0)
        yield from os_image.call("fwrite", stream, 10)
        yield from os_image.call("fclose", stream)

    run(env, proc())
    rec = stdio_record(darshan, "/data/out")
    assert rec.counters["STDIO_FLUSHES"] == 1
    assert rec.counters["STDIO_SEEKS"] == 1
    assert rec.counters["STDIO_WRITES"] == 2


def test_stdio_does_not_pollute_posix_module(darshan, os_image, env):
    """glibc's stdio bypasses the PLT: fwrite traffic must appear only on the
    STDIO module, not as POSIX writes (no double counting)."""

    def proc():
        stream = yield from os_image.call("fopen", "/data/ckpt", "wb")
        yield from os_image.call("fwrite", stream, 500_000)
        yield from os_image.call("fclose", stream)

    run(env, proc())
    assert darshan.stdio_module.total_counter("STDIO_BYTES_WRITTEN") == 500_000
    assert darshan.posix_module.total_counter("POSIX_BYTES_WRITTEN") == 0
    assert darshan.posix_module.total_counter("POSIX_OPENS") == 0


def test_stdio_dxt_segments(darshan, os_image, env):
    def proc():
        stream = yield from os_image.call("fopen", "/data/ckpt", "wb")
        yield from os_image.call("fwrite", stream, 1 << 20)
        yield from os_image.call("fwrite", stream, 1 << 20)
        yield from os_image.call("fclose", stream)

    run(env, proc())
    dxt = darshan.stdio_module.dxt_records[darshan_record_id("/data/ckpt")]
    assert len(dxt.write_segments) == 2
    assert dxt.write_segments[0].offset == 0
    assert dxt.write_segments[1].offset == 1 << 20


def test_stdio_timestamps_ordered(darshan, os_image, env):
    def proc():
        stream = yield from os_image.call("fopen", "/data/log", "w")
        yield from os_image.call("fwrite", stream, 64_000)
        yield from os_image.call("fclose", stream)

    run(env, proc())
    rec = stdio_record(darshan, "/data/log")
    f = rec.fcounters
    assert f["STDIO_F_OPEN_START_TIMESTAMP"] <= f["STDIO_F_WRITE_START_TIMESTAMP"]
    assert f["STDIO_F_WRITE_END_TIMESTAMP"] <= f["STDIO_F_CLOSE_END_TIMESTAMP"]


def test_file_count(darshan, os_image, env):
    def proc():
        for i in range(3):
            stream = yield from os_image.call("fopen", f"/data/c{i}", "wb")
            yield from os_image.call("fwrite", stream, 10)
            yield from os_image.call("fclose", stream)

    run(env, proc())
    assert darshan.stdio_module.file_count() == 3
