"""Tests for the buffered STDIO layer."""

import pytest

from repro.posix import SimOSError
from tests.posix.conftest import run


def test_fopen_fwrite_fclose_writes_bytes(os_image, env):
    def proc():
        stream = yield from os_image.stdio.fopen("/data/ckpt.bin", "wb")
        total = 0
        for _ in range(5):
            total += yield from os_image.stdio.fwrite(stream, 100_000)
        yield from os_image.stdio.fclose(stream)
        return total

    assert run(env, proc()) == 500_000
    assert os_image.vfs.lookup("/data/ckpt.bin").size == 500_000


def test_fwrite_buffers_small_writes(os_image, env):
    """Writes below the stdio buffer size must not hit the POSIX layer."""
    def proc():
        stream = yield from os_image.stdio.fopen("/data/log", "w")
        yield from os_image.stdio.fwrite(stream, 100)
        yield from os_image.stdio.fwrite(stream, 100)
        pending = os_image.posix.call_counts.get("pwrite", 0)
        yield from os_image.stdio.fflush(stream)
        flushed = os_image.posix.call_counts.get("pwrite", 0)
        yield from os_image.stdio.fclose(stream)
        return pending, flushed

    pending, flushed = run(env, proc())
    assert pending == 0
    assert flushed == 1


def test_large_fwrite_flushes_immediately(os_image, env):
    def proc():
        stream = yield from os_image.stdio.fopen("/data/big", "wb")
        yield from os_image.stdio.fwrite(stream, 1_000_000)
        return os_image.posix.call_counts.get("pwrite", 0)

    assert run(env, proc()) == 1


def test_fread_advances_position(os_image, env):
    os_image.vfs.create_file("/data/f", size=1000)

    def proc():
        stream = yield from os_image.stdio.fopen("/data/f", "rb")
        a = yield from os_image.stdio.fread(stream, 600)
        b = yield from os_image.stdio.fread(stream, 600)
        c = yield from os_image.stdio.fread(stream, 600)
        pos = yield from os_image.stdio.ftell(stream)
        yield from os_image.stdio.fclose(stream)
        return a, b, c, pos

    assert run(env, proc()) == (600, 400, 0, 1000)


def test_fseek_repositions_stream(os_image, env):
    os_image.vfs.create_file("/data/f", size=1000)

    def proc():
        stream = yield from os_image.stdio.fopen("/data/f", "rb")
        yield from os_image.stdio.fseek(stream, 900)
        nbytes = yield from os_image.stdio.fread(stream, 500)
        yield from os_image.stdio.fclose(stream)
        return nbytes

    assert run(env, proc()) == 100


def test_append_mode_starts_at_end(os_image, env):
    os_image.vfs.create_file("/data/log", size=50)

    def proc():
        stream = yield from os_image.stdio.fopen("/data/log", "ab")
        pos = yield from os_image.stdio.ftell(stream)
        yield from os_image.stdio.fwrite(stream, 25)
        yield from os_image.stdio.fclose(stream)
        return pos

    assert run(env, proc()) == 50
    assert os_image.vfs.lookup("/data/log").size == 75


def test_unsupported_mode_rejected(os_image, env):
    def proc():
        try:
            yield from os_image.stdio.fopen("/data/f", "x+")
        except SimOSError:
            return "rejected"

    assert run(env, proc()) == "rejected"


def test_operations_on_closed_stream_fail(os_image, env):
    os_image.vfs.create_file("/data/f", size=10)

    def proc():
        stream = yield from os_image.stdio.fopen("/data/f", "rb")
        yield from os_image.stdio.fclose(stream)
        try:
            yield from os_image.stdio.fread(stream, 10)
        except SimOSError:
            return "rejected"

    assert run(env, proc()) == "rejected"


def test_stream_counters(os_image, env):
    def proc():
        stream = yield from os_image.stdio.fopen("/data/out", "wb")
        for _ in range(7):
            yield from os_image.stdio.fwrite(stream, 10)
        yield from os_image.stdio.fflush(stream)
        writes, flushes = stream.writes, stream.flushes
        yield from os_image.stdio.fclose(stream)
        return writes, flushes

    assert run(env, proc()) == (7, 1)


def test_fclose_flushes_pending_data(os_image, env):
    def proc():
        stream = yield from os_image.stdio.fopen("/data/out", "wb")
        yield from os_image.stdio.fwrite(stream, 123)
        yield from os_image.stdio.fclose(stream)

    run(env, proc())
    assert os_image.vfs.lookup("/data/out").size == 123
