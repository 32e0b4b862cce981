"""Tests for the POSIX syscall layer."""

import errno

import pytest

from repro.posix import (
    O_APPEND,
    O_CREAT,
    O_RDONLY,
    O_RDWR,
    O_WRONLY,
    SEEK_CUR,
    SEEK_END,
    SEEK_SET,
    SimOSError,
)
from tests.posix.conftest import run


def test_open_read_close_roundtrip(os_image, env):
    os_image.vfs.create_file("/data/f.bin", size=1_000_000)

    def proc():
        fd = yield from os_image.posix.open("/data/f.bin")
        data = yield from os_image.posix.read(fd, 400_000)
        rest = yield from os_image.posix.read(fd, 1_000_000)
        eof = yield from os_image.posix.read(fd, 100)
        yield from os_image.posix.close(fd)
        return data, rest, eof

    assert run(env, proc()) == (400_000, 600_000, 0)
    assert env.now > 0


def test_open_missing_file_raises_enoent(os_image, env):
    def proc():
        try:
            yield from os_image.posix.open("/data/missing")
        except SimOSError as exc:
            return exc.errno

    assert run(env, proc()) == errno.ENOENT


def test_open_with_creat_creates_file(os_image, env):
    def proc():
        fd = yield from os_image.posix.open("/data/new.log", O_WRONLY | O_CREAT)
        n = yield from os_image.posix.write(fd, 11)
        yield from os_image.posix.close(fd)
        return n

    assert run(env, proc()) == 11
    assert os_image.vfs.lookup("/data/new.log").size == 11


def test_pread_does_not_move_offset(os_image, env):
    os_image.vfs.create_file("/data/f", size=1000)

    def proc():
        fd = yield from os_image.posix.open("/data/f")
        a = yield from os_image.posix.pread(fd, 100, 500)
        b = yield from os_image.posix.read(fd, 100)
        yield from os_image.posix.close(fd)
        return a, b

    # The pread at offset 500 must not affect the sequential read at 0.
    assert run(env, proc()) == (100, 100)


def test_pread_past_eof_returns_zero(os_image, env):
    os_image.vfs.create_file("/data/f", size=100)

    def proc():
        fd = yield from os_image.posix.open("/data/f")
        z = yield from os_image.posix.pread(fd, 4096, 100)
        yield from os_image.posix.close(fd)
        return z

    assert run(env, proc()) == 0


def test_read_on_write_only_fd_fails(os_image, env):
    os_image.vfs.create_file("/data/f", size=100)

    def proc():
        fd = yield from os_image.posix.open("/data/f", O_WRONLY)
        try:
            yield from os_image.posix.read(fd, 10)
        except SimOSError as exc:
            return exc.errno

    assert run(env, proc()) == errno.EBADF


def test_write_then_read_back_content(os_image, env):
    def proc():
        fd = yield from os_image.posix.open("/data/cfg", O_WRONLY | O_CREAT)
        yield from os_image.posix.write(fd, 6)
        yield from os_image.posix.close(fd)
        fd = yield from os_image.posix.open("/data/cfg", O_RDONLY)
        data = yield from os_image.posix.read(fd, 100)
        eof = yield from os_image.posix.read(fd, 100)
        yield from os_image.posix.close(fd)
        return data, eof

    # The file holds what was written: six bytes, then end of file.
    assert run(env, proc()) == (6, 0)


def test_append_mode_writes_at_end(os_image, env):
    os_image.vfs.create_file("/data/log", size=5)

    def proc():
        fd = yield from os_image.posix.open("/data/log", O_WRONLY | O_APPEND)
        yield from os_image.posix.write(fd, 3)
        yield from os_image.posix.close(fd)

    run(env, proc())
    assert os_image.vfs.lookup("/data/log").size == 8


def test_negative_write_counts_raise_einval(os_image, env):
    def proc():
        fd = yield from os_image.posix.open("/data/f", O_WRONLY | O_CREAT)
        stream = yield from os_image.stdio.fopen("/data/s", "wb")
        codes = []
        for call, args in ((os_image.posix.write, (fd, -1)),
                           (os_image.posix.pwrite, (fd, -1, 0)),
                           (os_image.stdio.fwrite, (stream, -1))):
            try:
                yield from call(*args)
            except SimOSError as exc:
                codes.append(exc.errno)
        return codes

    assert run(env, proc()) == [errno.EINVAL] * 3
    assert os_image.posix.call_counts.get("write", 0) == 0
    assert os_image.posix.call_counts.get("pwrite", 0) == 0


@pytest.mark.parametrize("name, args", [
    ("read", ("fd", -1)),
    ("pread", ("fd", -1, 0)),
    ("pread", ("fd", 10, -5)),
    ("write", ("fd", -1)),
    ("pwrite", ("fd", -1, 0)),
    ("pwrite", ("fd", 10, -5)),
    ("fread", ("stream", -1)),
    ("fwrite", ("stream", -1)),
])
def test_invalid_data_calls_raise_einval_before_any_charge(os_image, env,
                                                           name, args):
    """A negative count or offset costs nothing: no syscall is counted, the
    clock does not move and the device moves no byte."""
    os_image.vfs.create_file("/data/f", size=1000)
    metrics = os_image.vfs.backend_for("/data/f").device.metrics

    def state():
        return (env.now, dict(os_image.posix.call_counts),
                metrics.total_bytes, len(metrics.intervals))

    def proc():
        handles = {"fd": (yield from os_image.posix.open("/data/f", O_RDWR)),
                   "stream": (yield from os_image.stdio.fopen("/data/f", "r+"))}
        layer = os_image.stdio if name.startswith("f") else os_image.posix
        before = state()
        with pytest.raises(SimOSError) as info:
            yield from getattr(layer, name)(*[handles.get(arg, arg)
                                              for arg in args])
        return info.value.errno, before

    code, before = run(env, proc())
    assert code == errno.EINVAL
    assert state() == before


@pytest.mark.parametrize("name, offset, whence, charged", [
    ("lseek", -5_000, SEEK_SET, False),
    ("lseek", -5_000, SEEK_CUR, False),
    ("lseek", -5_000, SEEK_END, False),
    ("lseek", 10, 9, False),
    ("fseek", -5_000, SEEK_SET, False),
    ("fseek", -5_000, SEEK_CUR, False),
    ("fseek", 10, 9, False),
    # Only an fstat tells that this one lands before the start.
    ("fseek", -5_000, SEEK_END, True),
])
def test_failed_seeks_leave_the_position_unchanged(os_image, env, name,
                                                   offset, whence, charged):
    """A bad whence or a negative result raises EINVAL and leaves the
    position; unless it takes an fstat to tell, nothing is counted or
    charged and no pending write is flushed."""
    os_image.vfs.create_file("/data/f", size=1000)
    metrics = os_image.vfs.backend_for("/data/f").device.metrics

    def proc():
        fd = yield from os_image.posix.open("/data/f", O_RDWR)
        yield from os_image.posix.lseek(fd, 100)
        stream = yield from os_image.stdio.fopen("/data/f", "r+")
        yield from os_image.stdio.fwrite(stream, 100)

        def state():
            return (env.now, dict(os_image.posix.call_counts),
                    metrics.total_bytes, stream.pending_write_bytes)

        def position():
            if name == "lseek":
                return os_image.posix.fds.get(fd).offset
            return stream.position

        before = state()
        call = getattr(os_image.posix if name == "lseek" else os_image.stdio,
                       name)
        with pytest.raises(SimOSError) as info:
            yield from call(fd if name == "lseek" else stream, offset, whence)
        return info.value.errno, before, state(), position()

    code, before, after, position = run(env, proc())
    assert code == errno.EINVAL
    assert position == 100
    assert (after != before) == charged


def test_lseek_whence_variants(os_image, env):
    os_image.vfs.create_file("/data/f", size=1000)

    def proc():
        fd = yield from os_image.posix.open("/data/f")
        a = yield from os_image.posix.lseek(fd, 100)
        b = yield from os_image.posix.lseek(fd, 50, SEEK_CUR)
        c = yield from os_image.posix.lseek(fd, -10, SEEK_END)
        yield from os_image.posix.close(fd)
        return a, b, c

    assert run(env, proc()) == (100, 150, 990)


def test_lseek_negative_offset_rejected(os_image, env):
    os_image.vfs.create_file("/data/f", size=10)

    def proc():
        fd = yield from os_image.posix.open("/data/f")
        try:
            yield from os_image.posix.lseek(fd, -100)
        except SimOSError as exc:
            return exc.errno

    assert run(env, proc()) == errno.EINVAL


def test_stat_and_fstat_report_size(os_image, env):
    os_image.vfs.create_file("/data/f", size=12345)

    def proc():
        st = yield from os_image.posix.stat("/data/f")
        fd = yield from os_image.posix.open("/data/f")
        fst = yield from os_image.posix.fstat(fd)
        yield from os_image.posix.close(fd)
        return st.st_size, fst.st_size, st.is_dir

    assert run(env, proc()) == (12345, 12345, False)


def test_unlink_removes_file(os_image, env):
    os_image.vfs.create_file("/data/f", size=10)

    def proc():
        yield from os_image.posix.unlink("/data/f")

    run(env, proc())
    assert not os_image.vfs.exists("/data/f")


def test_bad_fd_raises_ebadf(os_image, env):
    def proc():
        try:
            yield from os_image.posix.read(999, 10)
        except SimOSError as exc:
            return exc.errno

    assert run(env, proc()) == errno.EBADF


def test_double_close_raises(os_image, env):
    os_image.vfs.create_file("/data/f", size=10)

    def proc():
        fd = yield from os_image.posix.open("/data/f")
        yield from os_image.posix.close(fd)
        try:
            yield from os_image.posix.close(fd)
        except SimOSError as exc:
            return exc.errno

    assert run(env, proc()) == errno.EBADF


def test_read_time_scales_with_size(os_image, env):
    """Larger reads must take proportionally longer on the device."""
    os_image.vfs.create_file("/data/small", size=1_000_000)
    os_image.vfs.create_file("/data/big", size=100_000_000)
    os_image.vfs.enable_page_cache = False

    def read_all(path, size):
        fd = yield from os_image.posix.open(path)
        yield from os_image.posix.read(fd, size)
        yield from os_image.posix.close(fd)

    t0 = env.now
    run(env, read_all("/data/small", 1_000_000))
    small_time = env.now - t0
    t1 = env.now
    run(env, read_all("/data/big", 100_000_000))
    big_time = env.now - t1
    assert big_time > 50 * small_time


def test_second_read_hits_page_cache(os_image, env):
    os_image.vfs.create_file("/data/f", size=10_000_000)

    def read_once():
        fd = yield from os_image.posix.open("/data/f")
        yield from os_image.posix.read(fd, 10_000_000)
        yield from os_image.posix.close(fd)

    t0 = env.now
    run(env, read_once())
    cold = env.now - t0
    t1 = env.now
    run(env, read_once())
    warm = env.now - t1
    assert warm < cold / 5
    # And dropping caches restores the cold path.
    os_image.drop_caches()
    t2 = env.now
    run(env, read_once())
    assert env.now - t2 > warm * 5


def test_call_counts_tracked(os_image, env):
    os_image.vfs.create_file("/data/f", size=100)

    def proc():
        fd = yield from os_image.posix.open("/data/f")
        yield from os_image.posix.pread(fd, 100, 0)
        yield from os_image.posix.close(fd)

    run(env, proc())
    assert os_image.posix.call_counts["open"] == 1
    assert os_image.posix.call_counts["pread"] == 1
    assert os_image.posix.call_counts["close"] == 1
