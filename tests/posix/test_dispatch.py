"""Tests for the symbol dispatch table (the GOT analogue)."""

import pytest

from repro.posix import IO_SYMBOLS, SymbolNotFound, SymbolTable
from tests.posix.conftest import run


def test_default_symbols_registered(os_image):
    names = os_image.symbols.symbols()
    for symbol in IO_SYMBOLS:
        assert symbol in names


def test_call_routes_to_libc_implementation(os_image, env):
    os_image.vfs.create_file("/data/f", size=100)

    def proc():
        fd = yield from os_image.call("open", "/data/f")
        nbytes = yield from os_image.call("pread", fd, 100, 0)
        yield from os_image.call("close", fd)
        return nbytes

    assert run(env, proc()) == 100


def test_patch_redirects_and_forwards(os_image, env):
    os_image.vfs.create_file("/data/f", size=100)
    seen = []

    real_pread = os_image.symbols.resolve("pread")

    def wrapped_pread(fd, count, offset):
        seen.append((count, offset))
        result = yield from real_pread(fd, count, offset)
        return result

    os_image.symbols.patch("pread", wrapped_pread)
    assert os_image.symbols.is_patched("pread")
    assert os_image.symbols.patched_symbols() == ["pread"]

    def proc():
        fd = yield from os_image.call("open", "/data/f")
        nbytes = yield from os_image.call("pread", fd, 50, 10)
        yield from os_image.call("close", fd)
        return nbytes

    assert run(env, proc()) == 50
    assert seen == [(50, 10)]


def test_restore_reverts_patch(os_image, env):
    os_image.vfs.create_file("/data/f", size=10)
    calls = []

    real_open = os_image.symbols.resolve("open")

    def wrapped_open(path, flags=0):
        calls.append(path)
        return (yield from real_open(path, flags))

    os_image.symbols.patch("open", wrapped_open)
    os_image.symbols.restore("open")
    assert not os_image.symbols.is_patched("open")

    def proc():
        fd = yield from os_image.call("open", "/data/f")
        yield from os_image.call("close", fd)

    run(env, proc())
    assert calls == []


def test_unknown_symbol_raises(os_image):
    with pytest.raises(SymbolNotFound):
        os_image.symbols.resolve("mmap")
    with pytest.raises(SymbolNotFound):
        os_image.symbols.restore("mmap")


def test_patch_returns_previous_binding(os_image):
    original = os_image.symbols.resolve("read")

    def w1(*args):
        return iter(())

    def w2(*args):
        return iter(())

    prev1 = os_image.symbols.patch("read", w1)
    prev2 = os_image.symbols.patch("read", w2)
    assert prev1 is original
    assert prev2 is w1


def test_register_rejects_non_callable():
    table = SymbolTable()
    with pytest.raises(TypeError):
        table.register("open", 42)
    table.register("open", lambda: iter(()))
    with pytest.raises(TypeError):
        table.patch("open", "not callable")
