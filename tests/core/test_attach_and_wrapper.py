"""Tests for the runtime attachment and the snapshot middle man."""

import pytest

from repro.core import (
    DarshanMiddleman,
    TfDarshanOptions,
    enable,
)
from repro.darshan import DarshanConfig, darshan_record_id
from repro.tfmini import io_ops
from tests.core.conftest import make_files, make_os, make_runtime, run


def test_attach_patches_io_symbols(runtime, os_image, env):
    attachment = enable(runtime).attachment
    assert not attachment.attached
    run(env, attachment.attach())
    assert attachment.attached
    patched = os_image.symbols.patched_symbols()
    for symbol in ("open", "pread", "read", "close", "fwrite", "fopen"):
        assert symbol in patched


def test_attach_is_idempotent(runtime, env):
    attachment = enable(runtime).attachment
    run(env, attachment.attach())
    first_patch_count = len(attachment.patched_symbols)
    run(env, attachment.attach())
    assert len(attachment.patched_symbols) == first_patch_count
    assert attachment.reattach_requests == 1


def test_attach_costs_time(runtime, env):
    attachment = enable(runtime).attachment
    before = env.now
    run(env, attachment.attach())
    assert env.now > before


def test_detach_restores_symbols(runtime, os_image, env):
    attachment = enable(runtime).attachment
    run(env, attachment.attach())
    run(env, attachment.detach())
    assert os_image.symbols.patched_symbols() == []
    assert not attachment.attached


def test_attachment_is_per_runtime_singleton(runtime):
    assert enable(runtime).attachment is enable(runtime).attachment


def test_symbol_selection_respected(runtime, os_image, env):
    options = TfDarshanOptions(symbols=("open", "pread", "close"))
    attachment = enable(runtime, options).attachment
    run(env, attachment.attach())
    patched = os_image.symbols.patched_symbols()
    assert set(patched) == {"open", "pread", "close"}


def test_attach_leaves_a_shared_darshan_config_alone(runtime, os_image, env):
    shared = DarshanConfig()
    other = make_runtime(env, make_os(env))
    paths = make_files(os_image, 2, 10_000)

    def proc():
        traced = enable(runtime, TfDarshanOptions(darshan=shared)).attachment
        yield from traced.attach()
        yield from io_ops.read_file(runtime, paths[0])
        yield from enable(
            other, TfDarshanOptions(darshan=shared)).attachment.attach()
        yield from io_ops.read_file(runtime, paths[1])
        return traced

    traced = run(env, proc())
    assert set(traced.posix_module.dxt_records) == \
        {darshan_record_id(path) for path in paths}
    assert traced.core.config is shared
    assert shared == DarshanConfig()


def test_io_before_attachment_not_counted(runtime, os_image, env):
    """Runtime attachment means earlier I/O is invisible to Darshan."""
    paths = make_files(os_image, 4, 10_000)

    def proc():
        yield from io_ops.read_file(runtime, paths[0])
        attachment = enable(runtime).attachment
        yield from attachment.attach()
        for path in paths[1:]:
            yield from io_ops.read_file(runtime, path)
        return attachment

    attachment = run(env, proc())
    assert attachment.posix_module.file_count() == 3


def test_snapshot_diff_isolates_profiling_window(runtime, os_image, env):
    paths = make_files(os_image, 6, 100_000)

    def proc():
        attachment = enable(runtime).attachment
        yield from attachment.attach()
        middleman = DarshanMiddleman(attachment)
        # Pre-window I/O.
        for path in paths[:2]:
            yield from io_ops.read_file(runtime, path)
        start = yield from middleman.take_snapshot()
        for path in paths[2:5]:
            yield from io_ops.read_file(runtime, path)
        end = yield from middleman.take_snapshot()
        # Post-window I/O must not be visible either.
        yield from io_ops.read_file(runtime, paths[5])
        return middleman.diff(start, end)

    delta = run(env, proc())
    assert delta.total("POSIX", "POSIX_OPENS") == 3
    assert delta.total("POSIX", "POSIX_BYTES_READ") == 300_000
    # Two reads per file (data + zero-length).
    assert delta.total("POSIX", "POSIX_READS") == 6
    assert len(delta.dxt_posix) == 3
    assert delta.duration > 0


def test_snapshot_copies_are_isolated_from_live_records(runtime, os_image, env):
    paths = make_files(os_image, 2, 50_000)

    def proc():
        attachment = enable(runtime).attachment
        yield from attachment.attach()
        middleman = DarshanMiddleman(attachment)
        for path in paths:
            yield from io_ops.read_file(runtime, path)
        snap = yield from middleman.take_snapshot()
        # More I/O after the snapshot must not change the snapshot.
        yield from io_ops.read_file(runtime, paths[0])
        return snap, attachment

    snap, attachment = run(env, proc())
    live_total = attachment.posix_module.total_counter("POSIX_READS")
    snap_total = sum(r.counters["POSIX_READS"] for r in snap.posix.values())
    assert live_total == snap_total + 2  # one extra data read + zero read


def test_runtime_info_exposed_through_middleman(runtime, os_image, env):
    paths = make_files(os_image, 3, 10_000)

    def proc():
        attachment = enable(runtime).attachment
        yield from attachment.attach()
        middleman = DarshanMiddleman(attachment)
        for path in paths:
            yield from io_ops.read_file(runtime, path)
        return middleman.runtime_info()

    info = run(env, proc())
    assert info.file_counts["POSIX"] == 3
    assert info.enabled
