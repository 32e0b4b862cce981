"""Tests for the ext4-like and Lustre-like filesystem backends."""

import pytest

from repro.sim import Environment
from repro.storage import (
    LocalFilesystem,
    LustreFilesystem,
    MountTable,
    PageCache,
    StagingManager,
    StreamingDevice,
    hdd,
    optane_ssd,
)


def run(env, gen):
    return env.run(until=env.process(gen))


# -- LocalFilesystem ---------------------------------------------------------

def timed(env, gen):
    """Run one backend operation to completion; returns its duration."""
    start = env.now
    run(env, gen)
    return env.now - start


def test_cold_open_costs_a_metadata_read():
    env = Environment()
    fs = LocalFilesystem(env, hdd(env))

    duration = timed(env, fs.open("fileA"))
    assert duration > 1e-3  # a seek-dominated metadata read
    assert fs.device.metrics.metadata_ops == 1


def test_warm_open_is_cheap():
    env = Environment()
    fs = LocalFilesystem(env, hdd(env))

    run(env, fs.open("fileA"))
    assert timed(env, fs.open("fileA")) < 1e-4


def test_drop_caches_makes_open_cold_again():
    env = Environment()
    fs = LocalFilesystem(env, hdd(env))

    run(env, fs.open("fileA"))
    fs.drop_caches()
    assert timed(env, fs.open("fileA")) > 1e-3


def test_local_read_moves_bytes_on_device():
    env = Environment()
    device = StreamingDevice(env, "ssd", read_bandwidth=100e6, latency=0.0)
    fs = LocalFilesystem(env, device)

    duration = timed(env, fs.read("f", 0, 50_000_000))
    assert device.metrics.intervals[-1].nbytes == 50_000_000
    assert duration == pytest.approx(0.5, rel=1e-6)
    assert device.metrics.bytes_read == 50_000_000


def test_local_zero_byte_read_costs_nothing_on_device():
    env = Environment()
    device = StreamingDevice(env, "ssd", read_bandwidth=100e6, latency=1e-3)
    fs = LocalFilesystem(env, device)

    assert timed(env, fs.read("f", 100, 0)) == 0
    assert device.metrics.intervals == []
    assert device.metrics.read_ops == 0


# -- LustreFilesystem ---------------------------------------------------------

def test_lustre_open_serializes_on_mds():
    env = Environment()
    fs = LustreFilesystem(env, n_osts=2, mds_latency=2e-3, mds_concurrency=1)
    done = []

    def opener(key):
        yield from fs.open(key)
        done.append(env.now)

    for i in range(4):
        env.process(opener(f"file{i}"))
    env.run()
    assert max(done) == pytest.approx(8e-3, rel=1e-6)
    assert fs.mds_requests == 4


def test_lustre_cached_open_skips_mds():
    env = Environment()
    fs = LustreFilesystem(env, n_osts=2, mds_latency=2e-3)

    def proc():
        yield from fs.open("f")
        yield from fs.open("f")

    run(env, proc())
    assert fs.mds_requests == 1


def test_lustre_zero_byte_transfer_costs_nothing():
    env = Environment()
    fs = LustreFilesystem(env, n_osts=2)

    assert timed(env, fs.read("f", 100, 0)) == 0
    assert timed(env, fs.write("f", 100, 0)) == 0
    assert all(d.metrics.intervals == [] for d in fs.devices)


def test_lustre_read_splits_into_stripes():
    env = Environment()
    fs = LustreFilesystem(env, n_osts=4, stripe_size=1 << 20, stripe_count=1)

    run(env, fs.read("f", 0, 3 * (1 << 20)))
    assert sum(d.metrics.read_ops for d in fs.devices) == 3
    total_ost_bytes = sum(d.metrics.bytes_read for d in fs.devices)
    assert total_ost_bytes == 3 * (1 << 20)


def test_lustre_single_stripe_count_keeps_file_on_one_ost():
    env = Environment()
    fs = LustreFilesystem(env, n_osts=4, stripe_size=1 << 20, stripe_count=1)

    def proc():
        yield from fs.read("f", 0, 4 * (1 << 20))

    run(env, proc())
    osts_used = [d for d in fs.devices if d.metrics.bytes_read > 0]
    assert len(osts_used) == 1


def test_lustre_striped_file_spreads_over_osts():
    env = Environment()
    fs = LustreFilesystem(env, n_osts=4, stripe_size=1 << 20, stripe_count=4)

    def proc():
        yield from fs.read("f", 0, 4 * (1 << 20))

    run(env, proc())
    osts_used = [d for d in fs.devices if d.metrics.bytes_read > 0]
    assert len(osts_used) == 4


def test_lustre_requires_an_ost():
    env = Environment()
    with pytest.raises(ValueError):
        LustreFilesystem(env, osts=[])


# -- MountTable / staging -----------------------------------------------------

def test_mount_table_longest_prefix_wins():
    env = Environment()
    slow = LocalFilesystem(env, hdd(env), name="slow")
    fast = LocalFilesystem(env, optane_ssd(env), name="fast")
    table = MountTable()
    table.mount("/data", slow)
    table.mount("/data/hot", fast)
    assert table.resolve("/data/file") is slow
    assert table.resolve("/data/hot/file") is fast


def test_mount_table_rejects_duplicate_and_unmounted_paths():
    env = Environment()
    fs = LocalFilesystem(env, hdd(env))
    table = MountTable()
    table.mount("/data", fs)
    with pytest.raises(ValueError):
        table.mount("/data", fs)
    with pytest.raises(FileNotFoundError):
        table.resolve("/other/file")
    with pytest.raises(ValueError):
        table.mount("relative/path", fs)


def test_placement_override_beats_mount():
    env = Environment()
    slow = LocalFilesystem(env, hdd(env), name="slow")
    fast = LocalFilesystem(env, optane_ssd(env), name="fast")
    table = MountTable()
    table.mount("/data", slow)
    table.set_placement("/data/small.bin", fast)
    assert table.resolve("/data/small.bin") is fast
    assert table.resolve("/data/big.bin") is slow
    table.clear_placement("/data/small.bin")
    assert table.resolve("/data/small.bin") is slow


def test_staging_copies_bytes_and_repoints_placement():
    env = Environment()
    hdd_fs = LocalFilesystem(env, hdd(env), name="hdd")
    optane_fs = LocalFilesystem(env, optane_ssd(env), name="optane")
    table = MountTable()
    table.mount("/data", hdd_fs)
    manager = StagingManager(table)

    files = [("/data/a", "a", 1 << 20), ("/data/b", "b", 2 << 20)]
    result = env.run(until=env.process(
        manager.stage(env, files, optane_fs)))
    assert result.file_count == 2
    assert result.staged_bytes == 3 << 20
    assert table.resolve("/data/a") is optane_fs
    assert hdd_fs.device.metrics.bytes_read >= 3 << 20
    assert optane_fs.device.metrics.bytes_written == 3 << 20
    assert result.elapsed > 0


def test_mount_table_devices_enumerates_all():
    env = Environment()
    hdd_fs = LocalFilesystem(env, hdd(env), name="hdd")
    optane_fs = LocalFilesystem(env, optane_ssd(env), name="optane")
    table = MountTable()
    table.mount("/data", hdd_fs)
    table.mount("/optane", optane_fs)
    names = {d.name for d in table.devices()}
    assert names == {"sda", "nvme0n1"}


# -- PageCache ----------------------------------------------------------------

def test_page_cache_hit_after_insert():
    cache = PageCache(capacity_bytes=1 << 20)
    cache.insert("f", 0, 1000)
    cached, uncached = cache.split_request("f", 0, 1000)
    assert cached == 1000 and uncached == 0
    assert cache.stats()["hits"] == 1


def test_page_cache_miss_on_cold_file():
    cache = PageCache(capacity_bytes=1 << 20)
    cached, uncached = cache.split_request("f", 0, 500)
    assert cached == 0 and uncached == 500


def test_page_cache_partial_hit():
    cache = PageCache(capacity_bytes=1 << 20)
    cache.insert("f", 0, 600)
    cached, uncached = cache.split_request("f", 0, 1000)
    assert cached == 600 and uncached == 400


def test_page_cache_drop_clears_everything():
    cache = PageCache(capacity_bytes=1 << 20)
    cache.insert("f", 0, 1000)
    cache.drop()
    cached, _ = cache.split_request("f", 0, 1000)
    assert cached == 0
    assert cache.used_bytes == 0


def test_page_cache_lru_eviction_respects_capacity():
    cache = PageCache(capacity_bytes=1000)
    cache.insert("a", 0, 600)
    cache.insert("b", 0, 600)
    assert cache.used_bytes <= 1000
    assert cache.stats()["evictions"] >= 1
    # The least recently used file (a) was evicted.
    assert cache.resident_bytes("a") == 0
    assert cache.resident_bytes("b") == 600


def test_page_cache_insert_past_the_prefix_only_refreshes_lru():
    cache = PageCache(capacity_bytes=1000)
    cache.insert("a", 0, 400)
    cache.insert("b", 0, 400)
    # Bytes 500-600 of "a" would leave a hole after its 400-byte prefix.
    cache.insert("a", 500, 100)
    assert cache.resident_bytes("a") == 400
    assert cache.used_bytes == 800
    # "a" is now the most recently used file, so "b" is evicted first.
    cache.insert("c", 0, 400)
    assert cache.resident_bytes("b") == 0
    assert cache.resident_bytes("a") == 400
    assert cache.resident_bytes("c") == 400


def test_page_cache_invalidate_single_file():
    cache = PageCache(capacity_bytes=10_000)
    cache.insert("a", 0, 100)
    cache.insert("b", 0, 100)
    cache.invalidate("a")
    assert cache.resident_bytes("a") == 0
    assert cache.resident_bytes("b") == 100
    assert cache.used_bytes == 100
