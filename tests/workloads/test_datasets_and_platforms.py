"""Tests for the synthetic datasets, platforms and tools."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.posix import SimulatedOS
from repro.storage import LocalFilesystem, StreamingDevice, hdd
from repro.tools import DstatMonitor, format_table, within_factor
from repro.workloads import (
    build_imagenet_dataset,
    build_malware_dataset,
    greendog,
    kebnekaise,
    table2_rows,
)

MIB = 1 << 20


@pytest.fixture
def vfs():
    env = Environment()
    image = SimulatedOS(env)
    image.mount("/data", LocalFilesystem(env, hdd(env)))
    return image.vfs


def test_malware_dataset_matches_table2(vfs):
    dataset = build_malware_dataset(vfs, scale=1.0)
    assert dataset.file_count == 10_868
    assert within_factor(dataset.total_bytes, 48e9, 1.1)
    assert 3 * MIB < dataset.median_bytes < 5 * MIB
    # The staging-relevant properties from Section V-B.
    small = dataset.files_below(2 * MIB)
    assert 0.35 < len(small) / dataset.file_count < 0.46
    assert 0.05 < dataset.bytes_below(2 * MIB) / dataset.total_bytes < 0.11


def test_imagenet_dataset_matches_table2(vfs):
    dataset = build_imagenet_dataset(vfs, scale=0.05)
    assert dataset.file_count == 6_400
    assert within_factor(dataset.total_bytes, 11.6e9 * 0.05, 1.1)
    assert 60_000 < dataset.median_bytes < 120_000


def test_dataset_files_registered_in_vfs(vfs):
    dataset = build_imagenet_dataset(vfs, scale=0.001)
    for path in dataset.paths[:5]:
        assert vfs.exists(path)
    assert vfs.total_bytes_under(dataset.root) == dataset.total_bytes


def test_dataset_generation_is_deterministic(vfs):
    env2 = Environment()
    image2 = SimulatedOS(env2)
    image2.mount("/data", LocalFilesystem(env2, hdd(env2)))
    a = build_malware_dataset(vfs, scale=0.01, seed=7)
    b = build_malware_dataset(image2.vfs, scale=0.01, seed=7)
    assert a.sizes == b.sizes


def test_scale_validation(vfs):
    with pytest.raises(ValueError):
        build_imagenet_dataset(vfs, scale=0.0)
    with pytest.raises(ValueError):
        build_malware_dataset(vfs, scale=1.5)


@given(scale=st.floats(min_value=0.005, max_value=0.05))
@settings(max_examples=10, deadline=None)
def test_malware_distribution_shape_holds_at_any_scale(scale):
    env = Environment()
    image = SimulatedOS(env)
    image.mount("/data", LocalFilesystem(env, hdd(env)))
    dataset = build_malware_dataset(image.vfs, scale=scale)
    small_files = len(dataset.files_below(2 * MIB)) / dataset.file_count
    small_bytes = dataset.bytes_below(2 * MIB) / dataset.total_bytes
    assert 0.3 < small_files < 0.52
    assert small_bytes < 0.15
    assert dataset.median_bytes > 1 * MIB


def test_table2_rows_format(vfs):
    rows = table2_rows([build_imagenet_dataset(vfs, scale=0.01),
                        build_malware_dataset(vfs, scale=0.01)])
    assert len(rows) == 2
    assert rows[0][0] == "imagenet"
    text = format_table(["name", "files", "total", "median"], rows)
    assert "malware" in text


def test_greendog_platform_tiers():
    platform = greendog()
    assert platform.rotational_data_tier
    assert platform.fast_tier is not None
    names = {d.name for d in platform.devices()}
    assert {"sda", "nvme0n1"}.issubset(names)
    assert platform.runtime.cpu_cores == 8
    assert len(platform.runtime.gpus) == 1


def test_kebnekaise_platform_lustre():
    platform = kebnekaise()
    assert not platform.rotational_data_tier
    assert platform.data_root == "/lustre"
    assert platform.runtime.cpu_cores == 28
    assert len(platform.runtime.gpus) == 2
    assert any(d.name.startswith("ost") for d in platform.devices())


def test_dstat_monitor_observes_device_traffic():
    platform = greendog()
    env = platform.env
    hdd_fs = platform.backends["hdd"]
    monitor = DstatMonitor(env, platform.devices())
    monitor.start()

    def proc():
        for i in range(5):
            yield from hdd_fs.read(f"file{i}", 0, 50 * MIB)

    env.run(until=env.process(proc()))
    monitor.stop()
    series = monitor.series()
    assert series.total_read_bytes == pytest.approx(250 * MIB, rel=0.01)
    assert series.peak_read_rate > 0
    assert "read(MiB/s)" in monitor.render()


def test_dstat_single_bin_total_uses_the_monitor_interval():
    env = Environment()
    device = StreamingDevice(env, "ssd", read_bandwidth=100e6, latency=0.0)
    monitor = DstatMonitor(env, [device], interval=0.5)
    monitor.start()
    device.metrics.record_transfer(0.125, 0.375, 1000)
    env.run(until=0.4)
    monitor.stop()
    series = monitor.series()
    assert len(series.times) == 1
    assert series.total_read_bytes == 1000.0
    assert monitor.series(per_device=True)["ssd"].total_read_bytes == 1000.0


def test_dstat_interval_validation():
    platform = greendog()
    with pytest.raises(ValueError):
        DstatMonitor(platform.env, platform.devices(), interval=0)
