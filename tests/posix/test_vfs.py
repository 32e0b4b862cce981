"""Tests for the virtual filesystem namespace."""

import errno

import pytest

from repro.posix import SimOSError, SimulatedOS
from repro.posix.vfs import normalize_path
from repro.sim import Environment
from repro.storage import LocalFilesystem, StreamingDevice, optane_ssd


@pytest.fixture
def os_image():
    env = Environment()
    image = SimulatedOS(env)
    device = StreamingDevice(env, "ssd", read_bandwidth=500e6, latency=10e-6)
    image.mount("/data", LocalFilesystem(env, device))
    return image


def test_normalize_path_requires_absolute():
    with pytest.raises(SimOSError):
        normalize_path("relative/path")
    assert normalize_path("/a//b/../c") == "/a/c"


def test_create_and_lookup_file(os_image):
    vfs = os_image.vfs
    inode = vfs.create_file("/data/train/img001.jpg", size=90_000)
    assert vfs.exists("/data/train/img001.jpg")
    assert vfs.lookup("/data/train/img001.jpg") is inode
    assert inode.size == 90_000
    # Parent directories are created implicitly.
    assert vfs.lookup("/data/train").is_dir


def test_create_duplicate_rejected(os_image):
    os_image.vfs.create_file("/data/a", size=1)
    with pytest.raises(SimOSError):
        os_image.vfs.create_file("/data/a", size=1)


def test_lookup_missing_raises_enoent(os_image):
    with pytest.raises(SimOSError) as exc:
        os_image.vfs.lookup("/data/missing")
    assert exc.value.errno == errno.ENOENT


def test_listdir_and_files_under(os_image):
    vfs = os_image.vfs
    vfs.create_file("/data/a/x.bin", size=10)
    vfs.create_file("/data/a/y.bin", size=20)
    vfs.create_file("/data/b/z.bin", size=30)
    assert vfs.listdir("/data") == ["a", "b"]
    assert vfs.listdir("/data/a") == ["x.bin", "y.bin"]
    under_a = vfs.files_under("/data/a")
    assert [i.path for i in under_a] == ["/data/a/x.bin", "/data/a/y.bin"]
    assert vfs.total_bytes_under("/data") == 60


def test_listdir_on_file_raises(os_image):
    os_image.vfs.create_file("/data/a", size=1)
    with pytest.raises(SimOSError):
        os_image.vfs.listdir("/data/a")


def test_remove_file(os_image):
    vfs = os_image.vfs
    vfs.create_file("/data/a", size=1)
    vfs.remove("/data/a")
    assert not vfs.exists("/data/a")
    with pytest.raises(SimOSError):
        vfs.remove("/data")  # directory


def test_placement_override_changes_backend(os_image):
    env = os_image.env
    fast = LocalFilesystem(env, optane_ssd(env), name="optane")
    os_image.vfs.create_file("/data/f", size=100)
    before = os_image.vfs.backend_for("/data/f")
    os_image.vfs.set_placement("/data/f", fast)
    assert os_image.vfs.backend_for("/data/f") is fast
    assert os_image.vfs.backend_for("/data/other") is before


def test_drop_caches_clears_page_cache(os_image):
    vfs = os_image.vfs
    inode = vfs.create_file("/data/f", size=1000)
    vfs.page_cache.insert(inode.key, 0, 1000)
    assert vfs.page_cache.used_bytes == 1000
    os_image.drop_caches()
    assert vfs.page_cache.used_bytes == 0


def test_devices_enumerated_through_os(os_image):
    assert [d.name for d in os_image.devices()] == ["ssd"]
