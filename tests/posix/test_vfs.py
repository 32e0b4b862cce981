"""Tests for the virtual filesystem namespace."""

import errno
import posixpath

import pytest

from repro.posix import SimOSError, SimulatedOS
from repro.posix.vfs import Inode, VirtualFileSystem, normalize_path
from repro.sim import Environment
from repro.storage import LocalFilesystem, StreamingDevice, optane_ssd
from repro.workloads.datasets import build_imagenet_dataset


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


def _create_walking_every_ancestor(vfs, path, size):
    """``create_file`` as it was when it checked every ancestor of every
    file: the reference for inode numbers and namespace order."""
    path = normalize_path(path)
    if path in vfs._inodes:
        raise SimOSError(errno.EEXIST, "file exists", path)
    vfs._ensure_dirs(posixpath.dirname(path))
    vfs._inodes[path] = Inode(ino=next(vfs._ino_counter), path=path,
                              size=size)


def test_dataset_layout_numbers_inodes_as_a_full_walk_does():
    layouts = []
    for create in (VirtualFileSystem.create_file,
                   _create_walking_every_ancestor):
        vfs = VirtualFileSystem()
        vfs.mkdir("/data")
        create(vfs, "/data/top.bin", 1)
        dataset = build_imagenet_dataset(vfs, root="/data/imagenet",
                                         scale=0.02, seed=1)
        vfs.remove(dataset.paths[5])
        create(vfs, dataset.paths[5], 7)
        create(vfs, "/data/imagenet/new/deeper/file.jpg", 3)
        layouts.append([(path, inode.ino, inode.is_dir, inode.size)
                        for path, inode in vfs._inodes.items()])
    assert len(layouts[0]) > 2_560
    assert layouts[0] == layouts[1]


@pytest.mark.parametrize("path", ["/data/a/b", "/data/a/b/c"])
def test_a_path_under_a_file_raises_enotdir(os_image, path):
    vfs = os_image.vfs
    vfs.create_file("/data/a", size=1)
    with pytest.raises(SimOSError) as info:
        vfs.create_file(path, size=1)
    assert info.value.errno == errno.ENOTDIR
    assert not vfs.exists(path)
