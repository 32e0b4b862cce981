"""Fixtures for tf-Darshan core tests: a runtime over a small SSD platform."""

import pytest

from repro.sim import Environment
from repro.storage import LocalFilesystem, StreamingDevice
from repro.posix import SimulatedOS
from repro.tfmini import TFRuntime
from repro.tfmini.device import GPUDevice


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def os_image(env):
    return make_os(env)


@pytest.fixture
def runtime(env, os_image):
    return make_runtime(env, os_image)


def make_os(env):
    image = SimulatedOS(env)
    device = StreamingDevice(env, "ssd", read_bandwidth=400e6,
                             write_bandwidth=300e6, latency=40e-6)
    image.mount("/data", LocalFilesystem(env, device, name="ext4(ssd)"))
    return image


def make_runtime(env, os_image):
    return TFRuntime(env, os_image, cpu_cores=4,
                     gpus=[GPUDevice(env, name="GPU:0")])


def run(env, gen):
    return env.run(until=env.process(gen))


def make_files(os_image, count, size, prefix="/data/train"):
    paths = []
    for i in range(count):
        path = f"{prefix}/sample_{i:05d}.bin"
        os_image.vfs.create_file(path, size=size)
        paths.append(path)
    return paths
