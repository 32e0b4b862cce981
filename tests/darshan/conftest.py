"""Shared fixtures for Darshan tests: a SimulatedOS with preloaded Darshan."""

import pytest

from repro.sim import Environment
from repro.storage import LocalFilesystem, StreamingDevice
from repro.posix import SimulatedOS
from repro.darshan import DarshanConfig, PreloadedDarshan


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def os_image(env):
    image = SimulatedOS(env)
    device = StreamingDevice(env, "ssd", read_bandwidth=500e6,
                             write_bandwidth=400e6, latency=20e-6)
    image.mount("/data", LocalFilesystem(env, device, name="ext4(ssd)"))
    return image


@pytest.fixture
def darshan(env, os_image):
    """A classic preloaded Darshan wrapping every I/O symbol."""
    instance = PreloadedDarshan(env, os_image.symbols, DarshanConfig())
    instance.install()
    return instance


def run(env, gen):
    return env.run(until=env.process(gen))


def read_file_like_tf(os_image, path, buffer_size=1 << 20):
    """The TensorFlow ReadFile loop: pread until a zero-length read."""
    def gen():
        fd = yield from os_image.call("open", path)
        offset = 0
        while True:
            nbytes = yield from os_image.call("pread", fd, buffer_size, offset)
            offset += nbytes
            if nbytes == 0:
                break
        yield from os_image.call("close", fd)
        return offset
    return gen()
