"""Byte balance across the layers every simulated byte crosses.

Random sequences of ``read``, ``pread``, ``write``, ``pwrite``, ``fread``,
``fwrite`` and ``stat`` run on three files of a local SSD filesystem, with
Darshan preloaded and the page cache off.  Every layer passes the same
count, so these sums must agree exactly:

* the counts the POSIX calls return, Darshan's ``POSIX_BYTES_READ`` and
  ``POSIX_BYTES_WRITTEN``, and the lengths of its DXT POSIX segments;
* the same for the STDIO calls and Darshan's STDIO counters and segments;
* the bytes the device moved: every written byte once all streams are
  closed, and every read byte plus one cold metadata read per distinct file
  that was opened or stat'ed.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.darshan import DarshanConfig, PreloadedDarshan
from repro.posix import O_RDWR, SimulatedOS
from repro.sim import Environment
from repro.storage import LocalFilesystem, StreamingDevice

PATHS = ("/data/f0", "/data/f1", "/data/f2")
OPS = ("read", "pread", "write", "pwrite", "fread", "fwrite", "stat")

_op = st.tuples(st.sampled_from(OPS), st.integers(0, len(PATHS) - 1),
                st.integers(0, 50_000), st.integers(0, 250_000))


def _run(sizes, ops):
    env = Environment()
    image = SimulatedOS(env, enable_page_cache=False)
    device = StreamingDevice(env, "ssd", read_bandwidth=500e6,
                             write_bandwidth=400e6, latency=20e-6)
    image.mount("/data", LocalFilesystem(env, device))
    for path, size in zip(PATHS, sizes):
        image.vfs.create_file(path, size=size)
    darshan = PreloadedDarshan(env, image.symbols, DarshanConfig())
    darshan.install()
    totals = dict.fromkeys(OPS, 0)
    touched = set()

    def workload():
        fds, streams = {}, {}
        for op, index, count, offset in ops:
            path = PATHS[index]
            touched.add(path)
            if op == "stat":
                yield from image.call("stat", path)
                continue
            if op in ("fread", "fwrite"):
                if path not in streams:
                    streams[path] = yield from image.call("fopen", path, "r+")
                args = (streams[path], count)
            else:
                if path not in fds:
                    fds[path] = yield from image.call("open", path, O_RDWR)
                args = (fds[path], count)
                if op in ("pread", "pwrite"):
                    args += (offset,)
            totals[op] += yield from image.call(op, *args)
        for stream in streams.values():
            yield from image.call("fclose", stream)
        for fd in fds.values():
            yield from image.call("close", fd)

    env.run(until=env.process(workload()))
    return totals, len(touched), darshan, device


def _counter(module, name):
    return sum(record.counters[name] for record in module.records.values())


def _segments(module, kind):
    return sum(segment.length for record in module.dxt_records.values()
               for segment in getattr(record, kind))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 200_000), min_size=3, max_size=3),
       st.lists(_op, max_size=25))
def test_every_layer_counts_the_same_bytes(sizes, ops):
    totals, files_touched, darshan, device = _run(sizes, ops)
    posix, stdio = darshan.posix_module, darshan.stdio_module

    posix_read = totals["read"] + totals["pread"]
    posix_written = totals["write"] + totals["pwrite"]
    assert _counter(posix, "POSIX_BYTES_READ") == posix_read
    assert _segments(posix, "read_segments") == posix_read
    assert _counter(posix, "POSIX_BYTES_WRITTEN") == posix_written
    assert _segments(posix, "write_segments") == posix_written

    assert _counter(stdio, "STDIO_BYTES_READ") == totals["fread"]
    assert _segments(stdio, "read_segments") == totals["fread"]
    assert _counter(stdio, "STDIO_BYTES_WRITTEN") == totals["fwrite"]
    assert _segments(stdio, "write_segments") == totals["fwrite"]

    metrics = device.metrics
    assert metrics.bytes_written == posix_written + totals["fwrite"]
    assert metrics.bytes_read == (
        posix_read + totals["fread"]
        + LocalFilesystem.METADATA_READ_BYTES * files_touched)
