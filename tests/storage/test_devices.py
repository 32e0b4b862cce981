"""Tests for the block-device models.

A device read or write returns nothing; each transfer is one interval in the
device's ``metrics.intervals``, which is where these tests time it.
"""

import pytest

from repro.sim import Environment
from repro.storage import RotationalDevice, StreamingDevice


def run_process(env, gen):
    proc = env.process(gen)
    return env.run(until=proc)


def test_streaming_device_single_read_time():
    env = Environment()
    dev = StreamingDevice(env, "ssd", read_bandwidth=100e6, latency=1e-3)

    run_process(env, dev.read(100_000_000))
    # 1 ms latency + 1 s transfer
    assert dev.metrics.intervals[-1].duration == pytest.approx(1.001, rel=1e-6)
    assert dev.metrics.bytes_read == 100_000_000
    assert dev.metrics.read_ops == 1


def test_streaming_device_concurrent_reads_share_bandwidth():
    env = Environment()
    dev = StreamingDevice(env, "ssd", read_bandwidth=100e6, latency=0.0)
    env.process(dev.read(50_000_000))
    env.process(dev.read(50_000_000))
    env.run()
    # 100 MB total at 100 MB/s aggregate -> both finish at 1 s.
    ends = [iv.end for iv in dev.metrics.intervals]
    assert len(ends) == 2
    assert all(end == pytest.approx(1.0, rel=1e-6) for end in ends)


def test_streaming_device_per_stream_cap():
    env = Environment()
    dev = StreamingDevice(env, "ssd", read_bandwidth=1e9, latency=0.0,
                          per_stream_bandwidth=100e6)

    run_process(env, dev.read(100_000_000))
    assert dev.metrics.intervals[-1].duration == pytest.approx(1.0, rel=1e-6)


def test_streaming_device_write_uses_write_bandwidth():
    env = Environment()
    dev = StreamingDevice(env, "ssd", read_bandwidth=200e6,
                          write_bandwidth=100e6, latency=0.0)

    run_process(env, dev.write(100_000_000))
    assert dev.metrics.intervals[-1].duration == pytest.approx(1.0, rel=1e-6)
    assert dev.metrics.bytes_written == 100_000_000


def test_streaming_device_queue_depth_limits_latency_phase():
    env = Environment()
    dev = StreamingDevice(env, "nvme", read_bandwidth=1e12, latency=1e-3,
                          queue_depth=1)
    for _ in range(3):
        env.process(dev.read(1))
    env.run()
    # Latency phases serialize with queue depth 1 -> 1, 2, 3 ms.
    ends = [iv.end for iv in dev.metrics.intervals]
    assert sorted(ends) == [pytest.approx(0.001), pytest.approx(0.002),
                            pytest.approx(0.003)]


def test_rotational_sequential_reads_skip_seek():
    env = Environment()
    dev = RotationalDevice(env, "hdd", bandwidth=100e6, seek_time=10e-3,
                           settle_time=0.0)

    def proc():
        yield from dev.read(1_000_000, stream_id="file-a", offset=0)
        yield from dev.read(1_000_000, stream_id="file-a", offset=1_000_000)

    run_process(env, proc())
    first, second = dev.metrics.intervals
    # The first read seeks, the second continues where it ended.
    assert first.duration == pytest.approx(0.020, rel=1e-6)   # seek + 10ms
    assert second.duration == pytest.approx(0.010, rel=1e-6)  # stream only


def test_rotational_interleaved_streams_seek_every_time():
    env = Environment()
    dev = RotationalDevice(env, "hdd", bandwidth=100e6, seek_time=10e-3,
                           settle_time=0.0)

    def reader(name, offset_base):
        for i in range(2):
            yield from dev.read(1_000_000, stream_id=name,
                                offset=offset_base + i * 1_000_000)

    def driver():
        # Interleave by alternating between two sequential streams.
        a = env.process(reader("file-a", 0))
        b = env.process(reader("file-b", 0))
        yield env.all_of([a, b])

    run_process(env, driver())
    # The head serves the four 10 ms transfers one at a time, so each
    # 10 ms beyond 40 ms is one seek.  With two interleaved streams on one
    # head, most requests pay the seek.
    assert len(dev.metrics.intervals) == 4
    seeks = round((env.now - 4 * 0.010) / 0.010)
    assert seeks >= 3


def test_rotational_aggregate_bandwidth_drops_with_interleaving():
    """The Fig. 11a effect: concurrent streams lower HDD throughput."""
    def run(n_streams):
        env = Environment()
        dev = RotationalDevice(env, "hdd", bandwidth=160e6, seek_time=5e-3,
                               settle_time=0.25e-3)
        per_stream_bytes = 8 * 1_000_000
        chunk = 1_000_000

        def reader(name):
            offset = 0
            for _ in range(per_stream_bytes // chunk):
                yield from dev.read(chunk, stream_id=name, offset=offset)
                offset += chunk

        for i in range(n_streams):
            env.process(reader(f"file-{i}"))
        env.run()
        total = n_streams * per_stream_bytes
        return total / env.now

    single = run(1)
    many = run(8)
    assert many < single
    # The drop should be noticeable but not catastrophic (paper: 94 -> 77).
    assert many / single > 0.3


def test_rotational_requests_serialize_on_the_head():
    env = Environment()
    dev = RotationalDevice(env, "hdd", bandwidth=100e6, seek_time=5e-3,
                           settle_time=0.0)

    def proc(name):
        yield from dev.read(500_000, stream_id=name, offset=0)

    env.process(proc("a"))
    env.process(proc("b"))
    env.run()
    # Two requests of (5 + 5) ms each must serialize: 20 ms total.
    assert env.now == pytest.approx(0.020, rel=1e-6)


def test_device_rejects_bad_parameters():
    env = Environment()
    with pytest.raises(ValueError):
        StreamingDevice(env, "x", read_bandwidth=0)
    with pytest.raises(ValueError):
        RotationalDevice(env, "x", bandwidth=-1)


def test_metrics_record_reads_and_writes_separately():
    env = Environment()
    dev = StreamingDevice(env, "ssd", read_bandwidth=100e6, latency=0.0)

    def proc():
        yield from dev.read(1000)
        yield from dev.write(2000)

    run_process(env, proc())
    assert dev.metrics.bytes_read == 1000
    assert dev.metrics.bytes_written == 2000
    assert dev.metrics.read_ops == 1
    assert dev.metrics.write_ops == 1
