"""The run's append-only logs live in typed-array columns.

A small seeded STREAM job and a small seeded ImageNet epoch job run with
their platforms kept alive.  When they end, no device transfer, no per-file
DXT record and no host trace event exists as an object, and no DXT segment
does until a reader asks the last window's delta for them.  The device
timelines binned from the columns equal the per-bin reference bit for bit
and conserve every byte the device moved.
"""

import gc
from collections import Counter

import numpy as np
import pytest

from repro.darshan import DxtRecord, DxtSegment
from repro.storage import TransferInterval
from repro.tfmini.profiler import HOST_PLANE_NAME, XEvent
from repro.workloads import runner
from repro.workloads.platforms import greendog, kebnekaise

#: Relative tolerance of the float identity Σ bins × width == bytes moved.
REL_TOL = 1e-9


def _census():
    gc.collect()
    return Counter(type(obj) for obj in gc.get_objects())


def _per_bin_timeline(metrics, bin_seconds):
    """The timeline as one ``bytes_between`` call per bin: the reference."""
    t_end = max(iv.end for iv in metrics.intervals)
    n_bins = max(1, int(np.ceil(t_end / bin_seconds)))
    bounds = (np.arange(n_bins + 1) * bin_seconds).tolist()
    return np.array([metrics.bytes_between(bounds[i], bounds[i + 1])
                     for i in range(n_bins)]) / bin_seconds


def _built_on_read(delta):
    """The segments that reading the delta's POSIX segments leaves alive;
    a second read returns the same dict."""
    before = _census()
    segments = delta.dxt_posix
    built = _census()
    built.subtract(before)
    assert delta.dxt_posix is segments
    assert sum(map(len, segments.values())) == built[DxtSegment]
    return built[DxtSegment]


@pytest.fixture(scope="module")
def stream_world():
    """A finished seed-1 STREAM job's platform and the objects it left."""
    platforms = []

    def keep(*args, **kwargs):
        platforms.append(greendog(*args, **kwargs))
        return platforms[-1]

    before = _census()
    patch = pytest.MonkeyPatch()
    patch.setattr(runner, "greendog", keep)
    try:
        result = runner.run_stream_validation(steps=20, batch_size=16,
                                              threads=4, scale=0.01, seed=1)
    finally:
        patch.undo()
    after = _census()
    after.subtract(before)
    return platforms[0], result, after


@pytest.fixture(scope="module")
def imagenet_world():
    """A finished seed-1 ImageNet epoch job's platform and the objects it
    left; nothing exports its profile."""
    platform = kebnekaise()
    before = _census()
    result = runner.run_imagenet_case(scale=0.002, batch_size=16, threads=4,
                                      profile="epoch", seed=1,
                                      platform=platform)
    after = _census()
    after.subtract(before)
    return platform, result, after


def test_only_the_last_window_builds_segment_objects(stream_world):
    platform, result, alive = stream_world
    middleman = platform.runtime.tf_darshan
    assert len(result.windows) == 4
    assert middleman.delta.segment_count > 0
    assert alive[DxtSegment] == 0
    assert alive[DxtRecord] == 0
    assert alive[TransferInterval] == 0
    logged = sum(len(module.dxt_log)
                 for module in middleman.attachment.core.modules.values())
    assert logged > 4 * middleman.delta.segment_count
    assert _built_on_read(middleman.delta) == middleman.delta.segment_count


def test_an_epoch_job_keeps_its_host_events_and_segments_as_columns(
        imagenet_world):
    platform, _, alive = imagenet_world
    runtime = platform.runtime
    host = runtime.last_profile.xspace.find_plane(HOST_PLANE_NAME)
    assert host.event_count > 100
    assert alive[XEvent] == 0
    delta = runtime.tf_darshan.delta
    assert delta.segment_count > 0
    assert alive[DxtSegment] == 0
    assert _built_on_read(delta) == delta.segment_count



@pytest.mark.parametrize("bin_seconds", [1.0, 0.05])
def test_device_timelines_equal_the_per_bin_reference(stream_world,
                                                      bin_seconds):
    platform, _, _ = stream_world
    busy = [device for device in platform.devices()
            if device.metrics.read_ops + device.metrics.write_ops]
    assert busy
    for device in busy:
        metrics = device.metrics
        _, rates = metrics.throughput_timeline(bin_seconds)
        assert rates.tolist() == _per_bin_timeline(metrics,
                                                   bin_seconds).tolist()
        assert rates.sum() * bin_seconds == pytest.approx(
            metrics.bytes_read + metrics.bytes_written, rel=REL_TOL)
