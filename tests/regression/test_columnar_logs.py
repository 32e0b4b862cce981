"""The run's append-only logs live in typed-array columns.

A small seeded STREAM job runs with its platform kept alive.  When it ends,
no device transfer and no per-file DXT record exists as an object, and the
only DXT segments alive are the last window's, which its delta holds.  The
device timelines binned from the columns equal the per-bin reference bit
for bit and conserve every byte the device moved.
"""

import gc
from collections import Counter

import numpy as np
import pytest

from repro.darshan import DxtRecord, DxtSegment
from repro.storage import TransferInterval
from repro.workloads import runner
from repro.workloads.platforms import greendog

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


def test_only_the_last_window_builds_segment_objects(stream_world):
    platform, result, alive = stream_world
    middleman = platform.runtime.tf_darshan
    assert len(result.windows) == 4
    assert middleman.delta.segment_count > 0
    assert alive[DxtSegment] == middleman.delta.segment_count
    assert alive[DxtRecord] == 0
    assert alive[TransferInterval] == 0
    logged = sum(len(module.dxt_log)
                 for module in middleman.attachment.core.modules.values())
    assert logged > 4 * middleman.delta.segment_count


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
