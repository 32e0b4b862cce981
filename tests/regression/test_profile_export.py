"""The TensorBoard export of a small profiled ImageNet run is pinned.

One tf-Darshan epoch profile with checkpoints (POSIX and STDIO activity)
is exported in full mode.  The values were captured from the code before
the profiler kept a single copy of each trace event and file record; that
change must not move any exported number.  The trace is pinned as a
digest of the decompressed ``trace.json.gz`` plus its event count per
plane, so that a mismatch shows where; the JSON summaries are pinned with
integers and strings exact and floats to a relative 1e-9.
"""

import gzip
import hashlib
import json

import pytest

from repro.core import TfDarshanOptions, build_plugin_data
from repro.workloads.runner import run_imagenet_case

TRACE_SHA256 = "01e868bcd16b81faadac07eceac64dacd5b01f107accb36dfef92807a090142c"
#: Trace events per plane, its process and thread names included.
PLANE_EVENTS = {
    "/device:GPU:GPU:0": 26,
    "/device:GPU:GPU:1": 26,
    "/host:CPU": 208,
    "/host:tf-Darshan POSIX": 187,
    "/host:tf-Darshan STDIO": 151,
}
INPUT_PIPELINE = {
    "num_steps": 4,
    "avg_step_time": 0.12377187629999971,
    "avg_input_time": 0.10619620749999971,
    "avg_compute_time": 0.0175756688,
    "input_percent": 85.79994961262453,
    "classification": "Your program is HIGHLY input-bound",
}
OVERVIEW = {
    "profile_duration": 0.984467337200027,
    "num_steps": 4,
    "avg_step_time": 0.12377187629999971,
    "input_percent": 85.79994961262453,
    "device_utilization": {"/device:GPU:GPU:0": 0.014736171306989171,
                           "/device:GPU:GPU:1": 0.014736171306989171},
    "host_event_count": 205,
    "device_event_count": 48,
}
PLUGIN = {
    "title": "tf-Darshan profile",
    "window": {"start": 0.01, "end": 0.983187337200027,
               "duration": 0.973187337200027},
    "posix": {
        "opens": 62, "reads": 124, "writes": 0, "zero_byte_reads": 62,
        "bytes_read": 5904284, "bytes_written": 0,
        "read_bandwidth_mbps": 6.06695522466138,
        "write_bandwidth_mbps": 0.0,
        "sequential_read_fraction": 0.5, "consecutive_read_fraction": 0.5,
        "read_size_histogram": {"0_100": 62, "100K_1M": 22, "10K_100K": 40},
        "write_size_histogram": {},
        "file_size_histogram": {"100K_1M": 22, "10K_100K": 40},
        "files": 62,
    },
    "stdio": {"opens": 2, "reads": 0, "writes": 148,
              "bytes_written": 249521632},
}


def assert_same(actual, expected, where="$"):
    """Equal structure; floats to 1e-9 relative, everything else exact."""
    assert type(actual) is type(expected), f"{where}: {actual!r}"
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key, value in expected.items():
            assert_same(actual[key], value, f"{where}.{key}")
    elif isinstance(expected, float):
        assert actual == pytest.approx(expected, rel=1e-9), where
    else:
        assert actual == expected, where


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    logdir = tmp_path_factory.mktemp("tb")
    result = run_imagenet_case(
        scale=0.01, steps=4, batch_size=16, threads=2, logdir=str(logdir),
        checkpoint_every=2, seed=1,
        tf_darshan_options=TfDarshanOptions(export_mode="full"))
    return logdir, result


def test_trace_json_is_unchanged(exported):
    logdir, _ = exported
    with gzip.open(logdir / "trace.json.gz", "rb") as handle:
        payload = handle.read()
    events = json.loads(payload)["traceEvents"]
    planes = {e["pid"]: e["args"]["name"] for e in events
              if e["name"] == "process_name"}
    counts = {}
    for event in events:
        plane = planes[event["pid"]]
        counts[plane] = counts.get(plane, 0) + 1
    assert counts == PLANE_EVENTS
    assert hashlib.sha256(payload).hexdigest() == TRACE_SHA256


def test_analysis_summaries_are_unchanged(exported):
    logdir, result = exported
    with open(logdir / "input_pipeline.json") as handle:
        assert_same(json.load(handle), INPUT_PIPELINE)
    with open(logdir / "overview_page.json") as handle:
        assert_same(json.load(handle), OVERVIEW)
    assert_same(build_plugin_data(result.io_profile).to_dict(), PLUGIN)
