"""Fig. 8: TraceViewer shows every file read ending with a zero-length read.

The paper zooms into the tf-Darshan TraceViewer timelines for the ImageNet
training and finds that every file is consumed by one read followed by a
pread of length zero — which explains why the POSIX read count is twice the
open count.  The benchmark profiles a small ImageNet run, rebuilds the
per-file timelines and checks the same property on every timeline.
"""

import pytest

from benchmarks.conftest import report, run_once
from repro.core import DARSHAN_PLANE_NAME, zero_length_read_files
from repro.tools import PaperComparison
from repro.workloads import run_imagenet_case

SCALE = 0.01
BATCH = 128


def test_fig8_zero_length_terminal_reads(benchmark):
    result = run_once(benchmark, run_imagenet_case, scale=SCALE,
                      batch_size=BATCH, threads=2, profile="epoch", seed=1)

    # Rebuild the TraceViewer view from the collected delta.
    from repro.workloads import kebnekaise  # noqa: F401  (documentation import)
    profile = result.io_profile
    assert profile is not None

    comparisons = [
        PaperComparison("every traced file ends with a zero-length read",
                        "all files", f"{profile.zero_byte_reads} of "
                        f"{profile.posix_opens} files",
                        abs(profile.zero_byte_reads - profile.posix_opens) <= 8),
        PaperComparison("explains reads ~= 2x opens", "2x",
                        f"{profile.posix_reads / max(1, profile.posix_opens):.2f}x",
                        1.9 <= profile.posix_reads / max(1, profile.posix_opens) <= 2.1),
    ]
    report("Fig. 8: zero-length terminal reads", comparisons)
    assert all(c.matches for c in comparisons)


def test_fig8_timeline_structure(benchmark):
    """Per-file timelines: one data read then one zero-length read."""
    def run_and_inspect():
        from repro.sim import Environment
        from repro.posix import SimulatedOS
        from repro.storage import LocalFilesystem, StreamingDevice
        from repro.tfmini import TFRuntime, io_ops
        from repro.core import TfDarshanSession

        env = Environment()
        image = SimulatedOS(env)
        image.mount("/data", LocalFilesystem(
            env, StreamingDevice(env, "ssd", read_bandwidth=400e6, latency=50e-6)))
        paths = []
        for i in range(64):
            path = f"/data/img_{i:04d}.jpg"
            image.vfs.create_file(path, size=88_000)
            paths.append(path)
        runtime = TFRuntime(env, image, cpu_cores=4, gpus=[])
        session = TfDarshanSession(runtime)

        def proc():
            yield from session.start()
            for path in paths:
                yield from io_ops.read_file(runtime, path)
            yield from session.stop()

        env.run(until=env.process(proc()))
        delta = runtime.tf_darshan.delta
        attachment = runtime.tf_darshan.attachment
        files_with_zero = zero_length_read_files(delta, attachment.core.lookup_name)
        timelines = {}
        for record_id, segments in delta.dxt_posix.items():
            reads = [s for s in segments if s.op == "read"]
            timelines[record_id] = [s.length for s in reads]
        return paths, files_with_zero, timelines

    paths, files_with_zero, timelines = run_once(benchmark, run_and_inspect)
    assert sorted(files_with_zero) == sorted(paths)
    for lengths in timelines.values():
        assert len(lengths) == 2
        assert lengths[0] == 88_000
        assert lengths[1] == 0
