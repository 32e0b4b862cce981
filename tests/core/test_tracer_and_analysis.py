"""Tests for the DarshanTracer, the in-situ analysis and the TB extension."""

import pytest

from repro.core import (
    DARSHAN_PLANE_NAME,
    DARSHAN_STDIO_PLANE_NAME,
    DarshanTracer,
    StagingAdvisor,
    TfDarshanOptions,
    TfDarshanSession,
    ThreadingAdvisor,
    build_plugin_data,
    enable,
    last_profile,
    zero_length_read_files,
)
from repro.darshan import DarshanConfig
from repro.tfmini import Dataset, io_ops
from repro.tfmini.keras import Model, TensorBoard, Variable
from repro.tfmini.profiler import read_trace_json
from tests.core.conftest import make_files, run


def load(runtime, path):
    data = yield from io_ops.read_file(runtime, path)
    return data


def tiny_model():
    model = Model("tiny", [Variable("w", (1000, 10)), Variable("b", (10,))])
    model.per_sample_gpu_time = 1e-4
    return model


def profile_reads(runtime, paths, logdir=None, buffer_size=None):
    """Profile a simple read loop with a TfDarshanSession."""
    session = TfDarshanSession(runtime, logdir=logdir)

    def proc():
        yield from session.start()
        for path in paths:
            yield from io_ops.read_file(runtime, path, buffer_size=buffer_size)
        window = yield from session.stop()
        return window

    window = run(runtime.env, proc())
    return session, window


# -- tracer through the manual API ----------------------------------------------

def test_manual_session_produces_io_profile(runtime, os_image):
    paths = make_files(os_image, 10, 88_000)
    session, window = profile_reads(runtime, paths)
    profile = window.io_profile
    assert profile is not None
    assert profile.posix_opens == 10
    assert profile.posix_reads == 20
    assert profile.zero_byte_reads == 10
    assert profile.posix_bytes_read == 880_000
    assert profile.posix_read_bandwidth > 0
    assert last_profile(runtime) is profile


def test_enable_builds_one_state_per_process(runtime, os_image):
    """enable() builds the one state; a window adds one runtime attribute."""
    before = set(vars(runtime))
    state = enable(runtime)
    assert enable(runtime, TfDarshanOptions()) is state
    tracers = runtime.profiler_registry.create_tracers(runtime, None)
    assert sum(isinstance(t, DarshanTracer) for t in tracers) == 1
    _, window = profile_reads(runtime, make_files(os_image, 3, 10_000))
    assert set(vars(runtime)) - before == {"tf_darshan"}
    assert last_profile(runtime) is state.profile is window.io_profile
    assert window.io_profile.posix_opens == 3


def test_profile_access_pattern_matches_paper_semantics(runtime, os_image):
    """Whole-file reads: 50% of reads neither sequential nor consecutive."""
    paths = make_files(os_image, 20, 88_000)
    _, window = profile_reads(runtime, paths)
    pattern = window.io_profile.access_pattern
    assert pattern.total_reads == 40
    assert pattern.sequential == 20
    assert pattern.consecutive == 20
    assert pattern.sequential_fraction == pytest.approx(0.5)
    assert pattern.random_fraction == pytest.approx(0.5)


def test_segmented_files_have_mostly_sequential_reads(runtime, os_image):
    """Malware-style multi-segment reads are mostly sequential+consecutive."""
    paths = make_files(os_image, 5, 4_400_000)
    _, window = profile_reads(runtime, paths, buffer_size=1 << 20)
    pattern = window.io_profile.access_pattern
    assert pattern.sequential_fraction > 0.8
    hist = window.io_profile.read_size_histogram
    assert hist.get("100K_1M", 0) + hist.get("1M_4M", 0) >= 20


def test_read_size_histogram_buckets_zero_reads(runtime, os_image):
    paths = make_files(os_image, 8, 88_000)
    _, window = profile_reads(runtime, paths)
    hist = window.io_profile.read_size_histogram
    assert hist["0_100"] == 8
    assert hist["10K_100K"] == 8


def test_file_size_histogram_and_sizes(runtime, os_image):
    make_files(os_image, 4, 500_000, prefix="/data/small")
    make_files(os_image, 3, 5_000_000, prefix="/data/big")
    paths = [i.path for i in os_image.vfs.files_under("/data")]
    _, window = profile_reads(runtime, paths, buffer_size=8 << 20)
    sizes = window.io_profile.file_sizes()
    assert len(sizes) == 7
    assert sum(1 for s in sizes.values() if s < 2_000_000) == 4
    hist = window.io_profile.file_size_histogram
    assert hist.get("100K_1M", 0) == 4
    assert hist.get("4M_10M", 0) == 3


def test_bandwidth_definition_uses_window_duration(runtime, os_image):
    paths = make_files(os_image, 10, 1_000_000)
    session = TfDarshanSession(runtime)

    def proc():
        yield from session.start()
        for path in paths:
            yield from io_ops.read_file(runtime, path)
        # Idle tail inside the window lowers the reported bandwidth.
        yield runtime.env.timeout(1.0)
        window = yield from session.stop()
        return window

    window = run(runtime.env, proc())
    profile = window.io_profile
    assert profile.duration >= 1.0
    assert profile.posix_read_bandwidth == pytest.approx(
        profile.posix_bytes_read / profile.duration)


def test_multiple_windows_report_separate_bandwidths(runtime, os_image):
    """The STREAM validation pattern: restart profiling every few steps."""
    paths = make_files(os_image, 30, 200_000)
    session = TfDarshanSession(runtime)

    def proc():
        for chunk_start in range(0, 30, 10):
            yield from session.start()
            for path in paths[chunk_start:chunk_start + 10]:
                yield from io_ops.read_file(runtime, path)
            yield from session.stop()

    run(runtime.env, proc())
    assert len(session.windows) == 3
    series = session.bandwidth_series()
    assert len(series) == 3
    assert all(bw > 0 for _, bw in series)
    for window in session.windows:
        assert window.io_profile.posix_opens == 10


def test_zero_length_read_files_listed(runtime, os_image):
    paths = make_files(os_image, 5, 50_000)
    _, window = profile_reads(runtime, paths)
    middleman = enable(runtime)
    files = zero_length_read_files(middleman.delta,
                                   middleman.attachment.core.lookup_name)
    assert sorted(files) == sorted(paths)


def test_darshan_plane_added_to_xspace(runtime, os_image, tmp_path):
    paths = make_files(os_image, 6, 120_000)
    logdir = str(tmp_path / "tb")
    session, _ = profile_reads(runtime, paths, logdir=logdir)
    result = runtime.last_profile
    plane = result.xspace.find_plane(DARSHAN_PLANE_NAME)
    assert plane is not None
    assert plane.stats["num_files"] == 6
    # One timeline per file, and each file's last event is the zero read.
    assert len(plane.lines) == 6
    for line in plane.lines.values():
        assert line.events[-1].metadata["length"] == 0
    # The trace viewer JSON contains the per-file timelines.
    events = read_trace_json(str(tmp_path / "tb" / "trace.json.gz"))
    assert any(e.get("name", "").startswith("pread") for e in events
               if e.get("ph") == "X")


def test_window_without_logdir_builds_no_trace_plane(runtime, os_image):
    paths = make_files(os_image, 4, 30_000)
    session = TfDarshanSession(runtime)

    def proc():
        yield from session.start()
        for path in paths:
            yield from io_ops.read_file(runtime, path)
        handle = yield from runtime.filesystem.new_writable_file("/data/ckpt")
        yield from handle.append(20_000)
        yield from handle.close()
        yield from session.stop()

    run(runtime.env, proc())
    # Nothing exports this profile, so no TraceViewer timeline is built...
    planes = runtime.last_profile.xspace.planes
    assert DARSHAN_PLANE_NAME not in planes
    assert DARSHAN_STDIO_PLANE_NAME not in planes
    # ...while the window delta keeps every segment for the analyses.
    delta = enable(runtime).delta
    assert len(delta.dxt_posix) == 4
    assert all(len(segments) == 2 for segments in delta.dxt_posix.values())
    assert delta.dxt_stdio


def test_dxt_disabled_skips_trace_plane(runtime, os_image):
    paths = make_files(os_image, 4, 10_000)
    enable(runtime, TfDarshanOptions(darshan=DarshanConfig(enable_dxt=False)))
    session = TfDarshanSession(runtime)

    def proc():
        yield from session.start()
        for path in paths:
            yield from io_ops.read_file(runtime, path)
        yield from session.stop()

    run(runtime.env, proc())
    assert runtime.last_profile.xspace.find_plane(DARSHAN_PLANE_NAME) is None
    # No DXT segment was recorded, and the counters still work.
    assert not enable(runtime).attachment.posix_module.dxt_records
    assert last_profile(runtime).posix_opens == 4


# -- integration with the Keras TensorBoard callback --------------------------------

def test_tensorboard_callback_includes_darshan(runtime, os_image, tmp_path):
    paths = make_files(os_image, 64, 80_000)
    enable(runtime)
    dataset = Dataset.from_list(paths).map(load).batch(8).prefetch(2)
    callback = TensorBoard(log_dir=str(tmp_path / "tb"), profile_batch=(1, 4))
    model = tiny_model()
    run(runtime.env, model.fit(runtime, dataset, steps_per_epoch=6,
                               callbacks=[callback]))
    profile = last_profile(runtime)
    assert profile is not None
    assert profile.posix_opens > 0
    assert callback.profile_result.xspace.find_plane(DARSHAN_PLANE_NAME) is not None


def test_plugin_data_render_and_write(runtime, os_image, tmp_path):
    paths = make_files(os_image, 12, 100_000)
    session, window = profile_reads(runtime, paths)
    data = session.plugin_data(window, title="unit-test profile")
    text = data.render()
    assert "POSIX opens           : 12" in text
    assert "read bandwidth" in text
    payload = data.to_dict()
    assert payload["posix"]["opens"] == 12
    out = data.write(str(tmp_path / "logs"))
    import json
    with open(out) as handle:
        assert json.load(handle)["posix"]["reads"] == 24


# -- advisors -------------------------------------------------------------------------

def test_staging_advisor_selects_small_files(runtime, os_image):
    make_files(os_image, 40, 800_000, prefix="/data/small")
    make_files(os_image, 60, 7_000_000, prefix="/data/big")
    paths = [i.path for i in os_image.vfs.files_under("/data")]
    _, window = profile_reads(runtime, paths, buffer_size=8 << 20)
    advisor = StagingAdvisor()
    rec = advisor.recommend_from_profile(window.io_profile,
                                         threshold_bytes=2 << 20)
    assert rec.file_count == 40
    assert rec.file_fraction == pytest.approx(0.4)
    assert rec.byte_fraction < 0.1
    assert "stage 40 files" in rec.summary()


def test_staging_advisor_respects_capacity(runtime):
    sizes = {f"/data/f{i}": 1_000_000 for i in range(10)}
    advisor = StagingAdvisor(fast_tier_capacity=3_500_000)
    rec = advisor.recommend(sizes, threshold_bytes=2_000_000)
    assert rec.file_count == 3
    assert rec.staged_bytes <= 3_500_000


def test_staging_threshold_sweep_monotonic(runtime):
    sizes = {f"/data/f{i}": size for i, size in
             enumerate([100_000, 500_000, 1_500_000, 3_000_000, 8_000_000])}
    advisor = StagingAdvisor()
    recs = advisor.sweep(sizes, [200_000, 1_000_000, 2_000_000, 10_000_000])
    counts = [r.file_count for r in recs]
    assert counts == sorted(counts)
    assert counts[-1] == 5


def test_threading_advisor_small_files_increase(runtime, os_image):
    paths = make_files(os_image, 30, 80_000)
    _, window = profile_reads(runtime, paths)
    advisor = ThreadingAdvisor(max_threads=28)
    rec = advisor.recommend(window.io_profile, current_threads=1)
    assert rec.change == "increase"
    assert rec.recommended_threads >= 8


def test_threading_advisor_large_sequential_on_hdd_keeps_one_thread(runtime, os_image):
    paths = make_files(os_image, 6, 6_000_000)
    _, window = profile_reads(runtime, paths, buffer_size=1 << 20)
    advisor = ThreadingAdvisor()
    rec = advisor.recommend(window.io_profile, current_threads=16,
                            rotational_storage=True)
    assert rec.recommended_threads == 1
    assert rec.change == "decrease"
