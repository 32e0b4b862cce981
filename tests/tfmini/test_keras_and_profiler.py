"""Tests for models, the training loop, callbacks, checkpoints and profiler."""

import pytest

from repro.tfmini import Dataset, io_ops
from repro.tfmini.keras import (
    AlexNet,
    CheckpointWriter,
    MalwareCNN,
    Model,
    ModelCheckpoint,
    TensorBoard,
    Variable,
)
from repro.tfmini.profiler import (
    HOST_PLANE_NAME,
    ProfilerServer,
    analyze_input_pipeline,
    build_overview,
    profiler_start,
    profiler_stop,
    read_trace_json,
)
from tests.tfmini.conftest import make_files, run


def load(runtime, path):
    data = yield from io_ops.read_file(runtime, path)
    return data


def tiny_model():
    model = Model("tiny", [Variable("w", (1000, 10)), Variable("b", (10,))])
    model.per_sample_gpu_time = 1e-4
    return model


def input_pipeline(os_image, count=32, size=50_000, batch=8):
    paths = make_files(os_image, count, size)
    return Dataset.from_list(paths).map(load).batch(batch).prefetch(2)


# -- models -------------------------------------------------------------------

def test_alexnet_parameter_count_matches_the_architecture():
    model = AlexNet()
    # Standard AlexNet has about 61-62 M parameters.
    assert 58e6 < model.parameter_count() < 65e6
    # float32 checkpoint payload of roughly 235-250 MB.
    assert 230e6 < model.variables_nbytes() < 260e6


def test_malware_cnn_is_small():
    model = MalwareCNN()
    assert model.parameter_count() < 10e6
    assert model.per_sample_gpu_time < AlexNet.per_sample_gpu_time


def test_step_kernels_sum_to_step_time():
    model = AlexNet()
    kernels = model.step_kernels(128)
    total = sum(duration for _, duration in kernels)
    assert total == pytest.approx(model.per_sample_gpu_time * 128, rel=1e-6)


def test_compile_records_config():
    model = tiny_model()
    model.compile(optimizer="sgd", learning_rate=0.01, momentum=0.0)
    assert model.compiled
    assert model.config.learning_rate == 0.01


# -- fit loop ------------------------------------------------------------------

def test_fit_runs_requested_steps(runtime, os_image):
    dataset = input_pipeline(os_image, count=32, batch=8)
    model = tiny_model()
    history = run(runtime.env, model.fit(runtime, dataset, steps_per_epoch=3))
    assert len(history.batches) == 3
    assert len(runtime.step_stats) == 3
    assert history.epochs[0]["steps"] == 3
    assert runtime.env.now > 0


def test_fit_stops_early_when_data_runs_out(runtime, os_image):
    dataset = input_pipeline(os_image, count=8, batch=8)
    model = tiny_model()
    history = run(runtime.env, model.fit(runtime, dataset, steps_per_epoch=5))
    assert len(history.batches) == 1


def test_fit_step_stats_split_input_and_compute(runtime, os_image):
    dataset = input_pipeline(os_image, count=16, batch=8)
    model = tiny_model()
    run(runtime.env, model.fit(runtime, dataset, steps_per_epoch=2))
    for stats in runtime.step_stats:
        assert stats.input_time >= 0
        assert stats.compute_time > 0
        assert stats.duration >= stats.input_time + stats.compute_time - 1e-9


def test_fit_uses_gpu_kernels(runtime, os_image):
    dataset = input_pipeline(os_image, count=16, batch=8)
    model = tiny_model()
    run(runtime.env, model.fit(runtime, dataset, steps_per_epoch=2))
    assert len(runtime.gpus[0].kernel_log) == 2 * len(model.kernel_profile)


# -- checkpointing --------------------------------------------------------------

def test_checkpoint_writer_goes_through_fwrite(runtime, os_image):
    model = AlexNet()
    writer = CheckpointWriter(runtime)
    info = run(runtime.env, writer.save(model, "/data/ckpts/ckpt-1"))
    # The data file holds all variables plus headers.
    assert info.bytes_written > model.variables_nbytes()
    assert info.fwrite_calls > 100
    assert os_image.vfs.exists(info.data_file)
    assert os_image.posix.call_counts["pwrite"] > 0


def test_alexnet_ten_checkpoints_make_about_1400_fwrites(runtime, os_image):
    """Fig. 6: ten per-step checkpoints of AlexNet produce ~1 400 fwrites."""
    model = AlexNet()
    writer = CheckpointWriter(runtime)

    def proc():
        total = 0
        for step in range(1, 11):
            info = yield from writer.save(model, f"/data/ckpts/ckpt-{step}")
            total += info.fwrite_calls
        return total

    total_fwrites = run(runtime.env, proc())
    assert 1200 <= total_fwrites <= 1600


def test_model_checkpoint_callback_saves_every_n_steps(runtime, os_image):
    dataset = input_pipeline(os_image, count=64, batch=8)
    model = tiny_model()
    callback = ModelCheckpoint("/data/ckpts/step-{step}", save_freq=2)
    run(runtime.env, model.fit(runtime, dataset, steps_per_epoch=6,
                               callbacks=[callback]))
    assert len(callback.saves) == 3


# -- profiler ---------------------------------------------------------------------

def test_manual_profiler_start_stop_collects_host_events(runtime, os_image):
    paths = make_files(os_image, 8, 50_000)

    def proc():
        yield from profiler_start(runtime)
        for path in paths:
            yield from io_ops.read_file(runtime, path)
        result = yield from profiler_stop(runtime)
        return result

    result = run(runtime.env, proc())
    host = result.xspace.find_plane(HOST_PLANE_NAME)
    assert host is not None
    read_events = [e for line in host.lines.values() for e in line.events
                   if e.name == "ReadFile"]
    assert len(read_events) == 8
    assert result.duration > 0


def test_profiler_not_recording_outside_session(runtime, os_image):
    paths = make_files(os_image, 4, 10_000)

    def proc():
        for path in paths:
            yield from io_ops.read_file(runtime, path)

    run(runtime.env, proc())
    assert runtime.traceme.total_recorded == 0


def test_double_start_rejected(runtime):
    def proc():
        yield from profiler_start(runtime)
        try:
            yield from profiler_start(runtime)
        except RuntimeError:
            return "rejected"

    assert run(runtime.env, proc()) == "rejected"


def test_stop_without_start_rejected(runtime):
    def proc():
        try:
            yield from profiler_stop(runtime)
        except RuntimeError:
            return "rejected"
        yield runtime.env.timeout(0)

    assert run(runtime.env, proc()) == "rejected"


def test_session_logdir_does_not_leak_into_shared_options(runtime, os_image,
                                                          tmp_path):
    """A logdir given to one session stays with that session: a later
    session without a logdir must not export."""
    paths = make_files(os_image, 4, 10_000)

    def window(logdir):
        yield from profiler_start(runtime, logdir=logdir)
        for path in paths:
            yield from io_ops.read_file(runtime, path)
        result = yield from profiler_stop(runtime)
        return result

    first = run(runtime.env, window(str(tmp_path)))
    assert first.exported_files
    second = run(runtime.env, window(None))
    assert second.logdir is None
    assert second.exported_files == []


def test_tracer_factory_error_surfaces_from_its_only_call(runtime):
    calls = []

    def factory(rt, logdir=None):
        calls.append(logdir)
        raise TypeError("tracer constructor failed")

    runtime.profiler_registry.register(factory)
    with pytest.raises(TypeError, match="tracer constructor failed"):
        runtime.profiler_registry.create_tracers(runtime, None)
    assert len(calls) == 1


def test_tensorboard_callback_profiles_batch_range(runtime, os_image, tmp_path):
    dataset = input_pipeline(os_image, count=64, batch=8)
    model = tiny_model()
    callback = TensorBoard(log_dir=str(tmp_path / "tb"), profile_batch=(2, 4))
    run(runtime.env, model.fit(runtime, dataset, steps_per_epoch=6,
                               callbacks=[callback]))
    result = callback.profile_result
    assert result is not None
    # Steps 2-4 (1-based) fall inside the profile window.
    analysis = analyze_input_pipeline(runtime.step_stats, result.start_time,
                                      result.end_time)
    assert analysis.num_steps == 3
    assert (tmp_path / "tb" / "trace.json.gz").exists()
    events = read_trace_json(str(tmp_path / "tb" / "trace.json.gz"))
    assert any(e.get("name") == "train_step" for e in events)


def test_gpu_plane_collected_when_profiling(runtime, os_image, tmp_path):
    dataset = input_pipeline(os_image, count=32, batch=8)
    model = tiny_model()
    callback = TensorBoard(log_dir=str(tmp_path / "tb"), profile_batch=(1, 2))
    run(runtime.env, model.fit(runtime, dataset, steps_per_epoch=3,
                               callbacks=[callback]))
    planes = callback.profile_result.xspace.planes
    assert any(name.startswith("/device:GPU") for name in planes)


def test_profiler_server_capture_window(runtime, os_image):
    paths = make_files(os_image, 50, 20_000)
    server = ProfilerServer(runtime)

    def workload():
        for path in paths:
            yield from io_ops.read_file(runtime, path)
            yield runtime.env.timeout(0.01)

    def capture():
        yield runtime.env.timeout(0.05)
        result = yield from server.capture(duration=0.2)
        return result

    runtime.env.process(workload())
    result = run(runtime.env, capture())
    assert result.duration >= 0.2
    host = result.xspace.find_plane(HOST_PLANE_NAME)
    assert host is not None and host.event_count > 0


def test_input_pipeline_analysis_classifies_input_bound(runtime, os_image):
    """A tiny model with slow input must be classified as input bound."""
    paths = make_files(os_image, 32, 2_000_000)
    dataset = Dataset.from_list(paths).map(load).batch(8)
    model = tiny_model()
    run(runtime.env, model.fit(runtime, dataset, steps_per_epoch=4))
    analysis = analyze_input_pipeline(runtime.step_stats)
    assert analysis.num_steps == 4
    assert analysis.input_percent > 50
    assert "HIGHLY input-bound" in analysis.classification
    assert "waiting for input" in analysis.summary()


def test_overview_page_reports_utilization(runtime, os_image, tmp_path):
    dataset = input_pipeline(os_image, count=32, batch=8)
    model = tiny_model()
    callback = TensorBoard(log_dir=str(tmp_path / "tb"), profile_batch=(1, 3))
    run(runtime.env, model.fit(runtime, dataset, steps_per_epoch=4,
                               callbacks=[callback]))
    overview = build_overview(callback.profile_result.xspace, runtime.step_stats)
    assert overview.num_steps >= 3
    assert 0 <= overview.input_percent <= 100
    assert overview.host_event_count > 0
    assert "Overview" in overview.summary()
