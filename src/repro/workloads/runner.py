"""Experiment runners: the case studies and evaluation runs of the paper.

Every function builds a fresh platform, lays out the synthetic dataset,
honours the paper's measurement protocol (drop caches, single epoch, dstat
in the background), runs the workload and returns a structured result that
the benchmark harnesses and examples turn into the tables and figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.sim import Environment
from repro.storage import StagingManager, StagingResult
from repro.tfmini.keras import AlexNet, MalwareCNN, ModelCheckpoint, TensorBoard
from repro.tools.dstat import DstatMonitor, DstatSeries
from repro.tools.stream import StreamBenchmark, StreamResult
from repro.core import StagingAdvisor, TfDarshanOptions, enable, last_profile
from repro.core.analysis import IOProfile
from repro.workloads.datasets import (
    build_imagenet_dataset,
    build_malware_dataset,
)
from repro.workloads.pipelines import (
    build_imagenet_pipeline,
    build_malware_pipeline,
)
from repro.workloads.platforms import Platform, greendog, kebnekaise

MIB = 1 << 20


@dataclass
class TrainingRunResult:
    """Outcome of one training run (one configuration of a case study)."""

    case: str
    platform: str
    steps: int
    batch_size: int
    threads: int
    fit_time: float
    end_of_fit_time: float
    bytes_read: int
    io_profile: Optional[IOProfile]
    dstat: DstatSeries
    staging: Optional[StagingResult] = None
    checkpoint_fwrites: int = 0
    stdio_writes: int = 0
    #: Fraction of step time spent waiting for input (TensorFlow analysis).
    input_percent: float = 0.0
    config: Dict[str, object] = field(default_factory=dict)

    @property
    def ingestion_bandwidth(self) -> float:
        """Bytes read from storage per second of training (epoch bandwidth)."""
        return self.bytes_read / self.fit_time if self.fit_time > 0 else 0.0

    @property
    def posix_bandwidth(self) -> float:
        """The bandwidth tf-Darshan reports for the profiled window."""
        if self.io_profile is not None:
            return self.io_profile.posix_read_bandwidth
        return self.ingestion_bandwidth


def _profiling_callbacks(runtime, profile: str, steps: int,
                         logdir: Optional[str],
                         tf_darshan_options: Optional[TfDarshanOptions]):
    """Build the TensorBoard callback for the requested profiling mode."""
    callbacks: List = []
    if profile == "none":
        return callbacks
    if profile not in ("epoch", "tf-only"):
        raise ValueError("profile must be 'none', 'epoch' or 'tf-only'")
    if profile == "epoch":
        enable(runtime, tf_darshan_options or TfDarshanOptions())
    callbacks.append(TensorBoard(log_dir=logdir, profile_batch=(1, steps)))
    return callbacks


def _run_training(platform: Platform, case: str, dataset_paths: Sequence[str],
                  model, pipeline, steps: int, batch_size: int, threads: int,
                  profile: str, logdir: Optional[str],
                  tf_darshan_options: Optional[TfDarshanOptions],
                  checkpoint_every: Optional[int],
                  staging: Optional[StagingResult],
                  extra_config: Optional[dict] = None) -> TrainingRunResult:
    runtime = platform.runtime
    env = platform.env
    callbacks = _profiling_callbacks(runtime, profile, steps, logdir,
                                     tf_darshan_options)
    checkpoint_callback = None
    if checkpoint_every:
        checkpoint_callback = ModelCheckpoint(
            filepath=f"{platform.data_root}/checkpoints/ckpt-{{step}}",
            save_freq=checkpoint_every)
        callbacks.append(checkpoint_callback)

    monitor = DstatMonitor(env, platform.devices())
    platform.drop_caches()
    monitor.start()
    read_before = sum(d.metrics.bytes_read for d in platform.devices())
    fit_start = env.now
    fit_process = env.process(model.fit(runtime, pipeline, steps_per_epoch=steps,
                                        callbacks=callbacks))
    env.run(until=fit_process)
    fit_end = env.now
    monitor.stop()
    read_after = sum(d.metrics.bytes_read for d in platform.devices())

    checkpoint_fwrites = 0
    if checkpoint_callback is not None:
        checkpoint_fwrites = sum(info.fwrite_calls
                                 for info in checkpoint_callback.saves)
    stdio_writes = 0
    attachment = runtime.tf_darshan.attachment if runtime.tf_darshan else None
    if attachment is not None and attachment.stdio_module is not None:
        stdio_writes = attachment.stdio_module.total_counter("STDIO_WRITES")
    analysis = runtime.input_pipeline_analysis()

    return TrainingRunResult(
        case=case,
        platform=platform.name,
        steps=len(runtime.step_stats),
        batch_size=batch_size,
        threads=threads,
        fit_time=fit_end - fit_start,
        end_of_fit_time=fit_end,
        bytes_read=int(read_after - read_before),
        io_profile=last_profile(runtime),
        dstat=monitor.series(),
        staging=staging,
        checkpoint_fwrites=checkpoint_fwrites,
        stdio_writes=stdio_writes,
        input_percent=analysis.input_percent,
        config=dict(extra_config or {}),
    )


# ---------------------------------------------------------------------------
# Case study runners
# ---------------------------------------------------------------------------

def run_imagenet_case(
    scale: float = 0.05,
    steps: Optional[int] = None,
    batch_size: int = 256,
    threads: int = 1,
    profile: str = "epoch",
    logdir: Optional[str] = None,
    checkpoint_every: Optional[int] = None,
    seed: Optional[int] = None,
    tf_darshan_options: Optional[TfDarshanOptions] = None,
    platform: Optional[Platform] = None,
) -> TrainingRunResult:
    """ImageNet classification on the Kebnekaise/Lustre platform (Sec. V-A)."""
    platform = platform or kebnekaise()
    dataset = build_imagenet_dataset(platform.os.vfs,
                                     root=f"{platform.data_root}/imagenet",
                                     scale=scale, seed=seed)
    if steps is None:
        steps = max(1, dataset.file_count // batch_size)
    paths = dataset.paths[: steps * batch_size]
    pipeline = build_imagenet_pipeline(paths, batch_size=batch_size,
                                       num_parallel_calls=threads, prefetch=10)
    model = AlexNet()
    model.compile(optimizer="sgd", learning_rate=0.01, momentum=0.0)
    return _run_training(
        platform, "imagenet", paths, model, pipeline, steps, batch_size,
        threads, profile, logdir, tf_darshan_options, checkpoint_every, None,
        extra_config={"scale": scale, "dataset_files": dataset.file_count,
                      "dataset_bytes": dataset.total_bytes})


def run_malware_case(
    scale: float = 0.2,
    steps: Optional[int] = None,
    batch_size: int = 32,
    threads: int = 1,
    profile: str = "epoch",
    staging_threshold: Optional[int] = None,
    logdir: Optional[str] = None,
    seed: Optional[int] = None,
    tf_darshan_options: Optional[TfDarshanOptions] = None,
    platform: Optional[Platform] = None,
) -> TrainingRunResult:
    """Malware detection on the Greendog platform (Sec. V-B).

    ``staging_threshold`` enables the Fig. 11b optimization: every dataset
    file smaller than the threshold is staged onto the Optane tier before
    training (the staging copy itself is simulated and excluded from the
    training time, as in the paper where files were moved beforehand).
    """
    platform = platform or greendog()
    dataset = build_malware_dataset(platform.os.vfs,
                                    root=f"{platform.data_root}/malware",
                                    scale=scale, seed=seed)
    if steps is None:
        steps = max(1, dataset.file_count // batch_size)
    paths = dataset.paths[: steps * batch_size]

    staging_result = None
    if staging_threshold:
        advisor = StagingAdvisor()
        sizes = {path: size for path, size in zip(dataset.paths, dataset.sizes)}
        recommendation = advisor.recommend(sizes, threshold_bytes=staging_threshold)
        manager = StagingManager(platform.os.vfs.mount_table)
        to_stage = [(path, platform.os.vfs.lookup(path).key,
                     platform.os.vfs.lookup(path).size)
                    for path in recommendation.files]
        staging_proc = platform.env.process(
            manager.stage(platform.env, to_stage, platform.fast_tier))
        staging_result = platform.env.run(until=staging_proc)

    pipeline = build_malware_pipeline(paths, batch_size=batch_size,
                                      num_parallel_calls=threads, prefetch=10)
    model = MalwareCNN()
    model.compile(optimizer="sgd", learning_rate=0.01, momentum=0.0)
    return _run_training(
        platform, "malware", paths, model, pipeline, steps, batch_size,
        threads, profile, logdir, tf_darshan_options, None, staging_result,
        extra_config={"scale": scale, "dataset_files": dataset.file_count,
                      "dataset_bytes": dataset.total_bytes,
                      "staging_threshold": staging_threshold})


# ---------------------------------------------------------------------------
# STREAM validation and overhead runs
# ---------------------------------------------------------------------------

def run_stream_validation(
    case: str = "imagenet",
    steps: int = 100,
    batch_size: int = 128,
    threads: int = 16,
    prefetch: int = 10,
    profile_every_steps: int = 5,
    profiler: str = "tfdarshan",
    scale: float = 0.1,
    seed: Optional[int] = None,
) -> StreamResult:
    """The STREAM tool-validation runs of Fig. 3 / Fig. 4 (on Greendog)."""
    platform = greendog()
    if case == "imagenet":
        dataset = build_imagenet_dataset(platform.os.vfs,
                                         root="/data/imagenet", scale=scale,
                                         seed=seed)
    elif case == "malware":
        dataset = build_malware_dataset(platform.os.vfs,
                                        root="/data/malware", scale=scale,
                                        seed=seed)
    else:
        raise ValueError("case must be 'imagenet' or 'malware'")
    needed = steps * batch_size
    paths = dataset.paths
    if len(paths) < needed:
        # Reuse paths round-robin if the scaled dataset is smaller than the
        # requested number of samples (page cache is dropped only once, so
        # repeated files hit DRAM — avoided by default scales in benches).
        paths = [paths[i % len(paths)] for i in range(needed)]
    platform.drop_caches()
    bench = StreamBenchmark(platform.runtime, paths, batch_size=batch_size,
                            num_parallel_calls=threads, prefetch=prefetch,
                            profile_every_steps=profile_every_steps,
                            profiler=profiler)
    proc = platform.env.process(bench.run(steps))
    result = platform.env.run(until=proc)
    return result


def run_overhead_case(
    case: str,
    profiler: str,
    steps: int = 10,
    batch_size: int = 128,
    scale: float = 0.02,
    logdir: Optional[str] = None,
    seed: Optional[int] = None,
) -> float:
    """One bar of Fig. 5: elapsed time of a short run under a profiler mode.

    ``case`` is one of ``imagenet``, ``malware``, ``stream_imagenet``,
    ``stream_malware``; ``profiler`` is ``none``, ``tf`` or ``tfdarshan``.
    Returns the elapsed simulated time (model fitting / streaming only).
    """
    if profiler not in ("none", "tf", "tfdarshan"):
        raise ValueError("profiler must be 'none', 'tf' or 'tfdarshan'")

    if case in ("imagenet", "malware"):
        profile = {"none": "none", "tf": "tf-only", "tfdarshan": "epoch"}[profiler]
        options = TfDarshanOptions(export_mode="full") if profiler == "tfdarshan" else None
        if case == "imagenet":
            result = run_imagenet_case(scale=scale, steps=steps,
                                       batch_size=batch_size, threads=2,
                                       profile=profile, logdir=logdir,
                                       seed=seed, tf_darshan_options=options)
        else:
            result = run_malware_case(scale=max(scale, 0.12), steps=steps,
                                      batch_size=batch_size, threads=1,
                                      profile=profile, logdir=logdir,
                                      seed=seed, tf_darshan_options=options)
        return result.fit_time

    stream_case = case.replace("stream_", "")
    stream_profiler = {"none": "none", "tf": "tf", "tfdarshan": "tfdarshan"}[profiler]
    result = run_stream_validation(case=stream_case, steps=steps,
                                   batch_size=batch_size, threads=16,
                                   profiler=stream_profiler,
                                   scale=max(scale, 0.05), seed=seed)
    return result.elapsed


def run_checkpoint_case(
    steps: int = 10,
    batch_size: int = 64,
    scale: float = 0.01,
    checkpoint_every: int = 1,
    seed: Optional[int] = None,
) -> TrainingRunResult:
    """The checkpointing illustration of Fig. 6 (STDIO activity)."""
    return run_imagenet_case(scale=scale, steps=steps, batch_size=batch_size,
                             threads=2, profile="epoch",
                             checkpoint_every=checkpoint_every, seed=seed)


# ---------------------------------------------------------------------------
# Platform-parameter sweeps
# ---------------------------------------------------------------------------

def run_platform_case(
    n_osts: int = 8,
    page_cache_gib: float = 1.0,
    bandwidth_scale: float = 1.0,
    files: int = 12,
    file_kib: int = 16384,
    readers: int = 6,
    read_kib: int = 1024,
    stripe_count: int = 4,
    seed: Optional[int] = None,
) -> Dict[str, float]:
    """One point of the platform-parameter grid (ROADMAP "larger grids").

    Builds a Kebnekaise-style Lustre node whose three capacity knobs are
    swept rather than fixed — OST count, page-cache size, and device/OST
    bandwidth (``bandwidth_scale`` multiplies the datasheet OST rates) —
    lays out a small synthetic corpus, and drives two full read passes
    with ``readers`` concurrent reader processes through the POSIX/VFS/
    page-cache/Lustre stack.  The cold pass measures the storage floor;
    the warm pass isolates the page-cache effect (a cache smaller than the
    corpus must re-fetch evicted prefixes, a larger one serves DRAM).

    The default corpus is few-but-large files: with many small files the
    client's serialized MDS stream dominates (the Fig. 7 regime, covered
    by the ``imagenet`` case) and would mask the OST/bandwidth axes this
    sweep exists to expose.  Deliberately milliseconds-scale, so
    100+-point grids are cheap enough to farm out across a worker fleet
    and still complete in seconds.
    """
    from repro.posix import SimulatedOS
    from repro.sim.rng import make_rng
    from repro.storage import PageCache
    from repro.storage.device import StreamingDevice
    from repro.storage.lustre import LustreFilesystem

    if n_osts < 1 or files < 1 or readers < 1:
        raise ValueError("n_osts, files and readers must all be >= 1")
    env = Environment()
    page_cache = PageCache(capacity_bytes=max(1, int(page_cache_gib * (1 << 30))))
    os_image = SimulatedOS(env, page_cache=page_cache)
    osts = [StreamingDevice(env,
                            name=f"ost{i}",
                            read_bandwidth=2.0e9 * bandwidth_scale,
                            write_bandwidth=1.5e9 * bandwidth_scale,
                            latency=0.6e-3,
                            per_stream_bandwidth=1.2e9 * bandwidth_scale,
                            queue_depth=64)
            for i in range(int(n_osts))]
    lustre = LustreFilesystem(env, osts=osts, name="lustre",
                              stripe_size=1 * MIB,
                              stripe_count=min(int(stripe_count), len(osts)),
                              network_bandwidth=12.0e9)
    os_image.mount("/lustre", lustre)

    rng = make_rng(seed, "platform")
    sizes = [int(max(1, s)) for s in
             rng.uniform(0.5, 1.5, size=int(files)) * int(file_kib) * 1024]
    paths = []
    for i, size in enumerate(sizes):
        path = f"/lustre/grid/file{i:05d}.bin"
        os_image.vfs.create_file(path, size=size)
        paths.append(path)

    posix = os_image.posix
    read_size = int(read_kib) * 1024

    def reader(assigned):
        for path in assigned:
            fd = yield from posix.open(path)
            while True:
                nbytes = yield from posix.read(fd, read_size)
                if nbytes == 0:
                    break
            yield from posix.close(fd)

    def run_pass() -> float:
        start = env.now
        procs = [env.process(reader(paths[i::int(readers)]))
                 for i in range(int(readers))]
        env.run(until=env.all_of(procs))
        return env.now - start

    os_image.drop_caches()
    cold_time = run_pass()
    warm_time = run_pass()
    total = float(sum(sizes))
    return {
        "files": float(len(paths)),
        "bytes": total,
        "cold_time": cold_time,
        "warm_time": warm_time,
        "cold_bandwidth": total / cold_time if cold_time > 0 else 0.0,
        "warm_bandwidth": total / warm_time if warm_time > 0 else 0.0,
        "warm_speedup": cold_time / warm_time if warm_time > 0 else 0.0,
        "mds_requests": float(lustre.mds_requests),
        "cache_resident_bytes": float(page_cache.used_bytes),
        "cache_evictions": float(page_cache.evictions),
    }


# ---------------------------------------------------------------------------
# Campaign case adapters
# ---------------------------------------------------------------------------
#
# The runners above launch one configuration at a time; the campaign layer
# (``repro.campaign``) sweeps whole grids of them.  Each adapter binds a
# case name to a runner and flattens its rich result object into the
# JSON-able metrics dict that executors ship across process boundaries and
# the result cache persists.

from repro.campaign.jobs import register_case  # noqa: E402


def _scalar(value):
    """Coerce numpy scalars to plain Python for JSON round-tripping."""
    if hasattr(value, "item"):
        return value.item()
    return value


def training_metrics(result: TrainingRunResult) -> Dict[str, object]:
    """Flatten a :class:`TrainingRunResult` into campaign metrics."""
    metrics: Dict[str, object] = {
        "steps": int(result.steps),
        "fit_time": float(result.fit_time),
        "end_of_fit_time": float(result.end_of_fit_time),
        "bytes_read": int(result.bytes_read),
        "ingestion_bandwidth": float(result.ingestion_bandwidth),
        "posix_bandwidth": float(result.posix_bandwidth),
        "input_percent": float(result.input_percent),
        "checkpoint_fwrites": int(result.checkpoint_fwrites),
        "stdio_writes": int(result.stdio_writes),
    }
    profile = result.io_profile
    if profile is not None:
        metrics.update({
            "posix_opens": int(profile.posix_opens),
            "posix_reads": int(profile.posix_reads),
            "posix_bytes_read": int(profile.posix_bytes_read),
            "zero_byte_reads": int(profile.zero_byte_reads),
            "read_size_histogram": {key: int(count) for key, count
                                    in profile.read_size_histogram.items()},
            "random_fraction": float(profile.access_pattern.random_fraction),
            "sequential_fraction":
                float(profile.access_pattern.sequential_fraction),
        })
    if result.staging is not None:
        metrics.update({
            "staged_bytes": int(result.staging.staged_bytes),
            "staged_files": int(result.staging.file_count),
            "staging_elapsed": float(result.staging.elapsed),
        })
    for key in ("dataset_files", "dataset_bytes", "staging_threshold", "scale"):
        if key in result.config and result.config[key] is not None:
            metrics[key] = _scalar(result.config[key])
    return metrics


@register_case("imagenet")
def _imagenet_case(params: Dict[str, object], seed: int) -> Dict[str, object]:
    """ImageNet training on Kebnekaise (paper Sec. V-A) as a campaign case."""
    return training_metrics(run_imagenet_case(seed=seed, **params))


@register_case("malware")
def _malware_case(params: Dict[str, object], seed: int) -> Dict[str, object]:
    """Malware training on Greendog (paper Sec. V-B) as a campaign case."""
    return training_metrics(run_malware_case(seed=seed, **params))


@register_case("stream")
def _stream_case(params: Dict[str, object], seed: int) -> Dict[str, object]:
    """STREAM tool-validation run (Fig. 3/4) as a campaign case."""
    result = run_stream_validation(seed=seed, **params)
    return {
        "steps": int(result.steps),
        "elapsed": float(result.elapsed),
        "total_bytes": int(result.total_bytes),
        "overall_bandwidth": float(result.overall_bandwidth),
        "tfdarshan_bandwidth": float(result.mean_tfdarshan_bandwidth),
        "windows": len(result.windows),
    }


@register_case("overhead")
def _overhead_case(params: Dict[str, object], seed: int) -> Dict[str, object]:
    """One bar of Fig. 5 (elapsed time under a profiler mode)."""
    return {"elapsed": float(run_overhead_case(seed=seed, **params))}


@register_case("platform")
def _platform_case(params: Dict[str, object], seed: int) -> Dict[str, object]:
    """One platform-parameter grid point (OSTs x page cache x bandwidth)."""
    return run_platform_case(seed=seed, **params)


# ---------------------------------------------------------------------------
# Canonical sweep specs for the paper's grids
# ---------------------------------------------------------------------------

def imagenet_threads_spec(threads: Sequence[int] = (1, 28),
                          scale: float = 0.05, batch_size: int = 256,
                          seed: int = 1) -> "SweepSpec":
    """The Fig. 7 grid: the ImageNet profile swept over thread counts."""
    from repro.campaign import SweepSpec

    return SweepSpec(
        name="fig7-imagenet-threads",
        case="imagenet",
        base={"scale": scale, "batch_size": batch_size, "profile": "epoch"},
        grid={"threads": list(threads)},
        seed=seed,
        seed_mode="shared",
    )


def staging_threshold_spec(thresholds: Sequence[int],
                           scale: float = 0.05, batch_size: int = 32,
                           seed: int = 1) -> "SweepSpec":
    """The ablation-A3 grid: malware runs swept over staging thresholds.

    ``0`` means "no staging" (the naive baseline) — the runner treats a
    falsy threshold as disabled, so the whole ablation is one grid.
    """
    from repro.campaign import SweepSpec

    return SweepSpec(
        name="ablation-staging-threshold",
        case="malware",
        base={"scale": scale, "batch_size": batch_size, "threads": 1,
              "profile": "epoch"},
        grid={"staging_threshold": list(thresholds)},
        seed=seed,
        seed_mode="shared",
    )


def overhead_grid_spec(cases: Sequence[str], profilers: Sequence[str],
                       steps: int = 10, batch_size: int = 128,
                       seed: int = 1) -> "SweepSpec":
    """The Fig. 5 grid: every case × profiler mode, including baselines."""
    from repro.campaign import SweepSpec

    return SweepSpec(
        name="fig5-overhead",
        case="overhead",
        base={"steps": steps, "batch_size": batch_size},
        grid={"case": list(cases), "profiler": list(profilers)},
        seed=seed,
        seed_mode="shared",
    )


def platform_grid_spec(osts: Sequence[int] = (1, 2, 4, 8),
                       page_cache_gib: Sequence[float] = (0.03125, 0.25, 8.0),
                       bandwidth_scales: Sequence[float] = (0.5, 1.0, 2.0),
                       files: int = 12, file_kib: int = 16384,
                       readers: int = 6,
                       seed: int = 1) -> "SweepSpec":
    """The ROADMAP's platform-parameter grid: OST counts × page-cache sizes
    × device bandwidths.  Default 36 points; widen any axis for the
    100+-job fleet demonstrations (``benchmarks/test_platform_grid.py``).

    ``seed_mode="shared"`` keeps the corpus identical across grid points,
    so every delta is attributable to the platform parameter — the same
    fixed-workload protocol the paper's differential measurements use.
    """
    from repro.campaign import SweepSpec

    return SweepSpec(
        name="platform-grid",
        case="platform",
        base={"files": files, "file_kib": file_kib, "readers": readers},
        grid={"n_osts": [int(n) for n in osts],
              "page_cache_gib": [float(g) for g in page_cache_gib],
              "bandwidth_scale": [float(s) for s in bandwidth_scales]},
        seed=seed,
        seed_mode="shared",
    )
