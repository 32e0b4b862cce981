"""The STREAM-like ingestion benchmark used for tool validation.

Section IV-B of the paper validates tf-Darshan with "a STREAM application
that performs no computation and preprocessing other than reading files and
forming batches", run over the ImageNet and malware datasets with batch size
128, 16 I/O threads and a prefetch of 10 batches, while profiling is stopped
and restarted every five steps to derive a bandwidth series that is compared
against dstat (Fig. 3 and Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional, Sequence

from repro.tfmini import Dataset, OutOfRangeError, io_ops
from repro.tools.dstat import DstatMonitor, DstatSeries
from repro.core.session import TfDarshanSession


def stream_map_fn(runtime, path: str):
    """The STREAM capture function: read the file, nothing else."""
    data = yield from io_ops.read_file(runtime, path)
    return data


@dataclass
class StreamResult:
    """Outcome of one STREAM run."""

    steps: int
    batch_size: int
    elapsed: float
    total_bytes: int
    #: (window end time, bandwidth) pairs reported by tf-Darshan.
    tfdarshan_series: List[tuple]
    #: Per-second rates observed by dstat in the background.
    dstat: Optional[DstatSeries]
    windows: List = field(default_factory=list)

    @property
    def mean_tfdarshan_bandwidth(self) -> float:
        if not self.tfdarshan_series:
            return 0.0
        return sum(bw for _, bw in self.tfdarshan_series) / len(self.tfdarshan_series)

    @property
    def overall_bandwidth(self) -> float:
        return self.total_bytes / self.elapsed if self.elapsed > 0 else 0.0


class StreamBenchmark:
    """Reads a dataset through tf.data without any compute."""

    def __init__(
        self,
        runtime,
        paths: Sequence[str],
        batch_size: int = 128,
        num_parallel_calls: int = 16,
        prefetch: int = 10,
        profile_every_steps: Optional[int] = 5,
        profiler: str = "tfdarshan",
    ):
        if profiler not in ("tfdarshan", "tf", "none"):
            raise ValueError("profiler must be 'tfdarshan', 'tf' or 'none'")
        self.runtime = runtime
        self.paths = list(paths)
        self.batch_size = batch_size
        self.num_parallel_calls = num_parallel_calls
        self.prefetch = prefetch
        self.profile_every_steps = profile_every_steps
        self.profiler = profiler
        self.dstat = DstatMonitor(runtime.env, runtime.os.devices())
        self.session: Optional[TfDarshanSession] = None

    def build_dataset(self, steps: int) -> Dataset:
        """The STREAM pipeline: list of paths -> map(read) -> batch -> prefetch."""
        needed = steps * self.batch_size
        return (Dataset.from_list(self.paths[:needed])
                .map(stream_map_fn, num_parallel_calls=self.num_parallel_calls)
                .batch(self.batch_size)
                .prefetch(self.prefetch))

    def run(self, steps: int) -> Generator:
        """Run ``steps`` batches; returns a :class:`StreamResult`."""
        env = self.runtime.env
        if self.profiler == "tfdarshan":
            self.session = TfDarshanSession(self.runtime)
        dataset = self.build_dataset(steps)
        iterator = dataset.make_iterator(self.runtime)
        self.dstat.start()
        start = env.now
        total_bytes = 0
        profiling = False
        completed = 0
        for step in range(steps):
            if (self.profiler != "none" and self.profile_every_steps
                    and step % self.profile_every_steps == 0):
                if profiling:
                    yield from self._stop_window()
                yield from self._start_window()
                profiling = True
            try:
                batch = yield from iterator.get_next()
            except OutOfRangeError:
                break
            total_bytes += batch.nbytes
            completed += 1
        if profiling:
            yield from self._stop_window()
        iterator.cancel()
        self.dstat.stop()
        elapsed = env.now - start
        series = self.session.bandwidth_series() if self.session else []
        return StreamResult(
            steps=completed,
            batch_size=self.batch_size,
            elapsed=elapsed,
            total_bytes=total_bytes,
            tfdarshan_series=series,
            dstat=self.dstat.series(),
            windows=list(self.session.windows) if self.session else [],
        )

    # -- profiling windows ----------------------------------------------------
    def _start_window(self) -> Generator:
        from repro.tfmini.profiler.session import profiler_start

        if self.session is not None:
            yield from self.session.start()
        else:
            yield from profiler_start(self.runtime)

    def _stop_window(self) -> Generator:
        from repro.tfmini.profiler.session import profiler_stop

        if self.session is not None:
            yield from self.session.stop()
        else:
            yield from profiler_stop(self.runtime)
