"""Keras-like callbacks, including the TensorBoard profiling callback.

The TensorBoard callback's ``profile_batch`` argument is the "automatic"
way of driving the profiler in the paper (Section III-A): profiling starts
at the first batch of the range and stops at the last, after which the
runtime collects data from every registered tracer — including tf-Darshan's.
"""

from __future__ import annotations

from typing import Generator, List, Optional, Sequence, Tuple, Union

from repro.tfmini.profiler.session import profiler_start, profiler_stop


class Callback:
    """Base class.  Hooks may be plain methods or simulation generators."""

    def __init__(self):
        self.model = None
        self.runtime = None

    def set_context(self, model, runtime) -> None:
        self.model = model
        self.runtime = runtime

    # Hooks (default: do nothing).  Subclasses may return a generator.
    def on_train_begin(self, logs: Optional[dict] = None):  # noqa: D102
        return None

    def on_train_end(self, logs: Optional[dict] = None):  # noqa: D102
        return None

    def on_epoch_begin(self, epoch: int, logs: Optional[dict] = None):  # noqa: D102
        return None

    def on_epoch_end(self, epoch: int, logs: Optional[dict] = None):  # noqa: D102
        return None

    def on_train_batch_begin(self, step: int, logs: Optional[dict] = None):  # noqa: D102
        return None

    def on_train_batch_end(self, step: int, logs: Optional[dict] = None):  # noqa: D102
        return None


class CallbackList:
    """Dispatches hooks to every callback, yielding from generator hooks."""

    def __init__(self, callbacks: Sequence[Callback], model, runtime):
        self.callbacks: List[Callback] = list(callbacks)
        self.model = model
        self.runtime = runtime
        for callback in self.callbacks:
            callback.set_context(model, runtime)

    def append(self, callback: Callback) -> None:
        callback.set_context(self.model, self.runtime)
        self.callbacks.append(callback)

    def _dispatch(self, hook_name: str, *args) -> Generator:
        for callback in self.callbacks:
            result = getattr(callback, hook_name)(*args)
            if result is not None and hasattr(result, "__next__"):
                yield from result

    def on_train_begin(self):
        return self._dispatch("on_train_begin", None)

    def on_train_end(self):
        return self._dispatch("on_train_end", None)

    def on_epoch_begin(self, epoch):
        return self._dispatch("on_epoch_begin", epoch, None)

    def on_epoch_end(self, epoch, logs=None):
        return self._dispatch("on_epoch_end", epoch, logs)

    def on_train_batch_begin(self, step):
        return self._dispatch("on_train_batch_begin", step, None)

    def on_train_batch_end(self, step, logs=None):
        return self._dispatch("on_train_batch_end", step, logs)


class History(Callback):
    """Records per-epoch and per-batch logs (returned by ``fit``)."""

    def __init__(self):
        super().__init__()
        self.epochs: List[dict] = []
        self.batches: List[dict] = []

    def on_train_batch_end(self, step, logs=None):
        if logs:
            self.batches.append(dict(logs))
        return None

    def on_epoch_end(self, epoch, logs=None):
        if logs:
            self.epochs.append(dict(logs))
        return None


class ModelCheckpoint(Callback):
    """Write a checkpoint every ``save_freq`` steps (or every epoch)."""

    def __init__(self, filepath: str, save_freq: Union[int, str] = "epoch"):
        super().__init__()
        self.filepath = filepath
        self.save_freq = save_freq
        self.saves: List = []
        self._writer = None

    def _ensure_writer(self):
        from repro.tfmini.keras.checkpoint import CheckpointWriter
        if self._writer is None:
            self._writer = CheckpointWriter(self.runtime)
        return self._writer

    def _save(self, token: int) -> Generator:
        writer = self._ensure_writer()
        path = self.filepath.format(epoch=token, step=token)
        info = yield from writer.save(self.model, path)
        self.saves.append(info)

    def on_train_batch_end(self, step, logs=None):
        if isinstance(self.save_freq, int) and (step + 1) % self.save_freq == 0:
            return self._save(step + 1)
        return None

    def on_epoch_end(self, epoch, logs=None):
        if self.save_freq == "epoch":
            return self._save(epoch + 1)
        return None


class TensorBoard(Callback):
    """TensorBoard callback with ``profile_batch`` profiling support.

    ``profile_batch`` uses Keras' 1-based batch numbering and may be a single
    batch or an inclusive ``(start, stop)`` range — exactly one range per
    training run, as the paper notes.
    """

    def __init__(self, log_dir: str, profile_batch: Union[int, Tuple[int, int]] = 2):
        super().__init__()
        self.log_dir = log_dir
        if isinstance(profile_batch, int):
            self.profile_range = (profile_batch, profile_batch)
        else:
            self.profile_range = (int(profile_batch[0]), int(profile_batch[1]))
        if self.profile_range[0] > self.profile_range[1]:
            raise ValueError("profile_batch range must be increasing")
        self.profile_result = None
        self._profiling = False

    def on_train_batch_begin(self, step, logs=None):
        start_batch = self.profile_range[0]
        if start_batch > 0 and (step + 1) == start_batch and not self._profiling:
            return self._start_profiler()
        return None

    def on_train_batch_end(self, step, logs=None):
        stop_batch = self.profile_range[1]
        if self._profiling and (step + 1) >= stop_batch:
            return self._stop_profiler()
        return None

    def on_train_end(self, logs=None):
        if self._profiling:
            return self._stop_profiler()
        return None

    def _start_profiler(self) -> Generator:
        yield from profiler_start(self.runtime, logdir=self.log_dir)
        self._profiling = True

    def _stop_profiler(self) -> Generator:
        self._profiling = False
        self.profile_result = yield from profiler_stop(self.runtime)
