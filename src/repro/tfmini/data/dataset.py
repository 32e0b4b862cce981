"""A ``tf.data``-like input pipeline executing on the simulation kernel.

The pipeline is the one shape the paper profiles: ``list -> map(capture fn,
num_parallel_calls) -> batch -> prefetch``.  ``Dataset.map`` runs the user's
capture function (read + decode + preprocess) on a :class:`WorkerPool` of
``num_parallel_calls`` simulated threads, ``batch`` groups samples, and
``prefetch`` keeps a bounded buffer of ready batches so input production
overlaps GPU compute.

A :class:`Dataset` is an ordered tuple of stage constructors, source first.
``make_iterator`` builds them in that order, each on top of the one before:
a stage is a set of simulated processes that reads its upstream's bounded
:class:`~repro.sim.Store` and writes its own, so backpressure and element
order behave like the real runtime.  Shuffle, take and repeat are absent
because no pipeline of the paper uses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Iterable, List, Optional, Sequence, Tuple

from repro.sim import Environment, Interrupt, Store, WorkerPool
from repro.tfmini.io_ops import assemble_batch

#: Ask the runtime to choose the parallelism (resolved to the CPU core count).
AUTOTUNE = -1

#: End-of-data sentinel flowing through the stage stores.
_EOD = object()


class OutOfRangeError(Exception):
    """Raised by ``get_next`` once the dataset is exhausted."""


@dataclass
class Batch:
    """A batch of pipeline elements and their total size in bytes."""

    elements: List[object]
    nbytes: int

    @property
    def size(self) -> int:
        return len(self.elements)


# ---------------------------------------------------------------------------
# Stages: each one is built on the stage before it, source first
# ---------------------------------------------------------------------------

class _Stage:
    """Base class of instantiated pipeline stages."""

    def __init__(self, runtime, upstream: Optional["_Stage"], capacity: int = 1):
        self.runtime = runtime
        self.env: Environment = runtime.env
        self.output = Store(self.env, capacity=capacity)
        self.processes: List = []
        self.upstream = upstream

    def _spawn(self, generator) -> None:
        self.processes.append(self.env.process(generator))

    def cancel(self) -> None:
        """Stop this stage and everything upstream of it."""
        for proc in self.processes:
            if proc.is_alive:
                proc.interrupt("iterator-cancelled")
        if self.upstream is not None:
            self.upstream.cancel()


class _SourceStage(_Stage):
    def __init__(self, runtime, upstream, items: Sequence):
        super().__init__(runtime, upstream)
        self.items = items
        self._spawn(self._pump())

    def _pump(self):
        try:
            for item in self.items:
                yield self.output.put(item)
            yield self.output.put(_EOD)
        except Interrupt:
            return


class _MapStage(_Stage):
    #: Per-element scheduling overhead of the executor (seconds).
    INTER_OP_OVERHEAD = 120e-6

    def __init__(self, runtime, upstream: _Stage, fn,
                 num_parallel_calls: Optional[int]):
        super().__init__(runtime, upstream)
        self.fn = fn
        if num_parallel_calls in (None, 0):
            parallel = 1
        elif num_parallel_calls == AUTOTUNE:
            parallel = runtime.cpu_cores
        else:
            parallel = int(num_parallel_calls)
        self.pool = WorkerPool(self.env, parallel, name="tf_data_map")
        self._pending = Store(self.env, capacity=parallel)
        self._spawn(self._producer())
        self._spawn(self._emitter())

    def cancel(self) -> None:
        self.pool.interrupt_workers()
        super().cancel()

    def _producer(self):
        try:
            while True:
                item = yield self.upstream.output.get()
                if item is _EOD:
                    break
                yield self.env.timeout(self.INTER_OP_OVERHEAD)
                done = self.pool.submit(
                    lambda item=item: self.fn(self.runtime, item))
                yield self._pending.put(done)
            yield self._pending.put(_EOD)
        except Interrupt:
            return

    def _emitter(self):
        """Emit results in submission order, whichever worker ends first."""
        try:
            while True:
                done = yield self._pending.get()
                if done is _EOD:
                    break
                result = yield done
                yield self.output.put(result)
            yield self.output.put(_EOD)
            self.pool.close()
        except Interrupt:
            return


class _BatchStage(_Stage):
    def __init__(self, runtime, upstream: _Stage, batch_size: int,
                 drop_remainder: bool):
        super().__init__(runtime, upstream)
        self.batch_size = batch_size
        self.drop_remainder = drop_remainder
        self._spawn(self._pump())

    def _pump(self):
        try:
            buffer: List[object] = []
            while True:
                item = yield self.upstream.output.get()
                if item is _EOD:
                    if buffer and not self.drop_remainder:
                        nbytes = yield from assemble_batch(self.runtime, buffer)
                        yield self.output.put(Batch(list(buffer), nbytes))
                    break
                buffer.append(item)
                if len(buffer) == self.batch_size:
                    nbytes = yield from assemble_batch(self.runtime, buffer)
                    yield self.output.put(Batch(list(buffer), nbytes))
                    buffer = []
            yield self.output.put(_EOD)
        except Interrupt:
            return


class _PrefetchStage(_Stage):
    def __init__(self, runtime, upstream: _Stage, buffer_size: int):
        if buffer_size == AUTOTUNE:
            buffer_size = 8
        super().__init__(runtime, upstream, capacity=max(1, buffer_size))
        self._spawn(self._pump())

    def _pump(self):
        try:
            while True:
                item = yield self.upstream.output.get()
                yield self.output.put(item)
                if item is _EOD:
                    break
        except Interrupt:
            return


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

class Dataset:
    """A declarative input pipeline (built once, instantiated per iterator).

    It is the ordered tuple of its stages, source first, each entry a stage
    class and the arguments it is built with.
    """

    def __init__(self, stages: Tuple[Tuple[type, tuple], ...]):
        self._stages = stages

    def _then(self, stage: type, *args) -> "Dataset":
        return Dataset(self._stages + ((stage, args),))

    @classmethod
    def from_list(cls, items: Iterable) -> "Dataset":
        """Dataset over an in-memory list (e.g. file paths or labels)."""
        return cls(((_SourceStage, (list(items),)),))

    def map(self, fn: Callable, num_parallel_calls: Optional[int] = None
            ) -> "Dataset":
        """Apply ``fn(runtime, element)`` (a simulation generator) per element."""
        return self._then(_MapStage, fn, num_parallel_calls)

    def batch(self, batch_size: int, drop_remainder: bool = True) -> "Dataset":
        """Group consecutive elements into batches."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        return self._then(_BatchStage, int(batch_size), drop_remainder)

    def prefetch(self, buffer_size: int) -> "Dataset":
        """Decouple the consumer with a bounded ready-elements buffer."""
        return self._then(_PrefetchStage, int(buffer_size))

    def make_iterator(self, runtime) -> "DatasetIterator":
        """Instantiate the pipeline stages and return an iterator.

        Stages are built source first: the order in which their processes
        are created fixes the kernel's event order.
        """
        stage = None
        for stage_class, args in self._stages:
            stage = stage_class(runtime, stage, *args)
        return DatasetIterator(runtime, stage)


class DatasetIterator:
    """Pulls elements out of an instantiated pipeline."""

    #: Host-side cost of one GetNext call (op dispatch, session overhead).
    GET_NEXT_OVERHEAD = 150e-6

    def __init__(self, runtime, stage: _Stage):
        self.runtime = runtime
        self.env = runtime.env
        self._stage = stage
        self._exhausted = False

    def get_next(self) -> Generator:
        """Wait for the next element; raises :class:`OutOfRangeError` at EOD."""
        if self._exhausted:
            raise OutOfRangeError("iterator exhausted")
        start = self.env.now
        item = yield self._stage.output.get()
        yield self.env.timeout(self.GET_NEXT_OVERHEAD)
        if item is _EOD:
            self._exhausted = True
            raise OutOfRangeError("end of dataset")
        self.runtime.traceme.record("IteratorGetNext", start, self.env.now,
                                    thread="host")
        return item

    def cancel(self) -> None:
        """Tear down the pipeline's background processes."""
        self._stage.cancel()
        self._exhausted = True
