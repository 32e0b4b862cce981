"""Tests for the tf.data-like pipeline."""

import pytest

from repro.tfmini import AUTOTUNE, Dataset, OutOfRangeError
from repro.tfmini import io_ops
from tests.tfmini.conftest import make_files, run


def load(runtime, path):
    """A minimal capture function: read the file."""
    data = yield from io_ops.read_file(runtime, path)
    return data


def drain(runtime, dataset, max_batches=10**9):
    """Pull every batch out of a dataset; returns the list of batches."""
    def proc():
        iterator = dataset.make_iterator(runtime)
        batches = []
        while len(batches) < max_batches:
            try:
                batch = yield from iterator.get_next()
            except OutOfRangeError:
                break
            batches.append(batch)
        iterator.cancel()
        return batches
    return run(runtime.env, proc())


def test_from_list_map_batch_roundtrip(runtime, os_image):
    paths = make_files(os_image, 8, 10_000)
    dataset = Dataset.from_list(paths).map(load).batch(4)
    batches = drain(runtime, dataset)
    assert len(batches) == 2
    assert all(batch.size == 4 for batch in batches)
    assert batches[0].nbytes == 40_000


def test_batch_drop_remainder(runtime, os_image):
    paths = make_files(os_image, 10, 100)
    kept = drain(runtime, Dataset.from_list(paths).map(load).batch(4))
    assert [b.size for b in kept] == [4, 4]
    all_batches = drain(runtime, Dataset.from_list(paths).map(load)
                        .batch(4, drop_remainder=False))
    assert [b.size for b in all_batches] == [4, 4, 2]


def test_out_of_range_after_exhaustion(runtime, os_image):
    paths = make_files(os_image, 2, 100)
    dataset = Dataset.from_list(paths).map(load).batch(1)

    def proc():
        iterator = dataset.make_iterator(runtime)
        yield from iterator.get_next()
        yield from iterator.get_next()
        try:
            yield from iterator.get_next()
        except OutOfRangeError:
            return "done"

    assert run(runtime.env, proc()) == "done"


def test_invalid_arguments_rejected(runtime):
    dataset = Dataset.from_list([1, 2, 3])
    with pytest.raises(ValueError):
        dataset.batch(0)


def test_parallel_map_is_faster_than_sequential(runtime, os_image):
    """num_parallel_calls must overlap per-element work."""
    paths = make_files(os_image, 16, 100)

    def slow_fn(rt, path):
        yield rt.env.timeout(0.05)
        return path

    env = runtime.env
    t0 = env.now
    drain(runtime, Dataset.from_list(paths).map(slow_fn, num_parallel_calls=1)
          .batch(16))
    sequential = env.now - t0
    t1 = env.now
    drain(runtime, Dataset.from_list(paths).map(slow_fn, num_parallel_calls=8)
          .batch(16))
    parallel = env.now - t1
    assert parallel < sequential / 3


def test_autotune_resolves_to_core_count(runtime, os_image):
    paths = make_files(os_image, 8, 100)

    def slow_fn(rt, path):
        yield rt.env.timeout(0.05)
        return path

    env = runtime.env
    t0 = env.now
    drain(runtime, Dataset.from_list(paths).map(slow_fn,
                                                num_parallel_calls=AUTOTUNE)
          .batch(8))
    elapsed = env.now - t0
    # 8 elements of 50 ms on 4 cores -> about 2 rounds, well below 8 x 50 ms.
    assert elapsed < 0.2


def test_prefetch_lets_the_producer_run_ahead(runtime, os_image):
    """prefetch(n) buffers up to n ready batches while the consumer is busy."""
    paths = make_files(os_image, 40, 1000)

    def consume_three(dataset):
        iterator = dataset.make_iterator(runtime)
        for _ in range(3):
            yield from iterator.get_next()
            yield runtime.env.timeout(0.05)  # slow consumer
        opened = os_image.posix.call_counts["open"]
        iterator.cancel()
        return opened

    env = runtime.env
    base = Dataset.from_list(paths).map(load).batch(1)
    opened_without = run(env, consume_three(base))
    baseline = os_image.posix.call_counts["open"]
    opened_with = run(env, consume_three(base.prefetch(10))) - baseline
    # Without prefetch only a couple of elements are in flight; with a
    # 10-batch prefetch buffer the producer runs well ahead of the consumer.
    assert opened_without <= 10
    assert opened_with >= opened_without + 6


def test_pipeline_reads_go_through_symbol_table(runtime, os_image):
    """The map function's I/O must be visible to the dispatch layer."""
    paths = make_files(os_image, 4, 50_000)
    drain(runtime, Dataset.from_list(paths).map(load).batch(2))
    assert os_image.posix.call_counts["open"] == 4
    # one data pread + one zero-length pread per file
    assert os_image.posix.call_counts["pread"] == 8
    assert os_image.posix.call_counts["close"] == 4


def test_iterator_cancel_stops_background_production(runtime, os_image):
    paths = make_files(os_image, 100, 10_000)
    dataset = Dataset.from_list(paths).map(load).batch(1).prefetch(2)

    def proc():
        iterator = dataset.make_iterator(runtime)
        yield from iterator.get_next()
        iterator.cancel()
        return os_image.posix.call_counts["open"]

    opened_at_cancel = run(runtime.env, proc())
    # Let the simulation drain whatever is left.
    runtime.env.run()
    # Production must stop shortly after cancel, far before all 100 files.
    assert os_image.posix.call_counts["open"] <= opened_at_cancel + 10
