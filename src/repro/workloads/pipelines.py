"""Input pipelines of the two case studies (the paper's capture functions)."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.tfmini import Dataset, io_ops


def imagenet_map_fn(runtime, path: str):
    """ImageNet capture function: read, decode JPEG, resize to 227x227."""
    data = yield from io_ops.read_file(runtime, path)
    image = yield from io_ops.decode_jpeg(runtime, data)
    image = yield from io_ops.resize_image(runtime, image, (227, 227))
    return image


def malware_map_fn(runtime, path: str):
    """Malware capture function: read bytecode and decode it as an image."""
    data = yield from io_ops.read_file(runtime, path)
    image = yield from io_ops.decode_raw(runtime, data)
    image = yield from io_ops.cast(runtime, image)
    return image


def build_training_pipeline(paths: Sequence[str], map_fn, batch_size: int,
                            num_parallel_calls: Optional[int] = 1,
                            prefetch: int = 10) -> Dataset:
    """The tf.data pipeline shape used throughout the paper.

    ``list -> map(capture_fn, num_parallel_calls) -> batch -> prefetch``.
    """
    dataset = Dataset.from_list(list(paths))
    dataset = dataset.map(map_fn, num_parallel_calls=num_parallel_calls)
    dataset = dataset.batch(batch_size)
    if prefetch:
        dataset = dataset.prefetch(prefetch)
    return dataset


def build_imagenet_pipeline(paths: Sequence[str], batch_size: int = 256,
                            num_parallel_calls: Optional[int] = 1,
                            prefetch: int = 10) -> Dataset:
    """The ImageNet classification input pipeline (Section V-A)."""
    return build_training_pipeline(paths, imagenet_map_fn, batch_size,
                                   num_parallel_calls, prefetch)


def build_malware_pipeline(paths: Sequence[str], batch_size: int = 32,
                           num_parallel_calls: Optional[int] = 1,
                           prefetch: int = 10) -> Dataset:
    """The malware detection input pipeline (Section V-B)."""
    return build_training_pipeline(paths, malware_map_fn, batch_size,
                                   num_parallel_calls, prefetch)
