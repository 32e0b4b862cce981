"""Synthetic dataset generators matching the paper's corpora (Table II).

The two corpora cannot be redistributed, so the generators reproduce the
*statistics* the paper's analyses depend on:

* **ImageNet** (Kebnekaise case): ~128 000 JPEG files, ~11.6 GB total,
  median size ~88 KB — a large number of small files.
* **Kaggle BIG-2015 malware** (Greendog case): 10 868 bytecode files,
  ~48 GB total, median ~4 MB, with roughly 40 % of the files below 2 MB
  accounting for only ~8 % of the bytes (the property the staging
  optimization exploits, Section V-B).

A ``scale`` parameter shrinks the file count (keeping the size distribution)
so the benchmark harnesses can run in seconds; EXPERIMENTS.md records which
scale each reported number was produced at.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.sim.rng import make_rng

KIB = 1 << 10
MIB = 1 << 20
GIB = 1 << 30


@dataclass
class SyntheticDataset:
    """A generated corpus registered in the simulated VFS."""

    name: str
    root: str
    paths: List[str]
    sizes: List[int]
    scale: float = 1.0

    @property
    def file_count(self) -> int:
        return len(self.paths)

    @property
    def total_bytes(self) -> int:
        return int(sum(self.sizes))

    @property
    def median_bytes(self) -> float:
        return float(np.median(self.sizes)) if self.sizes else 0.0

    def files_below(self, threshold: int) -> List[str]:
        return [p for p, s in zip(self.paths, self.sizes) if s < threshold]

    def bytes_below(self, threshold: int) -> int:
        return int(sum(s for s in self.sizes if s < threshold))

    def summary_row(self) -> List[str]:
        """The Table II style row for this dataset."""
        return [
            self.name,
            str(self.file_count),
            f"{self.total_bytes / GIB:.1f} GB",
            f"{self.median_bytes / KIB:.0f} KB" if self.median_bytes < MIB
            else f"{self.median_bytes / MIB:.1f} MB",
        ]


def _register(vfs, root: str, prefix: str, sizes: np.ndarray, extension: str
              ) -> SyntheticDataset:
    paths = []
    int_sizes = [int(max(1, s)) for s in sizes]
    for i, size in enumerate(int_sizes):
        subdir = f"{root}/{prefix}{i // 1000:04d}"
        path = f"{subdir}/{prefix}{i:07d}{extension}"
        vfs.create_file(path, size=size)
        paths.append(path)
    return SyntheticDataset(name=prefix.rstrip("_"), root=root, paths=paths,
                            sizes=int_sizes)


def build_imagenet_dataset(vfs, root: str = "/data/imagenet",
                           scale: float = 1.0,
                           seed: Optional[int] = None) -> SyntheticDataset:
    """Generate the ImageNet-like corpus (many small JPEG files)."""
    if not 0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    n_files = max(1, int(round(128_000 * scale)))
    target_total = 11.6e9 * scale
    rng = make_rng(seed, "imagenet-sizes")
    median = 88 * KIB
    sigma = 0.40
    sizes = rng.lognormal(mean=np.log(median), sigma=sigma, size=n_files)
    sizes = np.clip(sizes, 4 * KIB, 1 * MIB)
    # Rescale so the total matches the corpus size at this scale.
    sizes *= target_total / sizes.sum()
    dataset = _register(vfs, root, "imagenet_", sizes, ".jpg")
    dataset.name = "imagenet"
    dataset.scale = scale
    return dataset


def build_malware_dataset(vfs, root: str = "/data/malware",
                          scale: float = 1.0,
                          seed: Optional[int] = None) -> SyntheticDataset:
    """Generate the malware-bytecode-like corpus (fewer, larger files)."""
    if not 0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    n_small = max(1, int(round(4_420 * scale)))
    n_large = max(1, int(round(6_448 * scale)))
    rng = make_rng(seed, "malware-sizes")

    # Small component: below 2 MB, ~3.7 GB in total at full scale.
    small = rng.lognormal(mean=np.log(0.75 * MIB), sigma=0.5, size=n_small)
    small = np.clip(small, 16 * KIB, 1.98 * MIB)
    small *= (3.7e9 * scale) / small.sum()
    small = np.clip(small, 16 * KIB, 1.99 * MIB)

    # Large component: 2 MB and above, ~44.3 GB in total at full scale.
    large = rng.lognormal(mean=np.log(6.3 * MIB), sigma=0.45, size=n_large)
    large = np.clip(large, 2.0 * MIB, 64 * MIB)
    large *= (44.3e9 * scale) / large.sum()
    large = np.clip(large, 2.0 * MIB, 80 * MIB)

    sizes = np.concatenate([small, large])
    rng.shuffle(sizes)
    dataset = _register(vfs, root, "malware_", sizes, ".bytes")
    dataset.name = "malware"
    dataset.scale = scale
    return dataset


def table2_rows(datasets: List[SyntheticDataset]) -> List[List[str]]:
    """Rows of the Table II reproduction (dataset characteristics)."""
    return [d.summary_row() for d in datasets]
