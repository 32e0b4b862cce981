"""Multi-tier storage: mount table and staging support.

Greendog in the paper has three tiers (two HDDs, a SATA SSD and an Intel
Optane 900p); the malware case study's optimization consists of *staging*
all files smaller than 2 MB from the HDD onto the Optane device
(Fig. 11b).  The :class:`MountTable` maps path prefixes to filesystem
backends; per-file placement overrides let the staging manager migrate a
file to a faster tier without changing its path, which is behaviourally
equivalent to the paper's manual copy plus dataset re-pointing and keeps the
workloads oblivious to the optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Iterable, List, Tuple

from repro.storage.backend import StorageBackend
from repro.storage.device import StorageDevice


def _normalize(path: str) -> str:
    if not path.startswith("/"):
        raise ValueError(f"paths must be absolute, got {path!r}")
    while "//" in path:
        path = path.replace("//", "/")
    if len(path) > 1 and path.endswith("/"):
        path = path.rstrip("/")
    return path or "/"


@dataclass
class Mount:
    """One mount point: a path prefix served by a backend."""

    mount_point: str
    backend: StorageBackend

    def covers(self, path: str) -> bool:
        if self.mount_point == "/":
            return True
        return path == self.mount_point or path.startswith(self.mount_point + "/")


class MountTable:
    """Longest-prefix-match mapping from paths to storage backends."""

    def __init__(self):
        self._mounts: List[Mount] = []
        self._placement_overrides: Dict[str, StorageBackend] = {}

    def mount(self, mount_point: str, backend: StorageBackend) -> None:
        """Mount ``backend`` at ``mount_point``."""
        mount_point = _normalize(mount_point)
        if any(m.mount_point == mount_point for m in self._mounts):
            raise ValueError(f"{mount_point!r} is already mounted")
        self._mounts.append(Mount(mount_point, backend))
        # Longest prefix first so resolve() can take the first match.
        self._mounts.sort(key=lambda m: len(m.mount_point), reverse=True)

    def backends(self) -> List[StorageBackend]:
        """All distinct mounted backends."""
        seen: List[StorageBackend] = []
        for mount in self._mounts:
            if mount.backend not in seen:
                seen.append(mount.backend)
        for backend in self._placement_overrides.values():
            if backend not in seen:
                seen.append(backend)
        return seen

    def devices(self) -> List[StorageDevice]:
        """All distinct devices below all backends (for dstat)."""
        seen: List[StorageDevice] = []
        for backend in self.backends():
            for device in backend.devices:
                if device not in seen:
                    seen.append(device)
        return seen

    # -- resolution -----------------------------------------------------------
    def resolve(self, path: str) -> StorageBackend:
        """Backend responsible for ``path`` (override beats mount prefix)."""
        path = _normalize(path)
        override = self._placement_overrides.get(path)
        if override is not None:
            return override
        for mount in self._mounts:
            if mount.covers(path):
                return mount.backend
        raise FileNotFoundError(f"no filesystem mounted for {path!r}")

    # -- staging ---------------------------------------------------------------
    def set_placement(self, path: str, backend: StorageBackend) -> None:
        """Pin ``path`` to ``backend`` regardless of its mount prefix."""
        self._placement_overrides[_normalize(path)] = backend

    def clear_placement(self, path: str) -> None:
        """Remove a per-file placement override."""
        self._placement_overrides.pop(_normalize(path), None)


@dataclass
class StagingResult:
    """Outcome of staging a set of files to a faster tier."""

    staged_paths: List[str]
    staged_bytes: int
    elapsed: float

    @property
    def file_count(self) -> int:
        return len(self.staged_paths)


class StagingManager:
    """Copies file data to a faster tier and re-points its placement.

    The copy itself is simulated (read from the source backend, write to the
    target), so staging has a realistic one-off cost that benches can report
    alongside the training-time benefit, and dstat sees the corresponding
    disk activity.
    """

    def __init__(self, mount_table: MountTable):
        self.mount_table = mount_table

    def stage(self, env, files: Iterable[Tuple[str, object, int]],
              target: StorageBackend, copy_chunk: int = 4 << 20) -> Generator:
        """Stage ``(path, file_key, size)`` triples onto ``target``.

        Returns a :class:`StagingResult`; run it with ``env.process``.
        """
        start = env.now
        staged_paths: List[str] = []
        staged_bytes = 0
        for path, file_key, size in files:
            source = self.mount_table.resolve(path)
            if source is target:
                continue
            yield from source.open(file_key)
            offset = 0
            while offset < size:
                chunk = min(copy_chunk, size - offset)
                yield from source.read(file_key, offset, chunk)
                yield from target.write(file_key, offset, chunk)
                offset += chunk
            yield from source.close(file_key)
            self.mount_table.set_placement(path, target)
            staged_paths.append(path)
            staged_bytes += size
        return StagingResult(
            staged_paths=staged_paths,
            staged_bytes=staged_bytes,
            elapsed=env.now - start,
        )
