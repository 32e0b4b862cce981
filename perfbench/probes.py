"""Outside counters for the traced run.

:class:`Probes` installs thin wrappers on public classes of the simulation
for the length of one run and reads the counters off the objects it saw
being built, once the run is over.  Nothing in ``src/`` is edited; on exit
every wrapper is removed again, so untraced runs execute the original
code.

* ``Environment``: events scheduled (its event id counter) and simulated
  seconds reached.
* ``DeviceMetrics``: transfer intervals and bytes read and written;
  ``PageCache``: hits and misses.
* ``DarshanCore``: POSIX/STDIO records and DXT segments held at the end.
* ``PosixLayer``: every syscall entry point, counted per call.
* ``DarshanMiddleman``: snapshots taken, records copied into snapshots,
  and records a diff found changed.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List

from repro.core import wrapper as core_wrapper
from repro.darshan.runtime import DarshanCore
from repro.posix.syscalls import PosixLayer
from repro.sim import Environment
from repro.storage.metrics import DeviceMetrics
from repro.storage.pagecache import PageCache

_SYSCALLS = ("open", "close", "read", "pread", "write", "pwrite", "lseek",
             "stat", "fstat", "access", "unlink", "mkdir", "fsync")


class Probes:
    """Context manager: ``with Probes() as probes: run(); probes.counters()``."""

    def __init__(self) -> None:
        self.instances: Dict[type, List[Any]] = {
            cls: [] for cls in (Environment, DeviceMetrics, PageCache,
                                DarshanCore)}
        self.posix_calls = 0
        self.snapshots = 0
        self.records_copied = 0
        self.records_changed = 0
        self._undo: List[tuple] = []

    def _patch(self, owner: Any, name: str,
               make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, name)
        setattr(owner, name, functools.wraps(original)(make(original)))
        self._undo.append((owner, name, original))

    def __enter__(self) -> "Probes":
        for cls, sink in self.instances.items():
            def collecting(init, sink=sink):
                def __init__(obj, *args, **kwargs):
                    init(obj, *args, **kwargs)
                    sink.append(obj)
                return __init__
            self._patch(cls, "__init__", collecting)

        def counting_syscall(call):
            def syscall(*args, **kwargs):
                self.posix_calls += 1
                return call(*args, **kwargs)
            return syscall
        for name in _SYSCALLS:
            self._patch(PosixLayer, name, counting_syscall)

        def counting_snapshot(take):
            def take_snapshot(middleman):
                self.snapshots += 1
                return take(middleman)
            return take_snapshot
        self._patch(core_wrapper.DarshanMiddleman, "take_snapshot",
                    counting_snapshot)

        def counting_copies(copy):
            def get_module_records(core, module_name):
                records = copy(core, module_name)
                self.records_copied += len(records)
                return records
            return get_module_records
        self._patch(core_wrapper, "get_module_records", counting_copies)

        def counting_changes(diff):
            def diff_snapshots(middleman, start, end):
                delta = diff(middleman, start, end)
                self.records_changed += len(delta.posix) + len(delta.stdio)
                return delta
            return diff_snapshots
        self._patch(core_wrapper.DarshanMiddleman, "diff", counting_changes)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def counters(self) -> Dict[str, float]:
        envs = self.instances[Environment]
        devices = self.instances[DeviceMetrics]
        caches = self.instances[PageCache]
        modules = [module for core in self.instances[DarshanCore]
                   for module in core.modules.values()]
        hits = sum(cache.hits for cache in caches)
        lookups = hits + sum(cache.misses for cache in caches)
        return {
            "sim.events": sum(env._eid for env in envs),
            "sim_seconds": sum(env.now for env in envs),
            "storage.metrics.intervals": sum(len(m.intervals)
                                             for m in devices),
            "storage.bytes_read": sum(m.bytes_read for m in devices),
            "storage.bytes_written": sum(m.bytes_written for m in devices),
            "storage.pagecache_hit_ratio": hits / lookups if lookups else 0.0,
            "posix.calls": self.posix_calls,
            "darshan.records": sum(len(getattr(module, "records", ()))
                                   for module in modules),
            "darshan.dxt_segments": sum(
                record.segment_count for module in modules
                for record in getattr(module, "dxt_records", {}).values()),
            "core.snapshots": self.snapshots,
            "core.records_copied": self.records_copied,
            "core.records_changed": self.records_changed,
            "core.useful_diff_ratio": (self.records_changed
                                       / self.records_copied
                                       if self.records_copied else 0.0),
        }
