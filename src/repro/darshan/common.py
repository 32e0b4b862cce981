"""What Darshan's instrumentation modules share (``darshan-common.c``).

:class:`InstrumentationModule` keeps a module's counter record table and
its DXT log and does, once for every module, what does not depend on the
symbols it wraps: creating a file's record under the record limit,
charging the per-call overhead, choosing the wrappers of the symbols that
resolve, and summing counters.  A module receives from the core that
builds it only what it uses — the simulation environment, the Darshan
configuration and the core's name table — so it never refers back to its
core.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional

from repro.darshan.counters import CounterLayout
from repro.darshan.dxt import DxtLog, DxtRecord
from repro.darshan.records import CounterRecord, NameTable, RecordTable
from repro.sim import Environment, Timeout

Wrappers = Dict[str, Callable[..., Generator]]


class InstrumentationModule:
    """Per-file counter records and the DXT log of one Darshan module.

    A subclass names its :attr:`layout` and builds its wrappers in
    :meth:`_wrappers`.
    """

    layout: CounterLayout

    def __init__(self, env: Environment, config, names: NameTable):
        self.env = env
        #: The core's :class:`~repro.darshan.runtime.DarshanConfig`.
        self.config = config
        self.names = names
        self.records = RecordTable()
        #: Every traced segment of the module's files, in the order they ended.
        self.dxt_log = DxtLog()
        #: Set when the record limit was hit and files went untracked.
        self.partial_flag = False
        #: Operations that passed through without instrumentation (unknown
        #: descriptor or stream).
        self.untracked_ops = 0

    # -- record management ---------------------------------------------------
    def _get_record(self, record_id: int) -> Optional[CounterRecord]:
        """The writable record of ``record_id``, created on first use, or
        None once the module holds its maximum number of records."""
        record = self.records.writable(record_id)
        if record is None:
            if len(self.records) >= self.config.max_records_per_module:
                self.partial_flag = True
                return None
            record = CounterRecord(record_id, self.config.rank, self.layout)
            self.records.add(record_id, record)
        return record

    def _trace(self, record: CounterRecord, ops: int, is_write: bool,
               offset: int, length: int, start: float, end: float) -> None:
        """Append a transfer to the DXT log, unless DXT is off or the record
        already traced its bound of segments in this direction.

        ``ops`` is the slot of the record's operation count in that
        direction, which already counts this transfer, so it is the number
        of segments the record has tried to trace.
        """
        config = self.config
        if (config.enable_dxt
                and record.values[ops] <= config.max_dxt_segments_per_record):
            self.dxt_log.append(record.record_id, is_write, offset, length,
                                start, end)

    @property
    def dxt_records(self) -> Dict[int, DxtRecord]:
        """Fresh :class:`DxtRecord` objects of every tracked file, built from
        the DXT log, or ``{}`` with DXT off.  A cold-path view: every access
        builds every segment again."""
        if not self.config.enable_dxt:
            return {}
        cap = self.config.max_dxt_segments_per_record
        read, write = self.layout.read.ops, self.layout.write.ops
        segments = self.dxt_log.segments()
        out: Dict[int, DxtRecord] = {}
        for record_id, record in self.records.items():
            dxt = out[record_id] = DxtRecord(record_id, record.rank)
            dxt.read_segments, dxt.write_segments = segments.get(
                record_id, ([], []))
            values = record.values
            dxt.dropped_segments = (max(0, values[read] - cap)
                                    + max(0, values[write] - cap))
        return out

    def finalize(self) -> None:
        """Fill derived counters before the log is written (none here)."""

    def _overhead(self, new_record: bool = False) -> Timeout:
        """Timeout of one wrapped call's cost, for the wrapper to ``yield``."""
        cost = self.config.instrumentation_overhead
        if new_record:
            cost += self.config.record_creation_overhead
        return self.env.timeout(cost)

    # -- wrapper construction -------------------------------------------------
    def make_wrappers(self, real: Wrappers) -> Wrappers:
        """Instrumented wrappers around the real ("libc") bindings.

        Only symbols present in ``real`` are wrapped.
        """
        return {name: wrapper for name, wrapper in self._wrappers(real).items()
                if name in real}

    def _wrappers(self, real: Wrappers) -> Wrappers:
        """Every wrapper of the module; each calls ``real[name]`` when run."""
        raise NotImplementedError

    # -- summary helpers -------------------------------------------------------
    def total_counter(self, name: str) -> int:
        """Sum of one counter across all records."""
        return sum(rec.counters.get(name, 0) for rec in self.records.values())

    def file_count(self) -> int:
        """Number of file records currently tracked."""
        return len(self.records)
