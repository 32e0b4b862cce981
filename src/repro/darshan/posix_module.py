"""Darshan POSIX instrumentation module.

The wrappers produced by :meth:`PosixModule.make_wrappers` follow Darshan's
``posix_module.c`` update rules exactly where the paper's analyses depend on
them:

* ``POSIX_SEQ_READS`` counts reads whose offset is *greater than* the last
  byte previously read; ``POSIX_CONSEC_READS`` counts reads starting exactly
  one byte after it.  Because the per-record ``last_byte_read`` starts at 0,
  the first read of every file is neither sequential nor consecutive, and
  the zero-length read that terminates TensorFlow's ``ReadFile`` loop is
  both — which is precisely the 50 % / 50 % split the paper observes in the
  ImageNet case study (Fig. 7a / Fig. 8).
* access sizes fall into Darshan's standard histogram buckets
  (``POSIX_SIZE_READ_0_100`` ... ``_1G_PLUS``), so the zero-length reads
  populate the 0-100 bucket as in the paper.
* per-file wall-clock timestamps and cumulative read/write/meta times feed
  tf-Darshan's bandwidth and timing panels.

The wrappers update a record's counter arrays through the slots of
:data:`~repro.darshan.counters.POSIX_LAYOUT`, resolved once at import, and
hash a call's path once.  The core builds the module with its environment,
configuration and name table; the record table, the DXT log, the record
limit, the per-call overhead and the wrapper selection come from
:class:`~repro.darshan.common.InstrumentationModule`, which the STDIO module
shares.  Only the descriptor table is POSIX's own; the per-record access
state lives in the record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.darshan.common import InstrumentationModule, Wrappers
from repro.darshan.counters import POSIX_LAYOUT, size_bucket_index
from repro.darshan.records import CounterRecord, NameTable
from repro.sim import Environment

MODULE_NAME = "POSIX"

_INDEX, _FINDEX = POSIX_LAYOUT.index, POSIX_LAYOUT.findex
_OPENS = _INDEX["POSIX_OPENS"]
_SEEKS = _INDEX["POSIX_SEEKS"]
_STATS = _INDEX["POSIX_STATS"]
_FSYNCS = _INDEX["POSIX_FSYNCS"]
_RW_SWITCHES = _INDEX["POSIX_RW_SWITCHES"]
_OPEN_START = _FINDEX["POSIX_F_OPEN_START_TIMESTAMP"]
_OPEN_END = _FINDEX["POSIX_F_OPEN_END_TIMESTAMP"]
_CLOSE_START = _FINDEX["POSIX_F_CLOSE_START_TIMESTAMP"]
_CLOSE_END = _FINDEX["POSIX_F_CLOSE_END_TIMESTAMP"]
_META_TIME = _FINDEX["POSIX_F_META_TIME"]


@dataclass
class _FdRef:
    """Association between an open descriptor and its file record."""

    record_id: int
    offset: int = 0


class PosixModule(InstrumentationModule):
    """Instruments POSIX symbols and accumulates per-file counter records."""

    layout = POSIX_LAYOUT

    def __init__(self, env: Environment, config, names: NameTable):
        super().__init__(env, config, names)
        self._fd_refs: Dict[int, _FdRef] = {}

    def finalize(self) -> None:
        """Fill derived counters (common access sizes) before log writing."""
        for record_id in list(self.records):
            self.records.writable(record_id).finalize_common_accesses()

    # -- counter updates ------------------------------------------------------
    def _track_open(self, record_id: int, fd: int, start: float,
                    end: float) -> None:
        record = self._get_record(record_id)
        if record is None:
            return
        record.values[_OPENS] += 1
        record.time_op(_OPEN_START, _OPEN_END, _META_TIME, start, end)
        self._fd_refs[fd] = _FdRef(record_id=record_id)

    def _track_transfer(self, ref: _FdRef, is_write: bool, offset: int,
                        nbytes: int, start: float, end: float) -> None:
        record = self.records.writable(ref.record_id)
        if record is None:  # pragma: no cover - defensive
            return
        slots = POSIX_LAYOUT.write if is_write else POSIX_LAYOUT.read
        op = "write" if is_write else "read"
        values = record.values

        values[slots.ops] += 1
        values[slots.bytes] += nbytes
        values[slots.sizes[size_bucket_index(nbytes)]] += 1
        record.note_access_size(nbytes)

        last_byte = record.last_byte_written if is_write else record.last_byte_read
        if offset > last_byte:
            values[slots.seq] += 1
        if offset == last_byte + 1:
            values[slots.consec] += 1
        new_last = offset + nbytes - 1
        if is_write:
            record.last_byte_written = new_last
        else:
            record.last_byte_read = new_last
        if new_last > values[slots.max_byte]:
            values[slots.max_byte] = new_last

        if record.last_op is not None and record.last_op != op:
            values[_RW_SWITCHES] += 1
        record.last_op = op

        record.time_op(slots.start, slots.end, slots.time, start, end)
        if end - start > record.fvalues[slots.max_time]:
            record.fvalues[slots.max_time] = end - start
        self._trace(record, slots.ops, is_write, offset, nbytes, start, end)

    def _track_meta(self, record: Optional[CounterRecord], counter: int,
                    start: float, end: float) -> None:
        if record is None:
            return
        record.values[counter] += 1
        record.fvalues[_META_TIME] += end - start

    # -- wrapper construction ----------------------------------------------------
    def _wrappers(self, real: Wrappers) -> Wrappers:
        def wrap_open(path, flags=0):
            record_id = self.names.register(path)
            known = record_id in self.records
            start = self.env.now
            fd = yield from real["open"](path, flags)
            end = self.env.now
            self._track_open(record_id, fd, start, end)
            yield self._overhead(new_record=not known)
            return fd

        def wrap_close(fd):
            ref = self._fd_refs.pop(fd, None)
            start = self.env.now
            result = yield from real["close"](fd)
            end = self.env.now
            if ref is not None:
                record = self.records.writable(ref.record_id)
                if record is not None:
                    record.time_op(_CLOSE_START, _CLOSE_END, _META_TIME,
                                   start, end)
            else:
                self.untracked_ops += 1
            yield self._overhead()
            return result

        def wrap_read(fd, count):
            ref = self._fd_refs.get(fd)
            start = self.env.now
            nbytes = yield from real["read"](fd, count)
            end = self.env.now
            if ref is not None:
                offset = ref.offset
                self._track_transfer(ref, False, offset, nbytes, start, end)
                ref.offset = offset + nbytes
            else:
                self.untracked_ops += 1
            yield self._overhead()
            return nbytes

        def wrap_pread(fd, count, offset):
            ref = self._fd_refs.get(fd)
            start = self.env.now
            nbytes = yield from real["pread"](fd, count, offset)
            end = self.env.now
            if ref is not None:
                self._track_transfer(ref, False, offset, nbytes, start, end)
            else:
                self.untracked_ops += 1
            yield self._overhead()
            return nbytes

        def wrap_write(fd, nbytes):
            ref = self._fd_refs.get(fd)
            start = self.env.now
            written = yield from real["write"](fd, nbytes)
            end = self.env.now
            if ref is not None:
                offset = ref.offset
                self._track_transfer(ref, True, offset, written, start, end)
                ref.offset = offset + written
            else:
                self.untracked_ops += 1
            yield self._overhead()
            return written

        def wrap_pwrite(fd, nbytes, offset):
            ref = self._fd_refs.get(fd)
            start = self.env.now
            written = yield from real["pwrite"](fd, nbytes, offset)
            end = self.env.now
            if ref is not None:
                self._track_transfer(ref, True, offset, written, start, end)
            else:
                self.untracked_ops += 1
            yield self._overhead()
            return written

        def wrap_lseek(fd, offset, whence=0):
            ref = self._fd_refs.get(fd)
            start = self.env.now
            result = yield from real["lseek"](fd, offset, whence)
            end = self.env.now
            if ref is not None:
                ref.offset = result
                record = self.records.writable(ref.record_id)
                self._track_meta(record, _SEEKS, start, end)
            else:
                self.untracked_ops += 1
            yield self._overhead()
            return result

        def wrap_stat(path):
            record_id = self.names.register(path)
            known = record_id in self.records
            start = self.env.now
            result = yield from real["stat"](path)
            end = self.env.now
            record = self._get_record(record_id)
            self._track_meta(record, _STATS, start, end)
            yield self._overhead(new_record=not known)
            return result

        def wrap_fstat(fd):
            ref = self._fd_refs.get(fd)
            start = self.env.now
            result = yield from real["fstat"](fd)
            end = self.env.now
            if ref is not None:
                record = self.records.writable(ref.record_id)
                self._track_meta(record, _STATS, start, end)
            else:
                self.untracked_ops += 1
            yield self._overhead()
            return result

        def wrap_fsync(fd):
            ref = self._fd_refs.get(fd)
            start = self.env.now
            result = yield from real["fsync"](fd)
            end = self.env.now
            if ref is not None:
                record = self.records.writable(ref.record_id)
                self._track_meta(record, _FSYNCS, start, end)
            yield self._overhead()
            return result

        return {
            "open": wrap_open,
            "close": wrap_close,
            "read": wrap_read,
            "pread": wrap_pread,
            "write": wrap_write,
            "pwrite": wrap_pwrite,
            "lseek": wrap_lseek,
            "stat": wrap_stat,
            "fstat": wrap_fstat,
            "fsync": wrap_fsync,
        }
