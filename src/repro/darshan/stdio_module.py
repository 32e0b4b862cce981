"""Darshan STDIO instrumentation module.

Instruments the buffered stream API (``fopen``/``fread``/``fwrite``/...).
TensorFlow writes checkpoints through ``fwrite`` in its POSIX filesystem
plugin, so checkpoint traffic appears on this module's counters — the
behaviour Fig. 6 of the paper demonstrates (about 1 400 ``fwrite`` calls for
ten per-step checkpoints of the AlexNet model).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.darshan.common import InstrumentationModule, Wrappers
from repro.darshan.counters import STDIO_LAYOUT
from repro.darshan.records import NameTable
from repro.sim import Environment

MODULE_NAME = "STDIO"

_INDEX, _FINDEX = STDIO_LAYOUT.index, STDIO_LAYOUT.findex
_OPENS = _INDEX["STDIO_OPENS"]
_SEEKS = _INDEX["STDIO_SEEKS"]
_FLUSHES = _INDEX["STDIO_FLUSHES"]
_OPEN_START = _FINDEX["STDIO_F_OPEN_START_TIMESTAMP"]
_OPEN_END = _FINDEX["STDIO_F_OPEN_END_TIMESTAMP"]
_CLOSE_START = _FINDEX["STDIO_F_CLOSE_START_TIMESTAMP"]
_CLOSE_END = _FINDEX["STDIO_F_CLOSE_END_TIMESTAMP"]
_META_TIME = _FINDEX["STDIO_F_META_TIME"]


@dataclass
class _StreamRef:
    """Association between a FILE* stream and its Darshan record."""

    record_id: int
    position: int = 0


class StdioModule(InstrumentationModule):
    """Instruments STDIO symbols and accumulates per-file counter records."""

    layout = STDIO_LAYOUT

    def __init__(self, env: Environment, config, names: NameTable):
        super().__init__(env, config, names)
        self._stream_refs: Dict[int, _StreamRef] = {}

    def _ref_for(self, stream: object) -> Optional[_StreamRef]:
        stream_id = getattr(stream, "stream_id", None)
        if stream_id is None:
            stream_id = stream
        return self._stream_refs.get(stream_id)

    def _track_transfer(self, ref: _StreamRef, is_write: bool, nbytes: int,
                        start: float, end: float) -> None:
        record = self.records.writable(ref.record_id)
        if record is None:  # pragma: no cover - defensive
            return
        slots = STDIO_LAYOUT.write if is_write else STDIO_LAYOUT.read
        values = record.values
        values[slots.ops] += 1
        values[slots.bytes] += nbytes
        offset = ref.position
        end_byte = offset + max(0, nbytes - 1)
        if end_byte > values[slots.max_byte]:
            values[slots.max_byte] = end_byte
        record.time_op(slots.start, slots.end, slots.time, start, end)
        self._trace(record, slots.ops, is_write, offset, nbytes, start, end)
        ref.position = offset + nbytes

    # -- wrapper construction ---------------------------------------------------------
    def _wrappers(self, real: Wrappers) -> Wrappers:
        def wrap_fopen(path, mode="r"):
            record_id = self.names.register(path)
            known = record_id in self.records
            start = self.env.now
            stream = yield from real["fopen"](path, mode)
            end = self.env.now
            record = self._get_record(record_id)
            if record is not None:
                record.values[_OPENS] += 1
                record.time_op(_OPEN_START, _OPEN_END, _META_TIME, start, end)
                position = getattr(stream, "position", 0)
                self._stream_refs[stream.stream_id] = _StreamRef(
                    record_id=record_id, position=position)
            yield self._overhead(new_record=not known)
            return stream

        def wrap_fclose(stream):
            ref = self._stream_refs.pop(getattr(stream, "stream_id", stream), None)
            start = self.env.now
            result = yield from real["fclose"](stream)
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

        def wrap_fread(stream, nbytes):
            ref = self._ref_for(stream)
            start = self.env.now
            nread = yield from real["fread"](stream, nbytes)
            end = self.env.now
            if ref is not None:
                self._track_transfer(ref, False, nread, start, end)
            else:
                self.untracked_ops += 1
            yield self._overhead()
            return nread

        def wrap_fwrite(stream, nbytes):
            ref = self._ref_for(stream)
            start = self.env.now
            written = yield from real["fwrite"](stream, nbytes)
            end = self.env.now
            if ref is not None:
                self._track_transfer(ref, True, written, start, end)
            else:
                self.untracked_ops += 1
            yield self._overhead()
            return written

        def wrap_fseek(stream, offset, whence=0):
            ref = self._ref_for(stream)
            start = self.env.now
            result = yield from real["fseek"](stream, offset, whence)
            end = self.env.now
            if ref is not None:
                record = self.records.writable(ref.record_id)
                if record is not None:
                    record.values[_SEEKS] += 1
                    record.fvalues[_META_TIME] += end - start
                ref.position = getattr(stream, "position", ref.position)
            else:
                self.untracked_ops += 1
            yield self._overhead()
            return result

        def wrap_ftell(stream):
            result = yield from real["ftell"](stream)
            yield self._overhead()
            return result

        def wrap_fflush(stream):
            ref = self._ref_for(stream)
            start = self.env.now
            result = yield from real["fflush"](stream)
            end = self.env.now
            if ref is not None:
                record = self.records.writable(ref.record_id)
                if record is not None:
                    record.values[_FLUSHES] += 1
                    record.fvalues[_META_TIME] += end - start
            yield self._overhead()
            return result

        return {
            "fopen": wrap_fopen,
            "fclose": wrap_fclose,
            "fread": wrap_fread,
            "fwrite": wrap_fwrite,
            "fseek": wrap_fseek,
            "ftell": wrap_ftell,
            "fflush": wrap_fflush,
        }
