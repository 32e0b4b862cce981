"""Darshan record structures.

A Darshan *record* accumulates counters for one file within one module.
Records are keyed by the Darshan record id — a stable hash of the file path
— and tied to the path through the core's :class:`NameTable` of *name
records* (mirroring ``darshan-core``'s name record management), which the
core hands to each module it builds.

A :class:`CounterRecord` has Darshan's own layout: its integer counters are
one ``array('q')`` and its float counters one ``array('d')``, 8 bytes per
counter, in the slot order of the module's
:class:`~repro.darshan.counters.CounterLayout`.  The instrumentation updates
the arrays through precomputed slots; everything else reads and writes
counters by name through the :class:`CounterView` mappings ``counters``
and ``fcounters``.  Each instrumentation module keeps its records in a
:class:`RecordTable`, which lets tf-Darshan snapshot them without copying.
"""

from __future__ import annotations

import hashlib
from array import array
from collections.abc import Mapping
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Dict, Iterator, Optional, Set

from repro.darshan.counters import LAYOUTS, CounterLayout


def darshan_record_id(path: str) -> int:
    """Stable 64-bit record id of a file path (Darshan hashes path names)."""
    digest = hashlib.md5(path.encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class NameRecord:
    """Association between a record id and the file path it stands for."""

    record_id: int
    name: str


class NameTable(dict):
    """The name records by record id, kept by the core for its modules.

    A module registers each path it instruments; the log and the
    extraction API resolve record ids back to paths.
    """

    __slots__ = ()

    def register(self, path: str) -> int:
        """Register a file path and return its Darshan record id."""
        record_id = darshan_record_id(path)
        if record_id not in self:
            self[record_id] = NameRecord(record_id, path)
        return record_id

    def lookup(self, record_id: int) -> Optional[str]:
        """The path of ``record_id`` (``None`` if unknown)."""
        record = self.get(record_id)
        return record.name if record else None


class CounterView(Mapping):
    """Read-only access by counter name to one counter array.

    The view shares the array; it copies nothing.  A name outside the
    layout raises ``KeyError`` and assignment raises ``TypeError``.
    """

    __slots__ = ("_index", "_values")

    def __init__(self, index: Dict[str, int], values: array):
        self._index = index
        self._values = values

    def __getitem__(self, name: str):
        return self._values[self._index[name]]

    def get(self, name: str, default: Any = None) -> Any:
        slot = self._index.get(name)
        return default if slot is None else self._values[slot]

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return repr(dict(zip(self._index, self._values)))


class WritableCounterView(CounterView):
    """A :class:`CounterView` that writes through to the array."""

    __slots__ = ()

    def __setitem__(self, name: str, value) -> None:
        self._values[self._index[name]] = value


class CounterRecord:
    """A generic Darshan record: an int64 and a double counter array.

    It also carries Darshan's per-record runtime state, which is not written
    to the log: the last byte read and written and the last operation
    (sequential/consecutive and read/write-switch counting), and how often
    each access size occurred (the ACCESSx counters).
    """

    __slots__ = ("record_id", "rank", "layout", "values", "fvalues",
                 "last_byte_read", "last_byte_written", "last_op",
                 "_access_sizes")

    def __init__(self, record_id: int, rank: int, layout: CounterLayout,
                 values: Optional[array] = None,
                 fvalues: Optional[array] = None):
        self.record_id = record_id
        self.rank = rank
        self.layout = layout
        self.values = layout.zeros[:] if values is None else values
        self.fvalues = layout.fzeros[:] if fvalues is None else fvalues
        self.last_byte_read = 0
        self.last_byte_written = 0
        #: "read", "write", or None before the first transfer.
        self.last_op: Optional[str] = None
        # (size, count) pairs in the order the sizes first occurred, for
        # the ACCESSx counters as darshan_common_val_counter fills them.
        # Uncapped, unlike Darshan's, so every size counts.
        self._access_sizes = array("q")

    @property
    def counters(self) -> WritableCounterView:
        """The integer counters by name."""
        return WritableCounterView(self.layout.index, self.values)

    @property
    def fcounters(self) -> WritableCounterView:
        """The float counters by name."""
        return WritableCounterView(self.layout.findex, self.fvalues)

    # -- counter updates ----------------------------------------------------
    def time_op(self, first: int, last: int, elapsed: int,
                start: float, end: float) -> None:
        """Account one operation that ran from ``start`` to ``end``.

        Slot ``first`` keeps the first start, slot ``last`` the last end and
        slot ``elapsed`` accumulates the time spent.
        """
        fvalues = self.fvalues
        if fvalues[first] == 0.0:
            fvalues[first] = start
        if end > fvalues[last]:
            fvalues[last] = end
        fvalues[elapsed] += end - start

    def note_access_size(self, nbytes: int) -> None:
        """Track a common access size (feeds the ACCESSx_ACCESS counters)."""
        pairs = self._access_sizes
        for i in range(0, len(pairs), 2):
            if pairs[i] == nbytes:
                pairs[i + 1] += 1
                return
        pairs.extend((nbytes, 1))

    def finalize_common_accesses(self) -> None:
        """Fill the top-4 common access size counters from the tracked sizes:
        the most frequent first, ties in the order the sizes first occurred
        (as ``Counter.most_common`` ranks them)."""
        pairs = self._access_sizes
        top = sorted(zip(pairs[::2], pairs[1::2]), key=itemgetter(1),
                     reverse=True)[:4]
        values = self.values
        for i, (access, count) in enumerate(self.layout.common_accesses):
            values[access], values[count] = top[i] if i < len(top) else (0, 0)

    # -- snapshots -----------------------------------------------------------
    def copy(self) -> "CounterRecord":
        """Deep copy: a clone before a write, or a caller-owned extraction."""
        clone = CounterRecord(self.record_id, self.rank, self.layout,
                              self.values[:], self.fvalues[:])
        clone.last_byte_read = self.last_byte_read
        clone.last_byte_written = self.last_byte_written
        clone.last_op = self.last_op
        clone._access_sizes = self._access_sizes[:]
        return clone

    def as_dict(self) -> Dict[str, object]:
        """Serializable view of the record."""
        return {
            "record_id": self.record_id,
            "rank": self.rank,
            "counters": dict(zip(self.layout.counters, self.values)),
            "fcounters": dict(zip(self.layout.fcounters, self.fvalues)),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CounterRecord":
        """The record :meth:`as_dict` described; the counter names pick the
        module's layout, and a name outside it raises ``KeyError``."""
        counters = dict(data["counters"])
        first = next(iter(counters))
        rec = cls(int(data["record_id"]), int(data["rank"]),
                  LAYOUTS[first.partition("_")[0]])
        view, fview = rec.counters, rec.fcounters
        for name, value in counters.items():
            view[name] = int(value)
        for name, value in dict(data["fcounters"]).items():
            fview[name] = float(value)
        return rec

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CounterRecord id={self.record_id:#x} rank={self.rank}>"


class RecordTable(dict):
    """A module's records by id, copy-on-write against its snapshots.

    :meth:`snapshot` returns a shallow copy of the table, so the snapshot
    shares every record object with the table.  A record is therefore
    changed only through :meth:`writable`, which first replaces a record
    that some snapshot may hold with a clone (the fork(2) idea).  The
    table owns exactly the records it added or cloned since its last
    snapshot, so no copy is made ahead of a write and an old version
    lives only as long as a snapshot that holds it.  Reading the table
    (``in``, ``get``, iteration) needs no care.
    """

    __slots__ = ("_owned",)

    def __init__(self) -> None:
        super().__init__()
        self._owned: Set[int] = set()

    def snapshot(self) -> Dict[int, Any]:
        """The records as of now, shared with the table until it writes them.

        The caller must not modify the returned records.
        """
        self._owned = set()
        return dict(self)

    def writable(self, record_id: int) -> Any:
        """The record of ``record_id`` to mutate, or None if it is untracked."""
        record = self.get(record_id)
        if record is not None and record_id not in self._owned:
            record = self[record_id] = record.copy()
            self._owned.add(record_id)
        return record

    def add(self, record_id: int, record: Any) -> None:
        """Track a new record; no snapshot holds it yet."""
        self[record_id] = record
        self._owned.add(record_id)
