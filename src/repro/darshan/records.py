"""Darshan record structures.

A Darshan *record* accumulates counters for one file within one module.
Records are keyed by the Darshan record id — a stable hash of the file path
— and tied to the path through the shared *name record* table that the core
runtime maintains (mirroring ``darshan-core``'s name record management).
Each instrumentation module keeps its records in a :class:`RecordTable`,
which lets tf-Darshan snapshot them without copying.
"""

from __future__ import annotations

import copy
import hashlib
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Set, Tuple


def darshan_record_id(path: str) -> int:
    """Stable 64-bit record id of a file path (Darshan hashes path names)."""
    digest = hashlib.md5(path.encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass
class NameRecord:
    """Association between a record id and the file path it stands for."""

    record_id: int
    name: str


class CounterRecord:
    """A generic Darshan record: integer and floating-point counters."""

    __slots__ = ("record_id", "rank", "counters", "fcounters", "_access_sizes")

    def __init__(self, record_id: int, rank: int,
                 counter_names: Iterable[str], fcounter_names: Iterable[str]):
        self.record_id = record_id
        self.rank = rank
        self.counters: Dict[str, int] = {name: 0 for name in counter_names}
        self.fcounters: Dict[str, float] = {name: 0.0 for name in fcounter_names}
        # Frequency of access sizes, used to fill the ACCESSx counters the
        # way darshan_common_val_counter does.  A plain dict: a clone copies
        # it, and copying a Counter costs several times more.
        self._access_sizes: Dict[int, int] = {}

    # -- counter updates ----------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Increment an integer counter."""
        self.counters[name] += amount

    def maximum(self, name: str, value: int) -> None:
        """Raise an integer counter to at least ``value``."""
        if value > self.counters[name]:
            self.counters[name] = value

    def fset_first(self, name: str, value: float) -> None:
        """Set a float counter if it has never been set (first timestamp)."""
        if self.fcounters[name] == 0.0:
            self.fcounters[name] = value

    def fset_max(self, name: str, value: float) -> None:
        """Raise a float counter to at least ``value`` (last timestamp)."""
        if value > self.fcounters[name]:
            self.fcounters[name] = value

    def fadd(self, name: str, value: float) -> None:
        """Accumulate elapsed time into a float counter."""
        self.fcounters[name] += value

    def note_access_size(self, nbytes: int) -> None:
        """Track a common access size (feeds the ACCESSx_ACCESS counters)."""
        size = int(nbytes)
        self._access_sizes[size] = self._access_sizes.get(size, 0) + 1

    def finalize_common_accesses(self, prefix: str) -> None:
        """Fill the top-4 common access size counters from the tracked sizes."""
        top = Counter(self._access_sizes).most_common(4)
        for i in range(4):
            access_key = f"{prefix}_ACCESS{i + 1}_ACCESS"
            count_key = f"{prefix}_ACCESS{i + 1}_COUNT"
            if access_key not in self.counters:
                return
            if i < len(top):
                size, count = top[i]
                self.counters[access_key] = size
                self.counters[count_key] = count
            else:
                self.counters[access_key] = 0
                self.counters[count_key] = 0

    # -- snapshots -----------------------------------------------------------
    def copy(self) -> "CounterRecord":
        """Deep copy: a clone before a write, or a caller-owned extraction."""
        clone = CounterRecord(self.record_id, self.rank, (), ())
        clone.counters = dict(self.counters)
        clone.fcounters = dict(self.fcounters)
        clone._access_sizes = dict(self._access_sizes)
        return clone

    def as_dict(self) -> Dict[str, object]:
        """Serializable view of the record."""
        return {
            "record_id": self.record_id,
            "rank": self.rank,
            "counters": dict(self.counters),
            "fcounters": dict(self.fcounters),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CounterRecord":
        rec = cls(int(data["record_id"]), int(data["rank"]), (), ())
        rec.counters = {str(k): int(v) for k, v in dict(data["counters"]).items()}
        rec.fcounters = {str(k): float(v) for k, v in dict(data["fcounters"]).items()}
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
