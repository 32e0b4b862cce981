"""Darshan counter definitions.

The counter names and their semantics follow Darshan 3.2.0's POSIX and
STDIO modules (the version the paper builds on) so that analyses written
against real Darshan logs — operation counts, sequential/consecutive access
classification, access-size histograms — read identically against this
reimplementation.  Only the counters the paper's analyses touch are
implemented, but those are implemented with Darshan's exact update rules
(see :mod:`repro.darshan.posix_module`).

Like Darshan's C records, which are an ``int64_t`` and a ``double`` array
indexed by enums, a record here is two flat arrays; a
:class:`CounterLayout` per module names their slots once
(:data:`POSIX_LAYOUT`, :data:`STDIO_LAYOUT`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, NamedTuple, Optional, Tuple

#: Integer counters of the POSIX module.
POSIX_COUNTERS: Tuple[str, ...] = (
    "POSIX_OPENS",
    "POSIX_FILENOS",
    "POSIX_DUPS",
    "POSIX_READS",
    "POSIX_WRITES",
    "POSIX_SEEKS",
    "POSIX_STATS",
    "POSIX_FSYNCS",
    "POSIX_BYTES_READ",
    "POSIX_BYTES_WRITTEN",
    "POSIX_MAX_BYTE_READ",
    "POSIX_MAX_BYTE_WRITTEN",
    "POSIX_CONSEC_READS",
    "POSIX_CONSEC_WRITES",
    "POSIX_SEQ_READS",
    "POSIX_SEQ_WRITES",
    "POSIX_RW_SWITCHES",
    "POSIX_SIZE_READ_0_100",
    "POSIX_SIZE_READ_100_1K",
    "POSIX_SIZE_READ_1K_10K",
    "POSIX_SIZE_READ_10K_100K",
    "POSIX_SIZE_READ_100K_1M",
    "POSIX_SIZE_READ_1M_4M",
    "POSIX_SIZE_READ_4M_10M",
    "POSIX_SIZE_READ_10M_100M",
    "POSIX_SIZE_READ_100M_1G",
    "POSIX_SIZE_READ_1G_PLUS",
    "POSIX_SIZE_WRITE_0_100",
    "POSIX_SIZE_WRITE_100_1K",
    "POSIX_SIZE_WRITE_1K_10K",
    "POSIX_SIZE_WRITE_10K_100K",
    "POSIX_SIZE_WRITE_100K_1M",
    "POSIX_SIZE_WRITE_1M_4M",
    "POSIX_SIZE_WRITE_4M_10M",
    "POSIX_SIZE_WRITE_10M_100M",
    "POSIX_SIZE_WRITE_100M_1G",
    "POSIX_SIZE_WRITE_1G_PLUS",
    "POSIX_ACCESS1_ACCESS",
    "POSIX_ACCESS2_ACCESS",
    "POSIX_ACCESS3_ACCESS",
    "POSIX_ACCESS4_ACCESS",
    "POSIX_ACCESS1_COUNT",
    "POSIX_ACCESS2_COUNT",
    "POSIX_ACCESS3_COUNT",
    "POSIX_ACCESS4_COUNT",
)

#: Floating-point (time) counters of the POSIX module.
POSIX_F_COUNTERS: Tuple[str, ...] = (
    "POSIX_F_OPEN_START_TIMESTAMP",
    "POSIX_F_READ_START_TIMESTAMP",
    "POSIX_F_WRITE_START_TIMESTAMP",
    "POSIX_F_CLOSE_START_TIMESTAMP",
    "POSIX_F_OPEN_END_TIMESTAMP",
    "POSIX_F_READ_END_TIMESTAMP",
    "POSIX_F_WRITE_END_TIMESTAMP",
    "POSIX_F_CLOSE_END_TIMESTAMP",
    "POSIX_F_READ_TIME",
    "POSIX_F_WRITE_TIME",
    "POSIX_F_META_TIME",
    "POSIX_F_MAX_READ_TIME",
    "POSIX_F_MAX_WRITE_TIME",
)

#: Integer counters of the STDIO module.
STDIO_COUNTERS: Tuple[str, ...] = (
    "STDIO_OPENS",
    "STDIO_FDOPENS",
    "STDIO_READS",
    "STDIO_WRITES",
    "STDIO_SEEKS",
    "STDIO_FLUSHES",
    "STDIO_BYTES_READ",
    "STDIO_BYTES_WRITTEN",
    "STDIO_MAX_BYTE_READ",
    "STDIO_MAX_BYTE_WRITTEN",
)

#: Floating-point (time) counters of the STDIO module.
STDIO_F_COUNTERS: Tuple[str, ...] = (
    "STDIO_F_OPEN_START_TIMESTAMP",
    "STDIO_F_CLOSE_START_TIMESTAMP",
    "STDIO_F_WRITE_START_TIMESTAMP",
    "STDIO_F_READ_START_TIMESTAMP",
    "STDIO_F_OPEN_END_TIMESTAMP",
    "STDIO_F_CLOSE_END_TIMESTAMP",
    "STDIO_F_WRITE_END_TIMESTAMP",
    "STDIO_F_READ_END_TIMESTAMP",
    "STDIO_F_META_TIME",
    "STDIO_F_WRITE_TIME",
    "STDIO_F_READ_TIME",
)

#: Darshan's access-size histogram bucket boundaries (upper bound inclusive).
SIZE_BUCKET_BOUNDS: Tuple[Tuple[str, int], ...] = (
    ("0_100", 100),
    ("100_1K", 1024),
    ("1K_10K", 10 * 1024),
    ("10K_100K", 100 * 1024),
    ("100K_1M", 1024 * 1024),
    ("1M_4M", 4 * 1024 * 1024),
    ("4M_10M", 10 * 1024 * 1024),
    ("10M_100M", 100 * 1024 * 1024),
    ("100M_1G", 1024 * 1024 * 1024),
    ("1G_PLUS", None),
)

#: Human-readable labels of the size buckets, in order (used by reports).
SIZE_BUCKET_LABELS: Tuple[str, ...] = tuple(name for name, _ in SIZE_BUCKET_BOUNDS)


_UPPER_BOUNDS: Tuple[int, ...] = tuple(bound for _, bound in SIZE_BUCKET_BOUNDS
                                      if bound is not None)


def size_bucket_index(nbytes: int) -> int:
    """Position of the access-size bucket of an access of ``nbytes``."""
    if nbytes < 0:
        raise ValueError("access size must be non-negative")
    return bisect_left(_UPPER_BOUNDS, nbytes)


def size_bucket(nbytes: int) -> str:
    """Darshan's access-size bucket label for an access of ``nbytes``."""
    return SIZE_BUCKET_LABELS[size_bucket_index(nbytes)]


def read_size_histogram(counters: Dict[str, int], module_prefix: str = "POSIX",
                        is_write: bool = False) -> Dict[str, int]:
    """Extract the access-size histogram from a counter mapping."""
    direction = "WRITE" if is_write else "READ"
    out = {}
    for label in SIZE_BUCKET_LABELS:
        key = f"{module_prefix}_SIZE_{direction}_{label}"
        if key in counters:
            out[label] = counters[key]
    return out


class Direction(NamedTuple):
    """The record slots one read, or one write, updates.

    A slot is None, and ``sizes`` empty, where the module has no such
    counter: STDIO keeps no sequential, consecutive, max-time or
    access-size counters.
    """

    ops: int
    bytes: int
    max_byte: int
    seq: Optional[int]
    consec: Optional[int]
    #: One slot per size bucket, in :data:`SIZE_BUCKET_LABELS` order.
    sizes: Tuple[int, ...]
    start: int
    end: int
    time: int
    max_time: Optional[int]


class CounterLayout:
    """One module's record layout, built once from its counter names.

    ``counters`` and ``fcounters`` name the slots of a record's ``int64``
    and ``double`` arrays in order, and ``index`` and ``findex`` map a name
    to its slot.  The rest is precomputed so that no update builds a
    counter name.
    """

    def __init__(self, prefix: str, counters: Tuple[str, ...],
                 fcounters: Tuple[str, ...]):
        self.prefix = prefix
        self.counters = counters
        self.fcounters = fcounters
        self.index: Dict[str, int] = {name: i for i, name in enumerate(counters)}
        self.findex: Dict[str, int] = {name: i for i, name in enumerate(fcounters)}
        #: All-zero arrays that a new record copies; never written.
        self.zeros = array("q", bytes(8 * len(counters)))
        self.fzeros = array("d", bytes(8 * len(fcounters)))
        #: Float slots holding elapsed times, which a window delta
        #: subtracts; the others are timestamps and keep their end values.
        self.elapsed: Tuple[int, ...] = tuple(
            i for i, name in enumerate(fcounters)
            if name.endswith("_TIME") and not name.endswith("TIMESTAMP"))
        #: ``(ACCESSn_ACCESS, ACCESSn_COUNT)`` slot pairs, most common first.
        self.common_accesses: Tuple[Tuple[int, int], ...] = tuple(
            (self.index[f"{prefix}_ACCESS{n}_ACCESS"],
             self.index[f"{prefix}_ACCESS{n}_COUNT"])
            for n in range(1, 5) if f"{prefix}_ACCESS{n}_ACCESS" in self.index)
        self.read = self._direction("READ", "READ")
        self.write = self._direction("WRITE", "WRITTEN")

    def _direction(self, op: str, done: str) -> Direction:
        prefix, index, findex = self.prefix, self.index, self.findex
        sizes = tuple(index[f"{prefix}_SIZE_{op}_{label}"]
                      for label in SIZE_BUCKET_LABELS
                      if f"{prefix}_SIZE_{op}_{label}" in index)
        return Direction(
            ops=index[f"{prefix}_{op}S"],
            bytes=index[f"{prefix}_BYTES_{done}"],
            max_byte=index[f"{prefix}_MAX_BYTE_{done}"],
            seq=index.get(f"{prefix}_SEQ_{op}S"),
            consec=index.get(f"{prefix}_CONSEC_{op}S"),
            sizes=sizes,
            start=findex[f"{prefix}_F_{op}_START_TIMESTAMP"],
            end=findex[f"{prefix}_F_{op}_END_TIMESTAMP"],
            time=findex[f"{prefix}_F_{op}_TIME"],
            max_time=findex.get(f"{prefix}_F_MAX_{op}_TIME"))


POSIX_LAYOUT = CounterLayout("POSIX", POSIX_COUNTERS, POSIX_F_COUNTERS)
STDIO_LAYOUT = CounterLayout("STDIO", STDIO_COUNTERS, STDIO_F_COUNTERS)
#: The layouts by module name.
LAYOUTS: Dict[str, CounterLayout] = {layout.prefix: layout
                                     for layout in (POSIX_LAYOUT, STDIO_LAYOUT)}
