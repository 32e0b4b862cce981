"""Operating-system page cache model.

The paper is careful about the page cache: every Greendog experiment drops
it first (``echo 3 > /proc/sys/vm/drop_caches``) and only one epoch is run so
the second epoch never benefits from cached samples.  Making the cache an
explicit object lets the reproduction (a) honour the same protocol, and (b)
demonstrate in tests what happens when the protocol is violated (a warm
second epoch is served from DRAM).

The cache tracks, per file, how many leading bytes are resident (ML sample
reads are whole-file sequential, so a prefix model loses nothing), with an
LRU eviction policy over files and a byte-capacity limit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Tuple


class PageCache:
    """LRU page cache with byte granularity over file prefixes."""

    def __init__(self, capacity_bytes: float = 32 * (1 << 30)):
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = float(capacity_bytes)
        self._resident: "OrderedDict[object, int]" = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- queries -----------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        """Bytes currently resident in the cache."""
        return self._used

    def resident_bytes(self, key: object) -> int:
        """Number of leading bytes of ``key`` currently cached."""
        return self._resident.get(key, 0)

    def split_request(self, key: object, offset: int, nbytes: int
                      ) -> Tuple[int, int]:
        """Split a read into ``(cached_bytes, uncached_bytes)``.

        Bytes below the resident prefix are served from DRAM; the rest must
        come from the device.
        """
        if nbytes <= 0:
            return 0, 0
        resident = self.resident_bytes(key)
        cached = max(0, min(nbytes, resident - offset))
        uncached = nbytes - cached
        if cached > 0:
            self.hits += 1
            self._resident.move_to_end(key)
        if uncached > 0:
            self.misses += 1
        return cached, uncached

    # -- updates -------------------------------------------------------------
    def insert(self, key: object, offset: int, nbytes: int) -> None:
        """Mark bytes [offset, offset+nbytes) of ``key`` as resident.

        Only extensions of the resident prefix grow the accounted footprint
        (matching the prefix model); interior writes are already covered.
        """
        if nbytes <= 0:
            return
        current = self._resident.get(key, 0)
        if offset <= current:
            new_prefix = max(current, offset + nbytes)
        else:
            # The bytes start past the resident prefix; the prefix model
            # cannot hold the hole between them, so the prefix stays.
            new_prefix = current
        grow = new_prefix - current
        if grow <= 0:
            if key in self._resident:
                self._resident.move_to_end(key)
            return
        self._resident[key] = new_prefix
        self._resident.move_to_end(key)
        self._used += grow
        self._evict_if_needed()

    def invalidate(self, key: object) -> None:
        """Drop any cached data of one file (unlink/truncate)."""
        resident = self._resident.pop(key, 0)
        self._used -= resident

    def drop(self) -> None:
        """Drop the whole cache (the ``drop_caches`` step of the protocol)."""
        self._resident.clear()
        self._used = 0

    # -- internals ------------------------------------------------------------
    def _evict_if_needed(self) -> None:
        while self._used > self.capacity_bytes and self._resident:
            _, nbytes = self._resident.popitem(last=False)
            self._used -= nbytes
            self.evictions += 1

    def stats(self) -> Dict[str, float]:
        """Summary used by tests and reports."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": (self.hits / total) if total else 0.0,
            "used_bytes": self._used,
            "evictions": self.evictions,
        }
