"""Content-addressed cache of campaign job results, over any transport.

Every job result is stored under a key derived from *what the job
computes*: the case name, its canonical parameters, its derived seed, and
the simulation :data:`PHYSICS_VERSION`.  Re-running an unchanged grid is
therefore served entirely from the store; changing any parameter, the
sweep seed, or the simulated physics invalidates exactly the affected
entries.

Since the queue grew a pluggable storage seam
(:class:`~repro.campaign.dist.transport.QueueTransport`), the cache rides
the same seam: :class:`TransportResultCache` runs the content-hash
protocol over *any* transport — a directory, an in-process dict, or the
HTTP broker — so a fleet of workers that shares nothing but a broker URL
still deduplicates (``--cache http://broker:8123``).
:class:`ResultCache` is the filesystem specialization and preserves the
original on-disk layout byte-for-byte: one canonical-JSON file per result
at ``<root>/<key[:2]>/<key>.json``, so cache directories written before
the transport seam existed keep serving hits.  :func:`open_cache` maps a
``--cache``-style argument (directory path or broker URL) to the right
class, mirroring ``transport_from_address`` for queues.

The cache is deliberately dumb and robust: writes are atomic on every
transport, *creation* is a compare-and-swap (two workers racing the same
key converge on one stored record — the loser adopts the winner's), and
any unreadable or mismatched record is treated as a miss rather than an
error; a later ``put`` heals it.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Any, Dict, Optional

from repro.campaign.jobs import result_from_record_or_none
from repro.campaign.jsonio import json_dumps_bytes, json_loads_or_none
from repro.campaign.obs import get_registry
from repro.campaign.spec import JobSpec, canonical_json

#: Version of the simulated physics.  Bump this when an intentional change
#: alters observable simulation results (the golden-trace regression tests
#: in ``tests/regression`` pin down what "observable" means); bumping it
#: orphans every cached campaign result at once.
PHYSICS_VERSION = "1"

#: Default cache location, overridable per :class:`ResultCache` or via the
#: ``REPRO_CAMPAIGN_CACHE`` environment variable.
DEFAULT_CACHE_DIR = "~/.cache/repro-campaigns"

#: Length of the hex content key (``ResultCache.key``).
_KEY_LENGTH = 40


def default_cache_dir() -> Path:
    """The cache root: ``$REPRO_CAMPAIGN_CACHE`` or ``~/.cache/repro-campaigns``."""
    root = os.environ.get("REPRO_CAMPAIGN_CACHE", DEFAULT_CACHE_DIR)
    return Path(root).expanduser()


class TransportResultCache:
    """Content-hash keyed store of job-result records over a transport.

    ``transport`` is any :class:`~repro.campaign.dist.transport.
    QueueTransport`.  Entries live at ``<key[:2]>/<key>.json`` — the
    two-level fan-out keeps directories small on filesystem-backed stores
    and is shared by every transport so a record written through one
    backend (say, a worker PUTting through the broker) is found through
    another (the broker's ``--data-dir`` opened as a plain directory).

    .. note:: The ``hits``/``misses`` counters are **per-instance and
       per-process**: they count the probes *this* object made, and they
       accumulate across campaigns for the lifetime of the instance.  Under
       ``MultiprocessingExecutor`` or a distributed worker fleet, probes
       made by other processes are invisible here — so for per-run
       accounting read ``CampaignResult.meta["cache"]``, which
       :func:`~repro.campaign.runner.run_campaign` fills from the probes
       the orchestrator actually performed for that run.
    """

    def __init__(self, transport: Any,
                 physics_version: str = PHYSICS_VERSION):
        self.transport = transport
        self.physics_version = physics_version
        self.hits = 0
        self.misses = 0
        # Mirrored into the process-wide metrics registry so cache
        # behaviour shows up in worker heartbeat snapshots alongside
        # transport and queue counters (the instance attributes above
        # remain the per-instance accounting the docstring describes).
        self._probe_counter = get_registry().counter(
            "cache_probes_total", "cache probes, by outcome")

    def _count_probe(self, hit: bool) -> None:
        if hit:
            self.hits += 1
            self._probe_counter.inc(outcome="hit")
        else:
            self.misses += 1
            self._probe_counter.inc(outcome="miss")

    @property
    def address(self) -> Optional[str]:
        """How a separate worker process reaches this cache (``--cache``);
        ``None`` for in-process-only transports."""
        return getattr(self.transport, "address", None)

    @property
    def root(self) -> Optional[Path]:
        """Backing directory for filesystem-backed caches, else ``None``."""
        root = getattr(self.transport, "root", None)
        return Path(root) if root is not None else None

    # -- keying ------------------------------------------------------------
    def key(self, job: JobSpec) -> str:
        """Content hash of what the job computes (case, params, seed,
        repeat, physics version) — the cache's only addressing scheme."""
        payload = canonical_json({
            "case": job.case,
            "params": dict(job.params),
            "repeat": job.repeat,
            "seed": job.seed,
            "physics": self.physics_version,
        })
        return hashlib.sha256(payload.encode()).hexdigest()[:_KEY_LENGTH]

    def storage_key(self, job: JobSpec) -> str:
        """Transport key of ``job``'s entry (whether or not it exists)."""
        key = self.key(job)
        return f"{key[:2]}/{key}.json"

    @staticmethod
    def is_entry_key(key: str) -> bool:
        """True for keys shaped like cache entries (``ab/<40 hex>.json``).

        The filter that keeps :meth:`__len__`/:meth:`clear` honest when
        the transport's keyspace is shared with other documents — a work
        queue living on the same broker (queue states are word-prefixed,
        cache entries are two-hex-prefixed; they can never collide), or
        files older versions left beside the entries.
        """
        stem, _, name = key.partition("/")
        return (len(stem) == 2 and name.endswith(".json")
                and len(name) == _KEY_LENGTH + 5
                and all(c in "0123456789abcdef" for c in stem + name[:-5]))

    # -- access ------------------------------------------------------------
    @staticmethod
    def _stores_job(record: Optional[Dict[str, Any]], job: JobSpec) -> bool:
        """True when ``record``'s embedded job spec matches ``job`` — the
        one identity predicate shared by probe rejection (:meth:`get`) and
        race adoption (:meth:`put`), so the two can never drift apart."""
        stored = (record or {}).get("job", {})
        return (stored.get("case") == job.case
                and stored.get("params") == dict(job.params)
                and stored.get("seed") == job.seed)

    def get(self, job: JobSpec) -> Optional[Dict[str, Any]]:
        """Return the cached result record for ``job`` or ``None``."""
        got = self.transport.get(self.storage_key(job))
        record = json_loads_or_none(got[0]) if got is not None else None
        # Defend against hash collisions and stale schema: the stored spec
        # must round-trip to the same job content.
        if record is None or not self._stores_job(record, job):
            self._count_probe(hit=False)
            return None
        self._count_probe(hit=True)
        return record

    def get_many(self, jobs) -> list:
        """Probe many jobs; returns one record-or-``None`` per job.

        Instead of one blocking round trip per job — which turns a cold
        10k-job grid over a WAN broker into minutes of serial GETs — the
        probes ride the transport's batch primitive
        (:meth:`~repro.campaign.dist.transport.QueueTransport.get_many`):
        over the HTTP broker a whole grid's worth of keys travels in a
        handful of ``/batch`` requests, hits and misses alike, and every
        returned record is validated exactly like :meth:`get`.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        fetched = self.transport.get_many(
            [self.storage_key(job) for job in jobs])
        records = []
        for job, got in zip(jobs, fetched):
            record = json_loads_or_none(got[0]) if got is not None else None
            if record is None or not self._stores_job(record, job):
                self._count_probe(hit=False)
                records.append(None)
            else:
                self._count_probe(hit=True)
                records.append(record)
        return records

    def put(self, job: JobSpec, record: Dict[str, Any]) -> str:
        """Persist ``record`` for ``job``; returns the storage key.

        Creation is a conditional *create* (the transports' one atomic
        primitive), so two workers racing the same key converge on one
        stored record: the loser checks the winner's bytes and adopts
        them when they serve the same job.  Only a corrupt or mismatched
        existing record — a torn write, a hash collision — is healed
        with an unconditional overwrite.
        """
        key = self.storage_key(job)
        payload = dict(record)
        payload.setdefault("job", job.to_record())
        payload["physics"] = self.physics_version
        data = json_dumps_bytes(payload)
        if self.transport.cas(key, data, if_match=None) is not None:
            return key
        current = self.transport.get(key)
        existing = json_loads_or_none(current[0]) if current else None
        if (self._stores_job(existing, job)
                and result_from_record_or_none(existing) is not None):
            return key  # lost the race to an equivalent *servable* record
        # Heal a torn, foreign or schema-stale record — adopting one that
        # get() would reject wedges the key into re-executing forever.
        self.transport.put(key, data)
        return key

    # -- bookkeeping -------------------------------------------------------
    def keys(self) -> list:
        """Every stored entry's transport key (non-entry documents skipped)."""
        return [key for key in self.transport.list("")
                if self.is_entry_key(key)]

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        for key in self.keys():
            if self.transport.delete(key):
                removed += 1
        return removed

    def __len__(self) -> int:
        return len(self.keys())

    def stats(self) -> Dict[str, int]:
        """This instance's probe counters plus the stored entry count
        (see the class note: counters are per-instance, per-process)."""
        return {"hits": self.hits, "misses": self.misses, "entries": len(self)}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.transport!r})"


class ResultCache(TransportResultCache):
    """The filesystem cache: :class:`TransportResultCache` over a directory.

    Preserves the original on-disk layout byte-for-byte — one
    canonical-JSON file per result at ``<root>/<key[:2]>/<key>.json``,
    written atomically — so cache directories from before the transport
    seam keep working, and a broker started with ``--data-dir`` over the
    same directory serves the identical entries
    (``tests/regression/test_cache_layout.py`` pins this down).
    """

    def __init__(self, root: Optional[os.PathLike] = None,
                 physics_version: str = PHYSICS_VERSION):
        # Imported here, not at module top: repro.campaign.dist imports
        # this module back (executor/worker hold caches).
        from repro.campaign.dist.transport import FsTransport

        # expanduser so documented usage like ResultCache("~/.cache/...")
        # lands in the home directory, not a literal "~" dir in the CWD.
        resolved = (Path(root).expanduser() if root is not None
                    else default_cache_dir())
        super().__init__(FsTransport(resolved),
                         physics_version=physics_version)

    def path(self, job: JobSpec) -> Path:
        """On-disk location of ``job``'s entry (whether or not it exists)."""
        return self.root / self.storage_key(job)

    def put(self, job: JobSpec, record: Dict[str, Any]) -> Path:
        """Persist ``record`` for ``job``; returns the on-disk path."""
        return self.root / super().put(job, record)

    def __repr__(self) -> str:
        return f"ResultCache({str(self.root)!r})"


def open_cache(location: Any,
               physics_version: str = PHYSICS_VERSION,
               retries: int = 5, retry_delay: float = 0.2):
    """Build the right cache for a ``--cache``-style argument.

    The cache twin of ``transport_from_address``: ``http://`` /
    ``https://`` URLs get a :class:`TransportResultCache` over the
    broker, a :class:`~repro.campaign.dist.transport.QueueTransport`
    instance is wrapped directly (e.g. a ``MemoryTransport`` shared with
    a thread fleet), an existing cache passes through unchanged, and
    anything else is treated as a cache directory.

    >>> open_cache("http://broker:8123")
    TransportResultCache(HttpTransport('http://broker:8123'))
    """
    from repro.campaign.dist.transport import HttpTransport, QueueTransport

    if isinstance(location, TransportResultCache):
        return location
    if isinstance(location, QueueTransport):
        return TransportResultCache(location,
                                    physics_version=physics_version)
    text = str(location)
    if text.startswith("http://") or text.startswith("https://"):
        transport = HttpTransport(text, retries=retries,
                                  retry_delay=retry_delay)
        return TransportResultCache(transport,
                                    physics_version=physics_version)
    return ResultCache(location, physics_version=physics_version)
