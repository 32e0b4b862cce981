"""Multi-broker sharding: one ``QueueTransport`` over N backing stores.

One broker is one host.  :class:`ShardedTransport` scales the transport
seam horizontally by consistent-hashing opaque keys across multiple
child transports (typically :class:`~repro.campaign.dist.transport.
HttpTransport` brokers, ``--queue http://b1:8123,http://b2:8123``) while
presenting the exact same contract the queue, cache and cost model
already run on — so a sharded fleet is a drop-in address change, not a
code change.

Routing
-------

Keys are routed by a *derived routing key*, not the raw key: the last
path segment, minus a ``.json`` suffix, minus the queue's 10-digit
priority prefix (``routing_key("pending/0000000017-abc.json") ==
"abc"``).  This co-locates a job's whole document family —
``jobs/<key>.json``, ``pending/<prio>-<key>.json``,
``claims/<prio>-<key>.json``, ``results/<key>.json``,
``done/<prio>-<key>.json``, ``dead/<key>.json`` — on one shard, which is
load-bearing: a broker answering ``POST /claim`` runs the whole
scan-probe-CAS pass against *its own* store, and must find the ticket's
immutable job record there (a missing record is dead-lettered as
corrupt, by design).  Naive per-raw-key routing would scatter the family
and bury healthy jobs.  The hash ring is built from shard *positions*
(``shard-<i>/vnode-<j>``), so routing is a pure function of the ordered
shard list — stable across processes, across router instances, and for
address-less in-memory shards.  Reordering the shard list therefore
changes the mapping; the epoch handshake below turns that mistake into a
hard error instead of a silently split keyspace.

Scatter-gather
--------------

The router implements the three contract primitives and inherits every
derived operation (a ``get`` is a one-key ``get_many``, a ``put`` a one-op
``mutate_many``, a full ``list`` a ``list_page`` walk), so each of them
runs through the same breaker funnel and epoch handshake.
``list_page`` fetches one page per shard from the same global
``start_after``, merges, and returns the first ``max_keys`` keys — the
continuation token stays a plain *keyset* token (the last key returned),
valid because every key a shard did not ship is provably greater than the
merged page's last key.  ``get_many`` / ``mutate_many`` group items per
shard, ride each child's native batch path, and reassemble outcomes in
input order (same-key ops co-locate, so per-key ordering survives).
Batches spanning shards are *not* transactions — but they never were on
a single broker either (per-item outcomes).

``claim_first`` round-robins the shards (a rotating starting offset per
router, so idle polls spread load) and returns the first shard's claim.
The router advertises ``claim_first`` only when *every* shard has one;
otherwise it is ``None`` and the queue runs its client-side scan over
the router — a half-supported fleet must not look drained while
unsupported shards still hold tickets.

Partial failure: breakers and degraded mode
-------------------------------------------

Every routed operation runs through a per-shard
:class:`~repro.campaign.dist.breaker.CircuitBreaker`: ``breaker_failures``
consecutive transport failures trip the shard's breaker open, after
which operations targeting it are *shed* instantly (one
``TransportError`` naming the shard, no connect-retry budget burned)
until ``breaker_cooldown`` seconds pass and a half-open probe is
admitted.  Breaker state is exported through the obs registry
(``shard_breaker_state`` gauge: 0/1/2 = closed/half-open/open;
``shard_ops_shed_total`` counter) and every transition emits a
structured ``[sharding] breaker ...`` log event; the most recent
transitions are also kept on :attr:`ShardedTransport.breaker_events`.

The degraded-mode contract (see ``docs/robustness.md``):

* **claims keep flowing** — :meth:`ShardedTransport.claim_first` skips
  unreachable/open-circuit shards and serves the healthy ring, so
  fleet-wide longest-job-first degrades to *longest-available-first*;
  it raises only when **no** shard answers.
* **reads are strict by default** — scatter-gather ``list_page`` /
  ``get_many`` (and so ``list`` / ``get``) raise fast naming the dead shard
  (correctness-preserving: a partial listing must not masquerade as the
  whole keyspace).  Under ``degraded_reads=True`` they return partial
  results tagged as :class:`~repro.campaign.dist.transport.
  DegradedResult` (a ``list`` subclass carrying ``missing_shards``), so
  status surfaces can render "N of M shards reporting" while
  correctness-critical callers (``WorkQueue.drained``) refuse the
  partial view.
* **writes fail fast** — an operation routed to an open-circuit shard
  raises immediately with the shard's address in the message instead of
  burning the transport's full retry budget.

Epoch / drain protocol
----------------------

Before its first routed operation the router stamps every shard with a
fleet *epoch* document at :data:`EPOCH_KEY` (``meta/epoch``): a hash of
the ordered shard identities (and vnode count).  A shard already stamped
with a *different* epoch raises :class:`EpochMismatch` — a **config
error** (the shard belongs to a differently-shaped fleet), which fails
fast and is never retried or breaker-counted.  A shard that is merely
*unreachable* during the handshake raises a plain ``TransportError``
(retryable, breaker territory): the reachable shards are stamped and
usable immediately, and the unreachable shard's stamp is retried on the
next operation its breaker admits.  To reshard: drain the queue, delete
``meta/epoch`` on every broker, then point the new shard list at them.
See ``docs/distributed.md`` ("Sharded fleets") for the operational
recipe.

>>> from repro.campaign.dist.transport import MemoryTransport
>>> shards = [MemoryTransport(), MemoryTransport()]
>>> router = ShardedTransport(shards)
>>> tag = router.put("jobs/a.json", b"{}")
>>> router.get("jobs/a.json") == (b"{}", tag)
True
>>> router.shard_for("jobs/a.json") is router.shard_for(
...     "pending/0000000007-a.json")  # family co-location
True
>>> sum(t.get("jobs/a.json") is not None for t in shards)  # exactly one
1
"""

from __future__ import annotations

import bisect
import hashlib
import heapq
import re
import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.dist.breaker import (
    CircuitBreaker,
    OPEN,
    state_code,
)
from repro.campaign.dist.transport import (
    DegradedResult,
    QueueTransport,
    TransportError,
)
from repro.campaign.jsonio import json_dumps_bytes, json_loads_or_none
from repro.campaign.obs import MetricsRegistry, StructLogger, get_registry

#: Where each shard's fleet-epoch document lives.  Deliberately outside
#: the queue's state prefixes (``jobs/``/``pending/``/...), so queue and
#: cache listings never see it.
EPOCH_KEY = "meta/epoch"

#: Virtual nodes per shard on the hash ring.  64 points per shard keeps
#: the keyspace split within a few percent of even for small fleets
#: while the ring stays tiny (N*64 bisect entries).
DEFAULT_VNODES = 64

#: The queue's zero-padded cost-priority prefix on ticket basenames
#: (``pending/0000000017-<key>.json``) — stripped before routing so a
#: ticket routes with its job family.
_PRIORITY_PREFIX = re.compile(r"^\d{10}-")


class EpochMismatch(TransportError):
    """A shard is stamped with a *different* fleet epoch.

    This is a configuration error, not an outage: the shard belongs to a
    differently-shaped fleet, and routing against it would read and
    write a split keyspace.  It is raised fast, never retried, and never
    counted against the shard's circuit breaker — retrying cannot fix a
    wrong shard list.  (A shard that is merely unreachable raises a
    plain :class:`~repro.campaign.dist.transport.TransportError`
    instead: that *is* retryable, and breaker territory.)
    """


def routing_key(key: str) -> str:
    """The substring of ``key`` the router hashes.

    Last path segment, minus ``.json``, minus the 10-digit priority
    prefix — i.e. the job key for every document in a job's family, so
    they all land on one shard.  Falls back to the raw key when the
    basename strips to nothing.

    >>> routing_key("jobs/abc123.json")
    'abc123'
    >>> routing_key("pending/0000000017-abc123.json")
    'abc123'
    >>> routing_key("queue.json")
    'queue'
    >>> routing_key("ab/abcdef.json")  # cache entries route on the hash
    'abcdef'
    """
    base = key.rsplit("/", 1)[-1]
    if base.endswith(".json"):
        base = base[:-5]
    base = _PRIORITY_PREFIX.sub("", base)
    return base or key


def fleet_epoch(identities: Sequence[str],
                vnodes: int = DEFAULT_VNODES) -> str:
    """Deterministic epoch id for an ordered shard list.

    Any change that remaps keys — adding, removing or *reordering*
    shards, or changing the vnode count — changes the epoch.
    """
    material = "\n".join([str(int(vnodes))] + [str(i) for i in identities])
    return hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]


def _ring_point(label: str) -> int:
    return int.from_bytes(
        hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


class ShardedTransport(QueueTransport):
    """Consistent-hash router over child transports; see module docs.

    ``shards`` is the ordered list of child transports (order is part of
    the fleet identity — see the epoch protocol).  ``address`` is the
    comma-joined child addresses when every child has one (so a worker
    process can be spawned with the same ``--queue`` string), else
    ``None`` (thread fleets over in-memory shards).

    ``breaker_failures`` / ``breaker_cooldown`` tune the per-shard
    circuit breakers (consecutive failures to trip; seconds shed before
    a half-open probe).  ``degraded_reads=True`` opts scatter-gather
    reads into partial :class:`~repro.campaign.dist.transport.
    DegradedResult` answers instead of raising on the first dead shard.
    """

    def __init__(self, shards: Sequence[QueueTransport],
                 vnodes: int = DEFAULT_VNODES,
                 registry: Optional[MetricsRegistry] = None,
                 check_epoch: bool = True,
                 breaker_failures: int = 5,
                 breaker_cooldown: float = 5.0,
                 breaker_clock=time.monotonic,
                 degraded_reads: bool = False):
        shards = list(shards)
        if not shards:
            raise ValueError("ShardedTransport needs at least one shard")
        self.shards: List[QueueTransport] = shards
        self.vnodes = max(1, int(vnodes))
        self.identities: List[str] = [
            getattr(shard, "address", None) or f"shard-{index}"
            for index, shard in enumerate(shards)]
        addresses = [getattr(shard, "address", None) for shard in shards]
        self.address = (",".join(addresses)
                        if all(addresses) else None)
        self.epoch = fleet_epoch(self.identities, self.vnodes)
        self.degraded_reads = bool(degraded_reads)
        # Ring points hash shard *positions*, not addresses: the mapping
        # must be identical for every router built over the same ordered
        # shard list, including address-less MemoryTransport shards.
        points: List[Tuple[int, int]] = []
        for index in range(len(shards)):
            for vnode in range(self.vnodes):
                points.append(
                    (_ring_point(f"shard-{index}/vnode-{vnode}"), index))
        points.sort()
        self._ring_hashes = [point for point, _ in points]
        self._ring_shards = [index for _, index in points]
        self._claim_offset = 0
        self._lock = threading.Lock()
        self._swept = not check_epoch
        self._stamped = [not check_epoch] * len(shards)
        # A detected epoch conflict is permanent for this router: the
        # ring mapping itself is wrong, so every later op must keep
        # failing fast instead of stamping the reachable shards anyway.
        self._epoch_conflict: Optional[EpochMismatch] = None
        # Capability mirroring (as ChaosTransport does): a server-side
        # claim is only fleet-wide when every shard can run one.
        if not all(callable(getattr(shard, "claim_first", None))
                   for shard in shards):
            self.claim_first = None  # type: ignore[assignment]
        self.breakers: List[CircuitBreaker] = [
            CircuitBreaker(failure_threshold=breaker_failures,
                           cooldown_seconds=breaker_cooldown,
                           clock=breaker_clock)
            for _ in shards]
        #: Recent breaker transitions as ``(identity, old, new)`` tuples —
        #: bounded, newest last; chaos tests assert trip/probe/reclose
        #: sequences from here.
        self.breaker_events: deque = deque(maxlen=256)
        self._breaker_seen = ["closed"] * len(shards)
        self._events = StructLogger("sharding")
        registry = registry if registry is not None else get_registry()
        self._ops = registry.counter(
            "sharded_ops_total",
            "operations routed through the shard router, by op and shard")
        self._shed = registry.counter(
            "shard_ops_shed_total",
            "operations shed because the target shard's circuit was open")
        self._breaker_gauge = registry.gauge(
            "shard_breaker_state",
            "per-shard circuit state: 0=closed 1=half-open 2=open")
        for identity in self.identities:
            self._breaker_gauge.set(0, shard=identity)

    # -- routing -----------------------------------------------------------
    def shard_index(self, key: str) -> int:
        """Index of the shard owning ``key`` (stable and total)."""
        point = _ring_point(routing_key(key))
        i = bisect.bisect_right(self._ring_hashes, point)
        if i == len(self._ring_hashes):
            i = 0
        return self._ring_shards[i]

    def shard_for(self, key: str) -> QueueTransport:
        """The child transport owning ``key``."""
        return self.shards[self.shard_index(key)]

    def _group(self, keys: Sequence[str]) -> Dict[int, List[int]]:
        """Input positions grouped by owning shard, order preserved."""
        groups: Dict[int, List[int]] = {}
        for position, key in enumerate(keys):
            groups.setdefault(self.shard_index(key), []).append(position)
        return groups

    # -- breaker funnel ----------------------------------------------------
    def _note_breaker(self, index: int, new_state: str) -> None:
        """Record a breaker transition (gauge + log + event ring)."""
        old = self._breaker_seen[index]
        if new_state == old:
            return
        self._breaker_seen[index] = new_state
        identity = self.identities[index]
        self._breaker_gauge.set(state_code(new_state), shard=identity)
        self.breaker_events.append((identity, old, new_state))
        self._events.event("breaker", shard=identity, state=new_state,
                           previous=old,
                           failures=self.breakers[index].failures)

    def _shard_call(self, index: int, op: str, call):
        """Run one shard operation through that shard's circuit breaker.

        Open circuit: shed instantly (``shard_ops_shed_total``) with the
        shard's address in the error — no retry budget burned.  The
        shard's epoch stamp is (re)verified first when still pending;
        :class:`EpochMismatch` passes through without touching the
        breaker (config errors are not outages), every other
        ``TransportError`` counts as a failure, and any success recloses.
        """
        breaker = self.breakers[index]
        identity = self.identities[index]
        if not breaker.allow():
            self._shed.inc(op=op, shard=identity)
            raise TransportError(
                f"shard {identity} circuit is open after "
                f"{breaker.failures} consecutive failures: shedding {op} "
                f"(next probe in <= {breaker.cooldown_seconds:.1f}s)",
                address=getattr(self.shards[index], "address", None))
        if self._breaker_seen[index] == OPEN:
            # allow() just admitted the first post-cooldown caller: that
            # *is* the half-open probe — surface it before the outcome.
            self._note_breaker(index, breaker.state)
        try:
            self._ensure_epoch(index)
            result = call()
        except EpochMismatch:
            raise
        except TransportError:
            self._note_breaker(index, breaker.record_failure())
            raise
        self._note_breaker(index, breaker.record_success())
        return result

    # -- epoch handshake ---------------------------------------------------
    def _epoch_doc(self, index: int) -> bytes:
        return json_dumps_bytes({
            "epoch": self.epoch,
            "shard": index,
            "shards": len(self.shards),
            "identity": self.identities[index],
            "identities": self.identities,
            "vnodes": self.vnodes,
        })

    def _ensure_epoch(self, index: int) -> None:
        """Verify ``index``'s epoch stamp (and sweep the fleet once).

        Lazy like every other transport's connection setup: constructing
        a router is free and offline; the first routed operation sweeps
        every shard with one get-or-create.  A shard that is unreachable
        during the sweep does **not** poison the others — its error is
        held (and counted against its breaker), the reachable shards are
        stamped and usable, and the stamp is retried on the next
        operation the shard's breaker admits.  A shard stamped with a
        different epoch raises :class:`EpochMismatch` immediately.
        """
        if self._epoch_conflict is not None:
            raise self._epoch_conflict
        if self._swept and self._stamped[index]:
            return
        with self._lock:
            if self._epoch_conflict is not None:
                raise self._epoch_conflict
            if not self._swept:
                self._swept = True
                for other in range(len(self.shards)):
                    if other == index or self._stamped[other]:
                        continue
                    try:
                        self._stamp_epoch(other)
                        self._stamped[other] = True
                    except EpochMismatch as exc:
                        self._epoch_conflict = exc
                        raise
                    except TransportError:
                        self._note_breaker(
                            other, self.breakers[other].record_failure())
            if not self._stamped[index]:
                try:
                    # Raises on unreachable: the enclosing _shard_call
                    # counts it against this shard's breaker.
                    self._stamp_epoch(index)
                except EpochMismatch as exc:
                    self._epoch_conflict = exc
                    raise
                self._stamped[index] = True

    def _stamp_epoch(self, index: int) -> None:
        """Create-or-verify ``meta/epoch`` on one shard.

        A fresh shard is stamped (conditional create, so two routers
        starting together converge); a shard stamped with this fleet's
        epoch passes; a shard stamped with a *different* epoch raises
        :class:`EpochMismatch` — it belongs to a different fleet shape
        and must be drained and un-stamped before being re-pointed.
        Garbage (a torn write) is healed in place.
        """
        shard = self.shards[index]
        payload = self._epoch_doc(index)
        got = shard.get(EPOCH_KEY)
        if got is None:
            if shard.cas(EPOCH_KEY, payload, if_match=None) is not None:
                return
            got = shard.get(EPOCH_KEY)
            if got is None:  # racing drain deleted it: claim again
                shard.put(EPOCH_KEY, payload)
                return
        existing = json_loads_or_none(got[0])
        if not isinstance(existing, dict) or "epoch" not in existing:
            shard.put(EPOCH_KEY, payload)  # heal a torn stamp
            return
        if str(existing.get("epoch", "")) != self.epoch:
            raise EpochMismatch(
                f"shard {self.identities[index]} belongs to a different "
                f"fleet epoch ({existing.get('epoch')!r}, this router is "
                f"{self.epoch!r}): drain it and delete {EPOCH_KEY!r} "
                f"before re-pointing",
                address=getattr(shard, "address", None))

    # -- the primitives ----------------------------------------------------
    def get_many(self, keys: Sequence[str]
                 ) -> List[Optional[Tuple[bytes, str]]]:
        keys = list(keys)
        out: List[Optional[Tuple[bytes, str]]] = [None] * len(keys)
        groups = self._group(keys)
        missing: List[str] = []
        for index, positions in groups.items():
            self._ops.inc(op="get_many", shard=self.identities[index])
            try:
                got = self._shard_call(
                    index, "get_many",
                    lambda i=index, p=positions: self.shards[i].get_many(
                        [keys[q] for q in p]))
            except EpochMismatch:
                raise
            except TransportError:
                if not self.degraded_reads:
                    raise
                missing.append(self.identities[index])
                continue
            for position, outcome in zip(positions, got):
                out[position] = outcome
        if missing and len(missing) == len(groups):
            raise TransportError(
                f"all {len(missing)} addressed shards unreachable in "
                f"get_many ({', '.join(missing)})", address=self.address)
        if missing:
            # NB: a missing shard's keys read as None — indistinguishable
            # from absent keys except through the marker, which is why
            # correctness-critical callers must check is_degraded().
            return DegradedResult(out, missing_shards=missing)
        return out

    def mutate_many(self, ops: Sequence[Tuple]) -> List[object]:
        """Per-shard grouped mixed batch; outcomes in input order.

        Ops on the *same key* keep their relative order (they route to
        the same shard, and each child applies its batch in order);
        cross-shard ordering is concurrent — which matches the contract,
        since batches were never transactions.  A batch spanning a dead
        shard raises after the healthy shards' groups were applied
        (exactly like a connection dying mid-batch on a single broker).
        """
        ops = list(ops)
        out: List[object] = [None] * len(ops)
        for index, positions in self._group(
                [op[1] for op in ops]).items():
            self._ops.inc(op="mutate_many", shard=self.identities[index])
            outcomes = self._shard_call(
                index, "mutate_many",
                lambda i=index, p=positions: self.shards[i].mutate_many(
                    [ops[q] for q in p]))
            for position, outcome in zip(positions, outcomes):
                out[position] = outcome
        return out

    def list_page(self, prefix: str, max_keys: int,
                  start_after: str = "") -> Tuple[List[str], Optional[str]]:
        """One globally-sorted page, scatter-gathered from every shard.

        Each shard is asked for its own first ``max_keys`` keys after
        the same global ``start_after``; the merged smallest ``max_keys``
        form the page.  The token stays a plain keyset token (the last
        key returned): any key a shard did **not** ship is greater than
        that shard's last shipped key, which is >= the page's last key —
        so ``start_after=token`` never skips a surviving key, and keys
        deleted or inserted between pages behave exactly as on a single
        store.  Keys are disjoint by routing, except intentionally
        replicated documents (``meta/epoch``), which the merge
        deduplicates.  Unreachable shards raise, or under
        ``degraded_reads`` tag the page as a partial
        :class:`~repro.campaign.dist.transport.DegradedResult` — which
        the derived ``list`` carries through to the whole listing.
        """
        self._ops.inc(op="list_page", shard="*")
        max_keys = max(1, int(max_keys))
        pages: List[List[str]] = []
        missing: List[str] = []
        shard_truncated = False
        for index in range(len(self.shards)):
            try:
                page, token = self._shard_call(
                    index, "list_page",
                    lambda i=index: self.shards[i].list_page(
                        prefix, max_keys, start_after=start_after))
            except EpochMismatch:
                raise
            except TransportError:
                if not self.degraded_reads:
                    raise
                missing.append(self.identities[index])
                continue
            pages.append(page)
            shard_truncated = shard_truncated or token is not None
        if missing and not pages:
            raise TransportError(
                f"all {len(self.shards)} shards unreachable paging "
                f"{prefix!r} ({', '.join(missing)})", address=self.address)
        merged: List[str] = []
        for key in heapq.merge(*pages):
            if not merged or key != merged[-1]:
                merged.append(key)
        page = merged[:max_keys]
        more = shard_truncated or len(merged) > max_keys
        if missing:
            page = DegradedResult(page, missing_shards=missing)
        if page and more:
            return page, page[-1]
        return page, None

    # -- server-side claim -------------------------------------------------
    def claim_first(self, prefix: str = "pending/", worker: str = "",
                    now: Optional[float] = None,
                    lease_seconds: Optional[float] = None) -> Optional[dict]:
        """Server-side claim across the fleet, best-ticket shard first.

        Each shard is probed for its first pending ticket (one
        ``max_keys=1`` page); shards are then tried in the global sort
        order of those ticket names — the names carry the queue's
        zero-padded cost priority, so the fleet keeps longest-job-first
        scheduling instead of degrading to per-shard priority.  Ties and
        races fall back to a rotating round-robin offset, which also
        spreads concurrent idle pollers.  A shard whose pending listing
        is empty has nothing claimable and is skipped (an enqueue racing
        the probe is picked up by the caller's next poll).

        **Degraded mode**: a shard that is unreachable — or whose
        circuit is open — is skipped, and the healthy ring keeps
        serving; global longest-job-first degrades to
        longest-*available*-first until the shard heals (its tickets
        stay safe on its store, and ``drained()`` refuses to report a
        fleet with an unreadable shard as empty).  Only when *no* shard
        answers does the claim raise ``TransportError``.

        Only routers whose every shard has a server-side claim expose
        this method; otherwise ``claim_first`` is ``None``.
        """
        count = len(self.shards)
        with self._lock:
            start = self._claim_offset
            self._claim_offset = (self._claim_offset + 1) % count
        rotated = [(start + step) % count for step in range(count)]
        ranked: List[Tuple[str, int]] = []
        unreachable: List[str] = []
        for index in rotated:
            try:
                page, _ = self._shard_call(
                    index, "claim_probe",
                    lambda i=index: self.shards[i].list_page(prefix, 1))
            except EpochMismatch:
                raise
            except TransportError:
                unreachable.append(self.identities[index])
                continue
            if page:
                ranked.append((page[0], index))
        if not ranked and len(unreachable) == count:
            raise TransportError(
                f"claim failed: all {count} shards unreachable "
                f"({', '.join(unreachable)})", address=self.address)
        ranked.sort(key=lambda pair: pair[0])  # stable: ties keep rotation
        for _, index in ranked:
            self._ops.inc(op="claim_first", shard=self.identities[index])
            try:
                outcome = self._shard_call(
                    index, "claim_first",
                    lambda i=index: self.shards[i].claim_first(
                        prefix=prefix, worker=worker, now=now,
                        lease_seconds=lease_seconds))
            except EpochMismatch:
                raise
            except TransportError:
                # Died between probe and claim: its tickets stay on its
                # store (requeued work, not lost work) — serve the rest.
                continue
            if outcome is not None:
                return outcome
        return None

    # -- telemetry / lifecycle ---------------------------------------------
    def shards_reporting(self) -> Tuple[int, int]:
        """``(reachable, total)`` by circuit state — the "N of M shards
        reporting" figure status surfaces render.  A shard counts as
        reporting unless its breaker is currently open."""
        up = sum(1 for breaker in self.breakers if breaker.state != OPEN)
        return up, len(self.shards)

    def degraded_shards(self) -> List[str]:
        """Identities of shards currently shed (open circuit)."""
        return [identity for identity, breaker
                in zip(self.identities, self.breakers)
                if breaker.state == OPEN]

    def stats(self) -> Dict[str, Optional[dict]]:
        """Per-shard ``GET /stats`` snapshots keyed by shard identity.

        Shards without a ``stats`` endpoint (in-memory, filesystem) — and
        shards that are unreachable right now — report ``None``: the
        caller aggregates what exists.  Deliberately
        outside the breaker/epoch funnel: a telemetry probe must neither
        trip circuits nor write epoch stamps.
        """
        out: Dict[str, Optional[dict]] = {}
        for index, shard in enumerate(self.shards):
            probe = getattr(shard, "stats", None)
            if not callable(probe):
                out[self.identities[index]] = None
                continue
            try:
                out[self.identities[index]] = probe()
            except TransportError:
                out[self.identities[index]] = None
        return out

    def close(self) -> None:
        for shard in self.shards:
            closer = getattr(shard, "close", None)
            if callable(closer):
                closer()

    def __repr__(self) -> str:
        return f"ShardedTransport({self.identities!r})"


def split_shard_urls(address: str) -> Optional[List[str]]:
    """Parse ``address`` as a comma-separated broker URL list.

    Returns the URL list when ``address`` holds two or more comma-
    separated ``http(s)://`` URLs (the ``--queue http://b1,http://b2``
    syntax), else ``None`` — single URLs, directories, and anything with
    a stray comma that is not all-URLs are left to the plain dispatch.
    """
    if "," not in address:
        return None
    parts = [part.strip() for part in address.split(",") if part.strip()]
    if len(parts) < 2:
        return None
    if not all(part.startswith(("http://", "https://")) for part in parts):
        return None
    return parts
