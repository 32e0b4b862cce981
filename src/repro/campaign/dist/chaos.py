"""Deterministic fault injection for the transport seam.

:class:`ChaosTransport` wraps any :class:`~repro.campaign.dist.transport.
QueueTransport` and injects faults described by a declarative
:class:`FaultPlan` — per-op-kind error rates, added latency, full
partition windows, and *torn writes* (the operation is applied to the
inner store but the caller is told it failed — the nastiest case for
an exactly-once queue, because every retry path must tolerate its own
successful past).  Faults are drawn from a seeded RNG, so a chaos run
is reproducible: same plan, same op sequence, same faults.

The wrapper intercepts the three contract primitives (``get_many`` /
``mutate_many`` / ``list_page``) — so every derived operation faults as
the primitive it rides: a ``put`` is a one-op ``mutate_many``, a ``get``
a one-key ``get_many`` — plus the optional server-side ``claim_first``
(exposed only when the inner transport has it, so the queue's capability
detection keeps working).  Wrap a broker's transport and a
fleet's outage handling — worker outage budgets, replay-safe settles,
the executor's drain poll, a cache that degrades mid-run — can be
exercised without killing a real broker.

``ChaosTransport.address`` is always ``None``: the faults live in *this
process*, so handing the inner store's address to a freshly spawned
worker process would silently route it around the chaos.  Fleets under
chaos are therefore thread fleets — exactly what
:class:`~repro.campaign.dist.executor.DistributedExecutor` spawns for
an address-less queue.

>>> from repro.campaign.dist.transport import MemoryTransport
>>> store = MemoryTransport()
>>> chaos = ChaosTransport(store,
...                        FaultPlan(seed=7).fail_next(1, "mutate_many"))
>>> chaos.put("k", b"v")  # doctest: +IGNORE_EXCEPTION_DETAIL
Traceback (most recent call last):
TransportError: chaos: injected mutate_many fault
>>> tag = chaos.put("k", b"v")  # the one-shot fault is spent
>>> chaos.get("k") == (b"v", tag)
True
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.dist.transport import QueueTransport, TransportError
from repro.campaign.obs import MetricsRegistry, get_registry

#: Every op kind a :class:`FaultPlan` can target — the contract
#: primitives plus the server-side claim.  ``"*"`` matches all.
OP_KINDS = ("get_many", "mutate_many", "list_page", "claim_first")

#: Ops that write: only these can tear (apply-then-report-failure).
#: ``claim_first`` belongs here — a torn claim leaves a dangling lease
#: the caller does not know it owns, which must expire and requeue.
MUTATING_OPS = frozenset({"mutate_many", "claim_first"})


def _scope(op: str) -> str:
    """Validate a fault scope: a plan scoped to an op that never runs
    would inject nothing while its test passes."""
    if op != "*" and op not in OP_KINDS:
        raise ValueError(f"unknown op kind {op!r}: expected one of "
                         f"{', '.join(OP_KINDS)} or '*'")
    return op


class FaultPlan:
    """Declarative, seeded fault schedule for a :class:`ChaosTransport`.

    All configuration methods return ``self`` so plans read as one
    chained expression::

        plan = (FaultPlan(seed=11)
                .error_rate(0.05)                  # 5% of every op
                .torn_writes(0.2, "mutate_many")   # torn writes
                .add_latency(0.002, "get_many")
                .fail_between(t0, t1))             # full partition window

    ``op`` scopes are :data:`OP_KINDS` names or ``"*"``; anything else
    raises ``ValueError``.

    Decisions are drawn from ``random.Random(seed)`` in op order (one
    draw per op), so a single-threaded op sequence faults identically
    across runs.  Partition windows and one-shot ``fail_next`` faults
    are deterministic regardless of the RNG — a partitioned store fails
    *every* op whose clock falls in a window.  ``clock`` is injectable
    (``time.monotonic``-like) so window tests never sleep.
    """

    def __init__(self, seed: int = 0, clock=time.monotonic):
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._clock = clock
        self._lock = threading.Lock()
        self._error_rates: Dict[str, float] = {}
        self._torn_rates: Dict[str, float] = {}
        self._latency: Dict[str, float] = {}
        self._one_shot: Dict[str, int] = {}
        self._windows: List[Tuple[float, float]] = []

    # -- configuration (chainable) ----------------------------------------
    def error_rate(self, rate: float, op: str = "*") -> "FaultPlan":
        """Fail this fraction of ``op`` calls (before they reach the
        store)."""
        self._error_rates[_scope(op)] = max(0.0, min(1.0, float(rate)))
        return self

    def torn_writes(self, rate: float, op: str = "*") -> "FaultPlan":
        """Tear this fraction of mutating ``op`` calls: the operation is
        applied, then reported as failed."""
        self._torn_rates[_scope(op)] = max(0.0, min(1.0, float(rate)))
        return self

    def add_latency(self, seconds: float, op: str = "*") -> "FaultPlan":
        """Sleep this long before every ``op`` call."""
        self._latency[_scope(op)] = max(0.0, float(seconds))
        return self

    def fail_next(self, count: int = 1, op: str = "*") -> "FaultPlan":
        """Deterministically fail the next ``count`` calls of ``op`` —
        the drop-one-request regression harness."""
        op = _scope(op)
        self._one_shot[op] = self._one_shot.get(op, 0) + max(0, int(count))
        return self

    def fail_between(self, start: float, stop: float) -> "FaultPlan":
        """Full partition window: every op with ``start <= clock() <
        stop`` fails.  Windows stack."""
        self._windows.append((float(start), float(stop)))
        return self

    # -- decisions (used by ChaosTransport) -------------------------------
    def _rate(self, table: Dict[str, float], op: str) -> float:
        return table.get(op, table.get("*", 0.0))

    def latency_for(self, op: str) -> float:
        """Configured added latency for ``op`` (seconds)."""
        return self._rate(self._latency, op)

    def partitioned(self, now: Optional[float] = None) -> bool:
        """Is the plan's clock currently inside a partition window?"""
        now = self._clock() if now is None else now
        return any(start <= now < stop for start, stop in self._windows)

    def decide(self, op: str, mutating: bool = False) -> Optional[str]:
        """Verdict for one call of ``op``: ``None`` (proceed),
        ``"error"`` (fail before the store) or ``"torn"`` (apply, then
        report failure).  Partition windows and one-shot faults decide
        without touching the RNG; rate verdicts consume exactly one
        draw, so fault sequences are a pure function of
        (seed, op sequence)."""
        with self._lock:
            if self.partitioned():
                return "error"
            for scope in (op, "*"):
                if self._one_shot.get(scope, 0) > 0:
                    self._one_shot[scope] -= 1
                    return "error"
            draw = self._rng.random()
            error = self._rate(self._error_rates, op)
            if draw < error:
                return "error"
            if mutating and draw < error + self._rate(self._torn_rates, op):
                return "torn"
            return None


class ChaosTransport(QueueTransport):
    """A transport that lies, drops and stalls on a schedule; see module
    docs.  ``inner`` is the real store; ``plan`` the fault schedule.

    Injected failures are raised as plain
    :class:`~repro.campaign.dist.transport.TransportError` carrying the
    *inner* store's address — indistinguishable from real outages, which
    is the contract every resilience layer above is tested against.
    Faults are counted in the obs registry (``chaos_faults_total``, by
    op and kind) so a chaos run's injection volume is auditable.
    """

    #: Never the inner address: a spawned process would bypass the chaos.
    address = None

    def __init__(self, inner: QueueTransport,
                 plan: Optional[FaultPlan] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.inner = inner
        self.plan = plan if plan is not None else FaultPlan()
        registry = registry if registry is not None else get_registry()
        self._faults = registry.counter(
            "chaos_faults_total", "faults injected by ChaosTransport, "
            "by op and kind (error/torn)")
        # Capability mirroring: WorkQueue probes `t.claim_first` — a
        # wrapper must not advertise an endpoint its inner store lacks.
        # The instance attribute shadows the class method.
        if not callable(getattr(inner, "claim_first", None)):
            self.claim_first = None  # type: ignore[assignment]

    # -- fault funnel ------------------------------------------------------
    def _apply(self, op: str, call):
        delay = self.plan.latency_for(op)
        if delay > 0.0:
            time.sleep(delay)
        mutating = op in MUTATING_OPS
        verdict = self.plan.decide(op, mutating=mutating)
        address = getattr(self.inner, "address", None)
        if verdict == "error":
            self._faults.inc(op=op, kind="error")
            raise TransportError(f"chaos: injected {op} fault",
                                 address=address)
        result = call()
        if verdict == "torn":
            self._faults.inc(op=op, kind="torn")
            raise TransportError(
                f"chaos: torn {op} (applied, then the reply was dropped)",
                address=address)
        return result

    # -- the primitives ----------------------------------------------------
    def get_many(self, keys: Sequence[str]
                 ) -> List[Optional[Tuple[bytes, str]]]:
        return self._apply("get_many", lambda: self.inner.get_many(keys))

    def mutate_many(self, ops: Sequence[Tuple]) -> List[object]:
        return self._apply("mutate_many", lambda: self.inner.mutate_many(ops))

    def list_page(self, prefix: str, max_keys: int,
                  start_after: str = "") -> Tuple[List[str], Optional[str]]:
        return self._apply(
            "list_page", lambda: self.inner.list_page(
                prefix, max_keys, start_after=start_after))

    # -- optional endpoint (shadowed to None when the inner lacks it) ------
    def claim_first(self, prefix: str = "pending/", worker: str = "",
                    now: Optional[float] = None,
                    lease_seconds: Optional[float] = None) -> Optional[dict]:
        return self._apply(
            "claim_first", lambda: self.inner.claim_first(
                prefix=prefix, worker=worker, now=now,
                lease_seconds=lease_seconds))

    def close(self) -> None:
        closer = getattr(self.inner, "close", None)
        if callable(closer):
            closer()

    def __repr__(self) -> str:
        return f"ChaosTransport({self.inner!r}, seed={self.plan.seed})"
