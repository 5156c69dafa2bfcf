"""The deterministic fault-injection engine.

A :class:`FaultPlan` owns a set of :class:`~repro.faults.spec.FaultSpec`
schedules plus one seeded RNG.  Both backends consult the plan on every
operation through the shared pipeline's
:class:`~repro.pipeline.interceptors.FaultInterceptor` (``cluster`` is the
:class:`~repro.cluster.model.StorageCluster` on the sim backend and
``None`` on the emulator, which has no placement model), and on the queue
data plane (:meth:`drop_message` / :meth:`duplicate_delivery`, wired into
the registry's queue operation bodies).

Determinism: the simulation itself is deterministic, so the sequence of
plan queries — and therefore the sequence of RNG draws — is identical
between runs with the same plan, seed, and workload.  Every injected
fault is appended to :attr:`FaultPlan.events`, giving a reproducible
trace that tests can diff byte-for-byte.  Probability-1 specs draw no
randomness at all.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..storage.errors import (
    OperationTimedOutError,
    RegionDownError,
    ServerBusyError,
    TransientServerError,
)
from .spec import DN_KINDS, FaultEvent, FaultKind, FaultSpec

__all__ = ["FaultPlan"]


class FaultPlan:
    """A seeded, reproducible schedule of fabric faults."""

    def __init__(self, specs: Iterable[FaultSpec] = (), *, seed: int = 0) -> None:
        import numpy as np

        self.specs: List[FaultSpec] = []
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        #: Reproducible trace of every injected fault occurrence.
        self.events: List[FaultEvent] = []
        #: Occurrence counts per fault kind.
        self.counts: Dict[FaultKind, int] = {}
        #: PARTITION_CRASH specs whose failover (reassignment) completed.
        self._reassigned: Set[int] = set()
        #: Synchronous observers of injected faults, ``listener(event)``.
        #: The tracing layer subscribes here to attribute injected
        #: anomalies on the span they hit (``Span.fault``).
        self._listeners: List[callable] = []
        for spec in specs:
            self.add(spec)

    # -- construction ------------------------------------------------------
    def add(self, spec: FaultSpec) -> "FaultPlan":
        """Append one spec (fluent)."""
        if not isinstance(spec, FaultSpec):
            raise TypeError(f"expected FaultSpec, got {spec!r}")
        self.specs.append(spec)
        return self

    def __len__(self) -> int:
        return len(self.specs)

    # -- internals ---------------------------------------------------------
    def _sample(self, probability: float) -> bool:
        """Bernoulli draw; degenerate probabilities skip the RNG entirely
        so adding a certain fault never perturbs another spec's draws."""
        if probability >= 1.0:
            return True
        if probability <= 0.0:
            return False
        return float(self._rng.random()) < probability

    def _record(self, kind: FaultKind, service: str, partition: str,
                now: float) -> None:
        event = FaultEvent(now, kind, str(service), partition)
        self.events.append(event)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        for listener in self._listeners:
            listener(event)

    def subscribe(self, listener) -> None:
        """Register ``listener(event)``, called at each injection (idempotent).

        Listeners observe; they must not raise or draw randomness — the
        plan's event sequence is part of the determinism contract.
        """
        if listener not in self._listeners:
            self._listeners.append(listener)

    def trace(self) -> List[tuple]:
        """The event trace as plain tuples (stable, diffable)."""
        return [e.as_tuple() for e in self.events]

    def record_external(self, kind: FaultKind, service: str, partition: str,
                        now: float) -> None:
        """Record a fault injected by a cooperating layer.

        The geo stack (:mod:`repro.geo`) strips region-scale specs out of
        the plan and injects them itself — through the routing interceptor
        and the replication shipper — but reports every occurrence back
        here so the reproducible trace and the listeners (span/fault
        attribution) see one unified stream.
        """
        self._record(kind, service, partition, now)

    # -- fabric hook -------------------------------------------------------
    def pre_execute(self, op, now: float, cluster) -> Tuple[float, Optional[FaultSpec]]:
        """Consult the plan for one operation, before any time is charged.

        Raises the scheduled error for OUTAGE / THROTTLE / TRANSIENT_ERROR /
        PARTITION_CRASH faults.  Returns ``(latency_factor, timeout_spec)``:
        the multiplier active LATENCY windows impose, and the TIMEOUT spec
        that fired (the caller burns ``timeout_after`` seconds and raises),
        or ``None``.
        """
        service = op.service.value
        factor = 1.0
        timeout_spec: Optional[FaultSpec] = None
        for index, spec in enumerate(self.specs):
            kind = spec.kind
            if kind is FaultKind.PARTITION_CRASH:
                self._check_crash(index, spec, op, now, cluster)
                continue
            if kind is FaultKind.REPLICATION_STALL:
                # Interpreted by the geo replication shipper, never by the
                # per-op data plane (a stall degrades freshness, not ops).
                continue
            if kind in DN_KINDS:
                # Interpreted by the service tier's chaos campaign
                # (crash/slow a whole data node); a node death is not an
                # op-level event, so the per-op engine leaves it alone.
                continue
            if not spec.active(now) or not spec.matches(service, op.partition):
                continue
            if kind is FaultKind.REGION_OUTAGE:
                # On a geo account this spec is stripped out and handled by
                # the routing interceptor; reaching it here means the
                # account is single-region, where a region outage is a
                # total outage of every service.
                if self._sample(spec.probability):
                    self._record(kind, service, op.partition, now)
                    raise RegionDownError(
                        f"{service} unavailable (injected region outage)",
                        retry_after=self._retry_after(spec, cluster),
                    )
            elif kind is FaultKind.OUTAGE:
                if self._sample(spec.probability):
                    self._record(kind, service, op.partition, now)
                    raise ServerBusyError(
                        f"{service} unavailable (injected outage)",
                        retry_after=self._retry_after(spec, cluster),
                    )
            elif kind is FaultKind.THROTTLE:
                if self._sample(spec.probability):
                    self._record(kind, service, op.partition, now)
                    raise ServerBusyError(
                        f"{service} throttled (injected throttle storm)",
                        retry_after=self._retry_after(spec, cluster),
                    )
            elif kind is FaultKind.TRANSIENT_ERROR:
                if self._sample(spec.probability):
                    self._record(kind, service, op.partition, now)
                    raise TransientServerError(
                        f"{service} internal error (injected transient fault)",
                        retry_after=self._retry_after(spec, cluster),
                    )
            elif kind is FaultKind.TIMEOUT:
                if timeout_spec is None and self._sample(spec.probability):
                    timeout_spec = spec
            elif kind is FaultKind.LATENCY:
                factor *= spec.latency_factor
        return factor, timeout_spec

    def record_timeout(self, spec: FaultSpec, op, now: float) -> OperationTimedOutError:
        """Log a fired TIMEOUT fault; returns the error to raise."""
        service = op.service.value
        self._record(FaultKind.TIMEOUT, service, op.partition, now)
        return OperationTimedOutError(
            f"{service} request timed out after {spec.timeout_after}s "
            f"(injected timeout)",
            retry_after=self._retry_after(spec, cluster=None),
        )

    def _retry_after(self, spec: FaultSpec, cluster) -> float:
        if spec.retry_after is not None:
            return spec.retry_after
        if cluster is not None:
            return cluster.cal.throttle_retry_after_s
        return 1.0

    def _check_crash(self, index: int, spec: FaultSpec, op, now: float,
                     cluster) -> None:
        """PARTITION_CRASH: fail the crashed server's range during the
        failover window, then reassign it to a fresh server."""
        service = op.service.value
        if spec.service is not None and spec.service != service:
            return
        if cluster is None:
            # No placement model (the emulator backend): the crash hits the
            # named partition only, and there is no server pool to reassign
            # — the range "recovers" when the window closes.
            if spec.partition is not None and spec.partition != op.partition:
                return
            if spec.active(now):
                self._record(FaultKind.PARTITION_CRASH, service,
                             op.partition, now)
                raise ServerBusyError(
                    f"{service} partition server crashed; range of "
                    f"{op.partition!r} is being reassigned",
                    retry_after=self._retry_after(spec, cluster),
                )
            return
        pool = cluster.pool_for(op.service)
        if spec.partition is not None and (
                pool.server_key(op.partition) != pool.server_key(spec.partition)):
            return  # op lands on a different partition server
        if spec.active(now):
            self._record(FaultKind.PARTITION_CRASH, service, op.partition, now)
            raise ServerBusyError(
                f"{service} partition server crashed; range of "
                f"{op.partition!r} is being reassigned",
                retry_after=self._retry_after(spec, cluster),
            )
        if now >= spec.end and index not in self._reassigned:
            # Failover complete: the range moves to a fresh server (empty
            # queue, cold counters) — the reassignment of Calder SOSP'11.
            self._reassigned.add(index)
            pool.evict(spec.partition if spec.partition is not None
                       else op.partition)

    # -- queue data-plane hooks --------------------------------------------
    def _queue_event(self, kind: FaultKind, queue: str, now: float) -> bool:
        for spec in self.specs:
            if spec.kind is not kind:
                continue
            if not spec.active(now) or not spec.matches("queue", queue):
                continue
            if self._sample(spec.probability):
                self._record(kind, "queue", queue, now)
                return True
        return False

    def drop_message(self, queue: str, now: float) -> bool:
        """Should this acked PutMessage silently lose its payload?"""
        return self._queue_event(FaultKind.MESSAGE_LOSS, queue, now)

    def duplicate_delivery(self, queue: str, now: float) -> bool:
        """Should this gotten message stay visible (duplicate delivery)?"""
        return self._queue_event(FaultKind.DUPLICATE_DELIVERY, queue, now)
