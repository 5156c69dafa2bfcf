"""The ordered, composable interceptor stack shared by the sim and emulator.

An :class:`Interceptor` sees every operation crossing one account's
pipeline — on the simulated fabric *and* on the emulator — through three
hooks:

* :meth:`~Interceptor.before` runs in stack order before any time is
  charged; raising here rejects the operation (throttles and injected
  outages do exactly that);
* :meth:`~Interceptor.after` runs in reverse stack order once the round
  trip has completed;
* :meth:`~Interceptor.failed` runs in reverse stack order when the
  operation was rejected or timed out, with the terminating error.

The canonical stack order is ``trace -> auth -> analytics -> faults ->
throttles`` (then the backend's cost-model/data-plane stage, which is
not an interceptor: it is the backend itself).  Observers sit early so
their ``after``/``failed`` hooks see the verdicts of everything behind
them; the tracing stage (:class:`repro.observability.Tracer`) sits
first of all via :meth:`Pipeline.add_first`, so every span records the
whole stack's verdict.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..cluster.ops import QUEUE_MESSAGE_KINDS, TABLE_ENTITY_KINDS, Service
from ..storage.analytics import RequestRecord
from ..storage.errors import ServerBusyError, StorageError
from .context import OpContext

__all__ = [
    "Interceptor",
    "Pipeline",
    "AuthInterceptor",
    "AnalyticsInterceptor",
    "FaultInterceptor",
    "GeoRoutingInterceptor",
    "GeoSecondaryInterceptor",
    "ThrottleInterceptor",
]


class Interceptor:
    """Base class for pipeline stages; override any subset of the hooks."""

    #: Stable name used for ordered insertion (``Pipeline.add(before=...)``).
    name = "interceptor"

    def before(self, ctx: OpContext) -> None:
        """Inspect/annotate ``ctx`` before the round trip; raise to reject."""

    def after(self, ctx: OpContext) -> None:
        """Observe a completed round trip."""

    def failed(self, ctx: OpContext, exc: BaseException) -> None:
        """Observe a rejected or timed-out round trip."""


class Pipeline:
    """An ordered interceptor chain: before in order, after/failed reversed.

    The three hook chains are **pre-bound**: every mutation of the stack
    recomputes flat lists of bound hook methods, with stages that inherit
    a base-class no-op hook skipped entirely.  ``run_before``/``run_after``
    /``run_failed`` then just walk a prebuilt list — no per-call
    ``reversed()`` allocation, no attribute lookups, and no calls into
    empty hooks on the hot path (the default fault+throttle stack has no
    ``after``/``failed`` observers at all, so a completed round trip pays
    nothing there).
    """

    def __init__(self, interceptors: Sequence[Interceptor] = ()) -> None:
        self._interceptors: List[Interceptor] = list(interceptors)
        self._rebind()

    def _rebind(self) -> None:
        """Recompute the pre-bound hook chains after a stack mutation."""
        base = Interceptor
        self._before_hooks = [
            i.before for i in self._interceptors
            if type(i).before is not base.before]
        self._after_hooks = [
            i.after for i in reversed(self._interceptors)
            if type(i).after is not base.after]
        self._failed_hooks = [
            i.failed for i in reversed(self._interceptors)
            if type(i).failed is not base.failed]

    def add(self, interceptor: Interceptor, *,
            before: Optional[str] = None) -> Interceptor:
        """Append ``interceptor`` (or insert it before the named stage)."""
        if before is not None:
            for i, existing in enumerate(self._interceptors):
                if existing.name == before:
                    self._interceptors.insert(i, interceptor)
                    self._rebind()
                    return interceptor
        self._interceptors.append(interceptor)
        self._rebind()
        return interceptor

    def add_first(self, interceptor: Interceptor) -> Interceptor:
        """Insert ``interceptor`` at the very front of the stack.

        Front-of-stack observers (tracing) see every later stage's
        rejection in ``failed`` and every completion in ``after``.
        """
        self._interceptors.insert(0, interceptor)
        self._rebind()
        return interceptor

    def remove(self, interceptor: Interceptor) -> None:
        self._interceptors.remove(interceptor)
        self._rebind()

    def stages(self) -> List[str]:
        """The stack order, by stage name (diagnostics, docs, tests)."""
        return [i.name for i in self._interceptors]

    def __len__(self) -> int:
        return len(self._interceptors)

    def run_before(self, ctx: OpContext) -> None:
        for hook in self._before_hooks:
            hook(ctx)

    def run_after(self, ctx: OpContext) -> None:
        for hook in self._after_hooks:
            hook(ctx)

    def run_failed(self, ctx: OpContext, exc: BaseException) -> None:
        ctx.error = exc
        for hook in self._failed_hooks:
            hook(ctx, exc)


class AuthInterceptor(Interceptor):
    """Request authorization at the front of the stack.

    ``authorizer(ctx)`` raises a
    :class:`~repro.storage.errors.StorageError` (typically
    :class:`~repro.storage.errors.AuthenticationFailedError`) to reject the
    operation before it touches the fabric — the slot where the 2012
    service checked the account key or SAS signature.
    """

    name = "auth"

    def __init__(self, authorizer: Callable[[OpContext], None]) -> None:
        self.authorizer = authorizer

    def before(self, ctx: OpContext) -> None:
        self.authorizer(ctx)


class AnalyticsInterceptor(Interceptor):
    """Storage Analytics (August 2011) as a pipeline observer.

    Appends one :class:`~repro.storage.analytics.RequestRecord` per round
    trip — successes in ``after``, rejections/timeouts in ``failed`` —
    mirroring the $logs line the real service would have written.
    Installed by :func:`repro.storage.analytics.attach_analytics`.
    """

    name = "analytics"

    def __init__(self, log, metrics) -> None:
        self.log = log
        self.metrics = metrics

    def _observe(self, record) -> None:
        self.log.append(record)
        self.metrics.observe(record)

    def after(self, ctx: OpContext) -> None:
        op = ctx.op
        self._observe(RequestRecord(
            time=ctx.started_at, service=op.service.value,
            operation=op.kind.value, partition=op.partition,
            nbytes=op.nbytes, end_to_end_latency=ctx.elapsed,
            server_latency=ctx.server_latency,
            status_code=201 if op.is_write else 200,
            is_write=op.is_write,
        ))

    def failed(self, ctx: OpContext, exc: BaseException) -> None:
        if not isinstance(exc, StorageError):
            return  # non-protocol failures never produced a $logs line
        op = ctx.op
        self._observe(RequestRecord(
            time=ctx.started_at, service=op.service.value,
            operation=op.kind.value, partition=op.partition,
            nbytes=op.nbytes, end_to_end_latency=ctx.elapsed,
            server_latency=0.0,
            status_code=exc.status_code, error_code=exc.error_code,
            is_write=op.is_write,
        ))


class FaultInterceptor(Interceptor):
    """Consult the account's :class:`~repro.faults.plan.FaultPlan`.

    Raises the scheduled error for outage/throttle/transient/crash faults,
    stretches ``ctx.latency_factor`` for LATENCY windows, and parks fired
    TIMEOUT specs on the context for the backend to burn.  ``owner`` is
    the object whose ``fault_plan`` attribute holds the plan (or None),
    read on every op; ``cluster`` is the
    :class:`~repro.cluster.model.StorageCluster` on the sim backend and
    ``None`` on the emulator (no placement model there).
    """

    name = "faults"

    def __init__(self, owner, *, cluster=None) -> None:
        self._owner = owner
        self.cluster = cluster

    def before(self, ctx: OpContext) -> None:
        plan = self._owner.fault_plan
        if plan is None:
            return
        factor, timeout_spec = plan.pre_execute(
            ctx.op, ctx.started_at, self.cluster)
        ctx.latency_factor *= factor
        if timeout_spec is not None and ctx.timeout_spec is None:
            ctx.timeout_spec = timeout_spec
            ctx.fault_plan = plan


class GeoRoutingInterceptor(Interceptor):
    """Region-scale routing on a geo account's *primary* pipeline.

    Sits just before the ``faults`` stage and delegates every admission
    decision to the account's :class:`~repro.geo.controller.GeoController`:
    an open ``region_outage`` window (or a completed failover, which
    decommissions the old primary) rejects the op with
    :class:`~repro.storage.errors.RegionDownError`; a planned-failover
    drain freezes mutations only.  The RA-GRS client
    (:class:`~repro.geo.account.GeoClient`) catches the rejection and may
    re-issue *reads* against the secondary endpoint.
    """

    name = "geo"

    def __init__(self, controller) -> None:
        self.controller = controller

    def before(self, ctx: OpContext) -> None:
        self.controller.check_primary(ctx)


class GeoSecondaryInterceptor(Interceptor):
    """RA-GRS semantics on a geo account's *secondary* pipeline.

    Until the secondary is promoted, every mutating operation (including
    ``GetMessage``, which consumes visibility) is rejected with
    :class:`~repro.storage.errors.SecondaryReadOnlyError` — the 403 the
    real ``-secondary`` endpoint returned; reads pass through.  After
    promotion the endpoint is a full primary.  A ``region_outage`` window
    scheduled against the secondary region rejects everything.
    """

    name = "geo"

    def __init__(self, controller) -> None:
        self.controller = controller

    def before(self, ctx: OpContext) -> None:
        self.controller.check_secondary(ctx)


class ThrottleInterceptor(Interceptor):
    """Enforce the published per-second scalability targets (paper §IV).

    Sliding windows for the account-wide 5,000 tx/s and 3 GB/s targets
    plus the 500 msg/s-per-queue and 500 ent/s-per-partition windows,
    rejecting with :class:`~repro.storage.errors.ServerBusyError` exactly
    where the real service would.  The caching service is billed and
    scaled separately, so its ops are exempt.

    Every window has the same length and reads the same clock, so one
    log of admissions serves them all: an entry records what one op
    added to each window it was admitted by, and leaves all of them at
    the same instant.  An op admitted by the transaction window and
    rejected by a later one keeps its earlier charges, as a chain of
    :class:`~repro.cluster.ratelimit.SlidingWindowThrottle` would
    (``tests/pipeline/test_throttle_log.py`` holds it to that chain).
    Instants must not decrease, which holds for every backend clock.
    """

    name = "throttles"

    def __init__(self, limits, *, window_s: float = 1.0,
                 retry_after_s: float = 1.0) -> None:
        if window_s <= 0:
            raise ValueError("window must be > 0")
        self.limits = limits
        self.window_s = window_s
        self.retry_after_s = retry_after_s
        self._window = float(window_s)
        self._tx_limit = float(limits.account_transactions_per_second)
        self._bytes_limit = float(limits.account_bandwidth_bytes_per_second)
        self._queue_limit = float(limits.queue_messages_per_second)
        self._entity_limit = float(limits.partition_entities_per_second)
        for limit in (self._tx_limit, self._bytes_limit, self._queue_limit,
                      self._entity_limit):
            if limit <= 0:
                raise ValueError("limit must be > 0")
        #: ``(instant, transactions, bytes, keyed sums or None, key)``
        #: per admission, oldest first.
        self._log: Deque[Tuple[float, int, int, Optional[dict], str]] = (
            deque())
        #: Units in the window: account-wide, and per queue / partition.
        self._tx = 0.0
        self._bytes = 0.0
        self._queue_msgs: Dict[str, float] = {}
        self._entities: Dict[str, float] = {}

    def _busy(self, name: str, limit: float) -> ServerBusyError:
        return ServerBusyError(
            f"throttled: {name} exceeded {limit:g}/{self._window:g}s",
            retry_after=self.retry_after_s)

    def before(self, ctx: OpContext) -> None:
        op = ctx.op
        service = op.service
        if service is Service.CACHE:
            # Billed and scaled separately from the storage account: cache
            # ops do not count against the 5,000 tx/s or 3 GB/s targets.
            return
        now = ctx.started_at
        log = self._log
        horizon = now - self._window
        while log and log[0][0] <= horizon:
            _, units, nbytes, sums, key = log.popleft()
            self._tx -= units
            self._bytes -= nbytes
            if sums is not None:
                sums[key] -= units
        units = op.units
        if self._tx + units > self._tx_limit:
            raise self._busy("account transactions", self._tx_limit)
        nbytes = op.nbytes
        if nbytes and self._bytes + nbytes > self._bytes_limit:
            self._tx += units
            log.append((now, units, 0, None, ""))
            raise self._busy("account bandwidth", self._bytes_limit)
        sums = None
        kind = op.kind
        if service is Service.QUEUE:
            if kind in QUEUE_MESSAGE_KINDS:
                sums, limit = self._queue_msgs, self._queue_limit
        elif service is Service.TABLE and kind in TABLE_ENTITY_KINDS:
            sums, limit = self._entities, self._entity_limit
        self._tx += units
        self._bytes += nbytes
        if sums is None:
            log.append((now, units, nbytes, None, ""))
            return
        key = op.partition
        in_window = sums.get(key, 0.0)
        if in_window + units > limit:
            log.append((now, units, nbytes, None, ""))
            raise self._busy(
                f"queue {key!r} messages" if sums is self._queue_msgs
                else f"table partition {key!r} entities", limit)
        sums[key] = in_window + units
        log.append((now, units, nbytes, sums, key))
