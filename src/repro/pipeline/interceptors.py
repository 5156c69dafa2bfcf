"""The ordered, composable interceptor stack shared by both executors.

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
throttles`` (then the executor's cost-model/data-plane stage, which is
not an interceptor: it is the backend itself).  Observers sit early so
their ``after``/``failed`` hooks see the verdicts of everything behind
them; the tracing stage (:class:`repro.observability.Tracer`) sits
first of all via :meth:`Pipeline.add_first`, so every span records the
whole stack's verdict.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from ..cluster.ops import QUEUE_MESSAGE_KINDS, TABLE_ENTITY_KINDS, Service
from ..cluster.ratelimit import SlidingWindowThrottle
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
    TIMEOUT specs on the context for the executor to burn.  ``cluster`` is
    the :class:`~repro.cluster.model.StorageCluster` on the sim backend and
    ``None`` on the emulator (no placement model there).
    """

    name = "faults"

    def __init__(self, plan_source: Callable[[], Optional[object]], *,
                 cluster=None,
                 on_busy: Optional[Callable[[], None]] = None) -> None:
        self._plan_source = plan_source
        self.cluster = cluster
        self.on_busy = on_busy

    def before(self, ctx: OpContext) -> None:
        plan = self._plan_source()
        if plan is None:
            return
        try:
            factor, timeout_spec = plan.pre_execute(
                ctx.op, ctx.started_at, self.cluster)
        except ServerBusyError:
            if self.on_busy is not None:
                self.on_busy()
            raise
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

    Owns the sliding-window limiters for the account-wide 5,000 tx/s and
    3 GB/s targets plus the lazily-created 500 msg/s-per-queue and 500
    ent/s-per-partition windows, rejecting with
    :class:`~repro.storage.errors.ServerBusyError` exactly where the real
    service would.  The caching service is billed and scaled separately,
    so its ops are exempt.
    """

    name = "throttles"

    def __init__(self, limits, *, window_s: float = 1.0,
                 retry_after_s: float = 1.0,
                 on_busy: Optional[Callable[[], None]] = None) -> None:
        self.limits = limits
        self.window_s = window_s
        self.retry_after_s = retry_after_s
        self.on_busy = on_busy
        self.account_tx = SlidingWindowThrottle(
            limits.account_transactions_per_second, window_s,
            name="account transactions", retry_after=retry_after_s,
        )
        self.account_bw = SlidingWindowThrottle(
            limits.account_bandwidth_bytes_per_second, window_s,
            name="account bandwidth", retry_after=retry_after_s,
        )
        self.queue_throttles = {}
        self.partition_throttles = {}

    def queue_throttle(self, partition: str):
        throttle = self.queue_throttles.get(partition)
        if throttle is None:
            throttle = SlidingWindowThrottle(
                self.limits.queue_messages_per_second, self.window_s,
                name=f"queue {partition!r} messages",
                retry_after=self.retry_after_s,
            )
            self.queue_throttles[partition] = throttle
        return throttle

    def partition_throttle(self, partition: str):
        throttle = self.partition_throttles.get(partition)
        if throttle is None:
            throttle = SlidingWindowThrottle(
                self.limits.partition_entities_per_second, self.window_s,
                name=f"table partition {partition!r} entities",
                retry_after=self.retry_after_s,
            )
            self.partition_throttles[partition] = throttle
        return throttle

    def before(self, ctx: OpContext) -> None:
        op = ctx.op
        service = op.service
        if service is Service.CACHE:
            # Billed and scaled separately from the storage account: cache
            # ops do not count against the 5,000 tx/s or 3 GB/s targets.
            return
        now = ctx.started_at
        try:
            self.account_tx.charge(now, op.units)
            if op.nbytes:
                self.account_bw.charge(now, op.nbytes)
            if service is Service.QUEUE:
                if op.kind in QUEUE_MESSAGE_KINDS:
                    self.queue_throttle(op.partition).charge(now, op.units)
            elif service is Service.TABLE and op.kind in TABLE_ENTITY_KINDS:
                self.partition_throttle(op.partition).charge(now, op.units)
        except Exception:
            if self.on_busy is not None:
                self.on_busy()
            raise
