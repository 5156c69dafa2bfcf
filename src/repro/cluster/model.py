"""The storage cluster: cost model + contention + throttling.

:class:`StorageCluster` glues together the fabric pieces:

* a **cost model** turning an :class:`~repro.cluster.ops.OpDescriptor` into
  front-end RTT plus partition-server occupancy (constants from
  :mod:`repro.cluster.calibration`),
* **partition-server pools** per service (placement rules from the paper),
* a per-account :class:`~repro.pipeline.interceptors.Pipeline` carrying the
  cross-cutting stages — fault injection and the published per-second
  throttle targets by default, Storage Analytics and custom interceptors on
  demand — shared stage-for-stage with the emulator backend.

Simulated clients (:mod:`repro.sim`) call :meth:`StorageCluster.execute`
from inside a simkit process to charge the timing of each data-plane call.
"""

from __future__ import annotations

from typing import Generator, Iterator, List, Optional

from ..faults.plan import FaultPlan
from ..faults.spec import FaultKind, FaultSpec
# ``pipeline.interceptors`` imports ``cluster.ops`` and ``cluster.ratelimit``
# at module scope, and either package may be the first one imported: this
# side of the cycle takes the module and reads its names at construction.
from ..pipeline import interceptors as stages
from ..pipeline.context import OpContext
from ..simkit import Environment, Interrupt
from ..storage.limits import LIMITS_2012, ServiceLimits
from .calibration import DEFAULT_CALIBRATION, FabricCalibration
from .ops import OpDescriptor, OpKind, Service
from .servers import PartitionServer, ServerPool

__all__ = ["StorageCluster"]

#: Jitter factors drawn per refill (two are used per round trip).
JITTER_BLOCK = 512


class StorageCluster:
    """Performance model of one storage account's slice of the fabric."""

    def __init__(self, env: Environment, *,
                 limits: ServiceLimits = LIMITS_2012,
                 calibration: FabricCalibration = DEFAULT_CALIBRATION,
                 seed: int = 0) -> None:
        import numpy as np

        calibration.validate()
        self.env = env
        self.limits = limits
        self.cal = calibration
        # Read by ``_jitter`` alone: it draws ahead in blocks, so any other
        # reader would see (and shift) a stream position no op is at.
        self._rng = np.random.default_rng(seed)
        self._jitter_block: List[float] = []

        cal = calibration
        # Placement (paper IV.A-C): blobs and queues get a server per
        # partition; one table's partitions share a small range-server set.
        self.blob_servers = ServerPool(env, "blob", cal.blob_server_slots)
        self.queue_servers = ServerPool(env, "queue", cal.queue_server_slots)
        self.table_servers = ServerPool(
            env, "table", cal.table_server_slots, shards=cal.table_range_servers
        )
        self.cache_servers = ServerPool(env, "cache", cal.cache_server_slots)
        # What ``execute`` reads per round trip, one dict read each: the
        # pools' partition -> server memos (``ServerPool._placed``, kept
        # current by the pools themselves) and the client <-> front-end
        # RTTs.
        self._placed = {service: self.pool_for(service)._placed
                        for service in Service}
        self._base_rtt = {
            Service.BLOB: cal.blob_base_rtt,
            Service.QUEUE: cal.queue_base_rtt,
            Service.TABLE: cal.table_base_rtt,
            Service.CACHE: cal.cache_base_rtt,
        }
        # Partition-server busy time of the kinds whose occupancy is
        # ``base + nbytes * per_byte``, as ``(base, per_byte)`` (a zero
        # base adds nothing to a product, a zero rate nothing to a base).
        # The round trip reads this table itself and calls
        # ``_other_occupancy`` for the other kinds.
        self._linear_cost = {
            OpKind.DOWNLOAD_BLOB: (0.0, cal.blob_stream_read_s_per_byte),
            OpKind.GET_BLOCK: (cal.blob_block_lookup_s,
                               cal.blob_stream_read_s_per_byte),
            OpKind.GET_PAGE: (cal.blob_page_seek_s,
                              cal.blob_stream_read_s_per_byte),
            OpKind.PUT_PAGE: (0.0, cal.blob_write_s_per_byte),
            OpKind.UPLOAD_BLOB: (0.0, cal.blob_write_s_per_byte),
            OpKind.PUT_MESSAGE: (cal.queue_put_sync_s,
                                 cal.queue_write_s_per_byte),
            OpKind.PEEK_MESSAGE: (0.0, cal.queue_read_s_per_byte),
            OpKind.DELETE_MESSAGE: (cal.queue_delete_sync_s, 0.0),
            OpKind.UPDATE_MESSAGE: (cal.queue_put_sync_s,
                                    cal.queue_write_s_per_byte),
            OpKind.GET_MESSAGE_COUNT: (cal.queue_msg_count_s, 0.0),
            OpKind.CACHE_GET: (cal.cache_get_base_s, cal.cache_s_per_byte),
            OpKind.CACHE_PUT: (cal.cache_put_base_s, cal.cache_s_per_byte),
            OpKind.CACHE_REMOVE: (cal.cache_put_base_s,
                                  cal.cache_s_per_byte),
            OpKind.QUERY_ENTITY: (cal.table_query_base_s,
                                  cal.table_read_s_per_byte),
            OpKind.INSERT_ENTITY: (cal.table_insert_base_s,
                                   cal.table_insert_s_per_byte),
            OpKind.UPDATE_ENTITY: (cal.table_update_base_s,
                                   cal.table_update_s_per_byte),
            OpKind.MERGE_ENTITY: (cal.table_update_base_s,
                                  cal.table_update_s_per_byte),
            OpKind.DELETE_ENTITY: (cal.table_delete_base_s,
                                   cal.table_delete_s_per_byte),
        }

        #: The active fault schedule (:mod:`repro.faults`), or None for a
        #: healthy fabric.  Consulted on every :meth:`execute`.
        self.fault_plan: Optional[FaultPlan] = None

        # The cross-cutting stack every operation crosses before timing is
        # charged: fault plan, then the published throttle targets (paper
        # Section IV).  Observers (analytics, auth) insert themselves via
        # ``pipeline.add``.
        self._fault_stage = stages.FaultInterceptor(self, cluster=self)
        self._throttle_stage = stages.ThrottleInterceptor(
            limits,
            window_s=cal.throttle_window_s,
            retry_after_s=cal.throttle_retry_after_s,
        )
        self.pipeline = stages.Pipeline(
            [self._fault_stage, self._throttle_stage])

    # -- fault injection ---------------------------------------------------
    def set_fault_plan(self, plan: Optional[FaultPlan]) -> None:
        """Install (or clear) the fault schedule for this fabric."""
        self.fault_plan = plan

    def inject_outage(self, service: Service, start: float, duration: float,
                      *, partition: Optional[str] = None) -> None:
        """Schedule an availability outage.

        Operations targeting the service (optionally one partition) during
        ``[start, start+duration)`` fail with :class:`ServerBusyError` —
        modelling the storage-stamp incidents the 2012 SLA covered.  The
        paper's retry discipline (sleep 1 s, retry) rides through them.

        The short spelling of one OUTAGE :class:`FaultSpec` on the
        installed (or a lazily-created) :class:`FaultPlan`: callers name
        a service and a window and never see the spec's fields.
        """
        spec = FaultSpec(
            kind=FaultKind.OUTAGE, service=service.value, partition=partition,
            start=start, duration=duration,
            retry_after=self.cal.throttle_retry_after_s,
        )
        if self.fault_plan is None:
            self.fault_plan = FaultPlan()
        self.fault_plan.add(spec)

    def pool_for(self, service: Service) -> ServerPool:
        """The partition-server pool backing one service."""
        if service is Service.BLOB:
            return self.blob_servers
        if service is Service.QUEUE:
            return self.queue_servers
        if service is Service.CACHE:
            return self.cache_servers
        return self.table_servers

    # -- cost model -------------------------------------------------------
    def server_occupancy(self, op: OpDescriptor) -> float:
        """Partition-server busy time of one operation, before jitter.

        The round trip (:meth:`execute`) makes this same table read
        inline and calls :meth:`_other_occupancy` on a miss."""
        cost = self._linear_cost.get(op.kind)
        if cost is None:
            return self._other_occupancy(op)
        return cost[0] + op.nbytes * cost[1]

    def _other_occupancy(self, op: OpDescriptor) -> float:
        """Busy time of the kinds outside the linear cost table."""
        cal = self.cal
        n = op.nbytes
        kind = op.kind

        if op.service is Service.BLOB:
            if kind is OpKind.PUT_BLOCK:
                return n * (cal.blob_write_s_per_byte
                            + cal.blob_block_stage_s_per_byte)
            if kind is OpKind.PUT_BLOCK_LIST:
                return (cal.blob_commit_base_s
                        + op.block_count * cal.blob_commit_per_block_s)
            # container management / delete: metadata-only.
            return cal.blob_commit_base_s

        if op.service is Service.QUEUE:
            if kind is OpKind.GET_MESSAGE:
                t = (cal.queue_get_invisibility_s
                     + n * cal.queue_read_s_per_byte)
                if cal.queue_get_16k_anomaly_lo < n <= cal.queue_get_16k_anomaly_hi:
                    t *= cal.queue_get_16k_anomaly_factor
                return t
            # create/delete queue: metadata-only.
            return cal.queue_put_sync_s

        if op.service is Service.CACHE:
            return cal.cache_put_base_s  # create_cache: metadata-only

        # TABLE
        if kind is OpKind.BATCH:
            # A batch is one round trip but pays per-entity insert costs.
            return (cal.table_insert_base_s * max(1, op.units)
                    + n * cal.table_insert_s_per_byte)
        # create/delete table: metadata-only.
        return cal.table_insert_base_s

    def server_for(self, op: OpDescriptor) -> PartitionServer:
        """The partition server handling this op (placement rules)."""
        server = self._placed[op.service].get(op.partition)
        if server is None:
            server = self.pool_for(op.service).server_for(op.partition)
        return server

    def _jitter(self) -> float:
        block = self._jitter_block
        if not block:
            sigma = self.cal.jitter_sigma
            if sigma <= 0:
                return 1.0
            import numpy as np

            # Mean-one lognormal: E[exp(N(-s^2/2, s))] == 1.  One vector
            # draw yields the values the same number of scalar draws would
            # (tests/cluster/test_jitter_stream.py); kept reversed so that
            # ``pop()`` hands them out in draw order.
            block = self._jitter_block = np.exp(self._rng.normal(
                -0.5 * sigma * sigma, sigma, size=JITTER_BLOCK))[::-1].tolist()
        return block.pop()

    # -- execution ---------------------------------------------------------
    def execute(self, op: Optional[OpDescriptor],
                body: Optional[Generator] = None,
                name: Optional[str] = None) -> Iterator:
        """Simkit process generator: one storage round trip.

        The operation crosses the account's interceptor pipeline first
        (fault plan, throttle targets, any installed observers), then the
        cost model: raises :class:`ServerBusyError` *before* consuming
        time if a scalability target is exceeded (or an injected
        outage/throttle fault fires); the caller is expected to back off
        and retry, like the paper's worker roles.  Injected timeout faults
        burn their ``timeout_after`` first, injected latency windows
        stretch the round trip.

        ``execute(desc)`` charges the timing of a bare descriptor and
        returns None.  ``execute(None, body, name)`` runs an operation
        body of the registry (:mod:`repro.pipeline.registry`) around it,
        as the sim clients' methods do: the body prepares on the first
        resume, so data-plane errors raise before any time is charged,
        and applies at the completion instant; the body's result is the
        round trip's.  A body that yields a second descriptor is a
        ``RuntimeError`` naming the op ``name``.
        """
        # ``env._now`` / ``env._active_proc`` are the fields behind the
        # ``now`` / ``active_process`` properties, and the hook lists are
        # what ``Pipeline.run_before`` / ``run_after`` walk: this body runs
        # once per round trip of every figure, so it reads them itself.
        if body is not None:
            op = next(body)  # prepare
        env = self.env
        pipeline = self.pipeline
        try:
            active = env._active_proc
            ctx = OpContext(op, "sim", active.name if active is not None
                            else None, env._now)
            try:
                for hook in pipeline._before_hooks:
                    hook(ctx)
            except Exception as exc:
                ctx.finished_at = env._now
                pipeline.run_failed(ctx, exc)
                raise
            if ctx.timeout_spec is not None:
                # The request is doomed: it consumes the timeout budget
                # (and nothing else — the server never completes the work).
                yield env.timeout(ctx.timeout_spec.timeout_after)
                error = ctx.fault_plan.record_timeout(
                    ctx.timeout_spec, op, env._now)
                ctx.finished_at = env._now
                pipeline.run_failed(ctx, error)
                raise error
            try:
                # Jitter draw order (rtt, then occupancy) is part of the
                # seeded reproducibility contract — figures are
                # bit-identical per seed.  A draw is a ``pop`` of the
                # current block; ``_jitter`` only runs to refill it (or to
                # return 1.0 without jitter).
                cost = self._linear_cost.get(op.kind)
                if cost is None:
                    occupancy = self._other_occupancy(op)
                else:
                    occupancy = cost[0] + op.nbytes * cost[1]
                ctx.server_latency = occupancy
                factor = ctx.latency_factor
                block = self._jitter_block
                rtt = (self._base_rtt[op.service]
                       * (block.pop() if block else self._jitter()) * factor)
                block = self._jitter_block
                occupancy = (occupancy
                             * (block.pop() if block else self._jitter())
                             * factor)
                server = self._placed[op.service].get(op.partition)
                if server is None:
                    server = self.pool_for(op.service).server_for(
                        op.partition)
                # Request leg of the round trip, then the slot's hold and
                # the response leg as one event: the booking.
                yield env.timeout(rtt / 2)
                booking = server.book(occupancy, rtt / 2)
                try:
                    yield booking
                except Interrupt:  # a recycled role
                    server.cancel(booking, op.nbytes)
                    raise
                server.ops_served += 1
                server.bytes_served += op.nbytes
            except Exception as exc:
                ctx.finished_at = env._now
                pipeline.run_failed(ctx, exc)
                raise
            ctx.finished_at = env._now
            for hook in pipeline._after_hooks:
                hook(ctx)
        except BaseException:
            if body is not None:
                body.close()
            raise
        if body is None:
            return None
        try:
            body.send(None)  # apply, at the completion instant
        except StopIteration as stop:
            return stop.value
        body.close()
        raise RuntimeError(f"operation body {name!r} yielded more than once")
