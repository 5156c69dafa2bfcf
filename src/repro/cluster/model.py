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

from typing import Dict, Iterator, List, Optional

import numpy as np

from ..faults.plan import FaultPlan
from ..faults.spec import FaultKind, FaultSpec
# ``pipeline.interceptors`` imports ``cluster.ops`` and ``cluster.ratelimit``
# at module scope, and either package may be the first one imported: this
# side of the cycle takes the module and reads its names at construction.
from ..pipeline import interceptors as stages
from ..pipeline.context import OpContext
from ..simkit import Environment, Tally
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

        #: Per-kind observed service-time tallies (diagnostics / tests).
        self.op_times: Dict[OpKind, Tally] = {}
        self.server_busy_count = 0
        #: The active fault schedule (:mod:`repro.faults`), or None for a
        #: healthy fabric.  Consulted on every :meth:`execute`.
        self.fault_plan: Optional[FaultPlan] = None

        # The cross-cutting stack every operation crosses before timing is
        # charged: fault plan, then the published throttle targets (paper
        # Section IV).  Observers (analytics, auth) insert themselves via
        # ``pipeline.add``.
        self._fault_stage = stages.FaultInterceptor(
            lambda: self.fault_plan, cluster=self, on_busy=self._note_busy)
        self._throttle_stage = stages.ThrottleInterceptor(
            limits,
            window_s=cal.throttle_window_s,
            retry_after_s=cal.throttle_retry_after_s,
            on_busy=self._note_busy,
        )
        self.pipeline = stages.Pipeline(
            [self._fault_stage, self._throttle_stage])

    def _note_busy(self) -> None:
        self.server_busy_count += 1

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
    def base_rtt(self, op: OpDescriptor) -> float:
        """Client <-> front-end latency (not server occupancy)."""
        cal = self.cal
        if op.service is Service.BLOB:
            return cal.blob_base_rtt
        if op.service is Service.QUEUE:
            return cal.queue_base_rtt
        if op.service is Service.CACHE:
            return cal.cache_base_rtt
        return cal.table_base_rtt

    def server_occupancy(self, op: OpDescriptor) -> float:
        """Partition-server busy time of one operation."""
        cal = self.cal
        n = op.nbytes
        kind = op.kind

        if op.service is Service.BLOB:
            if kind is OpKind.DOWNLOAD_BLOB:
                return n * cal.blob_stream_read_s_per_byte
            if kind is OpKind.GET_BLOCK:
                return cal.blob_block_lookup_s + n * cal.blob_stream_read_s_per_byte
            if kind is OpKind.GET_PAGE:
                return cal.blob_page_seek_s + n * cal.blob_stream_read_s_per_byte
            if kind in (OpKind.PUT_PAGE, OpKind.UPLOAD_BLOB):
                return n * cal.blob_write_s_per_byte
            if kind is OpKind.PUT_BLOCK:
                return n * (cal.blob_write_s_per_byte
                            + cal.blob_block_stage_s_per_byte)
            if kind is OpKind.PUT_BLOCK_LIST:
                return (cal.blob_commit_base_s
                        + op.block_count * cal.blob_commit_per_block_s)
            # container management / delete: metadata-only.
            return cal.blob_commit_base_s

        if op.service is Service.QUEUE:
            if kind is OpKind.PUT_MESSAGE:
                return cal.queue_put_sync_s + n * cal.queue_write_s_per_byte
            if kind is OpKind.PEEK_MESSAGE:
                return n * cal.queue_read_s_per_byte
            if kind is OpKind.GET_MESSAGE:
                t = (cal.queue_get_invisibility_s
                     + n * cal.queue_read_s_per_byte)
                if cal.queue_get_16k_anomaly_lo < n <= cal.queue_get_16k_anomaly_hi:
                    t *= cal.queue_get_16k_anomaly_factor
                return t
            if kind is OpKind.DELETE_MESSAGE:
                return cal.queue_delete_sync_s
            if kind is OpKind.UPDATE_MESSAGE:
                return cal.queue_put_sync_s + n * cal.queue_write_s_per_byte
            if kind is OpKind.GET_MESSAGE_COUNT:
                return cal.queue_msg_count_s
            # create/delete queue: metadata-only.
            return cal.queue_put_sync_s

        if op.service is Service.CACHE:
            if kind is OpKind.CACHE_GET:
                return cal.cache_get_base_s + n * cal.cache_s_per_byte
            if kind in (OpKind.CACHE_PUT, OpKind.CACHE_REMOVE):
                return cal.cache_put_base_s + n * cal.cache_s_per_byte
            return cal.cache_put_base_s  # create_cache: metadata-only

        # TABLE
        if kind is OpKind.QUERY_ENTITY:
            return cal.table_query_base_s + n * cal.table_read_s_per_byte
        if kind is OpKind.INSERT_ENTITY:
            return cal.table_insert_base_s + n * cal.table_insert_s_per_byte
        if kind in (OpKind.UPDATE_ENTITY, OpKind.MERGE_ENTITY):
            return cal.table_update_base_s + n * cal.table_update_s_per_byte
        if kind is OpKind.DELETE_ENTITY:
            return cal.table_delete_base_s + n * cal.table_delete_s_per_byte
        if kind is OpKind.BATCH:
            # A batch is one round trip but pays per-entity insert costs.
            return (cal.table_insert_base_s * max(1, op.units)
                    + n * cal.table_insert_s_per_byte)
        # create/delete table: metadata-only.
        return cal.table_insert_base_s

    def server_for(self, op: OpDescriptor) -> PartitionServer:
        """The partition server handling this op (placement rules)."""
        return self.pool_for(op.service).server_for(op.partition)

    def _jitter(self) -> float:
        block = self._jitter_block
        if not block:
            sigma = self.cal.jitter_sigma
            if sigma <= 0:
                return 1.0
            # Mean-one lognormal: E[exp(N(-s^2/2, s))] == 1.  One vector
            # draw yields the values the same number of scalar draws would
            # (tests/cluster/test_jitter_stream.py); kept reversed so that
            # ``pop()`` hands them out in draw order.
            block = self._jitter_block = np.exp(self._rng.normal(
                -0.5 * sigma * sigma, sigma, size=JITTER_BLOCK))[::-1].tolist()
        return block.pop()

    # -- execution ---------------------------------------------------------
    def execute(self, op: OpDescriptor) -> Iterator:
        """Simkit process generator charging the timing of one operation.

        The operation crosses the account's interceptor pipeline first
        (fault plan, throttle targets, any installed observers), then the
        cost model: raises :class:`ServerBusyError` *before* consuming
        time if a scalability target is exceeded (or an injected
        outage/throttle fault fires); the caller is expected to back off
        and retry, like the paper's worker roles.  Injected timeout faults
        burn their ``timeout_after`` first, injected latency windows
        stretch the round trip.
        """
        # ``env._now`` / ``env._active_proc`` are the fields behind the
        # ``now`` / ``active_process`` properties: this body runs once per
        # round trip of every figure, and reads the clock six times.
        env = self.env
        pipeline = self.pipeline
        active = env._active_proc
        ctx = OpContext(op=op, backend="sim", started_at=env._now,
                        worker=active.name if active is not None else None)
        try:
            pipeline.run_before(ctx)
        except Exception as exc:
            ctx.finished_at = env._now
            pipeline.run_failed(ctx, exc)
            raise
        if ctx.timeout_spec is not None:
            # The request is doomed: it consumes the timeout budget (and
            # nothing else — the server never completes the work).
            yield env.timeout(ctx.timeout_spec.timeout_after)
            error = ctx.fault_plan.record_timeout(
                ctx.timeout_spec, op, env._now)
            ctx.finished_at = env._now
            pipeline.run_failed(ctx, error)
            raise error
        try:
            # Jitter draw order (rtt, then occupancy) is part of the seeded
            # reproducibility contract — figures are bit-identical per seed.
            ctx.server_latency = self.server_occupancy(op)
            rtt = self.base_rtt(op) * self._jitter() * ctx.latency_factor
            occupancy = ctx.server_latency * self._jitter() * ctx.latency_factor
            server = self.server_for(op)
            start = env._now
            # Request leg of the round trip.
            yield env.timeout(rtt / 2)
            yield from server.serve(occupancy, op.nbytes)
            # Response leg.
            yield env.timeout(rtt / 2)
        except Exception as exc:
            ctx.finished_at = env._now
            pipeline.run_failed(ctx, exc)
            raise
        kind = op.kind
        tally = self.op_times.get(kind)
        if tally is None:
            tally = self.op_times[kind] = Tally(kind.value)
        tally.record(env._now - start)
        ctx.finished_at = env._now
        pipeline.run_after(ctx)

    # -- diagnostics ---------------------------------------------------------
    def mean_op_time(self, kind: OpKind) -> Optional[float]:
        tally = self.op_times.get(kind)
        return tally.mean if tally is not None and tally.count else None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<StorageCluster blobs={len(self.blob_servers)} "
                f"queues={len(self.queue_servers)} "
                f"tables={len(self.table_servers)}>")
