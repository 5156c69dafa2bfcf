"""Geo-replicated (RA-GRS) storage accounts on the simulated fabric.

A :class:`GeoAccount` is two full simulated stamps — a primary
:class:`~repro.sim.clients.SimStorageAccount` and a secondary replica in
a paired "region" — wired together by the replication layer
(:mod:`repro.geo.replication`), the failover controller
(:mod:`repro.geo.controller`), and the geo pipeline interceptors.  It is
a drop-in replacement for a single-region account everywhere the
harness needs one: it exposes the same ``*_client()`` factories, a
``pipeline`` for tracing/analytics, a ``state`` for audits, and a
geo-aware ``set_fault_plan`` that strips region-scale specs out of the
plan and arms the region layer with them.

:class:`GeoClient` is the 2012 RA-GRS client contract per service:

* every call routes to the **primary** until the secondary is promoted;
* every acknowledged **mutation** is appended to the replication log in
  ack order (log shipping);
* a :class:`~repro.storage.errors.RegionDownError` on a *read* falls
  back to the secondary endpoint (peek/count/download/query — never
  ``get_message``, which consumes visibility and was primary-only);
* writes against the un-promoted secondary fail with the 403
  :class:`~repro.storage.errors.SecondaryReadOnlyError`.

Intentionally **no** ``cluster`` attribute: the chaos runner's plan
owner resolution must land on the account itself so the geo-aware
``set_fault_plan`` sees the region-scale specs before the per-op fault
engine does.  Queue data-plane anomalies (message loss, duplicate
delivery) injected on the primary are not mirrored to the secondary —
a dropped payload never enters the log, which is exactly the replica
the real incident would have produced.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Dict, Optional, Tuple

from ..cluster import StorageCluster
from ..cluster.calibration import DEFAULT_CALIBRATION, FabricCalibration
from ..faults.spec import GEO_KINDS, FaultKind
from ..pipeline import OpCall
from ..pipeline.interceptors import (
    GeoRoutingInterceptor,
    GeoSecondaryInterceptor,
)
from ..sim.clients import SimStorageAccount
from ..storage import LIMITS_2012, ServiceLimits, StorageAccountState
from ..storage.cache import CacheServiceState
from ..storage.errors import RegionDownError
from .controller import GeoController
from .replication import GeoReplicator, ReplayClock, ReplicationLog

__all__ = [
    "GeoAccount",
    "GeoClient",
    "MUTATING_METHODS",
    "READ_FALLBACK_METHODS",
]

#: Offset between the primary and secondary clusters' placement seeds —
#: the paired stamp is different hardware, not a mirror of the layout.
SECONDARY_SEED_OFFSET = 24251

#: Registry method names whose success mutates account state — exactly
#: the calls the replication log ships, per client kind.
MUTATING_METHODS: Dict[str, frozenset] = {
    "blob": frozenset({
        "create_container", "delete_container",
        "put_block", "put_block_list", "upload_blob",
        "create_page_blob", "put_page", "delete_blob",
        "acquire_lease", "renew_lease", "release_lease",
        "snapshot_blob",
    }),
    "queue": frozenset({
        "create_queue", "delete_queue",
        "put_message", "get_message", "get_messages",
        "delete_message", "update_message",
    }),
    "table": frozenset({
        "create_table", "delete_table",
        "insert", "update", "merge",
        "insert_or_replace", "insert_or_merge", "delete",
        "execute_batch",
    }),
}

#: Pure reads an RA-GRS client may re-issue against the secondary when
#: the primary rejects with RegionDownError.  ``get_message`` is absent
#: by design (it consumes visibility); so are the ``local=True`` ops,
#: which never cross the pipeline.
READ_FALLBACK_METHODS: Dict[str, frozenset] = {
    "blob": frozenset({
        "get_block", "download_block_blob",
        "get_page", "download_page_blob", "download_snapshot",
    }),
    "queue": frozenset({"peek_message", "get_message_count"}),
    "table": frozenset({"get", "query_partition", "query"}),
}


def _capture_meta(kind: str, name: str, args: Tuple[Any, ...],
                  result: Any) -> Dict[str, Any]:
    """Result identifiers for the log record (failover accounting)."""
    meta: Dict[str, Any] = {}
    if kind == "queue":
        if args:
            meta["queue"] = args[0]
        if name == "put_message" and result is not None:
            meta["message_id"] = result.message_id
        elif name in ("delete_message", "update_message") and len(args) > 1:
            meta["message_id"] = args[1]
    elif kind == "table":
        if args:
            meta["table"] = args[0]
        if name not in ("create_table", "delete_table",
                        "execute_batch") and len(args) > 2:
            meta["pk"], meta["rk"] = args[1], args[2]
        if isinstance(result, str):
            meta["etag"] = result
    elif kind == "blob":
        if args:
            meta["container"] = args[0]
        if len(args) > 1:
            meta["blob"] = args[1]
    return meta


class _SecondaryAccount(SimStorageAccount):
    """The paired secondary stamp: same data plane, replay-pinnable clock.

    Mirrors :class:`SimStorageAccount.__init__` but drives the account
    state with a :class:`ReplayClock`, so the shipper can commit each
    replayed mutation at its original primary ack instant (bit-exact
    ETags, ids, and timestamps).  Live reads see normal simulation time.
    """

    def __init__(self, env, name: str, *,
                 limits: ServiceLimits = LIMITS_2012,
                 calibration: FabricCalibration = DEFAULT_CALIBRATION,
                 seed: int = 0,
                 fifo_jitter_seed: Optional[int] = None) -> None:
        self.env = env
        self.replay_clock = ReplayClock(env)
        self.state = StorageAccountState(
            name, self.replay_clock, limits, fifo_jitter_seed=fifo_jitter_seed
        )
        self.cluster = StorageCluster(
            env, limits=limits, calibration=calibration, seed=seed
        )
        self.cache_state = CacheServiceState(self.state.clock)
        self._op_call = OpCall(
            self.state, self.cache_state,
            now_fn=self.replay_clock.now,
            plan_fn=lambda: self.cluster.fault_plan,
        )


class GeoClient:
    """RA-GRS routing proxy over one service's primary+secondary clients.

    Method calls resolve lazily against the underlying derived sim
    clients, so the full registry surface is available; generator
    methods stay generators (call with ``yield from``).
    """

    def __init__(self, geo: "GeoAccount", kind: str) -> None:
        self._geo = geo
        self._kind = kind
        self._primary = getattr(geo.primary, f"{kind}_client")()
        self._secondary = getattr(geo.secondary, f"{kind}_client")()
        self._mutating = MUTATING_METHODS.get(kind, frozenset())
        self._fallback = READ_FALLBACK_METHODS.get(kind, frozenset())

    @property
    def account(self) -> "GeoAccount":
        return self._geo

    @property
    def env(self):
        return self._geo.env

    @property
    def state(self):
        return self._geo.state

    def _active_client(self):
        return (self._secondary if self._geo.controller.promoted
                else self._primary)

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        template = getattr(self._primary, name)
        if not callable(template):
            return getattr(self._active_client(), name)
        mutating = name in self._mutating
        fallback = name in self._fallback

        def call(*args, **kwargs):
            if self._geo.controller.promoted:
                return getattr(self._secondary, name)(*args, **kwargs)
            res = getattr(self._primary, name)(*args, **kwargs)
            if isinstance(res, GeneratorType) and (mutating or fallback):
                return self._drive(name, res, args, kwargs,
                                   mutating=mutating, fallback=fallback)
            return res

        call.__name__ = name
        self.__dict__[name] = call  # resolve once per method
        return call

    def _drive(self, name, gen, args, kwargs, *, mutating, fallback):
        geo = self._geo
        try:
            result = yield from gen
        except RegionDownError:
            ctrl = geo.controller
            if not (fallback and ctrl.read_secondary and not ctrl.promoted):
                raise
            # RA-GRS read fallback: re-issue the read on the secondary.
            ctrl.stats["secondary_reads"] += 1
            result = yield from getattr(self._secondary, name)(
                *args, **kwargs)
            return result
        if mutating and not (self._kind == "queue"
                             and name == "put_message" and result is None):
            # Acked mutation: ship it.  A dropped put (injected message
            # loss) acked without landing replicates as it happened —
            # not at all.
            geo.log.append(geo.env.now, self._kind, name, args, kwargs,
                           _capture_meta(self._kind, name, args, result))
        return result


class GeoAccount:
    """A geo-replicated (RA-GRS) storage account: two stamps, one name."""

    def __init__(self, env, name: str = "azurebench", *,
                 limits: ServiceLimits = LIMITS_2012,
                 calibration: FabricCalibration = DEFAULT_CALIBRATION,
                 seed: int = 0,
                 fifo_jitter_seed: Optional[int] = None,
                 lag_s: float = 4.0,
                 poll_interval: float = 0.25,
                 read_secondary: bool = True) -> None:
        self.env = env
        self.name = name
        self.lag_s = lag_s
        self.primary = SimStorageAccount(
            env, name, limits=limits, calibration=calibration, seed=seed,
            fifo_jitter_seed=fifo_jitter_seed,
        )
        self.secondary = _SecondaryAccount(
            env, f"{name}sec", limits=limits, calibration=calibration,
            seed=seed + SECONDARY_SEED_OFFSET,
            fifo_jitter_seed=fifo_jitter_seed,
        )
        self.log = ReplicationLog()
        self.replicator = GeoReplicator(
            env, self.log, self.secondary,
            lag_s=lag_s, poll_interval=poll_interval,
        ).start()
        self.controller = GeoController(env, self.replicator, self.log)
        self.controller.read_secondary = read_secondary
        self.primary.pipeline.add(
            GeoRoutingInterceptor(self.controller), before="faults")
        self.secondary.pipeline.add(
            GeoSecondaryInterceptor(self.controller), before="faults")

    # -- single-region drop-in surface -------------------------------------
    @property
    def active(self) -> SimStorageAccount:
        """The stamp currently serving the account endpoint."""
        return (self.secondary if self.controller.promoted
                else self.primary)

    @property
    def pipeline(self):
        return self.active.pipeline

    @property
    def state(self):
        return self.active.state

    @property
    def last_sync_time(self) -> float:
        return self.replicator.last_sync_time

    def blob_client(self) -> GeoClient:
        return GeoClient(self, "blob")

    def queue_client(self) -> GeoClient:
        return GeoClient(self, "queue")

    def table_client(self) -> GeoClient:
        return GeoClient(self, "table")

    def cache_client(self):
        """The caching service is region-local, never geo-replicated."""
        return self.primary.cache_client()

    # -- explicit secondary readers (RA-GRS probes) ------------------------
    def secondary_blob_client(self):
        return self.secondary.blob_client()

    def secondary_queue_client(self):
        return self.secondary.queue_client()

    def secondary_table_client(self):
        return self.secondary.table_client()

    # -- fault wiring ------------------------------------------------------
    def set_fault_plan(self, plan) -> None:
        """Arm the fault plan, geo-aware.

        Region-scale specs (``region_outage``, ``replication_stall``)
        are stripped out of the plan and handed to the controller and
        the shipper; everything else runs through the primary cluster's
        per-op fault engine unchanged.  Both layers report injections
        back into the plan's unified trace via ``record_external``.
        """
        if plan is None:
            self.primary.cluster.set_fault_plan(None)
            return
        geo_specs = [s for s in plan.specs if s.kind in GEO_KINDS]
        for spec in geo_specs:
            plan.specs.remove(spec)
        self.controller.install_outages(
            [s for s in geo_specs if s.kind is FaultKind.REGION_OUTAGE],
            recorder=plan)
        self.replicator.set_stalls(
            [s for s in geo_specs if s.kind is FaultKind.REPLICATION_STALL],
            recorder=plan)
        self.primary.cluster.set_fault_plan(plan)

    # -- failover ----------------------------------------------------------
    def failover_process(self, mode: str = "forced", *,
                         delay_s: float = 2.0):
        """Process generator promoting the secondary (see GeoController)."""
        return self.controller.failover(mode, delay_s=delay_s)

    def lost_records(self) -> tuple:
        """Acked-but-unshipped records, live (post-promotion: the loss)."""
        shipped = self.replicator.shipped_seqs()
        return tuple(r for r in self.log.records if r.seq not in shipped)

    def describe(self) -> dict:
        """JSON-friendly geo summary for verdicts and the CLI."""
        return {
            "account": self.name,
            "lag_s": self.lag_s,
            "log_records": len(self.log),
            "shipped": len(self.replicator.ship_events),
            "apply_errors": len(self.replicator.apply_errors),
            "last_sync_time": self.replicator.last_sync_time,
            **self.controller.describe(),
        }
