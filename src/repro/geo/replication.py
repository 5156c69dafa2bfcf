"""Asynchronous geo-replication: the log, the shipper, Last Sync Time.

The 2012-era geo-redundant storage (GRS) design (Calder et al., SOSP'11
§2.4) replicates committed mutations *asynchronously* from the primary
stamp to a paired secondary stamp: the primary acknowledges as soon as
the write is durable locally, an inter-stamp shipper applies the
transaction log on the secondary in commit order, and the account
exposes a **Last Sync Time** — the instant ``t`` such that every write
acknowledged strictly before ``t`` has been applied on the secondary.
A forced failover can therefore lose exactly the writes acknowledged at
or after the final Last Sync Time, and nothing else.

This module reproduces that contract on the simulated fabric:

* :class:`ReplicationLog` — the append-only inter-stamp transaction log;
  one :class:`ReplicationRecord` per acknowledged mutating operation on
  the primary, in acknowledgement order.
* :class:`GeoReplicator` — the shipper, a simkit process applying records
  on the secondary ``lag_s`` seconds after their primary ack, deferring
  across ``replication_stall`` fault windows (Last Sync Time freezes
  while the primary keeps acknowledging — the growing loss bound).
* :class:`ReplayClock` — the secondary stamp's clock, pinned to each
  record's original ack instant during replay.

**Replay is bit-exact.**  ETags, queue message ids, and pop receipts are
all drawn from per-account counters, and every timestamp the data plane
records comes from the account clock — so applying the same mutations in
the same order with the clock pinned to the original ack times produces
a secondary whose state (ids, ETags, insertion timestamps) is identical
to the primary's at the Last Sync Time watermark.  The shipper drives
the shared operation-registry bodies directly against the secondary's
state — no pipeline, no cost model, no fault hooks and **no RNG**: a
geo-replicated run draws exactly the same random numbers as a
single-region run (the determinism contract the golden-trace test
pins).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..faults.spec import FaultKind, FaultSpec
from ..pipeline.registry import OPERATIONS, OpCall
from ..storage.errors import StorageError

__all__ = [
    "ReplicationRecord",
    "ReplicationLog",
    "ReplayClock",
    "GeoReplicator",
]


@dataclass(frozen=True)
class ReplicationRecord:
    """One acknowledged primary mutation, as shipped inter-stamp.

    ``time`` is the primary's acknowledgement instant — the commit time
    the durability contract is stated against.  ``service``/``method``
    name the shared registry operation; ``args``/``kwargs`` are the
    original call arguments (the log ships logical operations, not byte
    diffs, exactly like the stamp-to-stamp transaction shipping of
    SOSP'11).  ``meta`` carries result identifiers (message id, ETag,
    target names) so failover accounting can name what a lost record
    would have created.
    """

    seq: int
    time: float
    service: str
    method: str
    args: Tuple[Any, ...]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)


class ReplicationLog:
    """The append-only inter-stamp transaction log (ack order)."""

    def __init__(self) -> None:
        self.records: List[ReplicationRecord] = []

    def append(self, now: float, service: str, method: str,
               args: Tuple[Any, ...], kwargs: Dict[str, Any],
               meta: Optional[Dict[str, Any]] = None) -> ReplicationRecord:
        rec = ReplicationRecord(
            seq=len(self.records), time=now, service=service, method=method,
            args=tuple(args), kwargs=dict(kwargs), meta=dict(meta or {}),
        )
        self.records.append(rec)
        return rec

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


class ReplayClock:
    """The secondary stamp's clock: simulation time, pinnable for replay.

    Reads against the secondary see the live simulation time; while the
    shipper applies a log record it pins the clock to the record's
    original primary ack instant, so every timestamp the data plane
    stamps (ETag datetimes, message insertion/visibility times, entity
    timestamps) is identical to the value the primary produced.
    """

    def __init__(self, env) -> None:
        self._env = env
        self._pinned: Optional[float] = None

    def now(self) -> float:
        return self._env.now if self._pinned is None else self._pinned

    def pin(self, instant: float) -> None:
        self._pinned = instant

    def unpin(self) -> None:
        self._pinned = None


class GeoReplicator:
    """The inter-stamp shipper: a simkit process applying the log.

    Records become due ``lag_s`` seconds after their primary ack, are
    deferred across any ``replication_stall`` fault window, and are
    applied strictly in sequence (no gaps, no reordering — the prefix
    property the :class:`~repro.geo.ledger.GeoLedger` laws check).

    :attr:`last_sync_time` is the exposed watermark: the ack time of the
    newest applied record, advanced to "now" whenever the backlog is
    empty outside a stall window.  The durability contract is *strict*:
    every mutation acknowledged strictly **before** ``last_sync_time``
    has been applied on the secondary.
    """

    def __init__(self, env, log: ReplicationLog, secondary, *,
                 lag_s: float = 4.0, poll_interval: float = 0.25) -> None:
        if lag_s < 0:
            raise ValueError("lag_s must be >= 0")
        self.env = env
        self.log = log
        self.secondary = secondary
        self.lag_s = lag_s
        self.poll_interval = poll_interval
        self.clock: ReplayClock = secondary.replay_clock
        #: The exposed Last Sync Time watermark (see class docstring).
        self.last_sync_time = 0.0
        #: ``(seq, ack_time, apply_time)`` per applied record — the
        #: shipping trace the geo ledger's "ship" events come from.
        self.ship_events: List[Tuple[int, float, float]] = []
        #: ``(seq, error_type, message)`` per record whose replay raised —
        #: replica divergence, always a verdict violation.
        self.apply_errors: List[Tuple[int, str, str]] = []
        self.stall_specs: List[FaultSpec] = []
        self._recorder = None
        self._noted_stalls: Set[int] = set()
        self._next = 0
        self._stopped = False
        self._process = None
        # Replay bypasses the pipeline and the fault hooks: plan_fn is
        # None so injected queue anomalies never re-fire during replay.
        self._replay_call = OpCall(
            secondary.state, secondary.cache_state,
            now_fn=self.clock.now, plan_fn=lambda: None,
        )

    # -- lifecycle ---------------------------------------------------------
    def start(self) -> "GeoReplicator":
        self._process = self.env.process(self._run())
        return self

    def stop(self) -> None:
        """Halt shipping (failover promotes the secondary as-is)."""
        self._stopped = True

    # -- introspection -----------------------------------------------------
    @property
    def backlog(self) -> int:
        """Acknowledged-but-unapplied records."""
        return len(self.log) - self._next

    def shipped_seqs(self) -> Set[int]:
        return {seq for (seq, _, _) in self.ship_events}

    # -- stall windows -----------------------------------------------------
    def set_stalls(self, specs, recorder=None) -> None:
        """Arm ``replication_stall`` windows (stripped from a FaultPlan).

        ``recorder`` is the plan itself; each window is reported back
        through :meth:`~repro.faults.plan.FaultPlan.record_external` once,
        so the unified fault trace shows the stall.
        """
        self.stall_specs = list(specs)
        if recorder is not None:
            self._recorder = recorder

    def _note_stall(self, spec: FaultSpec) -> None:
        key = id(spec)
        if key in self._noted_stalls:
            return
        self._noted_stalls.add(key)
        if self._recorder is not None:
            self._recorder.record_external(
                FaultKind.REPLICATION_STALL, "geo", "replication", spec.start)

    def _in_stall(self, now: float) -> bool:
        return any(s.start <= now < s.end for s in self.stall_specs)

    def _deferred(self, due: float) -> float:
        """Push a due time past the lag and any stall window it lands in."""
        moved = True
        while moved:
            moved = False
            if due < self.env.now:
                due = self.env.now
            for spec in self.stall_specs:
                if spec.start <= due < spec.end:
                    due = spec.end
                    moved = True
                    self._note_stall(spec)
        return due

    # -- the shipper process -----------------------------------------------
    def _run(self):
        while not self._stopped:
            if self._next < len(self.log.records):
                rec = self.log.records[self._next]
                due = self._deferred(rec.time + self.lag_s)
                if due > self.env.now:
                    yield self.env.timeout(due - self.env.now)
                    continue
                self._apply(rec)
            else:
                if (self.env.now > self.last_sync_time
                        and not self._in_stall(self.env.now)):
                    # Drained and not stalled: everything acknowledged
                    # before this instant has been applied.
                    self.last_sync_time = self.env.now
                yield self.env.timeout(self.poll_interval)

    def _apply(self, rec: ReplicationRecord) -> None:
        spec = OPERATIONS[rec.service][rec.method]
        self.clock.pin(rec.time)
        try:
            gen = spec.body(self._replay_call, *rec.args, **rec.kwargs)
            next(gen)  # the single OpDescriptor — replay charges nothing
            try:
                gen.send(None)
            except StopIteration:
                pass
        except StorageError as exc:
            self.apply_errors.append((rec.seq, type(exc).__name__, str(exc)))
        else:
            self.ship_events.append((rec.seq, rec.time, self.env.now))
            if rec.time > self.last_sync_time:
                self.last_sync_time = rec.time
        finally:
            self.clock.unpin()
            self._next += 1
