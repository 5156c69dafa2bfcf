"""DN failure-domain chaos: crash a data node under open-loop load.

:func:`run_dn_failover` is ``repro load --backend service`` on the
``failover`` mix, with the profile's ``DN_CRASH`` / ``DN_SLOW`` specs
armed on the cluster loop (:func:`~repro.traffic.engine.service_run`),
judged for the two promises the failure domain
(:mod:`repro.service.membership`) makes while the load keeps writing:

* **zero committed-write loss** — every client-acked write still reads
  back with the right content.  The schedule is the ledger: op ``i``
  writes ``SyntheticContent(n, seed=i)`` as blob ``new-{i}`` or as a
  message, or the run's property bag as row ``new-{i}``, so the acked
  writes follow from the schedule and the op outcomes;
* **bounded unavailability** — crash to completed rebalance, on the
  cluster clock and read as ``repro load --kill-dn`` reads it, stays
  within the window the
  :class:`~repro.service.membership.FailureDomainConfig` implies.

The verdict carries only deterministic evidence (the fault schedule, the
load config and its schedule digest, scheduled counts), so two runs with
the same seed produce byte-identical verdict JSON; measured timings go
to stderr and the optional windows CSV artifact.
"""

from __future__ import annotations

import hashlib
import os
import sys
from collections import Counter
from typing import Dict, List, Optional, Sequence

from ..faults.spec import DN_KINDS, FaultKind
from ..storage.content import SyntheticContent, as_content
from ..storage.errors import StorageError
from ..traffic.arrivals import ArrivalSpec
from ..traffic.engine import (LOAD_CONTAINER, LOAD_PARTITION, LOAD_QUEUE,
                              LOAD_TABLE, LoadConfig, _entity_props,
                              schedule_digest, service_run)
from ..traffic.flock import FlockSchedule, build_flock_schedule
from ..traffic.stats import StatsAggregator
from ..traffic.stats import windows_csv as render_windows
from ..wallclock import exhaust
from .invariants import Violation
from .schedule import build_schedule
from .verdict import ChaosRunError, ChaosVerdict

__all__ = ["run_dn_failover"]


def _md5(content) -> str:
    return hashlib.md5(as_content(content).to_bytes()).hexdigest()


def _check_acked_writes(clients: Dict[str, object], schedule: FlockSchedule,
                        outcomes: Sequence[Optional[bool]]
                        ) -> List[Violation]:
    """Read back every write ``outcomes`` acks: blobs and rows by key,
    queue messages as a sub-multiset of a full drain (at-least-once:
    duplicates are lawful, disappearances are not)."""
    violations: List[Violation] = []
    bc, qc, tc = clients["blob"], clients["queue"], clients["table"]
    acked_puts: Counter = Counter()
    for op in schedule.iter_ops():
        if not outcomes[op.index]:
            continue
        if (op.service, op.op) == ("blob", "upload"):
            try:
                body = exhaust(bc.download_block_blob(LOAD_CONTAINER, op.key))
            except StorageError as exc:
                violations.append(Violation(
                    "dn-blob-loss",
                    f"committed blob {op.key!r} unreadable after failover: "
                    f"{exc}"))
                continue
            if _md5(body) != _md5(SyntheticContent(op.nbytes, seed=op.index)):
                violations.append(Violation(
                    "dn-blob-integrity",
                    f"committed blob {op.key!r} corrupted after failover"))
        elif (op.service, op.op) == ("table", "insert"):
            try:
                entity = exhaust(tc.get(LOAD_TABLE, LOAD_PARTITION, op.key))
            except StorageError as exc:
                violations.append(Violation(
                    "dn-table-loss",
                    f"committed row {op.key!r} unreadable after failover: "
                    f"{exc}"))
                continue
            # Every row carries the same bag: the row key tells rows apart.
            written = dict(_entity_props(op.nbytes), RowKey=op.key)
            if any(entity.get(name) != value
                   for name, value in written.items()):
                violations.append(Violation(
                    "dn-table-integrity",
                    f"committed row {op.key!r} reads back another key or "
                    "other properties than it was written with"))
        elif (op.service, op.op) == ("queue", "put"):
            acked_puts[_md5(SyntheticContent(op.nbytes, seed=op.index))] += 1
    drained: Counter = Counter()
    while True:
        msg = exhaust(qc.get_message(LOAD_QUEUE, visibility_timeout=3600.0))
        if msg is None:
            break
        drained[_md5(msg.content)] += 1
    missing = sum((acked_puts - drained).values())
    if missing:
        violations.append(Violation(
            "dn-queue-loss",
            f"{missing} committed queue message(s) lost after failover "
            f"({sum(acked_puts.values())} acked, "
            f"{sum(drained.values())} drained)"))
    return violations


def run_dn_failover(profile: str = "dn-failover", seed: int = 0, *,
                    dn: int = 3, replicas: int = 2, rate: float = 8.0,
                    duration: float = 35.0, time_scale: float = 0.2,
                    window_s: float = 5.0, max_clients: int = 16,
                    windows_csv: Optional[str] = None) -> ChaosVerdict:
    """Crash data nodes under open-loop load; verify the failure domain.

    Returns a :class:`ChaosVerdict` whose JSON is byte-identical across
    runs with the same ``(profile, seed)`` — measured timings go to
    stderr and the optional ``windows_csv`` artifact, never the verdict.
    A profile with any kind outside ``DN_KINDS`` raises ``ValueError``
    before a cluster boots.
    """
    faults = build_schedule(profile, seed=seed)
    kinds = Counter(s.kind for s in faults.specs)
    refused = sorted(k.value for k in kinds if k not in DN_KINDS)
    if refused:
        raise ValueError(
            f"profile {profile!r} injects {', '.join(refused)}: the "
            f"dnfailover workload fails whole data nodes and takes only "
            f"{', '.join(sorted(k.value for k in DN_KINDS))} profiles")
    for spec in faults.specs:
        if spec.node >= dn:
            raise ValueError(
                f"profile {profile!r} targets data node {spec.node} but "
                f"the cluster only has {dn}; raise --dn")

    config = LoadConfig(
        arrivals=ArrivalSpec(rate=rate, seed=seed), duration=duration,
        window_s=window_s, mix="failover", payload_bytes=512, seed=seed,
        backend="service", preload=8, max_clients=max_clients,
        time_scale=time_scale, dn=dn, replicas=replicas)
    schedule = build_flock_schedule(config)
    verdict = ChaosVerdict(
        workload="dnfailover", profile=profile, seed=seed,
        runs=[f"dnfailover@dn{dn}r{replicas}"],
        schedules=[faults.describe(), {
            "workload": config.describe(),
            "op_digest": schedule_digest(schedule.iter_ops()),
        }])
    verdict.counts = {
        "scheduled_ops": len(schedule),
        "writes_scheduled": sum(
            1 for op in schedule.iter_ops()
            if op.op in ("upload", "put", "insert")),
        "data_nodes": dn,
        "replicas": replicas,
        "dn_crashes": kinds[FaultKind.DN_CRASH],
        "dn_slows": kinds[FaultKind.DN_SLOW],
    }

    agg = StatsAggregator(window_s)
    try:
        with service_run(config, schedule, agg, faults.specs) as run:
            recovery = run.recovery
            settled = True
            if recovery is not None:
                if not recovery["detected"]:
                    verdict.violations.append(Violation(
                        "dn-detection",
                        f"heartbeats never declared "
                        f"{kinds[FaultKind.DN_CRASH]} data node(s) dead"))
                settled = recovery["settled"]
                if not settled:
                    verdict.violations.append(Violation(
                        "dn-rebalance",
                        "ring rebalancing did not quiesce in time"))

            verdict.violations.extend(_check_acked_writes(
                run.make_clients(), schedule, run.outcomes))

            # Bounded unavailability: kill -> heal must fit inside the
            # configured detection window plus a generous migration grace
            # (real-time CI machines stall; only order-of-magnitude
            # escapes are failures).
            domain = run.cluster.failure_domain
            detect_budget = (domain.dead_after * domain.heartbeat_interval
                             + domain.heartbeat_timeout)
            bound = detect_budget * 3.0 + 5.0
            unavail = None
            if recovery is not None and settled:
                unavail = recovery["unavailable_s"]
                if unavail is None:
                    verdict.violations.append(Violation(
                        "dn-unavailability",
                        "no heal timestamp recorded after a DN crash"))
                elif unavail > bound:
                    verdict.violations.append(Violation(
                        "dn-unavailability",
                        f"kill-to-heal window {unavail:.2f}s exceeds "
                        f"the {bound:.2f}s budget "
                        f"(detect {detect_budget:.2f}s)"))

            counters = run.cluster.membership.counters
            attempted = sum(1 for ok in run.outcomes if ok is not None)
            failed = sum(1 for ok in run.outcomes if ok is False)
            print(f"dnfailover seed={seed}: {attempted} ops "
                  f"({failed} failed), "
                  f"deaths={counters['deaths']}, "
                  f"migrated={counters['shards_migrated']} shard(s), "
                  f"hedges={counters['hedges']}, "
                  f"503s={counters['no_owner_503s']}"
                  + (f", kill-to-heal {unavail:.2f}s"
                     if unavail is not None else ""),
                  file=sys.stderr)
            if windows_csv:
                os.makedirs(os.path.dirname(windows_csv) or ".",
                            exist_ok=True)
                with open(windows_csv, "w") as f:
                    f.write(render_windows(agg.rows(
                        duration=max(duration, run.elapsed))))
    except Exception as exc:
        verdict.violations.append(Violation(
            "harness",
            f"dnfailover: run crashed before checks completed: "
            f"{type(exc).__name__}: {exc}"))
        raise ChaosRunError(
            f"chaos run dnfailover crashed: {exc}", verdict) from exc
    return verdict

