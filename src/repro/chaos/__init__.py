"""Chaos conformance harness: run workloads under fault schedules and
check that the operation history satisfies the platform's invariants.

The benchmark suite answers "how fast"; this package answers "still
correct?".  A chaos run takes any figure workload (or the bag-of-tasks
application), composes a seeded fault schedule from the named profiles in
:mod:`repro.faults.profiles` — optionally plus worker-role crash/restart
events driven through :mod:`repro.compute.supervisor` — records the full
operation history (client-level audit + the Tracer span stream + Storage
Analytics), and checks conformance invariants over it:

* **queue message conservation** — every acked put is consumed exactly
  once unless loss was injected; duplicates appear only when duplicate
  delivery was injected or a visibility timeout genuinely expired;
* **blob integrity** — downloaded bytes match the digests of prior
  writes, chunk by chunk;
* **table conformance** — two ETag-conditional updates against the same
  ETag never both succeed; the insert/delete ledger balances against the
  final entity count;
* **analytics conservation** — Storage Analytics ingress/egress totals
  reconcile with the traced span payloads;
* **termination** — the workload completes within a bounded retry budget.

Layering: this package sits on top of everything (bench, faults,
observability, compute), so nothing inside ``repro`` imports it.
"""

from .checkpoint import RunCheckpoint
from .dnfailover import run_dn_failover
from .history import History, OpRecord, audit_account
from .invariants import (
    Violation,
    check_analytics_conservation,
    check_blob_integrity,
    check_history,
    check_queue_conservation,
    check_table_conformance,
    check_termination,
)
from .ledger import QueueLedger, ledger_from_events
from .runner import (
    CHAOS_SCALE,
    ChaosRun,
    chaos_workloads,
    run_chaos,
    run_chaos_taskpool,
)
from .schedule import ChaosSchedule, CrashEvent, build_schedule
from .verdict import ChaosRunError, ChaosVerdict

__all__ = [
    "RunCheckpoint",
    "run_dn_failover",
    "History",
    "OpRecord",
    "audit_account",
    "Violation",
    "check_analytics_conservation",
    "check_blob_integrity",
    "check_history",
    "check_queue_conservation",
    "check_table_conformance",
    "check_termination",
    "QueueLedger",
    "ledger_from_events",
    "CHAOS_SCALE",
    "ChaosRun",
    "chaos_workloads",
    "run_chaos",
    "run_chaos_taskpool",
    "ChaosSchedule",
    "CrashEvent",
    "build_schedule",
    "ChaosRunError",
    "ChaosVerdict",
]
