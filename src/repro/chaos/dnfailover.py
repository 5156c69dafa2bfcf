"""DN failure-domain chaos: crash a data node under open-loop load.

:func:`run_dn_failover` boots a real (in-process, socket-speaking) SN/DN
cluster with R-way shard replication and health-checked membership, dispatches
a seeded open-loop write/read workload against it over the wire, and
crash-stops the data node(s) named by the profile's ``DN_CRASH`` specs
mid-run.  The failure domain (:mod:`repro.service.membership`) must then
detect the death by missed heartbeats, heal the consistent-hash ring, and
re-replicate under-owned shards — while the campaign keeps writing.

Afterwards the campaign verifies the two promises the failure domain makes:

* **zero committed-write loss** — every client-acked write (blob bytes by
  digest, queue message payloads by multiset, table rows by key/value) is
  still readable with the right content;
* **bounded unavailability** — the wall-clock gap between the kill and the
  completed rebalance stays within the heartbeat + rebalance window the
  :class:`~repro.service.membership.FailureDomainConfig` implies.

The verdict carries only deterministic evidence (the seeded schedule, the
workload digest, scheduled counts), so two runs with the same seed produce
byte-identical verdict JSON; measured timings (detection latency, heal time,
per-window error counts) go to stderr and the optional windows CSV artifact.
"""

from __future__ import annotations

import hashlib
import sys
import threading
import time
from dataclasses import dataclass
from random import Random
from typing import Dict, List, Optional, Tuple

from ..faults.spec import DN_KINDS, FaultKind
from ..storage.errors import StorageError
from ..traffic.engine import dispatch_wallclock
from ..wallclock import exhaust
from .invariants import Violation
from .schedule import build_schedule
from .verdict import ChaosRunError, ChaosVerdict

__all__ = ["DNOp", "build_dn_workload", "workload_digest", "run_dn_failover"]

#: Fixed resource names (>= 3 chars: container-name rules).
DN_CONTAINER = "chaosblobs"
DN_QUEUE = "chaosq"
DN_TABLE = "chaost"
DN_PARTITION = "chaos"

#: Read targets created before arrivals start.
PRELOAD = 8

#: (weight, kind) — the seeded op mix; writes dominate because the loss
#: check is about committed writes surviving the crash.
_MIX: Tuple[Tuple[float, str], ...] = (
    (0.30, "blob.upload"),
    (0.15, "blob.download"),
    (0.25, "queue.put"),
    (0.20, "table.insert"),
    (0.10, "table.get"),
)


@dataclass(frozen=True)
class DNOp:
    """One scheduled campaign operation."""

    index: int
    at: float  # virtual seconds
    kind: str
    key: str


def _payload(seed: int, index: int, nbytes: int = 512) -> bytes:
    stamp = f"dnfail:{seed}:{index}:".encode()
    reps = nbytes // len(stamp) + 1
    return (stamp * reps)[:nbytes]


def build_dn_workload(seed: int, *, rate: float = 8.0,
                      duration: float = 35.0) -> List[DNOp]:
    """The deterministic op schedule — a pure function of the seed."""
    rng = Random(f"{seed}:dnfailover:ops")
    total = sum(w for w, _ in _MIX)
    out: List[DNOp] = []
    at = 0.0
    index = 0
    while True:
        at += rng.expovariate(rate)
        if at >= duration:
            break
        draw = rng.random() * total
        for weight, kind in _MIX:
            draw -= weight
            if draw < 0:
                break
        if kind in ("blob.download", "table.get"):
            key = f"warm-{rng.randrange(PRELOAD)}"
        elif kind == "blob.upload":
            key = f"obj-{index}"
        elif kind == "table.insert":
            key = f"row-{index}"
        else:  # queue.put
            key = DN_QUEUE
        out.append(DNOp(index, at, kind, key))
        index += 1
    return out


def workload_digest(ops: List[DNOp]) -> str:
    """SHA-256 over the scheduled op sequence (seed-reproducible)."""
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.index},{op.at:.9f},{op.kind},{op.key}\n".encode())
    return h.hexdigest()


def _to_bytes(content) -> bytes:
    if isinstance(content, (bytes, bytearray, memoryview)):
        return bytes(content)
    return content.to_bytes()


def _md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


class _Ledger:
    """Committed (client-acked) writes, recorded under a lock."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.blobs: Dict[str, str] = {}     # name -> md5
        self.queue: List[str] = []          # payload md5 multiset
        self.rows: Dict[str, str] = {}      # row key -> value


def _run_op(clients, op: DNOp, seed: int, ledger: _Ledger) -> bool:
    bc, qc, tc = clients["blob"], clients["queue"], clients["table"]
    try:
        if op.kind == "blob.upload":
            data = _payload(seed, op.index)
            exhaust(bc.upload_blob(DN_CONTAINER, op.key, data))
            with ledger.lock:
                ledger.blobs[op.key] = _md5(data)
        elif op.kind == "blob.download":
            exhaust(bc.download_block_blob(DN_CONTAINER, op.key))
        elif op.kind == "queue.put":
            data = _payload(seed, op.index, 96)
            exhaust(qc.put_message(DN_QUEUE, data))
            with ledger.lock:
                ledger.queue.append(_md5(data))
        elif op.kind == "table.insert":
            value = f"v{seed}:{op.index}"
            exhaust(tc.insert(DN_TABLE, DN_PARTITION, op.key, {"v": value}))
            with ledger.lock:
                ledger.rows[op.key] = value
        elif op.kind == "table.get":
            exhaust(tc.get(DN_TABLE, DN_PARTITION, op.key))
        else:  # pragma: no cover - builder emits only known kinds
            raise ValueError(f"unknown op kind {op.kind!r}")
        return True
    except StorageError:
        return False
    except (ConnectionError, OSError):
        # The crash can abort a keep-alive mid-request; the op is simply
        # not committed (the ledger was not updated).
        return False


def _verify_ledger(clients, ledger: _Ledger, seed: int) -> List[Violation]:
    violations: List[Violation] = []
    bc, qc, tc = clients["blob"], clients["queue"], clients["table"]
    for name, digest in sorted(ledger.blobs.items()):
        try:
            body = _to_bytes(exhaust(bc.download_block_blob(
                DN_CONTAINER, name)))
        except StorageError as exc:
            violations.append(Violation(
                "dn-blob-loss",
                f"committed blob {name!r} unreadable after failover: {exc}"))
            continue
        if _md5(body) != digest:
            violations.append(Violation(
                "dn-blob-integrity",
                f"committed blob {name!r} corrupted after failover"))
    for key, value in sorted(ledger.rows.items()):
        try:
            entity = exhaust(tc.get(DN_TABLE, DN_PARTITION, key))
        except StorageError as exc:
            violations.append(Violation(
                "dn-table-loss",
                f"committed row {key!r} unreadable after failover: {exc}"))
            continue
        got = entity.get("v")
        if got != value:
            violations.append(Violation(
                "dn-table-integrity",
                f"committed row {key!r} holds {got!r}, expected {value!r}"))
    drained: List[str] = []
    while True:
        msg = exhaust(qc.get_message(DN_QUEUE, visibility_timeout=3600.0))
        if msg is None:
            break
        drained.append(_md5(_to_bytes(msg.content)))
    want = sorted(ledger.queue)
    have = sorted(drained)
    missing = _multiset_missing(want, have)
    if missing:
        violations.append(Violation(
            "dn-queue-loss",
            f"{missing} committed queue message(s) lost after failover "
            f"({len(want)} acked, {len(have)} drained)"))
    return violations


def _multiset_missing(want: List[str], have: List[str]) -> int:
    """How many entries of ``want`` are absent from ``have`` (sorted)."""
    counts: Dict[str, int] = {}
    for digest in have:
        counts[digest] = counts.get(digest, 0) + 1
    missing = 0
    for digest in want:
        if counts.get(digest, 0) > 0:
            counts[digest] -= 1
        else:
            missing += 1
    return missing


def run_dn_failover(profile: str = "dn-failover", seed: int = 0, *,
                    dn: int = 3, replicas: int = 2, rate: float = 8.0,
                    duration: float = 35.0, time_scale: float = 0.2,
                    window_s: float = 5.0, max_clients: int = 16,
                    windows_csv: Optional[str] = None) -> ChaosVerdict:
    """Crash data nodes under open-loop load; verify the failure domain.

    Returns a :class:`ChaosVerdict` whose JSON is byte-identical across
    runs with the same ``(profile, seed)`` — measured timings go to
    stderr and the optional ``windows_csv`` artifact, never the verdict.
    """
    from ..service import DEV_KEY, TenantConfig, TenantDirectory
    from ..service.client import ServiceConnection, wire_clients
    from ..service.cluster import ClusterRunner, ServiceCluster
    from ..service.membership import FailureDomainConfig

    schedule = build_schedule(profile, seed=seed)
    crash_specs = [s for s in schedule.specs
                   if s.kind is FaultKind.DN_CRASH]
    slow_specs = [s for s in schedule.specs if s.kind is FaultKind.DN_SLOW]
    other_specs = [s for s in schedule.specs if s.kind not in DN_KINDS]
    for spec in crash_specs + slow_specs:
        if spec.node >= dn:
            raise ValueError(
                f"profile {profile!r} targets data node {spec.node} but "
                f"the cluster only has {dn}; raise --dn")

    ops = build_dn_workload(seed, rate=rate, duration=duration)
    verdict = ChaosVerdict(
        workload="dnfailover", profile=profile, seed=seed,
        runs=[f"dnfailover@dn{dn}r{replicas}"],
        schedules=[schedule.describe(), {
            "workload": {"rate": rate, "duration_s": duration,
                         "mix": [list(entry) for entry in _MIX],
                         "preload": PRELOAD},
            "op_digest": workload_digest(ops),
        }])
    verdict.counts = {
        "scheduled_ops": len(ops),
        "writes_scheduled": sum(
            1 for op in ops
            if op.kind in ("blob.upload", "queue.put", "table.insert")),
        "data_nodes": dn,
        "replicas": replicas,
        "dn_crashes": len(crash_specs),
        "dn_slows": len(slow_specs),
    }

    config = FailureDomainConfig.kill_test(replicas, seed)
    tenants = TenantDirectory(
        [TenantConfig.development(enforce_targets=False)])
    cluster = ServiceCluster(nodes=1, dn=dn, tenants=tenants,
                             failure_domain=config)
    runner = ClusterRunner(cluster)
    account = tenants.accounts()[0]
    outcomes: List[Optional[bool]] = [None] * len(ops)
    ledger = _Ledger()
    kill_walls: Dict[int, float] = {}

    def make_clients() -> Dict[str, object]:
        return wire_clients(ServiceConnection(
            cluster.endpoints(0), account, DEV_KEY, busy_retries=6))

    runner.start()
    try:
        try:
            clients = make_clients()
            exhaust(clients["blob"].create_container(DN_CONTAINER))
            exhaust(clients["queue"].create_queue(DN_QUEUE))
            exhaust(clients["table"].create_table(DN_TABLE))
            for j in range(PRELOAD):
                exhaust(clients["blob"].upload_blob(
                    DN_CONTAINER, f"warm-{j}", _payload(seed, -1 - j)))
                exhaust(clients["table"].insert(
                    DN_TABLE, DN_PARTITION, f"warm-{j}", {"v": f"warm{j}"}))
            if other_specs:
                from ..faults.plan import FaultPlan
                cluster.set_fault_plan(account,
                                       FaultPlan(other_specs, seed=seed))

            timers: List[threading.Timer] = []

            def kill(node: int) -> None:
                kill_walls[node] = time.monotonic()
                runner.kill_data_node(node)

            def later(at: float, fn, *args) -> None:
                t = threading.Timer(at * time_scale, fn, args)
                t.start()
                timers.append(t)

            def arm_timers() -> None:
                for spec in crash_specs:
                    later(spec.start, kill, spec.node)
                for spec in slow_specs:
                    later(spec.start, runner.set_data_node_slow,
                          spec.node, spec.latency_factor)
                    if spec.duration != float("inf"):
                        later(spec.end, runner.set_data_node_slow,
                              spec.node, 0.0)

            def run_one(clients, op: DNOp, _virtual_now) -> None:
                outcomes[op.index] = _run_op(clients, op, seed, ledger)

            # The load engine's dispatcher: an exception _run_op does not
            # count as a refused op (a harness or client bug) comes back
            # out of it and fails the campaign below.
            try:
                dispatch_wallclock(
                    ((op.at, op) for op in ops), run_one, make_clients,
                    time_scale=time_scale, max_clients=max_clients,
                    on_origin=arm_timers)
            finally:
                for t in timers:
                    t.join()

            membership = cluster.membership
            settled = True
            if crash_specs:
                if not runner.wait_deaths_detected(len(crash_specs),
                                                   timeout=30.0):
                    verdict.violations.append(Violation(
                        "dn-detection",
                        f"heartbeats never declared {len(crash_specs)} "
                        f"data node(s) dead"))
                settled = runner.wait_settled(timeout=30.0)
                if not settled:
                    verdict.violations.append(Violation(
                        "dn-rebalance",
                        "ring rebalancing did not quiesce in time"))

            verify_clients = make_clients()
            verdict.violations.extend(
                _verify_ledger(verify_clients, ledger, seed))

            # Bounded unavailability: kill -> heal must fit inside the
            # configured detection window plus a generous migration grace
            # (wall-clock CI machines stall; only order-of-magnitude
            # escapes are failures).
            detect_budget = (config.dead_after * config.heartbeat_interval
                             + config.heartbeat_timeout)
            bound = detect_budget * 3.0 + 5.0
            unavail = None
            if crash_specs and settled:
                heal_at = membership.last_heal_at
                first_kill = min(kill_walls.values()) if kill_walls else None
                if heal_at is None or first_kill is None:
                    verdict.violations.append(Violation(
                        "dn-unavailability",
                        "no heal timestamp recorded after a DN crash"))
                else:
                    unavail = max(0.0, heal_at - first_kill)
                    if unavail > bound:
                        verdict.violations.append(Violation(
                            "dn-unavailability",
                            f"kill-to-heal window {unavail:.2f}s exceeds "
                            f"the {bound:.2f}s budget "
                            f"(detect {detect_budget:.2f}s)"))

            attempted = sum(1 for ok in outcomes if ok is not None)
            failed = sum(1 for ok in outcomes if ok is False)
            print(f"dnfailover seed={seed}: {attempted} ops "
                  f"({failed} failed), "
                  f"deaths={membership.counters['deaths']}, "
                  f"migrated={membership.counters['shards_migrated']} "
                  f"shard(s), "
                  f"hedges={membership.counters['hedges']}, "
                  f"503s={membership.counters['no_owner_503s']}"
                  + (f", kill-to-heal {unavail:.2f}s"
                     if unavail is not None else ""),
                  file=sys.stderr)
            if windows_csv:
                _write_windows_csv(windows_csv, ops, outcomes, window_s,
                                   crash_specs)
        except ChaosRunError:
            raise
        except Exception as exc:
            verdict.violations.append(Violation(
                "harness",
                f"dnfailover: run crashed before checks completed: "
                f"{type(exc).__name__}: {exc}"))
            raise ChaosRunError(
                f"chaos run dnfailover crashed: {exc}", verdict) from exc
    finally:
        runner.stop()
    return verdict


def _write_windows_csv(path: str, ops: List[DNOp],
                       outcomes: List[Optional[bool]], window_s: float,
                       crash_specs) -> None:
    """Per-window outcome counts (virtual time) — the SLO-dip artifact."""
    import os

    horizon = max((op.at for op in ops), default=0.0)
    n_windows = int(horizon // window_s) + 1
    rows = [[0, 0] for _ in range(n_windows)]
    for op in ops:
        ok = outcomes[op.index]
        if ok is None:
            continue
        bucket = rows[int(op.at // window_s)]
        bucket[0] += 1
        if not ok:
            bucket[1] += 1
    crash_windows = {int(s.start // window_s) for s in crash_specs}
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as f:
        f.write("window_start_s,ops,errors,dn_crash\n")
        for i, (total, errors) in enumerate(rows):
            f.write(f"{i * window_s:g},{total},{errors},"
                    f"{int(i in crash_windows)}\n")
