"""The open-loop traffic engine.

:func:`run_load` drives a seeded operation schedule against any backend:

* **sim / geo** — arrivals are kernel events of the DES
  (:func:`~repro.traffic.flock.run_flock_des`): each scheduled instant
  starts one operation regardless of how many earlier operations are
  still in flight, which is what makes the load open-loop (a saturated
  fabric accumulates in-flight work instead of throttling the offered
  rate).
* **emulator / service** — :func:`_run_wallclock` releases operations
  at their (time-scaled) wall-clock instants into a bounded client
  pool; on ``service`` :func:`service_run` boots the cluster around it,
  and the DN-failover chaos campaign runs the ``failover`` mix through
  the same helper.

What an operation *does* is written once, as a sim-style generator
(``yield from client.op(...)``; :func:`_setup`, :func:`_op_starters`).
The DES starts it as a :class:`~repro.simkit.Detached` (set-up: a
process) over sim clients; the wall-clock backends hand it never-yielding
shim clients (:class:`repro.wallclock.ShimAccount`, the wire clients of
:mod:`repro.service.client`) and exhaust it with
:func:`repro.wallclock.exhaust`.

The **schedule** — arrival instants from the
:class:`~repro.traffic.arrivals.ArrivalSpec` plus seeded operation-mix
and key draws, held columnar as a
:class:`~repro.traffic.flock.FlockSchedule` — is precomputed before
anything runs, so it is a pure function of the spec: every backend
issues the *identical* operation sequence for a given seed (pinned by
``tests/traffic/test_backend_equivalence.py``).  Completions stream into
a :class:`~repro.traffic.stats.StatsAggregator` and the optional
:class:`~repro.traffic.slo.SLOSpec` turns the windows into a verdict.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, Iterator,
                    List, NamedTuple, Optional, Sequence, Tuple)

from ..mixes import MIXES
from ..storage import KB
from ..storage.content import SyntheticContent
from ..storage.errors import StorageError
from .arrivals import ArrivalSpec
from .slo import SLOReport, SLOSpec
from .stats import CompletionBuffer, StatsAggregator, WindowRow, windows_csv

if TYPE_CHECKING:
    from ..faults.spec import FaultSpec
    from ..service.cluster import ServiceCluster
    from .flock import FlockSchedule

__all__ = [
    "LoadConfig",
    "ScheduledOp",
    "LoadResult",
    "MIXES",
    "schedule_digest",
    "run_load",
    "service_run",
]

#: Fixed resource names every mix uses.
LOAD_QUEUE = "loadq"
LOAD_CONTAINER = "loadc"
LOAD_TABLE = "loadt"
LOAD_PARTITION = "load"

DEFAULT_FLOCK_SIZE = 8192


@dataclass(frozen=True)
class LoadConfig:
    """One open-loop load run."""

    arrivals: ArrivalSpec = field(default_factory=ArrivalSpec)
    #: Simulated (or virtual, on wall-clock backends) seconds of arrivals.
    duration: float = 60.0
    window_s: float = 5.0
    mix: str = "queue"
    payload_bytes: int = 4 * KB
    #: Fabric seed (account/cost model), independent of the arrival seed.
    seed: int = 2012
    backend: str = "sim"
    slo: Optional[SLOSpec] = None
    #: Read-target objects created before arrivals start.
    preload: int = 16
    #: Utilization divisor in the window rows (read-time hint only).
    servers: int = 1
    #: Thread cap for the wall-clock backends (emulator/service).
    max_clients: int = 32
    #: Wall seconds per virtual second on wall-clock backends.
    time_scale: float = 0.01
    #: Service backend only: cluster shape and the mid-run DN kill.
    dn: int = 2
    replicas: int = 1
    kill_dn: Optional[int] = None
    #: Virtual seconds into the run at which ``kill_dn`` crash-stops.
    kill_at: Optional[float] = None
    #: Simulated clients: multiplies the per-client arrival rate.
    clients: int = 1
    #: Completions the stats flush folds at a time, and on the DES
    #: backends arrivals unpacked from the columns; it sizes no result.
    flock_size: int = DEFAULT_FLOCK_SIZE
    #: Selects nothing: benchmarks/suite still passes both old names.
    scheduler: str = "heap"

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be > 0")
        if self.mix not in MIXES:
            raise ValueError(f"unknown mix {self.mix!r}; choose from "
                             f"{', '.join(sorted(MIXES))}")
        if self.payload_bytes < 0 or self.preload < 1:
            raise ValueError("payload_bytes must be >= 0, preload >= 1")
        if self.max_clients < 1 or self.time_scale <= 0:
            raise ValueError("max_clients must be >= 1, time_scale > 0")
        if self.dn < 1:
            raise ValueError("dn must be >= 1")
        if not 1 <= self.replicas <= self.dn:
            raise ValueError(
                f"replicas must be in [1, dn={self.dn}], "
                f"got {self.replicas}")
        if (self.kill_dn is None) != (self.kill_at is None):
            raise ValueError("kill_dn and kill_at go together")
        if self.kill_dn is not None:
            if not 0 <= self.kill_dn < self.dn:
                raise ValueError(
                    f"kill_dn must name one of the {self.dn} data nodes")
            if not 0 < self.kill_at < self.duration:
                raise ValueError("kill_at must fall inside the run")
        if ((self.replicas > 1 or self.kill_dn is not None)
                and self.backend != "service"):
            raise ValueError("replicas/kill_dn apply to the service "
                             "backend only")
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.clients > 1 and self.arrivals.process == "trace":
            raise ValueError("clients scales the arrival rate, which "
                             "trace replay ignores; pre-scale the trace "
                             "instants instead")
        if self.flock_size < 1:
            raise ValueError("flock_size must be >= 1")
        if self.scheduler not in ("heap", "calendar"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}; "
                             "choose from heap, calendar")

    def describe(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "arrivals": self.arrivals.describe(),
            "duration_s": self.duration,
            "window_s": self.window_s,
            "mix": self.mix,
            "payload_bytes": self.payload_bytes,
            "seed": self.seed,
            "backend": self.backend,
            "preload": self.preload,
            "servers": self.servers,
        }
        # Failure-domain knobs appear only when engaged, so default-run
        # verdict JSON is unchanged.
        if self.replicas > 1 or self.kill_dn is not None:
            out["dn"] = self.dn
            out["replicas"] = self.replicas
        if self.kill_dn is not None:
            out["kill_dn"] = self.kill_dn
            out["kill_at_s"] = self.kill_at
        # Scale knobs likewise appear only when engaged.
        if self.clients != 1:
            out["clients"] = self.clients
        if self.flock_size != DEFAULT_FLOCK_SIZE:
            out["flock_size"] = self.flock_size
        return out

    def effective_arrivals(self) -> ArrivalSpec:
        """The spec actually driven: per-client rate times ``clients``."""
        if self.clients == 1:
            return self.arrivals
        return self.arrivals.with_rate(self.arrivals.rate * self.clients)


class ScheduledOp(NamedTuple):
    """One precomputed arrival: when, what, and against which key."""

    index: int
    at: float
    service: str
    op: str
    key: str
    nbytes: int


def schedule_digest(schedule: Iterable[ScheduledOp],
                    outcomes: Optional[Sequence] = None) -> str:
    """SHA-256 over the issued operation sequence (and outcomes).

    ``schedule`` is any iterable of ops (``FlockSchedule.iter_ops()``
    streams them from its columnar arrays); ``outcomes`` any indexable
    of None/bool-convertible entries.
    """
    h = hashlib.sha256()
    for s in schedule:
        ok = "-" if outcomes is None else str(int(bool(outcomes[s.index])))
        h.update(f"{s.index},{s.at:.9f},{s.service},{s.op},{s.key},"
                 f"{s.nbytes},{ok}\n".encode())
    return h.hexdigest()


# -- operation bodies --------------------------------------------------------

@lru_cache(maxsize=1)
def _entity_props(nbytes: int) -> Dict[str, str]:
    """The property bag of a run's table writes (entities copy it)."""
    return {"v": "x" * max(1, nbytes)}


#: One-step kinds: (service, op) -> (client method, its arguments from
#: ``(index, key, nbytes)``).  ``queue.get`` is get-then-delete, below.
_ONE_STEP: Dict[Tuple[str, str], Tuple[str, Callable]] = {
    ("queue", "put"): ("put_message", lambda i, key, n: (
        key, SyntheticContent(n, seed=i))),
    ("queue", "peek"): ("peek_message", lambda i, key, n: (key,)),
    ("blob", "download"): ("download_block_blob", lambda i, key, n: (
        LOAD_CONTAINER, key)),
    ("blob", "upload"): ("upload_blob", lambda i, key, n: (
        LOAD_CONTAINER, key, SyntheticContent(n, seed=i))),
    ("table", "insert"): ("insert", lambda i, key, n: (
        LOAD_TABLE, LOAD_PARTITION, key, _entity_props(n))),
    ("table", "get"): ("get", lambda i, key, n: (
        LOAD_TABLE, LOAD_PARTITION, key)),
    ("table", "upsert"): ("insert_or_replace", lambda i, key, n: (
        LOAD_TABLE, LOAD_PARTITION, key, _entity_props(n))),
    ("table", "query"): ("query_partition", lambda i, key, n: (
        LOAD_TABLE, key)),
}


def _op_starters(clients: Dict[str, object],
                 kinds: Sequence[Tuple[str, str]],
                 sizes: Sequence[int]) -> Tuple[Callable, ...]:
    """Per mix kind, ``(index, key) -> generator`` of that operation: a
    one-step kind *is* its client method's generator, with nothing
    around it."""
    def starter(service: str, op: str, nbytes: int) -> Callable:
        client = clients[service]
        if (service, op) == ("queue", "get"):
            def get_then_delete(i, key):
                msg = yield from client.get_message(
                    key, visibility_timeout=3600.0)
                if msg is not None:
                    yield from client.delete_message(
                        key, msg.message_id, msg.pop_receipt)
            return get_then_delete
        name, args = _ONE_STEP[service, op]
        method = getattr(client, name)
        return lambda i, key: method(*args(i, key, nbytes))
    return tuple(starter(*kind, n) for kind, n in zip(kinds, sizes))


def _setup(clients: Dict[str, object], config: LoadConfig):
    """Create the fixed resources and preload read targets."""
    qc, bc, tc = clients["queue"], clients["blob"], clients["table"]
    mix_services = {service for _, service, _ in MIXES[config.mix]}
    if "queue" in mix_services:
        yield from qc.create_queue(LOAD_QUEUE)
        for i in range(min(config.preload, 8)):
            yield from qc.put_message(
                LOAD_QUEUE, SyntheticContent(config.payload_bytes,
                                             seed=-1 - i))
    if "blob" in mix_services:
        yield from bc.create_container(LOAD_CONTAINER)
        for i in range(config.preload):
            yield from bc.upload_blob(
                LOAD_CONTAINER, f"obj-{i}",
                SyntheticContent(max(1, config.payload_bytes), seed=-1 - i))
    if "table" in mix_services:
        yield from tc.create_table(LOAD_TABLE)
        for i in range(config.preload):
            yield from tc.insert(LOAD_TABLE, LOAD_PARTITION, f"obj-{i}",
                                 _entity_props(config.payload_bytes))


# -- results -----------------------------------------------------------------

@dataclass
class LoadResult:
    """Everything one open-loop run produced."""

    config: LoadConfig
    rows: List[WindowRow]
    aggregator: StatsAggregator
    #: Digest over the issued op sequence + outcomes (see
    #: :func:`schedule_digest`): reproducible for seeded DES runs, but
    #: on a wall-clock backend the outcomes follow timing, so two runs
    #: of one tree may differ.  The issued sequence alone is
    #: ``schedule_digest(schedule.iter_ops())``.
    digest: str
    #: Virtual seconds from first arrival to last completion.
    elapsed_s: float
    slo_report: Optional[SLOReport]
    #: Measured failure-domain disruption (kill runs only): detection and
    #: heal timings plus error accounting around the kill.
    disruption: Optional[Dict[str, object]] = None
    #: Measured execution cost (peak RSS, wall clock, kernel events/sec)
    #: so scale claims are recorded, not anecdotal.  Host-dependent — the
    #: one deliberately non-deterministic part of the verdict.
    resources: Optional[Dict[str, object]] = None

    @property
    def passed(self) -> bool:
        return self.slo_report.clean if self.slo_report else True

    def verdict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": "open-loop-load",
            "config": self.config.describe(),
            "totals": self.aggregator.totals(),
            "windows": [row.to_dict() for row in self.rows],
            "elapsed_s": round(self.elapsed_s, 6),
            "op_digest": self.digest,
            "passed": self.passed,
        }
        if self.slo_report is not None:
            out["slo_report"] = self.slo_report.to_dict()
        if self.disruption is not None:
            out["disruption"] = dict(self.disruption)
        if self.resources is not None:
            out["resources"] = dict(self.resources)
        return out

    def to_json(self) -> str:
        return json.dumps(self.verdict(), indent=2, sort_keys=True)

    def write_artifacts(self, out_dir: str) -> List[str]:
        """Write ``windows.csv`` + ``verdict.json``; return the paths."""
        os.makedirs(out_dir, exist_ok=True)
        paths = []
        for name, text in (("windows.csv", windows_csv(self.rows)),
                           ("verdict.json", self.to_json() + "\n")):
            path = os.path.join(out_dir, name)
            with open(path, "w") as f:
                f.write(text)
            paths.append(path)
        return paths


# -- execution ---------------------------------------------------------------

def run_load(config: LoadConfig) -> LoadResult:
    """Run one open-loop load campaign on the configured backend."""
    from ..backend import (EmulatorBackend, ServiceBackend, SimBackend,
                           get_backend)
    from .flock import build_flock_schedule, run_flock_des

    agg = StatsAggregator(config.window_s)
    backend = get_backend(config.backend)
    disruption = None
    events: Optional[int] = None
    wall_start = time.perf_counter()
    schedule = build_flock_schedule(config)
    if isinstance(backend, SimBackend):  # includes GeoBackend
        outcomes, elapsed, events = run_flock_des(
            backend, config, schedule, agg)
    elif isinstance(backend, EmulatorBackend):
        outcomes, elapsed = _run_wallclock(
            config, schedule, agg, _emulator_client_factory())
    elif isinstance(backend, ServiceBackend):
        outcomes, elapsed, disruption = _run_service(config, schedule, agg)
    else:  # pragma: no cover - registry covers all names
        raise ValueError(f"backend {config.backend!r} cannot run "
                         f"open-loop load")
    digest = schedule_digest(schedule.iter_ops(), outcomes)
    wall = time.perf_counter() - wall_start
    horizon = max(config.duration, elapsed)
    rows = agg.rows(duration=horizon, servers=config.servers)
    report = config.slo.check(rows) if config.slo is not None else None
    return LoadResult(config=config, rows=rows, aggregator=agg,
                      digest=digest,
                      elapsed_s=elapsed, slo_report=report,
                      disruption=disruption,
                      resources=_resource_usage(wall, events))


def _resource_usage(wall_s: float,
                    events: Optional[int]) -> Dict[str, object]:
    """Measured execution-cost facts for the verdict's resources block."""
    try:
        import resource as res
        peak = res.getrusage(res.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KB on Linux, bytes on macOS.
        divisor = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0
        peak_rss_mb: Optional[float] = round(peak / divisor, 3)
    except ImportError:  # pragma: no cover - non-POSIX
        peak_rss_mb = None
    out: Dict[str, object] = {
        "wall_clock_s": round(wall_s, 6),
        "peak_rss_mb": peak_rss_mb,
    }
    if events is not None:
        out["kernel_events"] = events
        out["kernel_events_per_sec"] = (
            round(events / wall_s, 1) if wall_s > 0 else None)
    return out


def _clients(account) -> Dict[str, object]:
    """One client per service of a sim-style account, by service name."""
    return {"queue": account.queue_client(),
            "blob": account.blob_client(),
            "table": account.table_client()}


def _emulator_client_factory() -> Callable[[], Dict]:
    from ..emulator import EmulatorAccount
    from ..wallclock import ShimAccount

    # No env: only role bodies' barriers read a shim client's clock.
    return partial(_clients, ShimAccount(EmulatorAccount(), None))


def _run_service(config: LoadConfig, schedule: FlockSchedule,
                 agg: StatsAggregator):
    """Drive an in-process SN/DN cluster over signed HTTP.

    With ``kill_dn``/``kill_at`` set, one data node crash-stops mid-run
    (the ``repro load`` failover scenario, on the cluster loop's timer):
    replicated shards plus health-checked membership must absorb the
    kill, and the returned disruption report carries the measured SLO
    dip (errors around the kill) and the detection/heal timings.
    """
    from ..faults.spec import FaultKind, FaultSpec

    kills = [] if config.kill_dn is None else [FaultSpec(
        kind=FaultKind.DN_CRASH, node=config.kill_dn, start=config.kill_at)]
    with service_run(config, schedule, agg, kills) as run:
        disruption = run.recovery
    if disruption is not None:
        for key in ("recovery_s", "unavailable_s"):
            if disruption[key] is not None:
                disruption[key] = round(disruption[key], 3)
        disruption.update(
            kill_dn=config.kill_dn, kill_at_s=config.kill_at,
            errors=sum(1 for ok in run.outcomes if ok is False))
    return run.outcomes, run.elapsed, disruption


class ServiceRun(NamedTuple):
    """A schedule driven against a live cluster that is still up."""

    outcomes: List[Optional[bool]]
    elapsed: float
    #: ``ClusterRunner.wait_recovery`` over the DN_CRASH specs (None
    #: without one).
    recovery: Optional[Dict[str, object]]
    cluster: "ServiceCluster"
    #: Fresh clients of the run's tenant, each on its own connection.
    make_clients: Callable[[], Dict]


@contextmanager
def service_run(config: LoadConfig, schedule: FlockSchedule,
                agg: StatsAggregator,
                faults: Sequence["FaultSpec"]) -> Iterator[ServiceRun]:
    """Boot an in-process SN/DN cluster, drive ``schedule`` against it,
    and yield the :class:`ServiceRun` before the cluster stops.

    ``faults`` (DN_CRASH / DN_SLOW specs) are armed on the cluster loop
    as the run's origin is pinned; once the schedule has drained, the
    run waits out as many deaths as there are DN_CRASH specs, and their
    heal.  Health-checked membership runs whenever shards are
    replicated or a fault is armed.
    """
    from ..faults.spec import FaultKind
    from ..service import DEV_KEY, TenantConfig, TenantDirectory
    from ..service.client import ServiceConnection, wire_clients
    from ..service.cluster import ClusterRunner, ServiceCluster
    from ..service.membership import FailureDomainConfig

    failure_domain = None
    if config.replicas > 1 or faults:
        failure_domain = FailureDomainConfig.kill_test(
            config.replicas, config.seed)
    tenants = TenantDirectory([TenantConfig.development()])
    cluster = ServiceCluster(nodes=1, dn=config.dn, tenants=tenants,
                             failure_domain=failure_domain)
    account = tenants.accounts()[0]

    def make() -> Dict[str, object]:
        return wire_clients(
            ServiceConnection(cluster.endpoints(0), account, DEV_KEY))

    runner = ClusterRunner(cluster)
    runner.start()
    try:
        outcomes, elapsed = _run_wallclock(
            config, schedule, agg, make,
            on_origin=lambda: runner.schedule_faults(
                faults, config.time_scale))
        crashes = sum(1 for spec in faults
                      if spec.kind is FaultKind.DN_CRASH)
        recovery = (runner.wait_recovery(crashes, timeout=30.0)
                    if crashes else None)
        yield ServiceRun(outcomes, elapsed, recovery, cluster, make)
    finally:
        runner.stop()


def _run_wallclock(config: LoadConfig, schedule: FlockSchedule,
                   agg: StatsAggregator, make_clients: Callable[[], Dict],
                   on_origin: Optional[Callable[[], None]] = None):
    """Set-up, then the schedule released open-loop on the wall clock.

    Virtual time is wall time since the origin divided by
    ``time_scale``.  Each arrival is submitted at its scaled instant to
    a pool of ``max_clients`` threads whether or not earlier ops have
    finished, so the offered rate stays open-loop (queueing shows up as
    latency), and every pool thread runs on its own ``make_clients()``
    (connections are not shared).  ``on_origin`` runs as the origin is
    pinned: the hook that arms a cluster's DN faults.

    An op that dies on the transport (``OSError``: a socket timeout, a
    reset the connection's one retry did not cure) is recorded as
    failed like any storage error.  Any other exception stops the
    release of arrivals and is re-raised once the ops in flight have
    drained.
    """
    from concurrent.futures import ThreadPoolExecutor

    from ..wallclock import exhaust

    exhaust(_setup(make_clients(), config))

    outcomes: List[Optional[bool]] = [None] * len(schedule)
    kinds, kind_nbytes = schedule.kinds, schedule.kind_nbytes
    completions = CompletionBuffer(agg, config.flock_size, kind_nbytes,
                                   schedule.labels)
    time_scale = config.time_scale
    lock = threading.Lock()
    local = threading.local()
    stop = threading.Event()
    last_end = 0.0

    def run_op(i: int, at: float, k: int, key: str) -> None:
        nonlocal last_end
        starters = getattr(local, "starters", None)
        if starters is None:
            starters = local.starters = _op_starters(
                make_clients(), kinds, kind_nbytes)
        try:
            exhaust(starters[k](i, key))
            ok = True
        except (StorageError, OSError):
            ok = False
        outcomes[i] = ok
        end = (time.monotonic() - origin) / time_scale
        with lock:
            completions.add(at, max(at, end), ok, k)
            last_end = max(last_end, end)

    def stop_on_error(future) -> None:
        if future.exception() is not None:
            stop.set()

    futures = []
    origin = time.monotonic()
    if on_origin is not None:
        on_origin()
    with ThreadPoolExecutor(max_workers=config.max_clients) as pool:
        for row in schedule.rows():
            # Sleeps until the arrival is due; wakes early once an op raised.
            if stop.wait(row[1] * time_scale - (time.monotonic() - origin)):
                break
            futures.append(pool.submit(run_op, *row))
            futures[-1].add_done_callback(stop_on_error)
    completions.flush()
    for future in futures:
        future.result()
    return outcomes, last_end
