"""The open-loop traffic engine.

:func:`run_load` drives a seeded operation schedule against any backend:

* **sim / geo** — arrivals are kernel events of the DES
  (:func:`~repro.traffic.flock.run_flock_des`): each scheduled instant
  starts one operation regardless of how many earlier operations are
  still in flight, which is what makes the load open-loop (a saturated
  fabric accumulates in-flight work instead of throttling the offered
  rate).
* **emulator / service** — :func:`dispatch_wallclock` releases
  operations at their (time-scaled) wall-clock instants into a bounded
  client pool; the DN-failover chaos campaign releases its own seeded
  workload through the same function.

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
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List,
                    NamedTuple, Optional, Sequence, Tuple)

from ..storage import KB
from ..storage.content import SyntheticContent
from ..storage.errors import StorageError
from .arrivals import ArrivalSpec
from .slo import SLOReport, SLOSpec
from .stats import WINDOW_CSV_HEADER, StatsAggregator, WindowRow

if TYPE_CHECKING:
    from .flock import FlockSchedule

__all__ = [
    "LoadConfig",
    "ScheduledOp",
    "LoadResult",
    "MIXES",
    "schedule_digest",
    "run_load",
    "dispatch_wallclock",
]

#: Fixed resource names every mix uses.
LOAD_QUEUE = "loadq"
LOAD_CONTAINER = "loadc"
LOAD_TABLE = "loadt"
LOAD_PARTITION = "load"

DEFAULT_FLOCK_SIZE = 8192

#: mix name -> ((weight, service, op), ...).  Weights need not sum to 1.
MIXES: Dict[str, Tuple[Tuple[float, str, str], ...]] = {
    "queue": ((0.5, "queue", "put"), (0.25, "queue", "peek"),
              (0.25, "queue", "get")),
    "blob": ((0.65, "blob", "download"), (0.35, "blob", "upload")),
    "table": ((0.3, "table", "insert"), (0.3, "table", "get"),
              (0.2, "table", "upsert"), (0.2, "table", "query")),
    "mixed": ((0.25, "queue", "put"), (0.15, "queue", "get"),
              (0.2, "blob", "download"), (0.1, "blob", "upload"),
              (0.15, "table", "get"), (0.15, "table", "upsert")),
}


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
    #: DES backends: arrivals unpacked from the columns, and completions
    #: the stats flush folds, at a time; that is all it sizes, no result.
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
    #: :func:`schedule_digest`); backend-independent for seeded runs.
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

    def windows_csv(self) -> str:
        lines = [WINDOW_CSV_HEADER]
        for row in self.rows:
            d = row.to_dict()
            lines.append(",".join(str(d[col]) for col in
                                  WINDOW_CSV_HEADER.split(",")))
        return "\n".join(lines) + "\n"

    def write_artifacts(self, out_dir: str) -> List[str]:
        """Write ``windows.csv`` + ``verdict.json``; return the paths."""
        os.makedirs(out_dir, exist_ok=True)
        paths = []
        for name, text in (("windows.csv", self.windows_csv()),
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
    """Boot an in-process SN/DN cluster and drive it over signed HTTP.

    With ``kill_dn``/``kill_at`` set, one data node crash-stops mid-run
    (the ``repro load`` failover scenario): replicated shards plus
    health-checked membership must absorb the kill, and the returned
    disruption report carries the measured SLO dip (errors around the
    kill) and the detection/heal timings.
    """
    from ..service import DEV_KEY, TenantConfig, TenantDirectory
    from ..service.client import ServiceConnection, wire_clients
    from ..service.cluster import ClusterRunner, ServiceCluster
    from ..service.membership import FailureDomainConfig

    failure_domain = None
    if config.replicas > 1 or config.kill_dn is not None:
        failure_domain = FailureDomainConfig.kill_test(
            config.replicas, config.seed)
    tenants = TenantDirectory([TenantConfig.development()])
    cluster = ServiceCluster(nodes=1, dn=config.dn, tenants=tenants,
                             failure_domain=failure_domain)
    runner = ClusterRunner(cluster)
    runner.start()
    kill_wall: Dict[str, float] = {}
    timer: Optional[threading.Timer] = None
    try:
        account = tenants.accounts()[0]

        def make() -> Dict[str, object]:
            return wire_clients(
                ServiceConnection(cluster.endpoints(0), account, DEV_KEY))

        def on_origin() -> None:
            nonlocal timer
            if config.kill_dn is None:
                return

            def fire() -> None:
                kill_wall["t"] = time.monotonic()
                runner.kill_data_node(config.kill_dn)

            timer = threading.Timer(config.kill_at * config.time_scale,
                                    fire)
            timer.start()

        outcomes, elapsed = _run_wallclock(config, schedule, agg, make,
                                           on_origin=on_origin)
        if timer is not None:
            timer.join()
        disruption = None
        if config.kill_dn is not None:
            detected = runner.wait_deaths_detected(1, timeout=30.0)
            settled = runner.wait_settled(timeout=30.0)
            membership = cluster.membership
            recovery = membership.recovery_seconds()
            heal_at = membership.last_heal_at
            unavailable = None
            if heal_at is not None and "t" in kill_wall:
                unavailable = max(0.0, heal_at - kill_wall["t"])
            disruption = {
                "kill_dn": config.kill_dn,
                "kill_at_s": config.kill_at,
                "detected": detected,
                "settled": settled,
                "deaths": membership.counters["deaths"],
                "shards_migrated": membership.counters["shards_migrated"],
                "errors": sum(1 for ok in outcomes if ok is False),
                "recovery_s": (round(recovery, 3)
                               if recovery is not None else None),
                "unavailable_s": (round(unavailable, 3)
                                  if unavailable is not None else None),
            }
        return outcomes, elapsed, disruption
    finally:
        runner.stop()


def _run_wallclock(config: LoadConfig, schedule: FlockSchedule,
                   agg: StatsAggregator, make_clients: Callable[[], Dict],
                   on_origin: Optional[Callable[[], None]] = None):
    """Set-up, then the schedule through :func:`dispatch_wallclock`.

    An op that dies on the transport (``OSError``: a socket timeout, a
    reset the connection's one retry did not cure) is recorded as
    failed like any storage error; any other exception fails the run
    once the pool has drained.
    """
    from ..wallclock import exhaust

    exhaust(_setup(make_clients(), config))

    outcomes: List[Optional[bool]] = [None] * len(schedule)
    kind_nbytes, labels = schedule.kind_nbytes, schedule.labels
    lock = threading.Lock()
    last_end = {"t": 0.0}

    def run_op(starters, row, virtual_now) -> None:
        i, at, k, key = row
        try:
            exhaust(starters[k](i, key))
            ok = True
        except (StorageError, OSError):
            ok = False
        outcomes[i] = ok
        end = virtual_now()
        with lock:
            agg.record(at, max(at, end), ok=ok, nbytes=kind_nbytes[k],
                       operation=labels[k])
            last_end["t"] = max(last_end["t"], end)

    dispatch_wallclock(
        ((row[1], row) for row in schedule.rows()), run_op,
        lambda: _op_starters(make_clients(), schedule.kinds, kind_nbytes),
        time_scale=config.time_scale, max_clients=config.max_clients,
        on_origin=on_origin)
    return outcomes, last_end["t"]


def dispatch_wallclock(arrivals: Iterable[Tuple[float, object]],
                       run_op: Callable, make_local: Callable[[], object],
                       *, time_scale: float, max_clients: int,
                       on_origin: Optional[Callable[[], None]] = None
                       ) -> None:
    """Release ``(at, op)`` arrivals open-loop on the wall clock.

    Virtual time is wall time since the dispatch origin divided by
    ``time_scale``; arrivals are released at their scheduled virtual
    instants into a pool of ``max_clients`` threads, so the offered rate
    stays open-loop even when every pool thread is busy (queueing shows
    up as latency, as it should).  ``on_origin`` (if given) runs right
    as the origin is pinned — the hook that arms kill timers.

    Each pool thread calls ``run_op(local, op, virtual_now)`` with its
    own ``make_local()`` (connections are not shared between threads).
    ``run_op`` decides what counts as a refused op; the first exception
    it lets through is re-raised once the pool has drained.
    """
    from concurrent.futures import ThreadPoolExecutor

    local = threading.local()
    origin = time.monotonic()
    if on_origin is not None:
        on_origin()

    def virtual_now() -> float:
        return (time.monotonic() - origin) / time_scale

    def run(op) -> None:
        mine = getattr(local, "made", None)
        if mine is None:
            mine = local.made = make_local()
        run_op(mine, op, virtual_now)

    futures = []
    with ThreadPoolExecutor(max_workers=max_clients) as pool:
        for at, op in arrivals:
            wait = at * time_scale - (time.monotonic() - origin)
            if wait > 0:
                time.sleep(wait)
            futures.append(pool.submit(run, op))
    for future in futures:
        future.result()
