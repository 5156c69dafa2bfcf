"""Backend selection: run one benchmark body on the DES fabric or the emulator.

Role bodies are written once, in simkit style (``yield from client.op(...)``,
``yield env.timeout(...)``).  A :class:`Backend` decides what that means:

* :class:`SimBackend` — the default: bodies run as discrete-event processes
  over :class:`~repro.sim.clients.SimStorageAccount`, timing comes from the
  cluster cost model, and runs are bit-reproducible under a seed.
* :class:`EmulatorBackend` — bodies run in real threads over an
  :class:`~repro.emulator.clients.EmulatorAccount`.  Client calls are bound
  to never-yielding generator shims (so ``yield from`` returns the blocking
  result immediately) and a per-thread trampoline turns ``env.timeout``
  yields into scaled wall-clock sleeps.  Timing is wall-clock and therefore
  not reproducible — this backend exists to exercise the benchmark bodies
  against the concurrent emulator, not to regenerate the paper's numbers.

Both go through the same operation pipeline (:mod:`repro.pipeline`), so
fault plans, throttles, and Storage Analytics behave identically.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Callable, List

from .compute import Deployment
from .compute.roles import RoleContext
from .core.metrics import BenchResult, PhaseRecorder, set_phase_hook
from .emulator import EmulatorAccount
from .emulator.clients import _EmulatorClientBase
from .observability import Tracer, sim_worker_resolver, thread_worker_resolver
from .pipeline import derive_client_class, locked_local_method, shim_method
from .sim import SimStorageAccount
from .simkit import Environment

__all__ = ["Backend", "SimBackend", "EmulatorBackend", "GeoBackend",
           "ServiceBackend", "BACKENDS", "get_backend"]


def _collect(config, recorders, trace=None) -> BenchResult:
    """Validate worker return values and wrap them up."""
    bad = [r for r in recorders if not isinstance(r, PhaseRecorder)]
    if bad:
        raise RuntimeError(
            f"{len(bad)} worker(s) did not return a PhaseRecorder "
            f"(first: {bad[0]!r}); check the role body for failures"
        )
    return BenchResult(config.workers, recorders, label=config.label,
                       trace=trace)


@contextmanager
def _maybe_trace(config, account, worker_resolver):
    """Install a Tracer on the account when ``config.trace`` asks for one.

    The metrics phase hook is global, so it is installed only for the
    duration of the run (concurrent traced runs in one process would
    race — benchmark runs are sequential by construction).
    """
    if not config.trace:
        yield None
        return
    tracer = Tracer(trace_id=config.label or "run",
                    worker_resolver=worker_resolver)
    tracer.install(account)
    set_phase_hook(tracer.on_phase)
    try:
        yield tracer
    finally:
        set_phase_hook(None)


class Backend:
    """What a benchmark backend must provide (structural protocol)."""

    #: CLI name: ``"sim"`` or ``"emulator"``.
    name: str

    def run(self, body_factory: Callable[[], Callable],
            config) -> BenchResult:  # pragma: no cover - protocol
        """Run ``config.workers`` instances of the body to completion.

        ``body_factory`` builds a fresh role body (bodies close over
        benchmark configs); each instance must return its
        :class:`~repro.core.metrics.PhaseRecorder`.  ``config`` is a
        :class:`~repro.core.runner.RunConfig`.
        """
        raise NotImplementedError


class SimBackend(Backend):
    """Discrete-event backend: the paper-faithful, seeded default."""

    name = "sim"

    def _make_account(self, env: Environment, config):
        return SimStorageAccount(
            env, limits=config.limits, calibration=config.calibration,
            seed=config.seed, fifo_jitter_seed=config.fifo_jitter_seed,
        )

    def run(self, body_factory, config) -> BenchResult:
        env = Environment()
        account = self._make_account(env, config)
        if config.instrument is not None:
            config.instrument(account)
        deployment = Deployment(
            env, account, body_factory(),
            instances=config.workers, vm_size=config.vm_size,
            name="azurebench",
        )
        with _maybe_trace(config, account,
                          sim_worker_resolver(env)) as tracer:
            recorders = deployment.run()
        return _collect(config, recorders, trace=tracer)


class GeoBackend(SimBackend):
    """DES backend over a geo-replicated (RA-GRS) account.

    Bodies run unchanged against :class:`~repro.geo.account.GeoAccount`
    clients: every call crosses the primary's pipeline, mutations land
    on the asynchronous replication log, and reads fall back to the
    read-only secondary during region outages.  With no fault plan
    installed the figures match the plain ``sim`` backend's shape
    (primary timing is identical; the replicator runs in the
    background), which makes this the drop-in way to regenerate a
    figure *while* a region is failing.
    """

    name = "geo"

    def __init__(self, lag_s: float = 2.0) -> None:
        self.lag_s = lag_s

    def _make_account(self, env: Environment, config):
        from .geo import GeoAccount
        return GeoAccount(
            env, limits=config.limits, calibration=config.calibration,
            seed=config.seed, fifo_jitter_seed=config.fifo_jitter_seed,
            lag_s=self.lag_s,
        )


# -- emulator backend --------------------------------------------------------

class _EmulatorTimeout:
    """Sleep marker yielded by :meth:`ThreadedEnv.timeout`."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds


class ThreadedEnv:
    """The slice of the simkit ``Environment`` surface role bodies use.

    ``now`` is the backend's wall clock (the ``now`` callable, in
    seconds) in *virtual* seconds, i.e. divided by ``time_scale``;
    ``timeout`` returns a marker the worker trampoline turns into a
    scaled ``time.sleep``.  One virtual second therefore costs
    ``time_scale`` wall seconds everywhere.
    """

    def __init__(self, now: Callable[[], float], time_scale: float) -> None:
        self._now = now
        self.time_scale = time_scale

    @property
    def now(self) -> float:
        return self._now() / self.time_scale

    def timeout(self, delay: float = 0.0) -> _EmulatorTimeout:
        return _EmulatorTimeout(delay)


_SHIM_DOC = "Emulator client whose methods are never-yielding generators."

_ShimBlobClient = derive_client_class(
    "_ShimBlobClient", "blob", _EmulatorClientBase,
    method_factory=shim_method, local_factory=locked_local_method,
    doc=_SHIM_DOC)
_ShimQueueClient = derive_client_class(
    "_ShimQueueClient", "queue", _EmulatorClientBase,
    method_factory=shim_method, local_factory=locked_local_method,
    doc=_SHIM_DOC)
_ShimTableClient = derive_client_class(
    "_ShimTableClient", "table", _EmulatorClientBase,
    method_factory=shim_method, local_factory=locked_local_method,
    doc=_SHIM_DOC)
_ShimCacheClient = derive_client_class(
    "_ShimCacheClient", "cache", _EmulatorClientBase,
    method_factory=shim_method, local_factory=locked_local_method,
    doc=_SHIM_DOC)


class ShimAccount:
    """An emulator account dressed up as a :class:`SimStorageAccount`.

    Its clients are generator shims, so sim-style bodies (``yield from
    client.op(...)``) drive the thread-safe emulator unchanged.
    """

    _CLIENTS = {
        "blob_client": _ShimBlobClient,
        "queue_client": _ShimQueueClient,
        "table_client": _ShimTableClient,
        "cache_client": _ShimCacheClient,
    }

    def __init__(self, account: EmulatorAccount, env: ThreadedEnv) -> None:
        self.emulator = account
        self.env = env
        self.state = account.state
        self.cache_state = account.cache_state
        self.pipeline = account.pipeline

    def _make(self, kind: str):
        client = self._CLIENTS[kind](self.emulator)
        client.env = self.env  # QueueBarrier's fallback clock source
        return client

    def blob_client(self):
        return self._make("blob_client")

    def queue_client(self):
        return self._make("queue_client")

    def table_client(self):
        return self._make("table_client")

    def cache_client(self):
        return self._make("cache_client")


def _trampoline(gen, env: ThreadedEnv):
    """Drive one role body to completion on the current thread."""
    try:
        value = next(gen)
        while True:
            if not isinstance(value, _EmulatorTimeout):
                raise TypeError(
                    f"emulator backend cannot wait on {value!r}; role "
                    f"bodies may only yield env.timeout(...) sleeps and "
                    f"client calls")
            if value.seconds > 0:
                time.sleep(value.seconds * env.time_scale)
            value = gen.send(None)
    except StopIteration as stop:
        return stop.value


def _run_threaded(body_factory, config, env: ThreadedEnv, account,
                  tracing) -> BenchResult:
    """Run ``config.workers`` role bodies, one thread each, to completion.

    ``account`` is the sim-style shim the bodies see; ``tracing`` is the
    context the threads run under, yielding the run's tracer (or None).
    """
    if config.instrument is not None:
        config.instrument(account)
    body = body_factory()
    results: List[object] = [None] * config.workers
    failures: List[BaseException] = []

    def work(role_id: int) -> None:
        ctx = RoleContext(
            env, role_id=role_id, instance_count=config.workers,
            account=account, vm_size=config.vm_size, role_name="azurebench",
        )
        try:
            results[role_id] = _trampoline(body(ctx), env)
        except BaseException as exc:  # surfaced after join
            failures.append(exc)

    threads = [
        threading.Thread(target=work, args=(i,),
                         name=f"azurebench#{i}", daemon=True)
        for i in range(config.workers)
    ]
    with tracing as tracer:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]
    return _collect(config, results, trace=tracer)


class EmulatorBackend(Backend):
    """Threaded backend over the in-process emulator.

    ``time_scale`` compresses virtual time: the bodies' one-second barrier
    polls and think times sleep ``time_scale`` wall seconds each.  The
    cost model does not exist here, so ``config.seed`` and
    ``config.calibration`` are ignored; measured throughputs reflect the
    host machine, not the 2012 fabric.
    """

    name = "emulator"

    def __init__(self, time_scale: float = 0.01) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be > 0")
        self.time_scale = time_scale

    def run(self, body_factory, config) -> BenchResult:
        account = EmulatorAccount(
            limits=config.limits, fifo_jitter_seed=config.fifo_jitter_seed,
        )
        env = ThreadedEnv(account.state.clock.now, self.time_scale)
        return _run_threaded(
            body_factory, config, env, ShimAccount(account, env),
            _maybe_trace(config, account, thread_worker_resolver()))


# -- service backend ---------------------------------------------------------

class _ServiceShimAccount:
    """A live SN/DN cluster dressed up as a ``SimStorageAccount``.

    Clients are the wire shims from :mod:`repro.service.client` — each
    ``*_client()`` call opens its own signed HTTP connections, so every
    worker thread talks to the cluster over its own sockets, like real
    role instances would.
    """

    def __init__(self, endpoints_for, account: str, key: str,
                 env: ThreadedEnv) -> None:
        self._endpoints_for = endpoints_for
        self._account = account
        self._key = key
        self.env = env
        self._next = 0

    def _connection(self):
        from .service.client import ServiceConnection
        endpoints = self._endpoints_for(self._next)
        self._next += 1
        return ServiceConnection(endpoints, self._account, self._key)

    def _make(self, cls):
        client = cls(self._connection())
        client.env = self.env  # QueueBarrier's fallback clock source
        return client

    def blob_client(self):
        from .service.client import WireBlobClient
        return self._make(WireBlobClient)

    def queue_client(self):
        from .service.client import WireQueueClient
        return self._make(WireQueueClient)

    def table_client(self):
        from .service.client import WireTableClient
        return self._make(WireTableClient)

    def cache_client(self):
        raise NotImplementedError(
            "the co-located cache has no wire protocol; run cache "
            "workloads on the sim or emulator backend")


class ServiceBackend(Backend):
    """Threaded backend over a live in-process SN/DN cluster.

    Each worker thread drives signed HTTP requests through the service
    nodes, which route to the data-node shards — the full request path a
    real 2012 deployment exercised (auth, routing, fan-out) minus the
    datacenter network.  Like the emulator backend, timing is wall-clock
    and machine-dependent; this backend validates the wire tier and the
    benchmark bodies, not the paper's numbers.
    """

    name = "service"

    def __init__(self, time_scale: float = 0.01, nodes: int = 1,
                 dn: int = 2, enforce_targets: bool = False) -> None:
        if time_scale <= 0:
            raise ValueError("time_scale must be > 0")
        self.time_scale = time_scale
        self.nodes = nodes
        self.dn = dn
        self.enforce_targets = enforce_targets

    def run(self, body_factory, config) -> BenchResult:
        if config.trace:
            raise NotImplementedError(
                "tracing hooks into the in-process pipeline; the service "
                "backend's pipeline lives across sockets — use --backend "
                "sim or emulator for traced runs")
        from .service import DEV_KEY, TenantConfig, TenantDirectory
        from .service.cluster import ClusterRunner, ServiceCluster

        tenants = TenantDirectory([TenantConfig.development(
            limits=config.limits, enforce_targets=self.enforce_targets)])
        cluster = ServiceCluster(
            nodes=self.nodes, dn=self.dn, tenants=tenants,
            fifo_jitter_seed=config.fifo_jitter_seed)
        runner = ClusterRunner(cluster)
        runner.start()
        try:
            # No local account clock here (state lives across sockets on
            # the data nodes): virtual time is wall time since the run
            # began, scaled like the emulator's.
            origin = time.monotonic()
            env = ThreadedEnv(lambda: time.monotonic() - origin,
                              self.time_scale)
            shim = _ServiceShimAccount(
                lambda i: cluster.endpoints(i % self.nodes),
                tenants.accounts()[0], DEV_KEY, env)
            return _run_threaded(body_factory, config, env, shim,
                                 nullcontext())
        finally:
            runner.stop()


BACKENDS = {"sim": SimBackend, "emulator": EmulatorBackend,
            "geo": GeoBackend, "service": ServiceBackend}


def get_backend(backend) -> Backend:
    """Resolve a backend instance from a name or pass one through."""
    if isinstance(backend, Backend):
        return backend
    try:
        return BACKENDS[backend]()
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; choose from "
            f"{sorted(BACKENDS)}") from None
