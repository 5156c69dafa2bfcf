"""Backend selection: run one benchmark body on the DES fabric or the emulator.

Role bodies are written once, in simkit style (``yield from client.op(...)``,
``yield env.timeout(...)``).  A :class:`Backend` decides what that means:

* :class:`SimBackend` — the default: bodies run as discrete-event processes
  over :class:`~repro.sim.clients.SimStorageAccount`, timing comes from the
  cluster cost model, and runs are bit-reproducible under a seed.
* :class:`EmulatorBackend` — bodies run in real threads over an
  :class:`~repro.emulator.clients.EmulatorAccount`.  Client calls are bound
  to never-yielding generator shims (so ``yield from`` returns the blocking
  result immediately) and :func:`repro.wallclock.exhaust` turns
  ``env.timeout`` yields into scaled wall-clock sleeps, one thread per
  worker.  Timing is wall-clock and therefore
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
from .observability import Tracer, sim_worker_resolver, thread_worker_resolver
from .sim import SimStorageAccount
from .simkit import Environment
from .wallclock import ShimAccount, ThreadedEnv, exhaust

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
            results[role_id] = exhaust(body(ctx), env.time_scale)
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

    def _make(self, service: str):
        from .service.client import ServiceConnection, wire_clients
        endpoints = self._endpoints_for(self._next)
        self._next += 1
        client = wire_clients(ServiceConnection(
            endpoints, self._account, self._key))[service]
        client.env = self.env  # QueueBarrier's fallback clock source
        return client

    def blob_client(self):
        return self._make("blob")

    def queue_client(self):
        return self._make("queue")

    def table_client(self):
        return self._make("table")

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
