"""Cluster assembly: N service nodes over M data-node shards, one loop.

:class:`ServiceCluster` wires the tiers together inside a single asyncio
event loop (each node is I/O-bound; the shared loop is the in-process
analogue of a rack).  :class:`ClusterRunner` hosts that loop on a daemon
thread so synchronous callers — the CLI's ``repro serve``, the
``ServiceBackend``'s worker threads, the test suite's ``http.client``
round trips — can stand a cluster up, talk to it over real sockets, and
tear it down.

Every SN, DN shard and the membership hold the cluster's one clock, the
loop's ``time()``, and DN faults fire on the loop's own timers.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, Iterable, List, Optional, Tuple

from ..faults.spec import DN_KINDS, FaultKind, FaultSpec
from ..storage.clock import LoopClock
from .datanode import DataNode, DataNodeClient
from .membership import FailureDomainConfig, Membership
from .servicenode import ServiceNode
from .tenants import TenantDirectory

__all__ = ["ServiceCluster", "ClusterRunner"]


class ServiceCluster:
    """One SN/DN deployment; create, ``await start()``, use, ``stop()``."""

    def __init__(self, *, nodes: int = 1, dn: int = 2,
                 tenants: Optional[TenantDirectory] = None,
                 host: str = "127.0.0.1",
                 ports: Optional[Dict[str, int]] = None,
                 fifo_jitter_seed: Optional[int] = None,
                 failure_domain: Optional[FailureDomainConfig] = None,
                 access_log_path: Optional[str] = None) -> None:
        if nodes < 1 or dn < 1:
            raise ValueError("a cluster needs >= 1 service and data node")
        self.tenants = tenants if tenants is not None else TenantDirectory()
        self.host = host
        #: Fixed ports apply to service node 0 only; the rest go ephemeral.
        self.ports = dict(ports or {})
        self.fifo_jitter_seed = fifo_jitter_seed
        self.access_log_path = access_log_path
        #: Default = the null failure domain: R=1, no health checks —
        #: exactly the old static single-owner cluster.
        self.failure_domain = (failure_domain if failure_domain is not None
                               else FailureDomainConfig())
        if self.failure_domain.replicas > dn:
            raise ValueError(
                f"replicas={self.failure_domain.replicas} needs at least "
                f"that many data nodes (have {dn})")
        #: Shared by every node; bound when the nodes start on the loop.
        self.clock = LoopClock()
        shard_limits = {t.account: t.limits for t in self.tenants}
        self.data_nodes: List[DataNode] = [
            DataNode(i, shard_limits, clock=self.clock,
                     fifo_jitter_seed=fifo_jitter_seed)
            for i in range(dn)
        ]
        self.service_nodes: List[ServiceNode] = []
        self.membership: Optional[Membership] = None
        self._n_service_nodes = nodes
        self._dn_clients: List[DataNodeClient] = []
        self._started = False

    async def start(self) -> None:
        if self._started:
            raise RuntimeError("cluster already started")
        for dn in self.data_nodes:
            self._dn_clients.append(DataNodeClient(*await dn.start(self.host)))
        # One membership (liveness + ring) shared by every SN, so the
        # whole cluster agrees on placement and on who is dead.
        self.membership = Membership(
            self.failure_domain, self._dn_clients,
            list(self.tenants.accounts()), self.clock)
        self.membership.start()
        for i in range(self._n_service_nodes):
            sn = ServiceNode(i, self.tenants, self._dn_clients,
                             membership=self.membership, clock=self.clock,
                             access_log_path=self.access_log_path)
            await sn.start(self.host, self.ports if i == 0 else None)
            self.service_nodes.append(sn)
        self._started = True

    async def stop(self) -> None:
        # Graceful order: stop accepting + drain in-flight requests,
        # stop the health checker, then take the DNs down.
        for sn in self.service_nodes:
            await sn.stop()
        if self.membership is not None:
            await self.membership.stop()
        for dn in self.data_nodes:
            await dn.stop()
        self.service_nodes.clear()
        self._dn_clients.clear()
        self.membership = None
        self._started = False

    # -- failure-domain controls --------------------------------------------
    def crash_data_node(self, index: int) -> None:
        """Kill DN ``index`` the hard way (the DN_CRASH chaos fault).

        The process "dies" (calls refused, calls in flight reset) and the
        membership learns of it the honest way: missed heartbeats.
        """
        self.data_nodes[index].crash()

    async def drain_data_node(self, index: int) -> None:
        """Gracefully retire DN ``index``: migrate first, then remove."""
        if self.membership is None:
            raise RuntimeError("cluster is not started")
        await self.membership.drain(index)
        self.data_nodes[index].crash()

    async def recovery(self, deaths: int,
                       timeout: float) -> Dict[str, object]:
        """Wait out ``deaths`` DN deaths and their heal; on the cluster
        clock, ``recovery_s`` runs from the last death to the heal and
        ``unavailable_s`` from the first crash (None without a heal)."""
        membership = self.membership
        detected = await membership.wait_deaths(deaths, timeout)
        settled = await membership.wait_settled(timeout)
        heal = membership.last_heal_at

        def to_heal(start: Optional[float]) -> Optional[float]:
            if start is None or heal is None:
                return None
            return max(0.0, heal - start)

        return {
            "detected": detected,
            "settled": settled,
            "deaths": membership.counters["deaths"],
            "shards_migrated": membership.counters["shards_migrated"],
            "recovery_s": to_heal(membership.last_death_at),
            "unavailable_s": to_heal(min(
                (dn.crashed_at for dn in self.data_nodes
                 if dn.crashed_at is not None), default=None)),
        }

    def arm(self, faults: Iterable[FaultSpec],
            time_scale: float = 1.0) -> None:
        """Arm DN faults on the running loop's timers; call it on the loop.

        Each fires ``start * time_scale`` seconds from now: a DN_CRASH
        crash-stops its node, a DN_SLOW stalls every request the node
        serves by ``latency_factor`` seconds until ``end``.  The one kill
        schedule of ``repro load --kill-dn``, dn-failover and ``repro sndn``.
        """
        loop = asyncio.get_running_loop()

        def at(when: float, fn, *args) -> None:
            # A fault due now lands before the loop runs anything else.
            if when > 0:
                loop.call_later(when * time_scale, fn, *args)
            else:
                fn(*args)

        for spec in faults:
            if spec.kind is FaultKind.DN_CRASH:
                at(spec.start, self.crash_data_node, spec.node)
                continue
            node = self.data_nodes[spec.node]
            at(spec.start, setattr, node, "slow_delay", spec.latency_factor)
            if spec.duration != float("inf"):
                at(spec.end, setattr, node, "slow_delay", 0.0)

    # -- conveniences -------------------------------------------------------
    def endpoints(self, node: int = 0) -> Dict[str, Tuple[str, int]]:
        """``service -> (host, port)`` for one service node."""
        return dict(self.service_nodes[node].endpoints)

    def describe(self) -> str:
        lines = [f"{len(self.service_nodes)} service node(s), "
                 f"{len(self.data_nodes)} data node(s), "
                 f"accounts: {', '.join(self.tenants.accounts())}"]
        for sn in self.service_nodes:
            eps = ", ".join(f"{svc} http://{h}:{p}/"
                            for svc, (h, p) in sorted(sn.endpoints.items()))
            lines.append(f"  sn{sn.index}: {eps}")
        return "\n".join(lines)


class ClusterRunner:
    """Host a :class:`ServiceCluster` on a daemon-thread event loop."""

    def __init__(self, cluster: ServiceCluster) -> None:
        self.cluster = cluster
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> None:
        self._thread = threading.Thread(
            target=self._run, name="service-cluster", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service cluster failed to start in time")
        if self._startup_error is not None:
            self._thread.join()
            raise self._startup_error

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.cluster.start())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        self._loop.run_forever()
        # stop() scheduled the shutdown before halting the loop; drain it,
        # then cancel connection tasks still parked on idle keep-alives.
        self._loop.run_until_complete(self.cluster.stop())
        pending = [t for t in asyncio.all_tasks(self._loop) if not t.done()]
        for task in pending:
            task.cancel()
        if pending:
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True))
        self._loop.close()

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        self._loop = None
        self._thread = None

    # -- failure-domain controls (thread-safe) -------------------------------
    def _await(self, coro, timeout: float):
        """Run ``coro`` on the cluster loop; block for its result."""
        if self._loop is None:
            raise RuntimeError("cluster is not running")
        return asyncio.run_coroutine_threadsafe(
            coro, self._loop).result(timeout)

    def schedule_faults(self, faults: Iterable[FaultSpec],
                        time_scale: float = 1.0) -> None:
        """:meth:`ServiceCluster.arm` on the cluster loop, from any thread."""
        if self._loop is None:
            raise RuntimeError("cluster is not running")
        faults = list(faults)
        if any(spec.kind not in DN_KINDS for spec in faults):
            raise ValueError("a cluster takes DN_CRASH and DN_SLOW faults")
        self._loop.call_soon_threadsafe(self.cluster.arm, faults, time_scale)

    def drain_data_node(self, index: int, timeout: float = 30.0) -> None:
        """Gracefully retire one DN; blocks until migration completes."""
        self._await(self.cluster.drain_data_node(index), timeout)

    def wait_recovery(self, deaths: int,
                      timeout: float = 30.0) -> Dict[str, object]:
        """Block for :meth:`ServiceCluster.recovery`."""
        return self._await(self.cluster.recovery(deaths, timeout),
                           2 * timeout + 5.0)

    def __enter__(self) -> "ClusterRunner":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
