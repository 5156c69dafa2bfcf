"""Cluster assembly: N service nodes over M data-node shards, one loop.

:class:`ServiceCluster` wires the tiers together inside a single asyncio
event loop (each node is I/O-bound; the shared loop is the in-process
analogue of a rack).  :class:`ClusterRunner` hosts that loop on a daemon
thread so synchronous callers — the CLI's ``repro serve``, the
``ServiceBackend``'s worker threads, the test suite's ``http.client``
round trips — can stand a cluster up, talk to it over real sockets, and
tear it down.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Dict, List, Optional, Tuple

from ..storage.clock import WallClock
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
        shard_limits = {t.account: t.limits for t in self.tenants}
        self.data_nodes: List[DataNode] = [
            DataNode(i, shard_limits, fifo_jitter_seed=fifo_jitter_seed)
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
            dn_host, dn_port = await dn.start(self.host)
            self._dn_clients.append(DataNodeClient(dn_host, dn_port))
        # One membership (liveness + ring) shared by every SN, so the
        # whole cluster agrees on placement and on who is dead.
        self.membership = Membership(
            self.failure_domain, self._dn_clients,
            list(self.tenants.accounts()))
        self.membership.start()
        # One clock for every SN: the tenants' sliding throttle windows
        # are charged with SN clock readings, so the origins must agree.
        clock = WallClock()
        for i in range(self._n_service_nodes):
            sn = ServiceNode(i, self.tenants, self._dn_clients,
                             membership=self.membership, clock=clock,
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

    # -- conveniences -------------------------------------------------------
    def endpoints(self, node: int = 0) -> Dict[str, Tuple[str, int]]:
        """``service -> (host, port)`` for one service node."""
        return dict(self.service_nodes[node].endpoints)

    def set_fault_plan(self, account: str, plan) -> None:
        """Install a fault plan on every shard of ``account``."""
        for dn in self.data_nodes:
            dn.set_fault_plan(account, plan)

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
    def kill_data_node(self, index: int) -> None:
        """Crash one DN from any thread (the load/chaos kill switch)."""
        if self._loop is None:
            raise RuntimeError("cluster is not running")
        self._loop.call_soon_threadsafe(
            self.cluster.crash_data_node, index)

    def set_data_node_slow(self, index: int, delay: float) -> None:
        """Make DN ``index`` stall every request by ``delay`` seconds
        (the DN_SLOW chaos fault); ``0.0`` heals it."""
        if self._loop is None:
            raise RuntimeError("cluster is not running")
        self._loop.call_soon_threadsafe(
            setattr, self.cluster.data_nodes[index], "slow_delay", delay)

    def drain_data_node(self, index: int, timeout: float = 30.0) -> None:
        """Gracefully retire one DN; blocks until migration completes."""
        if self._loop is None:
            raise RuntimeError("cluster is not running")
        asyncio.run_coroutine_threadsafe(
            self.cluster.drain_data_node(index), self._loop
        ).result(timeout)

    def wait_settled(self, timeout: float = 30.0) -> bool:
        """Block until death detection + rebalancing has quiesced."""
        if self._loop is None:
            raise RuntimeError("cluster is not running")
        membership = self.cluster.membership
        if membership is None:
            return True
        return asyncio.run_coroutine_threadsafe(
            membership.wait_settled(timeout), self._loop
        ).result(timeout + 5.0)

    def wait_deaths_detected(self, count: int = 1,
                             timeout: float = 30.0) -> bool:
        """Block until the heartbeats have declared ``count`` DNs dead."""
        import time as _time
        membership = self.cluster.membership
        deadline = _time.monotonic() + timeout
        while _time.monotonic() < deadline:
            if (membership is not None
                    and membership.counters["deaths"] >= count):
                return True
            _time.sleep(0.02)
        return False

    def __enter__(self) -> "ClusterRunner":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
