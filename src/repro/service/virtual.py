"""``repro sndn``: the real SN/DN cluster on a virtual-time event loop.

:class:`VirtualLoop` is the stdlib selector event loop with a virtual
``time()``: where it would wait, its selector polls without blocking
and, if nothing is ready, moves the clock to the next timer.  An
unmodified :class:`~repro.service.cluster.ServiceCluster` runs on it:
heartbeats, hedges, DN deadlines and armed faults are loop timers.

:func:`measure` drives one deployment with closed-loop clients.  A
request is built by :func:`~repro.service.client.signed_request` (the
socket client's builder), read off an in-memory stream by
:func:`~repro.service.httpd.read_request` and answered by
``ServiceNode.handle``, so codec, SharedKey, tenant pipeline, ring,
breakers and hedging are the live tier's.  Python run time costs no
virtual time: each node charges its :data:`CPU_S` under its own lock
(one CPU per node), and a hop between nodes costs nothing.
"""

from __future__ import annotations

import asyncio
import selectors
from dataclasses import dataclass, field
from random import Random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..faults.spec import FaultKind, FaultSpec
from . import httpd
from .client import signed_request
from .cluster import ServiceCluster
from .membership import FailureDomainConfig
from .sharedkey import DEV_KEY
from .tenants import TenantConfig, TenantDirectory
from .wire import ENCODERS

__all__ = ["CPU_S", "VirtualLoop", "PointResult", "measure", "run_virtual",
           "sweep"]

#: Per-request CPU seconds of one node of each tier: SharedKey check,
#: decode and routing at a service node; the storage op at a data node.
CPU_S = {"sn": 0.0004, "dn": 0.002}
#: The blobs the set-up writes and the clients read, list and overwrite.
BLOBS = 64
BLOB_BYTES = 1024
CONTAINER = "sndn"


class _VirtualSelector(selectors.DefaultSelector):
    """Never blocks: where the loop would wait, it polls with ``select(0)``
    and, if nothing is ready, moves the clock by the wait instead."""

    now = 0.0

    def select(self, timeout: Optional[float] = None):
        if timeout == 0:
            return []  # callbacks are due at this instant: run them first
        ready = super().select(0)
        if ready:
            return ready
        if timeout is None:
            raise RuntimeError("virtual loop is idle with no timer "
                               "pending: it would wait forever")
        self.now += timeout
        return ready


class VirtualLoop(asyncio.SelectorEventLoop):
    """A selector event loop whose ``time()`` starts at 0 and jumps."""

    def __init__(self) -> None:
        self._virtual = _VirtualSelector()
        super().__init__(self._virtual)

    def time(self) -> float:
        return self._virtual.now


def run_virtual(main):
    """Run coroutine ``main`` on a fresh :class:`VirtualLoop`; close it.

    Tasks still pending when ``main`` returns are cancelled and run to
    their end first, so none is destroyed pending.
    """
    loop = VirtualLoop()
    try:
        return loop.run_until_complete(main)
    finally:
        pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
        for task in pending:
            task.cancel()
        if pending:
            loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True))
        loop.close()


@dataclass
class PointResult:
    """What one deployment sustained over its measured window."""

    service_nodes: int
    data_nodes: int
    duration_s: float
    completed: int = 0
    failed: int = 0  # answered with an error status (503, a lost blob's 404)
    latencies: List[float] = field(default_factory=list, repr=False)

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.duration_s

    @property
    def availability(self) -> float:
        total = self.completed + self.failed
        return self.completed / total if total else 1.0

    @property
    def mean_latency_s(self) -> float:
        return float(np.mean(self.latencies)) if self.latencies else 0.0

    @property
    def p95_latency_s(self) -> float:
        return (float(np.percentile(self.latencies, 95)) if self.latencies
                else 0.0)


def measure(service_nodes: int, data_nodes: int, *, clients: int = 16,
            duration_s: float = 30.0, fanout: float = 0.05, seed: int = 0,
            replication: int = 1, crash_at: Optional[float] = None,
            detect: float = 1.0) -> PointResult:
    """Closed-loop load on one deployment for ``duration_s`` virtual s.

    Client ``i`` talks to service node ``i mod service_nodes``.  A
    ``fanout`` share of its requests lists the container (every live
    shard answers); the rest download or overwrite one of the set-up's
    blobs, half each.  ``crash_at`` crash-stops data node 0 that many
    seconds into the window, and the membership, beating every
    ``detect / dead_after`` seconds, declares it dead about ``detect``
    seconds later.  Deterministic under ``seed``.
    """
    if service_nodes < 1 or data_nodes < 1 or clients < 1:
        raise ValueError("need >= 1 service node, data node and client")
    if not 1 <= replication <= data_nodes:
        raise ValueError(f"replication must be in [1, data nodes="
                         f"{data_nodes}], got {replication}")
    if not 0.0 <= fanout <= 1.0 or duration_s <= 0 or detect <= 0:
        raise ValueError("need fanout in [0, 1], duration and detect > 0")
    failure_domain = None
    if replication > 1 or crash_at is not None:
        dead_after = FailureDomainConfig.dead_after
        failure_domain = FailureDomainConfig(
            replicas=replication, health_checks=True,
            heartbeat_interval=detect / dead_after, seed=seed)
    cluster = ServiceCluster(
        nodes=service_nodes, dn=data_nodes,
        tenants=TenantDirectory(
            [TenantConfig.development(enforce_targets=False)]),
        failure_domain=failure_domain)
    result = PointResult(service_nodes, data_nodes, duration_s)
    return run_virtual(_closed_loop(cluster, result, clients, fanout,
                                    seed, crash_at))


async def _closed_loop(cluster: ServiceCluster, *args) -> PointResult:
    await cluster.start()
    try:
        return await _drive(cluster, *args)
    finally:
        await cluster.stop()


async def _drive(cluster: ServiceCluster, result: PointResult, clients: int,
                 fanout: float, seed: int,
                 crash_at: Optional[float]) -> PointResult:
    loop = asyncio.get_running_loop()
    for sn in cluster.service_nodes:
        sn.cpu_s = CPU_S["sn"]
    for dn in cluster.data_nodes:
        dn.cpu_s = CPU_S["dn"]
    account = cluster.tenants.accounts()[0]

    def signed(op: str, *args) -> bytes:
        # What a client does costs no virtual time, so each distinct
        # request is built and signed once.
        call = ENCODERS["blob", op](CONTAINER, *args)
        return signed_request(call, account, DEV_KEY, "sndn") + call.body

    async def request(sn, raw: bytes) -> int:
        reader = asyncio.StreamReader(limit=httpd.MAX_HEADER_BYTES)
        reader.feed_data(raw)
        reader.feed_eof()
        response = await sn.handle("blob", await httpd.read_request(reader))
        return response.status

    names = [f"b{i:03d}" for i in range(BLOBS)]
    reads = [signed("download_block_blob", name) for name in names]
    writes = [signed("upload_blob", name, b"x" * BLOB_BYTES)
              for name in names]
    listing = signed("list_blobs")
    for raw in [signed("create_container")] + writes:
        if await request(cluster.service_nodes[0], raw) >= 400:
            raise RuntimeError(f"sndn set-up failed: {raw[:60]!r}")

    horizon = loop.time() + result.duration_s
    if crash_at is not None:
        cluster.arm([FaultSpec(kind=FaultKind.DN_CRASH, node=0,
                               start=crash_at)])

    async def client(index: int) -> None:
        sn = cluster.service_nodes[index % len(cluster.service_nodes)]
        rng = Random(f"{seed}:client:{index}")
        while True:
            if rng.random() < fanout:
                raw = listing
            else:
                pick = rng.randrange(BLOBS)
                raw = (reads if rng.random() < 0.5 else writes)[pick]
            started = loop.time()
            status = await request(sn, raw)
            ended = loop.time()
            if ended > horizon:
                return  # finished past the window: not counted
            if status < 400:
                result.completed += 1
                result.latencies.append(ended - started)
            else:
                result.failed += 1

    await asyncio.gather(*(client(i) for i in range(clients)))
    return result


def sweep(sn_counts: Sequence[int], dn_counts: Sequence[int],
          **kwargs) -> Dict[Tuple[int, int], PointResult]:
    """:func:`measure` every (service nodes, data nodes) pair."""
    return {(sn, dn): measure(sn, dn, **kwargs)
            for sn in sn_counts for dn in dn_counts}
