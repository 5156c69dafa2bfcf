"""The SN->DN link: an exchange inside the event loop, not a socket.

A data node answers its callers in the loop the cluster runs on, so a
started cluster listens on its service-node endpoints and nothing else.
When a node waits mid-exchange, its caller is parked on the node; a
crash fails that caller at once, not when the stall would have ended.
"""

import asyncio
import os
import time

import pytest

from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.service import DataNode, DataNodeClient, ServiceCluster
from repro.service.sharedkey import DEV_ACCOUNT
from tests.service.conftest import listening_ports
from tests.service.test_request_path import _prepare, handle, run_on_cluster


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="reads the socket tables of Linux /proc")
def test_a_started_cluster_listens_on_its_service_endpoints_only():
    async def main():
        before = set(listening_ports())
        cluster = ServiceCluster(nodes=1, dn=2)
        await cluster.start()
        try:
            opened = set(listening_ports()) - before
            endpoints = {port for _, port in cluster.endpoints().values()}
        finally:
            await cluster.stop()
        return opened, endpoints

    opened, endpoints = asyncio.run(main())
    assert len(endpoints) == 3
    assert opened == endpoints


def test_a_crash_fails_a_stalled_exchange_at_the_crash():
    async def body(cluster, node):
        await _prepare(node)
        membership = cluster.membership
        (owner,) = membership.owners(
            node.route_label(DEV_ACCOUNT, "queue", "costq"))
        cluster.data_nodes[owner].slow_delay = 0.5
        asyncio.get_running_loop().call_later(
            0.1, cluster.crash_data_node, owner)
        started = time.monotonic()
        response, _ = await handle(node, "queue", "put_message",
                                   "costq", b"doomed")
        elapsed = time.monotonic() - started
        return (response.status,
                membership.breaker(owner).consecutive_failures,
                membership.counters["replica_errors"]), elapsed

    seen, elapsed = run_on_cluster(body, dn=2, dn_timeout=5.0)
    assert seen == (503, 1, 1)  # a transport error, charged to the breaker
    assert elapsed < 0.35  # the crash, not the stall


@pytest.mark.parametrize("end", ["stop", "crash"])
def test_a_node_that_is_gone_refuses_calls(end):
    async def main():
        node = DataNode(0, [DEV_ACCOUNT])
        client = DataNodeClient(*await node.start())
        await client.call(DEV_ACCOUNT, "queue", "create_queue", ("q1q",), {})
        if end == "stop":
            await node.stop()
        else:
            node.crash()
        with pytest.raises(ConnectionRefusedError):
            await client.call(DEV_ACCOUNT, "queue", "get_message_count",
                              ("q1q",), {})

    asyncio.run(main())


def test_a_fault_plan_reaches_every_shard_of_the_account():
    """``ServiceCluster.set_fault_plan`` is how the dn-failover campaign
    installs a profile's op-level faults: every data node's shard of the
    account draws from the plan, and other services are untouched."""
    plan = FaultPlan([FaultSpec(FaultKind.TRANSIENT_ERROR, service="queue")],
                     seed=1)

    async def body(cluster, node):
        await _prepare(node)
        cluster.set_fault_plan(DEV_ACCOUNT, plan)
        queue, _ = await handle(node, "queue", "put_message", "costq", b"x")
        table, _ = await handle(node, "table", "insert", "costt", "p", "r", {})
        return queue.status, table.status

    assert run_on_cluster(body, dn=2) == (500, 201)
