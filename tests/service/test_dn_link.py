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

from repro.service import DataNode, DataNodeClient, ServiceCluster
from repro.service.sharedkey import DEV_ACCOUNT
from repro.storage.errors import QueueNotFoundError
from repro.storage.queue.state import QueueServiceState
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


def _failing_get_queue(error):
    def get_queue(self, name):
        raise error
    return get_queue


@pytest.mark.parametrize("stall", [0.0, 0.05], ids=["eager", "parked"])
def test_a_storage_error_crosses_as_the_object_the_state_raised(
        monkeypatch, stall):
    missing = QueueNotFoundError("prebuilt: the queue went away")
    parks = []
    park = DataNode._park

    async def counted_park(self, exchange, waiting_on):
        parks.append(self.index)
        return await park(self, exchange, waiting_on)

    async def main():
        node = DataNode(0, [DEV_ACCOUNT])
        client = DataNodeClient(*await node.start())
        await client.call(DEV_ACCOUNT, "queue", "create_queue", ("q1q",), {})
        node.slow_delay = stall
        monkeypatch.setattr(DataNode, "_park", counted_park)
        monkeypatch.setattr(QueueServiceState, "get_queue",
                            _failing_get_queue(missing))
        with pytest.raises(QueueNotFoundError) as info:
            await client.call(DEV_ACCOUNT, "queue", "put_message",
                              ("q1q", b"m"), {})
        return info.value

    assert asyncio.run(main()) is missing
    assert parks == ([0] if stall else [])


def test_any_other_failure_is_a_data_node_error_and_a_breaker_failure(
        monkeypatch):
    async def body(cluster, node):
        await _prepare(node)
        membership = cluster.membership
        (owner,) = membership.owners(
            node.route_label(DEV_ACCOUNT, "queue", "costq"))
        monkeypatch.setattr(QueueServiceState, "get_queue",
                            _failing_get_queue(ValueError("boom")))
        with pytest.raises(RuntimeError) as info:
            await node.data_nodes[owner].call(
                DEV_ACCOUNT, "queue", "put_message", ("costq", b"m"), {})
        response, _ = await handle(node, "queue", "put_message",
                                   "costq", b"m")
        return (str(info.value), response.status,
                membership.breaker(owner).consecutive_failures,
                membership.counters["replica_errors"])

    assert run_on_cluster(body, dn=2) == (
        "data node error: ValueError: boom", 503, 1, 1)


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


def test_event_loop_serializes_mutations():
    """Many concurrent inserts over several links all land: each op runs
    to completion inside its call, so no two mutations interleave."""
    async def main():
        node = DataNode(0, [DEV_ACCOUNT])
        address = await node.start()
        links = [DataNodeClient(*address) for _ in range(5)]
        await links[0].call(DEV_ACCOUNT, "table", "create_table",
                            ("conc",), {})
        await asyncio.gather(*[
            links[i % 5].call(DEV_ACCOUNT, "table", "insert",
                              ("conc", "p", f"r{i}", {"i": i}), {})
            for i in range(25)
        ])
        return await links[0].call(DEV_ACCOUNT, "table", "query_partition",
                                   ("conc", "p", None), {})

    rows = asyncio.run(main())
    assert len(rows) == 25
