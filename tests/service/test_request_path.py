"""What one routed request costs the service node, counted exactly.

Counts repeat on any host, so they can gate: a single-owner request
creates no asyncio task, a replicated one only the tasks its fan-out
or hedge needs.  Also pinned here: the hand-written per-DN deadline
(timeout vs. outside cancellation, link hygiene) and the bounded
access log.
"""

import asyncio
import sys
import time
from urllib.parse import quote

import pytest

from repro.service import ServiceCluster, TenantConfig, TenantDirectory
from repro.service import servicenode as servicenode_mod
from repro.service.httpd import HttpRequest, parse_qs_flat
from repro.service.membership import FailureDomainConfig
from repro.service.servicenode import ACCESS_LOG_TAIL, _within
from repro.service.sharedkey import DEV_ACCOUNT, DEV_KEY, sign_request
from repro.service.wire import ENCODERS, WIRE_VERSION, _http_date

PAYLOAD = b"p" * 4096


def signed(kind, op, *args, **kwargs):
    """``(service, HttpRequest, parse)`` for one registry call."""
    call = ENCODERS[(kind, op)](*args, **kwargs)
    path = f"/{DEV_ACCOUNT}{call.path}"
    query = {k: str(v) for k, v in call.query.items()}
    headers = dict(call.headers)
    headers["x-ms-date"] = _http_date(time.time())
    headers["x-ms-version"] = WIRE_VERSION
    headers["Content-Length"] = str(len(call.body))
    headers["Authorization"] = sign_request(
        DEV_ACCOUNT, DEV_KEY, call.method, path, query, headers,
        table_flavor=(call.service == "table"))
    target = path
    if query:
        target += "?" + "&".join(f"{quote(k, safe='')}={quote(v, safe='')}"
                                 for k, v in query.items())
    request = HttpRequest(
        call.method, target, path, parse_qs_flat(target.partition("?")[2]),
        {k.lower(): v for k, v in headers.items()}, call.body, "test")

    def parse(response):
        lower = {k.lower(): v for k, v in response.headers}
        return call.parse(response.status, lower, response.body)

    return call.service, request, parse


async def handle(node, kind, op, *args, **kwargs):
    service, request, parse = signed(kind, op, *args, **kwargs)
    response = await node.handle(service, request)
    return response, parse


def run_on_cluster(body, *, dn=2, access_log_path=None, **domain):
    """Run ``body(cluster, node)`` on an in-process cluster's own loop."""
    async def main():
        cluster = ServiceCluster(
            nodes=1, dn=dn,
            tenants=TenantDirectory(
                [TenantConfig.development(enforce_targets=False)]),
            failure_domain=FailureDomainConfig(**domain),
            access_log_path=access_log_path)
        await cluster.start()
        try:
            return await body(cluster, cluster.service_nodes[0])
        finally:
            if cluster.service_nodes:
                await cluster.stop()
    return asyncio.run(main())


class TaskCounter:
    """A task factory that counts what is created while it is armed."""

    def __init__(self) -> None:
        self.created = 0

    def __call__(self, loop, coro, **kwargs):
        self.created += 1
        return asyncio.Task(coro, loop=loop, **kwargs)

    async def count(self, awaitable) -> int:
        loop = asyncio.get_running_loop()
        self.created = 0
        loop.set_task_factory(self)
        try:
            response, _ = await awaitable
        finally:
            loop.set_task_factory(None)
        assert response.status < 300, response.body
        return self.created


#: The routed single-partition requests of the small live workload.
ROUTED = [
    ("queue", "put_message", ("costq", PAYLOAD), {}),
    ("queue", "peek_message", ("costq",), {}),
    ("queue", "get_message", ("costq",), {"visibility_timeout": 30.0}),
    ("table", "insert_or_replace", ("costt", "pk", "rk", {"v": "x" * 4096}),
     {}),
    ("table", "get", ("costt", "pk", "rk"), {}),
]


async def _prepare(node):
    for kind, op, args in (("queue", "create_queue", ("costq",)),
                           ("table", "create_table", ("costt",))):
        response, _ = await handle(node, kind, op, *args)
        assert response.status == 201


def test_single_owner_requests_create_no_task():
    async def body(cluster, node):
        await _prepare(node)
        counter = TaskCounter()
        return {op: await counter.count(handle(node, kind, op, *args, **kw))
                for kind, op, args, kw in ROUTED}

    assert run_on_cluster(body, dn=2) == {op: 0 for _, op, _, _ in ROUTED}


def test_replicated_requests_create_only_the_tasks_they_need():
    async def body(cluster, node):
        await _prepare(node)
        counter = TaskCounter()
        return {op: await counter.count(handle(node, kind, op, *args, **kw))
                for kind, op, args, kw in ROUTED}

    counts = run_on_cluster(body, dn=2, replicas=2)
    # Writes fan out to both owners; a hedgeable read runs its primary
    # as a task so a backup can race it; primary-only queue reads have
    # nothing to race and walk the replica set in the handler's task.
    assert counts == {"put_message": 2, "insert_or_replace": 2, "get": 1,
                      "peek_message": 0, "get_message": 0}


def test_slow_data_node_times_out_into_503_and_the_link_recovers():
    async def body(cluster, node):
        await _prepare(node)
        membership = cluster.membership
        (owner,) = membership.owners(
            node.route_label(DEV_ACCOUNT, "queue", "costq"))
        cluster.data_nodes[owner].slow_delay = 0.4
        started = time.monotonic()
        response, _ = await handle(node, "queue", "put_message",
                                   "costq", b"late")
        elapsed = time.monotonic() - started
        headers = dict(response.headers)
        breaker = membership.breaker(owner)
        seen = (response.status, headers.get("x-ms-error-code"),
                "Retry-After" in headers, breaker.consecutive_failures,
                membership.counters["replica_errors"],
                membership.counters["no_owner_503s"])
        # The DN still finishes the stalled put and writes its reply to
        # a link the SN has dropped; the next call must not read it.
        cluster.data_nodes[owner].slow_delay = 0.0
        await asyncio.sleep(0.5)
        response, parse = await handle(node, "queue", "get_message_count",
                                       "costq")
        return seen, elapsed, response.status, parse(response), \
            breaker.consecutive_failures

    seen, elapsed, status, count, failures = run_on_cluster(
        body, dn=2, dn_timeout=0.1)
    assert seen == (503, "ServerBusy", True, 1, 1, 1)
    assert elapsed < 0.35  # the deadline, not the stall
    assert (status, count, failures) == (200, 1, 0)


def test_cancelling_the_handler_is_a_cancellation_not_a_timeout():
    async def body(cluster, node):
        await _prepare(node)
        membership = cluster.membership
        (owner,) = membership.owners(
            node.route_label(DEV_ACCOUNT, "queue", "costq"))
        cluster.data_nodes[owner].slow_delay = 0.3
        task = asyncio.ensure_future(
            handle(node, "queue", "put_message", "costq", b"abandoned"))
        await asyncio.sleep(0.05)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task
        errors = membership.counters["replica_errors"]
        cluster.data_nodes[owner].slow_delay = 0.0
        await asyncio.sleep(0.4)
        response, parse = await handle(node, "queue", "get_message_count",
                                       "costq")
        return errors, response.status, parse(response)

    # No breaker failure was charged for the caller walking away, and
    # the abandoned exchange left no stale frame for the next call.
    assert run_on_cluster(body, dn=2, dn_timeout=5.0) == (0, 200, 1)


class TestWithin:
    def test_result_and_exception_pass_through(self):
        async def main():
            async def value():
                return 7

            async def boom():
                raise KeyError("k")

            assert await _within(1.0, value()) == 7
            with pytest.raises(KeyError):
                await _within(1.0, boom())
        asyncio.run(main())

    def test_expiry_is_a_timeout_and_cancels_the_call(self):
        async def main():
            cleaned = []

            async def stall():
                try:
                    await asyncio.sleep(5)
                finally:
                    cleaned.append(True)

            started = time.monotonic()
            with pytest.raises(asyncio.TimeoutError):
                await _within(0.05, stall())
            assert time.monotonic() - started < 1.0
            assert cleaned == [True]
            if sys.version_info >= (3, 11):
                assert asyncio.current_task().cancelling() == 0
            # The task is still usable afterwards.
            assert await _within(1.0, asyncio.sleep(0, "fine")) == "fine"
        asyncio.run(main())

    def test_outside_cancellation_stays_a_cancellation(self):
        async def main():
            task = asyncio.ensure_future(_within(5.0, asyncio.sleep(5)))
            await asyncio.sleep(0.02)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
        asyncio.run(main())

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="needs Task.uncancel to tell the two apart")
    def test_outside_cancellation_wins_a_tie_with_the_timer(self):
        async def main():
            loop = asyncio.get_running_loop()
            task = asyncio.ensure_future(_within(0.01, asyncio.sleep(5)))
            await asyncio.sleep(0)  # the deadline timer is now armed
            # A second timer right behind it, then stall the loop until
            # both are overdue: they fire back to back in one iteration,
            # before the task sees either cancellation.
            loop.call_later(0.02, task.cancel)
            time.sleep(0.05)
            with pytest.raises(asyncio.CancelledError):
                await task
        asyncio.run(main())


def test_access_log_keeps_a_bounded_tail_and_streams_to_its_file(tmp_path):
    path = tmp_path / "access.log"
    requests = 5000

    async def body(cluster, node):
        await _prepare(node)
        service, request, _ = signed("queue", "get_message_count", "costq")
        for _ in range(requests):
            response = await node.handle(service, request)
            assert response.status == 200
        on_disk = len(path.read_text().splitlines())
        return node, len(node.access_log), on_disk

    node, in_memory, on_disk_before_stop = run_on_cluster(
        body, dn=2, access_log_path=str(path))
    total = requests + 2
    assert in_memory == ACCESS_LOG_TAIL
    # Batches went out as the run went; stop() only flushed the rest.
    assert total - servicenode_mod.ACCESS_LOG_BATCH < on_disk_before_stop \
        <= total
    lines = path.read_text().splitlines()
    assert len(lines) == total
    assert lines[-1].split()[1:] == [
        DEV_ACCOUNT, "queue", "GET",
        f"/{DEV_ACCOUNT}/costq?comp=metadata", "200", "0"]
    assert lines[-1] == node.access_log[-1].format()


def test_access_log_without_a_path_is_bounded_too():
    async def body(cluster, node):
        await _prepare(node)
        service, request, _ = signed("queue", "get_message_count", "costq")
        for _ in range(ACCESS_LOG_TAIL + 50):
            await node.handle(service, request)
        return len(node.access_log)

    assert run_on_cluster(body, dn=2) == ACCESS_LOG_TAIL
