"""The SN->DN hop as a plain call: what crosses it, and what it arms.

The hop hands objects, not frames, so the state machines are the copy
boundary: a differential drives the same random queue, table and blob
requests through the plain call and through the pickling oracle
(``tests.service.pickle_link``), with writes fanned to every replica
holding the *same* argument objects, and through one rebalance.  Both
sides scribble on every container they passed or got back; the returns
and every shard's exported state must still agree after each request.

A call that completes without waiting arms no deadline timer; one that
waits arms it, and keeps the timeout and cancellation semantics.
"""

import asyncio
import copy
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import DataNode, DataNodeClient, datanode
from repro.service.membership import FailureDomainConfig, Membership
from repro.service.sharedkey import DEV_ACCOUNT
from repro.storage.clock import LoopClock
from repro.storage.content import Content
from repro.storage.errors import StorageError
from repro.storage.queue.state import QueueMessage
from repro.storage.table import BatchOperation
from repro.storage.table.entity import Entity
from repro.storage.table.state import QueryResult
from tests.service.pickle_link import PicklingLink
from tests.service.test_request_path import (
    ROUTED,
    _prepare,
    handle,
    run_on_cluster,
)

QUEUES = ("qaa", "qbb")
TABLE = "taa"
CONTAINER = "caa"
PAGE_BLOB = "pg1"
LAST_ID, LAST_RECEIPT = "<last id>", "<last receipt>"

#: Namespace requests every data node gets, then the one page blob.
SETUP = [("queue", "create_queue", None, (q,), {}, "live") for q in QUEUES] + [
    ("table", "create_table", None, (TABLE,), {}, "live"),
    ("blob", "create_container", None, (CONTAINER,), {}, "live"),
    ("blob", "create_page_blob", f"{CONTAINER}/{PAGE_BLOB}",
     (CONTAINER, PAGE_BLOB, 4096), {}, "owners"),
]


class SteppedClock(LoopClock):
    """The cluster clock, advanced only by the test."""

    t = 1000.0

    def now(self) -> float:
        return self.t


def plain(value):
    """A comparable rendering of whatever crossed the hop."""
    if isinstance(value, Content):
        return ("content", value.to_bytes())
    if isinstance(value, Entity):
        return ("entity", value.partition_key, value.row_key,
                plain(value.properties()), value.etag, value.timestamp)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            plain(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return ("dict", sorted((k, plain(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [plain(v) for v in value])
    return value


def scribble(value) -> None:
    """What a careless caller does to the containers it holds after a
    call: a state machine that kept one of them would now diverge.
    Entities are immutable by contract and are left alone."""
    if isinstance(value, BatchOperation):
        scribble(value.properties)
    elif isinstance(value, QueueMessage):
        value.pop_receipt, value.next_visible_time = "scribbled", 1e18
    elif isinstance(value, QueryResult):
        scribble(value.entities)
    elif isinstance(value, (list, tuple)):
        for item in value:
            scribble(item)
        if isinstance(value, list):
            value.clear()
    elif isinstance(value, dict):
        value.clear()


class World:
    """Three data nodes, their links and a membership over them."""

    def __init__(self, link, clock, replicas) -> None:
        self.link, self.clock, self.replicas = link, clock, replicas
        self.nodes = [DataNode(i, [DEV_ACCOUNT], clock=clock)
                      for i in range(3)]
        self.last = {}  # queue -> (message id, pop receipt) last got

    async def start(self) -> None:
        self.links = [self.link(*await node.start()) for node in self.nodes]
        self.membership = Membership(
            FailureDomainConfig(replicas=self.replicas), self.links,
            [DEV_ACCOUNT], self.clock)
        self.membership.start()

    async def kill(self, index: int) -> None:
        """Crash one node and heal: the rebalance exports and imports."""
        self.nodes[index].crash()
        self.membership.mark_dead(index)
        assert await self.membership.wait_settled(timeout=5.0)

    async def request(self, step) -> list:
        client, op, key, args, kwargs, fan = step
        if fan == "live":
            targets = self.membership.live_indices()
        else:
            owners = self.membership.owners(f"{DEV_ACCOUNT}/{client}/{key}")
            targets = owners if fan == "owners" else owners[:1]
        last = self.last.get(args[0], ("none", "none"))
        args = tuple({LAST_ID: last[0], LAST_RECEIPT: last[1]}.get(a, a)
                     if isinstance(a, str) else a for a in args)
        outcomes = []
        for node in targets:
            try:
                result = await self.links[node].call(
                    DEV_ACCOUNT, client, op, args, kwargs)
            except StorageError as exc:
                outcomes.append(("error", type(exc).__name__, str(exc)))
                continue
            outcomes.append(("ok", plain(result)))
            got = result if isinstance(result, list) else [result]
            for message in got:
                if isinstance(message, QueueMessage) \
                        and message.pop_receipt:
                    self.last[args[0]] = (message.message_id,
                                          message.pop_receipt)
            scribble(result)
        scribble(args)
        scribble(kwargs)
        return outcomes

    def state(self):
        shards = []
        for node in self.nodes:
            shard = node._shards[DEV_ACCOUNT]
            manifest = datanode._fabric_manifest(shard)
            shards.append(plain((
                manifest,
                [datanode._fabric_export_blob(shard, f"{c}/{b}")
                 for c, b in manifest["blobs"]],
                [datanode._fabric_export_queue(shard, q)
                 for q in manifest["queues"]],
                [datanode._fabric_export_table(shard, pk)
                 for pk in manifest["partitions"]])))
        counters = self.membership.counters
        return shards, counters["rebalances"], counters["shards_migrated"]


queue = st.sampled_from(QUEUES)
visibility = st.sampled_from([1.0, 30.0])
payload = st.binary(min_size=1, max_size=24)
pk = st.sampled_from(["p1", "p2"])
rk = st.sampled_from(["r1", "r2", "r3"])
props = st.dictionaries(
    st.sampled_from(["a", "b", "c"]),
    st.one_of(st.text(max_size=4), st.integers(-3, 3), st.booleans(),
              st.binary(max_size=4)), max_size=3)
blob = st.sampled_from(["b01", "b02"])
block_id = st.sampled_from(["k1", "k2", "k3"])
page_at = st.sampled_from([0, 512, 1024, 3584])


def _blob_step(op, fan, args_of, *strategies, **kwargs):
    return st.tuples(blob, *strategies).map(lambda t: (
        "blob", op, f"{CONTAINER}/{t[0]}",
        (CONTAINER, t[0]) + args_of(*t[1:]), dict(kwargs), fan))


def _page_step(op, fan, args_of, *strategies):
    return st.tuples(*strategies).map(lambda t: (
        "blob", op, f"{CONTAINER}/{PAGE_BLOB}",
        (CONTAINER, PAGE_BLOB) + args_of(*t), {}, fan))


steps = st.one_of(
    st.tuples(queue, payload).map(lambda t: (
        "queue", "put_message", t[0], t, {}, "owners")),
    st.tuples(queue, visibility).map(lambda t: (
        "queue", "get_message", t[0], (t[0],),
        {"visibility_timeout": t[1]}, "primary")),
    st.tuples(queue, st.integers(1, 3), visibility).map(lambda t: (
        "queue", "get_messages", t[0], t[:2],
        {"visibility_timeout": t[2]}, "primary")),
    queue.map(lambda q: ("queue", "peek_message", q, (q,), {}, "primary")),
    st.tuples(queue, payload, visibility).map(lambda t: (
        "queue", "update_message", t[0], (t[0], LAST_ID, LAST_RECEIPT, t[1]),
        {"visibility_timeout": t[2]}, "primary")),
    queue.map(lambda q: ("queue", "delete_message", q,
                         (q, LAST_ID, LAST_RECEIPT), {}, "owners")),
    queue.map(lambda q: ("queue", "get_message_count", q, (q,), {},
                         "primary")),
    st.tuples(st.sampled_from(["insert", "insert_or_replace",
                               "insert_or_merge", "update", "merge"]),
              pk, rk, props).map(lambda t: (
                  "table", t[0], t[1], (TABLE,) + t[1:], {}, "owners")),
    st.tuples(pk, rk).map(lambda t: (
        "table", "delete", t[0], (TABLE,) + t, {}, "owners")),
    st.tuples(pk, rk).map(lambda t: (
        "table", "get", t[0], (TABLE,) + t, {}, "primary")),
    pk.map(lambda p: ("table", "query_partition", p, (TABLE, p), {},
                      "primary")),
    st.integers(1, 3).map(lambda top: (
        "table", "query", None, (TABLE,), {"top": top}, "live")),
    st.tuples(pk, st.lists(st.tuples(
        st.sampled_from(["insert", "upsert_replace", "upsert_merge",
                         "merge", "delete"]), rk, props),
        max_size=3, unique_by=lambda op: op[1])).map(lambda t: (
            "table", "execute_batch", t[0],
            (TABLE, [BatchOperation(kind, t[0], row, bag)
                     for kind, row, bag in t[1]]), {}, "owners")),
    _blob_step("upload_blob", "owners", lambda data: (data,), payload),
    _blob_step("put_block", "owners", lambda b, data: (b, data),
               block_id, payload),
    _blob_step("put_block_list", "owners", lambda ids: (ids,),
               st.lists(block_id, max_size=3), merge=True),
    _blob_step("put_block_list", "owners", lambda ids: (ids,),
               st.lists(block_id, max_size=3)),
    _blob_step("_download", "primary", lambda: ()),
    _blob_step("get_block", "primary", lambda i: (i,), st.integers(0, 2)),
    _blob_step("snapshot_blob", "owners", lambda: ()),
    _blob_step("delete_blob", "owners", lambda: (), delete_snapshots=True),
    _page_step("put_page", "owners",
               lambda at, byte: (at, bytes([byte]) * 512),
               page_at, st.integers(0, 255)),
    _page_step("_get_page", "primary", lambda at: (at, 512), page_at),
    st.sampled_from([0.5, 2.0, 40.0]).map(lambda dt: ("tick", dt)),
)


def run_differential(replicas, script) -> None:
    async def main():
        clock = SteppedClock()
        worlds = [World(DataNodeClient, clock, replicas),
                  World(PicklingLink, clock, replicas)]
        for world in worlds:
            await world.start()
        for step in SETUP + script:
            if step[0] == "tick":
                clock.t += step[1]
                continue
            if step[0] == "kill":
                for world in worlds:
                    await world.kill(step[1])
            else:
                direct, oracle = [await world.request(copy.deepcopy(step))
                                  for world in worlds]
                assert direct == oracle, step
            assert worlds[0].state() == worlds[1].state(), step

    asyncio.run(main())


@pytest.mark.parametrize("replicas", [1, 2])
@settings(max_examples=60, deadline=None)
@given(script=st.lists(steps, max_size=30))
def test_the_plain_call_matches_the_pickling_hop(replicas, script):
    run_differential(replicas, script)


@settings(max_examples=40, deadline=None)
@given(before=st.lists(steps, min_size=1, max_size=20),
       victim=st.integers(0, 2),
       after=st.lists(steps, max_size=10))
def test_the_plain_call_matches_the_pickling_hop_through_a_rebalance(
        before, victim, after):
    run_differential(2, before + [("kill", victim)] + after)


def test_the_differential_sees_a_state_machine_keep_a_caller_container(
        monkeypatch):
    """The harness can fail: an entity that adopts the caller's bag
    instead of copying it diverges from the oracle."""
    def adopting_init(self, partition_key, row_key, properties, *,
                      etag="", timestamp=0.0):
        self.partition_key, self.row_key = partition_key, row_key
        self._properties = properties
        self.etag, self.timestamp = etag, timestamp

    monkeypatch.setattr(Entity, "__init__", adopting_init)
    with pytest.raises(AssertionError):
        run_differential(1, [("table", "insert", "p1",
                               (TABLE, "p1", "r1", {"a": "x"}), {},
                               "owners")])


class CountingTimers:
    """Wraps the running loop's ``call_later``: the timers armed."""

    def __init__(self) -> None:
        self.armed = []

    def __enter__(self):
        loop = asyncio.get_running_loop()
        real = loop.call_later

        def call_later(delay, callback, *args, **kwargs):
            handle = real(delay, callback, *args, **kwargs)
            self.armed.append((delay, handle))
            return handle

        loop.call_later = call_later
        self.loop = loop
        return self

    def __exit__(self, *exc) -> None:
        del self.loop.call_later

    def delays(self):
        return [delay for delay, _ in self.armed]


def test_a_call_that_completes_at_once_arms_no_timer():
    async def body(cluster, node):
        await _prepare(node)
        with CountingTimers() as timers:
            statuses = [(await handle(node, kind, op, *args, **kw))[0].status
                        for kind, op, args, kw in ROUTED]
        return statuses, timers.delays()

    statuses, armed = run_on_cluster(body, dn=2, dn_timeout=2.0)
    assert all(status < 300 for status in statuses)
    assert armed == []


def _owner(cluster, node):
    (owner,) = cluster.membership.owners(
        node.route_label(DEV_ACCOUNT, "queue", "costq"))
    return owner


def test_a_parked_call_arms_its_deadline_and_answers_503_at_it():
    dn_timeout = 0.2

    async def body(cluster, node):
        await _prepare(node)
        owner = _owner(cluster, node)
        cluster.data_nodes[owner].slow_delay = 1.0
        loop = asyncio.get_running_loop()
        with CountingTimers() as timers:
            started = loop.time()
            response, _ = await handle(node, "queue", "put_message",
                                       "costq", b"late")
            elapsed = loop.time() - started
        headers = dict(response.headers)
        return (response.status, "Retry-After" in headers,
                cluster.membership.breaker(owner).consecutive_failures,
                timers.delays().count(dn_timeout), elapsed)

    status, retry_after, failures, deadlines, elapsed = run_on_cluster(
        body, dn=2, dn_timeout=dn_timeout)
    assert (status, retry_after, failures, deadlines) == (503, True, 1, 1)
    assert dn_timeout <= elapsed < dn_timeout + 0.25


def test_an_outside_cancel_of_a_parked_call_stays_a_cancellation():
    dn_timeout = 5.0

    async def body(cluster, node):
        await _prepare(node)
        owner = _owner(cluster, node)
        cluster.data_nodes[owner].slow_delay = 0.5
        with CountingTimers() as timers:
            task = asyncio.ensure_future(
                handle(node, "queue", "put_message", "costq", b"gone"))
            await asyncio.sleep(0.05)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
        deadlines = [h for delay, h in timers.armed if delay == dn_timeout]
        return ([h.cancelled() for h in deadlines],
                cluster.membership.breaker(owner).consecutive_failures)

    # The deadline was armed, then disarmed by the cancellation; walking
    # away charged the node's breaker nothing.
    assert run_on_cluster(body, dn=2, dn_timeout=dn_timeout) == ([True], 0)
