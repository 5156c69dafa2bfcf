"""Data nodes: the shards that own partitions and execute operations.

A data node holds the *storage state machines* for every account,
sharded by partition key: the service nodes route each operation to the
DN that owns its partition (or broadcast namespace operations to all
DNs).  Operations execute through the registry pipeline via
:class:`~repro.pipeline.executors.AsyncExecutor` — the same
``prepare -> interceptors -> apply`` drive the emulator's threads use,
so the two tiers cannot diverge semantically.

The SN->DN link is an exchange of pickled frames inside the event loop
the nodes share: ``(account, client, op, args, kwargs)`` one way and
``("ok", result)`` / ``("storage-err", payload)`` the other.  Pickling
is the copy boundary — the SN and the DN never share a live object, as
if a wire lay between them — and the frame bytes are what a link
between processes would carry.  It is a trusted, same-deployment link
(like HSDS's internal DN traffic), so fidelity lives at the *wire*
tier, not here.

An exchange runs eagerly, in the caller's task: an op that does not
wait costs no task and no turn of the loop.  Only when the node itself
waits (a DN_SLOW stall, an injected TIMEOUT burn) does the rest of the
exchange continue as a task of its own, while the caller waits for the
reply on a future parked on the node.  A caller whose deadline expires
thus abandons the call, not the op: the node finishes it and the reply
is dropped.

``start()`` enters a node in a process-local directory under an address
unique to it, which :class:`DataNodeClient` resolves on every call.
``crash()`` kills a node the hard way, which is what the DN_CRASH chaos
fault and the failover tests use to model a crash-stop process death:
every caller parked on it fails at once with ``ConnectionResetError``,
and later calls are refused with ``ConnectionRefusedError``.

The same link carries the *fabric* traffic of the failure domain:
``_ping`` heartbeats, ``_manifest`` (what data does this node hold),
and ``_export_* / _import_*`` shard streams the rebalancer uses to
restore replication after a node dies (see
:mod:`repro.service.membership`).  Migration moves state machines
directly — replica copies are fabric-internal, not client requests, so
they bypass the op pipeline (no throttling, no fault injection) the
way a real fabric's inter-node replication bypasses the front door.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import pickle
import types
import weakref
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple, Union

from ..pipeline import (
    AsyncExecutor,
    FaultInterceptor,
    OPERATIONS,
    OpCall,
    Pipeline,
)
from ..storage import StorageAccountState, WallClock
from ..storage.blob.state import BlockBlobState, PageBlobState
from ..storage.errors import StorageError
from ..storage.cache import CacheServiceState
from ..storage.limits import LIMITS_2012
from ..storage.table.entity import Entity
from .wire import error_to_payload, payload_to_error

__all__ = ["DataNode", "DataNodeClient"]

#: Started data nodes by address: what listening sockets were to a
#: loopback link.  Weak, so a node nobody stopped does not outlive its run.
_DIRECTORY: "weakref.WeakValueDictionary[Tuple[str, int], DataNode]" = \
    weakref.WeakValueDictionary()
_ADDRESSES = itertools.count(1)


@types.coroutine
def _resume(coro, waiting_on):
    """Drive a started coroutine on from the await it is suspended in.

    A task cannot adopt a coroutine that has already run (3.12's eager
    task start can): this generator passes on to its task what the
    coroutine waits on, and each wake-up — a value, or an exception such
    as a cancellation — back to the coroutine.
    """
    while True:
        try:
            message, step = (yield waiting_on), coro.send
        except BaseException as exc:
            message, step = exc, coro.throw
        try:
            waiting_on = step(message)
        except StopIteration as done:
            return done.value


async def _finish(coro, waiting_on):
    # What the task runs: 3.12 tasks refuse a generator-based coroutine.
    return await _resume(coro, waiting_on)


def _deliver(reply: asyncio.Future, task: asyncio.Task) -> None:
    """Hand a finished exchange's outcome to its caller, if still there."""
    if task.cancelled():
        error = ConnectionResetError("data node exchange was cancelled")
    else:
        error = task.exception()
    if reply.done():
        return  # the caller gave up, or the node crashed under it
    if error is None:
        reply.set_result(task.result())
    else:
        reply.set_exception(error)


class _Shard:
    """One account's slice of state on one data node."""

    def __init__(self, account: str, *, limits=LIMITS_2012, clock=None,
                 fifo_jitter_seed: Optional[int] = None) -> None:
        clock = clock if clock is not None else WallClock()
        self.state = StorageAccountState(
            account, clock, limits, fifo_jitter_seed=fifo_jitter_seed)
        self.cache_state = CacheServiceState(clock)
        self.fault_plan = None
        self.pipeline = Pipeline([
            FaultInterceptor(lambda: self.fault_plan, cluster=None),
        ])
        self.executor = AsyncExecutor(self.state, self.pipeline)
        self.op_call = OpCall(
            self.state, self.cache_state,
            now_fn=clock.now, plan_fn=lambda: self.fault_plan)


class DataNode:
    """One shard server: per-account state + async registry executor."""

    def __init__(self, index: int,
                 accounts: Union[Mapping[str, object], Iterable[str]], *,
                 limits=LIMITS_2012, clock=None,
                 fifo_jitter_seed: Optional[int] = None) -> None:
        self.index = index
        if isinstance(accounts, Mapping):
            items = list(accounts.items())   # account -> its own limits
        else:
            items = [(account, limits) for account in accounts]
        self._shards: Dict[str, _Shard] = {
            account: _Shard(account, limits=acct_limits, clock=clock,
                            fifo_jitter_seed=fifo_jitter_seed)
            for account, acct_limits in items
        }
        self._address: Optional[Tuple[str, int]] = None
        #: Exchanges that waited and now run as tasks, and the reply
        #: futures their callers wait on.
        self._exchanges: Set[asyncio.Task] = set()
        self._parked: Set[asyncio.Future] = set()
        self.requests_served = 0
        #: Injected per-request service delay in seconds (DN_SLOW fault).
        self.slow_delay = 0.0

    # -- lifecycle ----------------------------------------------------------
    async def start(self, host: str = "127.0.0.1") -> Tuple[str, int]:
        """Enter the directory; the address is what clients dial."""
        self._address = (host, next(_ADDRESSES))
        _DIRECTORY[self._address] = self
        return self._address

    async def stop(self) -> None:
        _DIRECTORY.pop(self._address, None)

    def crash(self) -> None:
        """Crash-stop this node: refuse new calls, fail the parked ones.

        In-flight requests die with a transport error on the SN side,
        exactly like a process kill — no goodbye frames, no flushing.
        """
        _DIRECTORY.pop(self._address, None)
        for reply in self._parked:
            if not reply.done():
                reply.set_exception(ConnectionResetError(
                    f"data node {self.index} crashed mid-call"))

    # -- faults / introspection --------------------------------------------
    def shard(self, account: str) -> _Shard:
        return self._shards[account]

    def set_fault_plan(self, account: str, plan) -> None:
        self._shards[account].fault_plan = plan

    # -- the exchange -------------------------------------------------------
    async def _exchange(self, frame: bytes) -> bytes:
        """One request frame in, one reply frame out."""
        account, client, op, args, kwargs = pickle.loads(frame)
        reply = await self._dispatch(account, client, op, args, kwargs)
        try:
            return pickle.dumps(reply)
        except Exception as exc:  # unpicklable result: report it
            return pickle.dumps(
                ("err", f"unpicklable result for {op}: {exc}"))

    async def _park(self, exchange, waiting_on) -> bytes:
        """Finish an exchange that waits as a task; its caller waits here.

        The caller awaits a reply future, not the task, so a caller that
        gives up (its deadline, a cancellation) abandons the call while
        the op runs to its end, and ``crash()`` fails it at once.
        """
        reply = asyncio.get_running_loop().create_future()
        task = asyncio.ensure_future(_finish(exchange, waiting_on))
        self._exchanges.add(task)  # the loop holds tasks weakly
        task.add_done_callback(self._exchanges.discard)
        task.add_done_callback(functools.partial(_deliver, reply))
        self._parked.add(reply)
        try:
            return await reply
        finally:
            self._parked.discard(reply)

    async def _dispatch(self, account: str, client: str, op: str,
                        args: tuple, kwargs: dict) -> tuple:
        self.requests_served += 1
        if op == "_ping":
            # Heartbeat: account-agnostic, answered before shard lookup.
            return ("ok", {"node": self.index,
                           "served": self.requests_served})
        if self.slow_delay > 0:
            # DN_SLOW fault: a sick-but-alive node (GC stall, bad disk).
            await asyncio.sleep(self.slow_delay)
        shard = self._shards.get(account)
        if shard is None:
            return ("err", f"data node {self.index} holds no shard for "
                           f"account {account!r}")
        try:
            if op.startswith("_manifest") or op.startswith("_export_") \
                    or op.startswith("_import_"):
                result = _FABRIC_OPS[op](shard, *args)
            else:
                result = await self._execute(shard, client, op,
                                             args, kwargs)
        except StorageError as exc:
            return ("storage-err", error_to_payload(exc))
        except Exception as exc:
            return ("err", f"{type(exc).__name__}: {exc}")
        if op.startswith("create_"):
            # create_* ops return live state objects (they carry
            # back-references and locks); the wire result is just "ok".
            result = None
        return ("ok", result)

    async def _execute(self, shard: _Shard, client: str, op: str,
                       args: tuple, kwargs: dict):
        if op == "_download":
            # The SN cannot know the blob's flavor; resolve it here where
            # the state lives and download whichever blob this is.
            container, blob = args
            target = shard.state.blobs.get_container(container).get_blob(blob)
            op = ("download_page_blob" if isinstance(target, PageBlobState)
                  else "download_block_blob")
        elif op == "_get_page":
            # Range reads answer with ``Content-Range: bytes a-b/total``;
            # only this side knows the blob's total size, so pair it with
            # the slice.
            content = await shard.executor.run(
                OPERATIONS[client]["get_page"], shard.op_call, args, kwargs,
                worker=f"dn{self.index}")
            container, blob = args[0], args[1]
            target = shard.state.blobs.get_container(container).get_blob(blob)
            return (content, target.max_size)
        spec = OPERATIONS[client].get(op)
        if spec is None:
            raise StorageError(f"unknown operation {client}.{op}")
        if spec.local:
            # Bookkeeping reads run inline: the event loop serializes.
            return spec.body(shard.op_call, *args, **kwargs)
        return await shard.executor.run(
            spec, shard.op_call, args, kwargs, worker=f"dn{self.index}")


# -- fabric (rebalancer) pseudo-ops -----------------------------------------
#
# These run inline on the event loop against the shard's state machines,
# bypassing the op pipeline: replica migration is fabric-internal traffic,
# not client traffic, so it must neither be throttled nor fault-injected.
# Payloads travel as pickled state fragments (Content objects are pure
# data), and imports are idempotent overwrites so a retried migration —
# or two rebalancers racing — converges instead of corrupting.


def _fabric_manifest(shard: _Shard) -> Dict[str, list]:
    """What partition labels this shard holds *data* for.

    Namespace objects (containers/queues/tables) are broadcast-created on
    every DN, so only data-holding labels need migration: each key below
    is exactly a routing ``route_key``, which is what lets the rebalancer
    compute desired owners with the same labels the SNs route by.
    """
    state = shard.state
    blobs = sorted((c.name, b) for c in state.blobs.containers.values()
                   for b in c.blobs)
    queues = sorted(name for name, q in state.queues.queues.items()
                    if q._messages)
    partitions = sorted({pk for t in state.tables.tables.values()
                         for pk, rows in t._partitions.items() if rows})
    return {"blobs": blobs, "queues": queues, "partitions": partitions}


def _fabric_export_blob(shard: _Shard, route_key: str) -> tuple:
    container, _, blob = route_key.partition("/")
    target = shard.state.blobs.get_container(container).get_blob(blob)
    common = (dict(target.metadata), dict(target.snapshots))
    if isinstance(target, PageBlobState):
        return ("page", target.max_size, list(target._ranges),
                target._written_bytes) + common
    return ("block", list(target._committed), dict(target._uncommitted),
            target._size) + common


def _fabric_import_blob(shard: _Shard, route_key: str,
                        payload: tuple) -> None:
    container_name, _, blob_name = route_key.partition("/")
    service = shard.state.blobs
    container = service.create_container(container_name)
    if payload[0] == "page":
        _, max_size, ranges, written, metadata, snapshots = payload
        blob = container.create_page_blob(blob_name, max_size)
        blob._ranges = ranges
        blob._written_bytes = written
        service._account_delta(written)
    else:
        _, committed, uncommitted, size, metadata, snapshots = payload
        blob = container.create_block_blob(blob_name)
        blob._committed = committed
        blob._uncommitted = uncommitted
        blob._size = size
        service._account_delta(size)
    blob.metadata = metadata
    blob.snapshots = snapshots


def _fabric_export_queue(shard: _Shard, route_key: str) -> list:
    queue = shard.state.queues.get_queue(route_key)
    now = queue._now()
    return [m.content for m in queue._messages if not m.expired(now)]


def _fabric_import_queue(shard: _Shard, route_key: str,
                         contents: list) -> None:
    # Re-put the payloads instead of splicing QueueMessage records: ids,
    # receipts, and visibility restart on the new replica.  A migrated
    # in-flight message may be delivered again — at-least-once, which is
    # the queue contract the chaos ledger checks — but none is lost.
    queue = shard.state.queues.create_queue(route_key)
    for content in contents:
        queue.put_message(content)


def _fabric_export_table(shard: _Shard, route_key: str) -> Dict[str, list]:
    out: Dict[str, list] = {}
    for name, table in shard.state.tables.tables.items():
        rows = table._partitions.get(route_key)
        if rows:
            out[name] = [(e.row_key, dict(e._properties), e.etag,
                          e.timestamp) for e in rows.values()]
    return out


def _fabric_import_table(shard: _Shard, route_key: str,
                         exported: Dict[str, list]) -> None:
    for name, rows in exported.items():
        table = shard.state.tables.create_table(name)
        for row_key, properties, etag, timestamp in rows:
            table._store(Entity(route_key, row_key, properties,
                                etag=etag, timestamp=timestamp))


_FABRIC_OPS = {
    "_manifest": _fabric_manifest,
    "_export_blob": _fabric_export_blob,
    "_import_blob": _fabric_import_blob,
    "_export_queue": _fabric_export_queue,
    "_import_queue": _fabric_import_queue,
    "_export_table": _fabric_export_table,
    "_import_table": _fabric_import_table,
}


class DataNodeClient:
    """The service node's async handle to one data node.

    One link per (SN, DN) pair; an ``asyncio.Lock`` serializes the
    exchanges on it (requests are short, and each SN talks to every DN
    concurrently, so per-link pipelining is not the bottleneck).  The
    address is resolved on every call, so a node that crashed or stopped
    refuses it.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._lock = asyncio.Lock()

    async def close(self) -> None:
        """Nothing to release: a link holds no connection."""

    async def call(self, account: str, client: str, op: str,
                   args: tuple, kwargs: dict):
        request = pickle.dumps((account, client, op, args, kwargs))
        async with self._lock:
            node = _DIRECTORY.get((self.host, self.port))
            if node is None:
                raise ConnectionRefusedError(
                    f"no data node at {self.host}:{self.port}")
            exchange = node._exchange(request)
            try:
                waiting_on = exchange.send(None)
            except StopIteration as done:
                frame = done.value
            else:
                frame = await node._park(exchange, waiting_on)
        tag, payload = pickle.loads(frame)
        if tag == "ok":
            return payload
        if tag == "storage-err":
            raise payload_to_error(payload)
        raise RuntimeError(f"data node error: {payload}")
