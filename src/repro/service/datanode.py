"""Data nodes: the shards that own partitions and execute operations.

A data node holds the *storage state machines* for every account,
sharded by partition key: the service nodes route each operation to the
DN that owns its partition (or broadcast namespace operations to all
DNs).  A shard runs the registry's operation bodies directly: prepare,
then apply (:meth:`~repro.pipeline.registry.OpSpec.apply`), with no
interceptor between them — a shard injects no faults and charges no
time, and the service node already ran the tenant's pipeline.  These
are the same bodies the DES and the emulator's threads run, so the
tiers cannot diverge semantically.

The SN->DN link is a plain call inside the event loop the nodes share:
``(account, client, op, args, kwargs)`` in, the result out — or the
exception: a :class:`~repro.storage.errors.StorageError` crosses as the
object the state machine raised, and any other failure (a missing shard,
a bug) as ``RuntimeError("data node error: ...")``.  The state machines
are the copy boundary: they copy any container they store, and return
what is immutable by contract (``Entity``, ``Content``, ``BlobSnapshot``)
or built for the call (``QueueMessage.snapshot()``, query pages), so an
R = 2 write hands both replicas one ``args`` and no live container is
shared.  It is a trusted, same-deployment link (like HSDS's internal DN
traffic), so fidelity lives at the *wire* tier, not here.

An exchange runs eagerly, in the caller's task: an op that does not
wait costs no task and no turn of the loop.  Only when the node itself
waits (a DN_SLOW stall) does the rest of the exchange continue as a
task of its own, while the caller waits for the reply on a future
parked on the node.  A caller whose deadline expires
thus abandons the call, not the op: the node finishes it and the reply
is dropped.

A :class:`DataNodeClient` holds its node: ``start()`` opens the node to
calls and ``stop()`` closes it, and the link checks that flag on every
call.  ``crash()`` kills a node the hard way, which is what the DN_CRASH
chaos fault and the failover tests use to model a crash-stop process
death: every caller parked on it fails at once with
``ConnectionResetError``, later calls are refused with
``ConnectionRefusedError``, and the crash instant is stamped on the
node's clock — the cluster's one clock, read from its event loop.

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
import types
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple, Union

from ..pipeline import OPERATIONS, OpCall
from ..storage import StorageAccountState
from ..storage.blob.state import PageBlobState
from ..storage.errors import StorageError
from ..storage.cache import CacheServiceState
from ..storage.clock import Clock, LoopClock
from ..storage.limits import LIMITS_2012
from ..storage.table.entity import Entity

__all__ = ["DataNode", "DataNodeClient"]


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

    def __init__(self, account: str, *, clock: Clock, limits=LIMITS_2012,
                 fifo_jitter_seed: Optional[int] = None) -> None:
        self.state = StorageAccountState(
            account, clock, limits, fifo_jitter_seed=fifo_jitter_seed)
        self.cache_state = CacheServiceState(clock)
        self.op_call = OpCall(
            self.state, self.cache_state,
            now_fn=clock.now, plan_fn=lambda: None)


class DataNode:
    """One shard server: per-account state, answering registry ops."""

    def __init__(self, index: int,
                 accounts: Union[Mapping[str, object], Iterable[str]], *,
                 limits=LIMITS_2012, clock: Optional[LoopClock] = None,
                 fifo_jitter_seed: Optional[int] = None) -> None:
        self.index = index
        #: Without one, the node reads the loop it starts on.
        self.clock = clock if clock is not None else LoopClock()
        if isinstance(accounts, Mapping):
            items = list(accounts.items())   # account -> its own limits
        else:
            items = [(account, limits) for account in accounts]
        self._shards: Dict[str, _Shard] = {
            account: _Shard(account, clock=self.clock, limits=acct_limits,
                            fifo_jitter_seed=fifo_jitter_seed)
            for account, acct_limits in items
        }
        #: Open to calls: ``start()`` sets it, ``stop()``/``crash()`` clear it.
        self.up = False
        #: When ``crash()`` ran, on the node's clock.
        self.crashed_at: Optional[float] = None
        #: Exchanges that waited and now run as tasks, and the reply
        #: futures their callers wait on.
        self._exchanges: Set[asyncio.Task] = set()
        self._parked: Set[asyncio.Future] = set()
        self.requests_served = 0
        #: Injected per-request service delay in seconds (DN_SLOW fault).
        self.slow_delay = 0.0

    # -- lifecycle ----------------------------------------------------------
    async def start(self,
                    host: str = "127.0.0.1") -> Tuple[str, "DataNode"]:
        """Open to calls, on the running loop's clock; returns what a
        :class:`DataNodeClient` takes (the node where a port would be)."""
        self.clock.bind(asyncio.get_running_loop())
        self.up = True
        return host, self

    async def stop(self) -> None:
        self.up = False

    def crash(self) -> None:
        """Crash-stop this node: refuse new calls, fail the parked ones.

        In-flight requests die with a transport error on the SN side,
        exactly like a process kill — no goodbye frames, no flushing.
        """
        self.up = False
        self.crashed_at = self.clock.now()
        for reply in self._parked:
            if not reply.done():
                reply.set_exception(ConnectionResetError(
                    f"data node {self.index} crashed mid-call"))

    # -- the exchange -------------------------------------------------------
    async def _park(self, exchange, waiting_on):
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

    async def _exchange(self, account: str, client: str, op: str,
                        args: tuple, kwargs: dict):
        """One request in, its result out; a failure raises."""
        self.requests_served += 1
        if op == "_ping":
            # Heartbeat: account-agnostic, answered before shard lookup.
            return {"node": self.index, "served": self.requests_served}
        if self.slow_delay > 0:
            # DN_SLOW fault: a sick-but-alive node (GC stall, bad disk).
            await asyncio.sleep(self.slow_delay)
        shard = self._shards.get(account)
        if shard is None:
            raise RuntimeError(
                f"data node error: data node {self.index} holds no shard "
                f"for account {account!r}")
        fabric = _FABRIC_OPS.get(op)
        try:
            if fabric is not None:
                result = fabric(shard, *args)
            else:
                result = _execute(shard, client, op, args, kwargs)
        except StorageError:
            raise
        except Exception as exc:
            raise RuntimeError(f"data node error: {type(exc).__name__}: "
                               f"{exc}") from exc
        if op.startswith("create_"):
            # create_* ops return live state objects (they carry
            # back-references and locks); the wire result is just "ok".
            return None
        return result


def _apply(spec, shard: _Shard, args: tuple, kwargs: dict):
    """Prepare, then apply: a shard runs no interceptors between them.

    A shard injects no faults: the chaos campaigns fail whole data nodes
    (DN_CRASH / DN_SLOW), never single ops.
    """
    body = spec.body(shard.op_call, *args, **kwargs)
    next(body)  # prepare: validation errors raise here
    return spec.apply(body)


def _execute(shard: _Shard, client: str, op: str,
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
        content = _apply(OPERATIONS[client]["get_page"], shard,
                         args, kwargs)
        container, blob = args[0], args[1]
        target = shard.state.blobs.get_container(container).get_blob(blob)
        return (content, target.max_size)
    spec = OPERATIONS[client].get(op)
    if spec is None:
        raise StorageError(f"unknown operation {client}.{op}")
    if spec.local:
        # Bookkeeping reads run inline: the event loop serializes.
        return spec.body(shard.op_call, *args, **kwargs)
    return _apply(spec, shard, args, kwargs)


# -- fabric (rebalancer) pseudo-ops -----------------------------------------
#
# These run inline on the event loop against the shard's state machines,
# bypassing the op pipeline: replica migration is fabric-internal traffic,
# not client traffic, so it must neither be throttled nor fault-injected.
# An export builds fresh containers and an import copies what it stores
# (Content objects are immutable), so no two replicas share one; imports
# are idempotent overwrites so a retried migration — or two rebalancers
# racing — converges instead of corrupting.


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
        blob._ranges = list(ranges)
        blob._written_bytes = written
        service._account_delta(written)
    else:
        _, committed, uncommitted, size, metadata, snapshots = payload
        blob = container.create_block_blob(blob_name)
        blob._committed = list(committed)
        blob._uncommitted = dict(uncommitted)
        blob._size = size
        service._account_delta(size)
    blob.metadata = dict(metadata)
    blob.snapshots = dict(snapshots)


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
    link holds its node, and a node that crashed or stopped refuses
    every call.
    """

    def __init__(self, host: str, node: DataNode) -> None:
        self.host = host
        self.node = node
        self._lock = asyncio.Lock()

    async def close(self) -> None:
        """Nothing to release: a link holds no connection."""

    async def call(self, account: str, client: str, op: str,
                   args: tuple, kwargs: dict):
        async with self._lock:
            node = self.node
            if not node.up:
                raise ConnectionRefusedError(
                    f"data node {node.index} on {self.host} is down")
            exchange = node._exchange(account, client, op, args, kwargs)
            try:
                waiting_on = exchange.send(None)
            except StopIteration as done:
                return done.value
            return await node._park(exchange, waiting_on)
