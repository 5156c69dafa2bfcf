"""The operation registry: the 2012 SDK surface, defined exactly once.

Every data-plane operation both backends expose (the bold API names in the
paper's Algorithms 1-5) is one *operation body*: a generator that

1. **prepares** — validates arguments and peeks whatever state the cost
   model needs (transfer sizes, existence), raising data-plane errors
   before any time is charged, exactly like a front-end rejecting a bad
   request;
2. **yields** the single :class:`~repro.cluster.ops.OpDescriptor` of the
   round trip — its host charges it (DES timing + interceptors on the
   sim backend, lock + interceptors on the emulator, nothing on a data
   node);
3. **applies** the state-machine change at the completion instant and
   returns the result (:meth:`OpSpec.apply` resumes it there).

Operations marked ``local=True`` are pure client-side bookkeeping (no
round trip, no charge); their body is a plain function.

The two client modules (:mod:`repro.sim.clients`,
:mod:`repro.emulator.clients`) derive their classes from this table via
:mod:`repro.pipeline.clients`, and the live tier's data nodes
(:mod:`repro.service.datanode`) run its bodies directly — there are no
hand-written per-op method bodies anywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from ..cluster.ops import OpDescriptor, OpKind, Service
from ..storage import Content, as_content
from ..storage.table import BatchOperation

__all__ = ["OpSpec", "OPERATIONS", "OpCall", "blob_partition", "props_bytes"]


@dataclass(frozen=True)
class OpSpec:
    """One registered operation: where it lives and how it runs."""

    #: Which client class exposes it: "blob" | "queue" | "table" | "cache".
    client: str
    #: Method name on the client class.
    name: str
    #: Generator body (prepare / yield descriptor / apply), or a plain
    #: function for ``local`` operations.
    body: Callable
    #: True for client-side bookkeeping reads that make no round trip.
    local: bool = False

    def apply(self, body):
        """Resume a prepared ``body`` into its apply step; its result."""
        try:
            body.send(None)
        except StopIteration as stop:
            return stop.value
        body.close()
        raise RuntimeError(
            f"operation body {self.name!r} yielded more than once")


#: The full registry, keyed by client kind then method name.
OPERATIONS: Dict[str, Dict[str, OpSpec]] = {
    "blob": {}, "queue": {}, "table": {}, "cache": {},
}


def _operation(client: str, *, local: bool = False,
               name: Optional[str] = None):
    def register(fn: Callable) -> Callable:
        method = name if name is not None else fn.__name__
        OPERATIONS[client][method] = OpSpec(client, method, fn, local=local)
        return fn
    return register


class OpCall:
    """What an operation body may touch: state machines + the fault plan.

    One per client (one per shard on a data node); every host hands it
    to every body.  ``now`` and the
    queue fault hooks use the *backend's* clock, so injected message loss
    and duplicate delivery fire on sim time and wall-clock time alike.
    """

    __slots__ = ("state", "cache_state", "_now_fn", "_plan_fn")

    def __init__(self, state, cache_state,
                 now_fn: Callable[[], float],
                 plan_fn: Callable[[], Optional[object]]) -> None:
        self.state = state
        self.cache_state = cache_state
        self._now_fn = now_fn
        self._plan_fn = plan_fn

    @property
    def now(self) -> float:
        return self._now_fn()

    def drop_message(self, queue: str) -> bool:
        """Injected message loss: ack the put but lose the payload?"""
        plan = self._plan_fn()
        return plan is not None and plan.drop_message(queue, self.now)

    def duplicate_delivery(self, queue: str) -> bool:
        """Injected at-least-once anomaly: leave the message visible?"""
        plan = self._plan_fn()
        return plan is not None and plan.duplicate_delivery(queue, self.now)


def blob_partition(container: str, blob: str) -> str:
    """"Blobs are partitioned based on container name + blob name."""
    return f"{container}/{blob}"


def props_bytes(properties: Mapping[str, Any]) -> int:
    """Wire size of an entity property bag (UTF-16 strings, 8-byte scalars)."""
    total = 0
    for value in properties.values():
        if isinstance(value, Content):
            total += value.size
        elif isinstance(value, bytes):
            total += len(value)
        elif isinstance(value, str):
            total += 2 * len(value)
        else:
            total += 8
    return total


# ---------------------------------------------------------------------------
# Blob service (paper Algorithm 1 API surface)
# ---------------------------------------------------------------------------

@_operation("blob")
def create_container(call, name: str):
    yield OpDescriptor(Service.BLOB, OpKind.CREATE_CONTAINER, partition=name)
    return call.state.blobs.create_container(name)


@_operation("blob")
def delete_container(call, name: str):
    yield OpDescriptor(Service.BLOB, OpKind.DELETE_CONTAINER, partition=name)
    call.state.blobs.delete_container(name)


@_operation("blob")
def put_block(call, container: str, blob: str, block_id: str, data):
    """``PutBlock``: stage one block (creates the blob if needed)."""
    content = as_content(data)
    yield OpDescriptor(
        Service.BLOB, OpKind.PUT_BLOCK,
        partition=blob_partition(container, blob), nbytes=content.size)
    c = call.state.blobs.get_container(container)
    if blob not in c:
        c.create_block_blob(blob)
    c.get_block_blob(blob).put_block(block_id, content)


@_operation("blob")
def put_block_list(call, container: str, blob: str,
                   block_ids: Sequence[str], *, merge: bool = False):
    """``PutBlockList``: commit the staged blocks in order.

    ``merge=True`` commits on top of the current committed list (the
    multi-writer discipline Algorithm 1 relies on, applied atomically at
    the completion instant).
    """
    yield OpDescriptor(
        Service.BLOB, OpKind.PUT_BLOCK_LIST,
        partition=blob_partition(container, blob),
        block_count=len(block_ids))
    c = call.state.blobs.get_container(container)
    c.get_block_blob(blob).put_block_list(block_ids, merge=merge)


@_operation("blob")
def upload_blob(call, container: str, blob: str, data):
    """Single-shot block blob upload (< 64 MB)."""
    content = as_content(data)
    yield OpDescriptor(
        Service.BLOB, OpKind.UPLOAD_BLOB,
        partition=blob_partition(container, blob), nbytes=content.size)
    c = call.state.blobs.get_container(container)
    if blob not in c:
        c.create_block_blob(blob)
    c.get_block_blob(blob).upload(content)


@_operation("blob")
def get_block(call, container: str, blob: str, index: int):
    """``GetBlock``: read one committed block sequentially."""
    blob_state = call.state.blobs.get_container(container).get_block_blob(blob)
    content = blob_state.get_block(index)
    yield OpDescriptor(
        Service.BLOB, OpKind.GET_BLOCK,
        partition=blob_partition(container, blob), nbytes=content.size)
    return content


@_operation("blob")
def download_block_blob(call, container: str, blob: str):
    """``DownloadText``: stream the whole committed blob."""
    blob_state = call.state.blobs.get_container(container).get_block_blob(blob)
    yield OpDescriptor(
        Service.BLOB, OpKind.DOWNLOAD_BLOB,
        partition=blob_partition(container, blob), nbytes=blob_state.size)
    return blob_state.download()


@_operation("blob", local=True)
def block_count(call, container: str, blob: str) -> int:
    """Committed block count (no round trip: local bookkeeping)."""
    return call.state.blobs.get_container(container) \
        .get_block_blob(blob).block_count


@_operation("blob", local=True)
def list_blobs(call, container: str, prefix: str = ""):
    """Blob names under a container (local bookkeeping read)."""
    return call.state.blobs.get_container(container).list_blobs(prefix)


@_operation("blob")
def create_page_blob(call, container: str, blob: str, max_size: int):
    yield OpDescriptor(
        Service.BLOB, OpKind.CREATE_CONTAINER,  # metadata-cost op
        partition=blob_partition(container, blob))
    c = call.state.blobs.get_container(container)
    return c.create_page_blob(blob, max_size)


@_operation("blob")
def put_page(call, container: str, blob: str, offset: int, data):
    """``PutPage``: random write at a 512-aligned offset."""
    content = as_content(data)
    yield OpDescriptor(
        Service.BLOB, OpKind.PUT_PAGE,
        partition=blob_partition(container, blob), nbytes=content.size)
    c = call.state.blobs.get_container(container)
    c.get_page_blob(blob).put_pages(offset, content)


@_operation("blob")
def get_page(call, container: str, blob: str, offset: int, length: int):
    """``GetPage``: random read of an aligned range (pays seek cost)."""
    yield OpDescriptor(
        Service.BLOB, OpKind.GET_PAGE,
        partition=blob_partition(container, blob), nbytes=length)
    blob_state = call.state.blobs.get_container(container).get_page_blob(blob)
    return blob_state.read(offset, length)


@_operation("blob")
def download_page_blob(call, container: str, blob: str, *,
                       written_only: bool = True):
    """``openRead()``-style streaming download of a page blob.

    ``written_only`` charges only written ranges (the service does not
    ship unwritten zero pages over the wire).
    """
    blob_state = call.state.blobs.get_container(container).get_page_blob(blob)
    nbytes = blob_state.written_bytes if written_only else blob_state.size
    yield OpDescriptor(
        Service.BLOB, OpKind.DOWNLOAD_BLOB,
        partition=blob_partition(container, blob), nbytes=nbytes)
    return blob_state.read_all()


@_operation("blob")
def delete_blob(call, container: str, blob: str, *,
                lease_id=None, delete_snapshots: bool = False):
    yield OpDescriptor(
        Service.BLOB, OpKind.DELETE_BLOB,
        partition=blob_partition(container, blob))
    call.state.blobs.get_container(container).delete_blob(
        blob, lease_id=lease_id, delete_snapshots=delete_snapshots)


@_operation("blob")
def acquire_lease(call, container: str, blob: str):
    """Take the blob's one-minute exclusive write lease."""
    yield OpDescriptor(
        Service.BLOB, OpKind.CREATE_CONTAINER,  # metadata-cost round trip
        partition=blob_partition(container, blob))
    return call.state.blobs.get_container(container) \
        .get_blob(blob).acquire_lease()


@_operation("blob")
def renew_lease(call, container: str, blob: str, lease_id: str):
    yield OpDescriptor(
        Service.BLOB, OpKind.CREATE_CONTAINER,
        partition=blob_partition(container, blob))
    call.state.blobs.get_container(container) \
        .get_blob(blob).renew_lease(lease_id)


@_operation("blob")
def release_lease(call, container: str, blob: str, lease_id: str):
    yield OpDescriptor(
        Service.BLOB, OpKind.CREATE_CONTAINER,
        partition=blob_partition(container, blob))
    call.state.blobs.get_container(container) \
        .get_blob(blob).release_lease(lease_id)


@_operation("blob")
def snapshot_blob(call, container: str, blob: str):
    """Take an immutable point-in-time snapshot."""
    yield OpDescriptor(
        Service.BLOB, OpKind.CREATE_CONTAINER,
        partition=blob_partition(container, blob))
    return call.state.blobs.get_container(container).get_blob(blob).snapshot()


@_operation("blob")
def download_snapshot(call, container: str, blob: str, snapshot_id: str):
    blob_state = call.state.blobs.get_container(container).get_blob(blob)
    snap = blob_state.get_snapshot(snapshot_id)
    yield OpDescriptor(
        Service.BLOB, OpKind.DOWNLOAD_BLOB,
        partition=blob_partition(container, blob), nbytes=snap.size)
    return snap.download()


# ---------------------------------------------------------------------------
# Queue service (paper Algorithms 2-4 API surface)
# ---------------------------------------------------------------------------

@_operation("queue")
def create_queue(call, name: str):
    yield OpDescriptor(Service.QUEUE, OpKind.CREATE_QUEUE, partition=name)
    return call.state.queues.create_queue(name)


@_operation("queue")
def delete_queue(call, name: str):
    yield OpDescriptor(Service.QUEUE, OpKind.DELETE_QUEUE, partition=name)
    call.state.queues.delete_queue(name)


@_operation("queue")
def put_message(call, queue: str, data, *, ttl: Optional[float] = None,
                visibility_delay: float = 0.0):
    """``PutMessage``."""
    content = as_content(data)
    yield OpDescriptor(
        Service.QUEUE, OpKind.PUT_MESSAGE, partition=queue,
        nbytes=content.size)
    if call.drop_message(queue):
        # Injected message loss: the service acked the put but the
        # payload never landed (lost replica write).
        call.state.queues.get_queue(queue)  # still 404s if missing
        return None
    return call.state.queues.get_queue(queue).put_message(
        content, ttl=ttl, visibility_delay=visibility_delay)


@_operation("queue")
def get_message(call, queue: str, *,
                visibility_timeout: Optional[float] = None):
    """``GetMessage``: returns a message or ``None``."""
    nbytes = call.state.queues.get_queue(queue).next_visible_size()
    yield OpDescriptor(
        Service.QUEUE, OpKind.GET_MESSAGE, partition=queue, nbytes=nbytes)
    msg = call.state.queues.get_queue(queue).get_message(
        visibility_timeout=visibility_timeout)
    if msg is not None and call.duplicate_delivery(queue):
        # Injected duplicate delivery: the message stays visible, so
        # another consumer receives it too (at-least-once anomaly).
        call.state.queues.get_queue(queue).make_visible(msg.message_id)
    return msg


@_operation("queue")
def get_messages(call, queue: str, n: int = 1, *,
                 visibility_timeout: Optional[float] = None):
    """Batch ``GetMessages``: up to 32 messages in one round trip."""
    if not 1 <= n <= 32:
        raise ValueError("n must be in 1..32 (2012 API limit)")
    q = call.state.queues.get_queue(queue)
    visible = q.peek_messages(n)
    nbytes = sum(m.size for m in visible)
    yield OpDescriptor(
        Service.QUEUE, OpKind.GET_MESSAGE, partition=queue,
        nbytes=nbytes, units=max(1, len(visible)))
    got = q.get_messages(n, visibility_timeout=visibility_timeout)
    for m in got:
        if call.duplicate_delivery(queue):
            q.make_visible(m.message_id)
    return got


@_operation("queue")
def peek_message(call, queue: str):
    """``PeekMessage``: non-destructive read, or ``None``."""
    nbytes = call.state.queues.get_queue(queue).next_visible_size()
    yield OpDescriptor(
        Service.QUEUE, OpKind.PEEK_MESSAGE, partition=queue, nbytes=nbytes)
    return call.state.queues.get_queue(queue).peek_message()


@_operation("queue")
def delete_message(call, queue: str, message_id: str, pop_receipt: str):
    """``DeleteMessage``."""
    yield OpDescriptor(
        Service.QUEUE, OpKind.DELETE_MESSAGE, partition=queue)
    call.state.queues.get_queue(queue).delete_message(message_id, pop_receipt)


@_operation("queue")
def update_message(call, queue: str, message_id: str, pop_receipt: str,
                   data=None, *, visibility_timeout: float = 0.0):
    content = as_content(data) if data is not None else None
    yield OpDescriptor(
        Service.QUEUE, OpKind.UPDATE_MESSAGE, partition=queue,
        nbytes=content.size if content is not None else 0)
    return call.state.queues.get_queue(queue).update_message(
        message_id, pop_receipt, content,
        visibility_timeout=visibility_timeout)


@_operation("queue")
def get_message_count(call, queue: str):
    """``GetMsgCount``: the approximate count Algorithm 2 polls."""
    yield OpDescriptor(
        Service.QUEUE, OpKind.GET_MESSAGE_COUNT, partition=queue)
    return call.state.queues.get_queue(queue).approximate_message_count()


@_operation("queue", local=True)
def list_queues(call, prefix: str = ""):
    """Queue names under the account (local bookkeeping read)."""
    return call.state.queues.list_queues(prefix)


# ---------------------------------------------------------------------------
# Table service (paper Algorithm 5 API surface)
# ---------------------------------------------------------------------------

@_operation("table")
def create_table(call, name: str):
    yield OpDescriptor(Service.TABLE, OpKind.CREATE_TABLE, partition=name)
    return call.state.tables.create_table(name)


@_operation("table")
def delete_table(call, name: str):
    yield OpDescriptor(Service.TABLE, OpKind.DELETE_TABLE, partition=name)
    call.state.tables.delete_table(name)


@_operation("table")
def insert(call, table: str, partition_key: str, row_key: str,
           properties: Mapping[str, Any]):
    """``AddRow``: insert a new entity."""
    yield OpDescriptor(
        Service.TABLE, OpKind.INSERT_ENTITY, partition=partition_key,
        nbytes=props_bytes(properties))
    return call.state.tables.get_table(table).insert(
        partition_key, row_key, properties)


@_operation("table")
def get(call, table: str, partition_key: str, row_key: str):
    """``Query`` (point lookup by full key)."""
    t = call.state.tables.get_table(table)
    existing = t.try_get(partition_key, row_key)
    nbytes = existing.size if existing is not None else 0
    yield OpDescriptor(
        Service.TABLE, OpKind.QUERY_ENTITY, partition=partition_key,
        nbytes=nbytes)
    return t.get(partition_key, row_key)


@_operation("table")
def query_partition(call, table: str, partition_key: str,
                    filter=None, *, select=None):
    """Range query over one partition (optionally ``$select``-ed)."""
    t = call.state.tables.get_table(table)
    entities = t.query_partition(partition_key, filter, select=select)
    nbytes = sum(e.size for e in entities)
    yield OpDescriptor(
        Service.TABLE, OpKind.QUERY_ENTITY, partition=partition_key,
        nbytes=nbytes, units=max(1, len(entities)))
    return entities


@_operation("table")
def query(call, table: str, filter=None, *, top: Optional[int] = None,
          continuation=None, select=None):
    """Cross-partition scan with paging (OData ``$top``/continuation)."""
    t = call.state.tables.get_table(table)
    result = t.query(filter, top=top, continuation=continuation,
                     select=select)
    nbytes = sum(e.size for e in result.entities)
    # Spans partitions: charged against the table's own range, like the
    # real service's table-server scan coordinator.
    yield OpDescriptor(
        Service.TABLE, OpKind.QUERY_ENTITY, partition=table,
        nbytes=nbytes, units=max(1, len(result.entities)))
    return result


@_operation("table")
def update(call, table: str, partition_key: str, row_key: str,
           properties: Mapping[str, Any], *, etag: Optional[str] = "*"):
    """``Update``: replace the property bag (wildcard ETag by default)."""
    yield OpDescriptor(
        Service.TABLE, OpKind.UPDATE_ENTITY, partition=partition_key,
        nbytes=props_bytes(properties))
    return call.state.tables.get_table(table).update(
        partition_key, row_key, properties, etag=etag)


@_operation("table")
def merge(call, table: str, partition_key: str, row_key: str,
          properties: Mapping[str, Any], *, etag: Optional[str] = "*"):
    yield OpDescriptor(
        Service.TABLE, OpKind.MERGE_ENTITY, partition=partition_key,
        nbytes=props_bytes(properties))
    return call.state.tables.get_table(table).merge(
        partition_key, row_key, properties, etag=etag)


@_operation("table")
def insert_or_replace(call, table: str, partition_key: str, row_key: str,
                      properties: Mapping[str, Any]):
    """Upsert, replacing the property bag if the entity exists."""
    yield OpDescriptor(
        Service.TABLE, OpKind.UPDATE_ENTITY, partition=partition_key,
        nbytes=props_bytes(properties))
    return call.state.tables.get_table(table).insert_or_replace(
        partition_key, row_key, properties)


@_operation("table")
def insert_or_merge(call, table: str, partition_key: str, row_key: str,
                    properties: Mapping[str, Any]):
    """Upsert, merging into the property bag if the entity exists."""
    yield OpDescriptor(
        Service.TABLE, OpKind.MERGE_ENTITY, partition=partition_key,
        nbytes=props_bytes(properties))
    return call.state.tables.get_table(table).insert_or_merge(
        partition_key, row_key, properties)


@_operation("table")
def delete(call, table: str, partition_key: str, row_key: str, *,
           etag: Optional[str] = "*"):
    """``Delete``."""
    t = call.state.tables.get_table(table)
    existing = t.try_get(partition_key, row_key)
    nbytes = existing.size if existing is not None else 0
    yield OpDescriptor(
        Service.TABLE, OpKind.DELETE_ENTITY, partition=partition_key,
        nbytes=nbytes)
    t.delete(partition_key, row_key, etag=etag)


@_operation("table")
def execute_batch(call, table: str, operations: Sequence[BatchOperation]):
    """Entity-group transaction: one round trip, atomic."""
    ops = list(operations)
    nbytes = sum(props_bytes(op.properties or {}) for op in ops)
    partition = ops[0].partition_key if ops else table
    yield OpDescriptor(
        Service.TABLE, OpKind.BATCH, partition=partition,
        nbytes=nbytes, units=max(1, len(ops)))
    return call.state.tables.get_table(table).execute_batch(ops)


# ---------------------------------------------------------------------------
# Caching service (paper II.B; the paper's future-work item)
# ---------------------------------------------------------------------------

@_operation("cache")
def create_cache(call, name: str, *, capacity_bytes: int = None,
                 default_ttl: float = None):
    yield OpDescriptor(Service.CACHE, OpKind.CREATE_CACHE, partition=name)
    kwargs = {}
    if capacity_bytes is not None:
        kwargs["capacity_bytes"] = capacity_bytes
    if default_ttl is not None:
        kwargs["default_ttl"] = default_ttl
    return call.cache_state.create_cache(name, **kwargs)


@_operation("cache")
def put(call, cache: str, key: str, value, *, ttl: float = None,
        sliding: bool = False):
    content = as_content(value)
    yield OpDescriptor(
        Service.CACHE, OpKind.CACHE_PUT, partition=cache,
        nbytes=content.size)
    return call.cache_state.get_cache(cache).put(
        key, content, ttl=ttl, sliding=sliding)


@_operation("cache", name="get")
def cache_get(call, cache: str, key: str):
    """Returns the cached Content or None on miss."""
    c = call.cache_state.get_cache(cache)
    # The transfer size of a hit is known server-side; peek it for the
    # cost model without disturbing LRU order or statistics.
    nbytes = 0
    if c.contains(key):
        nbytes = c._items[key].size
    yield OpDescriptor(
        Service.CACHE, OpKind.CACHE_GET, partition=cache, nbytes=nbytes)
    item = c.get(key)
    return item.value if item is not None else None


@_operation("cache")
def remove(call, cache: str, key: str):
    yield OpDescriptor(Service.CACHE, OpKind.CACHE_REMOVE, partition=cache)
    return call.cache_state.get_cache(cache).remove(key)
