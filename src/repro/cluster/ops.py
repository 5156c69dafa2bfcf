"""Operation descriptors: what the simulated clients ask the fabric to do."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["Service", "OpKind", "OpDescriptor", "WRITE_KINDS",
           "QUEUE_MESSAGE_KINDS", "TABLE_ENTITY_KINDS"]


class Service(str, Enum):
    BLOB = "blob"
    QUEUE = "queue"
    TABLE = "table"
    CACHE = "cache"


class OpKind(str, Enum):
    """Storage operations with distinct cost models."""

    # blob
    PUT_PAGE = "put_page"
    PUT_BLOCK = "put_block"
    PUT_BLOCK_LIST = "put_block_list"
    UPLOAD_BLOB = "upload_blob"
    GET_PAGE = "get_page"              # random page read (seek overhead)
    GET_BLOCK = "get_block"            # sequential block read (lookup overhead)
    DOWNLOAD_BLOB = "download_blob"    # whole-blob streaming read
    DELETE_BLOB = "delete_blob"
    CREATE_CONTAINER = "create_container"
    DELETE_CONTAINER = "delete_container"
    # queue
    PUT_MESSAGE = "put_message"
    GET_MESSAGE = "get_message"
    PEEK_MESSAGE = "peek_message"
    DELETE_MESSAGE = "delete_message"
    UPDATE_MESSAGE = "update_message"
    GET_MESSAGE_COUNT = "get_message_count"
    CREATE_QUEUE = "create_queue"
    DELETE_QUEUE = "delete_queue"
    # table
    INSERT_ENTITY = "insert_entity"
    QUERY_ENTITY = "query_entity"
    UPDATE_ENTITY = "update_entity"
    MERGE_ENTITY = "merge_entity"
    DELETE_ENTITY = "delete_entity"
    BATCH = "batch"
    CREATE_TABLE = "create_table"
    DELETE_TABLE = "delete_table"
    # cache (AppFabric caching service; paper II.B / future work)
    CACHE_GET = "cache_get"
    CACHE_PUT = "cache_put"
    CACHE_REMOVE = "cache_remove"
    CREATE_CACHE = "create_cache"


#: Kinds that mutate state (and hence pay replication costs / count as
#: writes for bandwidth accounting).
WRITE_KINDS = frozenset({
    OpKind.PUT_PAGE, OpKind.PUT_BLOCK, OpKind.PUT_BLOCK_LIST,
    OpKind.UPLOAD_BLOB, OpKind.DELETE_BLOB, OpKind.CREATE_CONTAINER,
    OpKind.DELETE_CONTAINER, OpKind.PUT_MESSAGE, OpKind.DELETE_MESSAGE,
    OpKind.UPDATE_MESSAGE, OpKind.CREATE_QUEUE, OpKind.DELETE_QUEUE,
    OpKind.INSERT_ENTITY, OpKind.UPDATE_ENTITY, OpKind.MERGE_ENTITY,
    OpKind.DELETE_ENTITY, OpKind.BATCH, OpKind.CREATE_TABLE,
    OpKind.DELETE_TABLE, OpKind.CACHE_PUT, OpKind.CACHE_REMOVE,
    OpKind.CREATE_CACHE,
})

#: Kinds counted against the per-queue messages-per-second target.
QUEUE_MESSAGE_KINDS = frozenset({
    OpKind.PUT_MESSAGE, OpKind.GET_MESSAGE, OpKind.PEEK_MESSAGE,
    OpKind.DELETE_MESSAGE, OpKind.UPDATE_MESSAGE,
})

#: Kinds counted against the per-partition entities-per-second target.
TABLE_ENTITY_KINDS = frozenset({
    OpKind.INSERT_ENTITY, OpKind.QUERY_ENTITY, OpKind.UPDATE_ENTITY,
    OpKind.MERGE_ENTITY, OpKind.DELETE_ENTITY, OpKind.BATCH,
})


@dataclass(frozen=True)
class OpDescriptor:
    """One storage request as seen by the fabric's cost model.

    ``partition`` selects the partition server (container+blob name for
    blobs, queue name for queues, PartitionKey for tables — paper IV.A-C);
    ``nbytes`` is the payload moved; ``units`` is the number of
    entities/messages/blobs the op counts as against per-second targets.
    """

    service: Service
    kind: OpKind
    partition: str
    nbytes: int = 0
    units: int = 1
    #: PutBlockList: number of blocks committed (bookkeeping cost term).
    block_count: int = 0

    @property
    def is_write(self) -> bool:
        return self.kind in WRITE_KINDS
