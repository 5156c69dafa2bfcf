"""The Azurite-compatible wire subset: request/response codecs.

One module owns both directions of the wire so they cannot drift:

* **server side** — :func:`decode_request` turns a parsed
  :class:`~repro.service.httpd.HttpRequest` into a :class:`DecodedOp`:
  the registry operation to run, its routing (single shard, broadcast,
  or fan-out+merge), the admission-time
  :class:`~repro.cluster.ops.OpDescriptor` the service node's tenant
  pipeline charges, and the closure that encodes the Python result back
  into an HTTP response;
* **client side** — :data:`ENCODERS` maps each ``(client, op)`` of the
  registry surface to a builder producing the HTTP exchange for that
  call, plus the parser that reconstructs the op's normal Python return
  value from the response.  :class:`repro.backend.ServiceBackend`
  derives its client classes from these encoders.

The subset follows the 2012-era REST API as Azurite models it (XML
error and message bodies, OData-style entity JSON, ``x-ms-*`` headers);
where our state machines carry more precision than the wire (float
timestamps, virtual content), extension elements/headers prefixed
``x-ms-repro-`` carry the extra bits without disturbing real SDKs.
Entity-group batches use a JSON extension body instead of MIME
multipart, the one deliberate departure.
"""

from __future__ import annotations

import base64
import email.utils
import functools
import json
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple
from xml.sax.saxutils import escape

from ..cluster.ops import OpDescriptor, OpKind, Service
from ..storage import errors as storage_errors
from ..storage.content import BytesContent, Content, as_content
from ..storage.errors import (
    BatchError,
    InvalidOperationError,
    ResourceNotFoundError,
    StorageError,
)
from ..storage.queue.state import QueueMessage
from ..storage.table.entity import Entity
from ..storage.table.state import BatchOperation, QueryResult
from .httpd import HttpRequest, HttpResponse

__all__ = [
    "WIRE_VERSION",
    "DecodedOp",
    "WireCall",
    "ENCODERS",
    "UnsupportedVersionError",
    "UnknownResourceError",
    "decode_request",
    "error_to_response",
    "response_to_error",
    "error_to_payload",
    "payload_to_error",
]

#: The x-ms-version this tier speaks (the paper's era).
WIRE_VERSION = "2012-02-12"

_EXT = "x-ms-repro-"  # prefix for precision-extension headers/elements
_XML_DECL = '<?xml version="1.0" encoding="utf-8"?>'


class UnsupportedVersionError(StorageError):
    """The request's ``x-ms-version`` names an API we do not speak.

    The real service answers with 400 ``InvalidHeaderValue`` and a
    proper XML error body; so do we (a bare 400 breaks SDK error
    decoding, which looks for ``x-ms-error-code``).
    """

    status_code = 400
    error_code = "InvalidHeaderValue"


class UnknownResourceError(StorageError):
    """The request URI does not name a resource of this wire subset.

    ``InvalidUri`` rather than ``InvalidInput``: the latter is claimed
    by :class:`~repro.storage.errors.BatchError` in the decode map, so a
    client would rebuild the wrong exception type.
    """

    status_code = 400
    error_code = "InvalidUri"


# ---------------------------------------------------------------------------
# Error codec
# ---------------------------------------------------------------------------

def _build_error_map() -> Dict[str, type]:
    mapping: Dict[str, type] = {}
    for name in storage_errors.__all__:
        obj = getattr(storage_errors, name)
        if isinstance(obj, type) and issubclass(obj, StorageError):
            mapping.setdefault(obj.error_code, obj)
    # The base class claims "InternalError" first, but over the wire a 500
    # InternalError is the fault engine's retryable transient — decode to
    # the class the SDK retry policies recognise.
    mapping["InternalError"] = storage_errors.TransientServerError
    return mapping


_CODE_TO_ERROR = _build_error_map()


def error_to_response(exc: StorageError, *, table: bool = False,
                      request_id: str = "") -> HttpResponse:
    """Encode a storage error the way the 2012 service (and Azurite) did."""
    message = str(exc)
    headers: List[Tuple[str, str]] = [
        ("x-ms-error-code", exc.error_code),
        ("x-ms-request-id", request_id),
        ("x-ms-version", WIRE_VERSION),
    ]
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        headers.append(("Retry-After", f"{retry_after:g}"))
    if isinstance(exc, BatchError):
        headers.append((f"{_EXT}batch-index", str(exc.index)))
        headers.append((f"{_EXT}batch-cause", exc.cause.error_code))
    if table:
        body = json.dumps({
            "odata.error": {
                "code": exc.error_code,
                "message": {"lang": "en-US", "value": message},
            }
        }).encode("utf-8")
        headers.append(
            ("Content-Type", "application/json;odata=minimalmetadata"))
    else:
        root = ET.Element("Error")
        ET.SubElement(root, "Code").text = exc.error_code
        ET.SubElement(root, "Message").text = message
        body = _xml_body(root)
        headers.append(("Content-Type", "application/xml"))
    return HttpResponse(exc.status_code, headers, body)


def _instantiate_error(code: str, message: str, *, status: int = 500,
                       retry_after: Optional[float] = None,
                       batch_index: Optional[int] = None,
                       batch_cause: Optional[str] = None) -> StorageError:
    """Rebuild the concrete StorageError a peer encoded."""
    cls = _CODE_TO_ERROR.get(code)
    if cls is None:
        exc = StorageError(message or f"HTTP {status}")
        exc.status_code = status  # instance-level override of the class attr
        exc.error_code = code or "InternalError"
        return exc
    if batch_index is not None and cls is not BatchError:
        cls = BatchError
    if cls is BatchError:
        cause_cls = _CODE_TO_ERROR.get(batch_cause or "", StorageError)
        return BatchError(message, index=batch_index if batch_index
                          is not None else -1, cause=cause_cls(message))
    if issubclass(cls, storage_errors.RETRYABLE_ERRORS):
        return cls(message, retry_after=(
            retry_after if retry_after is not None else 1.0))
    return cls(message)


def error_to_payload(exc: StorageError) -> Dict[str, Any]:
    """Structured form of a StorageError for the internal SN<->DN frames."""
    doc: Dict[str, Any] = {
        "code": exc.error_code, "status": exc.status_code,
        "message": str(exc),
    }
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        doc["retry_after"] = retry_after
    if isinstance(exc, BatchError):
        doc["batch_index"] = exc.index
        doc["batch_cause"] = exc.cause.error_code
    return doc


def payload_to_error(doc: Mapping[str, Any]) -> StorageError:
    return _instantiate_error(
        doc.get("code", ""), doc.get("message", ""),
        status=int(doc.get("status", 500)),
        retry_after=doc.get("retry_after"),
        batch_index=doc.get("batch_index"),
        batch_cause=doc.get("batch_cause"))


def response_to_error(status: int, headers: Mapping[str, str],
                      body: bytes, *, table: bool = False) -> StorageError:
    """Reconstruct the StorageError a >=400 response encodes."""
    code = headers.get("x-ms-error-code", "")
    message = ""
    try:
        if table:
            doc = json.loads(body.decode("utf-8"))["odata.error"]
            code = code or doc.get("code", "")
            message = doc.get("message", {}).get("value", "")
        elif body:
            root = ET.fromstring(body.decode("utf-8"))
            code = code or (root.findtext("Code") or "")
            message = root.findtext("Message") or ""
    except (ValueError, KeyError, ET.ParseError):
        pass
    batch_index = None
    if f"{_EXT}batch-index" in headers:
        batch_index = int(headers[f"{_EXT}batch-index"])
    retry_after = None
    if "Retry-After" in headers or "retry-after" in headers:
        retry_after = float(
            headers.get("Retry-After", headers.get("retry-after", "1")))
    return _instantiate_error(
        code, message, status=status, retry_after=retry_after,
        batch_index=batch_index,
        batch_cause=headers.get(f"{_EXT}batch-cause"))


# ---------------------------------------------------------------------------
# Small shared helpers
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _date_of_second(second: int) -> str:
    return email.utils.formatdate(second, usegmt=True)


def _http_date(epoch: float) -> str:
    """RFC 1123 date; formatted once per distinct second, not per call.

    ``formatdate`` shows the second ``datetime.fromtimestamp`` lands on,
    which rounds half-even to a microsecond before dropping the fraction.
    """
    fraction, whole = math.modf(epoch)
    micros = round(fraction * 1e6)
    return _date_of_second(
        int(whole) + (micros >= 1000000) - (micros < 0))


def _xml_body(root: ET.Element) -> bytes:
    return (_XML_DECL + ET.tostring(root, encoding="unicode")).encode("utf-8")


def _content_bytes(data: Any) -> bytes:
    return as_content(data).to_bytes()


def _parse_range(req: HttpRequest) -> Optional[Tuple[int, int]]:
    """``bytes=a-b`` (inclusive) -> ``(offset, length)``."""
    raw = req.header("x-ms-range") or req.header("range")
    if not raw:
        return None
    match = re.fullmatch(r"bytes=(\d+)-(\d+)", raw.strip())
    if not match:
        raise InvalidOperationError(f"unsupported Range {raw!r}")
    start, end = int(match.group(1)), int(match.group(2))
    if end < start:
        raise InvalidOperationError(f"inverted Range {raw!r}")
    return start, end - start + 1


def _names_xml(kind: str, names: List[str]) -> bytes:
    """``<EnumerationResults><Blobs><Blob><Name>..`` style listings."""
    root = ET.Element("EnumerationResults")
    box = ET.SubElement(root, kind + "s")
    for name in names:
        ET.SubElement(ET.SubElement(box, kind), "Name").text = name
    return _xml_body(root)


def _parse_names_xml(kind: str, body: bytes) -> List[str]:
    root = ET.fromstring(body.decode("utf-8"))
    return [el.findtext("Name") or ""
            for el in root.iter(kind)]


# ---------------------------------------------------------------------------
# Queue message codec
# ---------------------------------------------------------------------------

def _el(tag: str, text: str) -> str:
    """One text element, exactly as ElementTree serialises it."""
    return f"<{tag}>{escape(text)}</{tag}>" if text else f"<{tag} />"


def _message_xml(msg: QueueMessage, peeked: bool) -> str:
    # Dates, counts, reprs of floats and base64 never need escaping.
    checkout = ""  # what a peek does not show
    if not peeked:
        if msg.pop_receipt is not None:
            checkout = _el("PopReceipt", msg.pop_receipt)
        checkout += (f"<TimeNextVisible>{_http_date(msg.next_visible_time)}"
                     f"</TimeNextVisible>")
    text = base64.b64encode(msg.content.to_bytes()).decode("ascii")
    return (
        f"<QueueMessage>{_el('MessageId', msg.message_id)}"
        f"<InsertionTime>{_http_date(msg.insertion_time)}</InsertionTime>"
        f"<ExpirationTime>{_http_date(msg.expiration_time)}</ExpirationTime>"
        f"<DequeueCount>{msg.dequeue_count}</DequeueCount>{checkout}"
        f"{_el('MessageText', text)}"
        # Float-precision epochs the RFC-1123 dates above cannot carry.
        f"<InsertionTimeEpoch>{msg.insertion_time!r}</InsertionTimeEpoch>"
        f"<ExpirationTimeEpoch>{msg.expiration_time!r}</ExpirationTimeEpoch>"
        f"<TimeNextVisibleEpoch>{msg.next_visible_time!r}"
        f"</TimeNextVisibleEpoch></QueueMessage>")


def _messages_xml(messages: List[QueueMessage], *,
                  peeked: bool = False) -> bytes:
    """The message list, from a template: no element tree per message."""
    inner = "".join(_message_xml(msg, peeked) for msg in messages)
    root = (f"<QueueMessagesList>{inner}</QueueMessagesList>" if inner
            else "<QueueMessagesList />")
    return (_XML_DECL + root).encode("utf-8")


def _epoch_from(el: ET.Element, ext: str, rfc: str) -> float:
    raw = el.findtext(ext)
    if raw is not None:
        return float(raw)
    date = el.findtext(rfc)
    if not date:
        return 0.0
    return email.utils.parsedate_to_datetime(date).timestamp()


def _parse_messages_xml(body: bytes) -> List[QueueMessage]:
    root = ET.fromstring(body.decode("utf-8"))
    out: List[QueueMessage] = []
    for el in root.iter("QueueMessage"):
        text = el.findtext("MessageText") or ""
        out.append(QueueMessage(
            message_id=el.findtext("MessageId") or "",
            content=BytesContent(base64.b64decode(text)),
            insertion_time=_epoch_from(
                el, "InsertionTimeEpoch", "InsertionTime"),
            expiration_time=_epoch_from(
                el, "ExpirationTimeEpoch", "ExpirationTime"),
            next_visible_time=_epoch_from(
                el, "TimeNextVisibleEpoch", "TimeNextVisible"),
            dequeue_count=int(el.findtext("DequeueCount") or "0"),
            pop_receipt=el.findtext("PopReceipt"),
        ))
    return out


# ---------------------------------------------------------------------------
# Entity JSON codec (OData minimal-metadata style)
# ---------------------------------------------------------------------------

_SYSTEM_KEYS = {"PartitionKey", "RowKey", "Timestamp", "odata.etag"}


def encode_properties(properties: Mapping[str, Any]) -> Dict[str, Any]:
    doc: Dict[str, Any] = {}
    for name, value in properties.items():
        if isinstance(value, (bytes, Content)):
            raw = value if isinstance(value, bytes) else value.to_bytes()
            doc[name] = base64.b64encode(raw).decode("ascii")
            doc[f"{name}@odata.type"] = "Edm.Binary"
        else:
            doc[name] = value
    return doc


def decode_properties(doc: Mapping[str, Any]) -> Dict[str, Any]:
    props: Dict[str, Any] = {}
    for name, value in doc.items():
        if name in _SYSTEM_KEYS or "@odata.type" in name:
            continue
        kind = doc.get(f"{name}@odata.type")
        if kind == "Edm.Binary":
            value = base64.b64decode(value)
        elif kind == "Edm.Int64":
            value = int(value)
        elif kind == "Edm.Double":
            value = float(value)
        props[name] = value
    return props


def encode_entity(entity: Entity) -> Dict[str, Any]:
    doc = {
        "odata.etag": entity.etag,
        "PartitionKey": entity.partition_key,
        "RowKey": entity.row_key,
        "Timestamp": entity.timestamp,
    }
    doc.update(encode_properties(entity.properties()))
    return doc


def decode_entity(doc: Mapping[str, Any]) -> Entity:
    return Entity(
        doc["PartitionKey"], doc["RowKey"], decode_properties(doc),
        etag=doc.get("odata.etag", ""),
        timestamp=float(doc.get("Timestamp", 0.0)),
    )


def _json_response(status: int, payload: Any,
                   headers: Optional[List[Tuple[str, str]]] = None
                   ) -> HttpResponse:
    hdrs = list(headers or [])
    hdrs.append(("Content-Type", "application/json;odata=minimalmetadata"))
    return HttpResponse(status, hdrs,
                        json.dumps(payload).encode("utf-8"))


def _odata_quote(value: str) -> str:
    return value.replace("'", "''")


def _odata_unquote(value: str) -> str:
    return value.replace("''", "'")


#: ``/table(PartitionKey='pk',RowKey='rk')`` — quotes may contain ``''``.
_ENTITY_PATH = re.compile(
    r"^([^(]+)\(PartitionKey='((?:[^']|'')*)',RowKey='((?:[^']|'')*)'\)$")

#: ``PartitionKey eq 'pk'`` optionally ``and (<inner filter>)``.
_PARTITION_FILTER = re.compile(
    r"^PartitionKey eq '((?:[^']|'')*)'(?: and \((.*)\))?$")


# ---------------------------------------------------------------------------
# The decoded server-side operation
# ---------------------------------------------------------------------------

@dataclass
class DecodedOp:
    """One wire request resolved to a registry operation + routing."""

    client: str                      # registry client kind
    op: str                          # method name ("_download" = by-type)
    args: tuple
    kwargs: Dict[str, Any]
    #: Admission-time descriptor the tenant pipeline charges; None for
    #: registry-``local`` bookkeeping reads (which skip the pipeline on
    #: the emulator too, but still require a valid signature).
    descriptor: Optional[OpDescriptor]
    #: "one" (single owning shard), "broadcast" (namespace ops, all
    #: shards), or "fanout" (all shards, results merged at the SN).
    route: str
    route_key: Optional[str]
    encode: Callable[[Any], HttpResponse]
    #: Fan-out only: merge per-shard results into the op's Python result.
    merge: Optional[Callable[[List[Any]], Any]] = None
    #: Actual egress bytes once the result is known (analytics patch).
    result_nbytes: Optional[Callable[[Any], int]] = None


def _desc(service: Service, kind: OpKind, partition: str, *,
          nbytes: int = 0, units: int = 1,
          block_count: int = 0) -> OpDescriptor:
    return OpDescriptor(service, kind, partition, nbytes=nbytes,
                        units=units, block_count=block_count)


def _status(code: int, headers: Optional[List[Tuple[str, str]]] = None
            ) -> Callable[[Any], HttpResponse]:
    def encode(_result: Any) -> HttpResponse:
        return HttpResponse(code, list(headers or []))
    return encode


def _content_size(result: Any) -> int:
    return result.size if result is not None else 0


# -- blob service -----------------------------------------------------------

def _decode_blob(account: str, req: HttpRequest) -> DecodedOp:
    parts = req.path.strip("/").split("/", 2)
    if not parts or parts[0] != account:
        raise ResourceNotFoundError(f"unknown account path {req.path!r}")
    if len(parts) < 2 or not parts[1]:
        raise InvalidOperationError("blob requests address a container")
    container = parts[1]
    blob = parts[2] if len(parts) > 2 else None
    comp = req.query.get("comp")
    restype = req.query.get("restype")
    key = f"{container}/{blob}" if blob else container

    if blob is None:
        if restype != "container":
            raise InvalidOperationError(
                "container operations need restype=container")
        if req.method == "PUT":
            return DecodedOp(
                "blob", "create_container", (container,), {},
                _desc(Service.BLOB, OpKind.CREATE_CONTAINER, container),
                "broadcast", None, _status(201))
        if req.method == "DELETE":
            return DecodedOp(
                "blob", "delete_container", (container,), {},
                _desc(Service.BLOB, OpKind.DELETE_CONTAINER, container),
                "broadcast", None, _status(202))
        if req.method == "GET" and comp == "list":
            prefix = req.query.get("prefix", "")
            return DecodedOp(
                "blob", "list_blobs", (container, prefix), {}, None,
                "fanout", None,
                lambda names: HttpResponse(
                    200, [("Content-Type", "application/xml")],
                    _names_xml("Blob", names)),
                merge=lambda results: sorted(
                    {n for names in results for n in names}))
        raise InvalidOperationError(
            f"unsupported container request {req.method} {req.target}")

    if req.method == "PUT":
        if comp == "block":
            block_id = req.query.get("blockid", "")
            if not block_id:
                raise InvalidOperationError("comp=block needs a blockid")
            content = BytesContent(req.body)
            return DecodedOp(
                "blob", "put_block",
                (container, blob, block_id, content), {},
                _desc(Service.BLOB, OpKind.PUT_BLOCK, key,
                      nbytes=content.size),
                "one", key, _status(201))
        if comp == "blocklist":
            root = ET.fromstring(req.body.decode("utf-8"))
            ids = [el.text or "" for el in root
                   if el.tag in ("Latest", "Committed", "Uncommitted")]
            merge_commit = (
                req.header(f"{_EXT}merge-commit").lower() == "true")
            return DecodedOp(
                "blob", "put_block_list",
                (container, blob, ids), {"merge": merge_commit},
                _desc(Service.BLOB, OpKind.PUT_BLOCK_LIST, key,
                      block_count=len(ids)),
                "one", key, _status(201))
        if comp == "page":
            rng = _parse_range(req)
            if rng is None:
                raise InvalidOperationError("comp=page needs a Range")
            content = BytesContent(req.body)
            return DecodedOp(
                "blob", "put_page", (container, blob, rng[0], content), {},
                _desc(Service.BLOB, OpKind.PUT_PAGE, key,
                      nbytes=content.size),
                "one", key, _status(201))
        blob_type = req.header("x-ms-blob-type", "BlockBlob")
        if blob_type == "PageBlob":
            max_size = int(req.header("x-ms-blob-content-length", "0"))
            return DecodedOp(
                "blob", "create_page_blob", (container, blob, max_size), {},
                _desc(Service.BLOB, OpKind.CREATE_CONTAINER, key),
                "one", key, _status(201))
        content = BytesContent(req.body)
        return DecodedOp(
            "blob", "upload_blob", (container, blob, content), {},
            _desc(Service.BLOB, OpKind.UPLOAD_BLOB, key,
                  nbytes=content.size),
            "one", key, _status(201))

    if req.method == "GET":
        if comp == "blocklist":
            return DecodedOp(
                "blob", "block_count", (container, blob), {}, None,
                "one", key,
                lambda count: HttpResponse(
                    200,
                    [("x-ms-block-count", str(count)),
                     ("Content-Type", "application/xml")],
                    _xml_body(ET.Element("BlockList"))))
        if comp == "block":
            index = int(req.query.get("blockindex", "0"))
            return DecodedOp(
                "blob", "get_block", (container, blob, index), {},
                _desc(Service.BLOB, OpKind.GET_BLOCK, key),
                "one", key,
                lambda content: HttpResponse(
                    200, [], content.to_bytes()),
                result_nbytes=_content_size)
        rng = _parse_range(req)
        if rng is not None:
            offset, length = rng
            # ``_get_page`` resolves at the data node, which pairs the
            # slice with the blob's total size for the Content-Range.
            return DecodedOp(
                "blob", "_get_page", (container, blob, offset, length), {},
                _desc(Service.BLOB, OpKind.GET_PAGE, key, nbytes=length),
                "one", key,
                lambda pair: HttpResponse(
                    206,
                    [("Content-Range",
                      f"bytes {offset}-{offset + length - 1}/{pair[1]}")],
                    pair[0].to_bytes()),
                result_nbytes=lambda pair: _content_size(pair[0]))
        return DecodedOp(
            "blob", "_download", (container, blob), {},
            _desc(Service.BLOB, OpKind.DOWNLOAD_BLOB, key),
            "one", key,
            lambda content: HttpResponse(200, [], content.to_bytes()),
            result_nbytes=_content_size)

    if req.method == "DELETE":
        return DecodedOp(
            "blob", "delete_blob", (container, blob), {},
            _desc(Service.BLOB, OpKind.DELETE_BLOB, key),
            "one", key, _status(202))

    raise InvalidOperationError(
        f"unsupported blob request {req.method} {req.target}")


# -- queue service ----------------------------------------------------------

def _queue_text(body: bytes) -> Content:
    root = ET.fromstring(body.decode("utf-8"))
    return BytesContent(base64.b64decode(root.findtext("MessageText") or ""))


def _decode_queue(account: str, req: HttpRequest) -> DecodedOp:
    parts = req.path.strip("/").split("/")
    if not parts or parts[0] != account:
        raise ResourceNotFoundError(f"unknown account path {req.path!r}")
    rest = [p for p in parts[1:] if p]
    comp = req.query.get("comp")

    if not rest:
        if req.method == "GET" and comp == "list":
            prefix = req.query.get("prefix", "")
            return DecodedOp(
                "queue", "list_queues", (prefix,), {}, None,
                "fanout", None,
                lambda names: HttpResponse(
                    200, [("Content-Type", "application/xml")],
                    _names_xml("Queue", names)),
                merge=lambda results: sorted(
                    {n for names in results for n in names}))
        raise InvalidOperationError(
            f"unsupported account request {req.method} {req.target}")

    queue = rest[0]
    if len(rest) == 1:
        if req.method == "PUT":
            return DecodedOp(
                "queue", "create_queue", (queue,), {},
                _desc(Service.QUEUE, OpKind.CREATE_QUEUE, queue),
                "broadcast", None, _status(201))
        if req.method == "DELETE":
            return DecodedOp(
                "queue", "delete_queue", (queue,), {},
                _desc(Service.QUEUE, OpKind.DELETE_QUEUE, queue),
                "broadcast", None, _status(204))
        if req.method == "GET" and comp == "metadata":
            return DecodedOp(
                "queue", "get_message_count", (queue,), {},
                _desc(Service.QUEUE, OpKind.GET_MESSAGE_COUNT, queue),
                "one", queue,
                lambda count: HttpResponse(
                    200, [("x-ms-approximate-messages-count", str(count))]))
        raise InvalidOperationError(
            f"unsupported queue request {req.method} {req.target}")

    if rest[1] != "messages":
        raise ResourceNotFoundError(f"unknown queue path {req.path!r}")

    if len(rest) == 2:
        if req.method == "POST":
            content = _queue_text(req.body)
            kwargs: Dict[str, Any] = {}
            if "messagettl" in req.query:
                kwargs["ttl"] = float(req.query["messagettl"])
            if "visibilitytimeout" in req.query:
                kwargs["visibility_delay"] = float(
                    req.query["visibilitytimeout"])
            return DecodedOp(
                "queue", "put_message", (queue, content), kwargs,
                _desc(Service.QUEUE, OpKind.PUT_MESSAGE, queue,
                      nbytes=content.size),
                "one", queue,
                lambda msg: HttpResponse(
                    201, [("Content-Type", "application/xml")],
                    _messages_xml([msg] if msg is not None else [])))
        if req.method == "GET":
            if req.query.get("peekonly", "").lower() == "true":
                return DecodedOp(
                    "queue", "peek_message", (queue,), {},
                    _desc(Service.QUEUE, OpKind.PEEK_MESSAGE, queue),
                    "one", queue,
                    lambda msg: HttpResponse(
                        200, [("Content-Type", "application/xml")],
                        _messages_xml([msg] if msg else [], peeked=True)),
                    result_nbytes=_content_size)
            visibility = None
            if "visibilitytimeout" in req.query:
                visibility = float(req.query["visibilitytimeout"])
            if "numofmessages" in req.query:
                n = int(req.query["numofmessages"])
                return DecodedOp(
                    "queue", "get_messages", (queue, n),
                    {"visibility_timeout": visibility},
                    _desc(Service.QUEUE, OpKind.GET_MESSAGE, queue,
                          units=max(1, n)),
                    "one", queue,
                    lambda msgs: HttpResponse(
                        200, [("Content-Type", "application/xml")],
                        _messages_xml(msgs)),
                    result_nbytes=lambda msgs: sum(m.size for m in msgs))
            return DecodedOp(
                "queue", "get_message", (queue,),
                {"visibility_timeout": visibility},
                _desc(Service.QUEUE, OpKind.GET_MESSAGE, queue),
                "one", queue,
                lambda msg: HttpResponse(
                    200, [("Content-Type", "application/xml")],
                    _messages_xml([msg] if msg else [])),
                result_nbytes=_content_size)
        raise InvalidOperationError(
            f"unsupported messages request {req.method} {req.target}")

    message_id = rest[2]
    pop_receipt = req.query.get("popreceipt", "")
    if req.method == "DELETE":
        return DecodedOp(
            "queue", "delete_message", (queue, message_id, pop_receipt), {},
            _desc(Service.QUEUE, OpKind.DELETE_MESSAGE, queue),
            "one", queue, _status(204))
    if req.method == "PUT":
        data = _queue_text(req.body) if req.body else None
        visibility = float(req.query.get("visibilitytimeout", "0"))
        return DecodedOp(
            "queue", "update_message",
            (queue, message_id, pop_receipt, data),
            {"visibility_timeout": visibility},
            _desc(Service.QUEUE, OpKind.UPDATE_MESSAGE, queue,
                  nbytes=data.size if data is not None else 0),
            "one", queue,
            lambda msg: HttpResponse(204, [
                ("x-ms-popreceipt", msg.pop_receipt or ""),
                ("x-ms-time-next-visible", _http_date(msg.next_visible_time)),
                (f"{_EXT}time-next-visible-epoch",
                 repr(msg.next_visible_time)),
                (f"{_EXT}insertion-time-epoch", repr(msg.insertion_time)),
                (f"{_EXT}expiration-time-epoch", repr(msg.expiration_time)),
                (f"{_EXT}dequeue-count", str(msg.dequeue_count)),
            ]))
    raise InvalidOperationError(
        f"unsupported message request {req.method} {req.target}")


# -- table service ----------------------------------------------------------

def _merge_query(results: List[QueryResult], *, top: Optional[int],
                 continuation: Optional[Tuple[str, str]]) -> QueryResult:
    """Re-page the shards' unpaged scans exactly like one table would."""
    entities = sorted(
        (e for r in results for e in r.entities), key=lambda e: e.key)
    if continuation is not None:
        continuation = tuple(continuation)  # type: ignore[assignment]
        entities = [e for e in entities if e.key > continuation]
    if top is not None and len(entities) > top:
        return QueryResult(entities[:top],
                           continuation=entities[top - 1].key)
    return QueryResult(entities, continuation=None)


def _entities_response(entities: List[Entity]) -> HttpResponse:
    return _json_response(
        200, {"value": [encode_entity(e) for e in entities]})


def _query_response(result: QueryResult) -> HttpResponse:
    headers: List[Tuple[str, str]] = []
    if result.continuation is not None:
        headers.append(
            ("x-ms-continuation-NextPartitionKey", result.continuation[0]))
        headers.append(
            ("x-ms-continuation-NextRowKey", result.continuation[1]))
    return _json_response(
        200, {"value": [encode_entity(e) for e in result.entities]},
        headers)


def _entity_write_response(status: int) -> Callable[[Any], HttpResponse]:
    def encode(entity: Entity) -> HttpResponse:
        headers = [("ETag", entity.etag),
                   (f"{_EXT}timestamp-epoch", repr(entity.timestamp))]
        if status == 201:
            return _json_response(201, encode_entity(entity), headers)
        return HttpResponse(status, headers)
    return encode


def _decode_table(account: str, req: HttpRequest) -> DecodedOp:
    parts = req.path.strip("/").split("/", 2)
    if not parts or parts[0] != account:
        raise ResourceNotFoundError(f"unknown account path {req.path!r}")
    rest = parts[1] if len(parts) > 1 else ""
    if len(parts) > 2:
        rest = f"{parts[1]}/{parts[2]}"

    if rest == "Tables":
        if req.method != "POST":
            raise InvalidOperationError("POST creates tables")
        name = json.loads(req.body.decode("utf-8"))["TableName"]
        return DecodedOp(
            "table", "create_table", (name,), {},
            _desc(Service.TABLE, OpKind.CREATE_TABLE, name),
            "broadcast", None,
            lambda _r: _json_response(201, {"TableName": name}))
    table_ref = re.fullmatch(r"Tables\('((?:[^']|'')*)'\)", rest)
    if table_ref:
        if req.method != "DELETE":
            raise InvalidOperationError("only DELETE addresses Tables('..')")
        name = _odata_unquote(table_ref.group(1))
        return DecodedOp(
            "table", "delete_table", (name,), {},
            _desc(Service.TABLE, OpKind.DELETE_TABLE, name),
            "broadcast", None, _status(204))

    if rest == "$batch":
        if req.method != "POST":
            raise InvalidOperationError("POST executes batches")
        doc = json.loads(req.body.decode("utf-8"))
        table = doc["table"]
        ops = [BatchOperation(
            kind=o["kind"], partition_key=o["partitionKey"],
            row_key=o["rowKey"],
            properties=(decode_properties(o["properties"])
                        if o.get("properties") is not None else None),
            etag=o.get("etag"),
        ) for o in doc["operations"]]
        nbytes = sum(
            e.size for e in (
                Entity(o.partition_key, o.row_key, o.properties or {})
                for o in ops))
        partition = ops[0].partition_key if ops else table
        return DecodedOp(
            "table", "execute_batch", (table, ops), {},
            _desc(Service.TABLE, OpKind.BATCH, partition,
                  nbytes=nbytes, units=max(1, len(ops))),
            "one", partition,
            lambda results: _json_response(202, {"results": [
                encode_entity(e) if e is not None else None
                for e in results]}))

    entity_ref = _ENTITY_PATH.fullmatch(rest)
    if entity_ref:
        table = entity_ref.group(1)
        pk = _odata_unquote(entity_ref.group(2))
        rk = _odata_unquote(entity_ref.group(3))
        etag = req.header("if-match") or None
        if req.method == "GET":
            return DecodedOp(
                "table", "get", (table, pk, rk), {},
                _desc(Service.TABLE, OpKind.QUERY_ENTITY, pk),
                "one", pk,
                lambda e: _json_response(200, encode_entity(e)),
                result_nbytes=lambda e: e.size)
        if req.method == "DELETE":
            if etag is None:
                raise InvalidOperationError("DELETE entity needs If-Match")
            return DecodedOp(
                "table", "delete", (table, pk, rk), {"etag": etag},
                _desc(Service.TABLE, OpKind.DELETE_ENTITY, pk),
                "one", pk, _status(204))
        if req.method in ("PUT", "MERGE"):
            props = decode_properties(json.loads(req.body.decode("utf-8")))
            nbytes = Entity(pk, rk, props).size
            if req.method == "PUT":
                op = "update" if etag is not None else "insert_or_replace"
                kind = OpKind.UPDATE_ENTITY
            else:
                op = "merge" if etag is not None else "insert_or_merge"
                kind = OpKind.MERGE_ENTITY
            kwargs = {"etag": etag} if etag is not None else {}
            return DecodedOp(
                "table", op, (table, pk, rk, props), kwargs,
                _desc(Service.TABLE, kind, pk, nbytes=nbytes),
                "one", pk, _entity_write_response(204))
        raise InvalidOperationError(
            f"unsupported entity request {req.method} {req.target}")

    table = rest[:-2] if rest.endswith("()") else rest
    if not table:
        raise ResourceNotFoundError(f"unknown table path {req.path!r}")

    if req.method == "POST":
        doc = json.loads(req.body.decode("utf-8"))
        pk, rk = doc["PartitionKey"], doc["RowKey"]
        props = decode_properties(doc)
        return DecodedOp(
            "table", "insert", (table, pk, rk, props), {},
            _desc(Service.TABLE, OpKind.INSERT_ENTITY, pk,
                  nbytes=Entity(pk, rk, props).size),
            "one", pk, _entity_write_response(201))

    if req.method == "GET":
        filter_str = req.query.get("$filter")
        select = None
        if "$select" in req.query:
            select = [s for s in req.query["$select"].split(",") if s]
        match = _PARTITION_FILTER.fullmatch(filter_str or "")
        if match and "NextPartitionKey" not in req.query:
            pk = _odata_unquote(match.group(1))
            inner = match.group(2)
            return DecodedOp(
                "table", "query_partition", (table, pk, inner),
                {"select": select},
                _desc(Service.TABLE, OpKind.QUERY_ENTITY, pk),
                "one", pk, _entities_response,
                result_nbytes=lambda es: sum(e.size for e in es))
        top = int(req.query["$top"]) if "$top" in req.query else None
        continuation = None
        if "NextPartitionKey" in req.query:
            continuation = (req.query["NextPartitionKey"],
                            req.query.get("NextRowKey", ""))
        return DecodedOp(
            "table", "query", (table,),
            {"filter": filter_str, "select": select},
            _desc(Service.TABLE, OpKind.QUERY_ENTITY, table),
            "fanout", None, _query_response,
            merge=lambda results: _merge_query(
                results, top=top, continuation=continuation),
            result_nbytes=lambda r: sum(e.size for e in r.entities))

    raise InvalidOperationError(
        f"unsupported table request {req.method} {req.target}")


_DECODERS = {
    "blob": _decode_blob,
    "queue": _decode_queue,
    "table": _decode_table,
}


def decode_request(service: str, account: str,
                   req: HttpRequest) -> DecodedOp:
    """Resolve one wire request against the ``service`` listener."""
    try:
        return _DECODERS[service](account, req)
    except StorageError:
        raise
    except Exception as exc:
        # A URI shape the decoder never anticipated must still come back
        # as a decodable storage error, not a bare 400 (or a 500).
        raise UnknownResourceError(
            f"cannot resolve {req.method} {req.target!r} against the "
            f"{service} endpoint") from exc


# ---------------------------------------------------------------------------
# Client-side encoders: (client, op) -> WireCall builder
# ---------------------------------------------------------------------------

@dataclass
class WireCall:
    """One client-side HTTP exchange for a registry operation."""

    service: str
    method: str
    path: str                        # below the /{account} prefix
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    parse: Callable[[int, Mapping[str, str], bytes], Any] = \
        lambda status, headers, body: None


ENCODERS: Dict[Tuple[str, str], Callable[..., WireCall]] = {}


def _encoder(client: str, op: str):
    def register(fn):
        ENCODERS[(client, op)] = fn
        return fn
    return register


def _parse_none(status, headers, body):
    return None


def _parse_content(status, headers, body):
    return BytesContent(body)


# -- blob client ------------------------------------------------------------

@_encoder("blob", "create_container")
def _enc_create_container(name):
    return WireCall("blob", "PUT", f"/{name}",
                    query={"restype": "container"}, parse=_parse_none)


@_encoder("blob", "delete_container")
def _enc_delete_container(name):
    return WireCall("blob", "DELETE", f"/{name}",
                    query={"restype": "container"}, parse=_parse_none)


@_encoder("blob", "list_blobs")
def _enc_list_blobs(container, prefix=""):
    query = {"restype": "container", "comp": "list"}
    if prefix:
        query["prefix"] = prefix
    return WireCall(
        "blob", "GET", f"/{container}", query=query,
        parse=lambda s, h, b: _parse_names_xml("Blob", b))


@_encoder("blob", "put_block")
def _enc_put_block(container, blob, block_id, data):
    return WireCall(
        "blob", "PUT", f"/{container}/{blob}",
        query={"comp": "block", "blockid": block_id},
        body=_content_bytes(data), parse=_parse_none)


@_encoder("blob", "put_block_list")
def _enc_put_block_list(container, blob, block_ids, *, merge=False):
    root = ET.Element("BlockList")
    for block_id in block_ids:
        ET.SubElement(root, "Latest").text = str(block_id)
    headers = {}
    if merge:
        headers[f"{_EXT}merge-commit"] = "true"
    return WireCall(
        "blob", "PUT", f"/{container}/{blob}",
        query={"comp": "blocklist"}, headers=headers,
        body=_xml_body(root), parse=_parse_none)


@_encoder("blob", "upload_blob")
def _enc_upload_blob(container, blob, data):
    return WireCall(
        "blob", "PUT", f"/{container}/{blob}",
        headers={"x-ms-blob-type": "BlockBlob"},
        body=_content_bytes(data), parse=_parse_none)


@_encoder("blob", "create_page_blob")
def _enc_create_page_blob(container, blob, max_size):
    return WireCall(
        "blob", "PUT", f"/{container}/{blob}",
        headers={"x-ms-blob-type": "PageBlob",
                 "x-ms-blob-content-length": str(max_size)},
        parse=_parse_none)


@_encoder("blob", "put_page")
def _enc_put_page(container, blob, offset, data):
    payload = _content_bytes(data)
    return WireCall(
        "blob", "PUT", f"/{container}/{blob}", query={"comp": "page"},
        headers={"x-ms-range":
                 f"bytes={offset}-{offset + len(payload) - 1}",
                 "x-ms-page-write": "update"},
        body=payload, parse=_parse_none)


@_encoder("blob", "get_page")
def _enc_get_page(container, blob, offset, length):
    return WireCall(
        "blob", "GET", f"/{container}/{blob}",
        headers={"x-ms-range": f"bytes={offset}-{offset + length - 1}"},
        parse=_parse_content)


@_encoder("blob", "get_block")
def _enc_get_block(container, blob, index):
    return WireCall(
        "blob", "GET", f"/{container}/{blob}",
        query={"comp": "block", "blockindex": str(index)},
        parse=_parse_content)


@_encoder("blob", "download_block_blob")
def _enc_download_block_blob(container, blob):
    return WireCall("blob", "GET", f"/{container}/{blob}",
                    parse=_parse_content)


@_encoder("blob", "download_page_blob")
def _enc_download_page_blob(container, blob, *, written_only=True):
    # The wire serves the blob's readable image either way; written_only
    # is a cost-model refinement that has no REST analogue.
    return WireCall("blob", "GET", f"/{container}/{blob}",
                    parse=_parse_content)


@_encoder("blob", "block_count")
def _enc_block_count(container, blob):
    return WireCall(
        "blob", "GET", f"/{container}/{blob}", query={"comp": "blocklist"},
        parse=lambda s, h, b: int(h.get("x-ms-block-count", "0")))


@_encoder("blob", "delete_blob")
def _enc_delete_blob(container, blob, *, lease_id=None,
                     delete_snapshots=False):
    if lease_id is not None or delete_snapshots:
        raise NotImplementedError(
            "leases/snapshots are not part of the wire subset")
    return WireCall("blob", "DELETE", f"/{container}/{blob}",
                    parse=_parse_none)


# -- queue client -----------------------------------------------------------

def _parse_one_message(status, headers, body):
    messages = _parse_messages_xml(body)
    return messages[0] if messages else None


@_encoder("queue", "create_queue")
def _enc_create_queue(name):
    return WireCall("queue", "PUT", f"/{name}", parse=_parse_none)


@_encoder("queue", "delete_queue")
def _enc_delete_queue(name):
    return WireCall("queue", "DELETE", f"/{name}", parse=_parse_none)


@_encoder("queue", "list_queues")
def _enc_list_queues(prefix=""):
    query = {"comp": "list"}
    if prefix:
        query["prefix"] = prefix
    return WireCall(
        "queue", "GET", "/", query=query,
        parse=lambda s, h, b: _parse_names_xml("Queue", b))


def _message_body(data) -> bytes:
    text = base64.b64encode(_content_bytes(data)).decode("ascii")
    return (f"{_XML_DECL}<QueueMessage>{_el('MessageText', text)}"
            f"</QueueMessage>").encode("utf-8")


@_encoder("queue", "put_message")
def _enc_put_message(queue, data, *, ttl=None, visibility_delay=0.0):
    query = {}
    if ttl is not None:
        query["messagettl"] = f"{ttl:g}"
    if visibility_delay:
        query["visibilitytimeout"] = f"{visibility_delay:g}"
    return WireCall(
        "queue", "POST", f"/{queue}/messages", query=query,
        body=_message_body(data), parse=_parse_one_message)


@_encoder("queue", "get_message")
def _enc_get_message(queue, *, visibility_timeout=None):
    query = {}
    if visibility_timeout is not None:
        query["visibilitytimeout"] = f"{visibility_timeout:g}"
    return WireCall("queue", "GET", f"/{queue}/messages", query=query,
                    parse=_parse_one_message)


@_encoder("queue", "get_messages")
def _enc_get_messages(queue, n=1, *, visibility_timeout=None):
    query = {"numofmessages": str(n)}
    if visibility_timeout is not None:
        query["visibilitytimeout"] = f"{visibility_timeout:g}"
    return WireCall(
        "queue", "GET", f"/{queue}/messages", query=query,
        parse=lambda s, h, b: _parse_messages_xml(b))


@_encoder("queue", "peek_message")
def _enc_peek_message(queue):
    return WireCall(
        "queue", "GET", f"/{queue}/messages",
        query={"peekonly": "true"}, parse=_parse_one_message)


@_encoder("queue", "delete_message")
def _enc_delete_message(queue, message_id, pop_receipt):
    return WireCall(
        "queue", "DELETE", f"/{queue}/messages/{message_id}",
        query={"popreceipt": pop_receipt or ""}, parse=_parse_none)


@_encoder("queue", "update_message")
def _enc_update_message(queue, message_id, pop_receipt, data=None, *,
                        visibility_timeout=0.0):
    def parse(status, headers, body):
        content = (BytesContent(_content_bytes(data))
                   if data is not None else BytesContent(b""))
        return QueueMessage(
            message_id=message_id,
            content=content,
            insertion_time=float(
                headers.get(f"{_EXT}insertion-time-epoch", "0")),
            expiration_time=float(
                headers.get(f"{_EXT}expiration-time-epoch", "0")),
            next_visible_time=float(
                headers.get(f"{_EXT}time-next-visible-epoch", "0")),
            dequeue_count=int(headers.get(f"{_EXT}dequeue-count", "0")),
            pop_receipt=headers.get("x-ms-popreceipt") or None,
        )
    return WireCall(
        "queue", "PUT", f"/{queue}/messages/{message_id}",
        query={"popreceipt": pop_receipt or "",
               "visibilitytimeout": f"{visibility_timeout:g}"},
        body=_message_body(data) if data is not None else b"",
        parse=parse)


@_encoder("queue", "get_message_count")
def _enc_get_message_count(queue):
    return WireCall(
        "queue", "GET", f"/{queue}", query={"comp": "metadata"},
        parse=lambda s, h, b: int(
            h.get("x-ms-approximate-messages-count", "0")))


# -- table client -----------------------------------------------------------

_TABLE_JSON = {"Content-Type": "application/json",
               "Accept": "application/json;odata=minimalmetadata"}


def _parse_written_entity(pk, rk, props):
    def parse(status, headers, body):
        if body:
            return decode_entity(json.loads(body.decode("utf-8")))
        return Entity(pk, rk, props,
                      etag=headers.get("etag", ""),
                      timestamp=float(
                          headers.get(f"{_EXT}timestamp-epoch", "0")))
    return parse


@_encoder("table", "create_table")
def _enc_create_table(name):
    return WireCall(
        "table", "POST", "/Tables", headers=dict(_TABLE_JSON),
        body=json.dumps({"TableName": name}).encode("utf-8"),
        parse=_parse_none)


@_encoder("table", "delete_table")
def _enc_delete_table(name):
    return WireCall(
        "table", "DELETE", f"/Tables('{_odata_quote(name)}')",
        headers=dict(_TABLE_JSON), parse=_parse_none)


@_encoder("table", "insert")
def _enc_insert(table, partition_key, row_key, properties):
    doc = {"PartitionKey": partition_key, "RowKey": row_key}
    doc.update(encode_properties(properties))
    return WireCall(
        "table", "POST", f"/{table}", headers=dict(_TABLE_JSON),
        body=json.dumps(doc).encode("utf-8"),
        parse=_parse_written_entity(partition_key, row_key,
                                    dict(properties)))


def _entity_path(table, pk, rk) -> str:
    return (f"/{table}(PartitionKey='{_odata_quote(pk)}',"
            f"RowKey='{_odata_quote(rk)}')")


@_encoder("table", "get")
def _enc_get(table, partition_key, row_key):
    return WireCall(
        "table", "GET", _entity_path(table, partition_key, row_key),
        headers=dict(_TABLE_JSON),
        parse=lambda s, h, b: decode_entity(json.loads(b.decode("utf-8"))))


def _entity_write(method, table, pk, rk, properties, etag):
    headers = dict(_TABLE_JSON)
    if etag is not None:
        headers["If-Match"] = etag
    return WireCall(
        "table", method, _entity_path(table, pk, rk), headers=headers,
        body=json.dumps(encode_properties(properties)).encode("utf-8"),
        parse=_parse_written_entity(pk, rk, dict(properties)))


@_encoder("table", "update")
def _enc_update(table, partition_key, row_key, properties, *, etag="*"):
    return _entity_write("PUT", table, partition_key, row_key,
                         properties, etag if etag is not None else "*")


@_encoder("table", "merge")
def _enc_merge(table, partition_key, row_key, properties, *, etag="*"):
    return _entity_write("MERGE", table, partition_key, row_key,
                         properties, etag if etag is not None else "*")


@_encoder("table", "insert_or_replace")
def _enc_insert_or_replace(table, partition_key, row_key, properties):
    return _entity_write("PUT", table, partition_key, row_key,
                         properties, None)


@_encoder("table", "insert_or_merge")
def _enc_insert_or_merge(table, partition_key, row_key, properties):
    return _entity_write("MERGE", table, partition_key, row_key,
                         properties, None)


@_encoder("table", "delete")
def _enc_delete(table, partition_key, row_key, *, etag="*"):
    return WireCall(
        "table", "DELETE", _entity_path(table, partition_key, row_key),
        headers={**_TABLE_JSON,
                 "If-Match": etag if etag is not None else "*"},
        parse=_parse_none)


def _require_string_filter(filter):
    if filter is not None and not isinstance(filter, str):
        raise NotImplementedError(
            "the service backend sends filters over the wire: pass an "
            "OData filter string, not a Python callable")
    return filter


@_encoder("table", "query_partition")
def _enc_query_partition(table, partition_key, filter=None, *, select=None):
    _require_string_filter(filter)
    filter_str = f"PartitionKey eq '{_odata_quote(partition_key)}'"
    if filter:
        filter_str += f" and ({filter})"
    query = {"$filter": filter_str}
    if select is not None:
        query["$select"] = ",".join(select)
    return WireCall(
        "table", "GET", f"/{table}()", query=query,
        headers=dict(_TABLE_JSON),
        parse=lambda s, h, b: [
            decode_entity(doc)
            for doc in json.loads(b.decode("utf-8"))["value"]])


@_encoder("table", "query")
def _enc_query(table, filter=None, *, top=None, continuation=None,
               select=None):
    _require_string_filter(filter)
    query = {}
    if filter:
        query["$filter"] = filter
    if top is not None:
        query["$top"] = str(top)
    if select is not None:
        query["$select"] = ",".join(select)
    if continuation is not None:
        query["NextPartitionKey"] = continuation[0]
        query["NextRowKey"] = continuation[1]

    def parse(status, headers, body):
        entities = [decode_entity(doc)
                    for doc in json.loads(body.decode("utf-8"))["value"]]
        cont = None
        if "x-ms-continuation-nextpartitionkey" in headers:
            cont = (headers["x-ms-continuation-nextpartitionkey"],
                    headers.get("x-ms-continuation-nextrowkey", ""))
        return QueryResult(entities, continuation=cont)

    return WireCall("table", "GET", f"/{table}()", query=query,
                    headers=dict(_TABLE_JSON), parse=parse)


@_encoder("table", "execute_batch")
def _enc_execute_batch(table, operations):
    doc = {"table": table, "operations": [{
        "kind": op.kind,
        "partitionKey": op.partition_key,
        "rowKey": op.row_key,
        "properties": (encode_properties(op.properties)
                       if op.properties is not None else None),
        "etag": op.etag,
    } for op in operations]}

    def parse(status, headers, body):
        results = json.loads(body.decode("utf-8"))["results"]
        return [decode_entity(r) if r is not None else None
                for r in results]

    return WireCall(
        "table", "POST", "/$batch", headers=dict(_TABLE_JSON),
        body=json.dumps(doc).encode("utf-8"), parse=parse)
