"""The Azurite-compatible wire subset: one route table, both directions.

Every registry operation the wire carries is one :class:`Route` of
:data:`ROUTES`: method and path template, the fixed discriminators that
tell it from its neighbours (``comp=block``, ``peekonly=true``), where
each parameter of the registry op travels (path, query, header or body)
in which codec, the reply as a pair (the server's encoder, the client's
parser), the admission-time :class:`~repro.cluster.ops.OpDescriptor`
rule and the routing.  Each row is compiled into two straight-line
functions, each on its first call, so neither end interprets the table
per call and neither compiles a route it never uses:

* **client side** — :data:`ENCODERS` maps each ``(client, op)`` to its
  route's ``encode``, which binds the call by the registry op's own
  signature and builds the :class:`WireCall` (the HTTP exchange plus the
  parser of its reply); the service backend's clients call these;
* **server side** — :func:`decode_request` tells a request path's shape
  with one regex per service and tries the ``decode`` of the routes of
  that method and shape in table order; the first that takes the request
  gives the :class:`DecodedOp` (registry call, routing, descriptor, and
  the closure encoding the result).

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
import functools
import inspect
import json
import math
import re
import string
import time
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Mapping, NamedTuple,
                    Optional, Tuple)
from urllib.parse import quote
from xml.parsers import expat

from ..cluster.ops import OpDescriptor, OpKind, Service
from ..pipeline import OPERATIONS
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
    "ROUTES",
    "UnsupportedVersionError",
    "UnknownResourceError",
    "decode_request",
    "error_to_response",
    "response_to_error",
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
        body = _xml_body("Error", _el("Code", exc.error_code)
                         + _el("Message", message))
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


def response_to_error(status: int, headers: Mapping[str, str],
                      body: bytes, *, table: bool = False) -> StorageError:
    """Reconstruct the StorageError a >=400 response encodes."""
    import xml.etree.ElementTree as ET
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

_DAYS = "Mon Tue Wed Thu Fri Sat Sun".split()
_MONTHS = "Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()


@functools.lru_cache(maxsize=64)
def _date_of_second(second: int) -> str:
    """``email.utils.formatdate(second, usegmt=True)``, in English always."""
    t = time.gmtime(second)
    return (f"{_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon - 1]} "
            f"{t.tm_year:04d} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d}"
            f" GMT")


def _http_date(epoch: float) -> str:
    """RFC 1123 date; formatted once per distinct second, not per call.

    ``formatdate`` shows the second ``datetime.fromtimestamp`` lands on,
    which rounds half-even to a microsecond before dropping the fraction.
    """
    fraction, whole = math.modf(epoch)
    micros = round(fraction * 1e6)
    return _date_of_second(
        int(whole) + (micros >= 1000000) - (micros < 0))


def _xml_body(tag: str, inner: str) -> bytes:
    """A document of one element holding ``inner``, as ElementTree
    serialises it."""
    root = f"<{tag}>{inner}</{tag}>" if inner else f"<{tag} />"
    return (_XML_DECL + root).encode("utf-8")


def _json_bytes(doc: Any) -> bytes:
    return json.dumps(doc).encode("utf-8")


def _content_bytes(data: Any) -> bytes:
    return as_content(data).to_bytes()


def _content_size(result: Any) -> int:
    return result.size if result is not None else 0


def _sizes(items: Any) -> int:
    return sum(item.size for item in items)


def _parse_range(raw: str) -> Tuple[int, int]:
    """``bytes=a-b`` (inclusive) -> ``(offset, length)``."""
    match = re.fullmatch(r"bytes=(\d+)-(\d+)", raw.strip())
    if not match:
        raise InvalidOperationError(f"unsupported Range {raw!r}")
    start, end = int(match.group(1)), int(match.group(2))
    if end < start:
        raise InvalidOperationError(f"inverted Range {raw!r}")
    return start, end - start + 1


def _names_xml(kind: str, names: List[str]) -> bytes:
    """``<EnumerationResults><Blobs><Blob><Name>..`` style listings."""
    box = "".join(f"<{kind}>{_el('Name', name)}</{kind}>" for name in names)
    box = f"<{kind}s>{box}</{kind}s>" if box else f"<{kind}s />"
    return _xml_body("EnumerationResults", box)


def _parse_names_xml(kind: str, body: bytes) -> List[str]:
    import xml.etree.ElementTree as ET
    root = ET.fromstring(body.decode("utf-8"))
    return [el.findtext("Name") or ""
            for el in root.iter(kind)]


def _merge_names(results: List[List[str]]) -> List[str]:
    return sorted({name for names in results for name in names})


# ---------------------------------------------------------------------------
# Queue message codec: templates out, one expat pass in.  A put's reply
# lists the message without its text; the client has what it sent.
# ---------------------------------------------------------------------------

def _el(tag: str, text: str) -> str:
    """One text element, exactly as ElementTree serialises it."""
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f"<{tag}>{text}</{tag}>" if text else f"<{tag} />"


def _message_text(raw: bytes) -> str:
    """``<MessageText>``: base64 holds no XML metacharacter to escape."""
    text = base64.b64encode(raw).decode("ascii")
    return f"<MessageText>{text}</MessageText>" if text else "<MessageText />"


def _message_xml(msg: QueueMessage, peeked: bool, text: bool) -> str:
    # Dates, counts, reprs of floats and base64 never need escaping.
    checkout = ""  # what a peek does not show
    if not peeked:
        if msg.pop_receipt is not None:
            checkout = _el("PopReceipt", msg.pop_receipt)
        checkout += (f"<TimeNextVisible>{_http_date(msg.next_visible_time)}"
                     f"</TimeNextVisible>")
    # A put's reply shows no text: the client has it.
    text = _message_text(msg.content.to_bytes()) if text else ""
    return (
        f"<QueueMessage>{_el('MessageId', msg.message_id)}"
        f"<InsertionTime>{_http_date(msg.insertion_time)}</InsertionTime>"
        f"<ExpirationTime>{_http_date(msg.expiration_time)}</ExpirationTime>"
        f"<DequeueCount>{msg.dequeue_count}</DequeueCount>{checkout}{text}"
        # Float-precision epochs the RFC-1123 dates above cannot carry.
        f"<InsertionTimeEpoch>{msg.insertion_time!r}</InsertionTimeEpoch>"
        f"<ExpirationTimeEpoch>{msg.expiration_time!r}</ExpirationTimeEpoch>"
        f"<TimeNextVisibleEpoch>{msg.next_visible_time!r}"
        f"</TimeNextVisibleEpoch></QueueMessage>")


def _messages_xml(messages: List[QueueMessage], *, peeked: bool = False,
                  text: bool = True) -> bytes:
    """The message list, from a template: no element tree per message."""
    return _xml_body("QueueMessagesList", "".join(
        _message_xml(msg, peeked, text) for msg in messages))


def _read_messages(body: bytes) -> List[Dict[str, str]]:
    """Each ``<QueueMessage>``'s children's text by tag, in one expat pass:
    as with ``findtext``, a child's text is what precedes its first
    subelement and the first child of a tag wins.  Malformed XML raises."""
    messages: List[Dict[str, str]] = []
    outer: List[Any] = []  # the (fields, depth) of enclosing messages
    fields: Any = None
    top, depth, field = -1, 0, None  # the message's depth, ours, a child

    def start(tag, attrs):
        nonlocal fields, top, depth, field
        depth += 1
        field = None
        if tag == "QueueMessage":
            outer.append((fields, top))
            fields, top = {}, depth
            messages.append(fields)
        elif depth == top + 1 and tag not in fields:
            field, fields[tag] = tag, ""

    def end(tag):
        nonlocal fields, top, depth, field
        if depth == top:
            fields, top = outer.pop()
        depth, field = depth - 1, None

    def text(data):
        if field is not None:
            fields[field] += data

    parser = expat.ParserCreate()
    parser.buffer_text = True
    parser.StartElementHandler, parser.EndElementHandler = start, end
    parser.CharacterDataHandler = text
    parser.Parse(body, True)
    return messages


def _message(fields: Mapping[str, str],
             content: Optional[Content] = None) -> QueueMessage:
    def epoch(tag: str) -> float:  # our extension's float, or the date's
        raw, date = fields.get(tag + "Epoch"), fields.get(tag)
        if raw is not None:
            return float(raw)
        from email.utils import parsedate_to_datetime
        return parsedate_to_datetime(date).timestamp() if date else 0.0

    if content is None:
        content = BytesContent(base64.b64decode(fields.get("MessageText",
                                                           "")))
    return QueueMessage(
        fields.get("MessageId", ""), content, epoch("InsertionTime"),
        epoch("ExpirationTime"), epoch("TimeNextVisible"),
        int(fields.get("DequeueCount") or "0"), fields.get("PopReceipt"))


def _parse_messages_xml(body: bytes) -> List[QueueMessage]:
    return [_message(fields) for fields in _read_messages(body)]


def _message_body(data) -> bytes:
    """A put or update request's ``<QueueMessage>``."""
    return (f"{_XML_DECL}<QueueMessage>"
            f"{_message_text(_content_bytes(data))}</QueueMessage>"
            ).encode("utf-8")


def _queue_text(body: bytes) -> Content:
    fields = next(iter(_read_messages(body)), {})
    return BytesContent(base64.b64decode(fields.get("MessageText", "")))


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


def _odata_quote(value: Any) -> str:
    return f"{value}".replace("'", "''")


def _odata_unquote(value: str) -> str:
    return value.replace("''", "'")


#: ``PartitionKey eq 'pk'`` optionally ``and (<inner filter>)``.  The
#: inner filter may hold any character, line breaks too: only the prefix
#: picks the route.
_PARTITION_FILTER = re.compile(
    r"^PartitionKey eq '((?:[^']|'')*)'(?: and \((.*)\))?$", re.DOTALL)


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


# ---------------------------------------------------------------------------
# The two ends' views of one operation
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


@dataclass
class WireCall:
    """One client-side HTTP exchange for a registry operation."""

    service: str
    method: str
    path: str                        # below the /{account} prefix
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes
    parse: Callable[[int, Mapping[str, str], bytes], Any]


# ---------------------------------------------------------------------------
# Where a parameter travels: value codecs and query/header slots
# ---------------------------------------------------------------------------

def _number(value: float) -> str:
    """``:g`` where that round-trips (every value sent so far), else repr."""
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _filter_text(filter: Any) -> str:
    if not isinstance(filter, str):
        raise NotImplementedError(
            "the service backend sends filters over the wire: pass an "
            "OData filter string, not a Python callable")
    return filter


#: ``(write, read)`` pairs: a parameter's value to its text and back.
_TEXT = (str, str)
_INT = (str, int)
_NUMBER = (_number, float)
_FLAG = (lambda on: "true", lambda text: text.lower() == "true")
_NAMES = (",".join, lambda text: [name for name in text.split(",") if name])
_FILTER = (_filter_text, str)
_RECEIPT = (lambda receipt: receipt or "", str)
_ETAG = (lambda etag: "*" if etag is None else etag, str)

_REQUIRED = object()


class Param(NamedTuple):
    """One parameter as one query value (under ``key``), or one header.

    ``default`` stays off the wire and is restored by the server, or, if
    not ``restore``, left out of the call; without one (``_REQUIRED``) a
    request lacking the parameter is not this route's.  ``keyword`` hands
    the data node a positional-or-keyword parameter by name.
    """

    name: str
    key: str
    lookup: str  # the key as a request carries it: headers lower-cased
    write: Callable[[Any], str]
    read: Callable[[str], Any]
    default: Any
    restore: bool
    keyword: bool = False
    names = property(lambda self: (self.name,))


class Slot(NamedTuple):
    """Where parameters travel that one query value or header cannot say.

    ``put(values, out)`` writes the call's ``values`` into the query or
    header map ``out``; ``take(found, values)`` reads them back from a
    request's, and is false when the request is not this route's.
    """

    names: Tuple[str, ...]
    put: Callable[[Mapping[str, Any], Dict[str, str]], None]
    take: Callable[[Mapping[str, str], Dict[str, Any]], bool]
    keyword: bool = False


def _param(name: str, key: str, codec=_TEXT, *, default: Any = _REQUIRED,
           omit: Any = _REQUIRED, keyword: bool = False,
           header: bool = False) -> Param:
    return Param(name, key, key.lower() if header else key, *codec,
                 default if omit is _REQUIRED else omit, omit is _REQUIRED,
                 keyword)


def _range(*, page: bool) -> Slot:
    """``x-ms-range: bytes=a-b``: a read's ``offset`` and ``length``, or a
    page write's ``offset`` (its body gives the length)."""
    def put(values, out):
        offset = values["offset"]
        length = (as_content(values["data"]).size if page
                  else values["length"])
        out["x-ms-range"] = f"bytes={offset}-{offset + length - 1}"
        if page:
            out["x-ms-page-write"] = "update"

    def take(found, values):
        raw = found.get("x-ms-range") or found.get("range")
        if not raw:
            return False
        values["offset"], length = _parse_range(raw)
        if not page:
            values["length"] = length
        return True

    return Slot(("offset",) if page else ("offset", "length"), put, take)


def _continuation() -> Slot:
    """A query page's ``continuation``: two keys, both or neither."""
    def put(values, out):
        if values["continuation"] is not None:
            out["NextPartitionKey"], out["NextRowKey"] = values["continuation"]

    def take(found, values):
        values["continuation"] = (
            (found["NextPartitionKey"], found.get("NextRowKey", ""))
            if "NextPartitionKey" in found else None)
        return True

    return Slot(("continuation",), put, take)


def _partition_filter() -> Slot:
    """``$filter=PartitionKey eq 'pk'[ and (filter)]``: one partition.

    A paged request (``$top`` or a continuation) belongs to the fan-out
    ``query`` route instead, whose merge keeps the page.
    """
    def put(values, out):
        text = f"PartitionKey eq '{_odata_quote(values['partition_key'])}'"
        if values["filter"] is not None:
            text += f" and ({_filter_text(values['filter'])})"
        out["$filter"] = text

    def take(found, values):
        match = _PARTITION_FILTER.fullmatch(found.get("$filter", ""))
        if match is None or "$top" in found or "NextPartitionKey" in found:
            return False
        values["partition_key"] = _odata_unquote(match.group(1))
        values["filter"] = match.group(2)
        return True

    return Slot(("partition_key", "filter"), put, take)


# ---------------------------------------------------------------------------
# Request bodies and replies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Body:
    """The parameters a request body carries, and its codec."""

    names: Tuple[str, ...]
    write: Callable[[Mapping[str, Any]], bytes]
    read: Callable[[bytes], Dict[str, Any]]


def _block_list_xml(values: Mapping[str, Any]) -> bytes:
    return _xml_body("BlockList", "".join(
        _el("Latest", str(block_id)) for block_id in values["block_ids"]))


def _read_block_list(raw: bytes) -> Dict[str, Any]:
    import xml.etree.ElementTree as ET
    root = ET.fromstring(raw.decode("utf-8"))
    return {"block_ids": [el.text or "" for el in root
                          if el.tag in ("Latest", "Committed", "Uncommitted")]}


def _new_entity_json(values: Mapping[str, Any]) -> bytes:
    doc = {"PartitionKey": values["partition_key"],
           "RowKey": values["row_key"]}
    doc.update(encode_properties(values["properties"]))
    return _json_bytes(doc)


def _read_new_entity(raw: bytes) -> Dict[str, Any]:
    doc = json.loads(raw)
    return {"partition_key": doc["PartitionKey"], "row_key": doc["RowKey"],
            "properties": decode_properties(doc)}


def _batch_json(values: Mapping[str, Any]) -> bytes:
    return _json_bytes({"table": values["table"], "operations": [{
        "kind": op.kind,
        "partitionKey": op.partition_key,
        "rowKey": op.row_key,
        "properties": (encode_properties(op.properties)
                       if op.properties is not None else None),
        "etag": op.etag,
    } for op in values["operations"]]})


def _read_batch(raw: bytes) -> Dict[str, Any]:
    doc = json.loads(raw)
    return {"table": doc["table"], "operations": [BatchOperation(
        kind=o["kind"], partition_key=o["partitionKey"],
        row_key=o["rowKey"],
        properties=(decode_properties(o["properties"])
                    if o.get("properties") is not None else None),
        etag=o.get("etag"),
    ) for o in doc["operations"]]}


_CONTENT_BODY = Body(("data",), lambda v: _content_bytes(v["data"]),
                     lambda raw: {"data": BytesContent(raw)})
_MESSAGE_BODY = Body(("data",), lambda v: _message_body(v["data"]),
                     lambda raw: {"data": _queue_text(raw)})
#: An update without a body keeps the message's content: ``data=None``.
_UPDATE_BODY = Body(
    ("data",),
    lambda v: b"" if v["data"] is None else _message_body(v["data"]),
    lambda raw: {"data": _queue_text(raw) if raw else None})
_BLOCK_LIST_BODY = Body(("block_ids",), _block_list_xml, _read_block_list)
_TABLE_NAME_BODY = Body(("name",),
                        lambda v: _json_bytes({"TableName": v["name"]}),
                        lambda raw: {"name": json.loads(raw)["TableName"]})
_PROPERTIES_BODY = Body(
    ("properties",),
    lambda v: _json_bytes(encode_properties(v["properties"])),
    lambda raw: {"properties": decode_properties(json.loads(raw))})
_ENTITY_BODY = Body(("partition_key", "row_key", "properties"),
                    _new_entity_json, _read_new_entity)
_BATCH_BODY = Body(("table", "operations"), _batch_json, _read_batch)

_Headers = List[Tuple[str, str]]


@dataclass(frozen=True)
class Reply:
    """A result's wire form: the server's encoder and the client's parser.

    ``encode(values, result)`` gives the ``(headers, body)`` of a
    ``status`` response; ``parse(values, headers, body)`` rebuilds the
    result.  ``values`` are the call's arguments by name, on either end.
    """

    status: int
    encode: Callable[[Mapping[str, Any], Any], Tuple[_Headers, bytes]] = \
        lambda values, result: ([], b"")
    parse: Callable[[Mapping[str, Any], Mapping[str, str], bytes], Any] = \
        lambda values, headers, body: None


def _xml(body: bytes, *headers: Tuple[str, str]) -> Tuple[_Headers, bytes]:
    return [*headers, ("Content-Type", "application/xml")], body


def _json(doc: Any, *headers: Tuple[str, str]) -> Tuple[_Headers, bytes]:
    return ([*headers,
             ("Content-Type", "application/json;odata=minimalmetadata")],
            _json_bytes(doc))


def _names_reply(kind: str) -> Reply:
    return Reply(200, lambda v, names: _xml(_names_xml(kind, names)),
                 lambda v, headers, body: _parse_names_xml(kind, body))


def _message_reply(status: int, *, peeked: bool = False,
                   text: bool = True) -> Reply:
    """At most one message; ``None`` is an empty list.  ``text=False``: a
    put's reply (the API's since 2016-05-31), the client has the content."""
    def parse(values, headers, body):
        content = None if text else BytesContent(
            _content_bytes(values["data"]))
        return next((_message(fields, content)
                     for fields in _read_messages(body)), None)
    return Reply(status, lambda v, msg: _xml(_messages_xml(
        [] if msg is None else [msg], peeked=peeked, text=text)), parse)


def _updated_message(values: Mapping[str, Any],
                     msg: QueueMessage) -> Tuple[_Headers, bytes]:
    return [
        ("x-ms-popreceipt", msg.pop_receipt or ""),
        ("x-ms-time-next-visible", _http_date(msg.next_visible_time)),
        (f"{_EXT}time-next-visible-epoch", repr(msg.next_visible_time)),
        (f"{_EXT}insertion-time-epoch", repr(msg.insertion_time)),
        (f"{_EXT}expiration-time-epoch", repr(msg.expiration_time)),
        (f"{_EXT}dequeue-count", str(msg.dequeue_count)),
    ], b""


def _parse_updated_message(values: Mapping[str, Any],
                           headers: Mapping[str, str],
                           body: bytes) -> QueueMessage:
    # The 2012 API's 204 carries no content: an update that kept it
    # (data=None) comes back empty.
    data = values["data"]
    return QueueMessage(
        message_id=values["message_id"],
        content=BytesContent(b"" if data is None else _content_bytes(data)),
        insertion_time=float(headers.get(f"{_EXT}insertion-time-epoch", "0")),
        expiration_time=float(
            headers.get(f"{_EXT}expiration-time-epoch", "0")),
        next_visible_time=float(
            headers.get(f"{_EXT}time-next-visible-epoch", "0")),
        dequeue_count=int(headers.get(f"{_EXT}dequeue-count", "0")),
        pop_receipt=headers.get("x-ms-popreceipt") or None,
    )


def _entity_written(status: int) -> Reply:
    """An entity write: the new ETag, and the entity itself on a 201."""
    def encode(values, entity):
        headers = [("ETag", entity.etag),
                   (f"{_EXT}timestamp-epoch", repr(entity.timestamp))]
        if status == 201:
            return _json(encode_entity(entity), *headers)
        return headers, b""

    def parse(values, headers, body):
        if body:
            return decode_entity(json.loads(body))
        return Entity(values["partition_key"], values["row_key"],
                      values["properties"], etag=headers.get("etag", ""),
                      timestamp=float(
                          headers.get(f"{_EXT}timestamp-epoch", "0")))
    return Reply(status, encode, parse)


def _entities(body: bytes) -> List[Entity]:
    return [decode_entity(doc) for doc in json.loads(body)["value"]]


def _query_page(values: Mapping[str, Any],
                result: QueryResult) -> Tuple[_Headers, bytes]:
    token = result.continuation
    headers = [] if token is None else [
        ("x-ms-continuation-NextPartitionKey", token[0]),
        ("x-ms-continuation-NextRowKey", token[1])]
    return _json({"value": [encode_entity(e) for e in result.entities]},
                 *headers)


def _parse_query_page(values: Mapping[str, Any], headers: Mapping[str, str],
                      body: bytes) -> QueryResult:
    continuation = None
    if "x-ms-continuation-nextpartitionkey" in headers:
        continuation = (headers["x-ms-continuation-nextpartitionkey"],
                        headers.get("x-ms-continuation-nextrowkey", ""))
    return QueryResult(_entities(body), continuation=continuation)


_CREATED = Reply(201)
_ACCEPTED = Reply(202)
_NO_CONTENT = Reply(204)
_CONTENT = Reply(200, lambda v, content: ([], content.to_bytes()),
                 lambda v, headers, body: BytesContent(body))
#: The data node pairs a range's bytes with the blob's total size.
_PAGE = Reply(
    206,
    lambda v, pair: ([("Content-Range", f"bytes {v['offset']}-"
                       f"{v['offset'] + v['length'] - 1}/{pair[1]}")],
                     pair[0].to_bytes()),
    _CONTENT.parse)
_BLOCK_COUNT = Reply(
    200,
    lambda v, count: _xml(_xml_body("BlockList", ""),
                          ("x-ms-block-count", str(count))),
    lambda v, headers, body: int(headers.get("x-ms-block-count", "0")))
_MESSAGES = Reply(200, lambda v, msgs: _xml(_messages_xml(msgs)),
                  lambda v, headers, body: _parse_messages_xml(body))
_MESSAGE_COUNT = Reply(
    200,
    lambda v, count: ([("x-ms-approximate-messages-count", str(count))],
                      b""),
    lambda v, headers, body: int(
        headers.get("x-ms-approximate-messages-count", "0")))
_TABLE_CREATED = Reply(201, lambda v, _: _json({"TableName": v["name"]}))
_ENTITY = Reply(200, lambda v, entity: _json(encode_entity(entity)),
                lambda v, headers, body: decode_entity(json.loads(body)))
_ENTITIES = Reply(
    200, lambda v, entities: _json({"value": [encode_entity(e)
                                              for e in entities]}),
    lambda v, headers, body: _entities(body))
_BATCH_RESULTS = Reply(
    202,
    lambda v, results: _json({"results": [
        encode_entity(e) if e is not None else None for e in results]}),
    lambda v, headers, body: [
        decode_entity(r) if r is not None else None
        for r in json.loads(body)["results"]])


# ---------------------------------------------------------------------------
# Routes
# ---------------------------------------------------------------------------

#: What a path segment may carry unescaped: RFC 3986's ``pchar`` without
#: ``%``.  Every name the clients send stays byte-identical, the ``'(),=``
#: of entity paths included; a space, ``%``, ``?`` or ``#`` is escaped.
_PATH_SAFE = "/!$&'()*+,;=:@"
#: Control characters name nothing: a path holding one is refused.
_CONTROL = re.compile(r"[\x00-\x1f\x7f]")
#: What ``quote`` leaves as it is: a path of these alone (most paths)
#: is sent unchecked.
_UNESCAPED = string.ascii_letters + string.digits + "_.-~" + _PATH_SAFE

#: Path parameters that may span segments: blob names are paths.
_SPANNING = {"blob"}

_SERVICES = {"blob": Service.BLOB, "queue": Service.QUEUE,
             "table": Service.TABLE}

#: What a service partitions by (paper IV.A-C): a route's ``key`` unless
#: it names its own.
_PARTITIONED_BY = {"blob": "container/blob", "queue": "queue",
                   "table": "partition_key"}

#: Headers every request of a service carries ahead of its route's own.
_SERVICE_HEADERS = {"table": (
    ("Content-Type", "application/json"),
    ("Accept", "application/json;odata=minimalmetadata"))}


class _Path:
    """A path template below ``/{account}``: literal text and ``{param}``s.

    A parameter between quotes is OData-quoted (``'`` doubled); every
    parameter is percent-encoded, here and nowhere else.
    """

    def __init__(self, template: str) -> None:
        pieces = re.split(r"\{(\w+)\}", template)
        self.literals = pieces[::2]
        self.names = tuple(pieces[1::2])
        self.quoted = tuple(text.endswith("'")
                            for text in self.literals[:-1])
        #: The template with its parameters unnamed: routes that share
        #: a shape share its regex alternative.
        self.shape = "{}".join(self.literals)
        self.pattern = re.escape(self.literals[0]) + "".join(
            ("((?:[^']|'')*)" if quoted else
             "(.+)" if name in _SPANNING else "([^/]+)") + re.escape(text)
            for name, quoted, text in zip(self.names, self.quoted,
                                          self.literals[1:]))

    def escaped(self, *fields: Any) -> str:
        """The path of ``fields`` (OData-quoted already) percent-encoded;
        a ``ValueError`` if one holds a control character."""
        path = self.shape.format(*fields)
        if _CONTROL.search(path):
            raise ValueError(f"path {path!r} holds control characters")
        return self.shape.format(*(quote(f"{field}", safe=_PATH_SAFE)
                                   for field in fields))


class Route:
    """One ``(client, op)`` of the wire: its HTTP shape, reply and rules.

    ``query`` and ``headers`` hold, in wire order, fixed ``(key, value)``
    discriminators and the :class:`Slot` of each of the op's parameters;
    ``body`` carries the rest.  ``kind`` (``None``: a registry-local
    read, no descriptor), ``key`` (the arguments the partition is made
    of, ``/``-joined, or a function of them; the service's rule if not
    given) and ``cost`` (its size fields) make the descriptor.
    ``route`` is ``one`` (the partition's owners), ``broadcast`` (every
    shard) or ``fanout`` (every shard, the results through ``merge``,
    which takes the ``withheld`` arguments the shards do not get).
    ``alias`` is the data node's pseudo-op.
    """

    def __init__(self, client: str, op: str, method: str, path: str, *,
                 query: tuple = (), headers: tuple = (),
                 body: Optional[Body] = None, reply: Reply = _CREATED,
                 kind: Optional[OpKind] = None, key: Any = "",
                 cost: Optional[Callable[[Mapping[str, Any]],
                                         Dict[str, int]]] = None,
                 route: str = "one", merge: Optional[Callable] = None,
                 withheld: Tuple[str, ...] = (),
                 result_nbytes: Optional[Callable[[Any], int]] = None,
                 alias: Optional[str] = None) -> None:
        self.client, self.op, self.method = client, op, method
        self.path = _Path(path)
        # Fixed discriminators go on the wire first, and the server
        # compares them in any case.
        self.query = tuple(item for item in query
                           if isinstance(item, (Param, Slot)))
        self.headers = tuple(item for item in headers
                             if isinstance(item, (Param, Slot)))
        fixed_query = [item for item in query if item not in self.query]
        fixed_headers = [item for item in headers
                         if item not in self.headers]
        self.sent_query = dict(fixed_query)
        self.sent_headers = dict(_SERVICE_HEADERS.get(client, ()))
        self.sent_headers.update(fixed_headers)
        self.query_checks = [(key, value.lower())
                             for key, value in fixed_query]
        self.header_checks = [(key.lower(), value.lower())
                              for key, value in fixed_headers]
        self.body, self.reply = body, reply
        self.kind, self.cost, self.route = kind, cost, route
        self.merge, self.withheld = merge, withheld
        self.result_nbytes, self.alias = result_nbytes, alias
        self.key = key or _PARTITIONED_BY[client]

        #: The registry op's parameters, its ``call`` argument left out.
        self.params = list(inspect.signature(
            OPERATIONS[client][op].body).parameters.values())[1:]
        slots = self.query + self.headers
        carried = {*self.path.names, *(body.names if body else ()),
                   *(name for slot in slots for name in slot.names)}
        by_name = {name for slot in slots if slot.keyword
                   for name in slot.names}
        sent = [p for p in self.params
                if p.name in carried and p.name not in withheld]
        self.positional = tuple(
            p.name for p in sent if p.kind is p.POSITIONAL_OR_KEYWORD
            and p.name not in by_name)
        self.keywords = tuple(p.name for p in sent
                              if p.name not in self.positional)
        #: The wire cannot carry these: a call must leave them alone.
        self.uncarried = {p.name: p.default for p in self.params
                          if p.name not in carried}

    # A route compiles on its first call, one side at a time: a server
    # decodes the routes it is sent and never encodes.  The function then
    # stands in for the method, on the row and in ``ENCODERS`` or
    # ``_CANDIDATES``; two threads compiling a route at once install equal
    # functions.

    def encode(self, *args: Any, **kwargs: Any) -> WireCall:
        """The call's :class:`WireCall`."""
        encode = self.__dict__.get("encode")
        if encode is None:
            encode = self.encode = ENCODERS[self.client, self.op] = \
                _compile(self, "encode")
        return encode(*args, **kwargs)

    def decode(self, req: HttpRequest, path_values: Any) -> Optional[DecodedOp]:
        """The request's :class:`DecodedOp`, ``None`` if not this route's."""
        decode = self.__dict__.get("decode")
        if decode is None:
            decode = self.decode = _compile(self, "decode")
            tried = _CANDIDATES[self.client, self.method, self.path.shape]
            tried[:] = [decode if getattr(d, "__self__", None) is self else d
                        for d in tried]
        return decode(req, path_values)


def _compile(route: Route, side: str) -> Callable:
    """The route's encoder or decoder (``side``), one function made from
    the row: the registry op's own signature binds a call, and each
    discriminator, slot, codec, default and the path format is a literal
    or a name."""
    scope: Dict[str, Any] = {
        "WireCall": WireCall, "DecodedOp": DecodedOp, "partial":
        functools.partial, "HttpResponse": HttpResponse,
        "OpDescriptor": OpDescriptor, "UNESCAPED": _UNESCAPED}

    def name(value: Any) -> str:
        scope[f"_{len(scope)}"] = value
        return f"_{len(scope) - 1}"

    signature: List[str] = []
    for p in route.params:
        if p.kind is p.KEYWORD_ONLY and "*" not in signature:
            signature.append("*")
        signature.append(p.name if p.default is p.empty
                         else f"{p.name}={name(p.default)}")
    values = ", ".join(f"{p.name!r}: {p.name}" for p in route.params)
    enc = [f"def {route.op}({', '.join(signature)}):",
           f"    _values = {{{values}}}"]
    enc += [f"    if {param} != {name(default)}: raise NotImplementedError("
            f"'{route.client}.{route.op}({param}=...) is not part of the "
            f"wire subset')" for param, default in route.uncarried.items()]
    dec = [f"def decode_{route.op}(req, path_values):",
           "    found, headers = req.query, req.headers"]
    dec += [f"    if {out}.get({key!r}, '').lower() != {expected!r}: return"
            for out, checks in (("found", route.query_checks),
                                ("headers", route.header_checks))
            for key, expected in checks]
    dec.append("    values = {%s}" % ", ".join(
        f"{param!r}: path_values[{i}]"
        for i, param in enumerate(route.path.names)))
    for out, sent, slots in (("found", route.sent_query, route.query),
                             ("headers", route.sent_headers, route.headers)):
        enc.append(f"    _{out} = {sent!r}")
        for slot in slots:
            if isinstance(slot, Slot):
                enc.append(f"    {name(slot.put)}(_values, _{out})")
                dec.append(f"    if not {name(slot.take)}({out}, values): "
                           f"return")
                continue
            put = f"_{out}[{slot.key!r}] = {name(slot.write)}({slot.name})"
            enc.append(f"    {put}" if slot.default is _REQUIRED else
                       f"    if {slot.name} != {name(slot.default)}: {put}")
            read = f"{name(slot.read)}(text)"
            take = f"values[{slot.name!r}] = " + (
                f"{name(slot.default)} if text is None else {read}"
                if slot.restore and slot.default is not _REQUIRED else read)
            dec += [f"    text = {out}.get({slot.lookup!r})",
                    f"    if text is None: return\n    {take}"
                    if slot.default is _REQUIRED else f"    {take}"
                    if slot.restore else f"    if text is not None: {take}"]
    fields = ", ".join(f"{name(_odata_quote)}({param})" if quoted else param
                       for param, quoted in zip(route.path.names,
                                                route.path.quoted))
    body = f"{name(route.body.write)}(_values)" if route.body else "b''"
    enc += [f"    path = {route.path.shape!r}.format({fields})",
            f"    if path.rstrip(UNESCAPED): path = "
            f"{name(route.path.escaped)}({fields})",
            f"    return WireCall({route.client!r}, {route.method!r}, path, "
            f"_found, _headers, {body}, lambda status, headers, body: "
            f"{name(route.reply.parse)}(_values, headers, body))"]

    if route.body is not None:
        dec.append(f"    values.update({name(route.body.read)}(req.body))")
    withheld = "".join(f", {param}=values.pop({param!r})"
                       for param in route.withheld)
    dec += [f"    merge = partial({name(route.merge)}{withheld})"
            if withheld else f"    merge = {name(route.merge)}",
            "    kwargs = {}"]
    dec += [f"    if {param!r} in values: "
            f"kwargs[{param!r}] = values[{param!r}]" for param in route.keywords]
    partition = descriptor = "None"
    if route.kind is not None or route.route == "one":
        dec.append("    partition = " + (
            f"{name(route.key)}(values)" if callable(route.key) else
            " + '/' + ".join(f"values[{part!r}]"
                             for part in route.key.split("/"))))
        partition = "partition"
    if route.kind is not None:
        cost = f", **{name(route.cost)}(values)" if route.cost else ""
        descriptor = (f"OpDescriptor({name(_SERVICES[route.client])}, "
                      f"{name(route.kind)}, partition{cost})")
    args = "".join(f"values[{param!r}], " for param in route.positional)
    dec.append(
        f"    return DecodedOp({route.client!r}, {route.alias or route.op!r},"
        f" ({args}), kwargs, {descriptor}, {route.route!r}, "
        f"{partition if route.route == 'one' else None}, lambda result: "
        f"HttpResponse({route.reply.status}, "
        f"*{name(route.reply.encode)}(values, result)), merge=merge, "
        f"result_nbytes={name(route.result_nbytes)})")
    exec(compile("\n".join(enc if side == "encode" else dec),
                 f"<route {route.client}.{route.op}>", "exec"), scope)
    return scope[route.op if side == "encode" else f"decode_{route.op}"]


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

def _data_bytes(values: Mapping[str, Any]) -> Dict[str, int]:
    return {"nbytes": values["data"].size}


def _entity_bytes(values: Mapping[str, Any]) -> Dict[str, int]:
    return {"nbytes": Entity(values["partition_key"], values["row_key"],
                             values["properties"]).size}


def _batch_partition(values: Mapping[str, Any]) -> str:
    ops = values["operations"]
    return ops[0].partition_key if ops else values["table"]


def _batch_cost(values: Mapping[str, Any]) -> Dict[str, int]:
    ops = values["operations"]
    return {"nbytes": sum(Entity(o.partition_key, o.row_key,
                                 o.properties or {}).size for o in ops),
            "units": max(1, len(ops))}


_CONTAINER = ("restype", "container")
_BLOB_PATH = "/{container}/{blob}"
_MESSAGES_PATH = "/{queue}/messages"
_MESSAGE_PATH = "/{queue}/messages/{message_id}"
_ENTITY_PATH = "/{table}(PartitionKey='{partition_key}',RowKey='{row_key}')"
_VISIBILITY = _param("visibility_timeout", "visibilitytimeout", _NUMBER,
                     default=None)
_POP_RECEIPT = _param("pop_receipt", "popreceipt", _RECEIPT)
_IF_MATCH = _param("etag", "If-Match", _ETAG, header=True)
_SELECT = _param("select", "$select", _NAMES, default=None)
_PREFIX = _param("prefix", "prefix", default="")

#: Routes that share a method and path shape are tried in this order.
ROUTES: Tuple[Route, ...] = (
    # -- blob ---------------------------------------------------------------
    Route("blob", "create_container", "PUT", "/{name}", query=(_CONTAINER,),
          kind=OpKind.CREATE_CONTAINER, key="name", route="broadcast"),
    Route("blob", "delete_container", "DELETE", "/{name}",
          query=(_CONTAINER,), reply=_ACCEPTED,
          kind=OpKind.DELETE_CONTAINER, key="name", route="broadcast"),
    Route("blob", "list_blobs", "GET", "/{container}",
          query=(_CONTAINER, ("comp", "list"), _PREFIX),
          reply=_names_reply("Blob"), route="fanout", merge=_merge_names),
    Route("blob", "put_block", "PUT", _BLOB_PATH,
          query=(("comp", "block"), _param("block_id", "blockid")),
          body=_CONTENT_BODY, kind=OpKind.PUT_BLOCK, cost=_data_bytes),
    Route("blob", "put_block_list", "PUT", _BLOB_PATH,
          query=(("comp", "blocklist"),),
          headers=(_param("merge", f"{_EXT}merge-commit", _FLAG,
                          default=False, header=True),),
          body=_BLOCK_LIST_BODY, kind=OpKind.PUT_BLOCK_LIST,
          cost=lambda v: {"block_count": len(v["block_ids"])}),
    Route("blob", "put_page", "PUT", _BLOB_PATH, query=(("comp", "page"),),
          headers=(_range(page=True),), body=_CONTENT_BODY,
          kind=OpKind.PUT_PAGE, cost=_data_bytes),
    Route("blob", "create_page_blob", "PUT", _BLOB_PATH,
          headers=(("x-ms-blob-type", "PageBlob"),
                   _param("max_size", "x-ms-blob-content-length", _INT,
                          header=True)),
          kind=OpKind.CREATE_CONTAINER),  # a metadata-cost op
    Route("blob", "upload_blob", "PUT", _BLOB_PATH,
          headers=(("x-ms-blob-type", "BlockBlob"),), body=_CONTENT_BODY,
          kind=OpKind.UPLOAD_BLOB, cost=_data_bytes),
    Route("blob", "block_count", "GET", _BLOB_PATH,
          query=(("comp", "blocklist"),), reply=_BLOCK_COUNT),
    Route("blob", "get_block", "GET", _BLOB_PATH,
          query=(("comp", "block"), _param("index", "blockindex", _INT)),
          reply=_CONTENT, kind=OpKind.GET_BLOCK, result_nbytes=_content_size),
    Route("blob", "get_page", "GET", _BLOB_PATH,
          headers=(_range(page=False),), reply=_PAGE, kind=OpKind.GET_PAGE,
          cost=lambda v: {"nbytes": v["length"]},
          result_nbytes=lambda pair: _content_size(pair[0]),
          alias="_get_page"),
    # Only the data node knows a blob's flavour; it downloads either.
    Route("blob", "download_block_blob", "GET", _BLOB_PATH, reply=_CONTENT,
          kind=OpKind.DOWNLOAD_BLOB, result_nbytes=_content_size,
          alias="_download"),
    Route("blob", "download_page_blob", "GET", _BLOB_PATH, reply=_CONTENT,
          kind=OpKind.DOWNLOAD_BLOB, result_nbytes=_content_size,
          alias="_download"),
    Route("blob", "delete_blob", "DELETE", _BLOB_PATH, reply=_ACCEPTED,
          kind=OpKind.DELETE_BLOB),
    # -- queue --------------------------------------------------------------
    Route("queue", "create_queue", "PUT", "/{name}",
          kind=OpKind.CREATE_QUEUE, key="name", route="broadcast"),
    Route("queue", "delete_queue", "DELETE", "/{name}", reply=_NO_CONTENT,
          kind=OpKind.DELETE_QUEUE, key="name", route="broadcast"),
    Route("queue", "list_queues", "GET", "/",
          query=(("comp", "list"), _PREFIX),
          reply=_names_reply("Queue"), route="fanout", merge=_merge_names),
    Route("queue", "get_message_count", "GET", "/{queue}",
          query=(("comp", "metadata"),), reply=_MESSAGE_COUNT,
          kind=OpKind.GET_MESSAGE_COUNT),
    Route("queue", "put_message", "POST", _MESSAGES_PATH,
          query=(_param("ttl", "messagettl", _NUMBER, omit=None),
                 _param("visibility_delay", "visibilitytimeout", _NUMBER,
                        omit=0.0)),
          body=_MESSAGE_BODY, reply=_message_reply(201, text=False),
          kind=OpKind.PUT_MESSAGE, cost=_data_bytes),
    Route("queue", "peek_message", "GET", _MESSAGES_PATH,
          query=(("peekonly", "true"),),
          reply=_message_reply(200, peeked=True),
          kind=OpKind.PEEK_MESSAGE, result_nbytes=_content_size),
    Route("queue", "get_messages", "GET", _MESSAGES_PATH,
          query=(_param("n", "numofmessages", _INT), _VISIBILITY),
          reply=_MESSAGES, kind=OpKind.GET_MESSAGE,
          cost=lambda v: {"units": max(1, v["n"])}, result_nbytes=_sizes),
    Route("queue", "get_message", "GET", _MESSAGES_PATH,
          query=(_VISIBILITY,), reply=_message_reply(200),
          kind=OpKind.GET_MESSAGE, result_nbytes=_content_size),
    Route("queue", "delete_message", "DELETE", _MESSAGE_PATH,
          query=(_POP_RECEIPT,), reply=_NO_CONTENT,
          kind=OpKind.DELETE_MESSAGE),
    Route("queue", "update_message", "PUT", _MESSAGE_PATH,
          query=(_POP_RECEIPT,
                 _param("visibility_timeout", "visibilitytimeout", _NUMBER)),
          body=_UPDATE_BODY,
          reply=Reply(204, _updated_message, _parse_updated_message),
          kind=OpKind.UPDATE_MESSAGE,
          cost=lambda v: {"nbytes": _content_size(v["data"])}),
    # -- table --------------------------------------------------------------
    Route("table", "create_table", "POST", "/Tables", body=_TABLE_NAME_BODY,
          reply=_TABLE_CREATED, kind=OpKind.CREATE_TABLE, key="name",
          route="broadcast"),
    Route("table", "delete_table", "DELETE", "/Tables('{name}')",
          reply=_NO_CONTENT, kind=OpKind.DELETE_TABLE, key="name",
          route="broadcast"),
    Route("table", "insert", "POST", "/{table}", body=_ENTITY_BODY,
          reply=_entity_written(201), kind=OpKind.INSERT_ENTITY,
          cost=_entity_bytes),
    Route("table", "get", "GET", _ENTITY_PATH, reply=_ENTITY,
          kind=OpKind.QUERY_ENTITY, result_nbytes=lambda entity: entity.size),
    Route("table", "update", "PUT", _ENTITY_PATH, headers=(_IF_MATCH,),
          body=_PROPERTIES_BODY, reply=_entity_written(204),
          kind=OpKind.UPDATE_ENTITY, cost=_entity_bytes),
    Route("table", "insert_or_replace", "PUT", _ENTITY_PATH,
          body=_PROPERTIES_BODY, reply=_entity_written(204),
          kind=OpKind.UPDATE_ENTITY, cost=_entity_bytes),
    Route("table", "merge", "MERGE", _ENTITY_PATH, headers=(_IF_MATCH,),
          body=_PROPERTIES_BODY, reply=_entity_written(204),
          kind=OpKind.MERGE_ENTITY, cost=_entity_bytes),
    Route("table", "insert_or_merge", "MERGE", _ENTITY_PATH,
          body=_PROPERTIES_BODY, reply=_entity_written(204),
          kind=OpKind.MERGE_ENTITY, cost=_entity_bytes),
    Route("table", "delete", "DELETE", _ENTITY_PATH, headers=(_IF_MATCH,),
          reply=_NO_CONTENT, kind=OpKind.DELETE_ENTITY),
    Route("table", "query_partition", "GET", "/{table}()",
          query=(_partition_filter(), _SELECT), reply=_ENTITIES,
          kind=OpKind.QUERY_ENTITY, result_nbytes=_sizes),
    # The shards scan unpaged; the merge pages (and sees the whole table).
    Route("table", "query", "GET", "/{table}()",
          query=(_param("filter", "$filter", _FILTER, default=None,
                        keyword=True),
                 _param("top", "$top", _INT, default=None), _SELECT,
                 _continuation()),
          reply=Reply(200, _query_page, _parse_query_page),
          kind=OpKind.QUERY_ENTITY, key="table", route="fanout",
          merge=_merge_query, withheld=("top", "continuation"),
          result_nbytes=lambda result: _sizes(result.entities)),
    Route("table", "execute_batch", "POST", "/$batch", body=_BATCH_BODY,
          reply=_BATCH_RESULTS, kind=OpKind.BATCH, key=_batch_partition,
          cost=_batch_cost),
)

ENCODERS: Dict[Tuple[str, str], Callable[..., WireCall]] = {
    (route.client, route.op): route.encode for route in ROUTES}


def _shapes(service: str):
    """One regex telling a path's shape, and per alternative's group the
    shape and where its values sit in ``match.groups()``."""
    paths: Dict[str, _Path] = {}
    for route in ROUTES:
        if route.client == service:
            paths.setdefault(route.path.shape, route.path)
    # The most literal shape first: ``Tables('t')`` is no table of that name.
    ordered = sorted(paths.values(),
                     key=lambda path: -len("".join(path.literals)))
    alternatives, groups, index = [], {}, 1
    for path in ordered:
        alternatives.append(f"({path.pattern})")
        groups[index] = (path.shape, index, index + len(path.names),
                         path.quoted)
        index += 1 + len(path.names)
    return re.compile("|".join(alternatives)), groups


_SHAPES = {service: _shapes(service) for service in _SERVICES}
_CANDIDATES: Dict[Tuple[str, str, str], List[Callable]] = {}
for _route in ROUTES:
    _CANDIDATES.setdefault((_route.client, _route.method, _route.path.shape),
                           []).append(_route.decode)


def decode_request(service: str, account: str,
                   req: HttpRequest) -> DecodedOp:
    """Resolve one wire request against the ``service`` listener."""
    cause = None
    try:
        head, _, rest = req.path.lstrip("/").partition("/")
        if head != account:
            raise ResourceNotFoundError(f"unknown account path {req.path!r}")
        regex, groups = _SHAPES[service]
        match = regex.fullmatch("/" + rest)
        if match is not None:
            shape, first, last, quoted = groups[match.lastindex]
            path_values = match.groups()[first:last]
            if any(quoted):  # values between quotes double their quotes
                path_values = [_odata_unquote(v) if q else v
                               for v, q in zip(path_values, quoted)]
            for decode in _CANDIDATES.get((service, req.method, shape), ()):
                decoded = decode(req, path_values)
                if decoded is not None:
                    return decoded
    except StorageError:
        raise
    except Exception as exc:
        cause = exc
    # A request the table never anticipated must still come back as a
    # decodable storage error, not a bare 400 (or a 500).
    raise UnknownResourceError(
        f"cannot resolve {req.method} {req.target!r} against the "
        f"{service} endpoint") from cause
