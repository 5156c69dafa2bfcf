"""The wire codec read the slow way: oracles of ``repro.service.wire``.

``wire`` compiles each :class:`~repro.service.wire.Route` row into one
encoder and one decoder function at import, and reads queue-message XML
with expat handlers.  Here the same rows are *interpreted* on every
call, and the same documents are read through an element tree, so the
tests can hold the fast paths to what the table and the XML say.
"""

import base64
import email.utils
import functools
import inspect
import re
import xml.etree.ElementTree as ET
from urllib.parse import quote

from repro.cluster.ops import OpDescriptor
from repro.service import wire
from repro.service.httpd import HttpResponse
from repro.storage.content import BytesContent
from repro.storage.errors import ResourceNotFoundError
from repro.storage.queue.state import QueueMessage


def _put(slot, values, out):
    if isinstance(slot, wire.Slot):
        slot.put(values, out)
    elif values[slot.name] != slot.default:
        out[slot.key] = slot.write(values[slot.name])


def _take(slot, found, values):
    if isinstance(slot, wire.Slot):
        return slot.take(found, values)
    text = found.get(slot.lookup)
    if text is not None:
        values[slot.name] = slot.read(text)
    elif slot.default is wire._REQUIRED:
        return False
    elif slot.restore:
        values[slot.name] = slot.default
    return True


def build_path(path, values):
    """The path of a call: most need no escaping, and are sent unchecked."""
    fields = [wire._odata_quote(values[name]) if quoted else f"{values[name]}"
              for name, quoted in zip(path.names, path.quoted)]
    built = path.shape.format(*fields)
    if built.rstrip(wire._UNESCAPED):
        if re.search(r"[\x00-\x1f\x7f]", built):
            raise ValueError(f"path {built!r} holds control characters")
        built = path.shape.format(*(quote(field, safe=wire._PATH_SAFE)
                                    for field in fields))
    return built


def encode(route, *args, **kwargs):
    """The HTTP exchange of one call, and the parser of its reply."""
    bound = inspect.Signature(route.params).bind(*args, **kwargs)
    bound.apply_defaults()
    values = dict(bound.arguments)
    for name, default in route.uncarried.items():
        if values[name] != default:
            raise NotImplementedError(
                f"{route.client}.{route.op}({name}=...) is not part of "
                f"the wire subset")
    query = dict(route.sent_query)
    for slot in route.query:
        _put(slot, values, query)
    headers = dict(route.sent_headers)
    for slot in route.headers:
        _put(slot, values, headers)
    return wire.WireCall(
        route.client, route.method, build_path(route.path, values), query,
        headers, route.body.write(values) if route.body else b"",
        lambda status, headers, body: route.reply.parse(values, headers,
                                                        body))


def decode(route, req, path_values):
    """The registry call ``req`` makes, or ``None``: not this route's."""
    for key, expected in route.query_checks:
        if req.query.get(key, "").lower() != expected:
            return None
    for key, expected in route.header_checks:
        if req.headers.get(key, "").lower() != expected:
            return None
    values = dict(zip(route.path.names, path_values))
    for slot in route.query:
        if not _take(slot, req.query, values):
            return None
    for slot in route.headers:
        if not _take(slot, req.headers, values):
            return None
    if route.body is not None:
        values.update(route.body.read(req.body))
    withheld = {name: values.pop(name) for name in route.withheld}
    kwargs = {name: values[name] for name in route.keywords
              if name in values}
    partition = None
    if route.kind is not None or route.route == "one":
        partition = (route.key(values) if callable(route.key) else "/".join(
            values[part] for part in route.key.split("/")))
    descriptor = None
    if route.kind is not None:
        descriptor = OpDescriptor(
            wire._SERVICES[route.client], route.kind, partition,
            **(route.cost(values) if route.cost else {}))
    reply = route.reply
    return wire.DecodedOp(
        route.client, route.alias or route.op,
        tuple(values[name] for name in route.positional), kwargs,
        descriptor, route.route,
        partition if route.route == "one" else None,
        lambda result: HttpResponse(reply.status,
                                    *reply.encode(values, result)),
        merge=(functools.partial(route.merge, **withheld) if withheld
               else route.merge),
        result_nbytes=route.result_nbytes)


def decode_request(service, account, req):
    """``wire.decode_request`` with every candidate route interpreted."""
    cause = None
    try:
        head, _, rest = req.path.lstrip("/").partition("/")
        if head != account:
            raise ResourceNotFoundError(f"unknown account path {req.path!r}")
        regex, groups = wire._SHAPES[service]
        match = regex.fullmatch("/" + rest)
        if match is not None:
            shape, first, last, quoted = groups[match.lastindex]
            path_values = [wire._odata_unquote(v) if q else v for v, q in zip(
                match.groups()[first:last], quoted)]
            for route in wire.ROUTES:
                if (route.client, route.method, route.path.shape) \
                        == (service, req.method, shape):
                    decoded = decode(route, req, path_values)
                    if decoded is not None:
                        return decoded
    except wire.StorageError:
        raise
    except Exception as exc:
        cause = exc
    raise wire.UnknownResourceError("unresolved") from cause


# -- queue-message XML through an element tree -------------------------------

def _epoch_from(el, ext, rfc):
    raw = el.findtext(ext)
    if raw is not None:
        return float(raw)
    date = el.findtext(rfc)
    if not date:
        return 0.0
    return email.utils.parsedate_to_datetime(date).timestamp()


def parse_messages_xml(body):
    root = ET.fromstring(body.decode("utf-8"))
    return [QueueMessage(
        message_id=el.findtext("MessageId") or "",
        content=BytesContent(base64.b64decode(
            el.findtext("MessageText") or "")),
        insertion_time=_epoch_from(el, "InsertionTimeEpoch", "InsertionTime"),
        expiration_time=_epoch_from(
            el, "ExpirationTimeEpoch", "ExpirationTime"),
        next_visible_time=_epoch_from(
            el, "TimeNextVisibleEpoch", "TimeNextVisible"),
        dequeue_count=int(el.findtext("DequeueCount") or "0"),
        pop_receipt=el.findtext("PopReceipt"),
    ) for el in root.iter("QueueMessage")]


def queue_text(body):
    root = ET.fromstring(body.decode("utf-8"))
    return BytesContent(base64.b64decode(root.findtext("MessageText") or ""))
