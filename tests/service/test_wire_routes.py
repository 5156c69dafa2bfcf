"""The route table, held to both of its directions.

Every ``(client, op)`` of the wire is one row of ``wire.ROUTES``; the
client encoder and the server decoder are both derived from it.  Here:

* a generated round trip over every route: random arguments go encode
  -> ``ServiceConnection`` framing -> ``read_request`` ->
  ``decode_request`` and come out as the registry call the client made,
  and a random result goes ``DecodedOp.encode`` -> ``WireCall.parse``
  and comes back whole — except where :data:`LOSSY` says why not;
* the drifts the two hand-written copies had reached: ``$top`` dropped
  on a one-partition filter, float arguments cut to six digits, and
  names that need percent-encoding answering 403 (or never leaving the
  client) — the last as service == emulator over generated names, which
  also covers a blob name ending in ``/`` (the server stripped it).
"""

import inspect
import socket

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.emulator import EmulatorAccount
from repro.pipeline import OPERATIONS
from repro.service import sharedkey
from repro.service.client import ServiceConnection, wire_clients
from repro.service.sharedkey import DEV_ACCOUNT, DEV_KEY
from repro.service.wire import ENCODERS, ROUTES, decode_request
from repro.storage.content import BytesContent, Content
from repro.storage.errors import StorageError
from repro.storage.queue.state import QueueMessage
from repro.storage.table.entity import Entity
from repro.storage.table.state import BatchOperation, QueryResult
from repro.wallclock import exhaust
from tests.service.test_client_link import drain, parse

BUSY = b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n"


def sent(call):
    """The request ``ServiceConnection`` writes for ``call``, as parsed."""
    conn = ServiceConnection({call.service: ("127.0.0.1", 10001)})
    ours, theirs = socket.socketpair()
    with ours, theirs:
        conn._conns[call.service] = ours
        theirs.sendall(BUSY)
        with pytest.raises(StorageError):
            conn.exchange(call)
        request = parse(drain(theirs))
    sharedkey.verify_request(
        DEV_KEY, request.method, request.path, request.query,
        request.headers, request.header("authorization"),
        table_flavor=(call.service == "table"))
    return request


def decode(call):
    return decode_request(call.service, DEV_ACCOUNT, sent(call))


# -- what a value looks like once it is back ---------------------------------

def view(value):
    """A comparable form: contents as bytes, entities and messages as dicts."""
    if isinstance(value, Content):
        return value.to_bytes()
    if isinstance(value, Entity):
        return {"pk": value.partition_key, "rk": value.row_key,
                "props": view(value.properties()), "etag": value.etag,
                "ts": value.timestamp}
    if isinstance(value, QueueMessage):
        return {name: view(getattr(value, name)) for name in (
            "message_id", "content", "insertion_time", "expiration_time",
            "next_visible_time", "dequeue_count", "pop_receipt")}
    if isinstance(value, QueryResult):
        return {"entities": view(value.entities),
                "continuation": view(value.continuation)}
    if isinstance(value, BatchOperation):
        return (value.kind, value.partition_key, value.row_key,
                view(value.properties), value.etag)
    if isinstance(value, dict):
        return {k: view(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [view(v) for v in value]
    return value


def without(key):
    """What survives when ``key`` does not (``None`` stays ``None``)."""
    return lambda values, seen: seen and {
        k: v for k, v in seen.items() if k != key}


#: Replies the 2012 wire does not carry whole: (client, op) -> (why, what
#: of the result survives).
LOSSY = {
    ("queue", "update_message"): (
        "the API's 204 has no body: an update with data=None keeps the "
        "stored content, which the client cannot see and returns empty",
        lambda values, seen: (without("content")(values, seen)
                              if values["data"] is None else seen)),
    ("queue", "peek_message"): (
        "a peek shows no pop receipt; the state machine's snapshot still "
        "holds the one of the message's last get",
        without("pop_receipt")),
    ("table", "merge"): (
        "the 204 has no body: the client returns the properties it sent, "
        "not the merged bag", without("props")),
    ("table", "insert_or_merge"): (
        "the 204 has no body: the client returns the properties it sent, "
        "not the merged bag", without("props")),
}

#: Calls the server answers with another registry op, on purpose:
#: (op, op run) -> (why, the op's result made of the one run).
REWRITES = {
    ("query", "query_partition"): (
        "an unpaged one-partition filter scans the owning shard only",
        lambda entities: QueryResult(entities, continuation=None)),
}

#: The data node's pseudo-ops, by the registry op they stand for.
ALIASES = {"_download": "download_block_blob", "_get_page": "get_page"}


def as_called(client, op, args, kwargs):
    """A registry call by parameter name, defaults filled in."""
    body = OPERATIONS[client][ALIASES.get(op, op)].body
    bound = inspect.signature(body).bind(None, *args, **kwargs)
    bound.apply_defaults()
    return view({k: v for k, v in bound.arguments.items() if k != "call"})


def partition_filter(pk, inner):
    text = "PartitionKey eq '" + pk.replace("'", "''") + "'"
    return text if inner is None else f"{text} and ({inner})"


# -- argument and result strategies ------------------------------------------

#: Namespace names as the naming rules allow them.
namespace = st.from_regex(r"[a-z][a-z0-9]{2,10}", fullmatch=True)
#: Free text as a path segment can carry it: no control characters (the
#: wire refuses them) and no ``/`` (segments of a path are split at it).
segment = st.text(st.characters(blacklist_categories=("Cc", "Cs"),
                                blacklist_characters="/"),
                  min_size=1, max_size=12)
#: Keys and blob names: a ``/`` is theirs to keep.
key = st.text(st.characters(blacklist_categories=("Cc", "Cs")),
              min_size=1, max_size=12)
#: Text XML 1.0 can carry (listings, message ids, block ids).
xml_text = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Cn")),
                   max_size=12)
seconds = st.floats(min_value=0.0, max_value=1e7, allow_nan=False)
prop_name = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,8}", fullmatch=True)
prop_value = st.one_of(st.text(max_size=8), st.booleans(),
                       st.integers(-2 ** 53, 2 ** 53), st.binary(max_size=8),
                       st.floats(allow_nan=False, allow_infinity=False))
properties = st.dictionaries(prop_name, prop_value, max_size=3).filter(
    lambda props: not props.keys() & {"PartitionKey", "RowKey", "Timestamp"})
entities = st.builds(
    Entity, key, key, properties, etag=xml_text,
    timestamp=st.floats(0, 4e9))
messages = st.builds(
    QueueMessage, message_id=xml_text,
    content=st.binary(max_size=16).map(BytesContent),
    insertion_time=st.floats(0, 4e9), expiration_time=st.floats(0, 4e9),
    next_visible_time=st.floats(0, 4e9),
    dequeue_count=st.integers(0, 99),
    pop_receipt=st.one_of(st.none(), xml_text.filter(bool)))

ARGUMENTS = {
    "name": namespace, "container": namespace, "queue": namespace,
    "table": namespace,
    "blob": key, "partition_key": key, "row_key": key, "message_id": segment,
    "block_id": xml_text, "pop_receipt": st.text(max_size=8),
    "prefix": st.text(max_size=8),
    # A header value, as the service mints them (``None`` goes as ``*``).
    "etag": st.one_of(st.just("*"), st.from_regex(
        r'W/"[\x21\x23-\x7e]{0,12}"', fullmatch=True)),
    "data": st.binary(min_size=1, max_size=600),
    "block_ids": st.lists(xml_text, max_size=4),
    "merge": st.booleans(),
    "max_size": st.integers(0, 2 ** 40), "index": st.integers(0, 50000),
    "offset": st.integers(0, 2 ** 40), "length": st.integers(1, 2 ** 30),
    "n": st.integers(1, 32),
    "ttl": st.one_of(st.none(), seconds), "visibility_delay": seconds,
    "visibility_timeout": st.one_of(st.none(), seconds),
    "properties": properties,
    "select": st.one_of(st.none(), st.lists(prop_name, max_size=3)),
    "top": st.one_of(st.none(), st.integers(1, 1000)),
    "continuation": st.one_of(st.none(), st.tuples(key, key)),
    "operations": st.lists(st.builds(
        BatchOperation, st.sampled_from(["insert", "update", "delete"]),
        key, key, st.one_of(st.none(), properties),
        st.one_of(st.none(), st.text(max_size=8))), max_size=3),
    # What the wire does not carry keeps its default.
    "lease_id": st.none(), "delete_snapshots": st.just(False),
    "written_only": st.just(True),
}
FILTERS = st.one_of(st.none(), st.text(max_size=12),
                    st.builds(partition_filter, key,
                              st.one_of(st.none(), st.text(max_size=12))))


def arguments(client, op):
    """Every parameter of the registry op, drawn by its name."""
    params = inspect.signature(OPERATIONS[client][op].body).parameters
    drawn = {name: ARGUMENTS.get(name) for name in list(params)[1:]}
    if "filter" in drawn:
        drawn["filter"] = (FILTERS if op == "query" else
                           st.one_of(st.none(), st.text(max_size=12)))
    if op == "update_message":  # may keep the content; always a delay
        drawn["data"] = st.one_of(st.none(), ARGUMENTS["data"])
        drawn["visibility_timeout"] = seconds
    return st.fixed_dictionaries(drawn)


def check_paging(merge, top, continuation):
    """The shards scan unpaged: their merge must page like one table."""
    keys = [("a", "1"), ("a", "2"), ("b", "1"), ("c", "0"), ("c", "9")]
    table = EmulatorAccount().table_client()
    table.create_table("pages")
    for pk, rk in keys:
        table.insert("pages", pk, rk, {})
    one = table.query("pages", top=top, continuation=continuation)
    rows = [Entity(pk, rk, {}) for pk, rk in keys]
    merged = merge([QueryResult(rows[::2]), QueryResult(rows[1::2])])
    assert ([e.key for e in merged.entities], merged.continuation) \
        == ([e.key for e in one.entities], one.continuation)


def results(op, values):
    """A result the server end of ``op`` might encode for this call."""
    written = st.builds(
        Entity, st.just(values.get("partition_key")),
        st.just(values.get("row_key")), st.just(values.get("properties")),
        etag=xml_text, timestamp=st.floats(0, 4e9))
    if op in ("merge", "insert_or_merge"):
        written = st.builds(  # the merged bag holds more than was sent
            lambda extra, entity: Entity(
                entity.partition_key, entity.row_key,
                {**extra, **entity.properties()}, etag=entity.etag,
                timestamp=entity.timestamp), properties, written)
    if op == "update_message":
        data = values["data"]
        content = (st.just(BytesContent(bytes(data))) if data is not None
                   else st.binary(max_size=16).map(BytesContent))
        return st.builds(
            QueueMessage, message_id=st.just(values["message_id"]),
            content=content, insertion_time=st.floats(0, 4e9),
            expiration_time=st.floats(0, 4e9),
            next_visible_time=st.floats(0, 4e9),
            dequeue_count=st.integers(0, 99),
            pop_receipt=xml_text.filter(bool))
    return {
        "list_blobs": st.lists(xml_text), "list_queues": st.lists(xml_text),
        "block_count": st.integers(0, 50000),
        "get_block": st.binary(max_size=64).map(BytesContent),
        "_download": st.binary(max_size=64).map(BytesContent),
        "_get_page": st.tuples(st.binary(max_size=64).map(BytesContent),
                               st.integers(0, 2 ** 40)),
        "put_message": st.one_of(st.none(), messages),
        "get_message": st.one_of(st.none(), messages),
        "peek_message": st.one_of(st.none(), messages),
        "get_messages": st.lists(messages, max_size=3),
        "get_message_count": st.integers(0, 10 ** 6),
        "get": entities, "insert": entities,
        "update": written, "insert_or_replace": written,
        "merge": written, "insert_or_merge": written,
        "query_partition": st.lists(entities, max_size=3),
        "query": st.builds(QueryResult, st.lists(entities, max_size=3),
                           st.one_of(st.none(), st.tuples(key, key))),
        "execute_batch": st.lists(st.one_of(st.none(), entities),
                                  max_size=3),
    }.get(op, st.none())


# -- the round trip ----------------------------------------------------------

def test_the_table_has_a_route_for_each_encoder():
    assert len(ROUTES) == len(ENCODERS) == 36
    assert {(r.client, r.op) for r in ROUTES} == set(ENCODERS)


@pytest.mark.parametrize("client,op", sorted(ENCODERS),
                         ids=[f"{c}.{o}" for c, o in sorted(ENCODERS)])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_round_trip(client, op, data):
    values = data.draw(arguments(client, op), label="arguments")
    call = ENCODERS[(client, op)](**values)
    decoded = decode(call)
    assert decoded.client == client

    # The request: the registry call the client made.
    made = as_called(client, op, (), values)
    got = as_called(client, decoded.op, decoded.args, decoded.kwargs)
    if decoded.op != op and decoded.op not in ALIASES:
        assert (op, decoded.op) in REWRITES
        assert made.pop("filter") == partition_filter(
            got.pop("partition_key"), got.pop("filter"))
        assert (made.pop("top"), made.pop("continuation")) == (None, None)
    elif decoded.route == "fanout" and "top" in made:
        check_paging(decoded.merge, values["top"], values["continuation"])
        got.update(top=made["top"], continuation=made["continuation"])
    assert got == {name: seen for name, seen in made.items() if name in got}

    # The reply: the result the server encoded, as the client parses it.
    result = data.draw(results(decoded.op, values), label="result")
    response = decoded.encode(result)
    headers = {name.lower(): text for name, text in response.headers}
    back = view(call.parse(response.status, headers, response.body))
    if (op, decoded.op) in REWRITES:
        expected = view(REWRITES[(op, decoded.op)][1](result))
    else:
        expected = view(result[0] if decoded.op == "_get_page" else result)
    if (client, op) in LOSSY:
        _, survives = LOSSY[(client, op)]
        back, expected = survives(values, back), survives(values, expected)
    assert back == expected


# -- the drifts the two hand-written copies had reached ----------------------

def drive(value):
    """A wire client's call (a never-yielding generator) or a plain one."""
    return exhaust(value) if inspect.isgenerator(value) else value


@pytest.fixture(scope="module")
def service(cluster):
    clients = wire_clients(ServiceConnection(cluster.endpoints(0)))
    drive(clients["blob"].create_container("routenames"))
    drive(clients["table"].create_table("routetbl"))
    yield clients
    clients["blob"].connection.close()


def emulator():
    account = EmulatorAccount()
    clients = {"blob": account.blob_client(), "table": account.table_client()}
    clients["blob"].create_container("routenames")
    clients["table"].create_table("routetbl")
    return clients


def test_top_is_kept_on_a_one_partition_filter(service):
    pages = []
    for clients in (service, emulator()):
        table = clients["table"]
        drive(table.create_table("pagedtbl"))
        for i in range(5):
            drive(table.insert("pagedtbl", "p", f"r{i}", {"i": i}))
        first = drive(table.query("pagedtbl", "PartitionKey eq 'p'", top=2))
        second = drive(table.query("pagedtbl", "PartitionKey eq 'p'", top=2,
                                   continuation=first.continuation))
        unpaged = drive(table.query("pagedtbl", "PartitionKey eq 'p'"))
        pages.append([(r.continuation, [e.row_key for e in r.entities])
                      for r in (first, second, unpaged)])
    assert pages[0] == pages[1] == [
        (("p", "r1"), ["r0", "r1"]), (("p", "r3"), ["r2", "r3"]),
        (None, ["r0", "r1", "r2", "r3", "r4"])]


@pytest.mark.parametrize("op,args,kwargs", [
    ("put_message", ("q1", b"m"),
     {"ttl": 123.456789, "visibility_delay": 0.1234567}),
    ("get_message", ("q1",), {"visibility_timeout": 0.1234567}),
    ("get_messages", ("q1", 2), {"visibility_timeout": 1 / 3}),
    ("update_message", ("q1", "id", "rcpt"), {"visibility_timeout": 2 / 3}),
])
def test_float_arguments_keep_every_digit(op, args, kwargs):
    decoded = decode(ENCODERS[("queue", op)](*args, **kwargs))
    assert decoded.kwargs == kwargs


def test_floats_that_fit_six_digits_keep_their_bytes():
    call = ENCODERS[("queue", "put_message")](
        "q1", b"m", ttl=60.0, visibility_delay=2.5)
    assert call.query == {"messagettl": "60", "visibilitytimeout": "2.5"}


def outcome(method, *args, pick=lambda result: result):
    try:
        return view(pick(drive(method(*args))))
    except StorageError as exc:
        return exc.error_code


#: Names need no more than the 2012 API allows them: no control characters
#: (the wire refuses them before sending) and nothing XML 1.0 cannot carry
#: (U+FFFE, U+FFFF: a listing could not name them).
names = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Cn")),
                min_size=1, max_size=16)


@settings(max_examples=40, deadline=None)
@given(name=names)
@example(name="a%b")
@example(name="a%41b")
@example(name="a?b")
@example(name="a b")
@example(name="#frag")
@example(name="dir/a?b c")
@example(name="it's")
@example(name="end/")
def test_names_address_the_same_objects_as_on_the_emulator(service, name):
    def script(clients):
        blob, table = clients["blob"], clients["table"]
        return [
            outcome(blob.upload_blob, "routenames", name, b"payload"),
            outcome(blob.download_block_blob, "routenames", name),
            outcome(blob.list_blobs, "routenames",
                    pick=lambda listed: [n for n in listed if n == name]),
            outcome(blob.delete_blob, "routenames", name),
            outcome(table.insert_or_replace, "routetbl", name, name,
                    {"v": name}, pick=lambda entity: entity["v"]),
            outcome(table.get, "routetbl", name, name,
                    pick=lambda entity: entity["v"]),
            outcome(table.query_partition, "routetbl", name,
                    pick=lambda found: [e.row_key for e in found]),
            outcome(table.delete, "routetbl", name, name),
        ]
    assert script(service) == script(emulator())
