"""The wire client's own HTTP link: framing, reconnects, timeouts.

``ServiceConnection`` speaks HTTP/1.1 over a bare socket.  These tests
pin what it inherited from ``http.client`` (kept here as the reference
implementation): the bytes of a request, the retry on a stale
keep-alive socket, ``Connection: close``, and an ``OSError`` — never a
hang — for a reply that is cut short, malformed or missing.
"""

import asyncio
import http.client
import socket
import threading
import time
from urllib.parse import quote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import client as client_mod
from repro.service import sharedkey
from repro.service.client import ServiceConnection, _read_response
from repro.service.httpd import read_request
from repro.service.sharedkey import DEV_ACCOUNT, DEV_KEY
from repro.service.wire import ENCODERS, WIRE_VERSION, _http_date
from repro.storage.errors import ServerBusyError, StorageError

FROZEN_NOW = 1_790_000_000.25
PAYLOAD = b"x" * 4096

#: Every op the benchmark suites and figure bodies send, plus the ones
#: with a query string, extra headers, or a body on an unusual method.
CALLS = [
    ("queue", "create_queue", ("linkq",), {}),
    ("queue", "put_message", ("linkq", PAYLOAD), {}),
    ("queue", "put_message", ("linkq", b"m"), {"ttl": 60.0,
                                              "visibility_delay": 2.0}),
    ("queue", "peek_message", ("linkq",), {}),
    ("queue", "get_message", ("linkq",), {"visibility_timeout": 3600.0}),
    ("queue", "get_messages", ("linkq", 8), {}),
    ("queue", "delete_message", ("linkq", "id-1", "rcpt+/="), {}),
    ("queue", "update_message", ("linkq", "id-1", "rcpt", b"new"),
     {"visibility_timeout": 5.0}),
    ("queue", "get_message_count", ("linkq",), {}),
    ("queue", "list_queues", ("li",), {}),
    ("table", "create_table", ("linkt",), {}),
    ("table", "insert", ("linkt", "pk", "rk", {"v": "a" * 4096}), {}),
    ("table", "insert_or_replace", ("linkt", "pk", "rk", {"v": "b"}), {}),
    ("table", "insert_or_merge", ("linkt", "pk", "rk", {"v": "c"}), {}),
    ("table", "get", ("linkt", "pk", "it's"), {}),
    ("table", "update", ("linkt", "pk", "rk", {"v": "d"}),
     {"etag": 'W/"3"'}),
    ("table", "delete", ("linkt", "pk", "rk"), {}),
    ("table", "query_partition", ("linkt", "pk"), {}),
    ("blob", "create_container", ("linkc",), {}),
    ("blob", "upload_blob", ("linkc", "blob0", PAYLOAD), {}),
    ("blob", "download_block_blob", ("linkc", "blob0"), {}),
    ("blob", "put_block", ("linkc", "blob0", "block-1", PAYLOAD), {}),
    ("blob", "put_block_list", ("linkc", "blob0", ["block-1"]), {}),
    ("blob", "get_page", ("linkc", "page0", 512, 1024), {}),
    ("blob", "list_blobs", ("linkc", "bl"), {}),
    ("blob", "delete_blob", ("linkc", "blob0"), {}),
]


def drain(sock) -> bytes:
    """Everything already written to the other end of a socketpair."""
    sock.setblocking(False)
    data = b""
    try:
        while True:
            chunk = sock.recv(1 << 20)
            if not chunk:
                break
            data += chunk
    except BlockingIOError:
        pass
    return data


def reference_bytes(call) -> bytes:
    """What the ``http.client`` link of the parent commit sent."""
    path = f"/{DEV_ACCOUNT}{call.path}"
    query = {k: str(v) for k, v in call.query.items()}
    headers = dict(call.headers)
    headers["x-ms-date"] = _http_date(FROZEN_NOW)
    headers["x-ms-version"] = WIRE_VERSION
    signable = dict(headers)
    signable["Content-Length"] = str(len(call.body))
    headers["Authorization"] = sharedkey.sign_request(
        DEV_ACCOUNT, DEV_KEY, call.method, path, query, signable,
        table_flavor=(call.service == "table"))
    target = path
    if query:
        target += "?" + "&".join(
            f"{quote(k, safe='')}={quote(v, safe='')}"
            for k, v in query.items())
    ours, theirs = socket.socketpair()
    with ours, theirs:
        conn = http.client.HTTPConnection("127.0.0.1", 10001)
        conn.sock = ours
        conn.request(call.method, target, body=call.body or None,
                     headers=headers)
        return drain(theirs)


def parse(raw: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, "test")
    return asyncio.run(run())


@pytest.mark.parametrize("kind,op,args,kwargs", CALLS,
                         ids=[f"{c[0]}.{c[1]}" for c in CALLS])
def test_request_bytes_match_http_client(monkeypatch, kind, op, args, kwargs):
    monkeypatch.setattr(client_mod.time, "time", lambda: FROZEN_NOW)
    call = ENCODERS[(kind, op)](*args, **kwargs)
    conn = ServiceConnection({call.service: ("127.0.0.1", 10001)})
    ours, theirs = socket.socketpair()
    with ours, theirs:
        conn._conns[call.service] = ours
        theirs.sendall(b"HTTP/1.1 400 Bad Request\r\n"
                       b"Content-Length: 0\r\n\r\n")
        with pytest.raises(StorageError):
            conn.exchange(call)
        sent = drain(theirs)
    assert sent == reference_bytes(call)
    request = parse(sent)
    assert request.method == call.method
    assert request.body == call.body
    sharedkey.verify_request(
        DEV_KEY, request.method, request.path, request.query,
        request.headers, request.header("authorization"),
        table_flavor=(call.service == "table"))


class ChoppedSocket:
    """``recv`` hands out a byte string in pre-cut pieces, then EOF."""

    def __init__(self, data: bytes, cuts) -> None:
        edges = [0] + sorted(cuts) + [len(data)]
        self.pieces = [data[a:b] for a, b in zip(edges, edges[1:]) if b > a]

    def recv(self, n: int) -> bytes:
        if not self.pieces:
            return b""
        piece = self.pieces[0]
        if len(piece) > n:
            self.pieces[0] = piece[n:]
            return piece[:n]
        return self.pieces.pop(0)


CANNED_BODY = b"<QueueMessagesList>" + b"m" * 300 + b"</QueueMessagesList>"
CANNED = (b"HTTP/1.1 201 Created\r\nContent-Type: application/xml\r\n"
          b"x-ms-request-id: sn0-00000042\r\nX-Ms-Version:  2012-02-12 \r\n"
          b"Content-Length: %d\r\nConnection: keep-alive\r\n\r\n"
          % len(CANNED_BODY)) + CANNED_BODY


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=len(CANNED)),
                max_size=12))
def test_response_parses_the_same_however_it_is_cut(cuts):
    status, headers, body = _read_response(ChoppedSocket(CANNED, cuts))
    assert status == 201
    assert headers == {
        "content-type": "application/xml",
        "x-ms-request-id": "sn0-00000042", "x-ms-version": "2012-02-12",
        "content-length": str(len(CANNED_BODY)), "connection": "keep-alive"}
    assert body == CANNED_BODY


@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",       # short body
    b"HTTP/1.1 200 OK\r\nContent-Le",                            # short head
    b"garbage\r\n\r\n",
    b"SMTP/1.0 200 OK\r\nContent-Length: 0\r\n\r\n",
    b"HTTP/1.1 two-hundred OK\r\nContent-Length: 0\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
    b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nab",          # overrun
    b"HTTP/1.1 200 OK\r\n" + b"X-Pad: " + b"p" * 70000,          # no end
])
def test_bad_replies_raise_oserror_not_connection_error(reply):
    with pytest.raises(OSError) as caught:
        _read_response(ChoppedSocket(reply, []))
    # ConnectionError would be retried as a stale keep-alive socket.
    assert not isinstance(caught.value, ConnectionError)


def test_eof_before_any_byte_is_a_stale_socket():
    with pytest.raises(ConnectionError):
        _read_response(ChoppedSocket(b"", []))


OK_REPLY = b"HTTP/1.1 201 Created\r\nContent-Length: 0\r\n\r\n"


class ScriptedServer:
    """A TCP server that answers each request with the next scripted step.

    A step is ``("reply", bytes)``, ``("reply-close", bytes)`` (answer,
    then close the socket without saying so), ``("close",)`` (close
    instead of answering) or ``("silent",)`` (never answer).
    """

    def __init__(self, script) -> None:
        self.script = list(script)
        self.requests = []
        self.accepted = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)
        self.endpoint = self.listener.getsockname()
        self._stop = threading.Event()
        self._held = []
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _read_one(self, sock):
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            if not chunk:
                return None
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(body) < length:
            body += sock.recv(65536)
        return head + b"\r\n\r\n" + body

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                sock, _ = self.listener.accept()
            except socket.timeout:
                continue
            self.accepted += 1
            sock.settimeout(2.0)
            try:
                while True:
                    raw = self._read_one(sock)
                    if raw is None:
                        break
                    self.requests.append(raw)
                    step = self.script.pop(0)
                    if step[0] == "silent":
                        self._held.append(sock)
                        sock = None
                        break
                    if step[0] == "close":
                        break
                    sock.sendall(step[1])
                    if step[0] == "reply-close":
                        break
            except OSError:
                pass
            finally:
                if sock is not None:
                    sock.close()

    def close(self) -> None:
        self._stop.set()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()
        self.listener.close()
        for sock in self._held:
            sock.close()


@pytest.fixture
def scripted():
    servers = []

    def make(script, **kwargs):
        server = ScriptedServer(script)
        servers.append(server)
        conn = ServiceConnection({"queue": server.endpoint}, **kwargs)
        return server, conn

    yield make
    for server in servers:
        server.close()


CREATE = ENCODERS[("queue", "create_queue")]


def test_stale_keep_alive_reconnects_once(scripted):
    server, conn = scripted([("reply-close", OK_REPLY), ("reply", OK_REPLY)])
    conn.exchange(CREATE("first"))
    time.sleep(0.1)  # let the server's close reach this end
    conn.exchange(CREATE("second"))
    assert server.accepted == 2
    assert b"/second " in server.requests[-1]
    conn.close()


def test_second_consecutive_failure_raises(scripted):
    server, conn = scripted([("close",), ("close",), ("reply", OK_REPLY)])
    with pytest.raises(ConnectionError):
        conn.exchange(CREATE("doomed"))
    assert server.accepted == 2
    assert conn._conns == {}
    conn.exchange(CREATE("healed"))
    conn.close()


def test_connection_close_is_honoured(scripted):
    closing = (b"HTTP/1.1 201 Created\r\nContent-Length: 0\r\n"
               b"Connection: close\r\n\r\n")
    server, conn = scripted([("reply", closing), ("reply", OK_REPLY),
                             ("reply", OK_REPLY)])
    conn.exchange(CREATE("one"))
    assert conn._conns == {}
    conn.exchange(CREATE("two"))
    conn.exchange(CREATE("three"))  # plain keep-alive: same socket
    assert server.accepted == 2
    conn.close()


@pytest.mark.parametrize("reply", [
    b"HTTP/1.1 201 Created\r\nContent-Length: 10\r\n\r\nabc",
    b"garbage\r\n\r\n",
])
def test_broken_reply_raises_and_drops_the_socket(scripted, reply):
    server, conn = scripted([("reply-close", reply), ("reply", OK_REPLY)])
    with pytest.raises(OSError):
        conn.exchange(CREATE("broken"))
    assert server.accepted == 1  # not retried: the request may have run
    assert conn._conns == {}
    conn.exchange(CREATE("after"))
    conn.close()


def test_silent_server_times_out(scripted):
    server, conn = scripted([("silent",)], timeout=0.3)
    started = time.monotonic()
    with pytest.raises(OSError):
        conn.exchange(CREATE("unanswered"))
    assert time.monotonic() - started < 2.0
    assert conn._conns == {}


def test_busy_retry_is_redated_and_resigned(scripted, monkeypatch):
    ticks = iter(range(10))
    monkeypatch.setattr(client_mod.time, "time",
                        lambda: FROZEN_NOW + 5 * next(ticks))
    busy = (b"HTTP/1.1 503 Service Unavailable\r\n"
            b"x-ms-error-code: ServerBusy\r\nRetry-After: 0\r\n"
            b"Content-Length: 0\r\n\r\n")
    server, conn = scripted([("reply", busy), ("reply", OK_REPLY)],
                            busy_retries=1)
    conn.exchange(CREATE("busyq"))
    first, second = (parse(raw) for raw in server.requests)
    assert first.header("x-ms-date") != second.header("x-ms-date")
    assert first.header("authorization") != second.header("authorization")
    for request in (first, second):
        sharedkey.verify_request(
            DEV_KEY, request.method, request.path, request.query,
            request.headers, request.header("authorization"))
    conn.close()

    server, conn = scripted([("reply", busy)])  # busy_retries=0: surfaced
    with pytest.raises(ServerBusyError):
        conn.exchange(CREATE("busyq"))
    conn.close()


def test_one_request_is_one_sendall(monkeypatch):
    monkeypatch.setattr(client_mod.time, "time", lambda: FROZEN_NOW)

    class Counting:
        def __init__(self, sock):
            self.sock, self.sendalls = sock, []

        def sendall(self, data):
            self.sendalls.append(len(data))
            self.sock.sendall(data)

        def recv(self, n):
            return self.sock.recv(n)

        def close(self):
            self.sock.close()

    for body_bytes, sends in ((4096, 1), (1 << 20, 2)):
        call = ENCODERS[("blob", "upload_blob")]("c", "b", b"z" * body_bytes)
        conn = ServiceConnection({"blob": ("127.0.0.1", 10001)})
        ours, theirs = socket.socketpair()
        with ours, theirs:
            link = conn._conns["blob"] = Counting(ours)
            reader = threading.Thread(
                target=lambda: (ScriptedServer._read_one(None, theirs),
                                theirs.sendall(OK_REPLY)))
            reader.start()
            conn.exchange(call)
            reader.join(timeout=5)
            assert not reader.is_alive()
        assert len(link.sendalls) == sends
        assert sum(link.sendalls) > body_bytes


def test_line_breaks_cannot_be_injected():
    conn = ServiceConnection({"queue": ("127.0.0.1", 1)})
    with pytest.raises(ValueError):
        conn.exchange(CREATE("q HTTP/1.1\r\nX-Injected: 1"))
    call = CREATE("fineq")
    call.headers["If-Match"] = "x\r\nX-Injected: 1"
    ours, theirs = socket.socketpair()
    with ours, theirs:
        conn._conns["queue"] = ours
        with pytest.raises(ValueError):
            conn.exchange(call)
        assert drain(theirs) == b""
