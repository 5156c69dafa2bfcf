"""Synchronous wire clients: the registry surface over real HTTP.

:class:`ServiceConnection` is a minimal 2012-era SDK: one keep-alive
socket per service (``TCP_NODELAY``, one send per request, replies parsed
by the same head parser the server reads requests with), SharedKey
signing on every request, and error bodies decoded back into the same
:mod:`repro.storage.errors` hierarchy the in-process backends raise — so
retry loops and fault-handling benchmark bodies run unchanged.  A call
is sent once: a 503 ServerBusy reaches the caller's retry loop, as on
every other backend.

The ``Wire*Client`` classes are derived from the operation registry like
every other backend's clients: each method encodes its call through
:mod:`repro.service.wire`, sends it, and parses the reply.  They are
generator *shims* (never-yielding, like the emulator's), so sim-style
bodies (``yield from client.op(...)``) drive a live cluster unchanged.

A connection is **not** thread-safe; give each worker thread its own
(the ``ServiceBackend`` does).
"""

from __future__ import annotations

import re
import socket
import time
from typing import Any, Dict, Mapping, Tuple
from urllib.parse import quote, unquote

from ..pipeline import OpSpec, derive_client_class
from . import sharedkey
from .httpd import MAX_HEADER_BYTES, HttpError, framed, parse_head
from .wire import ENCODERS, WIRE_VERSION, WireCall, _http_date, \
    response_to_error

__all__ = [
    "ServiceConnection",
    "WireBlobClient",
    "WireQueueClient",
    "WireTableClient",
    "wire_clients",
]


#: What a request-target may not carry (the wire table escapes names).
_NOT_IN_TARGET = re.compile(r"[\x00-\x20\x7f]")


class ServiceConnection:
    """Signed keep-alive HTTP connections to one service node."""

    def __init__(self, endpoints: Mapping[str, Tuple[str, int]],
                 account: str = sharedkey.DEV_ACCOUNT,
                 key: str = sharedkey.DEV_KEY, *,
                 timeout: float = 30.0) -> None:
        self.endpoints = dict(endpoints)
        self.account = account
        self.key = key
        self.timeout = timeout
        self._conns: Dict[str, socket.socket] = {}

    def close(self) -> None:
        for sock in self._conns.values():
            sock.close()
        self._conns.clear()

    def _connection(self, service: str) -> socket.socket:
        sock = self._conns.get(service)
        if sock is None:
            sock = socket.create_connection(self.endpoints[service],
                                            timeout=self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._conns[service] = sock
        return sock

    def _drop(self, service: str) -> None:
        self._conns.pop(service).close()

    def exchange(self, call: WireCall) -> Any:
        """Send one encoded call once; return its parsed result or raise.

        A 503 ServerBusy reply raises like any other error, its
        ``Retry-After`` hint on the exception: retrying is the caller's
        policy (:func:`repro.sim.retry.retrying`, the resilience
        policies), not the connection's.
        """
        path = f"/{self.account}{call.path}"
        query = {k: str(v) for k, v in call.query.items()}
        headers = dict(call.headers)
        headers["x-ms-date"] = _http_date(time.time())
        headers["x-ms-version"] = WIRE_VERSION
        signable = dict(headers)
        signable["Content-Length"] = str(len(call.body))
        # Signed as the server reads it: the path percent-decoded.
        headers["Authorization"] = sharedkey.sign_request(
            self.account, self.key, call.method, unquote(path), query,
            signable, table_flavor=(call.service == "table"))
        target = path
        if query:
            target += "?" + "&".join(
                f"{quote(k, safe='')}={quote(v, safe='')}"
                for k, v in query.items())
        status, resp_headers, body = self._send(
            call.service, call.method, target, headers, call.body)
        if status >= 400:
            raise response_to_error(status, resp_headers, body,
                                    table=(call.service == "table"))
        return call.parse(status, resp_headers, body)

    def _send(self, service: str, method: str, target: str,
              headers: Mapping[str, str], body: bytes):
        host, port = self.endpoints[service]
        if _NOT_IN_TARGET.search(target):
            raise ValueError(f"request target {target!r} holds whitespace "
                             f"or control characters")
        lines = [f"{method} {target} HTTP/1.1", f"Host: {host}:{port}",
                 "Accept-Encoding: identity"]
        if body or method in ("PUT", "POST", "PATCH"):
            lines.append(f"Content-Length: {len(body)}")
        lines.extend(f"{k}: {v}" for k, v in headers.items())
        if any("\r" in line or "\n" in line for line in lines):
            raise ValueError("line break inside a request header")
        pieces = framed(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1"), body)
        for attempt in (0, 1):
            sock = self._connection(service)
            try:
                for piece in pieces:
                    sock.sendall(piece)
                status, resp_headers, payload = _read_response(sock)
            except ConnectionError:
                # A stale keep-alive socket; rebuild it once.
                self._drop(service)
                if attempt:
                    raise
                continue
            except BaseException:
                # Timed out or malformed: whatever else is in flight on
                # this socket must not answer the next request.
                self._drop(service)
                raise
            if resp_headers.get("connection", "").lower() == "close":
                self._drop(service)
            return status, resp_headers, payload
        raise RuntimeError("unreachable")  # pragma: no cover


def _read_response(sock: socket.socket) -> Tuple[int, Dict[str, str], bytes]:
    """Read one ``Content-Length``-framed reply off a keep-alive socket.

    ``ConnectionError`` when the peer closed before the first byte (a
    stale keep-alive socket, safe to retry); any other ``OSError`` for a
    reply that is truncated, oversized, malformed or late.
    """
    buf = b""
    while True:
        end = buf.find(b"\r\n\r\n")
        if end >= 0:
            break
        if len(buf) > MAX_HEADER_BYTES:
            raise OSError("response head exceeds limit")
        chunk = sock.recv(65536)
        if not chunk:
            if buf:
                raise OSError("truncated response head")
            raise ConnectionResetError("server closed the connection")
        buf += chunk
    try:
        start, headers, length = parse_head(buf[:end + 4])
        version, status = start.split(" ", 2)[:2]
        if not version.startswith("HTTP/1."):
            raise HttpError(f"unsupported protocol {version!r}")
        status = int(status)
    except (HttpError, ValueError) as exc:
        raise OSError(f"malformed response: {exc}") from None
    chunks = [buf[end + 4:]]
    missing = length - len(chunks[0])
    while missing > 0:
        chunk = sock.recv(min(missing, 1 << 20))
        if not chunk:
            raise OSError(f"truncated response body ({missing} B short)")
        chunks.append(chunk)
        missing -= len(chunk)
    if missing < 0:
        raise OSError("response runs past its Content-Length")
    return status, headers, b"".join(chunks)


def _wire_method(spec: OpSpec):
    """``spec`` sent over the wire by its route's compiled encoder.

    A never-yielding generator, or for a registry-local read (the state
    is remote here) a plain call, as on every other backend.
    """
    key = (spec.client, spec.name)

    def call(self, *args, **kwargs):
        # Looked up per call: a route's encoder is compiled on first use.
        encode = ENCODERS.get(key)
        if encode is None:
            raise NotImplementedError(
                f"{spec.client}.{spec.name} has no wire encoding; run this "
                f"workload on the sim or emulator backend")
        return self.connection.exchange(encode(*args, **kwargs))

    def method(self, *args, **kwargs):
        return call(self, *args, **kwargs)
        yield  # pragma: no cover -- marks this as a generator function

    method = call if spec.local else method
    method.__name__ = spec.name
    method.__doc__ = spec.body.__doc__
    return method


class _WireClientBase:
    """Plumbing every derived wire client shares."""

    def __init__(self, connection: ServiceConnection) -> None:
        self.connection = connection
        self.env = None  # the backend sets this (QueueBarrier clock source)


_WIRE_DOC = "Registry client over the service tier's HTTP wire."

WireBlobClient, WireQueueClient, WireTableClient = (
    derive_client_class(name, kind, _WireClientBase,
                        method_factory=_wire_method,
                        local_factory=_wire_method, doc=_WIRE_DOC)
    for name, kind in (("WireBlobClient", "blob"),
                       ("WireQueueClient", "queue"),
                       ("WireTableClient", "table")))


def wire_clients(connection: ServiceConnection) -> Dict[str, Any]:
    """The blob, queue and table clients of one connection, by service."""
    return {"blob": WireBlobClient(connection),
            "queue": WireQueueClient(connection),
            "table": WireTableClient(connection)}
