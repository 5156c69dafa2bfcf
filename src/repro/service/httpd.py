"""A dependency-free asyncio HTTP/1.1 substrate for the service tier.

The container image carries no aiohttp, so the service nodes speak
HTTP/1.1 over plain ``asyncio`` streams: a small, strict parser
(request line, headers, ``Content-Length`` bodies, keep-alive) that is
enough for the Azurite wire subset and for real SDK clients, which all
send well-formed ``Content-Length`` requests.

* :class:`HttpRequest` / :class:`HttpResponse` — the parsed exchange.
* :func:`serve` — bind a handler coroutine to a listening socket.
* :func:`read_request` / :func:`write_response` — the framing.

The SN->DN hop does not go through this module: it is a plain call
inside the event loop (see :mod:`repro.service.datanode`).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Tuple
from urllib.parse import unquote

__all__ = [
    "HttpError",
    "HttpRequest",
    "HttpResponse",
    "parse_head",
    "read_request",
    "write_response",
    "serve",
]

#: Largest accepted request body: one 4 MB block plus generous headroom.
MAX_BODY_BYTES = 8 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024
#: A body shorter than this rides in the same send as its head.
COALESCE_BYTES = 64 * 1024


class HttpError(Exception):
    """Malformed message framing (maps to a 400 close)."""


def framed(head: bytes, body: bytes) -> Tuple[bytes, ...]:
    """The sends one message takes, for the server and the client alike.

    A small body joins its head (one syscall, one packet); copying a
    large one behind the head would cost more than the second send.
    """
    return (head + body,) if len(body) < COALESCE_BYTES else (head, body)


def parse_head(head: bytes) -> Tuple[str, Dict[str, str], int]:
    """One HTTP/1.x message head -> ``(start line, headers, body length)``.

    The tier's only head parser: :func:`read_request` reads requests
    through it and the wire client reads responses through it, so both
    ends reject the same lies.  Header names are lower-cased;
    ``Content-Length`` must be plain decimal digits and repeated copies
    must agree.
    """
    lines = head.decode("latin-1").split("\r\n")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(f"bad header line {line!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise HttpError("conflicting Content-Length headers")
        headers[name] = value
    if headers.get("transfer-encoding"):
        raise HttpError("chunked transfer encoding not supported")
    length = headers.get("content-length") or "0"
    if not (length.isascii() and length.isdigit()):
        raise HttpError(f"bad Content-Length {length!r}")
    return lines[0], headers, int(length)


def parse_qs_flat(raw: str) -> Dict[str, str]:
    """Query string -> flat dict (the wire subset never repeats keys)."""
    out: Dict[str, str] = {}
    for part in raw.split("&"):
        if not part:
            continue
        key, _, value = part.partition("=")
        out[unquote(key)] = unquote(value)
    return out


@dataclass
class HttpRequest:
    """One parsed request; header names are lower-cased on ingest."""

    method: str
    target: str                      # the raw request-target
    path: str                        # decoded path, no query string
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes
    peer: str = ""

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)


@dataclass
class HttpResponse:
    """One response; ``Content-Length`` is always set by the writer."""

    status: int
    headers: List[Tuple[str, str]] = field(default_factory=list)
    body: bytes = b""

    reason: str = ""

    _REASONS = {
        200: "OK", 201: "Created", 202: "Accepted", 204: "No Content",
        206: "Partial Content", 304: "Not Modified", 400: "Bad Request",
        403: "Forbidden", 404: "Not Found", 405: "Method Not Allowed",
        409: "Conflict", 412: "Precondition Failed",
        413: "Request Entity Too Large", 416: "Requested Range Not Satisfiable",
        500: "Internal Server Error", 501: "Not Implemented",
        503: "Service Unavailable",
    }

    def reason_phrase(self) -> str:
        return self.reason or self._REASONS.get(self.status, "Unknown")


async def read_request(reader: asyncio.StreamReader,
                       peer: str = "") -> Optional[HttpRequest]:
    """Read one request off the stream; ``None`` on clean EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # connection closed between requests
        raise HttpError("truncated request head") from None
    except asyncio.LimitOverrunError:
        raise HttpError("request head exceeds limit") from None
    if len(head) > MAX_HEADER_BYTES:
        raise HttpError("request head too large")
    start, headers, length = parse_head(head)
    try:
        method, target, version = start.split(" ", 2)
    except ValueError:
        raise HttpError(f"bad request line {start!r}") from None
    if not version.startswith("HTTP/1."):
        raise HttpError(f"unsupported protocol {version!r}")
    if length > MAX_BODY_BYTES:
        raise HttpError(f"body of {length} B exceeds {MAX_BODY_BYTES} B")
    body = await reader.readexactly(length) if length else b""
    path, _, raw_query = target.partition("?")
    return HttpRequest(
        method=method.upper(), target=target, path=unquote(path),
        query=parse_qs_flat(raw_query), headers=headers, body=body,
        peer=peer,
    )


async def write_response(writer: asyncio.StreamWriter,
                         response: HttpResponse, *,
                         keep_alive: bool = True) -> None:
    body = response.body
    head = [f"HTTP/1.1 {response.status} {response.reason_phrase()}"]
    names = {name.lower() for name, _ in response.headers}
    head.extend(f"{name}: {value}" for name, value in response.headers)
    if "content-length" not in names:
        head.append(f"Content-Length: {len(body)}")
    if "connection" not in names:
        head.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    for piece in framed(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"),
                        body):
        writer.write(piece)
    await writer.drain()


Handler = Callable[[HttpRequest], Awaitable[HttpResponse]]
ErrorResponder = Callable[[HttpError], HttpResponse]


async def _connection(reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter,
                      handler: Handler,
                      error_responder: Optional[ErrorResponder] = None
                      ) -> None:
    peername = writer.get_extra_info("peername")
    peer = f"{peername[0]}:{peername[1]}" if peername else "?"
    try:
        while True:
            try:
                request = await read_request(reader, peer)
            except HttpError as exc:
                # Let the application shape the error body (the storage
                # tier answers with its XML <Error> document); fall back
                # to a bare 400 close.
                response = (error_responder(exc) if error_responder
                            else HttpResponse(400))
                await write_response(writer, response, keep_alive=False)
                break
            if request is None:
                break
            response = await handler(request)
            close = (request.header("connection").lower() == "close")
            await write_response(writer, response, keep_alive=not close)
            if close:
                break
    except (ConnectionError, asyncio.IncompleteReadError):
        pass  # peer went away mid-exchange; nothing to salvage
    except asyncio.CancelledError:
        pass  # loop teardown: finish cleanly, not "cancelled"
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError,
                asyncio.CancelledError):  # pragma: no cover - teardown race
            pass


async def serve(handler: Handler, host: str = "127.0.0.1",
                port: int = 0, *,
                error_responder: Optional[ErrorResponder] = None
                ) -> asyncio.AbstractServer:
    """Start an HTTP server; the bound port is on ``server.sockets``."""
    server = await asyncio.start_server(
        lambda r, w: _connection(r, w, handler, error_responder),
        host, port, limit=MAX_HEADER_BYTES,
    )
    return server


def bound_port(server: asyncio.AbstractServer) -> int:
    return server.sockets[0].getsockname()[1]
