"""HTTP framing: the shared head parser, hostile lengths, one write.

``parse_head`` serves both directions (requests on the server, replies
on the client), so its rejections are tested once here and end to end:
a lying ``Content-Length`` must come back as a decodable ``400`` with
``Connection: close``, never as a dropped socket.
"""

import asyncio
import socket

import pytest

from repro.service.httpd import (
    COALESCE_BYTES,
    HttpError,
    HttpResponse,
    parse_head,
    read_request,
    write_response,
)


def test_parse_head_splits_and_lowercases():
    start, headers, length = parse_head(
        b"POST /a/b?c=d HTTP/1.1\r\nHost: h\r\nX-Ms-Date:  today \r\n"
        b"Content-Length: 12\r\ncontent-length: 12\r\n\r\n")
    assert start == "POST /a/b?c=d HTTP/1.1"
    assert headers == {"host": "h", "x-ms-date": "today",
                       "content-length": "12"}
    assert length == 12
    assert parse_head(b"GET / HTTP/1.1\r\n\r\n") == ("GET / HTTP/1.1", {}, 0)
    assert parse_head(b"GET / HTTP/1.1\r\nContent-Length:\r\n\r\n")[2] == 0


@pytest.mark.parametrize("lines", [
    b"Content-Length: abc", b"Content-Length: -5", b"Content-Length: +5",
    b"Content-Length: 1e3", b"Content-Length: 0x10",
    "Content-Length: ٣".encode("utf-8"),
    b"Content-Length: 5\r\nContent-Length: 6",
    b"Transfer-Encoding: chunked", b"no colon here",
])
def test_parse_head_rejects(lines):
    with pytest.raises(HttpError):
        parse_head(b"PUT /x HTTP/1.1\r\n" + lines + b"\r\n\r\n")


def test_read_request_raises_http_error_for_hostile_length():
    async def read(raw):
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, "peer")

    for value in (b"abc", b"-5"):
        with pytest.raises(HttpError):
            asyncio.run(read(b"PUT /a/q HTTP/1.1\r\nContent-Length: "
                             + value + b"\r\n\r\n"))


@pytest.mark.parametrize("lengths", [
    [b"abc"], [b"-5"], [b"3", b"4"],
], ids=["not-a-number", "negative", "conflicting"])
def test_hostile_content_length_gets_a_400_and_a_close(cluster, lengths):
    host, port = cluster.endpoints(0)["queue"]
    head = b"PUT /devstoreaccount1/hostileq HTTP/1.1\r\nHost: x\r\n"
    for value in lengths:
        head += b"Content-Length: " + value + b"\r\n"
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(head + b"\r\nabcd")
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break  # the server closed, as it said it would
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"Connection: close" in head
    assert b"x-ms-error-code: InvalidUri" in head
    assert b"<Error><Code>InvalidUri</Code>" in body
    assert b"Content-Length" in body  # the message names the lie


class RecordingSink:
    def __init__(self) -> None:
        self.writes = []

    def write(self, data: bytes) -> None:
        self.writes.append(bytes(data))

    async def drain(self) -> None:
        return None


@pytest.mark.parametrize("nbytes,writes", [
    (0, 1), (4096, 1), (COALESCE_BYTES - 1, 1), (COALESCE_BYTES, 2),
    (1 << 20, 2),
])
def test_write_response_sends_small_bodies_with_the_head(nbytes, writes):
    body = b"b" * nbytes
    sink = RecordingSink()
    asyncio.run(write_response(
        sink, HttpResponse(200, [("Content-Type", "text/plain")], body)))
    assert len(sink.writes) == writes
    assert b"".join(sink.writes) == (
        b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
        b"Content-Length: %d\r\nConnection: keep-alive\r\n\r\n" % nbytes
        + body)
