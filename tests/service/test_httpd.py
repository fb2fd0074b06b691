"""HTTP server edge cases: status discipline, keep-alive, streaming.

Each test runs a tiny route table on an ephemeral port inside one event
loop and speaks raw HTTP through ``asyncio.open_connection`` — the
protocol details (connection reuse, malformed lines, mid-stream
disconnects) are exactly what these tests pin, so no client library.
"""

import asyncio
import json
import socket
import threading

from repro.service import JsonHttpServer, StreamResponse


def _routes(extra=None):
    routes = {
        "/ping": lambda: (200, {"pong": True}),
        "/echo": lambda query: (200, {"query": query}),
    }
    routes.update(extra or {})
    return routes


async def _start(routes):
    server = JsonHttpServer(routes, "127.0.0.1", 0)
    await server.start()
    return server


async def _request(port, raw: bytes):
    """One raw request on a fresh connection; read until EOF."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    return data


def _status_of(response: bytes) -> int:
    return int(response.split(b" ", 2)[1])


def _body_of(response: bytes) -> dict:
    return json.loads(response.partition(b"\r\n\r\n")[2])


async def _read_response(reader) -> tuple[int, dict]:
    """One keep-alive response: parse Content-Length, read the body."""
    head = b""
    while not head.endswith(b"\r\n\r\n"):
        chunk = await reader.read(1)
        assert chunk, "connection closed mid-response"
        head += chunk
    length = next(
        int(line.split(b":")[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length")
    )
    body = await reader.readexactly(length)
    return _status_of(head), json.loads(body)


class TestStatusDiscipline:
    def test_malformed_request_line_is_400(self):
        async def run():
            server = await _start(_routes())
            try:
                for raw in (
                    b"NOT-HTTP\r\n\r\n",
                    b"GET /ping\r\n\r\n",  # two parts
                    b"GET /ping NOTHTTP/1.1\r\n\r\n",
                    b"GET ping HTTP/1.1\r\n\r\n",  # target missing slash
                    b"\xff\xfe\xfd garbage \xff\r\n\r\n",
                ):
                    resp = await _request(server.port, raw)
                    assert _status_of(resp) == 400, raw
            finally:
                await server.stop()

        asyncio.run(run())

    def test_non_get_is_405_not_400(self):
        async def run():
            server = await _start(_routes())
            try:
                resp = await _request(
                    server.port,
                    b"POST /ping HTTP/1.1\r\nConnection: close\r\n\r\n",
                )
                assert _status_of(resp) == 405
            finally:
                await server.stop()

        asyncio.run(run())

    def test_unknown_route_lists_available_routes(self):
        async def run():
            server = await _start(_routes())
            try:
                resp = await _request(
                    server.port,
                    b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n",
                )
                assert _status_of(resp) == 404
                assert _body_of(resp)["routes"] == ["/echo", "/ping"]
            finally:
                await server.stop()

        asyncio.run(run())

    def test_oversized_request_line_is_400(self):
        async def run():
            server = await _start(_routes())
            try:
                resp = await _request(
                    server.port,
                    b"GET /" + b"x" * 32768 + b" HTTP/1.1\r\n\r\n",
                )
                assert _status_of(resp) == 400
            finally:
                await server.stop()

        asyncio.run(run())


class TestQueryAndPaths:
    def test_query_string_reaches_handler(self):
        async def run():
            server = await _start(_routes())
            try:
                resp = await _request(
                    server.port,
                    b"GET /echo?a=1&b=two&empty= HTTP/1.1\r\n"
                    b"Connection: close\r\n\r\n",
                )
                assert _body_of(resp)["query"] == {
                    "a": "1", "b": "two", "empty": "",
                }
            finally:
                await server.stop()

        asyncio.run(run())

    def test_trailing_slash_normalized(self):
        async def run():
            server = await _start(_routes())
            try:
                resp = await _request(
                    server.port,
                    b"GET /ping/ HTTP/1.1\r\nConnection: close\r\n\r\n",
                )
                assert _status_of(resp) == 200
                assert _body_of(resp) == {"pong": True}
            finally:
                await server.stop()

        asyncio.run(run())


class TestKeepAlive:
    def test_connection_reused_for_multiple_requests(self):
        async def run():
            server = await _start(_routes())
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                for _ in range(3):
                    writer.write(b"GET /ping HTTP/1.1\r\nHost: x\r\n\r\n")
                    await writer.drain()
                    status, body = await _read_response(reader)
                    assert (status, body) == (200, {"pong": True})
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_client_connection_close_is_honored(self):
        async def run():
            server = await _start(_routes())
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    b"GET /ping HTTP/1.1\r\nConnection: close\r\n\r\n"
                )
                await writer.drain()
                raw = await reader.read()  # EOF: server closed
                assert _status_of(raw) == 200
                assert b"Connection: close" in raw
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        asyncio.run(run())

    def test_http10_closes_without_keepalive_header(self):
        async def run():
            server = await _start(_routes())
            try:
                raw = await _request(
                    server.port, b"GET /ping HTTP/1.0\r\n\r\n"
                )
                assert _status_of(raw) == 200
                assert b"Connection: close" in raw
            finally:
                await server.stop()

        asyncio.run(run())


class TestStreaming:
    def test_stream_response_delivers_chunks(self):
        async def chunks():
            for i in range(3):
                yield f"data: {i}\n\n".encode()

        async def run():
            server = await _start(
                _routes({"/stream": lambda: StreamResponse(chunks())})
            )
            try:
                raw = await _request(
                    server.port, b"GET /stream HTTP/1.1\r\n\r\n"
                )
                head, _, body = raw.partition(b"\r\n\r\n")
                assert b"text/event-stream" in head
                assert body == b"data: 0\n\ndata: 1\n\ndata: 2\n\n"
            finally:
                await server.stop()

        asyncio.run(run())

    def test_client_disconnect_mid_stream_closes_generator(self):
        cleaned = asyncio.Event()

        async def endless():
            try:
                while True:
                    yield b"data: tick\n\n"
                    await asyncio.sleep(0.01)
            finally:
                cleaned.set()

        async def run():
            server = await _start(
                _routes({"/stream": lambda: StreamResponse(endless())})
            )
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"GET /stream HTTP/1.1\r\n\r\n")
                await writer.drain()
                await reader.read(256)  # a few frames arrived
                writer.close()  # client goes away mid-stream
                await writer.wait_closed()
                # The server must aclose() the generator (its finally
                # block is where read-model unsubscription lives).
                await asyncio.wait_for(cleaned.wait(), timeout=5.0)
            finally:
                await server.stop()

        asyncio.run(run())


class TestStopRace:
    def test_get_racing_stop_gets_a_response_or_eof(self):
        """A GET whose connection is accepted in the same loop pass
        that wakes ``stop()`` must not hang.

        The loop blocks until a client thread has connected, sent and
        scheduled the wake-up, so the accept and the wake-up land in
        one selector pass and ``stop()`` runs before the accepted
        connection attaches. Closing the server at that point fails the
        attach, and the client gets no response and no EOF.
        """

        def client(port, sent, queued, outcome):
            with socket.create_connection(("127.0.0.1", port)) as sock:
                sock.sendall(b"GET /ping HTTP/1.1\r\n\r\n")
                sent()
                queued.set()
                sock.settimeout(2.0)  # the read deadline
                try:
                    outcome.append(sock.recv(65536))
                except socket.timeout:
                    outcome.append(None)
                except OSError as exc:
                    outcome.append(exc)

        async def trial():
            server = await _start(_routes())
            loop = asyncio.get_running_loop()
            sent = loop.create_future()
            queued = threading.Event()
            outcome = []
            thread = threading.Thread(
                target=client,
                args=(
                    server.port,
                    lambda: loop.call_soon_threadsafe(sent.set_result, None),
                    queued,
                    outcome,
                ),
            )
            thread.start()
            try:
                assert queued.wait(timeout=5.0)  # blocks the loop on purpose
                await sent
                await server.stop()
            finally:
                await asyncio.to_thread(thread.join, 10.0)
            assert not thread.is_alive()
            return outcome[0]

        for i in range(20):
            data = asyncio.run(trial())
            assert data is not None, f"trial {i}: no response and no EOF"
            assert isinstance(data, bytes), f"trial {i}: {data!r}"
            assert data == b"" or data.startswith(b"HTTP/1.1 "), data
