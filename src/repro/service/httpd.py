"""A dependency-free asyncio HTTP/1.1 endpoint for the control plane.

The service's API surface is tiny — read-only GET endpoints polled by
the routing layer and by operators, plus one event stream — so a full
web framework would be the only third-party dependency in the
repository. Instead :class:`JsonHttpServer` speaks just enough HTTP/1.1
for ``curl`` and :mod:`urllib`:

* **keep-alive** by default (HTTP/1.1 semantics): repeated polls reuse
  the TCP connection instead of paying a fresh handshake per request;
  a client ``Connection: close`` (or HTTP/1.0 without ``keep-alive``)
  closes after one response, and a per-connection request cap bounds a
  stuck client.
* **status discipline**: malformed or oversized request lines answer
  ``400 Bad Request``; ``405`` is reserved for well-formed non-GET
  requests; unknown paths answer ``404`` listing the available routes.
* **query strings** are parsed into a plain dict handed to handlers
  that accept an argument; zero-argument handlers keep working
  unchanged.
* **streaming**: a handler may return a :class:`StreamResponse`
  wrapping an async iterator of pre-framed chunks — the substrate for
  the ``/decisions/stream`` server-sent-events endpoint. The response
  is written chunk by chunk with no Content-Length and the connection
  is dedicated (closed when the stream ends or the client goes away).

Handlers run on the event loop thread and may be sync or async. The
control loops run on other threads or processes, so a handler reads
their state as single attribute reads, or under the owner's lock.

Budgets can legitimately be infinite, and the repository's JSON
convention keeps ``Infinity`` literals (Python's ``json`` both emits
and parses them), so responses use the same convention rather than
masking ``inf``.
"""

from __future__ import annotations

import asyncio
import inspect
import json
from urllib.parse import parse_qs, unquote

__all__ = ["JsonHttpServer", "StreamResponse"]

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
}

#: Longest accepted request/header line; beyond it the request is a 400.
_MAX_LINE = 16384
#: Requests served per connection before the server closes it anyway.
_MAX_KEEPALIVE_REQUESTS = 1000


class StreamResponse:
    """A streamed (chunked-by-write) response body.

    Parameters
    ----------
    chunks:
        Async iterator yielding ``bytes`` already framed for the wire
        (for SSE: ``b"id: 7\\ndata: {...}\\n\\n"`` per event).
    content_type:
        Response ``Content-Type`` (default ``text/event-stream``).

    The server writes the head, then each chunk as it arrives, draining
    between chunks; client disconnects end the iteration (the iterator
    is always ``aclose``\\ d, so ``finally`` cleanup in the generator —
    unsubscribing from the read model — runs).
    """

    def __init__(self, chunks, content_type: str = "text/event-stream"):
        self.chunks = chunks
        self.content_type = content_type


class JsonHttpServer:
    """Serves a route table of JSON handlers over ``asyncio.start_server``.

    Parameters
    ----------
    routes:
        ``{"/path": handler}``. A handler takes no arguments or one
        ``query`` dict (single-valued query parameters), may be sync or
        async, and returns ``(status, payload)`` — or a
        :class:`StreamResponse` for a streamed body.
    host, port:
        Bind address. Port 0 binds an ephemeral port; read the actual
        one from :attr:`port` after :meth:`start`.
    """

    def __init__(self, routes: dict, host: str = "127.0.0.1", port: int = 0):
        self.routes = dict(routes)
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._tasks: set[asyncio.Task] = set()
        #: Connection handlers started so far; :meth:`stop` waits for it
        #: to settle before closing the listener.
        self._handlers_started = 0

    async def start(self) -> None:
        if self._server is not None:  # idempotent: callers may pre-bind
            return
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=_MAX_LINE
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is None:
            return
        # A connection the loop has accepted but not yet attached would
        # fail asyncio's attach once the server is closed, leaving its
        # client with no response and no EOF. Stop accepting, then let
        # those in flight start their handlers before closing.
        loop = asyncio.get_running_loop()
        for sock in self._server.sockets:
            loop.remove_reader(sock.fileno())
        started = None
        while started != self._handlers_started:
            started = self._handlers_started
            # Attach, connection_made, handler start: one loop pass each.
            for _ in range(3):
                await asyncio.sleep(0)
        self._server.close()
        # Kick persistent connections (keep-alive idlers, SSE streams):
        # without this, wait_closed-style shutdown would hang on them.
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        await self._server.wait_closed()
        self._server = None

    # -- request handling ---------------------------------------------------

    async def _handle(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._tasks.add(task)
        self._handlers_started += 1
        try:
            for _ in range(_MAX_KEEPALIVE_REQUESTS):
                if not await self._one_request(reader, writer):
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.CancelledError):
            pass  # client (or server shutdown) ended the exchange
        finally:
            self._tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _one_request(self, reader, writer) -> bool:
        """Serve one request; return True to keep the connection open."""
        try:
            request = await reader.readline()
        except ValueError:  # line longer than the stream limit
            await self._respond(
                writer, 400, {"error": "request line too long"}, close=True
            )
            return False
        if not request:
            return False  # client closed between requests
        # Drain headers up to the blank line; only Connection matters.
        client_close = False
        client_keepalive = False
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                await self._respond(
                    writer, 400, {"error": "header line too long"}, close=True
                )
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.partition(b":")
            if key.strip().lower() == b"connection":
                client_close = b"close" in value.strip().lower()
                client_keepalive = b"keep-alive" in value.strip().lower()

        parsed = self._parse_request_line(request)
        if parsed is None:
            await self._respond(
                writer, 400, {"error": "malformed request line"}, close=True
            )
            return False
        method, path, query, version = parsed
        # HTTP/1.1 defaults to keep-alive; 1.0 (and anything odd) only
        # persists on an explicit client keep-alive.
        keep = not client_close and (
            version == "HTTP/1.1" or client_keepalive
        )
        if method != "GET":
            await self._respond(
                writer, 405, {"error": f"method {method} not allowed"},
                close=not keep,
            )
            return keep
        result = await self._dispatch(path, query)
        if isinstance(result, StreamResponse):
            await self._stream(writer, result)
            return False  # the connection was dedicated to the stream
        status, payload = result
        await self._respond(writer, status, payload, close=not keep)
        return keep

    def _parse_request_line(self, request: bytes):
        """``(method, path, query, version)`` or None when malformed."""
        try:
            parts = request.decode("ascii").split()
        except UnicodeDecodeError:
            return None
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            return None
        method, target, version = parts
        if not target.startswith("/"):
            return None
        raw_path, _, raw_query = target.partition("?")
        path = unquote(raw_path).rstrip("/") or "/"
        query = {
            k: v[-1] for k, v in parse_qs(raw_query, keep_blank_values=True).items()
        }
        return method, path, query, version

    async def _dispatch(self, path: str, query: dict):
        handler = self.routes.get(path)
        if handler is None:
            return 404, {"error": f"no route {path}",
                         "routes": sorted(self.routes)}
        result = handler(query) if _takes_query(handler) else handler()
        if inspect.isawaitable(result):
            result = await result
        return result

    async def _respond(
        self, writer, status: int, payload: dict, *, close: bool
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Error')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n\r\n"
        ).encode("ascii")
        writer.write(head + body)
        await writer.drain()

    async def _stream(self, writer, response: StreamResponse) -> None:
        head = (
            "HTTP/1.1 200 OK\r\n"
            f"Content-Type: {response.content_type}\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n\r\n"
        ).encode("ascii")
        writer.write(head)
        await writer.drain()
        chunks = response.chunks
        try:
            async for chunk in chunks:
                writer.write(chunk)
                await writer.drain()
        finally:
            aclose = getattr(chunks, "aclose", None)
            if aclose is not None:
                await aclose()


def _takes_query(handler) -> bool:
    """Does the handler accept the parsed query dict?

    Zero-argument thunks (the original route style) are called bare;
    anything with a positional parameter receives the query dict.
    """
    try:
        sig = inspect.signature(handler)
    except (TypeError, ValueError):
        return False
    for p in sig.parameters.values():
        if p.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.VAR_POSITIONAL,
        ):
            return True
    return False
