"""Minimal asyncio HTTP/1.1 server + router.

The service deliberately has **no hard HTTP-framework dependency**: this
module implements just enough of HTTP/1.1 on ``asyncio`` streams for the
simulation API — request parsing (method, target, headers, bounded body),
a pattern router with ``{param}`` path captures, JSON responses, and
long-lived streaming responses (SSE / JSONL) written incrementally until
the handler's generator ends. Every response closes its connection
(``Connection: close``), which keeps the protocol state machine trivial
and makes streams naturally delimited by EOF.

Handlers are ``async def handler(request) -> Response | StreamResponse``.
Raise :class:`HttpError` for structured error replies; anything else
becomes a 500 with the exception type, and its traceback goes to stderr.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import sys
import traceback
import urllib.parse
from dataclasses import dataclass, field
from typing import (
    Any,
    AsyncIterator,
    Awaitable,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)

#: Request bodies larger than this are rejected with 413.
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Seconds allowed for a client to deliver its request head + body.
REQUEST_TIMEOUT_S = 30.0


class HttpError(Exception):
    """An error with an HTTP status; rendered as a JSON error body."""

    def __init__(self, status: int, message: str, **extra: Any) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.extra = extra


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    path_params: Dict[str, str] = field(default_factory=dict)

    def json(self) -> Any:
        """Parse the body as JSON; 400 on syntax errors or non-objects."""
        if not self.body:
            raise HttpError(400, "request body must be a JSON object")
        try:
            doc = json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from exc
        if not isinstance(doc, dict):
            raise HttpError(400, "request body must be a JSON object")
        return doc


@dataclass
class Response:
    """A complete (non-streaming) HTTP response."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)


@dataclass
class StreamResponse:
    """A response whose body is produced incrementally.

    ``chunks`` yields raw bytes; each chunk is flushed to the socket as
    it is produced, and the connection closes when the iterator ends.
    """

    chunks: AsyncIterator[bytes]
    status: int = 200
    content_type: str = "text/event-stream"
    headers: Dict[str, str] = field(default_factory=dict)


def json_response(doc: Any, status: int = 200) -> Response:
    body = json.dumps(doc, sort_keys=True).encode("utf-8")
    return Response(status=status, body=body)


def text_response(text: str, status: int = 200) -> Response:
    return Response(
        status=status,
        body=text.encode("utf-8"),
        content_type="text/plain; charset=utf-8",
    )


Handler = Callable[[Request], Awaitable[Any]]


class Router:
    """Method + path-pattern dispatch with ``{param}`` captures."""

    def __init__(self) -> None:
        # (method, segment tuple, handler); "{name}" segments capture.
        self._routes: List[Tuple[str, Tuple[str, ...], Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        segments = tuple(s for s in pattern.strip("/").split("/") if s)
        self._routes.append((method.upper(), segments, handler))

    def get(self, pattern: str, handler: Handler) -> None:
        self.add("GET", pattern, handler)

    def post(self, pattern: str, handler: Handler) -> None:
        self.add("POST", pattern, handler)

    def match(self, method: str, path: str) -> Tuple[Handler, Dict[str, str]]:
        """Resolve a request; raises 404/405 :class:`HttpError` on miss."""
        segments = tuple(s for s in path.strip("/").split("/") if s)
        path_matched = False
        for route_method, pattern, handler in self._routes:
            params = _match_segments(pattern, segments)
            if params is None:
                continue
            path_matched = True
            if route_method == method.upper():
                return handler, params
        if path_matched:
            raise HttpError(405, f"method {method} not allowed for {path}")
        raise HttpError(404, f"no route for {path}")


def _match_segments(
    pattern: Tuple[str, ...], segments: Tuple[str, ...]
) -> Optional[Dict[str, str]]:
    if len(pattern) != len(segments):
        return None
    params: Dict[str, str] = {}
    for want, got in zip(pattern, segments):
        if want.startswith("{") and want.endswith("}"):
            params[want[1:-1]] = got
        elif want != got:
            return None
    return params


class HttpServer:
    """One ``asyncio.start_server`` listener dispatching into a router."""

    def __init__(
        self,
        router: Router,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.router = router
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._conn_tasks: set = set()

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        # With port 0 the OS picks; record the bound port for clients.
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self, grace_s: float = 2.0) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._conn_tasks:
            _done, pending = await asyncio.wait(
                list(self._conn_tasks), timeout=grace_s
            )
            for task in pending:
                task.cancel()

    # -- connection handling ----------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._serve_one(reader, writer)
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            pass  # client went away / server shutdown — nothing to answer
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_one(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await asyncio.wait_for(
                self._read_request(reader), timeout=REQUEST_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            await self._write_response(
                writer, json_response({"error": "request timed out"}, 408)
            )
            return
        except HttpError as exc:
            await self._write_response(writer, _error_response(exc))
            return
        if request is None:
            return  # connection opened and closed without a request

        try:
            handler, params = self.router.match(request.method, request.path)
            request.path_params = params
            result = await handler(request)
        except HttpError as exc:
            result = _error_response(exc)
        except Exception as exc:  # noqa: BLE001 — a handler bug is a 500
            traceback.print_exc(file=sys.stderr)
            result = json_response(
                {"error": "internal server error",
                 "exception": type(exc).__name__},
                500,
            )

        if isinstance(result, StreamResponse):
            await self._write_stream(writer, result)
        elif isinstance(result, Response):
            await self._write_response(writer, result)
        else:  # handler returned a bare JSON-able document
            await self._write_response(writer, json_response(result))

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Request]:
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError:
            raise HttpError(400, "malformed request line") from None
        raw_path, _, raw_query = target.partition("?")
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise HttpError(400, "invalid Content-Length") from None
        if length > MAX_BODY_BYTES:
            raise HttpError(413, f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        return Request(
            method=method.upper(),
            path=urllib.parse.unquote(raw_path),
            query=dict(urllib.parse.parse_qsl(raw_query)),
            headers=headers,
            body=body,
        )

    @staticmethod
    def _head(status: int, headers: Dict[str, str]) -> bytes:
        reason = http.client.responses.get(status, "Unknown")
        lines = [f"HTTP/1.1 {status} {reason}"]
        lines += [f"{name}: {value}" for name, value in headers.items()]
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: Response
    ) -> None:
        headers = {
            "Content-Type": response.content_type,
            "Content-Length": str(len(response.body)),
            "Connection": "close",
        }
        headers.update(response.headers)
        writer.write(self._head(response.status, headers) + response.body)
        await writer.drain()

    async def _write_stream(
        self, writer: asyncio.StreamWriter, response: StreamResponse
    ) -> None:
        headers = {
            "Content-Type": response.content_type,
            "Cache-Control": "no-store",
            "Connection": "close",
        }
        headers.update(response.headers)
        writer.write(self._head(response.status, headers))
        await writer.drain()
        try:
            async for chunk in response.chunks:
                writer.write(chunk)
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # client hung up mid-stream; generator cleanup via GC
        finally:
            close = getattr(response.chunks, "aclose", None)
            if close is not None:
                try:
                    await close()
                except Exception:  # noqa: BLE001 — best-effort cleanup
                    pass


def _error_response(exc: HttpError) -> Response:
    doc = {"error": exc.message}
    doc.update(exc.extra)
    return json_response(doc, exc.status)
