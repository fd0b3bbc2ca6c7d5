"""Stdlib-only asyncio HTTP/JSON front end for the simulation service.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
framework, no new dependencies.  Connections are **persistent** by
default (HTTP/1.1 keep-alive): plain responses carry ``Content-Length``
and the connection loops to the next request, so a closed-loop client
pays connection setup once, not per call.  A client that sends
``Connection: close`` (or speaks HTTP/1.0) gets the one-request
behavior.  ``GET /v1/jobs/<id>`` streams newline-delimited JSON progress
events and ends by closing the connection (close-delimited body), which
every stdlib client reads naturally.

Routes (see ``docs/serving.md`` for schemas)::

    POST /v1/simulate     settle one cell (warm / coalesced / computed)
    POST /v1/sweep        register a background grid job -> 202 + job id
    POST /v1/profile      merge per-pair traffic counts (control ingest)
    POST /v1/control      decide + compile against the ingest window
    POST /v1/drain        mark this worker draining (cluster ring removal)
    GET  /v1/jobs/<id>    NDJSON progress stream until the job completes
    GET  /v1/trace        recent request-trace events
    GET  /healthz         liveness + queue/inflight/job gauges + identity
    GET  /metrics         metrics registry + request reconciliation

:class:`ServerThread` runs the whole loop in a daemon thread — the
harness tests, the closed-loop benchmark, and the CI smoke job all use
it to host a real server on an ephemeral port.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import threading
from typing import Callable, Optional

from repro.serve.protocol import error_envelope
from repro.serve.service import SimulationService

#: Longest request head (request line + headers) we accept, in bytes.
MAX_HEAD_BYTES = 32_768

#: Largest request body we accept, in bytes.
MAX_BODY_BYTES = 1_048_576

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    504: "Gateway Timeout",
}


class _BadRequest(ValueError):
    """Malformed HTTP or JSON input from the peer."""


async def read_head(
    reader: asyncio.StreamReader, what: str = "request",
) -> tuple[bytes, dict[str, str]]:
    """Read one HTTP head: (first line, lower-cased headers).

    Shared by the server's request parser and the cluster router's
    response parser, so both sides of the wire bound a head at
    :data:`MAX_HEAD_BYTES`.  Raises ``ConnectionResetError`` when the peer
    closed before sending anything and :class:`_BadRequest` past the bound
    (also for a single line longer than the reader's buffer limit).
    """
    async def readline() -> bytes:
        try:
            return await reader.readline()
        except ValueError as exc:   # one line past the reader's limit
            raise _BadRequest(f"{what} head too large") from exc

    first = await readline()
    if not first:
        raise ConnectionResetError(f"empty {what}")
    headers: dict[str, str] = {}
    head_bytes = len(first)
    while True:
        line = await readline()
        head_bytes += len(line)
        if head_bytes > MAX_HEAD_BYTES:
            raise _BadRequest(f"{what} head too large")
        if line in (b"\r\n", b"\n", b""):
            return first, headers
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()


def content_length(headers: dict[str, str]) -> int:
    """The body length a head declares (0 when absent).

    Shared by the server's request parser and the cluster router's
    response parser.  Only plain ASCII digits are accepted: a sign
    (``-1``) or ``int()``'s extras (``1_0``) raise :class:`_BadRequest`
    rather than mis-framing the body and the next request on the wire.
    """
    raw = headers.get("content-length", "0")
    if not (raw.isascii() and raw.isdigit()):
        raise _BadRequest(f"bad Content-Length {raw!r}")
    return int(raw)


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, str, dict, bytes]:
    """Parse (method, path, version, headers, body) from one request."""
    request_line, headers = await read_head(reader)
    try:
        method, path, version = request_line.decode("ascii").split()
    except ValueError as exc:
        raise _BadRequest("malformed request line") from exc
    length = content_length(headers)
    if length > MAX_BODY_BYTES:
        raise _BadRequest("request body too large")
    body = await reader.readexactly(length) if length > 0 else b""
    return method, path, version, headers, body


def _encode_response(status: int, payload: dict,
                     extra_headers: Optional[dict] = None,
                     keep_alive: bool = False) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    head = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Status')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    for name, value in (extra_headers or {}).items():
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + body


def keep_alive_requested(version: str, headers: dict) -> bool:
    """Whether the client may reuse this connection after the response."""
    if version.upper() == "HTTP/1.0":
        return headers.get("connection", "").lower() == "keep-alive"
    return headers.get("connection", "").lower() != "close"


class ServeServer:
    """One listening socket dispatching into a :class:`SimulationService`."""

    def __init__(self, service: SimulationService,
                 host: str = "127.0.0.1", port: int = 8032):
        self.service = service
        self.host = host
        self.port = port
        self.routes = self._routes()
        self._server: Optional[asyncio.base_events.Server] = None

    def _routes(self) -> dict[tuple[str, str], tuple[Callable, bool]]:
        """``(method, path) -> (handler, takes the decoded JSON body)``.

        A handler returns an envelope (sent as 200) or a ``(status,
        envelope, extra headers)`` triple, directly or as an awaitable.
        405 and 404 are derived from this table; ``GET /v1/jobs/<id>``
        (a stream, not an envelope) is the one route outside it.
        """
        service = self.service
        return {
            ("POST", "/v1/simulate"): (service.simulate, True),
            ("POST", "/v1/sweep"): (service.sweep, True),
            ("POST", "/v1/profile"): (service.profile, True),
            ("POST", "/v1/control"): (service.control, True),
            ("POST", "/v1/drain"): (service.drain, False),
            ("GET", "/healthz"): (service.health, False),
            ("GET", "/metrics"): (service.metrics, False),
            ("GET", "/v1/trace"): (service.trace, False),
        }

    async def start(self) -> None:
        """Start the service and bind the socket (port 0 -> ephemeral)."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    # -- dispatch -----------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            # Keep-alive loop: serve requests on this connection until the
            # client closes it, asks to close, or a stream route takes over
            # (close-delimited NDJSON body ends the connection by design).
            while True:
                try:
                    method, path, version, headers, body = (
                        await _read_request(reader)
                    )
                except _BadRequest as exc:
                    writer.write(
                        _encode_response(400, error_envelope(str(exc)))
                    )
                    await writer.drain()
                    return
                except (ConnectionResetError, asyncio.IncompleteReadError):
                    return
                keep_alive = keep_alive_requested(version, headers)
                streamed = await self._dispatch(method, path, body, writer,
                                                keep_alive)
                if streamed or not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Loop teardown while parked on a keep-alive read; finish
            # quietly so shutdown doesn't log phantom handler errors.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError,
                    asyncio.CancelledError):
                # CancelledError here is loop teardown racing the close
                # handshake; the transport is going away regardless.
                pass

    async def _dispatch(self, method: str, path: str, body: bytes,
                        writer: asyncio.StreamWriter,
                        keep_alive: bool = False) -> bool:
        """Route one request; True when the response was close-delimited."""
        def respond(status: int, payload: dict,
                    extra: Optional[dict] = None) -> None:
            writer.write(_encode_response(status, payload, extra,
                                          keep_alive=keep_alive))

        if path.startswith("/v1/jobs/") and method == "GET":
            await self._stream_job(path[len("/v1/jobs/"):], writer)
            return True
        route = self.routes.get((method, path))
        if route is not None:
            handler, takes_body = route
            try:
                args = ((json.loads(body.decode("utf-8")) if body else {},)
                        if takes_body else ())
            except (json.JSONDecodeError, UnicodeDecodeError):
                respond(400, error_envelope("request body is not valid JSON"))
            else:
                result = handler(*args)
                if inspect.isawaitable(result):
                    result = await result
                respond(*(result if isinstance(result, tuple)
                          else (200, result)))
        elif any(path == known for _, known in self.routes):
            respond(405, error_envelope(f"{method} not allowed on {path}"))
        else:
            respond(404, error_envelope(f"no route for {method} {path}"))
        await writer.drain()
        return False

    async def _stream_job(self, job_id: str,
                          writer: asyncio.StreamWriter) -> None:
        events = await self.service.stream_job(job_id)
        if events is None:
            writer.write(_encode_response(
                404, error_envelope(f"unknown job {job_id!r}")
            ))
            await writer.drain()
            return
        head = ("HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Connection: close\r\n\r\n")
        writer.write(head.encode("ascii"))
        await writer.drain()
        try:
            async for event in events:
                writer.write(
                    (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
                )
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            return  # client went away; the job keeps running


async def _run_async(server: ServeServer) -> None:
    await server.start()
    print(f"repro.serve listening on http://{server.host}:{server.port} "
          f"(queue={server.service.scheduler.queue_limit}, "
          f"concurrency={server.service.scheduler.concurrency})")
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()


def run(service: SimulationService, host: str = "127.0.0.1",
        port: int = 8032) -> None:
    """Blocking entry point used by ``repro serve`` (Ctrl-C to stop)."""
    try:
        asyncio.run(_run_async(ServeServer(service, host, port)))
    except KeyboardInterrupt:
        pass


class ServerThread:
    """A real server on an ephemeral port, hosted in a daemon thread.

    The test suite, the closed-loop benchmark, and the CI smoke job all
    share this helper::

        thread = ServerThread(SimulationService(fast=True, store=store))
        port = thread.start()
        ... requests against 127.0.0.1:port ...
        thread.stop()
    """

    #: The server class hosted in the thread; the cluster router's
    #: :class:`~repro.cluster.router.RouterThread` overrides this.
    server_class = ServeServer

    def __init__(self, service: SimulationService,
                 host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self.error: Optional[BaseException] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None

    def start(self, timeout: float = 30.0) -> int:
        """Start the loop thread; returns the bound port."""
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve")
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server thread did not come up in time")
        if self.error is not None:
            raise RuntimeError(f"server failed to start: {self.error}")
        return self.port

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - startup failure
            self.error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = self.server_class(self.service, self.host, self.port)
        try:
            await server.start()
        except BaseException as exc:
            self.error = exc
            self._ready.set()
            return
        self.port = server.port
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            await server.stop()
