"""``WorkspaceServer``: the asyncio HTTP/JSON front end.

One server exposes one workspace — a plain
:class:`~repro.service.Workspace` or a
:class:`~repro.server.sharding.ShardedWorkspace` (scatter-gather) —
over six routes:

========  ==========  ====================================================
method    path        behaviour
========  ==========  ====================================================
POST      /query      k-NN query; responds with the versioned
                      ``repro-query-result`` wire payload
                      (``?trace=0/1`` controls the trace attachment)
POST      /add        store one series; ``{"identifier", "num_series"}``
POST      /remove     drop one series; ``{"removed", "num_series"}``
GET       /stats      workspace summary (per-shard health when sharded)
GET       /healthz    liveness: 200 ok/degraded, 503 failed
GET       /metrics    Prometheus text exposition format 0.0.4
========  ==========  ====================================================

Concurrency model: the asyncio loop parses requests and writes
responses; workspace calls run on a bounded thread pool
(``max_inflight`` workers), so concurrent queries genuinely overlap,
each running its own engine cascade.  ``max_inflight`` is also the
throughput lever for exact queries: on the ``vectorized`` backend a
small cap beats letting every request contend for the interpreter.
Admission control is two-level: up to ``max_inflight`` requests
execute, up to ``max_pending`` more wait, and anything beyond is
refused immediately with 503 instead of building an unbounded queue.

The error payload contract mirrors the library's exception hierarchy:
invalid input (:class:`ValidationError`, malformed JSON/HTTP) is 400,
operational workspace failures (:class:`WorkspaceError` — stale index,
empty workspace, closed workspace) are 409, unexpected exceptions are
500, overload is 503.  Bodies are always
``{"error": {"type", "message", "status"}}``.
"""

from __future__ import annotations

import asyncio
import functools
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional

from ..exceptions import (
    DatasetError,
    ReproError,
    ServerError,
    ValidationError,
    WorkspaceError,
)
from ..telemetry.events import json_safe
from . import http
from .http import (
    DEFAULT_MAX_BODY_BYTES,
    HTTPRequest,
    HTTPResponse,
    PROMETHEUS_CONTENT_TYPE,
    ProtocolError,
    format_address,
    read_request,
    render_response,
)

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})


def _parse_flag(raw: str, name: str) -> bool:
    value = raw.strip().lower()
    if value in _TRUE:
        return True
    if value in _FALSE:
        return False
    raise ProtocolError(
        f"query parameter {name}={raw!r} is not a boolean (use 0/1)"
    )


_JSON_TYPES = {int: "an integer", str: "a string", bool: "a boolean"}


def _field(payload: dict, name: str, kind: type, default: object = None):
    """``payload[name]`` (*default* when absent): null or a JSON *kind*.

    A JSON boolean is not an integer here, although Python's ``bool``
    is an ``int``.
    """
    value = payload.get(name, default)
    if value is not None and (
        not isinstance(value, kind) or (kind is int and isinstance(value, bool))
    ):
        raise ProtocolError(
            f"{name!r} must be {_JSON_TYPES[kind]} or null, got {value!r}"
        )
    return value


async def _close(writer: asyncio.StreamWriter) -> None:
    """Close a connection's transport and wait for the close handshake."""
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError, asyncio.CancelledError):
        # A task cancelled by shutdown re-raises from any await, including
        # this close handshake; the transport is torn down with the loop
        # either way.
        pass


class WorkspaceServer:
    """Serve one workspace over HTTP (see module docstring).

    Parameters
    ----------
    workspace:
        A :class:`~repro.service.Workspace` or
        :class:`~repro.server.sharding.ShardedWorkspace` (anything
        duck-typed to query/add/remove/stats/metrics_prometheus).
    host, port:
        Bind address; port 0 picks an ephemeral port (read it back from
        :attr:`port` after :meth:`start`).
    max_inflight:
        Workspace calls executing concurrently (thread-pool width).
    max_pending:
        Additional requests allowed to wait for a worker before new
        arrivals are refused with 503.
    default_mode, default_k, default_trace:
        Applied to ``/query`` requests that omit the field; ``None``
        for ``default_k`` defers to the workspace's configured default.
    """

    def __init__(
        self,
        workspace: object,
        *,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        max_inflight: int = 8,
        max_pending: int = 64,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        default_mode: str = "auto",
        default_k: Optional[int] = None,
        default_trace: bool = False,
    ) -> None:
        if max_inflight < 1:
            raise ValidationError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if max_pending < 0:
            raise ValidationError(
                f"max_pending must be >= 0, got {max_pending}"
            )
        self.workspace = workspace
        self.host = host
        self.port = port
        self._max_inflight = max_inflight
        self._max_pending = max_pending
        self._max_body_bytes = max_body_bytes
        self._default_mode = default_mode
        self._default_k = default_k
        self._default_trace = default_trace
        self._executor = ThreadPoolExecutor(
            max_workers=max_inflight, thread_name_prefix="repro-serve"
        )
        # Touched only on the event-loop thread (asyncio is single
        # threaded), so plain attributes are race-free here.
        self._inflight = 0
        self._refused = 0
        self._requests_served = 0
        self._connections = 0
        self._connections_refused = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def url(self) -> str:
        return f"http://{format_address(self.host, self.port)}"

    def serve_forever(self) -> None:
        """Run the server on the calling thread until interrupted."""
        self._run_loop()
        if self._startup_error is not None:
            raise self._startup_error

    def start(self, *, timeout: float = 10.0) -> "WorkspaceServer":
        """Run the server on a daemon thread; returns once it is bound.

        The bound port is published on :attr:`port` (useful with
        ``port=0``); :meth:`stop` shuts the thread down.
        """
        if self._thread is not None:
            raise ServerError("this server has already been started")
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise ServerError(
                f"server did not bind {format_address(self.host, self.port)} "
                f"within {timeout:.0f}s"
            )
        if self._startup_error is not None:
            raise ServerError(
                f"server failed to start: {self._startup_error}"
            ) from self._startup_error
        return self

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for a :meth:`start`-ed server's loop thread to exit;
        returns whether it is still running."""
        if self._thread is None:
            return False
        self._thread.join(timeout)
        return self._thread.is_alive()

    def stop(self, *, timeout: float = 10.0) -> None:
        """Stop a :meth:`start`-ed server and release its resources."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(loop.stop)
        if self._thread is not None:
            self._thread.join(timeout)
        self._executor.shutdown(wait=False)

    def __enter__(self) -> "WorkspaceServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        server = None
        try:
            server = loop.run_until_complete(
                asyncio.start_server(
                    self._handle_connection, self.host, self.port,
                    limit=64 * 1024,
                )
            )
            self.port = server.sockets[0].getsockname()[1]
        except BaseException as exc:  # noqa: BLE001 - surfaced by start()
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.close()
            loop.run_until_complete(server.wait_closed())
            # Idle keep-alive connections sit parked in read_request();
            # cancel them so the loop closes without orphaned tasks.
            pending = [t for t in asyncio.all_tasks(loop) if not t.done()]
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        if self._connections >= http.MAX_CONNECTIONS:
            self._connections_refused += 1
            await self._refuse_connection(writer)
            return
        self._connections += 1
        try:
            await self._serve_connection(reader, writer)
        finally:
            self._connections -= 1

    async def _refuse_connection(self, writer: asyncio.StreamWriter) -> None:
        """Answer 503 and close: the server holds its maximum connections."""
        try:
            writer.write(render_response(
                HTTPResponse.error(
                    503, "ServerError",
                    f"server holds its maximum of {http.MAX_CONNECTIONS} "
                    f"open connections; retry later",
                ),
                keep_alive=False,
            ))
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            await _close(writer)

    async def _serve_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self._max_body_bytes
                    )
                except ProtocolError as exc:
                    writer.write(render_response(
                        HTTPResponse.error(
                            exc.status, "ProtocolError", str(exc)
                        ),
                        keep_alive=False,
                    ))
                    await writer.drain()
                    return
                if request is None:
                    return
                response = await self._dispatch(request)
                self._requests_served += 1
                keep_alive = request.keep_alive
                writer.write(render_response(response, keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            return
        except asyncio.TimeoutError:
            # An idle keep-alive connection or a stalled request: close
            # the connection and end its task.
            return
        except asyncio.CancelledError:
            # Only _run_loop's shutdown path cancels handler tasks;
            # swallow so idle keep-alive connections close quietly.
            return
        finally:
            await _close(writer)

    async def _dispatch(self, request: HTTPRequest) -> HTTPResponse:
        routes = {
            "/query": ("POST", self._handle_query),
            "/add": ("POST", self._handle_add),
            "/remove": ("POST", self._handle_remove),
            "/stats": ("GET", self._handle_stats),
            "/healthz": ("GET", self._handle_healthz),
            "/metrics": ("GET", self._handle_metrics),
        }
        route = routes.get(request.path)
        if route is None:
            return HTTPResponse.error(
                404, "NotFound", f"no route for {request.path!r}"
            )
        method, handler = route
        if request.method != method:
            return HTTPResponse.error(
                405, "MethodNotAllowed",
                f"{request.path} only accepts {method}",
                Allow=method,
            )
        try:
            return await handler(request)
        except ProtocolError as exc:
            return HTTPResponse.error(exc.status, "ProtocolError", str(exc))
        except (ValidationError, DatasetError) as exc:
            return HTTPResponse.error(400, type(exc).__name__, str(exc))
        except WorkspaceError as exc:
            return HTTPResponse.error(409, type(exc).__name__, str(exc))
        except ReproError as exc:
            return HTTPResponse.error(400, type(exc).__name__, str(exc))
        except Exception as exc:  # noqa: BLE001 - survive handler bugs
            return HTTPResponse.error(500, type(exc).__name__, str(exc))

    async def _run_blocking(self, call) -> object:
        """Run one workspace call on the pool under admission control."""
        if self._inflight >= self._max_inflight + self._max_pending:
            self._refused += 1
            raise ProtocolError(
                f"server is at capacity ({self._inflight} requests in "
                f"flight); retry later",
                status=503,
            )
        self._inflight += 1
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._executor, call
            )
        finally:
            self._inflight -= 1

    # ------------------------------------------------------------------ #
    # Handlers
    # ------------------------------------------------------------------ #
    async def _handle_query(self, request: HTTPRequest) -> HTTPResponse:
        payload = request.json()
        values = payload.get("values")
        if not isinstance(values, list) or not values:
            raise ProtocolError(
                "'values' must be a non-empty JSON array of numbers"
            )
        k = _field(payload, "k", int, self._default_k)
        mode = payload.get("mode", self._default_mode)
        candidates = _field(payload, "candidates", int)
        exclude_identifier = _field(payload, "exclude_identifier", str)
        want_trace = _field(payload, "trace", bool)
        # v1 clients may still send the stage-1 ranking; tfidf is the
        # only one left.
        if payload.get("rank_mode") not in (None, "tfidf"):
            raise ProtocolError(
                f"rank_mode {payload['rank_mode']!r} was removed with the PQ "
                f"codec; indexed queries rank candidates by TF-IDF only "
                f"(omit rank_mode or send \"tfidf\")"
            )
        if "trace" in request.query:
            want_trace = _parse_flag(request.query["trace"], "trace")
        elif want_trace is None:
            want_trace = self._default_trace
        result = await self._run_blocking(functools.partial(
            self.workspace.query,
            values,
            k,
            mode=str(mode),
            candidates=candidates,
            exclude_identifier=exclude_identifier,
        ))
        return HTTPResponse.from_json(
            200, result.to_dict(include_trace=want_trace)
        )

    async def _handle_add(self, request: HTTPRequest) -> HTTPResponse:
        payload = request.json()
        values = payload.get("values")
        if not isinstance(values, list) or not values:
            raise ProtocolError(
                "'values' must be a non-empty JSON array of numbers"
            )
        label = _field(payload, "label", int)
        identifier = payload.get("identifier")
        stored = await self._run_blocking(functools.partial(
            self.workspace.add,
            values,
            identifier=None if identifier is None else str(identifier),
            label=label,
        ))
        return HTTPResponse.from_json(
            200,
            {"identifier": stored, "num_series": len(self.workspace)},
        )

    async def _handle_remove(self, request: HTTPRequest) -> HTTPResponse:
        payload = request.json()
        identifier = payload.get("identifier")
        if not isinstance(identifier, str) or not identifier:
            raise ProtocolError("'identifier' must be a non-empty string")
        await self._run_blocking(functools.partial(
            self.workspace.remove, identifier
        ))
        return HTTPResponse.from_json(
            200,
            {"removed": identifier, "num_series": len(self.workspace)},
        )

    async def _handle_stats(self, request: HTTPRequest) -> HTTPResponse:
        stats = await self._run_blocking(self.workspace.stats)
        stats = dict(stats)
        stats["server"] = self.server_stats()
        return HTTPResponse.from_json(200, json_safe(stats))

    async def _handle_healthz(self, request: HTTPRequest) -> HTTPResponse:
        health = getattr(self.workspace, "health", None)
        if callable(health):
            report = await self._run_blocking(health)
        else:
            report = {
                "status": "ok",
                "num_series": len(self.workspace),
            }
        status = 503 if report.get("status") == "failed" else 200
        return HTTPResponse.from_json(status, json_safe(report))

    async def _handle_metrics(self, request: HTTPRequest) -> HTTPResponse:
        text = await self._run_blocking(self.workspace.metrics_prometheus)
        if text and not text.endswith("\n"):
            text += "\n"
        text += (
            "# HELP repro_server_connections_refused_total Connections "
            "refused at the open-connection cap.\n"
            "# TYPE repro_server_connections_refused_total counter\n"
            f"repro_server_connections_refused_total {self._connections_refused}\n"
        )
        return HTTPResponse(
            200, text.encode("utf-8"), PROMETHEUS_CONTENT_TYPE
        )

    def server_stats(self) -> Dict[str, object]:
        """The admission-control counters surfaced under ``/stats``."""
        return {
            "inflight": self._inflight,
            "max_inflight": self._max_inflight,
            "max_pending": self._max_pending,
            "refused_total": self._refused,
            "requests_served": self._requests_served,
            "open_connections": self._connections,
            "max_connections": http.MAX_CONNECTIONS,
            "connections_refused_total": self._connections_refused,
        }


__all__ = ["DEFAULT_HOST", "DEFAULT_PORT", "WorkspaceServer"]
