"""``RemoteWorkspace``: the HTTP client side of the query contract.

A :class:`RemoteWorkspace` is duck-typed to the query surface of
:class:`~repro.service.Workspace` — ``query`` takes the same arguments
and returns the same :class:`~repro.service.WorkspaceQueryResult`
(rebuilt from the versioned wire payload), ``add``/``remove``/``stats``
behave alike — so callers and benchmarks can swap an in-process
workspace for a served one without touching query code.

Errors keep their meaning across the wire: the server maps library
exceptions onto the ``{"error": {"type", ...}}`` payload, and this
client maps the payload back onto the same exception classes
(:class:`ValidationError`, :class:`DatasetError`,
:class:`WorkspaceError`).  Transport failures — connection refused,
mid-response hangups, non-contract responses — raise
:class:`RemoteWorkspaceError` instead, so "the workspace said no" and
"the wire is down" stay distinguishable.

Connections are kept alive and pooled per thread (one
``http.client.HTTPConnection`` per calling thread, stored in a
``threading.local``), which makes a single client object safe to share
across the concurrent load-generator threads the serving benchmark
uses.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..exceptions import (
    DatasetError,
    RemoteWorkspaceError,
    ReproError,
    ValidationError,
    WorkspaceError,
)
from ..service.workspace import WorkspaceQueryResult
from .http import format_address, parse_url

#: Error-payload ``type`` values mapped back onto library exceptions.
#: Anything unrecognised raises plain :class:`ReproError` for 4xx/409
#: statuses and :class:`RemoteWorkspaceError` otherwise.
_ERROR_TYPES = {
    "ValidationError": ValidationError,
    "EmptySeriesError": ValidationError,
    "ConfigurationError": ValidationError,
    "DatasetError": DatasetError,
    "WorkspaceError": WorkspaceError,
}


class RemoteWorkspace:
    """A workspace served by ``repro serve``, addressed over HTTP.

    Usable as a context manager; :meth:`close` drops this thread's
    pooled connection (other threads' connections close when their
    threads die — they are plain kept-alive sockets, not daemons).
    """

    def __init__(self, host: str, port: int, *, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()

    @classmethod
    def connect(cls, url: str, *, timeout: float = 30.0) -> "RemoteWorkspace":
        """Build a client from an ``http://host:port`` URL."""
        host, port = parse_url(url)
        return cls(host, port, timeout=timeout)

    @property
    def url(self) -> str:
        return f"http://{format_address(self.host, self.port)}"

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.conn = conn
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
    ) -> Tuple[int, str, bytes]:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
            headers["Content-Type"] = "application/json"
        for attempt in (1, 2):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
                return (
                    response.status,
                    response.headers.get("Content-Type", ""),
                    data,
                )
            except (http.client.HTTPException, ConnectionError,
                    socket.timeout, OSError) as exc:
                # A kept-alive socket the server already closed fails on
                # first reuse; retry once on a fresh connection, then
                # report the wire as down.
                self._drop_connection()
                if attempt == 2:
                    raise RemoteWorkspaceError(
                        f"{method} {self.url}{path} failed: {exc}"
                    ) from exc
        raise AssertionError("unreachable")

    def _call(
        self,
        method: str,
        path: str,
        payload: Optional[dict] = None,
    ) -> dict:
        status, _, data = self._request(method, path, payload)
        try:
            decoded = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RemoteWorkspaceError(
                f"{method} {self.url}{path} returned a non-JSON body "
                f"(status {status})"
            ) from exc
        if not isinstance(decoded, dict):
            raise RemoteWorkspaceError(
                f"{method} {self.url}{path} returned "
                f"{type(decoded).__name__}, expected a JSON object"
            )
        if status >= 400 or "error" in decoded:
            self._raise_remote_error(method, path, status, decoded)
        return decoded

    def _raise_remote_error(
        self, method: str, path: str, status: int, decoded: dict
    ) -> None:
        error = decoded.get("error")
        if not isinstance(error, dict):
            raise RemoteWorkspaceError(
                f"{method} {self.url}{path} failed with status {status} "
                f"and a body outside the error contract"
            )
        error_type = str(error.get("type", ""))
        message = str(error.get("message", ""))
        exc_class = _ERROR_TYPES.get(error_type)
        if exc_class is not None:
            raise exc_class(message)
        if error_type == "ProtocolError" and status == 400:
            # Server-side request validation (missing/ill-typed fields)
            # corresponds to what Workspace.query would reject locally.
            raise ValidationError(message)
        if status in (400, 404, 405, 409):
            raise ReproError(f"{error_type}: {message}")
        raise RemoteWorkspaceError(
            f"{method} {self.url}{path} failed "
            f"({status} {error_type}): {message}"
        )

    # ------------------------------------------------------------------ #
    # The workspace surface
    # ------------------------------------------------------------------ #
    def query(
        self,
        values: Union[Sequence[float], object],
        k: Optional[int] = None,
        *,
        mode: str = "auto",
        candidates: Optional[int] = None,
        exclude_identifier: Optional[str] = None,
        trace: bool = False,
    ) -> WorkspaceQueryResult:
        """Mirror of :meth:`repro.service.Workspace.query` over HTTP.

        The extra ``trace`` flag asks the server to attach the query
        trace to the wire payload (``?trace=1``).
        """
        payload: Dict[str, object] = {
            "values": [float(v) for v in values],
            "mode": mode,
        }
        if k is not None:
            payload["k"] = int(k)
        if candidates is not None:
            payload["candidates"] = int(candidates)
        if exclude_identifier is not None:
            payload["exclude_identifier"] = str(exclude_identifier)
        path = "/query?trace=1" if trace else "/query"
        return WorkspaceQueryResult.from_dict(self._call("POST", path, payload))

    def add(
        self,
        values: Union[Sequence[float], object],
        identifier: Optional[str] = None,
        label: Optional[int] = None,
    ) -> str:
        payload: Dict[str, object] = {
            "values": [float(v) for v in values],
        }
        if identifier is not None:
            payload["identifier"] = str(identifier)
        if label is not None:
            payload["label"] = int(label)
        return str(self._call("POST", "/add", payload)["identifier"])

    def remove(self, identifier: str) -> None:
        self._call("POST", "/remove", {"identifier": str(identifier)})

    def stats(self) -> Dict[str, object]:
        return self._call("GET", "/stats")

    def health(self) -> Dict[str, object]:
        """The server's ``/healthz`` report (per-shard when sharded)."""
        status, _, data = self._request("GET", "/healthz")
        try:
            decoded = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RemoteWorkspaceError(
                f"GET {self.url}/healthz returned a non-JSON body "
                f"(status {status})"
            ) from exc
        if not isinstance(decoded, dict):
            raise RemoteWorkspaceError(
                f"GET {self.url}/healthz returned "
                f"{type(decoded).__name__}, expected a JSON object"
            )
        # /healthz answers 503 with the degraded report as the body —
        # that report IS the answer, not an error.
        return decoded

    def metrics_prometheus(self) -> str:
        status, content_type, data = self._request("GET", "/metrics")
        if status != 200:
            raise RemoteWorkspaceError(
                f"GET {self.url}/metrics failed with status {status}"
            )
        if "text/plain" not in content_type:
            raise RemoteWorkspaceError(
                f"GET {self.url}/metrics returned content type "
                f"{content_type!r}, expected the Prometheus text format"
            )
        return data.decode("utf-8")

    @property
    def identifiers(self) -> List[str]:
        """The stored identifiers, in global insertion order."""
        stats = self.stats()
        identifiers = stats.get("identifiers")
        if not isinstance(identifiers, list):
            raise RemoteWorkspaceError(
                f"{self.url}/stats did not report 'identifiers'; is the "
                f"server running an older wire schema?"
            )
        return [str(i) for i in identifiers]

    def __len__(self) -> int:
        return int(self.stats()["num_series"])

    def close(self) -> None:
        self._drop_connection()

    def __enter__(self) -> "RemoteWorkspace":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"RemoteWorkspace({self.url!r})"


__all__ = ["RemoteWorkspace"]
