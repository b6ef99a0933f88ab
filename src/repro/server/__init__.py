"""The network service tier: serve a workspace over HTTP/JSON.

Three layers, one contract:

* :class:`WorkspaceServer` (``repro serve``) — an asyncio front end
  exposing ``/query``, ``/add``, ``/remove``, ``/stats``, ``/healthz``
  and ``/metrics`` over a workspace, with bounded admission control in
  front of the workspace's query path.
* :class:`ShardedWorkspace` — one logical workspace hash-partitioned
  across shard workspaces (in-process, served, or mixed) with
  scatter-gather k-NN merge that is bit-identical to querying a single
  workspace holding the same data.
* :class:`RemoteWorkspace` — the HTTP client, duck-typed to
  :meth:`repro.service.Workspace.query`.

All three speak the versioned query-result wire schema
(``WorkspaceQueryResult.to_dict()``/``from_dict()``; see
``docs/API.md``), so a result is the same object whether the query ran
in-process, against one server, or scattered across shards.
"""

from .app import DEFAULT_HOST, DEFAULT_PORT, WorkspaceServer
from .client import RemoteWorkspace
from .http import PROMETHEUS_CONTENT_TYPE
from .sharding import ShardedWorkspace, shard_of, split_workspace

__all__ = [
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "PROMETHEUS_CONTENT_TYPE",
    "RemoteWorkspace",
    "ShardedWorkspace",
    "WorkspaceServer",
    "shard_of",
    "split_workspace",
]
