"""The concurrent serving layer.

Starburst was built to sit under real applications with many concurrent
clients; this package turns the single-caller engine into a server:

- :class:`Session` — a thread-safe per-client handle with explicit
  transactions and snapshot-isolated reads (readers pin a
  ``(schema_epoch, stats_epoch, dml_clock)`` snapshot held open by a
  forked copy-on-write worker pool, and never block behind writers);
- :class:`Server` — owns the admission controller (bounded inflight,
  bounded wait queue, shed-on-overload), the striped write path that
  serializes writers without stopping readers, and the snapshot pools;
- :class:`TCPServer` / :class:`WireClient` — a line-protocol wire loop
  over TCP sockets (``python -m repro.serve.server``) that also answers
  ``GET /metrics`` with the Prometheus text exposition.

See DESIGN.md ("Concurrent serving layer") for the lifecycle diagrams
and the documented degradation matrix.
"""

from repro.serve.admission import AdmissionController
from repro.serve.server import Route, ServeSettings, Server
from repro.serve.session import Session
from repro.serve.snapshot import SnapshotManager
from repro.serve.wire import TCPServer
from repro.serve.client import WireClient

__all__ = [
    "AdmissionController",
    "Route",
    "ServeSettings",
    "Server",
    "Session",
    "SnapshotManager",
    "TCPServer",
    "WireClient",
]
