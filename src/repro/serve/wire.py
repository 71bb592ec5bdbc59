"""The line-protocol wire loop.

One TCP connection = one session.  Requests are single lines of UTF-8
text — a SQL statement, or a control statement (``BEGIN``, ``COMMIT``,
``ROLLBACK``, ``SNAPSHOT BEGIN``, ``SNAPSHOT END``, ``QUIT``).  A
response is::

    OK <rowcount>
    *col1<TAB>col2
    v1<TAB>v2
    ...
    .

or ``ERR <ErrorClass> <escaped message>`` on failure.  Values — and
column names, which an alias can lace with tabs — are tab-separated
with ``\\t``/``\\n``/``\\r``/``\\\\`` escapes and ``\\N`` for NULL, so
any value round-trips through one line.

The same loop answers ``GET /metrics`` (detected from the first line of
a connection) with the database's Prometheus text exposition, so one
port serves both clients and scrapes.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import List, Optional, Tuple

_ESCAPES = [("\\", "\\\\"), ("\t", "\\t"), ("\n", "\\n"), ("\r", "\\r")]


def escape_value(value) -> str:
    """One result value as one tab-field."""
    if value is None:
        return "\\N"
    text = value if isinstance(value, str) else str(value)
    for raw, escaped in _ESCAPES:
        text = text.replace(raw, escaped)
    return text


def unescape_value(field: str) -> Optional[str]:
    if field == "\\N":
        return None
    out: List[str] = []
    index = 0
    while index < len(field):
        char = field[index]
        if char == "\\" and index + 1 < len(field):
            nxt = field[index + 1]
            out.append({"\\": "\\", "t": "\t", "n": "\n",
                        "r": "\r"}.get(nxt, nxt))
            index += 2
        else:
            out.append(char)
            index += 1
    return "".join(out)


def encode_result(result) -> str:
    status = "OK %d" % result.rowcount
    trace_id = getattr(result, "trace_id", None)
    if trace_id:
        # Sampled requests advertise their trace so a client can
        # correlate its own latency with the server-side span tree.
        status += " trace=%s" % trace_id
    lines = [status,
             "*" + "\t".join(escape_value(name)
                             for name in result.columns)]
    for row in result.rows:
        lines.append("\t".join(escape_value(value) for value in row))
    lines.append(".")
    return "\n".join(lines) + "\n"


def encode_error(exc: BaseException) -> str:
    message = escape_value(str(exc)) or "-"
    return "ERR %s %s\n" % (type(exc).__name__, message)


def _hang_up(sock: socket.socket) -> None:
    """Shut ``sock`` down, then close it.  ``close()`` alone does not wake
    a thread blocked in ``accept()`` or ``recv()`` on it on Linux;
    ``shutdown()`` makes that call return at once."""
    for release in (lambda: sock.shutdown(socket.SHUT_RDWR), sock.close):
        try:
            release()
        except OSError:
            pass


class TCPServer:
    """Thread-per-connection line-protocol front end for a
    :class:`repro.serve.server.Server`."""

    def __init__(self, server, host: str = "127.0.0.1", port: int = 0):
        self.server = server
        self.host = host
        self.port = port
        self._sock: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conns: List[socket.socket] = []
        self._conns_lock = threading.Lock()
        self._stopping = threading.Event()

    def start(self) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((self.host, self.port))
        sock.listen(128)
        self.port = sock.getsockname()[1]
        self._sock = sock
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True)
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                break
            with self._conns_lock:
                self._conns.append(conn)
            threading.Thread(target=self._serve_connection,
                             args=(conn,), daemon=True).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        session = None
        reader = conn.makefile("r", encoding="utf-8", newline="\n")
        writer = conn.makefile("w", encoding="utf-8", newline="\n")
        try:
            session = self.server.session()
            for line in reader:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("GET "):
                    self._serve_http(writer, line)
                    return
                if line.upper() == "QUIT":
                    writer.write("OK 0\n.\n")
                    writer.flush()
                    return
                # The wire loop owns the trace so the response
                # write/flush is inside the tree; the session records
                # statement stats either way.
                trace = self.server.tracing.maybe_start()
                started = time.perf_counter()
                error = None
                try:
                    result = session.execute(line, trace=trace,
                                             managed=True)
                    payload = encode_result(result)
                except Exception as exc:
                    error = exc
                    payload = encode_error(exc)
                if trace is not None:
                    with trace.span("wire.write",
                                    bytes=len(payload)):
                        writer.write(payload)
                    # Publish before the flush: once the client holds
                    # the reply, its trace id must already find the
                    # trace in the ring.
                    self.server.tracing.finish(trace)
                else:
                    writer.write(payload)
                writer.flush()
                self.server.maybe_slowlog(
                    statement=line,
                    latency_ms=(time.perf_counter() - started) * 1e3,
                    trace=trace, error=error)
        except (BrokenPipeError, ConnectionResetError, OSError,
                ValueError):
            pass  # client went away mid-statement
        finally:
            if session is not None:
                session.close()
            for handle in (reader, writer):
                try:
                    handle.close()
                except OSError:
                    pass
            try:
                conn.close()
            except OSError:
                pass
            with self._conns_lock:
                if conn in self._conns:
                    self._conns.remove(conn)

    def _serve_http(self, writer, request_line: str) -> None:
        """Minimal one-shot HTTP: ``GET /metrics`` gets the Prometheus
        exposition, ``GET /statements`` the per-fingerprint aggregates
        as JSON, anything else a 404.  The connection closes after the
        response (HTTP/1.0 semantics)."""
        import json

        path = request_line.split()[1] if len(
            request_line.split()) > 1 else "/"
        path = path.split("?")[0]
        if path == "/metrics":
            body = self.server.metrics_exposition()
            status = "200 OK"
            content_type = "text/plain; version=0.0.4"
        elif path == "/statements":
            body = json.dumps(self.server.statements.report(),
                              default=repr) + "\n"
            status = "200 OK"
            content_type = "application/json"
        else:
            body = "only /metrics and /statements live here\n"
            status = "404 Not Found"
            content_type = "text/plain"
        writer.write(
            "HTTP/1.0 %s\r\nContent-Type: %s\r\n"
            "Content-Length: %d\r\nConnection: close\r\n\r\n%s"
            % (status, content_type, len(body.encode("utf-8")), body))
        writer.flush()

    def serve_until_interrupt(self) -> None:  # pragma: no cover - CLI
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            pass

    def stop(self) -> None:
        self._stopping.set()
        if self._sock is not None:
            _hang_up(self._sock)
        with self._conns_lock:
            conns = list(self._conns)
        for conn in conns:
            _hang_up(conn)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=2.0)

    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)
