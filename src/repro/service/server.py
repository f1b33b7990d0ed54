"""Threaded estimation server: line-JSON and binary frames on one port.

Protocol (negotiated per connection by first-byte sniffing):

* a first byte of ``{`` (or anything but the binary magic) starts a
  **line-JSON** conversation — one JSON object per line in each
  direction, exactly as every prior release spoke;
* a first byte of ``0xAB`` (the frame magic, which can never begin
  UTF-8 JSON) starts a **binary** conversation of length-prefixed
  frames (:mod:`repro.service.wire`): packed ingest batches decoded
  zero-copy, compact control payloads, HELLO version negotiation.

Every request carries an op; every response carries ``"ok": true``
plus op-specific fields, or ``"ok": false`` with a one-line ``error``
(the wire twin of the CLI's exit-2 user-error contract — malformed
requests never take the server down, and internal tracebacks never
leak to the client).  Supported operations (JSON spelling)::

    {"op": "ping"}
    {"op": "estimate", "from": 0, "until": 600, "align": "outer"}
    {"op": "sketch",   "from": 0, "until": 600}       # full merged sketch
    {"op": "ingest",   "timestamps": [...], "values": [...], "counts": [...]}
    {"op": "compact",  "before": 300}
    {"op": "evict",    "before": 300}
    {"op": "info"}
    {"op": "stats"}
    {"op": "snapshot"}                                # whole-store checkpoint
    {"op": "shutdown"}                                # ack, then stop serving

Dispatch lives in :mod:`repro.service.surface` — one table shared
with the event-loop front end (:mod:`repro.service.aserver`), the
shard worker, and the cluster facade, so this module contributes only
transport: a ``ThreadingTCPServer``, one thread per connection, any
number of requests per connection, correctness delegated to the
service (snapshot isolation, merged-window caching, request
coalescing).  Each connection carries a read timeout (default 300 s):
a dead client that holds its socket open without ever sending a
complete request has its handler thread reclaimed instead of pinned
forever.  Ingested state lives in memory; snapshot the service
(``{"op": "snapshot"}`` over the wire, or :meth:`SketchService.
snapshot` from the owning process) if durability is needed.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading

from . import wire
from .surface import handle_frame, handle_request, validate_service

__all__ = [
    "SketchServiceServer",
    "handle_request",
    "DEFAULT_READ_TIMEOUT",
    "PROTOCOLS",
]

#: Seconds a connection may sit idle mid-request before it is dropped.
DEFAULT_READ_TIMEOUT = 300.0

#: Protocols a server may be restricted to (``auto`` sniffs per
#: connection and accepts both).
PROTOCOLS = ("auto", "json", "binary")


class _RequestHandler(socketserver.StreamRequestHandler):
    """One connection: sniff the protocol, then serve until hangup.

    The connection socket carries the server's ``read_timeout``: a
    peer that stops mid-request (dead client, half-open TCP session)
    trips the timeout and the handler thread exits instead of sitting
    in a blocking read forever — so a stalled connection can never pin
    a thread past shutdown.
    """

    def setup(self) -> None:  # pragma: no cover - exercised over sockets
        if self.server.read_timeout is not None:
            self.request.settimeout(self.server.read_timeout)
        super().setup()

    def handle(self) -> None:  # pragma: no cover - exercised over sockets
        try:
            first = self.rfile.peek(1)[:1]
        except (socket.timeout, TimeoutError, OSError):
            return
        if not first:
            return  # EOF before a single byte
        binary = first == wire.MAGIC[:1]
        allowed = self.server.protocol
        if binary and allowed == "json":
            self._write(self._refusal_frame("line-JSON"))
            return
        if not binary and allowed == "binary":
            self._write((json.dumps({
                "ok": False,
                "error": "this port serves the binary protocol only",
            }) + "\n").encode("utf-8"))
            return
        if binary:
            self._handle_binary()
        else:
            self._handle_json()

    @staticmethod
    def _refusal_frame(served: str) -> bytes:
        return wire.pack_frame(
            wire.OP_HELLO,
            wire.encode_compact({
                "ok": False,
                "error": f"this port serves the {served} protocol only",
            }),
            flags=wire.FLAG_RESPONSE | wire.FLAG_ERROR,
        )

    def _write(self, data: bytes) -> bool:
        try:
            self.wfile.write(data)
            self.wfile.flush()
            return True
        except OSError:
            return False

    def _finish_one(self, stopping: bool) -> bool:
        """Book-keep one served request; True when serving must stop."""
        if self.server.count_request() or stopping:
            # shutdown() only signals the serve_forever loop; it is
            # safe to call from a handler thread.
            self.server.shutdown()
            return True
        return False

    def _handle_json(self) -> None:
        while True:
            try:
                raw = self.rfile.readline()
            except (socket.timeout, TimeoutError, OSError):
                return  # stalled or torn connection: reclaim the thread
            if not raw:
                return  # orderly EOF
            line = raw.strip()
            if not line:
                continue
            response = handle_request(self.server.service, line)
            reply = json.dumps(response, default=wire.json_default) + "\n"
            if not self._write(reply.encode("utf-8")):
                return
            stopping = bool(
                response.get("ok") and response.get("op") == "shutdown"
            )
            if self._finish_one(stopping):
                return

    def _handle_binary(self) -> None:
        limit = self.server.max_frame_bytes
        while True:
            try:
                frame = wire.read_frame(self.rfile, limit)
            except (socket.timeout, TimeoutError, OSError):
                return
            except wire.WireError as exc:
                # The stream is unsynchronized past a framing error:
                # answer once, then drop the connection.
                self._write(self._error_frame(exc))
                return
            if frame is None:
                return  # orderly EOF at a frame boundary
            version, opcode, flags, payload = frame
            response, stopping = handle_frame(
                self.server.service, version, opcode, flags, payload
            )
            if not self._write(response):
                return
            if self._finish_one(stopping):
                return

    @staticmethod
    def _error_frame(exc: wire.WireError) -> bytes:
        return wire.pack_frame(
            wire.OP_HELLO,
            wire.encode_compact({"ok": False, "error": str(exc)}),
            flags=wire.FLAG_RESPONSE | wire.FLAG_ERROR,
        )


class SketchServiceServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server exposing one estimation service.

    Parameters
    ----------
    service:
        The service to expose (all concurrency control lives there).
        Anything satisfying the estimate/sketch/ingest/info surface:
        a :class:`~repro.service.service.SketchService`, or the
        cluster facade :class:`~repro.cluster.service.ClusterService`.
    address:
        ``(host, port)``; port 0 binds an ephemeral port, readable from
        :attr:`server_address` after construction.
    max_requests:
        If set, the server shuts itself down after serving this many
        requests — the hook smoke tests and the CI service job use to
        get a bounded run without process signalling.
    read_timeout:
        Seconds a connection may stall mid-request before it is
        dropped (None disables).  Keeps dead clients from pinning
        handler threads.
    protocol:
        ``"auto"`` (default) sniffs each connection's first byte and
        serves line-JSON and binary clients on the same port;
        ``"json"`` / ``"binary"`` refuse the other protocol with a
        one-response explanation.
    max_frame_bytes:
        Upper bound on a binary frame payload; oversized or corrupt
        length fields are refused before allocation
        (:class:`~repro.service.wire.FrameTooLargeError`).
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        service,
        address: tuple[str, int] = ("127.0.0.1", 0),
        max_requests: int | None = None,
        read_timeout: float | None = DEFAULT_READ_TIMEOUT,
        protocol: str = "auto",
        max_frame_bytes: int = wire.DEFAULT_MAX_FRAME_BYTES,
    ):
        validate_service(service)
        self.service = service
        self.max_requests = None if max_requests is None else int(max_requests)
        if read_timeout is not None and float(read_timeout) <= 0:
            raise ValueError(
                f"read_timeout must be positive or None, got {read_timeout}"
            )
        self.read_timeout = None if read_timeout is None else float(read_timeout)
        if protocol not in PROTOCOLS:
            raise ValueError(
                f"protocol must be one of {PROTOCOLS}, got {protocol!r}"
            )
        self.protocol = protocol
        if int(max_frame_bytes) < wire.HEADER_SIZE:
            raise ValueError(
                f"max_frame_bytes must be at least {wire.HEADER_SIZE}, "
                f"got {max_frame_bytes}"
            )
        self.max_frame_bytes = int(max_frame_bytes)
        self._served = 0
        self._served_lock = threading.Lock()
        super().__init__(tuple(address), _RequestHandler)

    def count_request(self) -> bool:
        """Record one served request; True when the budget is exhausted."""
        if self.max_requests is None:
            return False
        with self._served_lock:
            self._served += 1
            return self._served >= self.max_requests
