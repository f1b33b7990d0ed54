"""Event-loop serving front end: pipelined connections on one thread.

The threaded server (:mod:`repro.service.server`) spends one OS
thread per connection and serves one request per round trip.  This
front end multiplexes every connection onto a single asyncio event
loop and **pipelines** within each connection: a decode task parses
requests off the socket into a bounded queue while a responder task
executes them — so the decode of request *k+1* overlaps the execution
of request *k*, and a client may queue many requests before reading
any response.  Responses still come back strictly in request order
(execution is serial per connection), which is what makes pipelining
safe to use blindly.

Handlers run in the loop's default thread-pool executor so a long
estimate never stalls the loop; all dispatch goes through the shared
service surface (:mod:`repro.service.surface`) — this module, like
the threaded one, contributes transport only.

Flow control, both directions:

* inbound, the decode queue is bounded (a client that pipelines
  faster than the service executes is paused at the TCP window, not
  buffered without limit), and binary frames above ``max_frame_bytes``
  are refused and drained without allocation;
* outbound, the responder awaits ``drain()`` after every write, so a
  client that stops reading pauses its own connection instead of
  growing the server's write buffer.

Protocol negotiation is byte-compatible with the threaded server:
the first byte of a connection selects binary frames (``0xAB``) or
line-JSON (anything else), and ``protocol="json"``/``"binary"``
restricts the port to one of them.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import socket
import threading

from . import wire
from .server import DEFAULT_READ_TIMEOUT, PROTOCOLS
from .surface import handle_frame, handle_request, validate_service

__all__ = ["EventLoopServer", "PIPELINE_DEPTH"]

#: Requests a single connection may have decoded-but-unexecuted; past
#: this the decode task stops reading and TCP backpressure reaches the
#: client.
PIPELINE_DEPTH = 32

#: Bytes drained per read when discarding an oversized frame's payload.
_DRAIN_CHUNK = 1 << 20

#: "No limit" bound for the first header parse: the real size check
#: happens after, so an oversized frame can be drained and answered
#: instead of desynchronizing the stream.
_HEADER_ONLY_LIMIT = (1 << 32) + wire.HEADER_SIZE


def _error_frame(opcode: int, message: str) -> bytes:
    return wire.pack_frame(
        opcode,
        wire.encode_compact({"ok": False, "error": message}),
        flags=wire.FLAG_RESPONSE | wire.FLAG_ERROR,
    )


def _json_line(response: dict) -> bytes:
    return (json.dumps(response, default=wire.json_default) + "\n").encode("utf-8")


class EventLoopServer:
    """Asyncio front end over one estimation service.

    Mirrors :class:`~repro.service.server.SketchServiceServer`'s
    surface — ``server_address`` after construction, blocking
    ``serve_forever()``, thread-safe ``shutdown()``, idempotent
    ``server_close()`` — so the CLI can swap front ends without
    changing its lifecycle code.  The listening socket is bound
    synchronously in ``__init__`` (port 0 works), the loop starts in
    ``serve_forever``.
    """

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
        # Bind now so server_address is known before the loop exists.
        self._sock = socket.create_server(
            tuple(address), reuse_port=False, backlog=128
        )
        self.server_address = self._sock.getsockname()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._loop_ready = threading.Event()
        self._served = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle (mirrors socketserver's split of concerns)
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` is called."""
        asyncio.run(self._main())

    def shutdown(self) -> None:
        """Stop ``serve_forever`` from any thread (safe before start)."""
        self._loop_ready.wait(timeout=5.0)
        loop = self._loop
        if loop is not None and not loop.is_closed():
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(self._signal_stop)

    def server_close(self) -> None:
        """Release the listening socket (idempotent).

        While the loop is running it owns the socket and closes it as
        ``serve_forever`` unwinds; closing the fd out from under a live
        loop would poison its selector, so this only closes directly
        when the loop never started or has already finished.
        """
        if self._closed:
            return
        self._closed = True
        loop = self._loop
        if loop is not None and not loop.is_closed():
            return
        with contextlib.suppress(OSError):
            self._sock.close()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._loop_ready.set()
        # The stream limit bounds readline() in JSON mode, so it doubles
        # as the max-line guard; binary reads use readexactly and are
        # bounded by the explicit frame-size check instead.
        server = await asyncio.start_server(
            self._handle_connection,
            sock=self._sock,
            limit=max(self.max_frame_bytes, 1 << 16),
        )
        async with server:
            await self._stop.wait()

    def _signal_stop(self) -> None:
        if self._stop is not None:
            self._stop.set()

    def _count_request(self) -> bool:
        """Loop-thread only: record one response, True when budget spent."""
        if self.max_requests is None:
            return False
        self._served += 1
        return self._served >= self.max_requests

    def _finish_one(self, stopping: bool) -> bool:
        if self._count_request() or stopping:
            self._signal_stop()
            return True
        return False

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _read(self, awaitable):
        if self.read_timeout is None:
            return await awaitable
        return await asyncio.wait_for(awaitable, self.read_timeout)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                first = await self._read(reader.readexactly(1))
            except (
                asyncio.IncompleteReadError,
                asyncio.TimeoutError,
                TimeoutError,
                OSError,
            ):
                return
            binary = first == wire.MAGIC[:1]
            if binary and self.protocol == "json":
                writer.write(_error_frame(
                    wire.OP_HELLO,
                    "this port serves the line-JSON protocol only",
                ))
                await writer.drain()
                return
            if not binary and self.protocol == "binary":
                writer.write(_json_line({
                    "ok": False,
                    "error": "this port serves the binary protocol only",
                }))
                await writer.drain()
                return
            if binary:
                await self._serve_binary(reader, writer, first)
            else:
                await self._serve_json(reader, writer, first)
        except (asyncio.TimeoutError, TimeoutError, ConnectionError, OSError):
            # Stalled or torn connection: drop it, keep the loop.
            # asyncio.TimeoutError is spelled out because wait_for
            # raises it on 3.10, where it is not yet the builtin.
            pass
        except asyncio.CancelledError:
            # Loop teardown cancelled a live connection: finish the
            # task cleanly (re-raising would only produce shutdown
            # noise from the streams done-callback).
            pass
        finally:
            with contextlib.suppress(
                asyncio.CancelledError, OSError, ConnectionError
            ):
                writer.close()
                await writer.wait_closed()

    async def _pipeline(self, decode, respond) -> None:
        """Run decode/respond as the two halves of one pipelined
        connection; whichever half finishes first retires the other."""
        decode_task = asyncio.create_task(decode())
        try:
            await respond()
        finally:
            decode_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await decode_task

    # -- line-JSON ------------------------------------------------------
    async def _serve_json(self, reader, writer, first: bytes) -> None:
        queue: asyncio.Queue = asyncio.Queue(maxsize=PIPELINE_DEPTH)

        async def decode() -> None:
            prefix = first
            try:
                while True:
                    try:
                        line = prefix + await self._read(reader.readline())
                    except ValueError:
                        # Line longer than the stream limit.
                        await queue.put((
                            "fatal",
                            f"request line exceeds the "
                            f"{max(self.max_frame_bytes, 1 << 16)}-byte limit",
                        ))
                        return
                    prefix = b""
                    if not line:
                        return  # orderly EOF
                    stripped = line.strip()
                    if stripped:
                        await queue.put(("line", stripped))
                    if not line.endswith(b"\n"):
                        return  # EOF mid-line: serve what arrived whole
            except (
                asyncio.TimeoutError, TimeoutError, ConnectionError, OSError
            ):
                pass
            finally:
                await queue.put(None)

        async def respond() -> None:
            loop = asyncio.get_running_loop()
            while True:
                item = await queue.get()
                if item is None:
                    return
                kind, data = item
                if kind == "fatal":
                    writer.write(_json_line({"ok": False, "error": data}))
                    await writer.drain()
                    return
                response = await loop.run_in_executor(
                    None, handle_request, self.service, data
                )
                writer.write(_json_line(response))
                await writer.drain()
                stopping = bool(
                    response.get("ok") and response.get("op") == "shutdown"
                )
                if self._finish_one(stopping):
                    return

        await self._pipeline(decode, respond)

    # -- binary frames --------------------------------------------------
    async def _serve_binary(self, reader, writer, first: bytes) -> None:
        queue: asyncio.Queue = asyncio.Queue(maxsize=PIPELINE_DEPTH)

        async def decode() -> None:
            prefix = first
            try:
                while True:
                    try:
                        header = prefix + await self._read(
                            reader.readexactly(wire.HEADER_SIZE - len(prefix))
                        )
                    except asyncio.IncompleteReadError as exc:
                        if exc.partial or prefix:
                            await queue.put((
                                "fatal",
                                wire.OP_HELLO,
                                f"truncated frame header: got "
                                f"{len(prefix) + len(exc.partial)} of "
                                f"{wire.HEADER_SIZE} bytes",
                            ))
                        return  # bare EOF at a frame boundary is orderly
                    prefix = b""
                    try:
                        version, opcode, flags, length = wire.unpack_header(
                            header, _HEADER_ONLY_LIMIT
                        )
                    except wire.WireError as exc:
                        # Bad magic: the stream is unsynchronized.
                        await queue.put(("fatal", wire.OP_HELLO, str(exc)))
                        return
                    if length > self.max_frame_bytes:
                        # Refuse without allocating, drain so the
                        # connection stays frame-aligned and survives.
                        await self._drain_payload(reader, length)
                        await queue.put((
                            "refused",
                            opcode,
                            f"frame payload of {length} bytes exceeds "
                            f"the {self.max_frame_bytes}-byte limit",
                        ))
                        continue
                    try:
                        payload = (
                            await self._read(reader.readexactly(length))
                            if length
                            else b""
                        )
                    except asyncio.IncompleteReadError as exc:
                        await queue.put((
                            "fatal",
                            opcode,
                            f"truncated frame payload: got "
                            f"{len(exc.partial)} of {length} bytes",
                        ))
                        return
                    await queue.put(
                        ("frame", version, opcode, flags, payload)
                    )
            except (
                asyncio.TimeoutError, TimeoutError, ConnectionError, OSError
            ):
                pass
            finally:
                await queue.put(None)

        async def respond() -> None:
            loop = asyncio.get_running_loop()
            while True:
                item = await queue.get()
                if item is None:
                    return
                if item[0] == "frame":
                    _, version, opcode, flags, payload = item
                    response, stopping = await loop.run_in_executor(
                        None,
                        handle_frame,
                        self.service,
                        version,
                        opcode,
                        flags,
                        payload,
                    )
                    writer.write(response)
                    await writer.drain()
                    if self._finish_one(stopping):
                        return
                else:
                    kind, opcode, message = item
                    writer.write(_error_frame(opcode, message))
                    await writer.drain()
                    if kind == "fatal" or self._finish_one(False):
                        return

        await self._pipeline(decode, respond)

    async def _drain_payload(self, reader, length: int) -> None:
        remaining = length
        while remaining:
            chunk = await self._read(
                reader.read(min(remaining, _DRAIN_CHUNK))
            )
            if not chunk:
                raise ConnectionError(
                    "connection closed while draining an oversized frame"
                )
            remaining -= len(chunk)
