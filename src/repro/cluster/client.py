"""The shard-side wire client: line-JSON or binary frames, one socket.

:class:`ShardClient` is the cluster's view of one worker: a persistent
TCP connection speaking either of the :mod:`repro.service` protocols,
with

* **thread safety** — the scatter–gather facade is itself served by a
  threaded front end, so each client serialises its socket behind a
  lock (requests to *different* shards still run concurrently);
* **two protocols** — ``protocol="json"`` speaks the line-delimited
  JSON the workers have always accepted; ``protocol="binary"`` speaks
  length-prefixed frames (:mod:`repro.service.wire`): packed ingest
  batches the worker decodes zero-copy, compact control payloads, and
  :meth:`ShardClient.ingest_batches` pipelining many batches per
  round trip;
* **at-most-once retries** — a connection that died between requests
  is re-dialled with jittered backoff and the request resent, but
  *only when non-delivery is provable*: an idempotent op is also
  resent after an ambiguous failure (repeating it cannot change the
  outcome), while an ambiguous failure of a non-idempotent op
  (``ingest`` — signed, cumulative, so a replay corrupts the sketch)
  surfaces as :class:`~repro.cluster.errors.ShardProtocolError`
  instead of being silently resent;
* **typed failures** — transport problems raise
  :class:`~repro.cluster.errors.ShardUnreachableError`, malformed
  answers and ambiguous deliveries raise
  :class:`~repro.cluster.errors.ShardProtocolError`, and a
  well-formed ``{"ok": false}`` response raises
  :class:`ShardRequestError` carrying the worker's one-line message.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from typing import Iterable, Mapping, Sequence

from ..service import wire
from ..service.surface import OPS
from .errors import ShardProtocolError, ShardUnreachableError

__all__ = ["ShardClient", "ShardRequestError", "backoff_delay"]

#: Patchable sleep so tests can observe backoff without waiting it out.
_sleep = time.sleep


def backoff_delay(
    attempt: int, base: float = 0.05, cap: float = 1.0
) -> float:
    """Full-jitter exponential backoff delay for reconnect ``attempt``.

    Doubles the ceiling per attempt (``base * 2**attempt``, capped) and
    draws uniformly from the upper half of it, so a fleet of clients
    re-dialling a restarted worker spreads out instead of stampeding
    in lockstep.
    """
    ceiling = min(float(cap), float(base) * (2 ** max(int(attempt), 0)))
    return ceiling * (0.5 + 0.5 * random.random())


def _is_idempotent(op: str) -> bool:
    spec = OPS.get(op)
    # Unknown ops are refused server-side without touching state, so
    # resending one is harmless.
    return spec.idempotent if spec is not None else True


class ShardRequestError(ValueError):
    """The worker processed the request and refused it (``ok: false``)."""


class ShardClient:
    """A persistent, thread-safe client for one shard worker.

    Parameters
    ----------
    host, port:
        The worker's listening address.
    timeout:
        Seconds to wait for connect and for each response.
    protocol:
        ``"json"`` (default, the legacy line protocol) or ``"binary"``
        (length-prefixed frames; required for pipelined ingest).
    max_frame_bytes:
        Bound on a single response frame in binary mode.
    """

    #: Reconnect attempts after a provably-undelivered request failed
    #: on a stale socket (each preceded by :func:`backoff_delay`).
    RECONNECT_ATTEMPTS = 2

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 30.0,
        protocol: str = "json",
        max_frame_bytes: int = wire.DEFAULT_MAX_FRAME_BYTES,
    ):
        if protocol not in ("json", "binary"):
            raise ValueError(
                f"protocol must be 'json' or 'binary', got {protocol!r}"
            )
        self.host = str(host)
        self.port = int(port)
        self.timeout = float(timeout)
        self.protocol = protocol
        self.max_frame_bytes = int(max_frame_bytes)
        #: Optional fault-injection hook (see :mod:`repro.cluster.faults`):
        #: called with the op name before each :meth:`request` touches
        #: the socket.  It may sleep (a deterministic stall) or raise
        #: (a deterministic drop) — both exercise the front end's
        #: hedging and recovery paths without signals or real crashes.
        self.fault_hook = None
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._rfile = None

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def _connect(self) -> None:
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        except OSError as exc:
            self._sock = None
            raise ShardUnreachableError(
                f"shard {self.address} unreachable: {exc}"
            ) from exc
        self._rfile = self._sock.makefile("rb")

    def _teardown(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            self._sock = None

    def close(self) -> None:
        """Drop the connection (the next request would re-dial)."""
        with self._lock:
            self._teardown()

    def __enter__(self) -> "ShardClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def _encode(self, payload: Mapping) -> tuple[bytes, int | None]:
        """Encode ``payload``; returns ``(wire bytes, expected opcode)``.

        The opcode is ``None`` in JSON mode (the line protocol has no
        opcode to pair responses on) and the request's opcode in binary
        mode, where :meth:`_read_response` uses it to reject mispaired
        responses.
        """
        if self.protocol == "json":
            return (
                json.dumps(dict(payload), default=wire.json_default) + "\n"
            ).encode("utf-8"), None
        op = str(payload.get("op", ""))
        opcode = wire.OPCODES_BY_NAME.get(op)
        if opcode is None:
            raise ShardProtocolError(
                f"op {op!r} has no binary opcode; known: "
                f"{sorted(wire.OPCODES_BY_NAME)}"
            )
        if opcode == wire.OP_INGEST:
            body = wire.pack_ingest(
                payload["timestamps"],
                payload["values"],
                counts=payload.get("counts"),
                key=payload.get("key"),
            )
        else:
            body = wire.encode_compact(
                {k: v for k, v in payload.items() if k != "op"}
            )
        return wire.pack_frame(opcode, body), opcode

    def _read_response(self, expected_opcode: int | None = None) -> dict:
        """Read and decode one response (lock held); raises on refusal.

        In binary mode the response must echo ``expected_opcode``: a
        mismatch means the stream is mispaired (e.g. a stale ack from
        an earlier conversation) and raises
        :class:`~repro.cluster.errors.ShardProtocolError`.  The one
        exception is a server-initiated :data:`~repro.service.wire.OP_HELLO`
        error frame, the stream-level channel for failures (truncated
        header, bad magic) that have no request opcode to echo.
        """
        assert self._rfile is not None
        if self.protocol == "json":
            raw = self._rfile.readline()
            if not raw:
                raise EOFError("connection closed before a response line")
            try:
                response = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ShardProtocolError(
                    f"shard {self.address} sent invalid JSON: {raw[:80]!r}"
                ) from exc
        else:
            try:
                frame = wire.read_frame(self._rfile, self.max_frame_bytes)
            except wire.WireError as exc:
                raise ShardProtocolError(
                    f"shard {self.address} sent a malformed frame: {exc}"
                ) from exc
            if frame is None:
                raise EOFError("connection closed before a response frame")
            version, opcode, flags, payload = frame
            if not flags & wire.FLAG_RESPONSE:
                raise ShardProtocolError(
                    f"shard {self.address} sent a non-response frame "
                    f"(opcode {opcode}, flags 0x{flags:x})"
                )
            if (
                expected_opcode is not None
                and opcode != expected_opcode
                and not (opcode == wire.OP_HELLO and flags & wire.FLAG_ERROR)
            ):
                raise ShardProtocolError(
                    f"shard {self.address} answered opcode "
                    f"{expected_opcode} "
                    f"({wire.OPCODE_NAMES.get(expected_opcode, '?')}) "
                    f"with a response for opcode {opcode} "
                    f"({wire.OPCODE_NAMES.get(opcode, '?')}); the "
                    f"stream is mispaired"
                )
            try:
                response = wire.decode_compact(payload)
            except wire.WireError as exc:
                raise ShardProtocolError(
                    f"shard {self.address} sent an undecodable response "
                    f"payload: {exc}"
                ) from exc
        if not isinstance(response, dict) or "ok" not in response:
            raise ShardProtocolError(
                f"shard {self.address} sent a non-protocol response: "
                f"{str(response)[:80]!r}"
            )
        if not response["ok"]:
            raise ShardRequestError(
                f"shard {self.address}: "
                f"{response.get('error', 'request refused')}"
            )
        return response

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    def _send_counted(self, data: bytes) -> int:
        """Send ``data``, returning bytes that made it out on failure.

        The count is what retry classification keys on: 0 bytes sent
        means the worker cannot have seen the request, so resending is
        provably safe for any op.
        """
        assert self._sock is not None
        sent = 0
        view = memoryview(data)
        while sent < len(view):
            try:
                sent += self._sock.send(view[sent:])
            except OSError:
                raise _SendFailed(sent)
        return sent

    def request(self, payload: Mapping) -> dict:
        """Send one op; return the decoded ``ok: true`` response.

        Retry policy (at-most-once for non-idempotent ops):

        * failure on a **fresh** connection is final —
          :class:`~repro.cluster.errors.ShardUnreachableError`;
        * failure on a **stale** connection with zero bytes written is
          provably undelivered: re-dial (jittered backoff) and resend,
          whatever the op;
        * failure on a stale connection *after* bytes were written is
          ambiguous — the worker may or may not have applied the op.
          Idempotent ops resend once (a repeat cannot change the
          outcome); ``ingest`` raises
          :class:`~repro.cluster.errors.ShardProtocolError` instead,
          because replaying a signed cumulative batch corrupts state.
        """
        op = str(payload.get("op", ""))
        hook = self.fault_hook
        if hook is not None:
            hook(op)
        data, expected = self._encode(payload)
        with self._lock:
            fresh = self._sock is None
            if fresh:
                self._connect()
            try:
                self._send_counted(data)
                return self._read_response(expected)
            except _SendFailed as exc:
                self._teardown()
                if fresh:
                    raise ShardUnreachableError(
                        f"shard {self.address} died mid-request: "
                        f"send failed after {exc.sent} bytes"
                    ) from exc
                if exc.sent and not _is_idempotent(op):
                    raise ShardProtocolError(
                        f"shard {self.address}: connection died after "
                        f"{exc.sent} bytes of a non-idempotent "
                        f"{op!r} request; delivery is ambiguous and it "
                        f"will not be resent"
                    ) from exc
                return self._resend(data, expected, op)
            except (OSError, EOFError) as exc:
                # The request was fully written but no response came
                # back: delivery is ambiguous.
                self._teardown()
                if fresh:
                    raise ShardUnreachableError(
                        f"shard {self.address} died mid-request: {exc}"
                    ) from exc
                if not _is_idempotent(op):
                    raise ShardProtocolError(
                        f"shard {self.address}: connection died awaiting "
                        f"the response to a non-idempotent {op!r} "
                        f"request; delivery is ambiguous and it will "
                        f"not be resent"
                    ) from exc
                return self._resend(data, expected, op)
            except ShardProtocolError:
                # A malformed or mispaired response leaves the stream
                # position unknown; never reuse the connection.  (A
                # ShardRequestError refusal, by contrast, was a whole
                # well-formed frame — the socket stays usable.)
                self._teardown()
                raise

    def _resend(
        self, data: bytes, expected_opcode: int | None, op: str
    ) -> dict:
        """Re-dial (with backoff) and resend once; lock held.

        Entered only when resending ``data`` is safe (non-delivery is
        provable, or ``op`` is idempotent).  The same classification
        governs each retry: a retry of a non-idempotent op that itself
        fails after bytes went out is ambiguous again and stops the
        loop instead of resending a second copy.
        """
        last: Exception | None = None
        for attempt in range(self.RECONNECT_ATTEMPTS):
            _sleep(backoff_delay(attempt))
            ambiguous = False
            try:
                self._connect()
                self._send_counted(data)
                return self._read_response(expected_opcode)
            except ShardUnreachableError as exc:
                last = exc
            except _SendFailed as exc:
                self._teardown()
                ambiguous = exc.sent > 0
                last = exc
            except (OSError, EOFError) as exc:
                self._teardown()
                ambiguous = True
                last = exc
            except ShardProtocolError:
                self._teardown()
                raise
            if ambiguous and not _is_idempotent(op):
                raise ShardProtocolError(
                    f"shard {self.address}: connection died after a "
                    f"retried non-idempotent {op!r} request was "
                    f"(partially) sent; delivery is ambiguous and it "
                    f"will not be resent"
                ) from last
        raise ShardUnreachableError(
            f"shard {self.address} died mid-request: {last}"
        ) from last

    # ------------------------------------------------------------------
    # Pipelined ingest (binary mode)
    # ------------------------------------------------------------------
    def ingest_batches(
        self,
        batches: Iterable[tuple],
        window: int = 8,
        key: str | None = None,
    ) -> int:
        """Ingest many ``(timestamps, values[, counts])`` batches.

        ``key`` routes every batch of the call into that stream of a
        keyed fleet (the per-batch payloads gain the wire key trailer).

        In binary mode the batches are **pipelined**: up to ``window``
        request frames are in flight before the first response is
        read, so the worker's decode of batch *k+1* overlaps the wire
        transfer of later batches and per-batch round-trip latency is
        paid once, not per batch.  JSON mode degrades to one request
        per round trip.

        A stale connection that fails before any byte of the first
        frame goes out is provably undelivered, so it re-dials with
        backoff like :meth:`request` does.  Any failure after bytes
        were written is ambiguous for every in-flight batch and
        surfaces as
        :class:`~repro.cluster.errors.ShardProtocolError` — the caller
        must reconcile (e.g. re-check shard stats), never blind-resend.
        Returns the total number of values the worker acknowledged.
        """
        if int(window) < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        total = 0
        if self.protocol == "json":
            for batch in batches:
                payload = self._batch_payload(batch, key=key)
                total += int(self.request(payload).get("ingested", 0))
            return total
        frames = (
            self._encode(self._batch_payload(b, key=key))[0] for b in batches
        )
        with self._lock:
            fresh = self._sock is None
            if fresh:
                self._connect()
            in_flight = 0
            wrote_any = False
            try:
                for frame in frames:
                    try:
                        self._send_counted(frame)
                    except _SendFailed as exc:
                        if wrote_any or fresh or exc.sent:
                            raise
                        # Stale socket, zero bytes out: the worker
                        # cannot have seen anything, so reconnect and
                        # restart the pipeline on the fresh socket.
                        self._teardown()
                        self._redial_and_send(frame)
                        fresh = True
                    wrote_any = True
                    in_flight += 1
                    if in_flight >= int(window):
                        total += int(
                            self._read_response(wire.OP_INGEST).get(
                                "ingested", 0
                            )
                        )
                        in_flight -= 1
                while in_flight:
                    total += int(
                        self._read_response(wire.OP_INGEST).get(
                            "ingested", 0
                        )
                    )
                    in_flight -= 1
            except ShardUnreachableError:
                # _redial_and_send exhausted its attempts with nothing
                # delivered; the classification stands.  (Caught first:
                # it subclasses ConnectionError/OSError.)
                self._teardown()
                raise
            except (_SendFailed, OSError, EOFError) as exc:
                self._teardown()
                if fresh and not wrote_any:
                    raise ShardUnreachableError(
                        f"shard {self.address} died mid-request: {exc}"
                    ) from exc
                raise ShardProtocolError(
                    f"shard {self.address}: connection died with "
                    f"{in_flight} pipelined ingest batch(es) in flight; "
                    f"delivery is ambiguous and they will not be resent"
                ) from exc
            except BaseException:
                # Any other failure — a worker refusal
                # (ShardRequestError), an encode error, a malformed or
                # mispaired response — leaves unread pipelined acks on
                # the socket, so a reused connection would pair the
                # next request with a stale ingest ack.  Never reuse
                # the stream.
                self._teardown()
                raise
        return total

    def _redial_and_send(self, data: bytes) -> None:
        """Re-dial with backoff and send provably-undelivered bytes.

        Lock held.  Serves the pipelined ingest path when zero bytes
        of the first frame reached a stale socket.  A retry attempt
        that itself gets bytes of this non-idempotent frame onto the
        wire and then dies is ambiguous and raises
        :class:`~repro.cluster.errors.ShardProtocolError` instead of
        retrying again.
        """
        last: Exception | None = None
        for attempt in range(self.RECONNECT_ATTEMPTS):
            _sleep(backoff_delay(attempt))
            try:
                self._connect()
                self._send_counted(data)
                return
            except ShardUnreachableError as exc:
                last = exc
            except _SendFailed as exc:
                self._teardown()
                if exc.sent:
                    raise ShardProtocolError(
                        f"shard {self.address}: connection died after "
                        f"{exc.sent} bytes of a retried ingest frame; "
                        f"delivery is ambiguous and it will not be "
                        f"resent"
                    ) from exc
                last = exc
        raise ShardUnreachableError(
            f"shard {self.address} died mid-request: {last}"
        ) from last

    @staticmethod
    def _batch_payload(batch: Sequence, key: str | None = None) -> dict:
        if len(batch) == 2:
            timestamps, values = batch
            counts = None
        elif len(batch) == 3:
            timestamps, values, counts = batch
        else:
            raise ValueError(
                "each batch must be (timestamps, values) or "
                "(timestamps, values, counts)"
            )
        payload = {"op": "ingest", "timestamps": timestamps, "values": values}
        if counts is not None:
            payload["counts"] = counts
        if key is not None:
            payload["key"] = key
        return payload

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "connected" if self._sock is not None else "idle"
        return f"ShardClient({self.address}, {self.protocol}, {state})"


class _SendFailed(Exception):
    """Internal: a socket send failed after ``sent`` bytes went out."""

    def __init__(self, sent: int):
        super().__init__(f"send failed after {sent} bytes")
        self.sent = sent
