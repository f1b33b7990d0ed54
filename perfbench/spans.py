"""Span recorder for the traced benchmark run.

Tracing lives entirely in the benchmark: :func:`install` wraps the
public entry points of each ``repro`` layer from outside, and
:meth:`SpanRecorder.layer_metrics` folds the recorded spans into the
per-layer metrics declared in ``BENCHMARK.json``.

A span is ``(span id, parent id, request id, name, start ns, end ns,
attrs)``.  The parent is the innermost open span of the same thread;
work handed to a ``ThreadPoolExecutor`` inherits the submitting
thread's open span, so a cluster query's per-shard hops are children
of the gather that waits on them.  A root span's id is the request id
every span below it shares.  Self time is a span's duration minus the
part of it covered by the union of its children's intervals (children
on scatter threads overlap, so they are merged, not summed).
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

#: Entry points wrapped from outside ``repro``: (span name, owner path,
#: attribute).  Module-level functions are also replaced wherever a
#: caller bound them at import time (``from x import f``).
FUNCTION_POINTS = (
    ("kernels.scatter", "repro.kernels.dispatch", "tugofwar_scatter"),
    ("kernels.shard_assign", "repro.kernels.dispatch", "shard_assign"),
    ("engine.dump_sketch", "repro.engine.registry", "dump_sketch"),
    ("engine.load_sketch", "repro.engine.registry", "load_sketch"),
    ("engine.merge", "repro.engine.sharded", "merge_sketches"),
    ("surface.dispatch", "repro.service.surface", "handle_frame"),
    ("wire.unpack_ingest", "repro.service.wire", "unpack_ingest"),
    ("wire.encode_compact", "repro.service.wire", "encode_compact"),
    ("wire.decode_compact", "repro.service.wire", "decode_compact"),
    ("cluster.backoff", "repro.cluster.client", "backoff_delay"),
)

METHOD_POINTS = (
    ("core.hash_family", "repro.core.hashing", "PolynomialHashFamily", "__init__"),
    ("core.hash_family", "repro.core.hashing", "PolynomialHashFamily", "from_dict"),
    ("core.sketch_update", "repro.core.tugofwar", "TugOfWarSketch", "update_from_frequencies"),
    ("core.estimate", "repro.core.tugofwar", "TugOfWarSketch", "estimate"),
    ("core.estimate", "repro.core.tugofwar", "TugOfWarSketch", "inner_product"),
    ("store.ingest", "repro.store.windowed", "WindowedSketchStore", "ingest"),
    ("store.query", "repro.store.windowed", "WindowedSketchStore", "query_resolved"),
    ("service.ingest", "repro.service.service", "SketchService", "ingest"),
    ("relational.ingest", "repro.service.service", "CatalogService", "ingest"),
    ("relational.join_estimate", "repro.relational.windowed", "WindowedSignatureCatalog", "join_estimate"),
    ("relational.join_estimate", "repro.relational.windowed", "WindowedSignatureCatalog", "self_join_estimate"),
    ("cluster.request", "repro.cluster.client", "ShardClient", "request"),
    ("cluster.gather", "repro.cluster.service", "ClusterService", "estimate_window"),
    ("cluster.gather", "repro.cluster.service", "ClusterService", "estimate"),
    ("cluster.gather", "repro.cluster.service", "ClusterService", "sketch_window"),
    ("cluster.gather", "repro.cluster.service", "ClusterService", "query"),
)

#: Layer figures the traced run does not produce.  The asyncio front end
#: reads frames inline in a coroutine (``EventLoopServer._serve_binary``),
#: which has no entry point to wrap without patching ``src``; that time
#: lands in ``cluster.hop_wait_s``.  No kept workload serves a keyed
#: fleet, so ``KeyedSketchStore.ingest`` is not wrapped.
UNMEASURED = ("wire.frame_read_s", "store.keyed_ingest.self_s")

_INGEST_OPCODE = 4  # repro.service.wire.OP_INGEST
_FLAG_ERROR = 0x0002  # repro.service.wire.FLAG_ERROR


def _request_attrs(args, kwargs, result) -> dict:
    payload = args[1] if len(args) > 1 else kwargs.get("payload", {})
    return {"op": str(payload.get("op", ""))}


def _dispatch_attrs(args, kwargs, result) -> dict:
    # handle_frame(service, version, opcode, flags, payload) -> (frame, stop)
    frame = result[0]
    flags = int.from_bytes(frame[4:6], "little")  # header: <2sBBHI
    return {
        "opcode": int(args[2]),
        "request_bytes": len(args[4]),
        "response_bytes": len(frame),
        "error": 1 if flags & _FLAG_ERROR else 0,
    }


def _scatter_attrs(args, kwargs, result) -> dict:
    # tugofwar_scatter(coeffs, values, counts, z)
    values = args[1] if len(args) > 1 else kwargs["values"]
    return {"values": len(values)}


_ATTRS = {
    "cluster.request": _request_attrs,
    "surface.dispatch": _dispatch_attrs,
    "kernels.scatter": _scatter_attrs,
}


class SpanRecorder:
    """In-memory spans plus the wrappers that produce them."""

    def __init__(self):
        self.enabled = False
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int]:
        """(parent span id, request id) for a span opening now."""
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "inherited", (0, 0))

    def _record(self, name, fn, attrs, args, kwargs):
        parent, request = self._open()
        span_id = next(self._ids)
        request = request or span_id
        stack = self._stack()
        stack.append((span_id, request))
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self.spans.append((span_id, parent, request, name, start, time.perf_counter_ns(), None))
            raise
        finally:
            stack.pop()
        end = time.perf_counter_ns()
        extra = None if attrs is None else attrs(args, kwargs, result)
        self.spans.append((span_id, parent, request, name, start, end, extra))
        return result

    def wrap(self, name: str, fn):
        """``fn`` recording a span named ``name`` while tracing is on."""
        recorder = self
        attrs = _ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            return recorder._record(name, fn, attrs, args, kwargs)

        return traced

    def _timed_enter(self, name: str, factory):
        """Wrap a context-manager factory; the span covers ``__enter__``."""
        recorder = self

        class _Timed:
            def __init__(self, cm):
                self._cm = cm

            def __enter__(self):
                if not recorder.enabled:
                    return self._cm.__enter__()
                return recorder._record(name, self._cm.__enter__, None, (), {})

            def __exit__(self, *exc):
                return self._cm.__exit__(*exc)

        @functools.wraps(factory)
        def traced(*args, **kwargs):
            return _Timed(factory(*args, **kwargs))

        return traced

    def _propagating_submit(self, submit):
        """``ThreadPoolExecutor.submit`` whose task inherits the open span."""
        recorder = self

        @functools.wraps(submit)
        def traced(pool, fn, /, *args, **kwargs):
            if not recorder.enabled:
                return submit(pool, fn, *args, **kwargs)
            inherited = recorder._open()

            def run():
                local = recorder._local
                previous = getattr(local, "inherited", (0, 0))
                local.inherited = inherited
                try:
                    return fn(*args, **kwargs)
                finally:
                    local.inherited = previous

            return submit(pool, run)

        return traced

    # -- installation ----------------------------------------------------
    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point; call once, after importing ``repro``."""
        if self._patches:
            raise RuntimeError("tracing is already installed")
        for name, module_name, attr in FUNCTION_POINTS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self.wrap(name, original)
            for module in list(sys.modules.values()):
                if (
                    module is not None
                    and getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, attr, None) is original
                ):
                    self._patch(module, attr, wrapped)
        for name, module_name, cls_name, attr in METHOD_POINTS:
            cls = getattr(sys.modules[module_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__))
            else:
                wrapped = self.wrap(name, raw)
            self._patch(cls, attr, wrapped)
        lock_cls = sys.modules["repro.service.concurrency"].ReadWriteLock
        for attr in ("read", "write"):
            self._patch(
                lock_cls, attr, self._timed_enter("service.lock_wait", lock_cls.__dict__[attr])
            )
        self._patch(
            ThreadPoolExecutor,
            "submit",
            self._propagating_submit(ThreadPoolExecutor.__dict__["submit"]),
        )

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for span_id, parent, _req, _name, start, end, _attrs in self.spans:
            if parent:
                children[parent].append((start, end))
        totals: dict[str, float] = defaultdict(float)
        for span_id, _parent, _req, name, start, end, _attrs in self.spans:
            covered = 0
            reach = start
            for c0, c1 in sorted(children.get(span_id, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            totals[name] += (end - start - covered) / 1e9
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics computable from spans alone."""
        selfs = self.self_times()
        count: dict[str, int] = defaultdict(int)
        attr_sum: dict[tuple[str, str], int] = defaultdict(int)
        rtt = server = 0
        for _id, _parent, _req, name, start, end, attrs in self.spans:
            count[name] += 1
            if attrs:
                for key, value in attrs.items():
                    if isinstance(value, int):
                        attr_sum[(name, key)] += value
            # The hop split covers request/response ops; pipelined
            # ingest frames have no client-side span to pair with.
            if name == "cluster.request" and attrs and attrs["op"] != "ingest":
                rtt += end - start
            elif name == "surface.dispatch" and attrs and attrs["opcode"] != _INGEST_OPCODE:
                server += end - start
        lock_wait = sum(
            end - start for _i, _p, _r, name, start, end, _a in self.spans
            if name == "service.lock_wait"
        )
        return {
            "kernels.scatter.calls": count["kernels.scatter"],
            "kernels.scatter.values": attr_sum[("kernels.scatter", "values")],
            "kernels.scatter.self_s": selfs["kernels.scatter"],
            "kernels.shard_assign.self_s": selfs["kernels.shard_assign"],
            "core.hash_family.builds": count["core.hash_family"],
            "core.sketch_update.self_s": selfs["core.sketch_update"],
            "core.estimate.self_s": selfs["core.estimate"],
            "engine.dump_sketch.self_s": selfs["engine.dump_sketch"],
            "engine.load_sketch.self_s": selfs["engine.load_sketch"],
            "engine.merge.self_s": selfs["engine.merge"],
            "store.ingest.self_s": selfs["store.ingest"],
            "store.query.self_s": selfs["store.query"],
            "service.lock_wait_s": lock_wait / 1e9,
            "service.ingest.self_s": selfs["service.ingest"],
            "surface.dispatch.self_s": selfs["surface.dispatch"],
            "surface.ops": count["surface.dispatch"],
            "surface.errors": attr_sum[("surface.dispatch", "error")],
            "wire.unpack_ingest.self_s": selfs["wire.unpack_ingest"],
            "wire.request_bytes": attr_sum[("surface.dispatch", "request_bytes")],
            "wire.encode_compact.self_s": selfs["wire.encode_compact"],
            "wire.decode_compact.self_s": selfs["wire.decode_compact"],
            "wire.response_bytes": attr_sum[("surface.dispatch", "response_bytes")],
            "cluster.shard_rtt_s": rtt / 1e9,
            "cluster.shard_server_s": server / 1e9,
            "cluster.hop_wait_s": (rtt - server) / 1e9,
            "cluster.gather.self_s": selfs["cluster.gather"],
            "cluster.retries": count["cluster.backoff"],
            "relational.join_estimate.self_s": selfs["relational.join_estimate"],
            "relational.ingest.self_s": selfs["relational.ingest"],
            "trace.spans": len(self.spans),
        }

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tparent\trequest\tname\tstart_ns\tend_ns\tattrs\n")
            for span_id, parent, request, name, start, end, attrs in self.spans:
                out.write(
                    f"{span_id}\t{parent}\t{request}\t{name}\t{start}\t{end}\t"
                    f"{attrs or ''}\n"
                )
