"""Reference answers for the benchmark's correctness check.

Two oracles are built from the generated inputs after the timed
phase, so the check costs no measured time:

* exact sizes, with numpy alone: per-(stream, bucket) frequency rows,
  summed over a window's buckets, give the exact F2 or join size;
* reference answers, from in-process ``repro`` stores fed the same
  batches, which the served answers must match bit for bit.

Every workload sends a fixed base (its preload) and then repeats one
cycle of ``G`` batches.  Tug-of-war state is integer-linear, so the
state after ``p`` cycle batches is ``base + (p // G) * cycle +
partial(p % G)``: the reference replays the cycle once and merges the
pieces, however long the run.

A query that ran while another thread ingested saw some prefix
``p`` in ``[lo, hi]``: every batch acknowledged before it was sent,
and at most every batch sent before its answer arrived.  The answer
is right if it equals the reference at one of those prefixes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.engine.sharded import merge_sketches


@dataclass
class Query:
    """One answered (or failed) window query of a timed phase."""

    kind: str  # "f2" (self-join size) or "join"
    streams: tuple  # one stream, or the two joined streams
    t0: int
    t1: int
    lo: int  # the answer reflects a prefix of at least lo cycle batches
    hi: int  # ... and at most hi
    answer: float | None  # None when the op was refused or errored
    weight: int = 1  # identical queries with identical answers, folded

    @property
    def key(self) -> tuple:
        return (self.kind, self.streams, self.t0, self.t1, self.lo, self.hi, self.answer)


class _Fleet:
    """Reference stores and exact frequency rows for some streams."""

    def __init__(self, make_store, streams, nbuckets: int, width: int, domain: int):
        self._make_store = make_store
        self._streams = set(streams)
        self._nbuckets = nbuckets
        self._width = width
        self._domain = domain
        self.stores: dict = {}
        self.freq: dict = {}
        self._windows: dict = {}  # (stream, t0, t1) -> (sketch, rows) until the next op

    def apply(self, op) -> None:
        stream, ts, values, counts = op
        if stream not in self._streams:
            return
        self._windows.clear()
        store = self.stores.get(stream)
        if store is None:
            store = self.stores[stream] = self._make_store()
            self.freq[stream] = np.zeros((self._nbuckets, self._domain), np.int64)
        store.ingest(ts, values, counts=counts)
        np.add.at(
            self.freq[stream],
            (ts // self._width, values),
            1 if counts is None else counts,
        )

    def sketch(self, stream, t0: int, t1: int):
        return self._window(stream, t0, t1)[0]

    def rows(self, stream, t0: int, t1: int) -> np.ndarray:
        return self._window(stream, t0, t1)[1]

    def _window(self, stream, t0: int, t1: int) -> tuple:
        key = (stream, t0, t1)
        if key not in self._windows:
            store = self.stores.get(stream)
            if store is None:
                self._windows[key] = (None, np.zeros(self._domain, np.int64))
            else:
                rows = self.freq[stream][t0 // self._width : t1 // self._width].sum(axis=0)
                self._windows[key] = (store.query(t0, t1), rows)
        return self._windows[key]


class Reference:
    """Reference and exact answers at any prefix of a base + cycle run."""

    def __init__(self, make_store, base_ops, cycle_ops, nbuckets, width, domain):
        self._make_store = make_store
        self._cycle_ops = list(cycle_ops)
        self._geometry = (nbuckets, width, domain)
        self._base_ops = list(base_ops)
        self._op_streams = [op[0] for op in self._cycle_ops]
        self._op_buckets = np.array(
            [np.bincount(op[1] // width, minlength=nbuckets) > 0 for op in self._cycle_ops]
        )
        # ``base + cycles * cycle`` per (stream, window, cycles): the same
        # for the whole check, whatever the partial cycle holds.
        self._fixed: dict = {}
        self._fixed_rows: dict = {}

    def _fleet(self, streams, ops=()) -> _Fleet:
        fleet = _Fleet(self._make_store, streams, *self._geometry)
        for op in ops:
            fleet.apply(op)
        return fleet

    def _versions(self, query: Query) -> np.ndarray:
        """How many cycle batches before each position touch the query.

        A batch touches a query when it holds an event of one of the
        query's streams inside the query's window.  Between two
        positions with the same count the query's answer cannot
        change, so the check evaluates each (query, version) once.
        """
        _, width, _ = self._geometry
        ours = np.array([stream in query.streams for stream in self._op_streams])
        inside = self._op_buckets[:, query.t0 // width : query.t1 // width].any(axis=1)
        return np.concatenate(([0], np.cumsum(ours & inside)))

    def resolve(self, queries: list[Query]) -> list[dict]:
        """Check every answered query; one result dict per query."""
        streams = {s for q in queries for s in q.streams}
        base = self._fleet(streams, self._base_ops)
        cycle = self._fleet(streams, self._cycle_ops)
        partial = self._fleet(streams)
        fleets = (base, cycle, partial)
        size = len(self._cycle_ops)
        versions: dict = {}
        tasks = defaultdict(list)
        for index, query in enumerate(queries):
            if query.answer is None:
                continue
            request = (query.kind, query.streams, query.t0, query.t1)
            if request not in versions:
                versions[request] = self._versions(query)
            for p in range(query.lo, query.hi + 1):
                tasks[p % size].append((index, p))
        results = [
            {"matched": False, "exact": None, "reference": None} for _ in queries
        ]
        memo: dict = {}
        exact: dict = {}
        for r in range(size):
            for index, p in tasks.get(r, ()):
                query, result = queries[index], results[index]
                if result["matched"]:
                    continue
                request = (query.kind, query.streams, query.t0, query.t1)
                state = (request, p // size, int(versions[request][r]))
                value = memo.get(state)
                if value is None:
                    value = memo[state] = self._value(query, fleets, p // size)
                if value == query.answer or p == query.hi:
                    result["reference"] = value
                    if state not in exact:
                        exact[state] = self._exact(query, fleets, p // size)
                    result["exact"] = exact[state]
                    result["matched"] = value == query.answer
            partial.apply(self._cycle_ops[r])
        return results

    def _window_sketch(self, stream, query, fleets, cycles):
        base, cycle, partial = fleets
        key = (stream, query.t0, query.t1, cycles)
        if key not in self._fixed:
            parts = [] if (b := base.sketch(stream, query.t0, query.t1)) is None else [b]
            repeated = cycle.sketch(stream, query.t0, query.t1)
            if repeated is not None:
                parts += [repeated] * cycles
            self._fixed[key] = merge_sketches(parts) if parts else None
        parts = [
            s for s in (self._fixed[key], partial.sketch(stream, query.t0, query.t1))
            if s is not None
        ]
        if not parts:
            return self._make_store().spec.build()
        return merge_sketches(parts)

    def _value(self, query, fleets, cycles) -> float:
        sketches = [self._window_sketch(s, query, fleets, cycles) for s in query.streams]
        if query.kind == "join":
            return float(sketches[0].inner_product(sketches[1]))
        return float(sketches[0].estimate())

    def _exact(self, query, fleets, cycles) -> float:
        base, cycle, partial = fleets
        rows = []
        for s in query.streams:
            key = (s, query.t0, query.t1, cycles)
            if key not in self._fixed_rows:
                self._fixed_rows[key] = (
                    base.rows(s, query.t0, query.t1) + cycles * cycle.rows(s, query.t0, query.t1)
                )
            rows.append(
                (self._fixed_rows[key] + partial.rows(s, query.t0, query.t1)).astype(np.float64)
            )
        return float(rows[0] @ rows[-1])
