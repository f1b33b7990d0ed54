"""Vectorised bulk ingestion: coalesce operations, feed sketches in batches.

The seed implementation fed every tracker one Python ``int`` at a
time — per-element ``insert`` calls dominated run time long before the
sketch arithmetic did.  This module is the single stream-feeding path
for the whole system:

* :func:`coalesce_operations` folds an insert/delete sequence into a
  signed frequency histogram — for *linear* sketches (tug-of-war,
  frequency vectors) applying the histogram is bit-identical to
  replaying the operations one by one, by linearity;
* :func:`ingest_stream` / :func:`ingest_operations` feed a stream or an
  operation sequence to any sketch through its fastest correct bulk
  path, falling back to per-element calls for foreign trackers;
* :func:`replay_batched` is the batched drop-in for
  :func:`repro.streams.operations.replay`: it answers every ``Query``
  operation exactly where it occurs, batching the updates between
  queries.

Batching strategy
-----------------
``sketch.is_linear`` selects the strategy:

* **linear** — all updates between two queries coalesce into one signed
  histogram applied via ``update_from_frequencies`` (order-free, exact).
  The linear kinds coalesce every batch they are handed the same way
  (:func:`repro.engine.protocol.net_histogram`), signed store segments
  included, so the kernels hash each distinct value once;
* **order-sensitive** (sample-count and friends) — maximal runs of
  consecutive inserts are handed to ``update_from_stream`` (whose
  vectorised implementations are RNG-for-RNG identical to the
  per-element loop), and deletes are applied at their exact positions.

Either way the estimates returned at query points are identical to a
per-element replay; the equivalence is asserted in the test suite.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, List

import numpy as np

from ..streams.operations import Delete, Insert, Operation, Query

__all__ = [
    "coalesce_operations",
    "ingest_stream",
    "ingest_operations",
    "replay_batched",
]


def coalesce_operations(
    operations: Iterable[Operation],
) -> tuple[np.ndarray, np.ndarray]:
    """Fold an operation sequence into a signed frequency histogram.

    Returns sorted parallel ``(values, counts)`` int64 arrays where
    ``counts[i]`` is (inserts − deletes) of ``values[i]``; values whose
    operations cancel exactly are dropped.  ``Query`` operations are
    ignored — use :func:`replay_batched` when query placement matters.
    """
    histogram: Counter = Counter()
    for op in operations:
        if isinstance(op, Insert):
            histogram[op.value] += 1
        elif isinstance(op, Delete):
            histogram[op.value] -= 1
        elif not isinstance(op, Query):
            raise TypeError(f"not an operation: {op!r}")
    items = sorted((v, c) for v, c in histogram.items() if c)
    if not items:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    values = np.fromiter((v for v, _ in items), dtype=np.int64, count=len(items))
    counts = np.fromiter((c for _, c in items), dtype=np.int64, count=len(items))
    return values, counts


def ingest_stream(sketch, values: np.ndarray | Iterable[int]) -> None:
    """Feed an insertion-only stream through the fastest correct path.

    Dispatch order: ``update_from_stream`` (every
    :class:`~repro.engine.protocol.Sketch` has one, vectorised where
    possible), then a per-element ``insert`` loop for foreign trackers.
    """
    arr = np.asarray(values, dtype=np.int64)
    bulk = getattr(sketch, "update_from_stream", None)
    if bulk is not None:
        bulk(arr)
        return
    for v in arr.tolist():
        sketch.insert(v)


def _flush_linear(sketch, pending: List[Operation], live: Counter) -> None:
    """Apply buffered updates to a linear sketch as one signed histogram.

    ``live`` carries the multiset state across flushes so the prefix
    validation of the tracking problem (a delete must reverse a
    remaining insert — the multiset starts empty) still raises exactly
    where a per-element replay would have surfaced the caller bug,
    even though the coalesced histogram alone can no longer show it.
    """
    for op in pending:
        if isinstance(op, Insert):
            live[op.value] += 1
        else:
            if live[op.value] <= 0:
                raise ValueError(
                    f"delete({op.value}) with no remaining occurrence"
                )
            live[op.value] -= 1
    values, counts = coalesce_operations(pending)
    if values.size:
        sketch.update_from_frequencies(values, counts)


def _flush_ordered(sketch, pending: List[Operation]) -> None:
    """Apply buffered updates preserving order: vectorised insert runs."""
    bulk = getattr(sketch, "update_from_stream", None)
    run: List[int] = []
    for op in pending:
        if isinstance(op, Insert):
            run.append(op.value)
            continue
        if run:
            if bulk is not None:
                bulk(np.asarray(run, dtype=np.int64))
            else:
                for v in run:
                    sketch.insert(v)
            run = []
        sketch.delete(op.value)
    if run:
        if bulk is not None:
            bulk(np.asarray(run, dtype=np.int64))
        else:
            for v in run:
                sketch.insert(v)


def _use_linear_path(sketch) -> bool:
    return bool(getattr(sketch, "is_linear", False)) and hasattr(
        sketch, "update_from_frequencies"
    )


def ingest_operations(sketch, operations: Iterable[Operation]) -> None:
    """Feed an insert/delete sequence through the batched pipeline.

    ``Query`` operations are ignored; use :func:`replay_batched` to
    collect estimates.  Linear sketches get the whole sequence as one
    signed histogram; order-sensitive sketches get vectorised insert
    runs with deletes at their exact positions.
    """
    ops = [op for op in operations if not isinstance(op, Query)]
    for op in ops:
        if not isinstance(op, (Insert, Delete)):
            raise TypeError(f"not an operation: {op!r}")
    if _use_linear_path(sketch):
        _flush_linear(sketch, ops, Counter())
    else:
        _flush_ordered(sketch, ops)


def replay_batched(sequence: Iterable[Operation], tracker) -> List[float]:
    """Drive a tracker through an operation sequence, batched.

    The batched equivalent of the seed's per-element ``replay``: the
    list of estimates produced at the ``Query`` operations is returned
    in order, and each query observes exactly the updates that precede
    it.  The tracker must expose ``insert``/``delete`` and either
    ``estimate`` or ``self_join_size``.
    """
    answer = getattr(tracker, "estimate", None) or getattr(
        tracker, "self_join_size", None
    )
    if answer is None:
        raise TypeError(f"{type(tracker).__name__} has no estimate/self_join_size")
    linear = _use_linear_path(tracker)
    live: Counter = Counter()  # spans flushes: multiset state from empty

    def flush(pending: List[Operation]) -> None:
        if linear:
            _flush_linear(tracker, pending, live)
        else:
            _flush_ordered(tracker, pending)

    results: List[float] = []
    pending: List[Operation] = []
    for op in sequence:
        if isinstance(op, (Insert, Delete)):
            pending.append(op)
        elif isinstance(op, Query):
            if pending:
                flush(pending)
                pending = []
            results.append(float(answer()))
        else:
            raise TypeError(f"not an operation: {op!r}")
    if pending:
        flush(pending)
    return results
