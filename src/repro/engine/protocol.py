"""The common :class:`Sketch` contract every tracker implements.

Each of the paper's synopses — tug-of-war, sample-count (and its
fast-query and frequency-moment variants), naive-sampling, and the
exact :class:`~repro.core.frequency.FrequencyVector` ground truth —
supports the same core operations: process ``insert(v)`` / ``delete(v)``
updates, answer an ``estimate()`` query, and report its storage cost in
the paper's memory-word model.  This module captures that contract as
an abstract base class so that the ingestion pipeline
(:mod:`repro.engine.ingest`), the serialization registry
(:mod:`repro.engine.registry`), and the sharded build path
(:mod:`repro.engine.sharded`) can treat every sketch uniformly.

Beyond the abstract core, the base class supplies portable default
implementations of the bulk-update surface (``update``,
``update_from_frequencies``, ``update_from_stream``) in terms of the
per-element operations; concrete sketches override them with
vectorised fast paths where their structure allows (the tug-of-war
sketch folds a whole histogram in with chunked matrix products;
sample-count walks a stream in vectorised segments between reservoir
events; naive-sampling advances its reservoir by skip arithmetic).

Two class-level attributes describe a sketch's algebra:

``kind``
    The registry key under which the sketch serialises (``None`` for
    unregistered sketches).
``is_linear``
    True when the sketch state is a linear function of the frequency
    vector, i.e. any insert/delete sequence may be coalesced into a
    signed histogram and applied in any order with bit-identical
    results.  The ingestion pipeline keys its batching strategy off
    this flag.
"""

from __future__ import annotations

import abc
from typing import Iterable

import numpy as np

__all__ = ["Sketch", "MergeUnsupportedError", "as_histogram", "net_histogram"]


def as_histogram(
    values: np.ndarray | Iterable[int], counts: np.ndarray | Iterable[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a ``(values, counts)`` histogram pair into int64 arrays.

    The shared precondition of every ``update_from_frequencies``
    implementation: both inputs convert to equal-length 1-D int64
    arrays.  Raises ``ValueError`` otherwise.
    """
    vals = np.asarray(values, dtype=np.int64)
    cnts = np.asarray(counts, dtype=np.int64)
    if vals.shape != cnts.shape or vals.ndim != 1:
        raise ValueError(
            f"values {vals.shape} and counts {cnts.shape} must be equal-length 1-D"
        )
    return vals, cnts


def _dense_span(arr: np.ndarray) -> tuple[int, int] | None:
    """``(lo, span)`` when a dense table beats a sort for this batch.

    That needs 256+ rows (below that a sort is as fast, and the range
    scan is overhead) over a span of at most 4x the rows, capped so the
    table stays small.  Python ints keep the span itself from overflowing.
    """
    if arr.size < 256:
        return None
    lo, hi = int(arr.min()), int(arr.max())
    span = hi - lo + 1
    if span <= 4 * arr.size and span <= (1 << 22):
        return lo, span
    return None


def net_histogram(
    values: np.ndarray | Iterable[int],
    counts: np.ndarray | Iterable[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Coalesce a batch into sorted ``(distinct values, net counts)``.

    ``counts=None`` counts one per row (an insert-only stream); else
    each value's signed counts are summed.  A linear sketch depends
    only on the net counts, so folding them in is bit-identical to
    folding in every row; the int64 sums wrap exactly as the sketches'
    int64 counters would.  A value whose counts cancel keeps a zero
    entry, so the kernels' hash-domain check still sees every value of
    the batch.  Narrow value ranges take an O(n) dense table, others a
    sort.
    """
    if counts is None:
        vals = np.asarray(values, dtype=np.int64)
        if vals.ndim != 1:
            raise ValueError(f"values must be one-dimensional, got shape {vals.shape}")
    else:
        vals, cnts = as_histogram(values, counts)
    if vals.size == 0:
        return vals, np.zeros(0, dtype=np.int64)
    dense = _dense_span(vals)
    if dense is not None:
        lo, span = dense
        offsets = vals - lo
        totals = np.bincount(offsets, minlength=span)
        present = np.flatnonzero(totals > 0)  # a bool scan: ~4x an int64 one
        if counts is not None:
            totals = np.zeros(span, dtype=np.int64)
            np.add.at(totals, offsets, cnts)
        return present + lo, totals[present]
    if counts is None:
        return np.unique(vals, return_counts=True)
    uniq, inverse = np.unique(vals, return_inverse=True)
    totals = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(totals, inverse, cnts)
    return uniq, totals


class MergeUnsupportedError(TypeError):
    """Raised when a sketch family does not support merging.

    Mergeability requires the sketch state of a union stream to be
    computable from the states of its parts; position-based samplers
    (sample-count, naive-sampling) do not have that property, while
    linear sketches (tug-of-war, frequency vectors) do.
    """


class Sketch(abc.ABC):
    """Abstract base class for all self-join / frequency trackers.

    Subclasses must implement the per-element update operations, the
    query, the memory accounting, and the serialization pair
    ``to_dict`` / ``from_dict``.  The bulk-update defaults below reduce
    to per-element calls and are overridden with vectorised
    implementations wherever the concrete sketch permits.
    """

    #: Registry key for serialization; set by concrete sketches.
    kind: str | None = None

    #: Whether the sketch is a linear function of the frequency vector.
    is_linear: bool = False

    #: Optional one-line human description surfaced by the registry
    #: (``repro sketch kinds``); concrete sketches override it.
    describe: str = ""

    __slots__ = ()

    # -- abstract core -----------------------------------------------------
    @abc.abstractmethod
    def insert(self, value: int) -> None:
        """Process insert(v): add one occurrence of ``value``."""

    @abc.abstractmethod
    def delete(self, value: int) -> None:
        """Process delete(v): remove one occurrence of ``value``."""

    @abc.abstractmethod
    def estimate(self) -> float:
        """Answer the query operation (the tracked quantity's estimate)."""

    @property
    @abc.abstractmethod
    def memory_words(self) -> int:
        """Storage cost in the paper's memory-word model."""

    @abc.abstractmethod
    def to_dict(self) -> dict:
        """Serialise the full sketch state to JSON-compatible types,
        except that mapping values may be numpy arrays (copies, never
        views of the live state).

        The payload must carry the sketch's ``kind`` so
        :func:`repro.engine.registry.load_sketch` can dispatch.
        """

    @classmethod
    @abc.abstractmethod
    def from_dict(cls, payload: dict) -> "Sketch":
        """Reconstruct a sketch from :meth:`to_dict` output."""

    # -- bulk updates (portable defaults; override for speed) --------------
    def update(self, value: int, count: int) -> None:
        """Fold ``count`` occurrences of ``value`` in at once.

        Negative counts are batched deletions.  The default reduces to
        ``|count|`` per-element calls; linear sketches override this
        with an O(words) implementation.
        """
        c = int(count)
        for _ in range(c):
            self.insert(value)
        for _ in range(-c):
            self.delete(value)

    def update_from_frequencies(
        self, values: np.ndarray | Iterable[int], counts: np.ndarray | Iterable[int]
    ) -> None:
        """Fold a (possibly signed) frequency histogram into the sketch.

        The default applies :meth:`update` pairwise in the given order;
        vectorised sketches override it.
        """
        vals, cnts = as_histogram(values, counts)
        for v, c in zip(vals.tolist(), cnts.tolist()):
            self.update(v, c)

    def update_from_stream(self, values: np.ndarray | Iterable[int]) -> None:
        """Insert every element of a stream, in order.

        The default is a per-element loop, which is correct for every
        sketch (including order-sensitive samplers); concrete sketches
        override it with their vectorised bulk-ingestion path.
        """
        for v in np.asarray(values, dtype=np.int64).tolist():
            self.insert(v)

    # -- algebra ------------------------------------------------------------
    def merge(self, other: "Sketch") -> "Sketch":
        """Return the sketch of the union of the two underlying streams.

        Only mergeable families override this; the default raises
        :class:`MergeUnsupportedError` with a clear message.
        """
        raise MergeUnsupportedError(
            f"{type(self).__name__} does not support merging: its state is "
            "not a function of the union multiset (position-based sampling)"
        )
