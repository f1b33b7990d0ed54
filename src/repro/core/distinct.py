"""A *mergeable*, deletion-safe F_0 (distinct count) sketch.

[AMS99] observes that F_0 admits small-space estimation; this module
provides the variant that fits the repo's systems layers: *linear
counting* over integer occupancy counters ([Whang et al. 1990]'s
estimator made retraction-safe).  Each of ``s2`` repetitions hashes
every value into one of ``s1`` buckets with an independent family and
maintains the integer counter ``C[b] = sum_{v: h(v)=b} f_v``.

Because the counters hold *net frequencies* rather than sticky bits,
the sketch survives deletions exactly: under strict-turnstile streams
(net ``f_v >= 0`` for every value, the same contract the windowed
store's signed ingest enforces), ``C[b] == 0`` if and only if no live
value hashes to b.  Each repetition reports the linear-counting
estimate ``-s1 * ln(z / s1)`` from its zero-bucket count ``z``
(capped at ``z = 1`` when saturated), and the final answer is the
median across repetitions.

The state is an integer linear map of the frequency vector, so merge
is element-wise counter addition — bit-identical to the monolithic
build — and the sketch inherits windowing, compaction, and cluster
scatter–gather for free.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from ..engine.protocol import Sketch, net_histogram
from ..engine.registry import register_sketch
from .estimators import group_shape_for
from .hashing import PolynomialHashFamily

__all__ = ["DistinctCountSketch"]

#: Chunk width for batch updates (see the tug-of-war sketch).
_BATCH_CHUNK = 4096


@register_sketch
class DistinctCountSketch(Sketch):
    """Tracks the number of distinct live values (F_0) under updates.

    Parameters
    ----------
    s1:
        Occupancy buckets per repetition; controls accuracy (the load
        factor ``F_0 / s1`` drives the linear-counting error, so size
        s1 to a small multiple of the expected distinct count).
    s2:
        Independent repetitions medianed; controls confidence.
    seed:
        Seed for the bucket hash families.  Sketches that must be
        merged **must** share a seed (checked at merge time).

    Examples
    --------
    >>> sk = DistinctCountSketch(s1=64, s2=5, seed=7)
    >>> for v in [1, 2, 2, 3, 3, 3]:
    ...     sk.insert(v)
    >>> sk.delete(3)
    >>> est = sk.estimate()   # true F_0 is still 3 (net f_3 = 2)
    """

    kind = "f0"
    is_linear = True  # occupancy counters are a linear map of frequencies
    describe = (
        "deletion-safe linear-counting sketch for the distinct count "
        "F_0; mergeable under strict-turnstile streams"
    )

    __slots__ = ("s1", "s2", "_buckets", "_c", "_n")

    def __init__(self, s1: int = 256, s2: int = 1, seed: int | None = None):
        self.s1, self.s2 = group_shape_for(s1, s2)
        self._buckets = PolynomialHashFamily(self.s2, independence=4, seed=seed)
        self._c = np.zeros((self.s2, self.s1), dtype=np.int64)
        self._n = 0

    # ------------------------------------------------------------------
    # Updates (O(s2) per operation)
    # ------------------------------------------------------------------
    def insert(self, value: int) -> None:
        """Process insert(v): bump v's occupancy bucket in every rep."""
        self.update(value, 1)

    def delete(self, value: int) -> None:
        """Process delete(v): exact inverse of :meth:`insert`.

        Correctness of the zero-bucket test needs the stream to stay
        strict-turnstile (net frequency of every value >= 0); like the
        other linear sketches this is the caller's contract and only
        the aggregate size is guarded here.
        """
        if self._n <= 0:
            raise ValueError("cannot delete from an empty multiset")
        self.update(value, -1)

    def update(self, value: int, count: int) -> None:
        """Fold ``count`` occurrences of ``value`` in at once."""
        c = int(count)
        if c == 0:
            return
        if self._n + c < 0:
            raise ValueError(
                f"deleting {-c} occurrences would make the multiset size negative"
            )
        buckets = (self._buckets.hash_one(value) % self.s1).astype(np.intp)
        self._c[np.arange(self.s2), buckets] += np.int64(c)
        self._n += c

    def update_from_frequencies(
        self, values: np.ndarray | Iterable[int], counts: np.ndarray | Iterable[int]
    ) -> None:
        """Fold a whole (possibly signed) frequency histogram in.

        The batch is first coalesced to one net count per distinct
        value (:func:`repro.engine.protocol.net_histogram`), then
        scattered with ``np.add.at`` per repetition; integer addition
        commutes, so the result is bit-identical to the equivalent
        sequence of :meth:`update` calls.
        """
        self._scatter(*net_histogram(values, counts))

    def update_from_stream(self, values: np.ndarray | Iterable[int]) -> None:
        """Fold an insertion-only stream in via its histogram."""
        self._scatter(*net_histogram(values))

    def _scatter(self, vals: np.ndarray, cnts: np.ndarray) -> None:
        total = int(cnts.sum())
        if self._n + total < 0:
            raise ValueError("batch would make the multiset size negative")
        for start in range(0, vals.size, _BATCH_CHUNK):
            chunk_vals = vals[start : start + _BATCH_CHUNK]
            chunk_cnts = cnts[start : start + _BATCH_CHUNK]
            buckets = self._buckets.hash_many(chunk_vals) % self.s1  # (s2, m)
            for rep in range(self.s2):
                np.add.at(self._c[rep], buckets[rep].astype(np.intp), chunk_cnts)
        self._n += total

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def basic_estimators(self) -> np.ndarray:
        """Per-repetition linear-counting estimates (length s2)."""
        zeros = (self._c == 0).sum(axis=1).astype(np.float64)
        zeros = np.maximum(zeros, 1.0)  # saturated reps cap at z = 1
        return -float(self.s1) * np.log(zeros / float(self.s1))

    def estimate(self) -> float:
        """Median across repetitions of the linear-counting estimate."""
        if self._n == 0:
            return 0.0
        return float(np.median(self.basic_estimators()))

    def saturation(self) -> float:
        """Worst-repetition bucket occupancy ``1 - z/s1`` in [0, 1].

        Near 1.0 the estimate degrades (the zero count underflows);
        callers sizing s1 can watch this.
        """
        zeros = (self._c == 0).sum(axis=1)
        return float(1.0 - zeros.min() / self.s1)

    def error_bound(self) -> float:
        """Standard-error heuristic for linear counting at the current load.

        From [Whang et al. 1990]: StdErr(n_hat)/n ~
        sqrt(s1) * (e^t - t - 1)^0.5 / (t * s1) with t = n/s1.  A
        guidance number, not a worst-case guarantee.
        """
        if self._n == 0:
            return 0.0
        t = max(self.estimate(), 1.0) / float(self.s1)
        return math.sqrt(self.s1 * max(math.expm1(t) - t, 0.0)) / (t * self.s1)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def merge(self, other: "DistinctCountSketch") -> "DistinctCountSketch":
        """Return the sketch of the union of the two underlying multisets.

        Requires identical shape *and* identical hash families (same
        seed); the occupancy counters are then simply additive.
        """
        self._check_compatible(other)
        merged = self.copy()
        merged._c = self._c + other._c
        merged._n = self._n + other._n
        return merged

    def _check_compatible(self, other: "DistinctCountSketch") -> None:
        if not isinstance(other, DistinctCountSketch):
            raise TypeError(
                f"expected DistinctCountSketch, got {type(other).__name__}"
            )
        if (self.s1, self.s2) != (other.s1, other.s2):
            raise ValueError(
                f"shape mismatch: ({self.s1},{self.s2}) vs ({other.s1},{other.s2})"
            )
        if self._buckets != other._buckets:
            raise ValueError(
                "sketches use different hash families; build both with the same seed"
            )

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Current multiset size (inserts minus deletes)."""
        return self._n

    @property
    def memory_words(self) -> int:
        """Storage in the memory-word model: s2 reps of s1 counters."""
        return self.s1 * self.s2

    @property
    def counters(self) -> np.ndarray:
        """Read-only view of the raw (s2, s1) occupancy counters."""
        view = self._c.view()
        view.flags.writeable = False
        return view

    def copy(self) -> "DistinctCountSketch":
        """Independent deep copy sharing the same (immutable) hashes."""
        dup = DistinctCountSketch.__new__(DistinctCountSketch)
        dup.s1, dup.s2 = self.s1, self.s2
        dup._buckets = self._buckets  # immutable after construction
        dup._c = self._c.copy()
        dup._n = self._n
        return dup

    def to_dict(self) -> dict:
        """Serialise the full sketch state; ``counters`` is an int64
        array copy (:func:`~repro.engine.registry.dump_sketch` gives the
        list form)."""
        return {
            "kind": self.kind,
            "s1": self.s1,
            "s2": self.s2,
            "n": self._n,
            "counters": self._c.copy(),
            "buckets": self._buckets.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DistinctCountSketch":
        """Reconstruct a sketch from :meth:`to_dict` output."""
        if payload.get("kind") != "f0":
            raise ValueError(
                f"not a DistinctCountSketch payload: {payload.get('kind')!r}"
            )
        sketch = cls.__new__(cls)
        sketch.s1 = int(payload["s1"])
        sketch.s2 = int(payload["s2"])
        sketch._n = int(payload["n"])
        sketch._c = np.array(payload["counters"], dtype=np.int64)
        if sketch._c.shape != (sketch.s2, sketch.s1):
            raise ValueError(
                f"counter matrix has shape {sketch._c.shape}, "
                f"expected ({sketch.s2}, {sketch.s1})"
            )
        sketch._buckets = PolynomialHashFamily.from_dict(payload["buckets"])
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistinctCountSketch(s1={self.s1}, s2={self.s2}, n={self._n}, "
            f"words={self.memory_words})"
        )
