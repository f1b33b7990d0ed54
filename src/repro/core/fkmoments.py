"""A *mergeable* F_k sketch: roots-of-unity counters, median-of-means.

The [AMS99] F_k estimator of Section 2.1 samples stream *positions*,
which makes it fundamentally non-mergeable: the sample of a union
stream cannot be computed from the samples of its parts (the same
reason :class:`~repro.core.samplecount.SampleCountSketch` is excluded
from sharded builds).  To give higher moments the same systems story
as the tug-of-war F_2 sketch — windowing, compaction, cluster
scatter–gather — this module keeps a *linear* synopsis instead.

Each of the ``s = s1 * s2`` slots hashes every value ``v`` to a digit
``b(v) in {0..k-1}`` with a k-wise independent family and maintains
the k integer counters ``C[m] = sum_{v: b(v)=m} f_v``.  At query time
the slot forms the complex sum ``Z = sum_m C[m] * w^m`` over the
primitive k-th root of unity ``w = exp(2*pi*i/k)`` and reports the
basic estimator ``X = Re(Z^k)``.  Expanding ``Z^k`` over value tuples,
every tuple whose values are not all equal carries a factor
``E[w^(m*b(v))] = 0`` for some ``1 <= m < k``, while the all-equal
tuples contribute ``f_v^k * w^(k*b(v)) = f_v^k`` deterministically —
so ``E[X] = F_k`` and the usual median of s2 means of s1 slots
concentrates it.  ``k = 2`` degenerates to the tug-of-war sketch
(``w = -1``, ``Z`` a signed counter, ``X = Z^2``); ``k = 1`` is exact.

The state is an integer linear map of the frequency vector: deletions
subtract what insertions add, merge is element-wise counter addition
(bit-identical to the monolithic build), and all floating-point math
happens at query time only.

Unlike F_2's universal ``4/sqrt(s1)`` bound, the relative variance of
this estimator for ``k >= 3`` depends on the frequency profile: it is
small on skewed streams (where F_k is dominated by heavy values — the
regime the statistical-guarantee harness asserts) and grows as the
stream flattens, where ``Z^k`` cross-term noise dominates the small
true moment.  Size ``s1`` for the skew you expect.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..engine.protocol import Sketch, net_histogram
from ..engine.registry import register_sketch
from .. import kernels
from .estimators import group_shape_for, median_of_means
from .hashing import PolynomialHashFamily
from .moments import UnsupportedMomentError

__all__ = ["FkMomentSketch"]

#: Chunk width for batch updates, matching the tug-of-war sketch: it
#: bounds the (s, chunk) digit matrix materialised at once so the
#: working set stays cache-resident.
_BATCH_CHUNK = 1024


@register_sketch
class FkMomentSketch(Sketch):
    """Tracks the k-th frequency moment under inserts and deletes.

    Parameters
    ----------
    k:
        The moment order the sketch is built for (k >= 1).  The digit
        hash is taken modulo k, so one sketch answers exactly one
        order (plus the always-exact F_1).
    s1:
        Slots averaged per group; controls accuracy.
    s2:
        Groups medianed; controls confidence.
    seed:
        Seed for the k-wise independent digit family.  Sketches that
        must be merged **must** share a seed (checked at merge time
        via the family itself).

    Examples
    --------
    >>> sk = FkMomentSketch(k=3, s1=64, s2=5, seed=7)
    >>> for v in [1, 2, 2, 3, 3, 3]:
    ...     sk.insert(v)
    >>> est = sk.moment_estimate(3)   # true F_3 is 1 + 8 + 27 = 36
    """

    kind = "fk_moments"
    is_linear = True  # integer counters are a linear map of frequencies
    describe = (
        "roots-of-unity linear sketch for one fixed frequency moment "
        "F_k; mergeable, deletion-exact"
    )

    __slots__ = ("k", "s1", "s2", "_digits", "_c", "_n")

    def __init__(
        self,
        k: int = 2,
        s1: int = 256,
        s2: int = 1,
        seed: int | None = None,
    ):
        k = int(k)
        if k < 1:
            raise UnsupportedMomentError(
                f"moment order k must be >= 1, got {k}"
            )
        self.k = k
        self.s1, self.s2 = group_shape_for(s1, s2)
        # The vanishing of cross terms in E[Z^k] needs the digits of up
        # to k distinct values to be independent; 4-wise is kept as the
        # floor so k = 2 matches the tug-of-war analysis.
        self._digits = PolynomialHashFamily(
            self.s1 * self.s2, independence=max(k, 4), seed=seed
        )
        self._c = np.zeros((self.s1 * self.s2, k), dtype=np.int64)
        self._n = 0

    # ------------------------------------------------------------------
    # Updates (O(s) per operation)
    # ------------------------------------------------------------------
    def insert(self, value: int) -> None:
        """Process insert(v): bump counter b(v) in every slot."""
        self.update(value, 1)

    def delete(self, value: int) -> None:
        """Process delete(v): exact inverse of :meth:`insert`."""
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
        kernels.fk_update_one(
            self._digits.coefficients, value, c, self._c, self.k
        )
        self._n += c

    def update_from_frequencies(
        self, values: np.ndarray | Iterable[int], counts: np.ndarray | Iterable[int]
    ) -> None:
        """Fold a whole (possibly signed) frequency histogram in.

        The vectorised bulk path: the batch is first coalesced to one
        net count per distinct value
        (:func:`repro.engine.protocol.net_histogram`), then the fused
        digit-scatter kernel (:func:`repro.kernels.fk_scatter`) adds
        ``c_v`` into column ``b(v)`` of every slot, chunked so the
        working set stays cache-resident.  Integer addition commutes,
        so the result is bit-identical to the equivalent sequence of
        :meth:`update` calls on every kernel backend.
        """
        self._scatter(*net_histogram(values, counts))

    def update_from_stream(self, values: np.ndarray | Iterable[int]) -> None:
        """Fold an insertion-only stream in via its histogram."""
        self._scatter(*net_histogram(values))

    def _scatter(self, vals: np.ndarray, cnts: np.ndarray) -> None:
        total = int(cnts.sum())
        if self._n + total < 0:
            raise ValueError("batch would make the multiset size negative")
        coeffs = self._digits.coefficients
        for start in range(0, vals.size, _BATCH_CHUNK):
            kernels.fk_scatter(
                coeffs,
                vals[start : start + _BATCH_CHUNK],
                cnts[start : start + _BATCH_CHUNK],
                self._c,
                self.k,
            )
        self._n += total

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def basic_estimators(self) -> np.ndarray:
        """The s1*s2 individual estimators ``X = Re(Z^k)`` per slot."""
        omega = np.exp(2j * np.pi * np.arange(self.k) / self.k)
        z = self._c.astype(np.float64) @ omega
        return (z**self.k).real

    def moment_estimate(self, k: int) -> float:
        """Median-of-means F_k estimate for the configured order.

        F_1 is answered exactly for every sketch (it is the tracked
        multiset size); any other order must match the ``k`` the
        digit hash was built for, else :class:`UnsupportedMomentError`.
        """
        k = int(k)
        if k < 1:
            raise UnsupportedMomentError(
                f"moment order k must be >= 1, got {k}"
            )
        if k == 1:
            return float(self._n)
        if k != self.k:
            raise UnsupportedMomentError(
                f"this fk_moments sketch is built for k={self.k} (its digit "
                f"hash is modulo {self.k}) and cannot answer k={k}"
            )
        if self._n == 0:
            return 0.0
        return median_of_means(self.basic_estimators().reshape(self.s2, self.s1))

    def estimate(self) -> float:
        """The configured-order moment estimate (F_k for the built k)."""
        return self.moment_estimate(self.k)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def merge(self, other: "FkMomentSketch") -> "FkMomentSketch":
        """Return the sketch of the union of the two underlying multisets.

        Requires identical (k, s1, s2) *and* identical digit families
        (same seed); the integer counters are then simply additive, so
        the merge is bit-identical to the monolithic build.
        """
        self._check_compatible(other)
        merged = self.copy()
        merged._c = self._c + other._c
        merged._n = self._n + other._n
        return merged

    def _check_compatible(self, other: "FkMomentSketch") -> None:
        if not isinstance(other, FkMomentSketch):
            raise TypeError(f"expected FkMomentSketch, got {type(other).__name__}")
        if (self.k, self.s1, self.s2) != (other.k, other.s1, other.s2):
            raise ValueError(
                f"shape mismatch: k={self.k},({self.s1},{self.s2}) vs "
                f"k={other.k},({other.s1},{other.s2})"
            )
        if self._digits != other._digits:
            raise ValueError(
                "sketches use different hash families; build both with the same seed"
            )

    # ------------------------------------------------------------------
    # Introspection / persistence
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Current multiset size (inserts minus deletes) — exact F_1."""
        return self._n

    @property
    def memory_words(self) -> int:
        """Storage in the memory-word model: s1 * s2 slots of k counters."""
        return self.s1 * self.s2 * self.k

    @property
    def counters(self) -> np.ndarray:
        """Read-only view of the raw (s, k) counter matrix."""
        view = self._c.view()
        view.flags.writeable = False
        return view

    def copy(self) -> "FkMomentSketch":
        """Independent deep copy sharing the same (immutable) hashes."""
        dup = FkMomentSketch.__new__(FkMomentSketch)
        dup.k, dup.s1, dup.s2 = self.k, self.s1, self.s2
        dup._digits = self._digits  # immutable after construction
        dup._c = self._c.copy()
        dup._n = self._n
        return dup

    def to_dict(self) -> dict:
        """Serialise the full sketch state; ``counters`` is an int64
        array copy (:func:`~repro.engine.registry.dump_sketch` gives the
        list form)."""
        return {
            "kind": self.kind,
            "k": self.k,
            "s1": self.s1,
            "s2": self.s2,
            "n": self._n,
            "counters": self._c.copy(),
            "digits": self._digits.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FkMomentSketch":
        """Reconstruct a sketch from :meth:`to_dict` output."""
        if payload.get("kind") != "fk_moments":
            raise ValueError(
                f"not a FkMomentSketch payload: {payload.get('kind')!r}"
            )
        sketch = cls.__new__(cls)
        sketch.k = int(payload["k"])
        if sketch.k < 1:
            raise ValueError(f"moment order k must be >= 1, got {sketch.k}")
        sketch.s1 = int(payload["s1"])
        sketch.s2 = int(payload["s2"])
        sketch._n = int(payload["n"])
        sketch._c = np.array(payload["counters"], dtype=np.int64)
        if sketch._c.shape != (sketch.s1 * sketch.s2, sketch.k):
            raise ValueError(
                f"counter matrix has shape {sketch._c.shape}, "
                f"expected ({sketch.s1 * sketch.s2}, {sketch.k})"
            )
        sketch._digits = PolynomialHashFamily.from_dict(payload["digits"])
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FkMomentSketch(k={self.k}, s1={self.s1}, s2={self.s2}, "
            f"n={self._n}, words={self.memory_words})"
        )
