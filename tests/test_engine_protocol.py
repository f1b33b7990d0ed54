"""The Sketch protocol: conformance of every tracker, default methods.

The tentpole contract of ISSUE 1: one ABC captures the shared surface
(insert / delete / update / update_from_frequencies / estimate / merge
/ memory_words / to_dict / from_dict) and every tracker implements it.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distinct import DistinctCountSketch
from repro.core.fkmoments import FkMomentSketch
from repro.core.frequency import FrequencyVector
from repro.core.moments import FrequencyMomentTracker
from repro.core.naivesampling import NaiveSamplingEstimator
from repro.core.samplecount import SampleCountFastQuery, SampleCountSketch
from repro.core.tugofwar import TugOfWarSketch
from repro.engine import (
    MergeUnsupportedError,
    Sketch,
    dump_sketch,
    load_sketch,
    sketch_kinds,
)
from repro.engine.protocol import net_histogram

ALL_SKETCHES = [
    TugOfWarSketch(16, 3, seed=1),
    SampleCountSketch(16, 3, seed=1),
    SampleCountFastQuery(16, 3, seed=1),
    FrequencyMomentTracker(16, 3, seed=1),
    NaiveSamplingEstimator(s=48, seed=1),
    FrequencyVector(),
    FkMomentSketch(k=3, s1=16, s2=3, seed=1),
    DistinctCountSketch(16, 3, seed=1),
]

#: One fresh-sketch factory per registered kind; the round-trip tests
#: parametrize over `sketch_kinds()` so a newly registered kind that
#: is missing here fails loudly instead of silently escaping coverage.
KIND_FACTORIES = {
    "tugofwar": lambda: TugOfWarSketch(16, 3, seed=11),
    "samplecount": lambda: SampleCountSketch(8, 3, seed=11, initial_range=64),
    "samplecount-fast": lambda: SampleCountFastQuery(
        8, 3, seed=11, initial_range=64
    ),
    "moments": lambda: FrequencyMomentTracker(8, 3, seed=11, initial_range=64),
    "naivesampling": lambda: NaiveSamplingEstimator(s=24, seed=11),
    "frequency": FrequencyVector,
    "fk_moments": lambda: FkMomentSketch(k=3, s1=16, s2=3, seed=11),
    "f0": lambda: DistinctCountSketch(16, 3, seed=11),
}


@pytest.mark.parametrize("sketch", ALL_SKETCHES, ids=lambda s: type(s).__name__)
class TestConformance:
    def test_is_a_sketch(self, sketch):
        assert isinstance(sketch, Sketch)
        assert isinstance(sketch.kind, str) and sketch.kind

    def test_full_surface_present(self, sketch):
        for name in (
            "insert",
            "delete",
            "update",
            "update_from_frequencies",
            "update_from_stream",
            "estimate",
            "merge",
            "to_dict",
            "from_dict",
        ):
            assert callable(getattr(sketch, name)), name
        assert isinstance(sketch.memory_words, int)

    def test_insert_estimate_cycle(self, sketch):
        sketch = type(sketch).from_dict(sketch.to_dict())  # work on a copy
        for v in (1, 2, 2):
            sketch.insert(v)
        assert isinstance(sketch.estimate(), float)


class TestDefaults:
    def test_update_default_loops_inserts_and_deletes(self):
        sketch = FrequencyVector()
        # exercise the ABC defaults through a minimal concrete subclass
        Sketch.update(sketch, 9, 3)
        assert sketch.frequency(9) == 3
        Sketch.update(sketch, 9, -2)
        assert sketch.frequency(9) == 1

    def test_update_from_frequencies_default_is_pairwise(self):
        sketch = FrequencyVector()
        Sketch.update_from_frequencies(
            sketch, np.array([1, 2], dtype=np.int64), np.array([2, 5], dtype=np.int64)
        )
        assert sketch.frequency(1) == 2 and sketch.frequency(2) == 5

    def test_update_from_frequencies_shape_mismatch(self):
        with pytest.raises(ValueError):
            FrequencyVector().update_from_frequencies([1, 2], [1])

    def test_merge_default_raises_with_clear_message(self):
        tracker = SampleCountSketch(8, 2, seed=0)
        with pytest.raises(MergeUnsupportedError, match="SampleCountSketch"):
            tracker.merge(SampleCountSketch(8, 2, seed=0))

    def test_naivesampling_merge_unsupported(self):
        estimator = NaiveSamplingEstimator(s=8, seed=0)
        with pytest.raises(MergeUnsupportedError):
            estimator.merge(NaiveSamplingEstimator(s=8, seed=0))

    def test_linearity_flags(self):
        assert TugOfWarSketch.is_linear and FrequencyVector.is_linear
        assert not SampleCountSketch.is_linear
        assert not NaiveSamplingEstimator.is_linear

    def test_abstract_base_cannot_instantiate(self):
        with pytest.raises(TypeError):
            Sketch()


@pytest.mark.parametrize("kind", sketch_kinds())
class TestRoundTripContinuedIngestion:
    """ISSUE 2 satellite: serialising must never fork a sketch's future.

    For every registered kind, `load_sketch(dump_sketch(s))` followed
    by more ingestion must be bit-identical — full state, RNG state
    included — to the sketch that was never serialised.
    """

    def _streams(self):
        rng = np.random.default_rng(42)
        return (
            rng.integers(0, 60, size=500).astype(np.int64),
            rng.integers(0, 60, size=300).astype(np.int64),
        )

    def test_registered_kind_has_factory(self, kind):
        assert kind in KIND_FACTORIES, (
            f"kind {kind!r} registered but not covered by the round-trip "
            "tests; add a factory to KIND_FACTORIES"
        )

    def test_round_trip_then_ingest_bit_identical(self, kind):
        prefix, suffix = self._streams()
        original = KIND_FACTORIES[kind]()
        original.update_from_stream(prefix)
        restored = load_sketch(dump_sketch(original))
        assert type(restored) is type(original)
        assert dump_sketch(restored) == dump_sketch(original)
        original.update_from_stream(suffix)
        restored.update_from_stream(suffix)
        assert dump_sketch(restored) == dump_sketch(original)
        assert restored.estimate() == original.estimate()

    def test_round_trip_through_json_text(self, kind):
        from repro.engine import dumps_sketch, loads_sketch

        prefix, suffix = self._streams()
        original = KIND_FACTORIES[kind]()
        original.update_from_stream(prefix)
        restored = loads_sketch(dumps_sketch(original))
        original.update_from_stream(suffix)
        restored.update_from_stream(suffix)
        assert dump_sketch(restored) == dump_sketch(original)

    def test_double_round_trip_is_stable(self, kind):
        prefix, _ = self._streams()
        sketch = KIND_FACTORIES[kind]()
        sketch.update_from_stream(prefix)
        once = dump_sketch(load_sketch(dump_sketch(sketch)))
        twice = dump_sketch(load_sketch(once))
        assert once == twice


class TestRelationalBulkPaths:
    def test_relation_insert_many_equals_per_tuple(self):
        from repro.relational.relation import Relation

        values = np.array([3, 1, 3, 7, 3], dtype=np.int64)
        bulk = Relation("r")
        bulk.insert_many(values)
        loop = Relation("r")
        for v in values.tolist():
            loop.insert(v)
        assert bulk.self_join_size() == loop.self_join_size()
        assert bulk.size == loop.size and bulk.distinct == loop.distinct

    def test_relation_update_from_frequencies(self):
        from repro.relational.relation import Relation

        relation = Relation("r")
        relation.update_from_frequencies([1, 2], [4, 2])
        relation.update_from_frequencies([1], [-3])
        assert relation.size == 3
        assert relation.self_join_size() == 1 + 4

    def test_signature_catalog_bulk_load_matches_per_tuple(self):
        from repro.relational.catalog import SignatureCatalog

        values = (np.random.default_rng(0).integers(0, 50, size=400)).astype(np.int64)
        bulk = SignatureCatalog(k=64, seed=5)
        bulk.register("r")
        bulk.insert_many("r", values)
        loop = SignatureCatalog(k=64, seed=5)
        loop.register("r")
        for v in values.tolist():
            loop.insert("r", v)
        assert bulk.self_join_estimate("r") == loop.self_join_estimate("r")

    def test_signature_catalog_signed_histogram(self):
        from repro.relational.catalog import SignatureCatalog

        catalog = SignatureCatalog(k=32, seed=5)
        catalog.register("r", values=np.array([1, 1, 2], dtype=np.int64))
        catalog.update_from_frequencies("r", [1], [-1])
        reference = SignatureCatalog(k=32, seed=5)
        reference.register("r", values=np.array([1, 2], dtype=np.int64))
        assert catalog.self_join_estimate("r") == reference.self_join_estimate("r")

    def test_sample_catalog_insert_many(self):
        from repro.relational.catalog import SampleCatalog

        catalog = SampleCatalog(p=0.5, seed=5)
        catalog.register("r")
        catalog.insert_many("r", np.arange(100, dtype=np.int64))
        assert catalog.memory_words > 0


def _reference_histogram(values, counts):
    totals: Counter = Counter()
    for v, c in zip(values, counts):
        totals[v] += c
    keys = sorted(totals)
    return keys, [totals[k] for k in keys]


class TestNetHistogram:
    """The one coalescer every linear kind folds its batches through."""

    @given(
        pool=st.lists(
            st.one_of(
                st.integers(0, 600), st.integers(-(2**63), 2**63 - 1)
            ),
            min_size=1,
            max_size=40,
            unique=True,
        ),
        rows=st.integers(0, 900),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_row_sums(self, pool, rows, seed):
        # Up to 900 rows over a small pool: both the dense table
        # (>= 256 rows over a narrow span) and the sort are exercised.
        rng = np.random.default_rng(seed)
        values = rng.choice(np.asarray(pool, dtype=np.int64), size=rows)
        counts = rng.integers(-3, 4, size=rows)
        for cnts in (None, counts):
            expect = _reference_histogram(
                values.tolist(), [1] * rows if cnts is None else cnts.tolist()
            )
            vals, totals = net_histogram(values, cnts)
            assert vals.dtype == np.int64 and totals.dtype == np.int64
            assert (vals.tolist(), totals.tolist()) == expect

    @pytest.mark.parametrize("rows", [4, 4096], ids=["sort", "dense"])
    def test_cancelled_values_keep_their_entry(self, rows):
        # Zero net counts stay in the result, so a downstream domain
        # check still sees a value that was inserted and deleted.
        vals = np.arange(rows, dtype=np.int64) // 2
        cnts = np.tile(np.array([1, -1], dtype=np.int64), rows // 2)
        uniq, totals = net_histogram(vals, cnts)
        assert uniq.tolist() == list(range(rows // 2))
        assert not totals.any()

    def test_sums_wrap_like_int64_counters(self):
        big = np.int64(2**62)
        uniq, totals = net_histogram([5, 5], [big, big])
        assert uniq.tolist() == [5]
        assert totals[0] == np.int64(-(2**63))

    def test_refuses_ragged_or_multidimensional_input(self):
        with pytest.raises(ValueError):
            net_histogram(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            net_histogram([1, 2], [1])

    def test_empty_batch(self):
        for cnts in (None, []):
            vals, totals = net_histogram([], cnts)
            assert vals.size == totals.size == 0
            assert totals.dtype == np.int64
