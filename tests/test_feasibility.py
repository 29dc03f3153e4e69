from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction
from types import MappingProxyType

import pytest

from tnsc import (
    DERIVED_BOUNDS,
    DIMENSIONS,
    DimensionComparison,
    FeasibilityIndex,
    FeasibilityVector,
    TraitValue,
    assess,
    build_vector,
    compare_dimension,
    group_by_boolean,
    harmonic_index,
    merge_index,
    normalize_falling,
    normalize_rising,
    rank,
    rank_key,
)
from tnsc.errors import NonPositiveWeight, OutOfRange, UnknownDimension, ValidationError

from .conftest import make_request
from .oracles import falling_fraction, harmonic_fraction

# Exact reference values for the two canonical requests (p=2/d=15/s=2 and
# p=3/d=12/s=3 under ranges [2,4], [1,24], [1,20]).
TS1_NORMALIZED = (1.0, float(Fraction(9, 23)), float(Fraction(18, 19)))
TS2_NORMALIZED = (0.5, float(Fraction(12, 23)), float(Fraction(17, 19)))
TS1_INDEX = float(Fraction(54, 83))
TS2_INDEX = float(Fraction(612, 1027))


class TestNormalizeFalling:
    @pytest.mark.parametrize("r,l,h,expected", [
        (2, 2, 4, 1.0),
        (15, 1, 24, float(Fraction(9, 23))),
        (3, 1, 20, float(Fraction(17, 19))),
        (4, 2, 4, 0.0),
        (20, 1, 20, 0.0),
    ])
    def test_reference_values(self, r, l, h, expected):
        assert normalize_falling(r, l, h) == pytest.approx(expected, abs=1e-15)

    def test_degenerate_range_returns_one(self):
        assert normalize_falling(5, 5, 5) == 1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRange):
            normalize_falling(5, 2, 4)
        with pytest.raises(OutOfRange):
            normalize_falling(1, 2, 4)

    def test_empty_range_rejected(self):
        # A derived h below l admits nothing.
        with pytest.raises(OutOfRange):
            normalize_falling(2, 2, 1)

    def test_matches_exact_fraction_oracle(self):
        rng = random.Random(401)
        for _ in range(500):
            l = rng.randint(-20, 100)
            h = l + rng.randint(0, 200)
            r = rng.randint(l, h)
            expected = float(falling_fraction(r, l, h))
            assert normalize_falling(r, l, h) == pytest.approx(expected, abs=1e-12)


class TestNormalizeRising:
    def test_lower_bound_is_zero(self):
        assert normalize_rising(2, 2, 4) == 0.0

    def test_upper_bound_is_one(self):
        assert normalize_rising(4, 2, 4) == 1.0

    def test_midpoint(self):
        assert normalize_rising(3, 2, 4) == 0.5

    def test_degenerate_range_returns_one(self):
        assert normalize_rising(5, 5, 5) == 1.0

    def test_complement_identity_is_exact(self):
        rng = random.Random(402)
        for _ in range(2000):
            l = rng.randint(-1000, 10**6)
            h = l + rng.randint(1, 10**6)
            r = rng.randint(l, h)
            assert normalize_rising(r, l, h) + normalize_falling(r, l, h) == 1.0


class TestBuildVector:
    def test_first_reference_vector(self, ts1, table2_bounds):
        vector = build_vector(ts1, table2_bounds)
        assert vector.boolean_traits == {"control": True}
        assert vector.values() == pytest.approx(TS1_NORMALIZED, abs=1e-12)

    def test_second_reference_vector(self, ts2, table2_bounds):
        vector = build_vector(ts2, table2_bounds)
        assert vector.values() == pytest.approx(TS2_NORMALIZED, abs=1e-12)

    def test_out_of_range_names_dimension_and_slice(self, table2_bounds):
        request = make_request("TS_X", p=5)
        with pytest.raises(OutOfRange) as err:
            build_vector(request, table2_bounds)
        assert err.value.dimension == "topology"
        assert err.value.slice_id == "TS_X"


class TestMergeIndex:
    def test_first_reference_index(self, ts1, table2_bounds):
        index = merge_index(build_vector(ts1, table2_bounds))
        assert index.value == pytest.approx(TS1_INDEX, abs=1e-12)
        assert index.weights_used == {"topology": 1.0, "device": 1.0,
                                      "data_plane": 1.0}

    def test_second_reference_index(self, ts2, table2_bounds):
        index = merge_index(build_vector(ts2, table2_bounds))
        assert index.value == pytest.approx(TS2_INDEX, abs=1e-12)

    def test_single_value_identity(self):
        assert harmonic_index([0.37]) == 0.37

    def test_zero_trait_dominates(self):
        assert harmonic_index([0.0, 0.9, 1.0]) == 0.0

    def test_non_positive_weight_rejected(self, ts1, table2_bounds):
        vector = build_vector(ts1, table2_bounds)
        with pytest.raises(NonPositiveWeight):
            merge_index(vector, {"device": 0.0})

    def test_unknown_weight_dimension_rejected(self, ts1, table2_bounds):
        vector = build_vector(ts1, table2_bounds)
        with pytest.raises(UnknownDimension):
            merge_index(vector, {"colour": 1.0})

    def test_weighted_matches_fraction_oracle(self):
        rng = random.Random(403)
        for _ in range(300):
            n = rng.randint(1, 5)
            values = [rng.randint(1, 64) / 64 for _ in range(n)]
            weights = [rng.randint(1, 8) / 4 for _ in range(n)]
            expected = float(harmonic_fraction(values, weights))
            assert harmonic_index(values, weights) == pytest.approx(
                expected, rel=1e-15)

    def test_weights_are_read_before_values(self):
        """Both lists pass the argument checks; the infinite weight's
        OverflowError wins over the NaN value's ValueError."""
        with pytest.raises(OverflowError):
            harmonic_index([float("nan"), 1.0], [5e-324, float("inf")])

    def test_weights_shift_the_index(self, ts1, table2_bounds):
        vector = build_vector(ts1, table2_bounds)
        heavier_device = merge_index(vector, {"device": 5.0})
        # The device trait is the worst one here, so up-weighting it drags
        # the index down.
        assert heavier_device.value < merge_index(vector).value


class TestGrouping:
    def test_same_signature_single_group(self, ts1, ts2, table2_bounds):
        vectors = [build_vector(ts1, table2_bounds),
                   build_vector(ts2, table2_bounds)]
        groups = group_by_boolean(vectors)
        assert list(groups) == [(True,)]
        assert [v.slice_id for v in groups[(True,)]] == ["TS_1", "TS_2"]

    def test_empty_input(self):
        assert group_by_boolean([]) == {}

    def test_signatures_split(self, table2_bounds):
        a = build_vector(make_request("A_ctl", control=True), table2_bounds)
        b = build_vector(make_request("B_plain", control=False), table2_bounds)
        groups = group_by_boolean([a, b])
        assert set(groups) == {(True,), (False,)}
        assert [v.slice_id for v in groups[(False,)]] == ["B_plain"]


class TestRank:
    def test_reference_pair_order(self, ts1, ts2, table2_bounds):
        ranked = rank([ts2, ts1], table2_bounds)
        assert [r.slice_id for r in ranked] == ["TS_1", "TS_2"]
        assert ranked[0].index.value > ranked[1].index.value

    def test_singleton(self, ts1, table2_bounds):
        assert [r.slice_id for r in rank([ts1], table2_bounds)] == ["TS_1"]

    def test_tie_breaks_on_slice_id(self, table2_bounds):
        a = make_request("a")
        b = make_request("b")
        assert [r.slice_id for r in rank([b, a], table2_bounds)] == ["a", "b"]

    def test_permutation_invariance(self, table2_bounds):
        rng = random.Random(404)
        requests = [make_request(f"TS_{i:02d}", p=rng.randint(2, 4),
                                 d=rng.randint(1, 24), s=rng.randint(1, 20))
                    for i in range(12)]
        baseline = [r.slice_id for r in rank(requests, table2_bounds)]
        for _ in range(5):
            rng.shuffle(requests)
            assert [r.slice_id for r in rank(requests, table2_bounds)] == baseline

    def test_error_names_request(self, table2_bounds):
        with pytest.raises(OutOfRange) as err:
            rank([make_request("TS_BAD", p=9)], table2_bounds)
        assert err.value.slice_id == "TS_BAD"

    def test_empty_request_weights_replace_call_weights(self, table2_bounds):
        ranked = rank([make_request(weights={})], table2_bounds,
                      weights={"device": 5, "topology": 1.5})
        assert ranked[0].index.value == TS1_INDEX

    def test_unresolved_derived_bounds_raise_validation_error(self, ts1):
        with pytest.raises(ValidationError) as err:
            rank([ts1], DERIVED_BOUNDS)
        assert isinstance(err.value, ValueError)
        assert err.value.element == "bounds"
        assert "'topology'" in err.value.message


class TestRankKey:
    def test_none_sorts_after_every_index(self):
        values = {"a": None, "b": 0.0, "c": 0.7, "d": 1.0}
        ordered = sorted(values, key=lambda i: rank_key(values[i], i))
        assert ordered == ["d", "c", "b", "a"]

    def test_ties_break_on_ascending_slice_id(self):
        for descending in (True, False):
            keys = [rank_key(0.5, slice_id, descending) for slice_id in "cab"]
            assert [key[2] for key in sorted(keys)] == ["a", "b", "c"]
        assert sorted([rank_key(None, "y"), rank_key(None, "x")]) == [
            rank_key(None, "x"), rank_key(None, "y")]

    def test_both_orders(self):
        values = {"a": 0.2, "b": 0.9, "c": 0.5, "d": None}
        for descending, expected in ((True, ["b", "c", "a", "d"]),
                                     (False, ["a", "c", "b", "d"])):
            ordered = sorted(values, key=lambda i: rank_key(values[i], i, descending))
            assert ordered == expected

    def test_zero_is_kept_apart_from_none(self):
        for descending in (True, False):
            assert rank_key(0.0, "z", descending) < rank_key(None, "a", descending)
            assert rank_key(0.0, "a", descending) != rank_key(None, "a", descending)


class TestAssess:
    def test_every_failing_dimension_is_kept(self, table2_bounds):
        # p=9 is above [2, 4] and s=25 above [1, 20]; the device count fits.
        result = assess(make_request("TS_BAD", p=9, s=25), table2_bounds)
        assert [(e.dimension, e.slice_id, e.r) for e in result.errors] == [
            ("topology", "TS_BAD", 9), ("data_plane", "TS_BAD", 25)]
        assert list(result.traits) == ["device"]
        assert result.traits["device"].value == normalize_falling(15, 1, 24)
        assert result.vector is None and result.index is None
        with pytest.raises(OutOfRange) as err:
            build_vector(make_request("TS_BAD", p=9, s=25), table2_bounds)
        assert err.value.detail() == result.errors[0].detail()

    def test_out_of_range_traits_cannot_be_assigned(self, table2_bounds):
        result = assess(make_request("TS_BAD", p=9, s=25), table2_bounds)
        with pytest.raises(TypeError):
            result.traits["topology"] = TraitValue(3, 2, 4, 0.5)
        assert list(result.traits) == ["device"]

    def test_scores_like_build_vector_and_merge_index(self, ts1, table2_bounds):
        result = assess(ts1, table2_bounds, weights={"device": 2})
        assert result.errors == ()
        assert result.vector == build_vector(ts1, table2_bounds)
        assert result.index == merge_index(result.vector, {"device": 2})
        assert result.traits == result.vector.numeric_traits

    def test_request_weights_replace_call_weights(self, table2_bounds):
        request = make_request(weights={"topology": 3})
        result = assess(request, table2_bounds, weights={"device": 5})
        assert result.index.weights_used == {"topology": 3.0, "device": 1.0,
                                             "data_plane": 1.0}


class TestCompareDimension:
    def test_device_favors_second(self, ts1, ts2, table2_bounds):
        v1 = build_vector(ts1, table2_bounds)
        v2 = build_vector(ts2, table2_bounds)
        assert compare_dimension(v1, v2, "device") is DimensionComparison.SECOND_BETTER

    def test_topology_favors_first(self, ts1, ts2, table2_bounds):
        v1 = build_vector(ts1, table2_bounds)
        v2 = build_vector(ts2, table2_bounds)
        assert compare_dimension(v1, v2, "topology") is DimensionComparison.FIRST_BETTER

    def test_reflexive_equality(self, ts1, table2_bounds):
        v1 = build_vector(ts1, table2_bounds)
        for dim in ("topology", "device", "data_plane"):
            assert compare_dimension(v1, v1, dim) is DimensionComparison.EQUAL

    def test_unknown_dimension(self, ts1, table2_bounds):
        v1 = build_vector(ts1, table2_bounds)
        with pytest.raises(UnknownDimension):
            compare_dimension(v1, v1, "colour")


class TestValueSemantics:
    def test_fields_cannot_be_assigned(self):
        trait = TraitValue(3, 2, 4, 0.5)
        index = FeasibilityIndex(0.5, {"topology": 1.0})
        for value, field in ((trait, "value"), (trait, "raw"), (index, "value"),
                             (index, "weights_used")):
            with pytest.raises(AttributeError):
                setattr(value, field, 0.25)

    def test_construct_by_position_and_keyword(self):
        trait = TraitValue(3, 2, 4, 0.5)
        assert trait == TraitValue(raw=3, l=2, h=4, value=0.5)
        assert (trait.raw, trait.l, trait.h, trait.value) == (3, 2, 4, 0.5)
        index = FeasibilityIndex(0.5, {"device": 2.0})
        assert index == FeasibilityIndex(value=0.5, weights_used={"device": 2.0})
        assert (index.value, index.weights_used) == (0.5, {"device": 2.0})

    def test_vector_rejects_value_outside_unit_interval(self):
        traits = {dim: TraitValue(2, 2, 4, 1.0) for dim in DIMENSIONS}
        for bad in (1.5, -0.25, float("nan")):
            with pytest.raises(OutOfRange) as caught:
                FeasibilityVector("S", {"control": True},
                                  {**traits, "device": TraitValue(2, 2, 4, bad)})
            assert caught.value.dimension == "device"

    def test_vector_rejects_dimension_order(self):
        traits = {dim: TraitValue(2, 2, 4, 1.0) for dim in reversed(DIMENSIONS)}
        with pytest.raises(UnknownDimension):
            FeasibilityVector("S", {"control": True}, traits)
        with pytest.raises(UnknownDimension):
            FeasibilityVector("S", {"control": True}, dict(list(traits.items())[:2]))

    @staticmethod
    def _vector() -> FeasibilityVector:
        return FeasibilityVector("S", {"control": True},
                                 {dim: TraitValue(2, 2, 4, 1.0) for dim in DIMENSIONS})

    def test_vector_fields_cannot_be_assigned(self):
        vector = self._vector()
        for field in (*vector._fields, "note"):
            with pytest.raises(AttributeError):
                setattr(vector, field, getattr(vector, field, None))

    def test_vector_by_position_and_keyword(self):
        vector = self._vector()
        traits = dict(vector.numeric_traits)
        assert vector == FeasibilityVector(slice_id="S", boolean_traits={"control": True},
                                           numeric_traits=traits)
        assert vector == ("S", {"control": True}, traits)
        assert (vector.slice_id, vector.boolean_traits) == ("S", {"control": True})

    def test_vector_replace_and_make_check_again(self):
        vector = self._vector()
        bad = {**vector.numeric_traits, "device": TraitValue(2, 2, 4, 1.5)}
        reordered = dict(reversed(vector.numeric_traits.items()))
        for edit in (lambda traits: vector._replace(numeric_traits=traits),
                     lambda traits: FeasibilityVector._make(("S", {}, traits))):
            with pytest.raises(OutOfRange) as caught:
                edit(bad)
            assert caught.value.dimension == "device"
            with pytest.raises(UnknownDimension):
                edit(reordered)
        edited = vector._replace(slice_id="T")
        assert type(edited) is FeasibilityVector and edited.slice_id == "T"
        assert FeasibilityVector._make(edited) == edited

    def test_vector_pickle_and_copy_rebuild_through_the_checks(self):
        vector = self._vector()
        copies = (lambda: pickle.loads(pickle.dumps(vector)),
                  lambda: copy.copy(vector), lambda: copy.deepcopy(vector))
        for twin in copies:
            copied = twin()
            assert copied == vector and type(copied) is FeasibilityVector
            assert type(copied.numeric_traits) is MappingProxyType
        # A copy of a vector built past the checks is refused.
        traits = {**vector.numeric_traits, "device": TraitValue(2, 2, 4, 1.5)}
        vector = tuple.__new__(FeasibilityVector, ("S", {"control": True}, traits))
        for twin in copies:
            with pytest.raises(OutOfRange):
                twin()

    def test_vector_trait_maps_cannot_be_assigned(self, table2_bounds):
        assessment = assess(make_request(), table2_bounds)
        vector = assessment.vector
        assert assessment.traits is vector.numeric_traits
        index = merge_index(vector).value
        for traits, key, value in ((vector.numeric_traits, "device", TraitValue(2, 2, 4, 1.5)),
                                   (vector.boolean_traits, "control", False)):
            with pytest.raises(TypeError):
                traits[key] = value
        assert merge_index(vector).value == index == assessment.index.value

    def test_vector_keeps_no_link_to_its_source_maps(self):
        numeric = {dim: TraitValue(3, 2, 4, 0.5) for dim in DIMENSIONS}
        boolean = {"control": True}
        vector = FeasibilityVector("S", boolean, numeric)
        numeric["device"] = TraitValue(2, 2, 4, 1.0)
        boolean["control"] = False
        assert merge_index(vector).value == 0.5
        assert vector.numeric_traits["device"] == TraitValue(3, 2, 4, 0.5)
        assert vector.boolean_signature() == (True,)
