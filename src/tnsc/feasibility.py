"""Trait normalization, feasibility vectors, harmonic merging, and ranking.

All operations are pure functions. Numeric traits are falling: a request
that asks for less is easier to keep satisfied over the slice lifetime, so
it normalizes closer to 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import NamedTuple

from .errors import NonPositiveWeight, OutOfRange, UnknownDimension, ValidationError
from .model import DIMENSIONS, SliceRequest, TraitBounds, weights_from_dict


def _check_range(r: int, l: int, h: int) -> None:
    if l > h or r < l or r > h:
        raise OutOfRange(r, l, h)


def normalize_falling(r: int, l: int, h: int) -> float:
    """Map a falling trait onto [0, 1]: 1 at the lower bound, 0 at the upper.

    A degenerate l == h range returns 1 (the single admissible value is
    trivially satisfiable). Values outside [l, h] raise OutOfRange rather
    than clamp, so infeasible requests stay visible to callers.

    For l < h, the result is exactly ``1.0 - normalize_rising(r, l, h)``.
    """
    _check_range(r, l, h)
    if l == h:
        return 1.0
    return 1.0 - (r - l) / (h - l)


def normalize_rising(r: int, l: int, h: int) -> float:
    """Complementary normalization for rising traits: 0 at l, 1 at h.

    The degenerate l == h range returns 1, same as the falling form."""
    _check_range(r, l, h)
    if l == h:
        return 1.0
    return (r - l) / (h - l)


class TraitValue(NamedTuple):
    """One normalized numeric trait with the raw value and range behind it; a
    named tuple, as immutable as a frozen dataclass and half the cost to build."""

    raw: int
    l: int
    h: int
    value: float


class _VectorFields(NamedTuple):
    slice_id: str
    boolean_traits: Mapping[str, bool]
    numeric_traits: Mapping[str, TraitValue]


class FeasibilityVector(_VectorFields):
    """Per-dimension feasibility of one slice request.

    ``numeric_traits`` holds the three falling-normalized dimensions in the
    fixed order of :data:`~tnsc.model.DIMENSIONS`; Boolean traits never mix
    into the numeric merge and only serve to group vectors. A named tuple
    whose constructor copies both trait maps into read-only views, so no
    later edit reaches them, and checks the copy's order and [0, 1] range;
    ``_replace``, ``_make``, pickle and ``copy`` go through the constructor,
    so they check them again.
    """

    __slots__ = ()

    def __new__(cls, slice_id: str, boolean_traits: Mapping[str, bool],
                numeric_traits: Mapping[str, TraitValue]) -> FeasibilityVector:
        numeric_traits = MappingProxyType(dict(numeric_traits))
        if tuple(numeric_traits) != DIMENSIONS:
            raise UnknownDimension(str(tuple(numeric_traits)))
        for label, trait in numeric_traits.items():
            if not 0.0 <= trait.value <= 1.0:
                raise OutOfRange(trait.raw, trait.l, trait.h, dimension=label)
        return tuple.__new__(cls, (slice_id, MappingProxyType(dict(boolean_traits)),
                                   numeric_traits))

    @classmethod
    def _make(cls, iterable: Iterable) -> FeasibilityVector:
        return cls(*iterable)

    def __getnewargs__(self) -> tuple:
        # A mappingproxy cannot be pickled; the constructor wraps them again.
        return self.slice_id, dict(self.boolean_traits), dict(self.numeric_traits)

    def boolean_signature(self) -> tuple[bool, ...]:
        return tuple(self.boolean_traits[k] for k in sorted(self.boolean_traits))

    def values(self) -> tuple[float, ...]:
        return tuple(t.value for t in self.numeric_traits.values())


class FeasibilityIndex(NamedTuple):
    """Weighted harmonic merge of the numeric traits, in [0, 1]."""

    value: float
    weights_used: Mapping[str, float]


class DimensionComparison(str, Enum):
    FIRST_BETTER = "first_better"
    SECOND_BETTER = "second_better"
    EQUAL = "equal"


@dataclass(slots=True)
class Assessment:
    """One request scored against its bounds: a TraitValue for each dimension
    in range, an OutOfRange tagged with dimension and slice id, built without
    a raise, for each that is not (both in DIMENSIONS order), and the vector
    and index once all are. Not frozen: one is built per scored row, and
    freezing costs a microsecond; its traits and index are named tuples."""

    slice_id: str
    traits: Mapping[str, TraitValue]
    errors: tuple[OutOfRange, ...]
    vector: FeasibilityVector | None = None
    index: FeasibilityIndex | None = None


def assess(request: SliceRequest, bounds: TraitBounds,
           weights: Mapping[str, float] | None = None) -> Assessment:
    """Score ``request`` against ``bounds``. A request carrying its own
    weights merges with them in place of ``weights``, as a whole map. Each
    trait is read and range-checked once; only values in range normalize."""
    traits: dict[str, TraitValue] = {}
    errors = []
    for dim in DIMENSIONS:
        r = request.trait(dim)
        bound = getattr(bounds, dim)
        l, h = bound.l, bound.h
        if h is None:
            raise ValidationError("bounds", f"bounds for {dim!r} are unresolved "
                                  "(derived mode requires derive_bounds against a topology)")
        if l <= r <= h:
            traits[dim] = TraitValue(r, l, h, normalize_falling(r, l, h))
        else:
            errors.append(OutOfRange(r, l, h, dim, request.id))
    if errors:
        return Assessment(request.id, MappingProxyType(traits), tuple(errors))
    vector = FeasibilityVector(request.id, {"control": request.control}, traits)
    return Assessment(request.id, vector.numeric_traits, (), vector, merge_index(
        vector, weights if request.weights is None else request.weights))


def build_vector(request: SliceRequest, bounds: TraitBounds) -> FeasibilityVector:
    """Normalize the request's numeric traits against ``bounds``; the first
    failing dimension's OutOfRange propagates, tagged with it and the slice id."""
    assessment = assess(request, bounds)
    if assessment.errors:
        raise assessment.errors[0]
    return assessment.vector


def harmonic_index(values: Sequence[float],
                   weights: Sequence[float] | None = None) -> float:
    """Weighted harmonic mean of positive values; 0 if any value is 0.

    Checks the arguments, then merges exactly: every float is a dyadic
    rational, so the weight sum and the sum of w/v are kept as one integer
    numerator and one integer denominator each (from ``as_integer_ratio``),
    and ``num / den`` rounds the exact mean once: Python's int/int true
    division is correctly rounded. That keeps the result inside [min, max]
    and independent of input order. A NaN or infinite input raises
    ValueError or OverflowError from ``as_integer_ratio``.
    """
    if not values:
        raise ValueError("cannot merge an empty value list")
    if weights is None:
        weights = [1.0] * len(values)
    if len(weights) != len(values):
        raise ValueError("weights and values must have equal length")
    for i, w in enumerate(weights):
        if w <= 0:
            raise NonPositiveWeight(DIMENSIONS[i] if i < len(DIMENSIONS) else str(i), w)
    for v in values:
        if v < 0:
            raise ValueError(f"trait values must be non-negative, got {v!r}")
    return _exact_harmonic(values, weights)


def _exact_harmonic(values: Sequence[float], weights: Iterable[float]) -> float:
    """:func:`harmonic_index` on checked, equal-length inputs. Every weight
    is read before any value, so a bad weight's error comes first."""
    if 0 in values:
        return 0.0
    weight_num, weight_den = 0, 1
    # sum(w / v) with w = a/b and v = c/d: each term is a*d / (b*c).
    inverse_num, inverse_den = 0, 1
    for (a, b), v in zip([w.as_integer_ratio() for w in weights], values):
        c, d = v.as_integer_ratio()
        weight_num, weight_den = weight_num * b + a * weight_den, weight_den * b
        inverse_num = inverse_num * b * c + a * d * inverse_den
        inverse_den *= b * c
    return (weight_num * inverse_den) / (weight_den * inverse_num)


_UNIT_WEIGHTS = {dim: 1.0 for dim in DIMENSIONS}


def merge_index(vector: FeasibilityVector,
                weights: Mapping[str, float] | None = None) -> FeasibilityIndex:
    """Merge the vector's numeric traits into a single comparable index.

    Weights default to 1 per dimension; dimensions missing from ``weights``
    also get 1. Boolean traits are excluded. The vector and
    :func:`~tnsc.model.weights_from_dict` have checked what harmonic_index would.
    """
    resolved = _UNIT_WEIGHTS.copy()
    if weights:
        resolved.update(weights_from_dict(weights, vector.slice_id))
    value = _exact_harmonic(vector.values(), resolved.values())
    return FeasibilityIndex(value, resolved)


def group_by_boolean(
    vectors: Iterable[FeasibilityVector],
) -> dict[tuple[bool, ...], list[FeasibilityVector]]:
    """Partition vectors by their Boolean trait signature, preserving input
    order within each group."""
    groups: dict[tuple[bool, ...], list[FeasibilityVector]] = {}
    for vector in vectors:
        groups.setdefault(vector.boolean_signature(), []).append(vector)
    return groups


def rank_key(value: float | None, slice_id: str,
             descending: bool = True) -> tuple[bool, float, str]:
    """The one ranking rule: by index, descending unless told otherwise,
    ties on ascending slice id so replay stays deterministic, and a slice
    without an index (None, unlike 0.0) after every scored one."""
    if value is None:
        return (True, 0.0, slice_id)
    return (False, -value if descending else value, slice_id)


def rank(requests: Sequence[SliceRequest], bounds: TraitBounds,
         weights: Mapping[str, float] | None = None) -> list[Assessment]:
    """Order requests by :func:`rank_key` on their feasibility index. A
    request carrying its own weights overrides the call-level ones.
    """
    ranked = [assess(request, bounds, weights) for request in requests]
    for assessment in ranked:
        if assessment.errors:
            raise assessment.errors[0]
    ranked.sort(key=lambda r: rank_key(r.index.value, r.slice_id))
    return ranked


def compare_dimension(first: FeasibilityVector, second: FeasibilityVector,
                      dimension: str) -> DimensionComparison:
    """Compare two vectors on one dimension; the higher normalized value is
    the more feasible one."""
    if dimension not in first.numeric_traits or dimension not in second.numeric_traits:
        raise UnknownDimension(dimension)
    a = first.numeric_traits[dimension].value
    b = second.numeric_traits[dimension].value
    if a > b:
        return DimensionComparison.FIRST_BETTER
    if b > a:
        return DimensionComparison.SECOND_BETTER
    return DimensionComparison.EQUAL
