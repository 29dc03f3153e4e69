"""Trait normalization, feasibility vectors, harmonic merging, and ranking.

All operations are pure functions. Numeric traits are falling: a request
that asks for less is easier to keep satisfied over the slice lifetime, so
it normalizes closer to 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import NonPositiveWeight, OutOfRange, UnknownDimension
from .model import DIMENSIONS, Bound, SliceRequest, TraitBounds, weights_from_dict


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


@dataclass(frozen=True)
class TraitValue:
    """One normalized numeric trait with the raw value and range behind it."""

    raw: int
    l: int
    h: int
    value: float


@dataclass(frozen=True)
class FeasibilityVector:
    """Per-dimension feasibility of one slice request.

    ``numeric_traits`` holds the three falling-normalized dimensions in the
    fixed order of :data:`~tnsc.model.DIMENSIONS`; Boolean traits never mix
    into the numeric merge and only serve to group vectors.
    """

    slice_id: str
    boolean_traits: Mapping[str, bool]
    numeric_traits: Mapping[str, TraitValue]

    def __post_init__(self) -> None:
        if tuple(self.numeric_traits) != DIMENSIONS:
            raise UnknownDimension(str(tuple(self.numeric_traits)))
        for label, trait in self.numeric_traits.items():
            if not 0.0 <= trait.value <= 1.0:
                raise OutOfRange(trait.raw, trait.l, trait.h, dimension=label)

    def boolean_signature(self) -> tuple[bool, ...]:
        return tuple(self.boolean_traits[k] for k in sorted(self.boolean_traits))

    def values(self) -> tuple[float, ...]:
        return tuple(t.value for t in self.numeric_traits.values())


@dataclass(frozen=True)
class FeasibilityIndex:
    """Weighted harmonic merge of the numeric traits, in [0, 1]."""

    value: float
    weights_used: Mapping[str, float]


class DimensionComparison(str, Enum):
    FIRST_BETTER = "first_better"
    SECOND_BETTER = "second_better"
    EQUAL = "equal"


def normalize_trait(dimension: str, raw: int, bound: Bound) -> TraitValue:
    """Normalize one numeric trait against its range; OutOfRange propagates."""
    if bound.h is None:
        raise ValueError(f"bounds for {dimension!r} are unresolved (derived mode "
                         "requires derive_bounds against a topology)")
    value = normalize_falling(raw, bound.l, bound.h)
    return TraitValue(raw=raw, l=bound.l, h=bound.h, value=value)


def build_vector(request: SliceRequest, bounds: TraitBounds) -> FeasibilityVector:
    """Normalize the request's numeric traits against ``bounds``.

    OutOfRange propagates tagged with the offending dimension and slice id.
    """
    numeric: dict[str, TraitValue] = {}
    for dim in DIMENSIONS:
        try:
            numeric[dim] = normalize_trait(dim, request.trait(dim), bounds.bound(dim))
        except OutOfRange as err:
            raise OutOfRange(err.r, err.l, err.h, dimension=dim,
                             slice_id=request.id) from None
    return FeasibilityVector(
        slice_id=request.id,
        boolean_traits={"control": request.control},
        numeric_traits=numeric,
    )


def harmonic_index(values: Sequence[float],
                   weights: Sequence[float] | None = None) -> float:
    """Weighted harmonic mean of positive values; 0 if any value is 0.

    Computed in exact rational arithmetic and rounded once at the end, which
    keeps the result inside [min, max] and independent of input order.
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
    if any(v == 0 for v in values):
        return 0.0
    total_weight = sum(Fraction(w) for w in weights)
    denominator = sum(Fraction(w) / Fraction(v) for w, v in zip(weights, values))
    return float(total_weight / denominator)


def merge_index(vector: FeasibilityVector,
                weights: Mapping[str, float] | None = None) -> FeasibilityIndex:
    """Merge the vector's numeric traits into a single comparable index.

    Weights default to 1 per dimension; dimensions missing from ``weights``
    also get 1. Boolean traits are excluded.
    """
    resolved = {dim: 1.0 for dim in DIMENSIONS}
    if weights:
        resolved.update(weights_from_dict(weights, vector.slice_id))
    value = harmonic_index(
        [vector.numeric_traits[dim].value for dim in DIMENSIONS],
        [resolved[dim] for dim in DIMENSIONS],
    )
    return FeasibilityIndex(value=value, weights_used=resolved)


def group_by_boolean(
    vectors: Iterable[FeasibilityVector],
) -> dict[tuple[bool, ...], list[FeasibilityVector]]:
    """Partition vectors by their Boolean trait signature, preserving input
    order within each group."""
    groups: dict[tuple[bool, ...], list[FeasibilityVector]] = {}
    for vector in vectors:
        groups.setdefault(vector.boolean_signature(), []).append(vector)
    return groups


@dataclass(frozen=True)
class RankedRequest:
    slice_id: str
    vector: FeasibilityVector
    index: FeasibilityIndex


def rank(requests: Sequence[SliceRequest], bounds: TraitBounds,
         weights: Mapping[str, float] | None = None) -> list[RankedRequest]:
    """Order requests by descending feasibility index.

    Ties break on ascending slice id so replay stays deterministic. A
    request carrying its own weights overrides the call-level ones.
    """
    ranked = []
    for request in requests:
        vector = build_vector(request, bounds)
        index = merge_index(vector, weights if request.weights is None else request.weights)
        ranked.append(RankedRequest(request.id, vector, index))
    ranked.sort(key=lambda r: (-r.index.value, r.slice_id))
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
