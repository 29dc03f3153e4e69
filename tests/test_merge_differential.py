"""Differential check of the integer harmonic merge against the ``Fraction``
merge it replaced (``tests.oracles.reference_harmonic_index``).

Each seeded case holds 1 to 8 values drawn from one of several kinds
(uniform, subnormal, exactly 1, zero, small-integer ratios, ints, just
below 1, huge) and no weights or int, float, tiny or huge weights. A few
cases carry one or two of: a NaN, an infinity, a negative value, a
non-positive weight, a length mismatch or no values at all. The merge must
return the same float bit for bit, or raise the same exception type with
the same message.

The tier-1 test runs the first cases of the seeded stream. The full run
prints its case count and a sha256 over every outcome:

    PYTHONPATH=src python -m tests.test_merge_differential --cases 200000
"""

from __future__ import annotations

import argparse
import hashlib
import random

from tnsc import harmonic_index

from .oracles import reference_harmonic_index

SEED = 7007
TIER1_CASES = 10_000
NAN, INF = float("nan"), float("inf")
SMALLEST_SUBNORMAL = 5e-324
BELOW_ONE = 1 - 2 ** -53


def _value(rng: random.Random, kind: str):
    if kind == "uniform":
        return rng.random() or 1.0
    if kind == "subnormal":
        return rng.choice((SMALLEST_SUBNORMAL,
                           rng.randrange(1, 2 ** 52) * SMALLEST_SUBNORMAL))
    if kind == "one":
        return 1.0
    if kind == "zero":
        return rng.choice((0.0, -0.0, 0))
    if kind == "ratio":
        q = rng.randint(1, 24)
        return rng.randint(1, q) / q
    if kind == "int":
        return rng.randint(1, 30)
    if kind == "below_one":
        return BELOW_ONE
    return rng.choice((1e300, 1.7976931348623157e308, 10 ** 400, 2 ** 1023))


VALUE_KINDS = ("uniform", "subnormal", "one", "zero", "ratio", "int",
               "below_one", "huge")


def _weight(rng: random.Random, kind: str):
    if kind == "int":
        return rng.randint(1, 10)
    if kind == "float":
        return rng.uniform(0.0, 10.0) or 1.0
    if kind == "tiny":
        return rng.choice((SMALLEST_SUBNORMAL, 2 ** -1000))
    return rng.choice((1e300, 1.7976931348623157e308, 2 ** 1000, 10 ** 400))


WEIGHT_KINDS = ("int", "float", "tiny", "huge")
#: Inputs that must fail; NaN and infinities fail in ``as_integer_ratio``
#: (``Fraction`` in the reference), the rest in the argument checks.
BAD_INPUTS = ("nan_value", "inf_value", "nan_weight", "inf_weight",
              "negative_value", "zero_weight", "negative_weight", "length",
              "empty")


def merge_cases(seed: int, count: int):
    """Yield ``count`` (values, weights) pairs from a seeded stream."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 8)
        # Most cases mix kinds; some keep one kind so runs of subnormals,
        # ones or ratios are common too.
        if rng.random() < 0.3:
            kinds = [rng.choice(VALUE_KINDS)] * n
        else:
            kinds = [rng.choice(VALUE_KINDS[:-1]) if rng.random() < 0.95 else "huge"
                     for _ in range(n)]
        values = [_value(rng, kind) for kind in kinds]
        weights = None
        if rng.random() < 0.7:
            weight_kind = rng.choice(WEIGHT_KINDS)
            weights = [_weight(rng, weight_kind if rng.random() < 0.7
                               else rng.choice(WEIGHT_KINDS)) for _ in range(n)]
        bads = []
        if rng.random() < 0.08:
            # Two bad inputs check which one fails first.
            bads = rng.sample(BAD_INPUTS, 1 if rng.random() < 0.7 else 2)
        for bad in sorted(bads, key=BAD_INPUTS.index):  # "empty" last
            i = rng.randrange(n)
            if weights is None and bad.endswith("weight"):
                weights = [1.0] * n
            if bad == "nan_value":
                values[i] = NAN
            elif bad == "inf_value":
                values[i] = INF
            elif bad == "nan_weight":
                weights[i] = NAN
            elif bad == "inf_weight":
                weights[i] = INF
            elif bad == "negative_value":
                values[i] = -rng.choice((0.5, SMALLEST_SUBNORMAL, 3))
            elif bad == "zero_weight":
                weights[i] = rng.choice((0, 0.0, -0.0))
            elif bad == "negative_weight":
                weights[i] = -rng.random()
            elif bad == "length":
                weights = (weights or [1.0] * n) + [1.0]
            else:
                values = []
        yield values, weights


def _outcome(merge, values, weights):
    try:
        return merge(values, weights).hex()
    except (ArithmeticError, ValueError) as err:
        return type(err).__name__, str(err)


def differential_cases(seed: int, count: int):
    """Yield (case, outcome, reference outcome); an outcome is the result
    as ``float.hex`` or the exception's type name and message."""
    for values, weights in merge_cases(seed, count):
        yield ((values, weights), _outcome(harmonic_index, values, weights),
               _outcome(reference_harmonic_index, values, weights))


def test_integer_merge_matches_fraction_merge():
    kinds = set()
    for case, outcome, expected in differential_cases(SEED, TIER1_CASES):
        assert outcome == expected, case
        kinds.add(outcome[0] if isinstance(outcome, tuple) else "value")
    assert kinds == {"value", "ValueError", "OverflowError", "NonPositiveWeight"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=SEED)
    args = parser.parse_args(argv)
    digest = hashlib.sha256()
    cases = mismatches = 0
    for case, outcome, expected in differential_cases(args.seed, args.cases):
        cases += 1
        if outcome != expected:
            mismatches += 1
            print("mismatch", case, outcome, expected)
        digest.update(repr((case, outcome)).encode())
    print(f"seed={args.seed} cases={cases} mismatches={mismatches} "
          f"sha256={digest.hexdigest()}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
