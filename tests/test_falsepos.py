from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipecalc import (
    ConstantPrecision,
    DomainError,
    FixedFractionModel,
    RationalDecayPrecision,
    TablePrecision,
    decline_check,
    plateau_check,
    repaired_useful,
    simple_useful,
)
from pipecalc.falsepos import DeclineVerdict, ModelValidationError, PlateauVerdict


class TestSimpleUseful:
    def test_saturated(self):
        m = FixedFractionModel(Fraction(1, 2), 10)
        assert simple_useful(20, m) == 5

    def test_zero_fraction_below_capacity(self):
        m = FixedFractionModel(0, 10)
        assert simple_useful(7, m) == 7

    def test_below_capacity(self):
        m = FixedFractionModel(Fraction(1, 4), 8)
        assert simple_useful(6, m) == Fraction(9, 2)

    def test_nonpositive_rate_rejected(self):
        m = FixedFractionModel(0, 10)
        with pytest.raises(DomainError):
            simple_useful(0, m)

    def test_fraction_one_rejected(self):
        with pytest.raises(ModelValidationError):
            FixedFractionModel(1, 10)


class TestPlateauCheck:
    def test_example(self):
        m = FixedFractionModel(Fraction(1, 2), 10)
        verdict = plateau_check(m, [11, 100, 10**6])
        assert verdict.passed
        assert verdict.common_value == 5

    def test_zero_fraction(self):
        m = FixedFractionModel(0, 10)
        assert plateau_check(m, [20, 30]).common_value == 10

    def test_many_random_samples(self):
        import random

        rng = random.Random(3)
        m = FixedFractionModel(Fraction(1, 3), 7)
        samples = [7 + Fraction(rng.randint(1, 10**6), rng.randint(1, 100))
                   for _ in range(1000)]
        assert plateau_check(m, samples).passed

    def test_sample_at_capacity_rejected(self):
        m = FixedFractionModel(0, 10)
        with pytest.raises(DomainError):
            plateau_check(m, [10])


class TestRepairedUseful:
    def test_constant_is_flat(self):
        p = ConstantPrecision(Fraction(1, 2))
        for lam in (20, 50, 10**4):
            assert repaired_useful(lam, p, 10) == 5

    def test_rational_decay(self):
        p = RationalDecayPrecision(Fraction(1, 10))
        assert repaired_useful(20, p, 10) == Fraction(10, 3)
        assert repaired_useful(40, p, 10) == 2

    def test_table_interpolation(self):
        p = TablePrecision([(10, 1), (20, Fraction(1, 2)), (40, Fraction(1, 4))])
        assert repaired_useful(30, p, 10) == Fraction(15, 4)

    def test_table_outside_span(self):
        p = TablePrecision([(10, 1), (20, Fraction(1, 2))])
        with pytest.raises(DomainError):
            repaired_useful(50, p, 10)


class TestDeclineCheck:
    def test_rational_decay(self):
        p = RationalDecayPrecision(Fraction(1, 10))
        verdict = decline_check(p, 10, [20, 40, 80])
        assert verdict.passed and verdict.mode == "strict_decline"

    def test_constant_takes_the_constancy_route(self):
        verdict = decline_check(ConstantPrecision(Fraction(1, 2)), 10, [20, 40])
        assert verdict.passed and verdict.mode == "constant"
        assert verdict.values[0] == 5

    def test_table(self):
        p = TablePrecision([(10, 1), (20, Fraction(1, 2)), (40, Fraction(1, 4))])
        assert decline_check(p, 10, [15, 20, 30, 40]).passed

    def test_non_monotone_samples_rejected(self):
        p = RationalDecayPrecision(1)
        with pytest.raises(DomainError):
            decline_check(p, 10, [20, 20])

    def test_increasing_table_rejected(self):
        p = TablePrecision([(10, Fraction(1, 4)), (20, Fraction(1, 2)),
                            (40, Fraction(3, 4))])
        with pytest.raises(ModelValidationError):
            decline_check(p, 5, [15, 25])

    @pytest.mark.parametrize("p, c_inv, samples", [
        (RationalDecayPrecision(Fraction(1, 10)), -3, []),
        (RationalDecayPrecision(Fraction(1, 10)), -3, [1, 2]),
        (ConstantPrecision(Fraction(1, 2)), 0, []),
    ], ids=["decay-no-samples", "decay-samples", "constant-no-samples"])
    def test_nonpositive_capacity_refused(self, p, c_inv, samples):
        # refused whether or not a sample lies above the capacity
        with pytest.raises(DomainError,
                           match=f"investigation capacity {c_inv} must be > 0"):
            decline_check(p, c_inv, samples)

    def test_table_validated_only_above_capacity(self):
        # rises below the capacity, falls above it: still acceptable
        p = TablePrecision([(1, Fraction(1, 2)), (5, 1),
                            (20, Fraction(1, 2)), (40, Fraction(1, 4))])
        assert decline_check(p, 10, [20, 30, 40]).passed
        # a breakpoint exactly at the capacity, then a rise: the rise is above it
        p = TablePrecision([(10, Fraction(1, 4)), (20, Fraction(1, 2)),
                            (40, Fraction(1, 4))])
        with pytest.raises(ModelValidationError, match="not strictly decreasing"):
            decline_check(p, 10, [20, 30, 40])
        # a rise on a segment that ends exactly at the capacity is not above it
        p = TablePrecision([(1, Fraction(1, 4)), (10, Fraction(1, 2)),
                            (20, Fraction(1, 4))])
        assert decline_check(p, 10, [15, 20]).passed

    @pytest.mark.parametrize("points, c_inv", [
        # the segment that straddles the capacity rises on (2, 4)
        ([(1, Fraction(1, 2)), (4, 1), (8, Fraction(1, 4))], 2),
        # flat above the capacity is not strictly decreasing
        ([(1, 1), (10, Fraction(1, 2)), (20, Fraction(1, 2))], 5),
    ], ids=["rise-across-capacity", "flat-above-capacity"])
    def test_table_refused_unless_decreasing_above_capacity(self, points, c_inv):
        with pytest.raises(ModelValidationError, match="not strictly decreasing"):
            decline_check(TablePrecision(points), c_inv, [])


# -- every result against plain Fraction operators --------------------------

# numerators and denominators up to 10**40, and small ones so that ties occur
_INTS = st.integers(1, 10**40) | st.integers(1, 12)
_POSITIVE = st.builds(Fraction, _INTS, _INTS)
# a / (a + b) with b >= 1 lies in [0, 1)
_BELOW_ONE = st.builds(lambda a, b: Fraction(a, a + b),
                       st.integers(0, 10**40) | st.integers(0, 3), _INTS)
# distances from the capacity, some of them 10**-30 or less
_OFFSET = _POSITIVE | st.builds(Fraction, st.integers(1, 3),
                                st.integers(10**30, 10**31))


@st.composite
def _precisions(draw, c_inv, samples):
    kind = draw(st.sampled_from(["constant", "decay", "table"]))
    if kind == "constant":
        return ConstantPrecision(draw(_BELOW_ONE | st.just(Fraction(1))))
    if kind == "decay":
        return RationalDecayPrecision(draw(_POSITIVE))
    # strictly decreasing over a span from the capacity past the last
    # sample, with some samples as breakpoints
    top = (samples[-1] if samples else c_inv) + draw(_OFFSET)
    inner = draw(st.lists(st.sampled_from(samples), max_size=3)) if samples else []
    rates = sorted({c_inv, top, *inner})
    levels = draw(st.lists(st.integers(0, 10**40), min_size=len(rates),
                           max_size=len(rates), unique=True))
    return TablePrecision(zip(rates, (Fraction(n, 10**40)
                                      for n in sorted(levels, reverse=True))))


def _reference_precision(p, lam):
    if isinstance(p, ConstantPrecision):
        return p.level
    if isinstance(p, RationalDecayPrecision):
        return 1 / (1 + p.rate_coefficient * lam)
    for (l1, p1), (l2, p2) in zip(p.points, p.points[1:]):
        if l1 <= lam <= l2:
            return p1 + (p2 - p1) * (lam - l1) / (l2 - l1)
    raise AssertionError("rate outside the drawn table")


def _same(value, expected):
    return type(value) is Fraction and value == expected


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_family_matches_fraction_operators(data):
    f = data.draw(_BELOW_ONE)
    c_inv = data.draw(_POSITIVE)
    offsets = data.draw(st.lists(_OFFSET, max_size=6, unique=True))
    samples = sorted(c_inv + off for off in offsets)
    p = data.draw(_precisions(c_inv, samples))
    m = FixedFractionModel(f, c_inv)

    # rates at, below and above the capacity
    below = c_inv - data.draw(_OFFSET)
    rates = [c_inv, *samples] + ([below] if below > 0 else [])
    for lam in rates:
        assert _same(simple_useful(lam, m), (1 - f) * min(lam, c_inv))
        if not isinstance(p, TablePrecision) or lam >= c_inv:
            assert _same(repaired_useful(lam, p, c_inv),
                         _reference_precision(p, lam) * min(lam, c_inv))

    plateau = (1 - f) * c_inv
    assert plateau_check(m, samples) == PlateauVerdict(
        passed=all((1 - f) * min(x, c_inv) == plateau for x in samples),
        common_value=plateau, samples_checked=len(samples))

    values = tuple(_reference_precision(p, x) * min(x, c_inv) for x in samples)
    constant = isinstance(p, ConstantPrecision)
    if constant:
        passed = all(v == values[0] for v in values)
    else:
        passed = all(v1 > v2 for v1, v2 in zip(values, values[1:]))
    verdict = decline_check(p, c_inv, samples)
    assert verdict == DeclineVerdict(
        passed=passed, mode="constant" if constant else "strict_decline",
        values=values)
    assert all(type(v) is Fraction for v in verdict.values)


@pytest.mark.parametrize("target, planted, check", [
    ("RationalDecayPrecision.value", lambda self, lam: Fraction(1, 2),
     lambda: decline_check(RationalDecayPrecision(1), 10, [20, 30]).passed),
    ("RationalDecayPrecision.value", lambda self, lam: 1 - 1 / lam,
     lambda: decline_check(RationalDecayPrecision(1), 10, [20, 30]).passed),
    ("ConstantPrecision.value", lambda self, lam: 1 / lam,
     lambda: decline_check(ConstantPrecision(1), 10, [20, 30]).passed),
    ("_repaired_pair", lambda lam, p, c: (p.value(lam) * lam).as_integer_ratio(),
     lambda: plateau_check(FixedFractionModel(0, 10), [20, 30]).passed),
], ids=["flat-decay", "rising-decay", "varying-constant", "no-saturation"])
def test_checks_fail_on_planted_defects(monkeypatch, target, planted, check):
    monkeypatch.setattr(f"pipecalc.falsepos.{target}", planted)
    assert check() is False


# -- edge cases: results and refusals as written with Fraction operators ----

_DECAY = RationalDecayPrecision(Fraction(1, 10))
_HALF = ConstantPrecision(Fraction(1, 2))
_TABLE = TablePrecision([(10, 1), (20, Fraction(1, 2)), (40, Fraction(1, 4))])
_MODEL = FixedFractionModel(Fraction(1, 2), 10)
_ABOVE = ("samples must exceed the investigation capacity; got "
          "[Fraction(10, 1)]")
_NOT_INCREASING = "samples must be strictly increasing"
_NOT_DECREASING = ("precision function is not strictly decreasing above the "
                   "investigation capacity")

EDGE_CASES = {
    # a sample equal to the capacity
    "plateau-sample-at-capacity": (
        lambda: plateau_check(_MODEL, [20, 10]), (DomainError, _ABOVE)),
    "decline-sample-at-capacity": (
        lambda: decline_check(_DECAY, 10, [10, 20]), (DomainError, _ABOVE)),
    "simple-at-capacity": (lambda: simple_useful(10, _MODEL), Fraction(5)),
    "repaired-at-capacity": (lambda: repaired_useful(10, _DECAY, 10), Fraction(5)),
    "simple-within-1e-30-below": (
        lambda: simple_useful(Fraction(10**31 - 1, 10**30), _MODEL),
        Fraction(10**31 - 1, 2 * 10**30)),
    "plateau-samples-below": (
        lambda: plateau_check(_MODEL, [9, 8, 7, 6]),
        (DomainError, "samples must exceed the investigation capacity; got "
                      "[Fraction(9, 1), Fraction(8, 1), Fraction(7, 1)]")),
    # equal consecutive samples
    "plateau-equal-samples": (
        lambda: plateau_check(_MODEL, [20, 20]),
        PlateauVerdict(passed=True, common_value=Fraction(5), samples_checked=2)),
    "decline-equal-samples": (
        lambda: decline_check(_DECAY, 10, [20, 20]),
        (DomainError, _NOT_INCREASING)),
    "decline-decreasing-samples": (
        lambda: decline_check(_DECAY, 10, [30, 20]),
        (DomainError, _NOT_INCREASING)),
    "decline-equal-samples-below-capacity": (
        lambda: decline_check(_DECAY, 10, [5, 5]),
        (DomainError, _NOT_INCREASING)),
    # a non-positive capacity, with samples and without them
    "decline-capacity-zero-samples": (
        lambda: decline_check(_DECAY, 0, [1, 2]),
        (DomainError, "investigation capacity 0 must be > 0")),
    "decline-capacity-negative-no-samples": (
        lambda: decline_check(_DECAY, -3, []),
        (DomainError, "investigation capacity -3 must be > 0")),
    "decline-constant-capacity-zero-no-samples": (
        lambda: decline_check(_HALF, 0, []),
        (DomainError, "investigation capacity 0 must be > 0")),
    "decline-table-capacity-zero": (
        lambda: decline_check(_TABLE, 0, [15, 20]),
        (DomainError, "investigation capacity 0 must be > 0")),
    "repaired-capacity-zero": (
        lambda: repaired_useful(5, _DECAY, 0),
        (DomainError, "investigation capacity 0 must be > 0")),
    "model-capacity-zero": (
        lambda: FixedFractionModel(0, 0),
        (ModelValidationError, "investigation capacity 0 must be > 0")),
    "model-capacity-negative": (
        lambda: FixedFractionModel(0, "-1/2"),
        (ModelValidationError, "investigation capacity -1/2 must be > 0")),
    # constant mode
    "constant-mode-level-zero": (
        lambda: decline_check(ConstantPrecision(0), 10, [20, 30]),
        DeclineVerdict(passed=True, mode="constant",
                       values=(Fraction(0), Fraction(0)))),
    "constant-mode-one-sample": (
        lambda: decline_check(_HALF, 10, [11]),
        DeclineVerdict(passed=True, mode="constant", values=(Fraction(5),))),
    "constant-mode-no-samples": (
        lambda: decline_check(_HALF, 10, []),
        DeclineVerdict(passed=True, mode="constant", values=())),
    "decay-no-samples": (
        lambda: decline_check(_DECAY, 10, []),
        DeclineVerdict(passed=True, mode="strict_decline", values=())),
    # tables: validation, span ends and breakpoints
    "table-rising-above-capacity": (
        lambda: decline_check(
            TablePrecision([(10, Fraction(1, 4)), (20, Fraction(1, 2))]), 5, [15]),
        (ModelValidationError, _NOT_DECREASING)),
    "table-flat-above-capacity": (
        lambda: decline_check(TablePrecision(
            [(10, Fraction(1, 2)), (20, Fraction(1, 2)), (30, 0)]), 5, [15]),
        (ModelValidationError, _NOT_DECREASING)),
    "table-sample-past-span": (
        lambda: decline_check(_TABLE, 10, [20, 50]),
        (DomainError, "rate 50 outside table span [10, 40]")),
    "table-below-span": (
        lambda: repaired_useful(5, _TABLE, 10),
        (DomainError, "rate 5 outside table span [10, 40]")),
    "table-above-span": (
        lambda: repaired_useful(41, _TABLE, 10),
        (DomainError, "rate 41 outside table span [10, 40]")),
    "table-at-low-end": (lambda: repaired_useful(10, _TABLE, 10), Fraction(10)),
    "table-at-breakpoint": (lambda: repaired_useful(20, _TABLE, 10), Fraction(5)),
    "table-at-high-end": (lambda: repaired_useful(40, _TABLE, 10), Fraction(5, 2)),
    "table-equal-rates": (
        lambda: TablePrecision([(10, 1), (10, 0)]),
        (ModelValidationError,
         "table breakpoints must be strictly increasing in rate")),
    "table-precisions-outside-unit": (
        lambda: TablePrecision([(10, 1), (20, Fraction(5, 4)), (30, -1)]),
        (ModelValidationError, "table precisions outside [0, 1]: "
                               "[Fraction(5, 4), Fraction(-1, 1)]")),
    # parameter and rate refusals
    "model-fraction-one": (
        lambda: FixedFractionModel(1, 10),
        (ModelValidationError, "fraction 1 outside [0, 1)")),
    "model-fraction-negative": (
        lambda: FixedFractionModel("-1/3", 10),
        (ModelValidationError, "fraction -1/3 outside [0, 1)")),
    "constant-level-above-one": (
        lambda: ConstantPrecision(Fraction(3, 2)),
        (ModelValidationError, "precision level 3/2 outside [0, 1]")),
    "constant-level-negative": (
        lambda: ConstantPrecision(-1),
        (ModelValidationError, "precision level -1 outside [0, 1]")),
    "decay-coefficient-zero": (
        lambda: RationalDecayPrecision(0),
        (ModelValidationError, "decay coefficient 0 must be > 0")),
    "decay-coefficient-negative": (
        lambda: RationalDecayPrecision("-1/10"),
        (ModelValidationError, "decay coefficient -1/10 must be > 0")),
    "simple-rate-zero": (
        lambda: simple_useful(0, _MODEL), (DomainError, "rate 0 must be > 0")),
    "simple-rate-negative": (
        lambda: simple_useful("-1/2", _MODEL),
        (DomainError, "rate -1/2 must be > 0")),
    "repaired-rate-zero": (
        lambda: repaired_useful(0, _DECAY, 10), (DomainError, "rate 0 must be > 0")),
}


@pytest.mark.parametrize("call, expected", EDGE_CASES.values(), ids=EDGE_CASES)
def test_edge_cases(call, expected):
    if isinstance(expected, tuple) and isinstance(expected[0], type):
        exc_type, message = expected
        with pytest.raises(exc_type) as info:
            call()
        assert type(info.value) is exc_type and str(info.value) == message
    else:
        assert call() == expected
