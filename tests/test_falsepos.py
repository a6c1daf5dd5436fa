from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import fractions
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
from pipecalc.falsepos import ModelValidationError


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


# -- properties --------------------------------------------------------------


@given(
    st.integers(min_value=0, max_value=99),
    fractions(),
    st.lists(fractions(), min_size=2, max_size=10),
)
def test_plateau_everywhere_above_capacity(f_pct, c_inv, offsets):
    m = FixedFractionModel(Fraction(f_pct, 100), c_inv)
    samples = [c_inv + off for off in offsets]
    verdict = plateau_check(m, samples)
    assert verdict.passed
    assert verdict.common_value == (1 - Fraction(f_pct, 100)) * c_inv


@given(fractions(), fractions(), st.lists(fractions(), min_size=2,
                                          max_size=8, unique=True))
def test_rational_decay_strictly_declines(k, c_inv, offsets):
    p = RationalDecayPrecision(k)
    samples = sorted(c_inv + off for off in offsets)
    values = [repaired_useful(x, p, c_inv) for x in samples]
    assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))


@given(st.integers(min_value=0, max_value=100), fractions(), fractions())
def test_constant_reproduces_fixed_fraction(f_pct, c_inv, offset):
    f = Fraction(f_pct, 100)
    lam = c_inv + offset
    p = ConstantPrecision(1 - f)
    if f < 1:
        m = FixedFractionModel(f, c_inv)
        assert repaired_useful(lam, p, c_inv) == simple_useful(lam, m)


@given(st.integers(min_value=0, max_value=100), fractions(), fractions())
def test_below_saturation_scales_with_rate(f_pct, c_inv, lam):
    f = Fraction(f_pct, 100)
    if f == 1 or lam > c_inv:
        return
    m = FixedFractionModel(f, c_inv)
    assert simple_useful(lam, m) == (1 - f) * lam
