"""Scalar useful-throughput models for alert triage.

Two models of the rate of usefully processed alerts as a function of the
incoming alert rate:

  * fixed fraction: a constant share of alerts is noise, and investigation
    saturates at a fixed capacity.  Above saturation the useful rate is a
    plateau, exactly (1 - fraction) * capacity: it never declines.
  * rate-dependent precision: the share of true positives is a function of
    the rate.  When that precision function is strictly decreasing above
    the investigation capacity, the useful rate genuinely declines there;
    a constant precision collapses back to the plateau.

These models are deliberately decoupled from the pipeline types; linking
an alert rate to a pipeline stage is an interpretation made by callers,
never by this module.

Every family evaluates exactly in rational arithmetic: each value these
models compute is a Fraction.  Every comparison they make is decided on
integer numerator/denominator pairs (`_cmp`), building no Fraction.
"""

from __future__ import annotations

from fractions import Fraction

from .model import RationalInput, Record, _shown, as_fraction


class DomainError(ValueError):
    """A model was queried outside its domain."""


class ModelValidationError(ValueError):
    """A model's parameters violate its invariants."""


class FixedFractionModel(Record):
    """Constant false-positive fraction in [0, 1) and a positive
    investigation capacity."""

    false_positive_fraction: Fraction
    investigation_capacity: Fraction

    def __init__(self, false_positive_fraction: RationalInput,
                 investigation_capacity: RationalInput):
        f = as_fraction(false_positive_fraction)
        c = as_fraction(investigation_capacity)
        if not 0 <= f.numerator < f.denominator:
            raise ModelValidationError(f"fraction {_shown(f)} outside [0, 1)")
        if c.numerator <= 0:
            raise ModelValidationError(
                f"investigation capacity {_shown(c)} must be > 0")
        object.__setattr__(self, "false_positive_fraction", f)
        object.__setattr__(self, "investigation_capacity", c)


def simple_useful(lam: RationalInput, m: FixedFractionModel) -> Fraction:
    """(1 - fraction) * min(rate, capacity), exactly."""
    lam = as_fraction(lam)
    if lam.numerator <= 0:
        raise DomainError(f"rate {_shown(lam)} must be > 0")
    return _simple_useful(lam, m)


def _cmp(x: Fraction, y: Fraction) -> int:
    """Sign of x - y (-1, 0 or 1) from one pair of integer cross-products."""
    lhs, rhs = x.numerator * y.denominator, y.numerator * x.denominator
    return (lhs > rhs) - (lhs < rhs)


def _simple_useful(lam: Fraction, m: FixedFractionModel) -> Fraction:
    f, c = m.false_positive_fraction, m.investigation_capacity
    x = lam if _cmp(lam, c) < 0 else c
    return Fraction((f.denominator - f.numerator) * x.numerator,
                    f.denominator * x.denominator)


class PlateauVerdict(Record):
    passed: bool
    common_value: Fraction
    samples_checked: int


def plateau_check(m: FixedFractionModel, lambdas) -> PlateauVerdict:
    """Assert the post-saturation plateau: every sample rate strictly above
    the investigation capacity must map to exactly
    (1 - fraction) * capacity.  A failure is an implementation bug."""
    samples = [as_fraction(x) for x in lambdas]
    low = [x for x in samples if _cmp(x, m.investigation_capacity) <= 0]
    if low:
        raise DomainError(
            f"samples must exceed the investigation capacity; got {_shown(low[:3])}"
        )
    expected = (1 - m.false_positive_fraction) * m.investigation_capacity
    # every sample exceeds a positive capacity, so each is in the domain
    ok = all(_cmp(_simple_useful(x, m), expected) == 0 for x in samples)
    return PlateauVerdict(passed=ok, common_value=expected,
                          samples_checked=len(samples))


# --- precision-function families -------------------------------------------


class ConstantPrecision(Record):
    """p(rate) = level for all rates; level in [0, 1]."""

    level: Fraction

    def __init__(self, level: RationalInput):
        f = as_fraction(level)
        if not 0 <= f.numerator <= f.denominator:
            raise ModelValidationError(f"precision level {_shown(f)} outside [0, 1]")
        object.__setattr__(self, "level", f)

    def value(self, lam: Fraction) -> Fraction:
        return self.level


class RationalDecayPrecision(Record):
    """p(rate) = 1 / (1 + k * rate) with k > 0; exact and strictly
    decreasing everywhere on the positive axis."""

    rate_coefficient: Fraction

    def __init__(self, rate_coefficient: RationalInput):
        k = as_fraction(rate_coefficient)
        if k.numerator <= 0:
            raise ModelValidationError(f"decay coefficient {_shown(k)} must be > 0")
        object.__setattr__(self, "rate_coefficient", k)

    def value(self, lam: Fraction) -> Fraction:
        k = self.rate_coefficient
        t = k.denominator * lam.denominator
        return Fraction(t, t + k.numerator * lam.numerator)


class TablePrecision(Record):
    """Empirical precision curve: sorted (rate, precision) breakpoints with
    exact linear interpolation between them.  Queries outside the breakpoint
    span are a domain error."""

    points: tuple[tuple[Fraction, Fraction], ...]

    def __init__(self, points):
        pts = tuple(
            (as_fraction(lam), as_fraction(p)) for lam, p in points
        )
        if len(pts) < 2:
            raise ModelValidationError("table needs at least two breakpoints")
        for (l1, _), (l2, _) in zip(pts, pts[1:]):
            if _cmp(l2, l1) <= 0:
                raise ModelValidationError(
                    "table breakpoints must be strictly increasing in rate"
                )
        bad = [p for _, p in pts if not 0 <= p.numerator <= p.denominator]
        if bad:
            raise ModelValidationError(
                f"table precisions outside [0, 1]: {_shown(bad)}")
        object.__setattr__(self, "points", pts)

    @property
    def span(self) -> tuple[Fraction, Fraction]:
        return self.points[0][0], self.points[-1][0]

    def value(self, lam: Fraction) -> Fraction:
        lo, hi = self.span
        if _cmp(lam, lo) < 0 or _cmp(lam, hi) > 0:
            raise DomainError(f"rate {_shown(lam)} outside table span "
                              f"[{_shown(lo)}, {_shown(hi)}]")
        for (l1, p1), (l2, p2) in zip(self.points, self.points[1:]):
            if _cmp(lam, l2) <= 0:  # the first such l2: l1 <= lam already
                return p1 + (p2 - p1) * (lam - l1) / (l2 - l1)
        raise AssertionError("unreachable: span check passed")

    def strictly_decreasing_above(self, c_inv: Fraction) -> bool:
        """Consecutive breakpoint values must strictly decrease on the part
        of the span above c_inv."""
        relevant = [(l, p) for l, p in self.points if _cmp(l, c_inv) > 0]
        return all(_cmp(p1, p2) > 0
                   for (_, p1), (_, p2) in zip(relevant, relevant[1:]))


PrecisionFunction = ConstantPrecision | RationalDecayPrecision | TablePrecision


def _check_domain(lam: Fraction, c_inv: Fraction) -> None:
    if lam.numerator <= 0:
        raise DomainError(f"rate {_shown(lam)} must be > 0")
    _check_capacity(c_inv)


def _check_capacity(c_inv: Fraction) -> None:
    if c_inv.numerator <= 0:
        raise DomainError(f"investigation capacity {_shown(c_inv)} must be > 0")


def repaired_useful(
    lam: RationalInput, p: PrecisionFunction, c_inv: RationalInput
) -> Fraction:
    """p(rate) * min(rate, capacity), exactly, for every family."""
    lam = as_fraction(lam)
    c_inv = as_fraction(c_inv)
    _check_domain(lam, c_inv)
    return _repaired_useful(lam, p, c_inv)


def _repaired_useful(lam: Fraction, p: PrecisionFunction, c_inv: Fraction):
    x = lam if _cmp(lam, c_inv) < 0 else c_inv
    v = p.value(lam)
    return Fraction(v.numerator * x.numerator, v.denominator * x.denominator)


class DeclineVerdict(Record):
    passed: bool
    mode: str  # "strict_decline" or "constant"
    values: tuple[Fraction, ...]


def decline_check(
    p: PrecisionFunction, c_inv: RationalInput, lambdas
) -> DeclineVerdict:
    """Assert strict decline of the repaired model across increasing sample
    rates above the investigation capacity; for the constant family, assert
    exact constancy instead.  A failure is an implementation bug."""
    c_inv = as_fraction(c_inv)
    samples = [as_fraction(x) for x in lambdas]
    if any(_cmp(x2, x1) <= 0 for x1, x2 in zip(samples, samples[1:])):
        raise DomainError("samples must be strictly increasing")
    low = [x for x in samples if _cmp(x, c_inv) <= 0]
    if low:
        raise DomainError(
            f"samples must exceed the investigation capacity; got {_shown(low[:3])}"
        )

    # the decay family decreases everywhere; only a table can fail to
    if isinstance(p, TablePrecision) and not p.strictly_decreasing_above(c_inv):
        raise ModelValidationError(
            "precision function is not strictly decreasing above the "
            "investigation capacity"
        )

    if samples:
        # the samples increase and exceed c_inv, so the first one is in the
        # domain exactly when all are
        _check_domain(samples[0], c_inv)
    else:
        _check_capacity(c_inv)
    values = tuple(_repaired_useful(x, p, c_inv) for x in samples)
    constant = isinstance(p, ConstantPrecision)
    if constant:
        ok = all(_cmp(v, values[0]) == 0 for v in values)
    else:
        ok = all(_cmp(v1, v2) > 0 for v1, v2 in zip(values, values[1:]))
    mode = "constant" if constant else "strict_decline"
    return DeclineVerdict(passed=ok, mode=mode, values=values)
