"""Scalar useful-throughput models for alert triage.

Two models of the rate of usefully processed alerts as a function of the
incoming alert rate:

  * fixed fraction: a constant share of alerts is noise, and investigation
    saturates at a fixed capacity.  Above saturation the useful rate is a
    plateau, exactly (1 - fraction) * capacity: it never declines.
  * rate-dependent precision: the share of true positives is a function of
    the rate.  When that precision function is strictly decreasing above
    the investigation capacity, the useful rate genuinely declines there;
    a constant precision is the fixed-fraction model, at 1 - fraction.

These models are deliberately decoupled from the pipeline types; linking
an alert rate to a pipeline stage is an interpretation made by callers,
never by this module.

Every family evaluates exactly in rational arithmetic: each value these
models return is a normalised Fraction.  Every comparison is decided on
integer pairs read with `as_integer_ratio()` (`_cmp`), and the repaired rate
is an unreduced pair (`_repaired_pair`), normalised only where returned.
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
    """(1 - fraction) * min(rate, capacity), exactly: the repaired rate
    under the constant precision 1 - fraction."""
    return repaired_useful(lam, _precision(m), m.investigation_capacity)


def _precision(m: FixedFractionModel) -> ConstantPrecision:
    """The fixed-fraction model's constant precision 1 - fraction."""
    f = m.false_positive_fraction
    return ConstantPrecision(Fraction(f.denominator - f.numerator, f.denominator))


def _cmp(x: Fraction, y: Fraction) -> int:
    """Sign of x - y (-1, 0 or 1) from one pair of integer cross-products."""
    (xn, xd), (yn, yd) = x.as_integer_ratio(), y.as_integer_ratio()
    lhs, rhs = xn * yd, yn * xd
    return (lhs > rhs) - (lhs < rhs)


def _check_above(samples: list[Fraction], c_inv: Fraction) -> None:
    low = [x for x in samples if _cmp(x, c_inv) <= 0]
    if low:
        raise DomainError("samples must exceed the investigation capacity; "
                          f"got {_shown(low[:3])}")


class PlateauVerdict(Record):
    passed: bool
    common_value: Fraction
    samples_checked: int


def plateau_check(m: FixedFractionModel, lambdas) -> PlateauVerdict:
    """Assert the post-saturation plateau: every sample rate strictly above
    the investigation capacity must map to exactly
    (1 - fraction) * capacity.  A failure is an implementation bug."""
    c = m.investigation_capacity
    samples = [as_fraction(x) for x in lambdas]
    _check_above(samples, c)
    p = _precision(m)
    (pn, pd), (cn, cd) = p.level.as_integer_ratio(), c.as_integer_ratio()
    en, ed = pn * cn, pd * cd
    # every sample exceeds a positive capacity, so each is in the domain
    ok = all(n * ed == en * d for n, d in [_repaired_pair(x, p, c) for x in samples])
    return PlateauVerdict(passed=ok, common_value=Fraction(en, ed),
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
        if type(lam) is not Fraction:
            as_fraction(lam)  # refuses a float or bool rate like the other families
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
        if type(lam) is not Fraction:
            lam = as_fraction(lam)
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

    def value(self, lam: Fraction) -> Fraction:
        if type(lam) is not Fraction:
            lam = as_fraction(lam)
        pts = self.points
        lo, hi = pts[0][0], pts[-1][0]
        if _cmp(lam, lo) < 0 or _cmp(lam, hi) > 0:
            raise DomainError(f"rate {_shown(lam)} outside table span "
                              f"[{_shown(lo)}, {_shown(hi)}]")
        # the first segment whose right end reaches lam: l1 <= lam already
        (l1, p1), (l2, p2) = next(seg for seg in zip(pts, pts[1:])
                                  if _cmp(lam, seg[1][0]) <= 0)
        return p1 + (p2 - p1) * (lam - l1) / (l2 - l1)


PrecisionFunction = ConstantPrecision | RationalDecayPrecision | TablePrecision


def _check_domain(c_inv: Fraction, lam: Fraction | None = None) -> None:
    if lam is not None and lam.numerator <= 0:
        raise DomainError(f"rate {_shown(lam)} must be > 0")
    if c_inv.numerator <= 0:
        raise DomainError(f"investigation capacity {_shown(c_inv)} must be > 0")


def repaired_useful(
    lam: RationalInput, p: PrecisionFunction, c_inv: RationalInput
) -> Fraction:
    """p(rate) * min(rate, capacity), exactly, for every family."""
    lam = as_fraction(lam)
    c_inv = as_fraction(c_inv)
    _check_domain(c_inv, lam)
    return Fraction(*_repaired_pair(lam, p, c_inv))


def _repaired_pair(lam: Fraction, p: PrecisionFunction, c_inv: Fraction) -> tuple[int, int]:
    """p(rate) * min(rate, capacity) as an unreduced integer pair (n, d), d > 0."""
    (ln, ld), (cn, cd) = lam.as_integer_ratio(), c_inv.as_integer_ratio()
    vn, vd = p.value(lam).as_integer_ratio()
    return (vn * ln, vd * ld) if ln * cd < cn * ld else (vn * cn, vd * cd)


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
    if samples and _cmp(samples[0], c_inv) <= 0:  # accept first: the least one
        _check_above(samples, c_inv)

    # the decay family decreases everywhere; only a table can fail to, on
    # any segment that reaches above c_inv, the one that straddles it too
    if isinstance(p, TablePrecision) and not all(
            _cmp(p1, p2) > 0 for (_, p1), (l2, p2) in zip(p.points, p.points[1:])
            if _cmp(l2, c_inv) > 0):
        raise ModelValidationError(
            "precision function is not strictly decreasing above the "
            "investigation capacity"
        )

    # the samples increase and exceed c_inv, so the first one is in the
    # domain exactly when all are
    _check_domain(c_inv, samples[0] if samples else None)
    pairs = [_repaired_pair(x, p, c_inv) for x in samples]
    values = tuple(Fraction(n, d) for n, d in pairs)
    constant = isinstance(p, ConstantPrecision)
    # step by step: equal steps make every value equal the first
    ok = all(n1 * d2 == n2 * d1 if constant else n1 * d2 > n2 * d1
             for (n1, d1), (n2, d2) in zip(pairs, pairs[1:]))
    mode = "constant" if constant else "strict_decline"
    return DeclineVerdict(passed=ok, mode=mode, values=values)
