"""Attacker/defender throughput comparison.

Two independent pipelines are compared through their throughput ratio.  The
ratio moves in the attacker's favour exactly when the attacker's relative
throughput gain exceeds the defender's (Theorem 4), so `ratio_report`
decides the comparison once, on the ratios.  The harness recomputes both
sides of the equivalence from raw capacities on every generated instance.
"""

from __future__ import annotations

from fractions import Fraction

from .model import (
    AdmissibilityError,
    Multiplier,
    Pipeline,
    Record,
    bottleneck_set,
    check_admissible,
    perturbed_throughput,
    throughput,
)


class RatioReport(Record):
    """Baseline and perturbed attacker/defender ratios plus per-side
    relative gains.  All four quantities are exact and strictly positive."""

    baseline_ratio: Fraction
    perturbed_ratio: Fraction
    attacker_gain: Fraction
    defender_gain: Fraction
    favours_attacker: bool


def _check_side(p: Pipeline, a: Multiplier, side: str) -> None:
    try:
        check_admissible(p, a)
    except AdmissibilityError as exc:
        raise AdmissibilityError(f"{side} multiplier: {exc}") from None


def ratio_report(attacker: Pipeline, aA: Multiplier,
                 defender: Pipeline, aD: Multiplier) -> RatioReport:
    """Ratios and gains of `attacker` under `aA` against `defender` under
    `aD`.  The two pipelines are independent: their stage sets are
    unrelated and no coupling between them is modelled."""
    _check_side(attacker, aA, "attacker")
    _check_side(defender, aD, "defender")

    ta = throughput(attacker)
    td = throughput(defender)
    ta_new = perturbed_throughput(attacker, aA)
    td_new = perturbed_throughput(defender, aD)

    baseline = ta / td
    perturbed = ta_new / td_new
    gain_a = ta_new / ta
    gain_d = td_new / td

    (pn, pd), (bn, bd) = perturbed.as_integer_ratio(), baseline.as_integer_ratio()
    return RatioReport(
        baseline_ratio=baseline,
        perturbed_ratio=perturbed,
        attacker_gain=gain_a,
        defender_gain=gain_d,
        # perturbed > baseline; by Theorem 4 the same as gain_a > gain_d
        favours_attacker=pn * bd > bn * pd,
    )


def defender_misses_bottleneck(attacker: Pipeline, aA: Multiplier,
                               defender: Pipeline, aD: Multiplier) -> bool:
    """True iff the attacker improves every one of its bottlenecks while the
    defender leaves some bottleneck of its own at factor 1.  In that case
    the ratio necessarily moves in the attacker's favour."""
    _check_side(attacker, aA, "attacker")
    _check_side(defender, aD, "defender")

    attacker_all = all((f := aA.factor[s]).numerator > f.denominator
                       for s in bottleneck_set(attacker))
    defender_some = any((f := aD.factor[s]).numerator == f.denominator
                        for s in bottleneck_set(defender))
    return attacker_all and defender_some
