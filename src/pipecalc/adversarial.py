"""Attacker/defender throughput comparison.

Two independent pipelines are compared through their throughput ratio.  The
ratio moves in the attacker's favour exactly when the attacker's relative
throughput gain exceeds the defender's; `ratio_report` computes both sides
of that equivalence independently and refuses to return a report in which
they disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import (
    AdmissibilityError,
    Multiplier,
    Pipeline,
    bottleneck_set,
    check_admissible,
    perturbed_throughput,
    throughput,
)


class InternalCheckError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class RatioReport:
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

    # both formulations of "favours the attacker" must agree exactly
    by_ratio = (perturbed.numerator * baseline.denominator
                > baseline.numerator * perturbed.denominator)
    by_gain = (gain_a.numerator * gain_d.denominator
               > gain_d.numerator * gain_a.denominator)
    if by_ratio != by_gain:
        raise InternalCheckError(
            f"ratio comparison {perturbed} > {baseline} is {by_ratio} but "
            f"gain comparison {gain_a} > {gain_d} is {by_gain}"
        )

    return RatioReport(
        baseline_ratio=baseline,
        perturbed_ratio=perturbed,
        attacker_gain=gain_a,
        defender_gain=gain_d,
        favours_attacker=by_ratio,
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
