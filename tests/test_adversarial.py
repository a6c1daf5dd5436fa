from fractions import Fraction

import pytest
from hypothesis import given

from conftest import fractions, pipeline_with_multiplier
from pipecalc import (
    AdmissibilityError,
    Multiplier,
    Pipeline,
    defender_misses_bottleneck,
    ratio_report,
)


def example():
    return Pipeline(("a", "b", "c"), {"a": 3, "b": 1, "c": 4})


class TestRatioReport:
    def test_symmetric_identity(self):
        ident = Multiplier.identity(example())
        rep = ratio_report(example(), ident, example(), ident)
        assert rep.perturbed_ratio == rep.baseline_ratio == 1
        assert rep.attacker_gain == rep.defender_gain == 1
        assert not rep.favours_attacker

    def test_attacker_improves_bottleneck(self):
        rep = ratio_report(
            example(),
            Multiplier({"a": 1, "b": 2, "c": 1}),
            example(),
            Multiplier.identity(example()),
        )
        assert rep.attacker_gain == 2
        assert rep.defender_gain == 1
        assert rep.favours_attacker

    def test_equal_gains_keep_ratio(self):
        boost = Multiplier({"a": 1, "b": Fraction(3, 2), "c": 1})
        rep = ratio_report(example(), boost, example(), boost)
        assert rep.attacker_gain == rep.defender_gain == Fraction(3, 2)
        assert rep.perturbed_ratio == rep.baseline_ratio
        assert not rep.favours_attacker

    def test_admissibility_errors_are_labeled(self):
        ident = Multiplier.identity(example())
        with pytest.raises(AdmissibilityError, match="attacker"):
            ratio_report(example(), Multiplier({"a": 1}), example(), ident)
        with pytest.raises(AdmissibilityError, match="defender"):
            ratio_report(example(), ident, example(), Multiplier({"a": 1}))


class TestDefenderMissesBottleneck:
    def test_defender_wastes_spend(self):
        atk = Multiplier({"a": 1, "b": 2, "c": 1})  # hits its bottleneck
        dfn = Multiplier({"a": 5, "b": 1, "c": 5})  # misses its own
        assert defender_misses_bottleneck(example(), atk, example(), dfn)
        assert ratio_report(example(), atk, example(), dfn).favours_attacker

    def test_both_identity(self):
        ident = Multiplier.identity(example())
        assert not defender_misses_bottleneck(example(), ident, example(), ident)

    def test_defender_covers_bottlenecks(self):
        atk = Multiplier({"a": 5, "b": 5, "c": 5})
        dfn = Multiplier({"a": 1, "b": 2, "c": 1})
        assert not defender_misses_bottleneck(example(), atk, example(), dfn)


# -- properties --------------------------------------------------------------


@given(pipeline_with_multiplier(), pipeline_with_multiplier())
def test_corollary_implication(atk, dfn):
    if defender_misses_bottleneck(*atk, *dfn):
        assert ratio_report(*atk, *dfn).favours_attacker


@given(pipeline_with_multiplier(), pipeline_with_multiplier(), fractions())
def test_defender_rescaling_preserves_verdict(atk, dfn, scale):
    rep = ratio_report(*atk, *dfn)
    scaled = Pipeline(
        dfn[0].stages, {s: scale * c for s, c in dfn[0].capacity.items()}
    )
    rep2 = ratio_report(*atk, scaled, dfn[1])
    assert rep2.baseline_ratio == rep.baseline_ratio / scale
    assert rep2.perturbed_ratio == rep.perturbed_ratio / scale
    assert rep2.favours_attacker == rep.favours_attacker
