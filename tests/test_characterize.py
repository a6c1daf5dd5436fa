from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given

import pipecalc.characterize as ch
from conftest import count_calls, pipeline_with_multiplier
from pipecalc import (
    Multiplier,
    Outcome,
    Pipeline,
    classify,
    migration_decomposition,
    preservation_report,
    verify_characterizations,
)
from pipecalc.cli import main
from test_documents import EXAMPLE_DOC


class TestClassify:
    def test_kept_bottleneck_pins_throughput(self, example_pipeline):
        a = Multiplier({"a": 10, "b": 1, "c": 10})
        cls = classify(example_pipeline, a)
        assert cls.outcome is Outcome.UNCHANGED
        assert cls.witness == "b"
        assert cls.new_throughput == 1

    def test_strict_increase(self, example_pipeline):
        a = Multiplier({"a": 1, "b": 2, "c": 1})
        cls = classify(example_pipeline, a)
        assert cls.outcome is Outcome.STRICT_INCREASE
        assert cls.witness is None
        assert cls.new_throughput == 2

    def test_tied_bottleneck_keeps_factor_one(self):
        p = Pipeline(("u", "v", "w"), {"u": 2, "v": 2, "w": 5})
        a = Multiplier({"u": 3, "v": 1, "w": 1})
        cls = classify(p, a)
        assert cls.outcome is Outcome.UNCHANGED
        assert cls.new_throughput == 2
        assert cls.witness == "v"

    def test_predicates_are_exclusive(self, example_pipeline):
        for factors in ({"a": 1, "b": 1, "c": 1}, {"a": 1, "b": 3, "c": 1}):
            cls = classify(example_pipeline, Multiplier(factors))
            assert cls.unchanged_predicate != cls.strict_predicate
            assert (cls.outcome is Outcome.UNCHANGED) == cls.unchanged_predicate


class TestPreservation:
    def test_preserved_singleton(self, example_pipeline):
        a = Multiplier({"a": 1, "b": 2, "c": 1})
        rep = preservation_report(example_pipeline, a)
        assert rep.preserved and rep.condition_i and rep.condition_ii
        assert rep.common_factor == 2

    def test_broken_by_overshoot(self, example_pipeline):
        a = Multiplier({"a": 1, "b": 5, "c": 1})
        rep = preservation_report(example_pipeline, a)
        assert not rep.preserved
        assert not rep.condition_ii

    def test_vacuous_when_all_bottlenecks(self):
        p = Pipeline(("x", "y"), {"x": 3, "y": 3})
        a = Multiplier({"x": 2, "y": 2})
        rep = preservation_report(p, a)
        assert rep.preserved and rep.condition_i and rep.condition_ii
        assert rep.common_factor == 2


class TestMigrationDecomposition:
    def test_bottleneck_moves(self, example_pipeline):
        d = migration_decomposition(
            example_pipeline, Multiplier({"a": 1, "b": 5, "c": 1})
        )
        assert d.departed == ("b",)
        assert d.entered == ("a",)

    def test_identity(self, example_pipeline):
        d = migration_decomposition(
            example_pipeline, Multiplier.identity(example_pipeline)
        )
        assert d.empty

    def test_stays(self, example_pipeline):
        d = migration_decomposition(
            example_pipeline, Multiplier({"a": 1, "b": 2, "c": 1})
        )
        assert d.empty

    def test_departure_without_entry(self):
        p = Pipeline(("u", "v", "w"), {"u": 2, "v": 2, "w": 5})
        d = migration_decomposition(p, Multiplier({"u": 1, "v": 3, "w": 1}))
        assert d.departed == ("v",)
        assert d.entered == ()


class TestVerifyCharacterizations:
    def test_example_passes(self, example_pipeline):
        a = Multiplier({"a": 2, "b": 1, "c": 5})
        assert verify_characterizations(example_pipeline, a).passed

    def test_single_stage_identity(self):
        p = Pipeline(("solo",), {"solo": 7})
        v = verify_characterizations(p, Multiplier({"solo": 1}))
        assert v.passed
        assert v.detail["new_throughput"] == 7

    def test_counterexample_carries_detail(self, example_pipeline, monkeypatch):
        import pipecalc.characterize as ch

        monkeypatch.setattr(ch, "min", max, raising=False)
        v = verify_characterizations(
            example_pipeline, Multiplier({"a": 1, "b": 1, "c": 1})
        )
        assert not v.passed
        assert v.failures
        assert "capacities" in v.detail


def _below_one(factor) -> Multiplier:
    """A Multiplier holding a factor below 1, made past its constructor's check."""
    m = object.__new__(Multiplier)
    object.__setattr__(m, "factor", MappingProxyType(
        {s: Fraction(f) for s, f in factor.items()}))
    return m


def _planted(index, **fields):
    """`_analyse`, with `fields` replaced in the report at `index`."""
    analyse = ch._analyse

    def planted(p, a):
        reports = list(analyse(p, a))
        report = reports[index]
        reports[index] = type(report)(
            **{f: fields.get(f, getattr(report, f)) for f in report._fields})
        return tuple(reports)
    return planted


_DECREASED = "throughput decreased under an admissible multiplier"
_SETS = "migration decomposition sets are wrong"


# each failure branch that holds only for an inadmissible multiplier or a
# wrong report, made to fire on the worked example a=3, b=1, c=4
@pytest.mark.parametrize("factor, planted, failures", [
    (_below_one({"a": 1, "b": Fraction(1, 2), "c": 1}), None, (_DECREASED,)),
    (_below_one({"a": 1, "b": 1, "c": Fraction(1, 8)}), None,
     (_DECREASED, "unchanged-throughput equivalence violated")),
    (_below_one({"a": 1, "b": 2, "c": Fraction(1, 8)}), None,
     (_DECREASED, "strict-increase equivalence violated")),
    (Multiplier({"a": 1, "b": 2, "c": 1}), _planted(0, unchanged_predicate=True),
     ("classification predicates disagree with brute force",)),
    (Multiplier({"a": 1, "b": 2, "c": 1}), _planted(0, outcome=ch.Outcome.UNCHANGED),
     ("classification outcome disagrees with brute force",)),
    (Multiplier({"a": 1, "b": 2, "c": 1}), _planted(2, departed=("b",)),
     ("migration decomposition disagrees with set equality", _SETS)),
    (Multiplier({"a": 1, "b": 5, "c": 1}), _planted(2, departed=("c",)), (_SETS,)),
], ids=["decrease", "unchanged-equivalence", "strict-equivalence",
        "predicates", "outcome", "migration-not-empty", "migration-sets"])
def test_verify_fires_on_planted_defect(example_pipeline, monkeypatch,
                                        factor, planted, failures):
    if planted is not None:
        assert verify_characterizations(example_pipeline, factor).passed
        monkeypatch.setattr(ch, "_analyse", planted)
    assert verify_characterizations(example_pipeline, factor).failures == failures


def test_one_pass_per_perturbation(example_pipeline, tmp_path, monkeypatch,
                                   capsys):
    # three scans, of the capacities, the products and the non-bottlenecks'
    # products, and no product list; no perturbed_throughput call
    expected = {"check_admissible": 1, "_argmin": 3}
    counts = count_calls(monkeypatch, (*expected, "perturbed_throughput"))
    path = tmp_path / "pipeline.json"
    path.write_text(EXAMPLE_DOC)
    assert main(["perturb", str(path), "--scenario", "boost"]) == 0
    assert dict(counts) == expected

    counts.clear()
    a = Multiplier({"a": 2, "b": 1, "c": 5})
    assert verify_characterizations(example_pipeline, a).passed
    assert dict(counts) == expected


# -- properties --------------------------------------------------------------


@given(pipeline_with_multiplier())
def test_verify_passes_on_generated_instances(pm):
    p, a = pm
    assert verify_characterizations(p, a).passed
    rep = preservation_report(p, a)
    assert (rep.common_factor is None) == (not rep.condition_i)
