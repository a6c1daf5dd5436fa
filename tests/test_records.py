"""Every public value type is an immutable record (`model.Record`): frozen,
compared and hashed by its field tuple, printed as a frozen dataclass
printed it, and picklable; and the package keeps every name it exports
while importing only what a command runs."""

import importlib
import json
import os
import pickle
import subprocess
import sys

import pytest

import pipecalc
from pipecalc import (
    AuthoritySpec,
    ConstantPrecision,
    CostModel,
    FixedFractionModel,
    Multiplier,
    Pipeline,
    RationalDecayPrecision,
    RatioReport,
    TablePrecision,
    ValidationReport,
    bottleneck_report,
    decline_check,
    maxmin_allocation,
    parse_document,
    plateau_check,
    ratio_report,
    verify_characterizations,
)
from pipecalc.characterize import _analyse
from pipecalc.harness import Counterexample, GeneratorConfig, HarnessVerdict, verify_all
from pipecalc.model import Record

P = Pipeline(("a", "b"), {"a": 3, "b": "1/2"})
A = Multiplier({"a": 1, "b": 2})
CLASSIFICATION, PRESERVATION, MIGRATION = _analyse(P, A)
DOC = parse_document(json.dumps({
    "format_version": "1",
    "pipeline": {"name": "n", "stages": [{"id": "a", "capacity": "3"}]},
    "scenarios": {"up": {"a": "2"}},
}))

# one value of each type, with its repr as the frozen dataclass gave it
REPRS = [
    (ValidationReport(("stage 'a' has no capacity",)),
     "ValidationReport(violations=(\"stage 'a' has no capacity\",))"),
    (P, "Pipeline(stages=('a', 'b'), capacity=mappingproxy("
        "{'a': Fraction(3, 1), 'b': Fraction(1, 2)}))"),
    (A, "Multiplier(factor=mappingproxy({'a': Fraction(1, 1), 'b': Fraction(2, 1)}))"),
    (bottleneck_report(P),
     "BottleneckReport(throughput=Fraction(1, 2), bottlenecks=('b',), "
     "non_bottlenecks=('a',))"),
    (CLASSIFICATION,
     "PerturbationClassification(outcome=<Outcome.STRICT_INCREASE: "
     "'strict_increase'>, unchanged_predicate=False, strict_predicate=True, "
     "witness=None, base_throughput=Fraction(1, 2), new_throughput=Fraction(1, 1))"),
    (PRESERVATION,
     "PreservationReport(preserved=True, condition_i=True, condition_ii=True, "
     "common_factor=Fraction(2, 1))"),
    (MIGRATION, "MigrationDecomposition(departed=(), entered=())"),
    (verify_characterizations(P, A),
     "CharacterizationVerdict(passed=True, failures=(), detail=mappingproxy({"
     "'base_throughput': Fraction(1, 2), 'new_throughput': Fraction(1, 1), "
     "'bottlenecks_before': ('b',), 'bottlenecks_after': ('b',), "
     "'factors': mappingproxy({'a': Fraction(1, 1), 'b': Fraction(2, 1)}), "
     "'capacities': mappingproxy({'a': Fraction(3, 1), 'b': Fraction(1, 2)})}))"),
    (FixedFractionModel("1/4", 10),
     "FixedFractionModel(false_positive_fraction=Fraction(1, 4), "
     "investigation_capacity=Fraction(10, 1))"),
    (plateau_check(FixedFractionModel("1/4", 10), [11, 12]),
     "PlateauVerdict(passed=True, common_value=Fraction(15, 2), samples_checked=2)"),
    (ConstantPrecision("1/2"), "ConstantPrecision(level=Fraction(1, 2))"),
    (RationalDecayPrecision("1/10"),
     "RationalDecayPrecision(rate_coefficient=Fraction(1, 10))"),
    (TablePrecision([(1, 1), (2, "1/2")]),
     "TablePrecision(points=((Fraction(1, 1), Fraction(1, 1)), "
     "(Fraction(2, 1), Fraction(1, 2))))"),
    (decline_check(RationalDecayPrecision("1/10"), 1, [2, 3]),
     "DeclineVerdict(passed=True, mode='strict_decline', "
     "values=(Fraction(5, 6), Fraction(10, 13)))"),
    (DOC, "PipelineDocument(name='n', pipeline=Pipeline(stages=('a',), "
          "capacity=mappingproxy({'a': Fraction(3, 1)})), authority=None, "
          "scenarios=mappingproxy({'up': Multiplier(factor=mappingproxy({'a': "
          "Fraction(2, 1)}))}))"),
    (GeneratorConfig(seed=3, instance_count=2, max_stages=4),
     "GeneratorConfig(seed=3, instance_count=2, max_stages=4)"),
    (Counterexample(check="ceiling", seed=1, index=2, message="m"),
     "Counterexample(check='ceiling', seed=1, index=2, message='m')"),
    (HarnessVerdict(seed=1, count=2, checks={"ceiling": 2}, counterexamples=()),
     "HarnessVerdict(seed=1, count=2, checks=mappingproxy({'ceiling': 2}), "
     "counterexamples=(), max_stages=8)"),
    (ratio_report(P, A, P, Multiplier.identity(P)),
     "RatioReport(baseline_ratio=Fraction(1, 1), perturbed_ratio=Fraction(2, 1), "
     "attacker_gain=Fraction(2, 1), defender_gain=Fraction(1, 1), "
     "favours_attacker=True)"),
    (CostModel({"a": 1, "b": 2}, 3),
     "CostModel(unit_cost=mappingproxy({'a': Fraction(1, 1), 'b': Fraction(2, 1)}), "
     "budget=Fraction(3, 1))"),
    (maxmin_allocation(P, CostModel({"a": 1, "b": 2}, 3)),
     "AllocationResult(multiplier=Multiplier(factor=mappingproxy("
     "{'a': Fraction(1, 1), 'b': Fraction(5, 2)})), "
     "achieved_throughput=Fraction(5, 4), spent=Fraction(3, 1))"),
    (AuthoritySpec({"a"}, {"a": 2}),
     "AuthoritySpec(human_stages=frozenset({'a'}), "
     "assist_bound=mappingproxy({'a': Fraction(2, 1)}))"),
]
VALUES = [value for value, _ in REPRS]
IDS = [type(value).__name__ for value in VALUES]


def fields(value) -> tuple:
    return tuple(getattr(value, f) for f in value.__match_args__)


def test_every_record_type_is_covered():
    assert len(VALUES) == 22
    assert {type(value) for value in VALUES} == set(Record.__subclasses__())


@pytest.mark.parametrize("value, text", REPRS, ids=IDS)
def test_repr_is_the_dataclass_repr(value, text):
    assert repr(value) == text


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_assignment_and_deletion_raise(value):
    name = value.__match_args__[0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(value, name, None)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        value.extra = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(value, name)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_equality_and_hash_follow_the_field_tuple(value):
    same = type(value)(*fields(value))
    assert same == value and not same != value
    assert value != fields(value)  # another class never compares equal
    assert value.__eq__(fields(value)) is NotImplemented
    if type(value) in (Pipeline, Multiplier):  # these hash their mapping's items
        assert hash(value) == hash(same)
        return
    try:
        expected = hash(fields(value))
    except TypeError:  # a dict or mappingproxy field
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == expected


def test_a_mapping_field_refuses_item_assignment():
    with pytest.raises(TypeError):
        verify_all(GeneratorConfig(seed=1, instance_count=2)).checks["ceiling"] = 99
    detail = verify_characterizations(Pipeline(("a", "b"), {"a": 3, "b": 1}),
                                      Multiplier({"a": 1, "b": 2})).detail
    with pytest.raises(TypeError):
        detail["base_throughput"] = 99
    with pytest.raises(TypeError):
        detail["factors"]["a"] = 5


def test_a_differing_field_breaks_equality():
    assert GeneratorConfig(seed=1) != GeneratorConfig(seed=2)
    assert P != Pipeline(("a", "b"), {"a": 3, "b": 1})
    assert bottleneck_report(P) != bottleneck_report(Pipeline(("a",), {"a": 1}))


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_pickle_round_trip(value):
    again = pickle.loads(pickle.dumps(value))
    assert type(again) is type(value)
    assert again == value
    assert repr(again) == repr(value)


def test_match_args_name_the_fields_in_order():
    match ratio_report(P, A, P, A):
        case RatioReport(baseline, perturbed, favours_attacker=favours):
            assert (baseline, perturbed, favours) == (1, 1, False)
        case _:
            pytest.fail("a RatioReport did not match its own class pattern")


class TestGenericConstructor:
    def test_defaults(self):
        cfg = GeneratorConfig()
        assert fields(cfg) == (0, 10_000, 8)
        assert GeneratorConfig(5, max_stages=3) == GeneratorConfig(5, 10_000, 3)

    @pytest.mark.parametrize("kwargs", [{"instance_count": -1}, {"max_stages": 0}],
                             ids=["negative-instance-count", "zero-max-stages"])
    def test_post_init_still_validates(self, kwargs):
        with pytest.raises(ValueError):
            GeneratorConfig(**kwargs)

    @pytest.mark.parametrize("call, got", [
        (lambda: Counterexample(check="c", seed=1, index=2),
         "0 by position and check, seed, index by name"),
        (lambda: Counterexample("c", 1, 2, "m", extra=1),
         "4 by position and extra by name"),
        (lambda: Counterexample("c", 1, 2, "m", "n"), "5 by position and none by name"),
        (lambda: Counterexample("c", 1, 2, "m", check="d"),
         "4 by position and check by name"),
    ], ids=["missing", "unknown", "too-many", "twice"])
    def test_a_wrong_call_is_a_type_error(self, call, got):
        with pytest.raises(TypeError) as info:
            call()
        assert str(info.value) == (
            f"Counterexample() takes the fields check, seed, index, message; got {got}")

    def test_an_unknown_field_is_refused_beside_defaults(self):
        with pytest.raises(TypeError, match="got 0 by position and sed by name"):
            GeneratorConfig(sed=1)


def _fresh(code: str) -> str:
    """stdout of `code`, run by a fresh interpreter on the in-tree package;
    -S keeps site from importing typing before pipecalc does."""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    return subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        check=True,
    ).stdout


def test_import_loads_no_dataclasses_inspect_or_typing():
    # heapq is imported by the first max-min plan, and the four pipecalc
    # modules (random with harness) by the subcommands that run them
    assert _fresh(
        "import sys, pipecalc, pipecalc.cli; print(sorted("
        "{'dataclasses', 'heapq', 'inspect', 'typing', 'random', 'pipecalc.characterize', "
        "'pipecalc.falsepos', 'pipecalc.harness', 'pipecalc.planner'} & set(sys.modules)))"
    ) == "[]\n"


# every name the package exports, by the module that defines it
EXPORTS = {
    "adversarial": "RatioReport defender_misses_bottleneck ratio_report",
    "ceiling": "AuthoritySpec ConfigurationError UndefinedCeilingError ceiling "
               "generalized_ceiling is_h_admissible tightness_witness",
    "characterize": "CharacterizationVerdict MigrationDecomposition Outcome "
                    "PerturbationClassification PreservationReport classify "
                    "migration_decomposition preservation_report verify_characterizations",
    "documents": "DocumentError PipelineDocument document_for_pipeline load_document "
                 "parse_document serialize_document",
    "falsepos": "ConstantPrecision DeclineVerdict DomainError FixedFractionModel "
                "PlateauVerdict RationalDecayPrecision TablePrecision decline_check "
                "plateau_check repaired_useful simple_useful",
    "harness": "GeneratorConfig HarnessVerdict generate_instance structured_report "
               "text_report verify_all",
    "model": "AdmissibilityError BottleneckReport Multiplier Pipeline "
             "PipelineValidationError ValidationReport bottleneck_report bottleneck_set "
             "perturb perturbed_throughput throughput validate_pipeline",
    "planner": "AllocationResult CostModel TiedBottleneckError maxmin_allocation "
               "trivial_allocation",
}


def test_package_keeps_its_names():
    moved = [f"{module}.{name}" for module, names in EXPORTS.items()
             for name in names.split()
             if getattr(pipecalc, name) is not getattr(
                 importlib.import_module(f"pipecalc.{module}"), name)]
    assert moved == []
    with pytest.raises(AttributeError, match="has no attribute 'nonesuch'"):
        pipecalc.nonesuch
    # a module loaded on first access, and `ceiling` still the function once
    # harness has imported the ceiling module
    assert _fresh(
        "import sys, pipecalc; harness = pipecalc.harness\n"
        "import pipecalc.harness, pipecalc.ceiling\n"
        "print(harness is sys.modules['pipecalc.harness'], "
        "pipecalc.ceiling is sys.modules['pipecalc.ceiling'].ceiling)"
    ) == "True True\n"
