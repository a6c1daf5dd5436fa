"""Refusal parity for the value-object constructors, in one table.

`Pipeline`, `Multiplier` and `CostModel` accept valid input with one cheap
test and run their converting, refusal-wording code only when that test
fails; `AuthoritySpec` keeps a bound that is exactly a `Fraction` and
converts anything else.  Each row below gives an input together with the
exception type and message it is refused with, or the exact values built
from it, so that an accept test missing any one of its conditions lets some
row through that must be refused, or keeps a value unconverted.  The
precision families' `value` methods refuse a float or bool rate as
`as_fraction` does.  The last table does the same for the functions that
take a pipeline together with a multiplier or cost model over other stages.
"""

from fractions import Fraction

import pytest

from pipecalc.adversarial import defender_misses_bottleneck
from pipecalc.ceiling import (
    AuthoritySpec,
    ConfigurationError,
    UndefinedCeilingError,
    generalized_ceiling,
)
from pipecalc.falsepos import ConstantPrecision, RationalDecayPrecision, TablePrecision
from pipecalc.model import (
    ONE,
    AdmissibilityError,
    Multiplier,
    Pipeline,
    PipelineValidationError,
    _TooLong,
    perturbed_throughput,
    validate_pipeline,
)
from pipecalc.planner import CostModel, CostModelError, trivial_allocation


class _Tagged(Fraction):
    """A Fraction subclass: converted to a plain Fraction like any input."""


class _Name(str):
    """A str subclass: still nonempty text, so a valid stage id."""


FLOAT = ('floats are not accepted; pass an int, Fraction, or exact text such '
         'as "3.25" or "13/4"')
BOOL = "booleans are not capacities"
HUGE = 10**5000  # its repr passes CPython's int-to-text limit
UNSHOWN = "<a value of more than 4300 digits>"
IDS = [f"s{i:03}" for i in range(999)]


def _ones_with(**extra):
    factors = dict.fromkeys(IDS, ONE)
    factors.update(extra)
    return factors


def _row(name, build, error, message):
    return pytest.param(build, error, message, id=name)


PIPELINE_REFUSALS = [
    _row("empty", lambda: Pipeline((), {}), PipelineValidationError,
         "assumption 1 violated: stage set is empty"),
    _row("empty-with-capacity", lambda: Pipeline((), {"a": 1}),
         PipelineValidationError,
         "assumption 1 violated: stage set is empty; "
         "capacity given for unknown stage 'a'"),
    _row("non-text-id", lambda: Pipeline((1,), {1: 1}), PipelineValidationError,
         "stage id 1 is not nonempty text"),
    _row("empty-id", lambda: Pipeline(("",), {"": 1}), PipelineValidationError,
         "stage id '' is not nonempty text"),
    _row("duplicate-id", lambda: Pipeline(("a", "a"), {"a": 1}),
         PipelineValidationError, "duplicate stage id 'a': stage ids form a set"),
    _row("missing-capacity", lambda: Pipeline(("a", "b"), {"a": 1}),
         PipelineValidationError, "stage 'b' has no capacity"),
    _row("unknown-capacity", lambda: Pipeline(("a",), {"a": 1, "z": 2}),
         PipelineValidationError, "capacity given for unknown stage 'z'"),
    _row("capacity-zero", lambda: Pipeline(("a", "b"), {"a": 0, "b": 2}),
         PipelineValidationError,
         "assumption 2 violated: capacity of stage 'a' is 0 (must be > 0)"),
    _row("capacity-negative",
         lambda: Pipeline(("a", "b"), {"a": 2, "b": Fraction(-1, 3)}),
         PipelineValidationError,
         "assumption 2 violated: capacity of stage 'b' is -1/3 (must be > 0)"),
    _row("negative-among-999",
         lambda: Pipeline(IDS, {**dict.fromkeys(IDS, ONE), "s500": Fraction(-1)}),
         PipelineValidationError,
         "assumption 2 violated: capacity of stage 's500' is -1 (must be > 0)"),
    _row("float", lambda: Pipeline(("a",), {"a": 1.5}), TypeError, FLOAT),
    _row("bool", lambda: Pipeline(("a",), {"a": True}), TypeError, BOOL),
    _row("fraction-subclass-negative",
         lambda: Pipeline(("a",), {"a": _Tagged(-1, 2)}), PipelineValidationError,
         "assumption 2 violated: capacity of stage 'a' is -1/2 (must be > 0)"),
    _row("bad-text", lambda: Pipeline(("a",), {"a": "abc"}), ValueError,
         "Invalid literal for Fraction: 'abc'"),
    # two or more checks broken at once: every violation, in check order
    _row("duplicate-unknown-negative",
         lambda: Pipeline(("a", "a"), {"a": -1, "ghost": 2}),
         PipelineValidationError,
         "duplicate stage id 'a': stage ids form a set; capacity given for "
         "unknown stage 'ghost'; assumption 2 violated: capacity of stage 'a' "
         "is -1 (must be > 0)"),
    _row("non-text-and-missing", lambda: Pipeline((1, "b"), {"b": 1}),
         PipelineValidationError,
         "stage id 1 is not nonempty text; stage 1 has no capacity"),
    _row("unhashable-id", lambda: Pipeline(([1],), {"a": 1}), PipelineValidationError,
         "stage id [1] is not nonempty text; stage [1] has no capacity; capacity "
         "given for unknown stage 'a'"),
    _row("empty-id-and-zero", lambda: Pipeline(("", "b"), {"": 1, "b": 0}),
         PipelineValidationError,
         "stage id '' is not nonempty text; assumption 2 violated: capacity "
         "of stage 'b' is 0 (must be > 0)"),
    # conversion comes first, so a float is refused before a missing capacity
    _row("missing-and-float", lambda: Pipeline(("a", "b"), {"a": 1.0}),
         TypeError, FLOAT),
    _row("unprintable-id", lambda: Pipeline((HUGE,), {HUGE: 1}),
         PipelineValidationError, f"stage id {UNSHOWN} is not nonempty text"),
    # validate_pipeline reports violations, but raises conversion refusals
    _row("validated-float", lambda: validate_pipeline(("a",), {"a": 0.1}),
         TypeError, FLOAT),
    _row("validated-zero-denominator",
         lambda: validate_pipeline(("a",), {"a": "1/0"}), ZeroDivisionError,
         "Fraction(1, 0)"),
    _row("validated-too-long", lambda: validate_pipeline(("a",), {"a": "1e4300"}),
         _TooLong, "value has more than 4300 digits in its numerator or "
         "denominator, too many to print exactly"),
]

MULTIPLIER_REFUSALS = [
    _row("half-among-999-ones",
         lambda: Multiplier(_ones_with(s500=Fraction(1, 2))), AdmissibilityError,
         "factors below 1 are inadmissible: ['s500']"),
    _row("int-zero", lambda: Multiplier({"a": ONE, "b": 0}), AdmissibilityError,
         "factors below 1 are inadmissible: ['b']"),
    _row("half-text", lambda: Multiplier({"a": "1/2", "b": "2"}),
         AdmissibilityError, "factors below 1 are inadmissible: ['a']"),
    _row("float", lambda: Multiplier({"a": ONE, "b": 1.5}), TypeError, FLOAT),
    _row("float-one", lambda: Multiplier({"a": ONE, "b": 1.0}), TypeError, FLOAT),
    _row("bool", lambda: Multiplier({"a": ONE, "b": True}), TypeError, BOOL),
    _row("bool-false", lambda: Multiplier({"a": ONE, "b": False}), TypeError,
         BOOL),
    _row("fraction-subclass-below-one",
         lambda: Multiplier({"a": ONE, "b": _Tagged(1, 2)}), AdmissibilityError,
         "factors below 1 are inadmissible: ['b']"),
    _row("bad-text", lambda: Multiplier({"a": "abc"}), ValueError,
         "Invalid literal for Fraction: 'abc'"),
    _row("two-below-one",
         lambda: Multiplier({"b": Fraction(1, 3), "a": Fraction(0)}),
         AdmissibilityError, "factors below 1 are inadmissible: ['a', 'b']"),
    _row("below-one-and-float",
         lambda: Multiplier({"a": Fraction(1, 2), "b": 2.0}), TypeError, FLOAT),
    _row("below-one-and-bad-text",
         lambda: Multiplier({"a": Fraction(1, 2), "b": "x"}), ValueError,
         "Invalid literal for Fraction: 'x'"),
    _row("pairs-not-a-mapping", lambda: Multiplier([("a", ONE)]), AttributeError,
         "'list' object has no attribute 'items'"),
    _row("unprintable-id", lambda: Multiplier({HUGE: Fraction(1, 2)}),
         AdmissibilityError, f"factors below 1 are inadmissible: {UNSHOWN}"),
]

COST_MODEL_REFUSALS = [
    _row("cost-zero", lambda: CostModel({"a": 0, "b": 1}, 1), CostModelError,
         "unit costs must be > 0; offending: ['a']"),
    _row("cost-negative",
         lambda: CostModel({"a": Fraction(1), "b": Fraction(-2)}, 1),
         CostModelError, "unit costs must be > 0; offending: ['b']"),
    _row("zero-among-999", lambda: CostModel(_ones_with(s500=Fraction(0)), 1),
         CostModelError, "unit costs must be > 0; offending: ['s500']"),
    _row("cost-float", lambda: CostModel({"a": 1.5}, 1), TypeError, FLOAT),
    _row("cost-bool", lambda: CostModel({"a": True}, 1), TypeError, BOOL),
    _row("cost-fraction-subclass-negative",
         lambda: CostModel({"a": _Tagged(-1, 2)}, 1), CostModelError,
         "unit costs must be > 0; offending: ['a']"),
    _row("cost-bad-text", lambda: CostModel({"a": "abc"}, 1), ValueError,
         "Invalid literal for Fraction: 'abc'"),
    _row("cost-negative-text", lambda: CostModel({"a": ONE, "b": "-1/2"}, 1),
         CostModelError, "unit costs must be > 0; offending: ['b']"),
    _row("budget-negative", lambda: CostModel({"a": 1}, -1), CostModelError,
         "budget -1 must be >= 0"),
    _row("budget-negative-fraction-costs",
         lambda: CostModel({"a": Fraction(1)}, Fraction(-1, 2)), CostModelError,
         "budget -1/2 must be >= 0"),
    _row("budget-float", lambda: CostModel({"a": 1}, 0.5), TypeError, FLOAT),
    _row("cost-zero-and-budget-negative", lambda: CostModel({"a": 0}, -1),
         CostModelError, "unit costs must be > 0; offending: ['a']"),
    _row("cost-float-and-cost-zero", lambda: CostModel({"a": 0, "b": 1.5}, 1),
         TypeError, FLOAT),
    _row("pairs-not-a-mapping", lambda: CostModel([("a", Fraction(1))], 1),
         AttributeError, "'list' object has no attribute 'items'"),
]

BOUND_REFUSALS = [
    _row("float", lambda: AuthoritySpec({"a"}, {"a": 1.5}), TypeError, FLOAT),
    _row("bool", lambda: AuthoritySpec({"a"}, {"a": True}), TypeError, BOOL),
    _row("bad-text", lambda: AuthoritySpec({"a"}, {"a": "abc"}), ValueError,
         "Invalid literal for Fraction: 'abc'"),
    _row("fraction-subclass-below-one",
         lambda: AuthoritySpec({"a"}, {"a": _Tagged(1, 2)}), ConfigurationError,
         "assist bounds below 1: ['a']"),
    _row("below-one", lambda: AuthoritySpec({"a"}, {"a": Fraction(1, 2)}),
         ConfigurationError, "assist bounds below 1: ['a']"),
    _row("domain-mismatch", lambda: AuthoritySpec({"a", "c"}, {"a": 2}),
         ConfigurationError, "assist bounds must cover exactly the pinned stages"),
    _row("unprintable-id", lambda: AuthoritySpec({HUGE}, {HUGE: Fraction(1, 2)}),
         ConfigurationError, f"assist bounds below 1: {UNSHOWN}"),
]

# each family converts a rate that is not exactly a Fraction, so a float or
# bool is refused before it reaches the arithmetic
_FAMILIES = [("constant", ConstantPrecision("1/2")),
             ("decay", RationalDecayPrecision("1/10")),
             ("table", TablePrecision([("5", "1"), ("10", "9/10")]))]
RATE_REFUSALS = [
    _row(f"{name}-{kind}", lambda p=p, rate=rate: p.value(rate), TypeError, message)
    for name, p in _FAMILIES
    for kind, rate, message in [("float", 7.5, FLOAT), ("bool", True, BOOL)]
]

_P = Pipeline(("a", "b"), {"a": 1, "b": 2})
_ONES = Multiplier({"a": 1, "b": 1})

# each function refuses before reading any factor, cost or bound, so that a
# stage missing from one side, or extra on it, or no stage at all, cannot
# pass unnoticed
STAGE_SET_REFUSALS = [
    _row("perturbed-extra-stage",
         lambda: perturbed_throughput(_P, Multiplier({"a": 1, "b": 2, "c": 3})),
         AdmissibilityError, "factors for unknown stages ['c']"),
    _row("trivial-cost-domain",
         lambda: trivial_allocation(_P, CostModel({"a": 1}, 1)), CostModelError,
         "cost model domain must equal the stage set"),
    _row("misses-attacker-side",
         lambda: defender_misses_bottleneck(_P, Multiplier({"a": 1}), _P, _ONES),
         AdmissibilityError, "attacker multiplier: missing factors for stages ['b']"),
    _row("misses-defender-side",
         lambda: defender_misses_bottleneck(
             _P, _ONES, _P, Multiplier({"a": 1, "b": 1, "z": 2})),
         AdmissibilityError, "defender multiplier: factors for unknown stages ['z']"),
    _row("generalized-no-pinned-stage",
         lambda: generalized_ceiling(_P, AuthoritySpec((), {})), UndefinedCeilingError,
         "pinned stage set is empty"),
]


def _named(prefix, rows):
    return [pytest.param(*row.values, id=f"{prefix}-{row.id}") for row in rows]


@pytest.mark.parametrize(
    "build, error, message",
    _named("pipeline", PIPELINE_REFUSALS) + _named("multiplier", MULTIPLIER_REFUSALS)
    + _named("cost-model", COST_MODEL_REFUSALS) + _named("bound", BOUND_REFUSALS)
    + _named("rate", RATE_REFUSALS) + _named("stage-set", STAGE_SET_REFUSALS))
def test_refusal(build, error, message):
    with pytest.raises(Exception) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def _exact(mapping) -> list:
    """A mapping's items with each value's exact type, in mapping order."""
    return [(k, type(v), v) for k, v in mapping.items()]


F = Fraction


@pytest.mark.parametrize("build, stages, values", [
    pytest.param(lambda: Pipeline(("a", "b"), {"a": "13/4", "b": 2}),
                 ("a", "b"), [("a", F, F(13, 4)), ("b", F, F(2))],
                 id="text-and-int"),
    pytest.param(lambda: Pipeline(("a",), {"a": _Tagged(3, 2)}),
                 ("a",), [("a", F, F(3, 2))], id="fraction-subclass"),
    pytest.param(lambda: Pipeline((_Name("a"),), {"a": 1}),
                 ("a",), [("a", F, F(1))], id="str-subclass-id"),
    pytest.param(lambda: Pipeline(("a", "b"), {"b": 2, "a": 1}),
                 ("a", "b"), [("b", F, F(2)), ("a", F, F(1))],
                 id="capacity-order-differs"),
    pytest.param(lambda: Pipeline("abcd", {"a": "17", "b": "13/4", "c": "3.25", "d": "1e3"}),
                 tuple("abcd"), [("a", F, F(17)), ("b", F, F(13, 4)), ("c", F, F(13, 4)),
                                 ("d", F, F(1000))], id="all-text"),
])
def test_pipeline_accepts(build, stages, values):
    p = build()
    assert p.stages == stages and type(p.stages) is tuple
    assert _exact(p.capacity) == values


@pytest.mark.parametrize("factors_or_bounds, values", [
    pytest.param(lambda: Multiplier({}).factor, [], id="multiplier-empty"),
    pytest.param(lambda: Multiplier({"a": 1, "b": 2, "c": "3/2"}).factor,
                 [("a", F, F(1)), ("b", F, F(2)), ("c", F, F(3, 2))],
                 id="multiplier-ints-and-text"),
    pytest.param(lambda: Multiplier({"a": _Tagged(3, 2)}).factor,
                 [("a", F, F(3, 2))],
                 id="multiplier-fraction-subclass"),
    pytest.param(lambda: Multiplier({"a": ONE, "b": F(5, 4), "c": F(1)}).factor,
                 [("a", F, F(1)), ("b", F, F(5, 4)), ("c", F, F(1))],
                 id="multiplier-one-and-fractions"),
    pytest.param(lambda: AuthoritySpec({"a"}, {"a": _Tagged(3, 2)}).assist_bound,
                 [("a", F, F(3, 2))], id="bound-fraction-subclass"),
    pytest.param(lambda: AuthoritySpec({"a"}, {"a": "5/2"}).assist_bound,
                 [("a", F, F(5, 2))], id="bound-text"),
    pytest.param(lambda: AuthoritySpec({"a"}, {"a": 2}).assist_bound,
                 [("a", F, F(2))], id="bound-int"),
])
def test_values_accepted_and_converted(factors_or_bounds, values):
    assert _exact(factors_or_bounds()) == values


@pytest.mark.parametrize("build, costs, budget", [
    pytest.param(lambda: CostModel({}, 0), [], F(0), id="empty"),
    pytest.param(lambda: CostModel({"a": 1, "b": "3/2"}, "7"),
                 [("a", F, F(1)), ("b", F, F(3, 2))], F(7), id="ints-and-text"),
    pytest.param(lambda: CostModel({"a": "1.5"}, 0), [("a", F, F(3, 2))], F(0),
                 id="decimal-text"),
    pytest.param(lambda: CostModel({"a": _Tagged(3, 2)}, _Tagged(1, 2)),
                 [("a", F, F(3, 2))], F(1, 2), id="fraction-subclass"),
])
def test_cost_model_accepts(build, costs, budget):
    c = build()
    assert _exact(c.unit_cost) == costs
    assert type(c.budget) is Fraction and c.budget == budget


def test_fraction_bound_kept_as_given():
    bound = Fraction(5, 2)
    assert AuthoritySpec({"a"}, {"a": bound}).assist_bound["a"] is bound
