import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fractions, pipeline_with_multiplier
from pipecalc import (
    AdmissibilityError,
    AuthoritySpec,
    CostModel,
    Multiplier,
    Pipeline,
    PipelineValidationError,
    ValidationReport,
    bottleneck_report,
    bottleneck_set,
    ceiling,
    document_for_pipeline,
    migration_decomposition,
    perturb,
    perturbed_throughput,
    throughput,
    validate_pipeline,
)
from pipecalc.ceiling import ConfigurationError
from pipecalc.planner import CostModelError
from pipecalc.model import _TooLong, _quoted as quoted, as_fraction, check_admissible


# text that as_fraction reads with int() alone, and its neighbours that go
# to Fraction's parser: either way the result or refusal is Fraction's, and
# a value Fraction reads but that could not be printed back is refused
_LONG = "7" * 3000
FAST_PATH_TEXTS = [
    "0", "007", "0/5", "007/010", "5/0", "5/00", "3.25", "3.250", "1.", ".5",
    "+3", "-3/4", " 3", "3 ", "1_000", "\u0661\u0662", "\u00b2", "3/ 4", "1e3",
    "1" * 4301, "1/" + "9" * 4301, f"{_LONG}.{_LONG}",
]


class _ParserCalled(Exception):
    pass


class _NoParser:
    """Stands in for Fraction's text pattern and fails when consulted."""

    def match(self, text):
        raise _ParserCalled(text)


class _General(str):
    """as_fraction reads digits itself only for a str proper; a subclass
    takes the general path, the exponent bound and then Fraction."""


UNPRINTABLE_REFUSAL = (
    "value has more than 4300 digits in its numerator or denominator, too "
    "many to print exactly")


# Python 3.10's Fraction grammar, which as_fraction reads on every interpreter
RATIONAL_310 = re.compile(r"\s*[-+]?(?=\d|\.\d)\d*(?:/\d+|(?:\.\d*)?(?:E[-+]?\d+)?)\s*\Z",
                          re.IGNORECASE)


def _printable_fraction(text):
    """Fraction(text) by 3.10's grammar, refused as as_fraction refuses a
    value whose numerator or denominator has more than 4300 digits: with the
    ValueError subclass that lets a document name the value in its place."""
    if not RATIONAL_310.match(text):
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    x = Fraction(text)
    if max(abs(x.numerator), x.denominator) >= 10 ** 4300:
        raise _TooLong(UNPRINTABLE_REFUSAL)
    return x


def _conversion(convert, text):
    """(type, value) of convert(text), or (exception type, message)."""
    try:
        value = convert(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return type(value), value


class TestAsFraction:
    def test_fraction_returned_unchanged(self):
        x = Fraction(13, 4)
        assert as_fraction(x) is x

    @pytest.mark.parametrize("value", [0.5, 3.0, True, False])
    def test_floats_and_bools_refused(self, value):
        with pytest.raises(TypeError):
            as_fraction(value)

    @pytest.mark.parametrize("text", ["1e5000", "-1e-5000", "1E+4301", "2.5e1_0000"])
    def test_huge_decimal_exponent_refused(self, text):
        with pytest.raises(_TooLong, match="^value has a decimal exponent above 4300"):
            as_fraction(text)

    # -25e-4300 is -1/(4 * 10**4298): its normalised denominator prints
    @pytest.mark.parametrize("text, value", [
        ("-25e-4300", -25 / Fraction(10) ** 4300),
        ("1e0004299", Fraction(10) ** 4299),
    ])
    def test_exponent_within_bound_parses(self, text, value):
        assert as_fraction(text) == value

    @pytest.mark.parametrize("text", [
        "1e0004300", "-1e-4300", "0." + "1" * 4300, " 0." + "1" * 4300,
        f"{_LONG}.{_LONG}",
    ], ids=["1e4300", "-1e-4300", "0.-4300-ones", "spaced-0.-4300-ones",
            "3000-dot-3000-digits"])
    def test_unprintable_value_refused(self, text):
        # read by int() parts ("0.1...", "7...7.7...7") or, with an exponent
        # or a space, by Fraction's parser: the refusal is the same
        with pytest.raises(ValueError) as info:
            as_fraction(text)
        assert str(info.value) == UNPRINTABLE_REFUSAL

    def test_fraction_subclass_converted(self):
        class Tagged(Fraction):
            pass

        result = as_fraction(Tagged(13, 4))
        assert type(result) is Fraction and result == Fraction(13, 4)

    @pytest.mark.parametrize("text", FAST_PATH_TEXTS, ids=[
        "zero", "leading-zeros", "zero-over", "leading-zeros-ratio",
        "zero-denominator", "zeros-denominator", "decimal", "trailing-zero",
        "no-fraction-digits", "no-whole-digits", "plus", "minus", "leading-space",
        "trailing-space", "underscore", "arabic-indic", "superscript",
        "space-in-ratio", "exponent", "4301-digits", "4301-digit-denominator",
        "3000-dot-3000-digits"])
    def test_text_converts_as_fraction_does(self, text):
        assert _conversion(as_fraction, text) == _conversion(
            _printable_fraction, text)

    # each spelling's value or refusal, as recorded before the digits-only
    # test moved ahead of the partition on "/"
    @pytest.mark.parametrize("text, outcome", [
        ("17", 17), ("007", 7), ("13/4", Fraction(13, 4)), ("0/5", 0),
        ("1/0", (ZeroDivisionError, "Fraction(1, 0)")),
        ("1/00", (ZeroDivisionError, "Fraction(1, 0)")),
        ("3.25", Fraction(13, 4)), ("3.", 3), (".5", Fraction(1, 2)),
        ("1_000", (ValueError, "Invalid literal for Fraction: '1_000'")),
        ("3.d", (ValueError, "Invalid literal for Fraction: '3.d'")), ("+3", 3), (" 3", 3),
        ("²", (ValueError, "Invalid literal for Fraction: '²'")),
        ("٣", 3), ("1e3", 1000),
        ("1e5000", (_TooLong, "value has a decimal exponent above 4300 in "
                              "magnitude, too large to expand exactly")),
        ("9" * 4301, _conversion(int, "9" * 4301)),  # the interpreter's own wording
        ("", (ValueError, "Invalid literal for Fraction: ''")),
        ("/", (ValueError, "Invalid literal for Fraction: '/'")),
    ], ids=["digits", "leading-zeros", "ratio", "zero-over", "zero-denominator",
            "zeros-denominator", "decimal", "no-fraction-digits", "no-whole-digits",
            "underscore", "d-after-point", "plus", "leading-space", "superscript", "arabic-indic",
            "exponent", "huge-exponent", "4301-digits", "empty", "slash"])
    def test_recorded_conversion(self, text, outcome):
        expected = outcome if type(outcome) is tuple else (Fraction, outcome)
        assert _conversion(as_fraction, text) == expected

    def test_digit_spellings_bypass_fractions_parser(self, monkeypatch):
        monkeypatch.setattr("fractions._RATIONAL_FORMAT", _NoParser())
        assert as_fraction("13/4") == as_fraction("3.25") == Fraction(13, 4)
        assert as_fraction("17") == 17
        for text in ["1e3", "5/0", "\u0661\u0662", _General("17")]:
            with pytest.raises(_ParserCalled):
                as_fraction(text)


# short runs of digits, and long ones next to the 4300-digit limit
DIGIT_RUNS = st.one_of(
    st.text("0123456789", max_size=6),
    st.builds(str.__mul__, st.sampled_from("0179"), st.integers(4295, 4305)),
)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(st.one_of(
    st.text("0123456789./+- _eE", max_size=12),
    st.builds("".join, st.tuples(
        DIGIT_RUNS, st.sampled_from(["", "/", ".", "/0", "e", " "]), DIGIT_RUNS)),
))
def test_digit_fast_path_equals_general_path(text):
    assert _conversion(as_fraction, text) == _conversion(as_fraction, _General(text))


class TestCheckAdmissible:
    def test_matching_domain_accepted(self, example_pipeline):
        check_admissible(example_pipeline, Multiplier.identity(example_pipeline))

    @pytest.mark.parametrize("factors, message", [
        ({"a": 1, "b": 1}, "missing factors for stages ['c']"),
        ({"a": 1, "b": 1, "c": 1, "z": 2}, "factors for unknown stages ['z']"),
        ({"a": 1, "z": 2, "y": 2},
         "missing factors for stages ['b', 'c']; "
         "factors for unknown stages ['y', 'z']"),
    ], ids=["missing", "extra", "both"])
    def test_messages(self, example_pipeline, factors, message):
        with pytest.raises(AdmissibilityError) as info:
            check_admissible(example_pipeline, Multiplier(factors))
        assert str(info.value) == message

    def test_long_stage_ids_are_quoted_short(self):
        kept, unknown = "k" * 100_000, "u" * 100_000
        p = Pipeline((kept,), {kept: 1})
        with pytest.raises(AdmissibilityError) as info:
            check_admissible(p, Multiplier({unknown: 2}))
        message = str(info.value)
        assert len(message) < 300
        assert message.startswith("missing factors for stages ['kkk")
        assert "; factors for unknown stages ['uuu" in message

    def test_quote_limit_is_60_characters(self):
        assert quoted("x" * 58) == "'" + "x" * 58 + "'"
        assert quoted("x" * 59) == "'" + "x" * 59 + "... (a str, cut)"


# refusals that list stage ids quote the list through the model's quoting:
# a short list is written whole, and one 100,000-character id or a
# thousand short ones are cut to a few lines
@pytest.mark.parametrize("build, prefix", [
    (lambda ids: CostModel(dict.fromkeys(ids, 0), 1),
     "unit costs must be > 0; offending: "),
    (lambda ids: AuthoritySpec(ids, dict.fromkeys(ids, "1/2")),
     "assist bounds below 1: "),
    (lambda ids: ceiling(Pipeline(("a",), {"a": 1}), AuthoritySpec(ids)),
     "pinned stages not in pipeline: "),
], ids=["unit-costs", "assist-bounds", "pinned-stages"])
def test_stage_lists_in_refusals_are_bounded(build, prefix):
    with pytest.raises(ValueError) as info:
        build(["y", "x"])
    assert str(info.value) == prefix + "['x', 'y']"
    for ids in (["x" * 100_000], [f"stage-{i}" for i in range(1000)]):
        with pytest.raises(ValueError) as info:
            build(ids)
        message = str(info.value)
        assert message.startswith(prefix + "['") and len(message) < 200


class TestThroughput:
    def test_example(self, example_pipeline):
        assert throughput(example_pipeline) == 1

    def test_singleton(self):
        assert throughput(Pipeline(("only",), {"only": 7})) == 7


class TestBottleneckReport:
    def test_example(self, example_pipeline):
        rep = bottleneck_report(example_pipeline)
        assert rep.bottlenecks == ("b",)
        assert set(rep.non_bottlenecks) == {"a", "c"}

    def test_all_equal(self):
        p = Pipeline(("x", "y", "z"), {"x": 2, "y": 2, "z": 2})
        rep = bottleneck_report(p)
        assert rep.bottlenecks == ("x", "y", "z")
        assert rep.non_bottlenecks == ()

    def test_tied_pair(self):
        p = Pipeline(("u", "v", "w"), {"u": 2, "v": 2, "w": 5})
        rep = bottleneck_report(p)
        assert rep.bottlenecks == ("u", "v")

    def test_partition(self, example_pipeline):
        rep = bottleneck_report(example_pipeline)
        assert set(rep.bottlenecks) | set(rep.non_bottlenecks) == set(
            example_pipeline.stages
        )
        assert set(rep.bottlenecks) & set(rep.non_bottlenecks) == set()


class TestPerturb:
    def test_identity(self, example_pipeline):
        q = perturb(example_pipeline, Multiplier.identity(example_pipeline))
        assert q == example_pipeline

    def test_single_stage_boost(self, example_pipeline):
        a = Multiplier({"a": 1, "b": 2, "c": 1})
        q = perturb(example_pipeline, a)
        assert q.capacity == {"a": 3, "b": 2, "c": 4}

    def test_domain_mismatch(self, example_pipeline):
        with pytest.raises(AdmissibilityError):
            perturb(example_pipeline, Multiplier({"a": 1, "b": 1}))

    def test_factor_below_one(self):
        with pytest.raises(AdmissibilityError):
            Multiplier({"a": Fraction(1, 2)})


class TestPerturbedThroughput:
    def test_bottleneck_doubled(self, example_pipeline):
        a = Multiplier({"a": 1, "b": 2, "c": 1})
        assert perturbed_throughput(example_pipeline, a) == 2

    def test_identity(self, example_pipeline):
        a = Multiplier.identity(example_pipeline)
        assert perturbed_throughput(example_pipeline, a) == throughput(
            example_pipeline
        )

    def test_bottleneck_migrates(self, example_pipeline):
        a = Multiplier({"a": 1, "b": 5, "c": 1})
        assert perturbed_throughput(example_pipeline, a) == 3


class TestValidatePipeline:
    def test_empty_stage_set(self):
        rep = validate_pipeline((), {})
        assert isinstance(rep, ValidationReport)
        assert any("assumption 1" in v for v in rep.violations)

    def test_zero_capacity(self):
        rep = validate_pipeline(("a",), {"a": 0})
        assert isinstance(rep, ValidationReport)
        assert any("assumption 2" in v for v in rep.violations)

    def test_example_valid(self):
        p = validate_pipeline(("a", "b", "c"), {"a": 3, "b": 1, "c": 4})
        assert isinstance(p, Pipeline)
        assert p.capacity["a"] == 3

    def test_duplicate_ids(self):
        rep = validate_pipeline(("a", "a"), {"a": 1})
        assert isinstance(rep, ValidationReport)
        assert any("duplicate" in v for v in rep.violations)

    def test_unknown_capacity(self):
        rep = validate_pipeline(("a",), {"a": 1, "ghost": 2})
        assert isinstance(rep, ValidationReport)
        assert any("unknown stage" in v for v in rep.violations)

    def test_reports_all_violations(self):
        rep = validate_pipeline(("a", "a"), {"a": -1, "ghost": 2})
        assert isinstance(rep, ValidationReport)
        assert rep.violations == (
            "duplicate stage id 'a': stage ids form a set",
            "capacity given for unknown stage 'ghost'",
            "assumption 2 violated: capacity of stage 'a' is -1 (must be > 0)")

    def test_reports_an_unhashable_id(self):
        assert validate_pipeline([["a"]], {}).violations == (
            "stage id ['a'] is not nonempty text", "stage ['a'] has no capacity")

    @pytest.mark.parametrize("capacity", [
        {"a": Fraction(3), "b": Fraction(1, 2)}, {"a": Fraction(3), "b": "1/2"}],
        ids=["all-Fractions", "mixed"])
    def test_capacity_is_a_copy(self, capacity):
        p = Pipeline(("a", "b"), capacity)
        capacity["a"] = Fraction(-1)
        assert dict(p.capacity) == {"a": 3, "b": Fraction(1, 2)}
        assert set(map(type, p.capacity.values())) == {Fraction}


@pytest.mark.parametrize("mapping", [
    lambda p: p.capacity,
    lambda p: perturb(p, Multiplier.identity(p)).capacity,
    lambda p: Multiplier.identity(p).factor,
    lambda p: CostModel.uniform(p, 1).unit_cost,
    lambda p: AuthoritySpec({"a"}, {"a": 2}).assist_bound,
    lambda p: document_for_pipeline(p).scenarios,
], ids=["Pipeline", "perturbed-Pipeline", "Multiplier", "CostModel",
        "AuthoritySpec", "PipelineDocument"])
def test_mappings_are_read_only(example_pipeline, mapping):
    with pytest.raises(TypeError):
        mapping(example_pipeline)["a"] = 5


# -- properties --------------------------------------------------------------


@given(pipeline_with_multiplier())
def test_perturb_closed(pm):
    p, a = pm
    q = perturb(p, a)
    assert q.stages == p.stages
    assert all(type(c) is Fraction and c > 0 for c in q.capacity.values())


@given(pipeline_with_multiplier())
def test_normal_form(pm):
    p, a = pm
    assert perturbed_throughput(p, a) == throughput(perturb(p, a))


# values with mixed denominators, and some at the 10**±4300 ends of the
# exponent bound, whose cross-products run to about 8600 digits
SMALL = fractions(min_num=1, max_num=12, max_den=6)
EXACT_VALUES = SMALL | st.builds(
    lambda m, e: m * Fraction(10) ** e, SMALL,
    st.sampled_from([-4300, -4299, 4299, 4300]))
# factors such as 3/2 and 2 make ties that appear only after multiplication
FACTORS = st.sampled_from([Fraction(1), Fraction(4, 3), Fraction(3, 2),
                           Fraction(2), Fraction(3)]) | st.builds(
    lambda m: m * Fraction(10) ** 4300, SMALL)


@st.composite
def exact_pipeline_with_multiplier(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    stages = tuple(f"s{i}" for i in range(n))
    p = Pipeline(stages, {s: draw(EXACT_VALUES) for s in stages})
    return p, Multiplier({s: draw(FACTORS) for s in stages})


@settings(max_examples=200, derandomize=True, deadline=None)
@given(exact_pipeline_with_multiplier())
@example((Pipeline(("x", "y"), {"x": Fraction(3, 2), "y": 3}),
          Multiplier({"x": 2, "y": 1})))
def test_core_matches_fraction_oracle(pm):
    # the core decides minima and ties on integer cross-products; the
    # oracle is a Fraction scan with Fraction equality
    p, a = pm
    caps = [p.capacity[s] for s in p.stages]
    products = {s: a.factor[s] * p.capacity[s] for s in p.stages}
    base, new = min(caps), min(products.values())
    before = tuple(s for s in p.stages if p.capacity[s] == base)
    after = {s for s in p.stages if products[s] == new}

    rep = bottleneck_report(p)
    assert throughput(p) == base and rep.throughput == base
    assert bottleneck_set(p) == set(before)
    assert rep.bottlenecks == before
    assert rep.non_bottlenecks == tuple(s for s in p.stages if s not in before)
    assert perturbed_throughput(p, a) == new
    migr = migration_decomposition(p, a)
    assert (set(before) - set(migr.departed)) | set(migr.entered) == after
    assert all(type(v) is Fraction for v in (
        throughput(p), rep.throughput, perturbed_throughput(p, a)))


# -- constructor sign checks at the boundary ---------------------------------

# 0, 1, their neighbours 1 ± 10**-k and ±10**-k up to k = 4300, and
# negative values; from k = 4300 on, 10**k has too many digits to print,
# and text spelling such a value is refused before any sign check.
# A drawn (base, sign, k) stands for base + sign * 10**-k, so that no
# unprintable Fraction appears in an example's repr
K = st.integers(min_value=0, max_value=4300)
BOUNDARY_VALUES = st.one_of(
    st.sampled_from([0, 1, -1, -7, Fraction(0), Fraction(1), "0", "-0", "1",
                     "1.000", "0/7", "-1e-4300", "1e-4300", "-1e4300"]),
    st.tuples(st.sampled_from([0, 1]), st.sampled_from([-1, 1]), K),
    st.builds(lambda k, sign: f"{sign}e-{k}", K, st.sampled_from([-1, 1])),
)


def _boundary_value(v):
    if isinstance(v, tuple):
        base, sign, k = v
        return base + sign * Fraction(1, 10 ** k)
    return v


def _outcome(build):
    """(exception type, message) of the ValueError build() raises, or None."""
    try:
        build()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


def _raise(exc):
    raise exc


def _fraction_outcome(refused: bool, error, message):
    """What a constructor that decided `refused` by Fraction comparison
    does: raise `error(message())`."""
    if not refused:
        return None
    return _outcome(lambda: _raise(error(message())))


def _quoted(v: Fraction) -> str:
    """How a refusal quotes v: its exact text, or a fixed stand-in when its
    numerator or denominator has more digits than CPython prints."""
    if max(abs(v.numerator), v.denominator) >= 10 ** 4300:
        return "<a value of more than 4300 digits>"
    return str(v)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(BOUNDARY_VALUES, min_size=1, max_size=3))
@example([(1, -1, 4300)])
@example([(0, 1, 4300), (0, -1, 4299), 1])
@example([(1, 1, 4300), (0, -1, 4300)])
@example(["1", "-1e-4300"])
def test_sign_checks_match_fraction_comparison(drawn):
    # the constructors read signs off numerators and denominators; they
    # refuse exactly what `<`/`<=` against 0 and 1 refused, with the same
    # message, and check in the same order
    values = [_boundary_value(v) for v in drawn]
    stages = [f"s{i}" for i in range(len(values))]
    raw = dict(zip(stages, values))
    if any(_outcome(lambda: as_fraction(v)) for v in values):
        for build in (lambda: Pipeline(stages, raw), lambda: Multiplier(raw),
                      lambda: AuthoritySpec(stages, raw),
                      lambda: CostModel(raw, 0)):
            assert _outcome(build) == (_TooLong, UNPRINTABLE_REFUSAL)
        return
    exact = {s: as_fraction(v) for s, v in raw.items()}
    nonpositive = [s for s in stages if exact[s] <= 0]
    below_one = sorted(s for s in stages if exact[s] < 1)

    assert _outcome(lambda: Pipeline(stages, raw)) == _fraction_outcome(
        bool(nonpositive),
        lambda m: PipelineValidationError(ValidationReport((m,))),
        lambda: "; ".join(
            f"assumption 2 violated: capacity of stage {s!r} is {_quoted(exact[s])} "
            "(must be > 0)" for s in nonpositive))
    assert _outcome(lambda: Multiplier(raw)) == _fraction_outcome(
        bool(below_one), AdmissibilityError,
        lambda: f"factors below 1 are inadmissible: {below_one}")
    assert _outcome(lambda: AuthoritySpec(stages, raw)) == _fraction_outcome(
        bool(below_one), ConfigurationError,
        lambda: f"assist bounds below 1: {below_one}")
    # unit costs are checked before the budget
    assert _outcome(lambda: CostModel(raw, values[0])) == (
        _fraction_outcome(
            True, CostModelError,
            lambda: f"unit costs must be > 0; offending: {sorted(nonpositive)}")
        if nonpositive else None)
    for v, b in zip(values, exact.values()):
        assert _outcome(lambda: CostModel({"a": 1}, v)) == _fraction_outcome(
            b < 0, CostModelError, lambda: f"budget {_quoted(b)} must be >= 0")
