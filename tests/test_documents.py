import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import count_calls, pipelines
from pipecalc import (
    AuthoritySpec,
    DocumentError,
    Multiplier,
    Pipeline,
    PipelineDocument,
    document_for_pipeline,
    parse_document,
    serialize_document,
)
from pipecalc.documents import _dumps

EXAMPLE_DOC = json.dumps({
    "format_version": "1",
    "pipeline": {
        "name": "worked-example",
        "stages": [
            {"id": "a", "capacity": "3"},
            {"id": "b", "capacity": "1"},
            {"id": "c", "capacity": "4"},
        ],
    },
    "authority": {"human_stages": ["a"], "assist_bounds": {"a": "2"}},
    "scenarios": {"boost": {"b": "2"}},
})

# 10**4300, the least value whose numerator has more digits than CPython
# prints
UNPRINTABLE = Fraction(10) ** 4300


def _refusal(doc) -> str:
    """The message parse_document refuses `doc` with: text, or a value it
    writes as JSON first."""
    with pytest.raises(DocumentError) as info:
        parse_document(doc if isinstance(doc, str) else json.dumps(doc))
    return str(info.value)


class TestParse:
    def test_example(self):
        doc = parse_document(EXAMPLE_DOC)
        assert doc.pipeline.stages == ("a", "b", "c")
        assert doc.pipeline.capacity["a"] == 3
        assert doc.authority.human_stages == {"a"}
        assert doc.authority.assist_bound == {"a": Fraction(2)}

    def test_scenario_defaults_to_one(self):
        doc = parse_document(EXAMPLE_DOC)
        boost = doc.scenarios["boost"]
        assert boost.factor == {"a": 1, "b": 2, "c": 1}

    def test_identity_scenario(self):
        doc = parse_document(EXAMPLE_DOC)
        assert doc.scenario(None) == Multiplier.identity(doc.pipeline)

    def test_unknown_scenario_names_are_cut(self):
        raw = json.loads(EXAMPLE_DOC)
        raw["scenarios"].update({f"s{i}": {} for i in range(1000)})
        doc = parse_document(json.dumps(raw))
        with pytest.raises(DocumentError) as info:
            doc.scenario("x" * 100_000)
        assert str(info.value) == (
            f"no scenario named '{'x' * 59}... (a str, cut); "
            "have ['boost', 's0', 's1', 's10', 's100', 's101', 's102', 's103',... "
            "(a list, cut)")

    # a malformed value is quoted cut short, not echoed back whole
    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d["pipeline"]["stages"].__setitem__(
            0, json.loads("[" * 900 + "]" * 900)), "stage record"),
        (lambda d: d["pipeline"].__setitem__("name", list(range(2000))),
         "pipeline.name"),
        (lambda d: d.__setitem__("format_version", list(range(2000))),
         "unsupported format_version"),
        (lambda d: d["pipeline"]["stages"].__setitem__(
            0, {"id": list(range(2000)), "capacity": "3"}), "stage id"),
        (lambda d: d["pipeline"]["stages"][0].update(capacity="x" * 100_000),
         "capacity of stage 'a' is not an exact rational"),
        (lambda d: d["scenarios"].__setitem__("n" * 100_000, "2"),
         "must map stages to factors"),
        (lambda d: d["pipeline"]["stages"][0].update(
            id="a" * 100_000, capacity="abc"),
         "is not an exact rational: Invalid literal for Fraction: 'abc'"),
        (lambda d: d["pipeline"]["stages"].extend(
            [{"id": "d" * 100_000, "capacity": "2"}] * 2),
         "invalid pipeline: duplicate stage id 'ddd"),
        (lambda d: (d["pipeline"]["stages"].append(
            {"id": "f" * 100_000, "capacity": "2"}),
            d["scenarios"]["boost"].update({"f" * 100_000: "1/2"})),
         "scenario 'boost': factors below 1 are inadmissible: \\['fff"),
    ], ids=["deep-stage-record", "long-name", "long-format-version",
            "long-stage-id", "long-capacity-text", "long-scenario-name",
            "long-stage-id-bad-capacity", "long-duplicate-stage-id",
            "long-stage-id-factor-below-one"])
    def test_refusal_quotes_a_bounded_value(self, mutate, message):
        raw = json.loads(EXAMPLE_DOC)
        mutate(raw)
        with pytest.raises(DocumentError, match=message) as info:
            parse_document(json.dumps(raw))
        assert len(str(info.value)) < 300

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d["pipeline"]["stages"].__setitem__(0, {"id": "a"}),
         "stage record {'id': 'a'} needs 'id' and 'capacity'"),
        (lambda d: d["pipeline"].__setitem__("name", ["x", 2]),
         "pipeline.name ['x', 2] must be text"),
        (lambda d: d.__setitem__("format_version", 2),
         "unsupported format_version 2 (expected '1')"),
        (lambda d: d["pipeline"]["stages"][0].update(capacity="abc"),
         "capacity of stage 'a' is not an exact rational: "
         "Invalid literal for Fraction: 'abc'"),
        (lambda d: d["scenarios"].__setitem__("bad", "2"),
         "scenario 'bad' must map stages to factors"),
        (lambda d: d["pipeline"]["stages"].append({"id": "a", "capacity": "2"}),
         "invalid pipeline: duplicate stage id 'a': stage ids form a set"),
        (lambda d: d["scenarios"].__setitem__("bad", {"c": "1/2", "b": "0"}),
         "scenario 'bad': factors below 1 are inadmissible: ['b', 'c']"),
        # which of two faults in the stage records is refused
        (lambda d: (d["pipeline"]["stages"][0].update(id=7),
                    d["pipeline"]["stages"][2].update(capacity="abc")),
         "stage id 7 must be text"),
        (lambda d: d["pipeline"]["stages"][2].update(id="b"),
         "invalid pipeline: duplicate stage id 'b': stage ids form a set"),
        (lambda d: (d["pipeline"]["stages"][0].update(capacity=2.5),
                    d["pipeline"]["stages"][1].pop("capacity")),
         "capacity of stage 'a' must be exact text or an integer, got 2.5"),
    ], ids=["stage-record", "name", "format-version", "capacity-text",
            "scenario-name", "duplicate-stage-id", "factors-below-one",
            "id-before-later-capacity", "repeated-id-well-formed",
            "float-capacity-before-later-missing"])
    def test_refusal_quotes_a_short_value_whole(self, mutate, message):
        raw = json.loads(EXAMPLE_DOC)
        mutate(raw)
        assert _refusal(raw) == message

    @pytest.mark.parametrize("text", ["1e5000", "1e-5000"])
    def test_huge_exponent_capacity_rejected(self, text):
        raw = json.loads(EXAMPLE_DOC)
        raw["pipeline"]["stages"][0]["capacity"] = text
        assert _refusal(raw) == (
            "capacity of stage 'a' has a decimal exponent above 4300 in "
            "magnitude, too large to expand exactly")

    def test_overlong_json_integer_rejected(self):
        text = EXAMPLE_DOC.replace('"capacity": "3"', '"capacity": ' + "7" * 5000)
        with pytest.raises(DocumentError, match="not valid JSON"):
            parse_document(text)

    def test_large_exponent_within_bound_parses(self):
        raw = json.loads(EXAMPLE_DOC)
        raw["pipeline"]["stages"][0]["capacity"] = "1e300"
        doc = parse_document(json.dumps(raw))
        assert doc.pipeline.capacity["a"] == 10 ** 300

def _three_stage_doc(**parts) -> str:
    return json.dumps({"format_version": "1", "pipeline": {"stages": [
        {"id": s, "capacity": "3"} for s in "abc"]}, **parts})


class TestRepeatedValueTexts:
    # a factor or bound text is converted once per document; capacities and
    # values that are not text are converted each time

    def test_factor_text_converted_once(self, monkeypatch):
        texts = ["2", "3/2", "5"]
        stages = [f"s{i}" for i in range(10)]
        doc = json.dumps({
            "format_version": "1",
            "pipeline": {"stages": [{"id": s, "capacity": "7"} for s in stages]},
            "scenarios": {
                f"n{j}": {s: texts[(i + j) % 3] for i, s in enumerate(stages)}
                for j in range(4)
            },
        })
        counts = count_calls(monkeypatch, ["as_fraction"])
        parsed = parse_document(doc)
        assert counts["as_fraction"] == len(stages) + len(texts)
        assert parsed.scenarios["n1"].factor["s0"] == Fraction(3, 2)

    def test_bound_text_converted_once(self, monkeypatch):
        doc = _three_stage_doc(authority={
            "human_stages": ["a", "b"], "assist_bounds": {"a": "2", "b": "2"}})
        counts = count_calls(monkeypatch, ["as_fraction"])
        parsed = parse_document(doc)
        # three capacities and one bound text; AuthoritySpec keeps the
        # Fractions it is given
        assert counts["as_fraction"] == 3 + 1
        assert parsed.authority.assist_bound == {"a": 2, "b": 2}

    @pytest.mark.parametrize("factors, message", [
        ({"b": "1", "c": True},
         "factor of stage 'c' in 'x' must be exact text or an integer, got True"),
        ({"b": 1, "c": True},
         "factor of stage 'c' in 'x' must be exact text or an integer, got True"),
        ({"b": 1, "c": 1.0},
         "factor of stage 'c' in 'x' must be exact text or an integer, got 1.0"),
        ({"c": "abc", "b": "abc"},
         "factor of stage 'c' in 'x' is not an exact rational: "
         "Invalid literal for Fraction: 'abc'"),
        ({"c": "1/0", "b": "1/0"},
         "factor of stage 'c' in 'x' is not an exact rational: Fraction(1, 0)"),
    ], ids=["text-then-bool", "int-then-bool", "int-then-float", "bad-text-twice",
            "zero-denominator-twice"])
    def test_refusals_unchanged(self, factors, message):
        assert _refusal(_three_stage_doc(scenarios={"x": factors})) == message

    # a bad capacity or factor among 999 good ones: the refusal labels it
    # alone, worded as for a document holding only that value
    @pytest.mark.parametrize("value, reason", [
        ("abc", " is not an exact rational: Invalid literal for Fraction: 'abc'"),
        ("1/0", " is not an exact rational: Fraction(1, 0)"),
        (1.5, " must be exact text or an integer, got 1.5"),
        (True, " must be exact text or an integer, got True"),
        (None, " is not an exact rational: argument should be a string or a "
               "Rational instance"),
        ("1e5000", " has a decimal exponent above 4300 in magnitude, too large "
                   "to expand exactly"),
        ("x" * 100, " is not an exact rational: Invalid literal for Fraction: '"
                    + "x" * 59 + "... (a str, cut)"),
    ], ids=["text", "zero-denominator", "float", "bool", "null", "huge-exponent",
            "long-text"])
    @pytest.mark.parametrize("where", ["capacity", "factor"])
    def test_refusal_among_1000_stages(self, where, value, reason):
        stages = [{"id": f"s{i}", "capacity": str(i % 7 + 1)} for i in range(1000)]
        factors = {f"s{i}": "3/2" for i in range(0, 1000, 3)}
        if where == "capacity":
            stages[499]["capacity"] = value
            label = "capacity of stage 's499'"
        else:
            factors["s500"] = value
            label = "factor of stage 's500' in 'x'"
        assert _refusal({"format_version": "1", "pipeline": {"stages": stages},
                         "scenarios": {"x": factors}}) == label + reason

    def test_bad_bound_text_names_first_stage(self):
        doc = _three_stage_doc(authority={
            "human_stages": ["c", "a"], "assist_bounds": {"c": "abc", "a": "abc"}})
        assert _refusal(doc) == (
            "assist bound of stage 'c' is not an exact rational: "
            "Invalid literal for Fraction: 'abc'")


class TestRoundTrip:
    # a value built in code may pass the print limit, though text spelling
    # it is refused on input (test_overlong_text_is_refused_on_input)
    @pytest.mark.parametrize("mutate, quantity", [
        (lambda doc: PipelineDocument(doc.name, Pipeline(
            doc.pipeline.stages, {**doc.pipeline.capacity, "a": UNPRINTABLE}),
            doc.authority, doc.scenarios),
         "capacity of stage 'a'"),
        (lambda doc: PipelineDocument(doc.name, doc.pipeline, doc.authority, {
            "boost": Multiplier({**doc.scenarios["boost"].factor, "b": UNPRINTABLE})}),
         "factor of stage 'b' in 'boost'"),
        (lambda doc: PipelineDocument(doc.name, doc.pipeline, AuthoritySpec(
            doc.authority.human_stages, {"a": UNPRINTABLE}), doc.scenarios),
         "assist bound of stage 'a'"),
    ], ids=["capacity", "factor", "assist-bound"])
    def test_overlong_value_is_a_named_error(self, mutate, quantity):
        doc = mutate(parse_document(EXAMPLE_DOC))
        with pytest.raises(DocumentError) as info:
            serialize_document(doc)
        assert str(info.value) == f"{quantity} has too many digits to print exactly"

    # the exponent is within the bound, but 10**4300 has 4301 digits
    @pytest.mark.parametrize("mutate, quantity", [
        (lambda raw: raw["pipeline"]["stages"][0].update(capacity="1e4300"),
         "capacity of stage 'a'"),
        (lambda raw: raw["scenarios"]["boost"].update(b="1e4300"),
         "factor of stage 'b' in 'boost'"),
        (lambda raw: raw["authority"]["assist_bounds"].update(a="1e4300"),
         "assist bound of stage 'a'"),
    ], ids=["capacity", "factor", "assist-bound"])
    def test_overlong_text_is_refused_on_input(self, mutate, quantity):
        raw = json.loads(EXAMPLE_DOC)
        mutate(raw)
        assert _refusal(raw) == (
            f"{quantity} has more than 4300 digits in its numerator or "
            "denominator, too many to print exactly")

    @given(pipelines())
    def test_random_pipelines_round_trip(self, p):
        doc = document_for_pipeline(p, "generated")
        again = parse_document(serialize_document(doc))
        assert again.pipeline == p
        assert again.pipeline.stages == p.stages


# factors at and just above 1, in several spellings, up to 10**4299, the
# largest power of ten that prints; "1." followed by up to 4298 zeros and a
# 1 is 1 + 10**-k with every digit written out
FACTOR_TEXT = st.sampled_from(["1", "1.0", "10e-1", "5/4", "2", "1e4299"]) | st.builds(
    lambda k: f"1.{'0' * k}1", st.integers(min_value=0, max_value=4298))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=8), st.data())
def test_scenario_factor_is_given_value_or_one(named, data):
    stages = [f"s{i}" for i, _ in enumerate(named)]
    given_factors = {s: data.draw(FACTOR_TEXT) for s, n in zip(stages, named) if n}
    doc = parse_document(json.dumps({
        "format_version": "1",
        "pipeline": {"name": "", "stages": [
            {"id": s, "capacity": "1"} for s in stages]},
        "scenarios": {"x": given_factors},
    }))
    factor = doc.scenarios["x"].factor
    assert list(factor) == stages
    for s in stages:
        assert type(factor[s]) is Fraction
        assert factor[s] == Fraction(given_factors.get(s, 1))


# -- the indented JSON writer -------------------------------------------------

# text json escapes (quotes, backslashes, control characters, non-ASCII up to
# an astral character) as well as any text
JSON_TEXT = st.text(st.sampled_from('a"\\\n\x00\x1f\x7f\xe9\u2028\U0001f600'),
                    max_size=4) | st.text(max_size=4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(2**64, 2**80)
    | st.integers(-(2**80), -(2**64)) | JSON_TEXT,
    lambda inner: (st.dictionaries(JSON_TEXT, inner, max_size=5)
                   | st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)),
    max_leaves=30)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(JSON_VALUES)
@example({})
@example(())
@example({"a": [], "b": {"c": {}, "d": [[], ()]}, "e": ["x", [1, {}]]})
@example({'"\\\n\x00\xe9\U0001f600': [2**64, -(2**70), True, None, "\u2028"]})
def test_dumps_is_indented_json_dumps(value):
    assert _dumps(value) == json.dumps(value, indent=2, sort_keys=True)


def test_flat_containers_reach_the_c_encoder_once(monkeypatch):
    # one encoder call per container that holds no non-empty container, not
    # one per item: a flat dict or list of 1,000, and one nested under text
    calls = []
    make = json.encoder.c_make_encoder
    monkeypatch.setattr(json.encoder, "c_make_encoder",
                        lambda *args: calls.append(args) or make(*args))
    flat = {f"s{i}": i for i in range(1000)}
    for value in (flat, list(range(1000)), {"factors": flat, "spent": "5/2"}):
        expected = json.dumps(value, indent=2, sort_keys=True)
        calls.clear()
        assert _dumps(value) == expected
        assert len(calls) == 1
