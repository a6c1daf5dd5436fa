import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import pipeline_with_multiplier, pipelines
from pipecalc import (
    AuthoritySpec,
    ConfigurationError,
    Multiplier,
    Pipeline,
    UndefinedCeilingError,
    ceiling,
    generalized_ceiling,
    is_h_admissible,
    perturbed_throughput,
    throughput,
    tightness_witness,
)


class TestCeiling:
    def test_single_pinned_stage(self, example_pipeline):
        assert ceiling(example_pipeline, AuthoritySpec({"a"})) == 3

    def test_all_pinned_equals_throughput(self, example_pipeline):
        h = AuthoritySpec(set(example_pipeline.stages))
        assert ceiling(example_pipeline, h) == throughput(example_pipeline)

    def test_two_pinned(self, example_pipeline):
        assert ceiling(example_pipeline, AuthoritySpec({"a", "c"})) == 3

    def test_empty_set_rejected(self, example_pipeline):
        with pytest.raises(UndefinedCeilingError):
            ceiling(example_pipeline, AuthoritySpec(set()))

    def test_unknown_stage_rejected(self, example_pipeline):
        with pytest.raises(ConfigurationError):
            ceiling(example_pipeline, AuthoritySpec({"ghost"}))


class TestIsHAdmissible:
    def test_identity_always(self, example_pipeline):
        a = Multiplier.identity(example_pipeline)
        assert is_h_admissible(a, AuthoritySpec({"a"}))

    def test_violation(self):
        assert not is_h_admissible(
            Multiplier({"a": 2, "b": 1, "c": 1}), AuthoritySpec({"a"})
        )

    def test_only_pinned_stages_matter(self):
        a = Multiplier({"a": 1, "b": 100, "c": 100})
        assert is_h_admissible(a, AuthoritySpec({"a"}))


class TestTightnessWitness:
    def test_example_h_a(self, example_pipeline):
        w = tightness_witness(example_pipeline, AuthoritySpec({"a"}))
        # ceiling 3, machine minimum 1, so non-pinned factor is 4
        assert w.factor == {"a": 1, "b": 4, "c": 4}
        assert perturbed_throughput(example_pipeline, w) == 3

    def test_example_h_c(self, example_pipeline):
        w = tightness_witness(example_pipeline, AuthoritySpec({"c"}))
        assert w.factor == {"a": 5, "b": 5, "c": 1}
        assert perturbed_throughput(example_pipeline, w) == 4

    def test_all_pinned_gives_identity(self, example_pipeline):
        h = AuthoritySpec(set(example_pipeline.stages))
        w = tightness_witness(example_pipeline, h)
        assert w == Multiplier.identity(example_pipeline)
        assert perturbed_throughput(example_pipeline, w) == throughput(
            example_pipeline
        )

    def test_empty_set_rejected(self, example_pipeline):
        with pytest.raises(UndefinedCeilingError):
            tightness_witness(example_pipeline, AuthoritySpec(set()))


class TestGeneralizedCeiling:
    def test_assist_doubles(self, example_pipeline):
        h = AuthoritySpec({"a"}, {"a": 2})
        assert generalized_ceiling(example_pipeline, h) == 6

    def test_all_ones_reduces_to_ceiling(self, example_pipeline):
        h = AuthoritySpec({"a", "c"}, {"a": 1, "c": 1})
        assert generalized_ceiling(example_pipeline, h) == ceiling(
            example_pipeline, AuthoritySpec({"a", "c"})
        )

    def test_elementwise_product_then_min(self, example_pipeline):
        h = AuthoritySpec({"a", "c"}, {"a": 2, "c": 1})
        assert generalized_ceiling(example_pipeline, h) == 4

    def test_missing_bounds_rejected(self, example_pipeline):
        with pytest.raises(ConfigurationError):
            generalized_ceiling(example_pipeline, AuthoritySpec({"a"}))


# -- properties --------------------------------------------------------------


@given(pipeline_with_multiplier(), st.data())
def test_bound_and_tightness(pm, data):
    p, a = pm
    k = data.draw(st.integers(min_value=1, max_value=len(p.stages)))
    human = frozenset(list(p.stages)[:k])
    h = AuthoritySpec(human)
    pinned = Multiplier(
        {s: Fraction(1) if s in human else f for s, f in a.factor.items()}
    )
    cap = ceiling(p, h)
    assert is_h_admissible(pinned, h)
    assert perturbed_throughput(p, pinned) <= cap

    w = tightness_witness(p, h)
    assert is_h_admissible(w, h)
    assert perturbed_throughput(p, w) == cap
    machine = [s for s in p.stages if s not in human]
    for s in machine:
        assert w.factor[s] * p.capacity[s] > cap


@given(pipeline_with_multiplier(), st.data())
def test_assist_bound_dominates(pm, data):
    p, a = pm
    k = data.draw(st.integers(min_value=1, max_value=len(p.stages)))
    human = frozenset(list(p.stages)[:k])
    bounds = {
        s: data.draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(2)]))
        for s in human
    }
    h = AuthoritySpec(human, bounds)
    # factors capped at the assist bound on pinned stages, arbitrary elsewhere
    capped = Multiplier(
        {s: min(f, bounds[s]) if s in human else f
         for s, f in a.factor.items()}
    )
    assert perturbed_throughput(p, capped) <= generalized_ceiling(p, h)


# n/d against n'/d' with 30-digit parts that differ by at most one, so the
# minimum is decided by the last digits of the cross-products
DIGITS_30 = st.integers(min_value=10**29, max_value=10**30 - 1)


@st.composite
def near_tied_pipelines(draw):
    n, d = draw(DIGITS_30), draw(DIGITS_30)
    k = draw(st.integers(min_value=1, max_value=6))
    nudge = st.integers(min_value=-1, max_value=1)
    stages = tuple(f"s{i}" for i in range(k))
    return Pipeline(stages, {s: Fraction(n + draw(nudge), d + draw(nudge))
                             for s in stages})


# a machine stage at exactly a third of the pinned one: the ratio is an
# integer, where a rounding slip in the ceiling division would show
_THIRD = Pipeline(("h", "m"), {"h": Fraction(10**30 - 7, 10**29 + 3),
                               "m": Fraction(10**30 - 7, 3 * (10**29 + 3))})


@st.composite
def pinned_pipelines(draw):
    p = draw(st.one_of(pipelines(), near_tied_pipelines()))
    return p, draw(st.sets(st.sampled_from(p.stages), min_size=1))


@given(pinned_pipelines())
@example((_THIRD, {"h"}))
def test_integer_minima_match_fraction_reference(ph):
    # ceiling and the witness decide their minima on integer pairs; the
    # reference is min over Fractions and math.ceil of a Fraction quotient
    p, human = ph
    h = AuthoritySpec(human)
    cap = ceiling(p, h)
    assert type(cap) is Fraction
    assert cap == min(p.capacity[s] for s in human)
    w = tightness_witness(p, h)
    assert all(w.factor[s] == 1 for s in human)
    machine = [s for s in p.stages if s not in human]
    if machine:
        n = math.ceil(cap / min(p.capacity[s] for s in machine)) + 1
        assert all(w.factor[s] == n for s in machine)


@given(pinned_pipelines(), st.data())
def test_generalized_minimum_matches_fraction_reference(ph, data):
    # each bound is 1 + n/d with 30-digit n and d that differ by at most one
    # between stages, so the products bound * capacity are near-tied too;
    # the reference is min over Fraction products
    p, human = ph
    n, d = data.draw(DIGITS_30), data.draw(DIGITS_30)
    nudge = st.integers(min_value=-1, max_value=1)
    bounds = {s: 1 + Fraction(n + data.draw(nudge), d + data.draw(nudge))
              for s in human}
    g = generalized_ceiling(p, AuthoritySpec(human, bounds))
    assert type(g) is Fraction
    assert g == min(bounds[s] * p.capacity[s] for s in human)
