from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import pipeline_with_multiplier
from pipecalc import (
    AuthoritySpec,
    ConfigurationError,
    Multiplier,
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

    def test_bounds_must_cover_pinned_set(self):
        with pytest.raises(ConfigurationError):
            AuthoritySpec({"a", "c"}, {"a": 2})

    def test_bounds_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            AuthoritySpec({"a"}, {"a": Fraction(1, 2)})


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
