import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pipecalc.model as model
from conftest import count_calls, fractions, pipelines
from pipecalc import (
    CostModel,
    Multiplier,
    Pipeline,
    TiedBottleneckError,
    bottleneck_set,
    maxmin_allocation,
    perturbed_throughput,
    throughput,
    trivial_allocation,
)
from pipecalc.planner import CostModelError
from test_acceptance import grid_oracle
from test_model import _Tagged


class TestTrivialAllocation:
    def test_whole_budget_on_bottleneck(self, example_pipeline):
        res = trivial_allocation(
            example_pipeline, CostModel.uniform(example_pipeline, 1)
        )
        assert res.multiplier.factor["b"] == 2
        assert res.achieved_throughput == 2
        assert res.spent == 1

    def test_zero_budget(self, example_pipeline):
        res = trivial_allocation(
            example_pipeline, CostModel.uniform(example_pipeline, 0)
        )
        assert res.multiplier == Multiplier.identity(example_pipeline)
        assert res.achieved_throughput == throughput(example_pipeline)
        assert res.spent == 0

    def test_cap_at_second_smallest(self, example_pipeline):
        res = trivial_allocation(
            example_pipeline, CostModel.uniform(example_pipeline, 5)
        )
        assert res.multiplier.factor["b"] == 3
        assert res.achieved_throughput == 3
        assert res.spent == 2  # rest of the budget reported unspent

    def test_refuses_ties(self):
        p = Pipeline(("u", "v", "w"), {"u": 2, "v": 2, "w": 5})
        with pytest.raises(TiedBottleneckError, match="maxmin"):
            trivial_allocation(p, CostModel.uniform(p, 1))

    def test_single_stage_uncapped(self):
        p = Pipeline(("solo",), {"solo": 2})
        res = trivial_allocation(p, CostModel.uniform(p, 3))
        assert res.multiplier.factor["solo"] == 4
        assert res.achieved_throughput == 8


class TestMaxminAllocation:
    def test_zero_budget(self, example_pipeline):
        res = maxmin_allocation(
            example_pipeline, CostModel.uniform(example_pipeline, 0)
        )
        assert res.achieved_throughput == throughput(example_pipeline)
        assert res.spent == 0

    def test_raises_tied_bottlenecks_together(self):
        # budget 2 buys factor 2 on each tied stage (cost 1 + 1)
        p = Pipeline(("u", "v", "w"), {"u": 2, "v": 2, "w": 5})
        res = maxmin_allocation(p, CostModel.uniform(p, 2))
        assert res.achieved_throughput == 4
        assert res.spent == 2
        assert res.multiplier.factor["u"] == res.multiplier.factor["v"]

    def test_large_budget_ties_all_stages(self, example_pipeline):
        # budget 6 lifts all three stages to a common level t where
        # (t - 1) + (t/3 - 1) + (t/4 - 1) = 6, i.e. t = 108/19
        res = maxmin_allocation(
            example_pipeline, CostModel.uniform(example_pipeline, 6)
        )
        assert res.achieved_throughput == Fraction(108, 19)
        assert res.spent == 6
        assert all(f > 1 for f in res.multiplier.factor.values())

    def test_unit_costs_validated(self, example_pipeline):
        with pytest.raises(CostModelError):
            CostModel({"a": 0, "b": 1, "c": 1}, 1)
        with pytest.raises(CostModelError):
            CostModel({"a": 1}, -1)

    def test_domain_mismatch(self, example_pipeline):
        with pytest.raises(CostModelError):
            maxmin_allocation(example_pipeline, CostModel({"a": 1}, 1))


class TestUnitCostConversion:
    # a plain Fraction is kept as given; every other unit cost still goes
    # through as_fraction and the sign check, with the same messages

    @pytest.mark.parametrize("value, error, message", [
        (_Tagged(-1, 2), CostModelError,
         "unit costs must be > 0; offending: ['b']"),
        ("-1/2", CostModelError, "unit costs must be > 0; offending: ['b']"),
        ("abc", ValueError, "Invalid literal for Fraction: 'abc'"),
        (0.5, TypeError, 'floats are not accepted; pass an int, Fraction, or '
         'exact text such as "3.25" or "13/4"'),
        (True, TypeError, "booleans are not capacities"),
    ], ids=["fraction-subclass", "text", "bad-text", "float", "bool"])
    def test_unit_cost_refused(self, value, error, message):
        with pytest.raises(error) as info:
            CostModel({"a": Fraction(1), "b": value}, 1)
        assert type(info.value) is error and str(info.value) == message

    @pytest.mark.parametrize("value", [_Tagged(3, 2), "3/2", "1.5"])
    def test_unit_cost_converted(self, value):
        cost = CostModel({"a": Fraction(1), "b": value}, 1).unit_cost["b"]
        assert type(cost) is Fraction and cost == Fraction(3, 2)

    def test_fraction_kept_without_conversion(self, monkeypatch):
        counts = count_calls(monkeypatch, ["as_fraction"])
        CostModel(dict.fromkeys("abc", Fraction(2)), Fraction(1))
        assert counts["as_fraction"] == 1  # the budget


@given(
    st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=6),
)
def test_matches_grid_oracle(caps, budget):
    stages = tuple(f"s{i}" for i in range(len(caps)))
    p = Pipeline(stages, dict(zip(stages, caps)))
    res = maxmin_allocation(p, CostModel.uniform(p, budget))
    assert res.achieved_throughput >= grid_oracle(caps, budget)


@given(pipelines(max_stages=4), st.integers(min_value=0, max_value=6))
def test_feasible_and_no_worse_than_baseline(p, budget):
    res = maxmin_allocation(p, CostModel.uniform(p, budget))
    assert all(f >= 1 for f in res.multiplier.factor.values())
    assert res.spent == budget
    assert res.achieved_throughput == perturbed_throughput(p, res.multiplier)
    assert res.achieved_throughput >= throughput(p)


@given(pipelines(), st.integers(min_value=0, max_value=6))
def test_trivial_level_is_perturbed_throughput(p, budget):
    assume(len(bottleneck_set(p)) == 1)
    res = trivial_allocation(p, CostModel.uniform(p, budget))
    assert res.achieved_throughput == perturbed_throughput(p, res.multiplier)


def test_allocators_make_no_second_pass(example_pipeline, monkeypatch):
    names = ("_products", "perturbed_throughput")
    counts = count_calls(monkeypatch, names)
    p = example_pipeline
    for budget in (0, 1, 6):
        for allocate in (trivial_allocation, maxmin_allocation):
            res = allocate(p, CostModel.uniform(p, budget))
    assert not counts
    # the wrappers are live: one recomputation is counted once each
    assert model.perturbed_throughput(p, res.multiplier) == res.achieved_throughput
    assert dict(counts) == dict.fromkeys(names, 1)


@given(pipelines(max_stages=4), st.integers(min_value=0, max_value=5))
def test_monotone_in_budget(p, budget):
    r1 = maxmin_allocation(p, CostModel.uniform(p, budget))
    r2 = maxmin_allocation(p, CostModel.uniform(p, budget + 1))
    assert r2.achieved_throughput >= r1.achieved_throughput


@given(pipelines(max_stages=4), st.integers(min_value=1, max_value=6))
def test_strict_improvement_covers_all_bottlenecks(p, budget):
    res = maxmin_allocation(p, CostModel.uniform(p, budget))
    if res.achieved_throughput > throughput(p):
        t = throughput(p)
        assert all(
            res.multiplier.factor[s] > 1
            for s in p.stages
            if p.capacity[s] == t
        )


def cost_to_reach(p: Pipeline, unit_cost, target: Fraction) -> Fraction:
    """C(t): cheapest spend lifting every stage to at least target."""
    return sum(
        unit_cost[s] * (target / p.capacity[s] - 1)
        for s in p.stages
        if p.capacity[s] < target
    )


@given(pipelines(max_stages=5), st.data(),
       st.integers(min_value=0, max_value=20))
def test_nonuniform_costs_spend_budget_exactly(p, data, budget):
    unit_cost = {s: data.draw(fractions(max_num=10, max_den=4)) for s in p.stages}
    res = maxmin_allocation(p, CostModel(unit_cost, budget))
    assert res.spent == budget
    assert cost_to_reach(p, unit_cost, res.achieved_throughput) == budget


# capacities the planner must order exactly: ordinary fractions, values below
# 1, and values near 10**300 and 10**-300 (floor(c * 2**64) is 0 for all of
# the latter, so only an exact comparison orders them)
CAPACITY_BASES = st.one_of(
    fractions(),
    st.builds(Fraction, st.just(1), st.integers(min_value=2, max_value=1000)),
    st.builds(lambda a, b: Fraction(10**300 + a, b),
              st.integers(min_value=0, max_value=9),
              st.integers(min_value=1, max_value=9)),
    st.builds(lambda a, b: Fraction(a, 10**300 + b),
              st.integers(min_value=1, max_value=9),
              st.integers(min_value=0, max_value=9)),
)


@st.composite
def hard_capacities(draw):
    """Capacities with exact ties and pairs closer than 2**-64, in a drawn
    stage order."""
    caps = []
    for x in draw(st.lists(CAPACITY_BASES, min_size=1, max_size=4)):
        caps.append(x)
        kind = draw(st.sampled_from(["alone", "tie", "close"]))
        if kind == "tie":
            caps.append(x)
        elif kind == "close":
            gap = Fraction(1, 2**64 * draw(st.integers(min_value=2, max_value=9)))
            caps.append(x + gap)
    return draw(st.permutations(caps))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(hard_capacities(), st.data())
def test_water_level_on_hard_capacities(caps, data):
    stages = tuple(f"s{i}" for i in range(len(caps)))
    p = Pipeline(stages, dict(zip(stages, caps)))
    unit_cost = {s: data.draw(fractions(max_num=10, max_den=4)) for s in stages}
    # a water level at a capacity, strictly between two neighbouring
    # capacities (inside a gap below 2**-64 too), or above them all; the
    # budget is exactly its cost, so it is the unique optimum
    levels = sorted(set(caps))
    i = data.draw(st.integers(min_value=0, max_value=len(levels) - 1))
    where = data.draw(st.sampled_from(["at", "above"]))
    if where == "at":
        level = levels[i]
    elif i + 1 < len(levels):
        level = (levels[i] + levels[i + 1]) / 2
    else:
        level = levels[i] * 2
    budget = cost_to_reach(p, unit_cost, level)
    res = maxmin_allocation(p, CostModel(unit_cost, budget))
    t = res.achieved_throughput
    assert t == level
    assert res.multiplier.factor == {
        s: max(Fraction(1), t / p.capacity[s]) for s in stages}
    assert res.spent == budget == cost_to_reach(p, unit_cost, t)

    lowest = min(caps)
    bottlenecks = [s for s in stages if p.capacity[s] == lowest]
    if len(bottlenecks) > 1:
        with pytest.raises(TiedBottleneckError):
            trivial_allocation(p, CostModel(unit_cost, budget))
        return
    (b,) = bottlenecks
    factor = 1 + budget / unit_cost[b]
    others = [p.capacity[s] for s in stages if s != b]
    if others:
        factor = min(factor, min(others) / lowest)
    res = trivial_allocation(p, CostModel(unit_cost, budget))
    assert res.multiplier.factor == {
        s: factor if s == b else 1 for s in stages}
    assert res.spent == unit_cost[b] * (factor - 1)
    assert res.achieved_throughput == min(
        res.multiplier.factor[s] * p.capacity[s] for s in stages)


def fraction_sweep(p: Pipeline, c: CostModel):
    """The max-min sweep as it ran on Fraction operators before it moved to
    integer pairs: the reference for `maxmin_allocation`."""
    cap, cost = p.capacity, c.unit_cost
    ordered = sorted(p.stages, key=lambda s: cap[s])
    raised_cost = raised_weight = Fraction(0)
    for k, s in enumerate(ordered, start=1):
        raised_cost += cost[s]
        raised_weight += cost[s] / cap[s]
        target = (c.budget + raised_cost) / raised_weight
        if k == len(ordered) or target <= cap[ordered[k]]:
            break
    factors = dict.fromkeys(p.stages, Fraction(1))
    for s in ordered[:k]:
        factors[s] = max(Fraction(1), target / cap[s])
    spent = sum(cost[s] * (factors[s] - 1) for s in ordered[:k])
    return Multiplier(factors), perturbed_throughput(p, Multiplier(factors)), spent


def assert_matches_fraction_sweep(p: Pipeline, c: CostModel):
    res = maxmin_allocation(p, c)
    mult, achieved, spent = fraction_sweep(p, c)
    assert res.multiplier == mult
    assert res.achieved_throughput == achieved
    assert res.spent == spent
    assert all(type(v) is Fraction for v in (
        *res.multiplier.factor.values(), res.achieved_throughput, res.spent))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(hard_capacities(), st.data())
def test_integer_sweep_matches_fraction_sweep(caps, data):
    stages = tuple(f"s{i}" for i in range(len(caps)))
    p = Pipeline(stages, dict(zip(stages, caps)))
    unit_cost = {s: data.draw(fractions(max_num=10, max_den=4)) for s in stages}
    # no budget, a budget that reaches a capacity exactly (the `<=` tie of
    # the sweep), one that lifts past every capacity (every stage raised),
    # or an arbitrary one
    kind = data.draw(st.sampled_from(["zero", "breakpoint", "past-all", "any"]))
    if kind == "zero":
        budget = Fraction(0)
    elif kind == "breakpoint":
        budget = cost_to_reach(p, unit_cost, data.draw(st.sampled_from(caps)))
    elif kind == "past-all":
        budget = cost_to_reach(p, unit_cost, max(caps)) + data.draw(
            fractions(max_num=100, max_den=7))
    else:
        budget = data.draw(fractions(min_num=0, max_num=100, max_den=7))
    assert_matches_fraction_sweep(p, CostModel(unit_cost, budget))


def test_integer_sweep_matches_fraction_sweep_on_1000_stages_all_raised():
    rng = random.Random(13)
    stages = tuple(f"s{i}" for i in range(1000))
    p = Pipeline(stages, {
        s: Fraction(rng.randint(1, 10**6), rng.randint(1, 1000)) for s in stages})
    unit_cost = {s: Fraction(rng.randint(1, 50), rng.randint(1, 9)) for s in stages}
    c = CostModel(unit_cost, 10**12)
    assert_matches_fraction_sweep(p, c)
    assert all(f > 1 for f in maxmin_allocation(p, c).multiplier.factor.values())
