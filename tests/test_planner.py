import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipecalc.model as model
from conftest import count_calls, fractions
from pipecalc import (
    CostModel,
    Multiplier,
    Pipeline,
    TiedBottleneckError,
    maxmin_allocation,
    perturbed_throughput,
    throughput,
    trivial_allocation,
)
from pipecalc.planner import CostModelError


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

    def test_domain_mismatch(self, example_pipeline):
        with pytest.raises(CostModelError):
            maxmin_allocation(example_pipeline, CostModel({"a": 1}, 1))


class TestUnitCostConversion:
    # a plain Fraction is kept as given; tests/test_refusal_parity.py pins
    # what every other unit cost converts to or is refused with

    def test_fraction_kept_without_conversion(self, monkeypatch):
        counts = count_calls(monkeypatch, ["as_fraction"])
        CostModel(dict.fromkeys("abc", Fraction(2)), Fraction(1))
        assert counts["as_fraction"] == 1  # the budget


def test_allocators_make_no_second_pass(example_pipeline, monkeypatch):
    counts = count_calls(monkeypatch, ("_argmin", "perturbed_throughput"))
    p = example_pipeline
    for budget in (0, 1, 6):
        for allocate in (trivial_allocation, maxmin_allocation):
            res = allocate(p, CostModel.uniform(p, budget))
    # one scan per minimum: a trivial allocation scans once for its bottleneck
    # and once for its runner-up, and neither allocator recomputes its level
    assert dict(counts) == {"_argmin": 3 * 2}
    # the other wrapper is live: one recomputation is counted once
    assert model.perturbed_throughput(p, res.multiplier) == res.achieved_throughput
    assert counts["perturbed_throughput"] == 1


def cost_to_reach(p: Pipeline, unit_cost, target: Fraction) -> Fraction:
    """C(t): cheapest spend lifting every stage to at least target."""
    return sum(
        unit_cost[s] * (target / p.capacity[s] - 1)
        for s in p.stages
        if p.capacity[s] < target
    )


def assert_water_level(p: Pipeline, c: CostModel):
    """maxmin_allocation pinned by its closed form: C(t) is strictly
    increasing from the least capacity up, so exactly one level t at or
    above it costs the budget, and its cheapest factors are max(1, t/c)."""
    res = maxmin_allocation(p, c)
    t = res.achieved_throughput
    assert t >= min(p.capacity.values())
    assert res.multiplier.factor == {
        s: max(Fraction(1), t / x) for s, x in p.capacity.items()}
    assert res.spent == c.budget == cost_to_reach(p, c.unit_cost, t)
    assert t == perturbed_throughput(p, res.multiplier)
    assert all(type(v) is Fraction for v in (
        *res.multiplier.factor.values(), t, res.spent))
    return res


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
    for x in draw(st.lists(CAPACITY_BASES, min_size=1, max_size=5)):
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
    # no budget; the cost of a level at a capacity (the sweep's `<=` tie),
    # strictly between two neighbouring capacities (inside a gap below
    # 2**-64 too) or above them all; a budget past every capacity (every
    # stage raised); or an arbitrary one
    levels = sorted(set(caps))
    levels.append(levels[-1] * 2)
    kind = data.draw(st.sampled_from(["zero", "at", "between", "past-all", "any"]))
    i = data.draw(st.integers(min_value=0, max_value=len(levels) - 2))
    if kind == "zero":
        budget = Fraction(0)
    elif kind in ("at", "between"):
        level = levels[i] if kind == "at" else (levels[i] + levels[i + 1]) / 2
        budget = cost_to_reach(p, unit_cost, level)
    elif kind == "past-all":
        budget = cost_to_reach(p, unit_cost, levels[-2]) + data.draw(
            fractions(max_num=100, max_den=7))
    else:
        budget = data.draw(fractions(min_num=0, max_num=100, max_den=7))
    assert_water_level(p, CostModel(unit_cost, budget))

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


def test_water_level_on_1000_stages_all_raised():
    rng = random.Random(13)
    stages = tuple(f"s{i}" for i in range(1000))
    p = Pipeline(stages, {
        s: Fraction(rng.randint(1, 10**6), rng.randint(1, 1000)) for s in stages})
    unit_cost = {s: Fraction(rng.randint(1, 50), rng.randint(1, 9)) for s in stages}
    res = assert_water_level(p, CostModel(unit_cost, 10**12))
    assert all(f > 1 for f in res.multiplier.factor.values())


# the heap stops after one pop: a level below the second capacity, and one
# at it (the sweep's `<=` tie)
@pytest.mark.parametrize("level", [Fraction(3, 2), Fraction(2)],
                         ids=["below-second-capacity", "at-second-capacity"])
def test_water_level_on_1000_stages_one_raised(level):
    stages = tuple(f"s{i}" for i in range(1000))
    # capacities 1..1000 out of stage order (7919 is prime to 1000)
    p = Pipeline(stages, {s: Fraction(i * 7919 % 1000 + 1)
                          for i, s in enumerate(stages)})
    unit_cost = {s: Fraction(i % 5 + 1, 3) for i, s in enumerate(stages)}
    res = assert_water_level(
        p, CostModel(unit_cost, cost_to_reach(p, unit_cost, level)))
    assert res.achieved_throughput == level
    assert [s for s, f in res.multiplier.factor.items() if f > 1] == ["s0"]
