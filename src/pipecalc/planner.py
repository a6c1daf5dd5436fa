"""Budgeted improvement allocation.

Given a per-stage cost per unit of (factor - 1) and a total budget, decide
how much to improve each stage.  Two allocators:

  * `trivial_allocation`: the textbook answer for a unique bottleneck —
    spend everything on it, capped where the next stage would take over as
    the minimum.  Refuses tied bottlenecks, since raising all but one of a
    tie changes nothing.  One list of integer (stage, n, d) triples gives
    the bottleneck and then, with it deleted, the runner-up.
  * `maxmin_allocation`: exact max-min water filling.  For a target
    throughput t, the cheapest multiplier is factor(v) = max(1, t / c(v));
    its cost is continuous, increasing, and linear between consecutive
    sorted capacities, so one sweep in capacity order solves
    cost(t) = budget exactly.

The sweep orders the stages by the integer key floor(c * 2**64), which never
decreases as c grows, and compares the capacities themselves only where two
keys tie: exactly capacity order, with no float.  It then runs on integer
pairs: the raised prefix's cost sum U = sum u and weight sum W = sum u/c
(with the budget B) are held unreduced over one running denominator, each
test of the target (B + U)/W against the next capacity is one integer
cross-multiplication, and the target is normalised once, after the sweep.
Each raised factor is then one Fraction t/c, and the spend is t*W - U, the
per-stage sum of u * (t/c - 1) with t factored out.  No factor needs a
clamp at 1: the first target is c_1 * (1 + B/u_1), and each later one lies
between the previous target, which passed the new capacity, and that
capacity, so t is at least every raised capacity.  Every later stage already
has capacity at least t, keeps factor 1 and adds nothing to the spend.
So t is the throughput reached, and both allocators return the level they
built; the tests and perfbench/oracle.py recompute it from the factors.

Cost linear in (factor - 1) is a modelling choice; the max-min sweep's
closed form for each segment relies on it.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

from .model import (
    ONE,
    Multiplier,
    Pipeline,
    RationalInput,
    Record,
    _argmin,
    _quoted,
    _shown,
    as_fraction,
)


class TiedBottleneckError(ValueError):
    """trivial_allocation requires a unique bottleneck."""


class CostModelError(ValueError):
    """A cost model violates its invariants or does not match the pipeline."""


class CostModel(Record):
    """Positive per-stage unit costs (per unit of factor above 1) and a
    nonnegative total budget."""

    unit_cost: Mapping[str, Fraction]
    budget: Fraction

    def __init__(self, unit_cost: Mapping[str, RationalInput],
                 budget: RationalInput):
        # accept first; denominators are positive, so numerators carry the sign
        if [s for s, c in unit_cost.items() if type(c) is not Fraction or c.numerator <= 0]:
            unit_cost = {s: c if type(c) is Fraction else as_fraction(c)
                         for s, c in unit_cost.items()}
            bad = sorted(s for s, c in unit_cost.items() if c.numerator <= 0)
            if bad:
                raise CostModelError(
                    f"unit costs must be > 0; offending: {_quoted(bad)}")
        b = as_fraction(budget)
        if b.numerator < 0:
            raise CostModelError(f"budget {_shown(b)} must be >= 0")
        object.__setattr__(self, "unit_cost", MappingProxyType(dict(unit_cost)))
        object.__setattr__(self, "budget", b)

    @classmethod
    def uniform(cls, p: Pipeline, budget: RationalInput,
                unit_cost: RationalInput = 1) -> "CostModel":
        return cls(dict.fromkeys(p.stages, as_fraction(unit_cost)), budget)


class AllocationResult(Record):
    """`achieved_throughput` is the level the allocator built; see the module
    docstring."""

    multiplier: Multiplier
    achieved_throughput: Fraction
    spent: Fraction


def _check_domain(p: Pipeline, c: CostModel) -> None:
    # a valid pipeline's capacity domain is its stage set
    if c.unit_cost.keys() != p.capacity.keys():
        raise CostModelError("cost model domain must equal the stage set")


def trivial_allocation(p: Pipeline, c: CostModel) -> AllocationResult:
    """Spend the whole budget on the unique bottleneck, capped at the point
    where it would pass the second-smallest capacity.  Budget past the cap
    is left unspent; spending beyond migration is the max-min allocator's
    job."""
    _check_domain(p, c)
    cap = p.capacity
    triples = [(s, (x := cap[s]).numerator, x.denominator) for s in p.stages]
    bottlenecks = _argmin(triples)[2]
    if len(bottlenecks) != 1:
        raise TiedBottleneckError(
            f"bottlenecks {sorted(bottlenecks)} are tied; improving all "
            "but one of them changes nothing — use maxmin_allocation"
        )
    b = bottlenecks[0]
    uncapped = 1 + c.budget / c.unit_cost[b]
    del triples[p.stages.index(b)]  # the runner-up is the least of the rest
    factor_b = uncapped
    if triples:
        factor_b = min(uncapped, cap[_argmin(triples)[2][0]] / cap[b])
    spent = c.unit_cost[b] * (factor_b - 1)
    factors = dict.fromkeys(p.stages, ONE)
    factors[b] = factor_b
    return AllocationResult(
        multiplier=Multiplier(factors),
        # b reaches at most the runner-up, and every other stage has at least it
        achieved_throughput=factor_b * cap[b],
        spent=spent,
    )


def maxmin_allocation(p: Pipeline, c: CostModel) -> AllocationResult:
    """Maximise the post-improvement throughput, spending the whole budget.

    Reaching throughput t costs C(t) = sum over c(v) < t of
    u(v) * (t / c(v) - 1).  With the k lowest-capacity stages raised
    together, C(t) = budget solves to t = (budget + sum u) / sum (u / c);
    the first k whose t does not pass the next capacity gives the optimum
    (max-min fair water filling).
    """
    _check_domain(p, c)
    cap, cost = p.capacity, c.unit_cost
    # floor(x * 2**64) never decreases as x grows, so the int decides the
    # order wherever it differs and the Fraction breaks its ties; sorted is
    # stable, so this is exactly the order of sorting by capacity
    ordered = sorted(
        p.stages,
        key=lambda s: (((x := cap[s]).numerator << 64) // x.denominator, x),
    )
    # S = budget + U and W share one unreduced denominator d, held as s/d
    # and w/d, with U = sum u as u_sum/d for the spend.  Raising stage
    # (c, u) scales d by u.d * c.n, so each step multiplies by small
    # integers and no gcd runs until the target is built
    s, u_sum, w, d = c.budget.numerator, 0, 0, c.budget.denominator
    for k, stage in enumerate(ordered, start=1):
        x, u = cap[stage], cost[stage]
        scale = u.denominator * x.numerator
        u_step = u.numerator * x.numerator * d  # u over d * scale
        s = s * scale + u_step
        u_sum = u_sum * scale + u_step
        w = w * scale + u.numerator * x.denominator * d
        d *= scale
        # the target s/w is at most the next capacity x iff s*x.d <= x.n*w
        if k == len(ordered) or s * (x := cap[ordered[k]]).denominator <= (
                x.numerator * w):
            break

    # the target is at least every raised capacity (see the module
    # docstring), so each raised factor is t/c with no clamp at 1
    target = Fraction(s, w)
    t_n, t_d = target.numerator, target.denominator
    factors = dict.fromkeys(p.stages, ONE)
    for stage in ordered[:k]:
        x = cap[stage]
        factors[stage] = Fraction(t_n * x.denominator, t_d * x.numerator)
    return AllocationResult(
        multiplier=Multiplier(factors),
        achieved_throughput=target,
        # sum of u * (t/c - 1) over the raised prefix, t factored out
        spent=Fraction(t_n * w - t_d * u_sum, t_d * d),
    )
