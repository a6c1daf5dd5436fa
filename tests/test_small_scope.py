"""Exhaustive small-scope sweep: the harness's five check families on every
instance of a bounded scope, not on a sample.  Theorems 1-5 concern finite
minima and order, so on small instances they can be checked exhaustively
(the small-scope hypothesis of Andoni, Daniliuc, Khurshid and Marinov, 2002,
checked depth-bounded as in SmallCheck, Runciman, Naylor and Lindblad, 2008).

The capacity 3/2 is needed: an "unchanged" test that compares numerators
alone passes on every all-integer grid.  Each family's case count is pinned,
so the scope cannot shrink unnoticed.
"""

import itertools
from fractions import Fraction

from pipecalc import (
    AuthoritySpec,
    FixedFractionModel,
    Multiplier,
    Pipeline,
    verify_characterizations,
)
from pipecalc.harness import (
    check_adversarial,
    check_ceiling,
    check_falsepos,
    check_monotonicity,
)

CAPACITIES = (Fraction(1), Fraction(3, 2), Fraction(3))
FACTORS = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))
OFFSETS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(5))


def instances(max_stages):
    """(pipeline, multiplier) for every multiset of 1 to `max_stages`
    (capacity, factor) pairs."""
    pairs = list(itertools.product(CAPACITIES, FACTORS))
    for n in range(1, max_stages + 1):
        stages = tuple(f"s{i}" for i in range(n))
        for chosen in itertools.combinations_with_replacement(pairs, n):
            yield (Pipeline(stages, {s: c for s, (c, _) in zip(stages, chosen)}),
                   Multiplier({s: f for s, (_, f) in zip(stages, chosen)}))


def assert_all_pass(check, cases, expected):
    """Run `check(*case)` on every case; assert that there were `expected`
    cases and that none failed.  As in `harness.verify_instance`, an
    exception raised by the check is that case's failure.  A failure is
    named by the repr of its case: the capacities, factors and the rest."""
    count, failures = 0, []
    for case in cases:
        count += 1
        try:
            messages = check(*case)
        except Exception as exc:
            messages = [f"{type(exc).__name__}: {exc}"]
        if messages:
            failures.append(f"{case!r}: {messages}")
    assert count == expected, f"the scope has {count} cases, not {expected}"
    assert not failures, (f"{len(failures)} of {count} cases fail:\n"
                          + "\n".join(failures[:10]))


def test_characterizations_on_every_small_instance():
    assert_all_pass(lambda p, a: verify_characterizations(p, a).failures,
                    instances(4), 1_819)


def test_ceiling_on_every_pinned_subset():
    def cases():
        for p, a in instances(4):
            for k in range(1, len(p.stages) + 1):
                for human in itertools.combinations(p.stages, k):
                    yield p, a, AuthoritySpec(human)

    assert_all_pass(check_ceiling, cases(), 23_269)


def test_monotonicity_under_every_dominating_vector():
    def cases():
        for p, a in instances(3):
            for g in itertools.product(FACTORS, repeat=len(p.stages)):
                yield p, a, Multiplier(
                    {s: f * h for (s, f), h in zip(a.factor.items(), g)})

    assert_all_pass(check_monotonicity, cases(), 24_592)


def test_adversarial_on_every_pair():
    small = list(instances(2))
    assert_all_pass(check_adversarial,
                    ((*atk, *dfn) for atk in small for dfn in small), 8_100)


def test_falsepos_on_every_offset_set():
    def cases():
        for tenths, c in itertools.product(range(10), CAPACITIES):
            model = FixedFractionModel(Fraction(tenths, 10), c)
            for k in (1, 2, 3):
                for offsets in itertools.combinations(OFFSETS, k):
                    yield model, [c + o for o in offsets]

    assert_all_pass(check_falsepos, cases(), 420)
