"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Every comparison is exact rational equality.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from pipecalc import (
    ConstantPrecision,
    CostModel,
    FixedFractionModel,
    GeneratorConfig,
    Pipeline,
    RationalDecayPrecision,
    TablePrecision,
    bottleneck_report,
    bottleneck_set,
    decline_check,
    defender_misses_bottleneck,
    document_for_pipeline,
    generate_instance,
    maxmin_allocation,
    migration_decomposition,
    parse_document,
    perturb,
    perturbed_throughput,
    preservation_report,
    repaired_useful,
    serialize_document,
    simple_useful,
    structured_report,
    throughput,
    verify_all,
)
from pipecalc.harness import (
    check_adversarial,
    check_ceiling,
    check_monotonicity,
    generate_authority,
    generate_dominating,
    generate_pair,
)
from test_documents import EXAMPLE_DOC

CFG = GeneratorConfig(seed=20260823, instance_count=10_000)


def report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def instances():
    return [generate_instance(CFG, i) for i in range(CFG.instance_count)]


def test_criterion_1_example_reproduction():
    doc = parse_document(EXAMPLE_DOC)
    # best of five calls, so that one descheduled call does not fail it
    elapsed = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        rep = bottleneck_report(doc.pipeline)
        elapsed = min(elapsed, time.perf_counter() - start)
    ok = rep.throughput == 1 and set(rep.bottlenecks) == {"b"} and elapsed < 0.001
    report(1, ok, f"throughput {rep.throughput}, bottlenecks "
                  f"{sorted(rep.bottlenecks)}, {elapsed * 1e6:.0f} us")


def test_criterion_2_unchanged_iff_kept_bottleneck(instances):
    start = time.perf_counter()
    violations = 0
    for p, a in instances:
        unchanged = perturbed_throughput(p, a) == throughput(p)
        kept = any(a.factor[s] == 1 for s in bottleneck_set(p))
        violations += unchanged != kept
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 5.0
    report(2, ok, f"{len(instances)} instances, {violations} violations, "
                  f"{elapsed:.2f} s")


def test_criterion_3_strict_increase_iff_all_improved(instances):
    violations = tied = tied_violations = 0
    for p, a in instances:
        t = throughput(p)
        b = bottleneck_set(p)
        increased = perturbed_throughput(p, a) > t
        violations += increased != all(a.factor[s] > 1 for s in b)
        if len(b) >= 2:
            tied += 1
            kept = [s for s in b if a.factor[s] == 1]
            if len(kept) == 1:
                tied_violations += perturbed_throughput(p, a) != t
    ok = violations == 0 and tied >= 500 and tied_violations == 0
    report(3, ok, f"{violations} violations, {tied} tied instances, "
                  f"{tied_violations} tie violations")


def test_criterion_4_monotonicity_and_non_decrease(instances):
    violations = 0
    for i, (p, a) in enumerate(instances):
        violations += len(check_monotonicity(p, a, generate_dominating(CFG, i, a)))
        violations += perturbed_throughput(p, a) < throughput(p)
    report(4, violations == 0, f"{len(instances)} dominating pairs, "
                               f"{violations} violations")


def test_criterion_5_ceiling_and_tightness(instances):
    violations = 0
    degenerate = 0
    for i, (p, a) in enumerate(instances[:2000]):
        h = generate_authority(CFG, i, p)
        degenerate += h.human_stages == set(p.stages)
        violations += len(check_ceiling(p, a, h))
    ok = violations == 0 and degenerate > 0
    report(5, ok, f"2000 instances, {violations} violations, "
                  f"{degenerate} all-pinned cases")


def test_criterion_6_preservation_and_migration(instances):
    violations = 0
    for p, a in instances:
        rep = preservation_report(p, a)
        preserved = bottleneck_set(perturb(p, a)) == bottleneck_set(p)
        violations += rep.preserved != (rep.condition_i and rep.condition_ii)
        violations += rep.preserved != preserved
        violations += migration_decomposition(p, a).empty != preserved
    report(6, violations == 0,
           f"{len(instances)} instances, {violations} violations")


def test_criterion_7_adversarial_equivalence():
    violations = corollary_cases = 0
    for i in range(2000):
        pair = generate_pair(CFG, i)
        violations += len(check_adversarial(*pair))
        corollary_cases += defender_misses_bottleneck(*pair)
    ok = violations == 0 and corollary_cases > 0
    report(7, ok, f"2000 pairs, {violations} violations, "
                  f"{corollary_cases} corollary cases")


def test_criterion_8_plateau():
    violations = 0
    for i in range(100):
        rng = random.Random(f"{CFG.seed}:{i}:acceptance-plateau")
        model = FixedFractionModel(
            Fraction(rng.randint(0, 99), 100),
            Fraction(rng.randint(1, 1000), rng.randint(1, 10)),
        )
        c_inv = model.investigation_capacity
        expected = (1 - model.false_positive_fraction) * c_inv
        for _ in range(1000):
            lam = c_inv + Fraction(rng.randint(1, 10**9), rng.randint(1, 1000))
            violations += simple_useful(lam, model) != expected
    report(8, violations == 0,
           f"100 models x 1000 samples, {violations} violations")


def test_criterion_9_decline():
    violations = 0
    decay = RationalDecayPrecision(Fraction(1, 10))
    table = TablePrecision(
        [(10, 1), (20, Fraction(1, 2)), (40, Fraction(1, 4)),
         (100, Fraction(1, 8))]
    )
    rng = random.Random(f"{CFG.seed}:0:acceptance-decline")
    c_inv = Fraction(10)
    for _ in range(200):
        samples = sorted({
            c_inv + Fraction(rng.randint(1, 3600), 40) for _ in range(8)
        })
        if len(samples) < 2:
            continue
        verdict = decline_check(decay, c_inv, samples)
        violations += not verdict.passed
        values = [repaired_useful(x, decay, c_inv) for x in samples]
        violations += sum(
            v1 <= v2 for v1, v2 in zip(values, values[1:])
        )
        tbl_verdict = decline_check(table, c_inv, samples)
        violations += not (tbl_verdict.passed
                           and tbl_verdict.mode == "strict_decline")
        const = decline_check(ConstantPrecision(Fraction(1, 3)), c_inv, samples)
        violations += not (const.passed and const.mode == "constant")
        violations += any(v != const.values[0] for v in const.values)
    report(9, violations == 0, f"decline/constancy, {violations} violations")


def grid_oracle(caps: tuple[int, ...], budget: int) -> Fraction:
    """Exhaustive grid search over stagewise factors in steps of 1/32,
    unit costs 1, carried out in integer 32nds.

    Candidate throughputs are every (grid factor) * (capacity); the cheapest
    grid profile for a candidate takes per stage the smallest grid factor
    reaching it, which dominates every other grid profile with that minimum.
    Cost is nondecreasing in the candidate, so binary search finds the
    largest affordable one.
    """
    budget32 = 32 * budget
    max_k = 32 + budget32  # any single factor above this busts the budget
    candidates = sorted({
        k * c for c in caps for k in range(32, max_k + 1)
    })

    def affordable(target32: int) -> bool:
        spent = 0
        for c in caps:
            k = max(32, -(-target32 // c))  # ceil division
            if k > max_k:
                return False
            spent += k - 32
            if spent > budget32:
                return False
        return True

    lo, hi = 0, len(candidates) - 1
    best = min(caps) * 32
    while lo <= hi:
        mid = (lo + hi) // 2
        if affordable(candidates[mid]):
            best = max(best, candidates[mid])
            lo = mid + 1
        else:
            hi = mid - 1
    return Fraction(best, 32)


def test_criterion_10_planner_oracle():
    start = time.perf_counter()
    violations = cases = 0
    for n in range(1, 5):
        for caps in itertools.combinations_with_replacement(range(1, 9), n):
            stages = tuple(f"s{i}" for i in range(n))
            p = Pipeline(stages, dict(zip(stages, caps)))
            for budget in range(1, 7):
                cases += 1
                res = maxmin_allocation(p, CostModel.uniform(p, budget))
                if res.achieved_throughput < grid_oracle(caps, budget):
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    report(10, ok, f"{cases} cases, {violations} below oracle, "
                   f"{elapsed:.1f} s")


def test_criterion_11_round_trip_and_replay():
    violations = 0
    for i in range(1000):
        p, _ = generate_instance(CFG, i)
        doc = document_for_pipeline(p, f"random-{i}")
        again = parse_document(serialize_document(doc))
        violations += again.pipeline != p

    small = GeneratorConfig(seed=CFG.seed, instance_count=200)
    first = structured_report(verify_all(small))
    second = structured_report(verify_all(small))
    ok = violations == 0 and first == second
    report(11, ok, f"{violations} round-trip failures, "
                   f"replay identical: {first == second}")
