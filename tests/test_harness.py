import json
import random
from fractions import Fraction

import pytest

import pipecalc.harness as harness
from pipecalc import (
    AuthoritySpec,
    GeneratorConfig,
    Multiplier,
    Pipeline,
    generate_instance,
    structured_report,
    text_report,
    verify_all,
)
from pipecalc.adversarial import ratio_report
from pipecalc.characterize import CharacterizationVerdict, _analyse, verify_characterizations
from pipecalc.falsepos import FixedFractionModel, PlateauVerdict
from pipecalc.harness import (
    CAPACITY_GRID,
    FACTOR_GRID,
    check_adversarial,
    check_ceiling,
    check_falsepos,
    check_monotonicity,
    generate_dominating,
    generate_fp_model,
    generate_pair,
    verify_instance,
)
from pipecalc.model import bottleneck_set


class TestGeneratorConfig:
    def test_defaults(self):
        cfg = GeneratorConfig()
        assert cfg.max_stages == 8
        assert FACTOR_GRID.count(Fraction(1)) == 2


class TestGenerateInstance:
    def test_deterministic_replay(self):
        cfg = GeneratorConfig(seed=123, instance_count=10)
        for i in range(10):
            assert generate_instance(cfg, i) == generate_instance(cfg, i)

    def test_documented_seed_text_replays(self):
        # "5:3:" draws 8 stages; "5:3", without the empty label, draws 4
        rng = random.Random("5:3:")
        n = rng.randint(1, 8)
        draws = [rng.choice(grid) for grid in (CAPACITY_GRID, FACTOR_GRID)
                 for _ in range(n)]
        p, a = generate_instance(GeneratorConfig(seed=5), 3)
        assert draws == [*p.capacity.values(), *a.factor.values()]

    def test_different_indices_differ(self):
        cfg = GeneratorConfig(seed=123, instance_count=10)
        instances = {generate_instance(cfg, i) for i in range(10)}
        assert len(instances) > 1

    def test_respects_grids(self):
        for k in (1, 3):
            cfg = GeneratorConfig(seed=5, instance_count=50, max_stages=k)
            for i in range(50):
                p, a = generate_instance(cfg, i)
                assert 1 <= len(p.stages) <= k
                assert all(c in CAPACITY_GRID for c in p.capacity.values())
                assert all(f in FACTOR_GRID for f in a.factor.values())

    def test_tie_and_invariance_coverage(self):
        # small grids must produce frequent ties and kept-at-1 bottlenecks
        cfg = GeneratorConfig(seed=0, instance_count=2000)
        ties = kept = 0
        for i in range(2000):
            p, a = generate_instance(cfg, i)
            b = bottleneck_set(p)
            ties += len(b) >= 2
            kept += any(a.factor[s] == 1 for s in b)
        assert ties / 2000 > 0.10
        assert kept / 2000 > 0.20


def _fp_model_by_fraction_operators(cfg, index):
    """generate_fp_model's draws from the same seed text, summed and sorted
    with Fraction operators."""
    rng = random.Random(f"{cfg.seed}:{index}:falsepos")
    model = FixedFractionModel(
        Fraction(rng.randint(0, 9), 10), rng.choice(harness.CAPACITY_GRID))
    c_inv = model.investigation_capacity
    return model, sorted(
        c_inv + Fraction(rng.randint(1, 1000), rng.randint(1, 10))
        for _ in range(5))


def _assert_fp_models_match(pairs):
    for seed, index in pairs:
        cfg = GeneratorConfig(seed=seed)
        model, samples = generate_fp_model(cfg, index)
        ref_model, ref_samples = _fp_model_by_fraction_operators(cfg, index)
        assert model == ref_model
        assert [(x.numerator, x.denominator) for x in samples] == [
            (x.numerator, x.denominator) for x in ref_samples]


def test_dominating_scales_each_factor_by_a_grid_draw():
    cfg, raised = GeneratorConfig(seed=13), 0
    for i in range(30):
        a = generate_instance(cfg, i)[1]
        rng = random.Random(f"13:{i}:dominate")
        g = [rng.choice(FACTOR_GRID) for _ in a.factor]
        dominating = generate_dominating(cfg, i, a)
        assert dominating.factor == {s: f * h for (s, f), h in zip(a.factor.items(), g)}
        raised += dominating != a
    assert raised


class TestGenerateFpModel:
    def test_matches_fraction_operators(self):
        _assert_fp_models_match((s, i) for s in range(4) for i in range(500))

    def test_matches_on_fractional_capacities(self, monkeypatch):
        monkeypatch.setattr(harness, "CAPACITY_GRID", (
            Fraction(7, 3), Fraction(1, 1000), Fraction(10**20 + 1, 10**19)))
        _assert_fp_models_match((9, i) for i in range(500))

    def test_samples_are_nondecreasing_with_some_repeats(self):
        # check_falsepos drops only adjacent repeats, so it relies on this
        # order; and repeats occur, so verify runs that dedupe
        cfg, repeats = GeneratorConfig(seed=20260823), 0
        for i in range(2000):
            samples = generate_fp_model(cfg, i)[1]
            assert all(x <= y for x, y in zip(samples, samples[1:]))
            repeats += len(set(samples)) < len(samples)
        assert repeats


class TestVerifyAll:
    def test_small_run_passes(self):
        verdict = verify_all(GeneratorConfig(seed=7, instance_count=100))
        assert verdict.passed
        assert verdict.checks["characterizations"] == 100

    def test_count_zero_is_vacuous(self):
        verdict = verify_all(GeneratorConfig(seed=7, instance_count=0))
        assert verdict.passed
        assert verdict.checks == {}
        assert verdict.counterexamples == ()
        assert text_report(verdict) == "verified 0 instances (seed 7)\nall checks passed\n"

    def test_structured_report_replays_identically(self):
        cfg = GeneratorConfig(seed=21, instance_count=50)
        assert structured_report(verify_all(cfg)) == structured_report(
            verify_all(cfg)
        )

    def test_mutation_is_caught_with_replay_coordinates(self, monkeypatch):
        # corrupt the characterization cross-check: every instance must now
        # surface as a counterexample carrying its (seed, index)
        def corrupted(p, a):
            return CharacterizationVerdict(
                passed=False,
                failures=("deliberately corrupted comparison",),
                detail={},
            )

        monkeypatch.setattr(harness, "verify_characterizations", corrupted)
        cfg = GeneratorConfig(seed=99, instance_count=5)
        verdict = verify_all(cfg)
        assert not verdict.passed
        assert len(verdict.counterexamples) == 5
        ce = verdict.counterexamples[0]
        assert (ce.seed, ce.index) == (99, 0)
        # replay coordinates reproduce the instance exactly
        assert generate_instance(cfg, ce.index) == generate_instance(cfg, 0)
        assert json.loads(structured_report(verdict))["counterexamples"][4] == {
            "check": "characterizations", "seed": 99, "index": 4,
            "message": "deliberately corrupted comparison"}
        assert "    replay: pipecalc verify --replay=99:4\n" in text_report(verdict)
        verdict = verify_all(GeneratorConfig(seed=99, instance_count=1, max_stages=3))
        assert text_report(verdict) == "".join([
            "verified 1 instances (seed 99)\n",
            *(f"  {name}: 1 instances checked\n" for name in sorted(verdict.checks)),
            "1 counterexample(s):\n",
            "  [characterizations] seed=99 index=0: deliberately corrupted comparison\n",
            "    replay: pipecalc verify --replay=99:0 --max-stages 3\n"])

    def test_raising_check_family_is_a_counterexample(self, monkeypatch):
        def raising(attacker, aA, defender, aD):
            raise RuntimeError("planted defect")

        monkeypatch.setattr(harness, "ratio_report", raising)
        verdict = verify_all(GeneratorConfig(seed=31, instance_count=3))
        assert verdict.checks["falsepos"] == 3  # later families still ran
        assert [(ce.check, ce.seed, ce.index, ce.message)
                for ce in verdict.counterexamples] == [
            ("adversarial", 31, i, "RuntimeError: planted defect")
            for i in range(3)
        ]

    def test_two_failing_families_interleave_in_index_order(self, monkeypatch):
        # two families fail on every instance of a run that crosses a block
        # boundary: the counterexamples go index by index, and within an
        # index in family order, as verify_instance reports them
        def corrupted(p, a):
            return CharacterizationVerdict(passed=False, failures=("corrupted",),
                                           detail={})

        def raising(attacker, aA, defender, aD):
            raise RuntimeError("planted defect")

        monkeypatch.setattr(harness, "verify_characterizations", corrupted)
        monkeypatch.setattr(harness, "ratio_report", raising)
        planted = {"characterizations": "corrupted",
                   "adversarial": "RuntimeError: planted defect"}
        count = harness._BLOCK + 2
        cfg = GeneratorConfig(seed=53, instance_count=count)
        verdict = verify_all(cfg)
        assert [(ce.index, ce.check, ce.message) for ce in verdict.counterexamples] == [
            (i, name, planted[name])
            for i in range(count) for name, _ in harness._FAMILIES if name in planted]
        for i in range(count):
            assert {name: failures for name, failures in verify_instance(cfg, i).items()
                    if failures} == {name: [message] for name, message in planted.items()}
        assert verdict.checks == {name: count for name, _ in harness._FAMILIES}

    def test_swapped_ratio_report_is_caught(self, monkeypatch):
        # swapping attacker and defender gives a self-consistent but wrong
        # report; the recomputation from raw capacities must flag every
        # instance whose report the swap changes
        real = harness.ratio_report

        def swapped(attacker, aA, defender, aD):
            return real(defender, aD, attacker, aA)

        cfg = GeneratorConfig(seed=47, instance_count=40)
        changed = {i for i in range(40)
                   if swapped(*generate_pair(cfg, i)) != real(*generate_pair(cfg, i))}
        monkeypatch.setattr(harness, "ratio_report", swapped)
        verdict = verify_all(cfg)
        assert changed
        assert {(ce.check, ce.seed) for ce in verdict.counterexamples} == {
            ("adversarial", 47)
        }
        assert {ce.index for ce in verdict.counterexamples} == changed


def test_verify_instance_uses_the_generated_pair(monkeypatch):
    cfg = GeneratorConfig(seed=20260823, instance_count=500)
    seen = []
    original = harness.check_adversarial

    def recording(attacker, aA, defender, aD):
        seen.append((attacker, aA, defender, aD))
        return original(attacker, aA, defender, aD)

    monkeypatch.setattr(harness, "check_adversarial", recording)
    for i in range(500):
        verify_instance(cfg, i)
        assert seen[-1] == generate_pair(cfg, i)


_P = Pipeline(("a", "b", "c"), {"a": 3, "b": 1, "c": 4})
_DEFENDER = Pipeline(("x", "y"), {"x": 2, "y": 6})
_CEILING = (check_ceiling, _P, Multiplier({"a": 1, "b": 5, "c": 1}), AuthoritySpec(["b"]))
_ADVERSARIAL = (check_adversarial, _P, Multiplier.identity(_P), _DEFENDER,
                Multiplier.identity(_DEFENDER))
_FALSEPOS = (check_falsepos, FixedFractionModel(Fraction(1, 2), 10), [20, 30])
_CHARACTERIZATIONS = (lambda p, a: list(verify_characterizations(p, a).failures), _P,
                      Multiplier.identity(_P))
_UNEQUAL = ["ratio/gain equivalence violated on recomputation",
            "ratios must be strictly positive"]


def _with(record, field, value):
    """`record` with `field` set to `value`."""
    return type(record)(**{f: value if f == field else getattr(record, f)
                           for f in record._fields})


def _zero(ratio):
    """ratio_report with `ratio` reported as 0."""
    return lambda *sides: _with(ratio_report(*sides), ratio, Fraction(0))


def _analysed(index, field, value):
    """characterize._analyse with `field` of its report `index` set to `value`."""
    def planted(p, a):
        reports = list(_analyse(p, a))
        reports[index] = _with(reports[index], field, value)
        return tuple(reports)
    return planted


# each failure branch of each check family, made to fire by planting the
# defect it names in the library function the family checks
@pytest.mark.parametrize("target, planted, case, failures", [
    ("harness.is_h_admissible",  # refuses factor 1 off the pinned stages
     lambda m, h: all((f == 1) == (s in h.human_stages) for s, f in m.factor.items()),
     _CEILING, ["pinned multiplier not recognised as authority-admissible"]),
    ("harness.is_h_admissible",  # refuses every raised factor
     lambda m, h: all(f == 1 for f in m.factor.values()),
     _CEILING, ["tightness witness is not authority-admissible"]),
    ("harness.ceiling", lambda p, h: Fraction(1, 2), _CEILING,
     ["pinned throughput 1 exceeds ceiling 1/2", "witness achieves 1, ceiling is 1/2",
      "all-ones assist bounds do not reduce to the ceiling"]),
    ("harness.tightness_witness",  # raises by ceil(ceiling / capacity), no + 1
     lambda p, h: Multiplier({"a": 2, "b": 1}),
     (check_ceiling, Pipeline(("a", "b"), {"a": 1, "b": 2}),
      Multiplier({"a": 1, "b": 1}), AuthoritySpec(["b"])),
     ["witness leaves a non-pinned stage at or below the ceiling"]),
    ("harness.ratio_report", _zero("baseline_ratio"), _ADVERSARIAL, _UNEQUAL),
    ("harness.ratio_report", _zero("perturbed_ratio"), _ADVERSARIAL, _UNEQUAL),
    ("harness.defender_misses_bottleneck", lambda *sides: True, _ADVERSARIAL,
     ["defender missed its bottleneck yet the ratio did not move in the "
      "attacker's favour"]),
    ("harness.plateau_check",
     lambda m, samples: PlateauVerdict(passed=False, common_value=None,
                                       samples_checked=len(samples)),
     _FALSEPOS, ["fixed-fraction plateau violated"]),
    ("falsepos.RationalDecayPrecision.value", lambda self, lam: Fraction(1, 2),
     _FALSEPOS, ["rational-decay decline violated"]),
    # a repeat to drop (41/3), then a distinct sample with the same numerator
    ("falsepos.RationalDecayPrecision.value", lambda self, lam: Fraction(1, 2),
     (check_falsepos, FixedFractionModel(Fraction(1, 2), 10),
      [Fraction(41, 3), Fraction(41, 3), Fraction(41, 2)]),
     ["rational-decay decline violated"]),
    ("falsepos.ConstantPrecision.value", lambda self, lam: 1 / lam,
     _FALSEPOS, ["fixed-fraction plateau violated"]),
    ("harness.perturbed_throughput",  # divides by each factor
     lambda p, m: min(c / m.factor[s] for s, c in p.capacity.items()),
     (check_monotonicity, _P, Multiplier.identity(_P), Multiplier({"a": 1, "b": 2, "c": 1})),
     ["throughput not monotone under stagewise domination"]),
    # b is the one bottleneck of _P, and the identity keeps it at factor 1
    ("characterize._analyse", _analysed(0, "witness", "a"), _CHARACTERIZATIONS,
     ["classification witness is not a factor-1 bottleneck"]),
    ("characterize._analyse", _analysed(1, "preserved", False), _CHARACTERIZATIONS,
     ["preservation report disagrees with brute force"]),
], ids=["pinned-refused", "witness-refused", "ceiling-too-low", "witness-at-ceiling",
        "zero-baseline", "zero-perturbed", "missed-bottleneck", "plateau",
        "decay-flat", "decay-flat-repeated-sample", "constant-varies", "monotonicity",
        "witness-not-bottleneck", "preservation-misreported"])
def test_check_fires_on_planted_defect(monkeypatch, target, planted, case, failures):
    check, *args = case
    assert check(*args) == []
    monkeypatch.setattr(f"pipecalc.{target}", planted)
    assert check(*args) == failures
