import random
from fractions import Fraction

import pipecalc.harness as harness
from pipecalc import (
    GeneratorConfig,
    generate_instance,
    structured_report,
    verify_all,
)
from pipecalc.adversarial import InternalCheckError
from pipecalc.characterize import CharacterizationVerdict
from pipecalc.falsepos import FixedFractionModel
from pipecalc.harness import (
    CAPACITY_GRID,
    FACTOR_GRID,
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
        cfg = GeneratorConfig(seed=5, instance_count=50, max_stages=3)
        for i in range(50):
            p, a = generate_instance(cfg, i)
            assert 1 <= len(p.stages) <= 3
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


class TestGenerateFpModel:
    def test_matches_fraction_operators(self):
        _assert_fp_models_match((s, i) for s in range(4) for i in range(500))

    def test_matches_on_fractional_capacities(self, monkeypatch):
        monkeypatch.setattr(harness, "CAPACITY_GRID", (
            Fraction(7, 3), Fraction(1, 1000), Fraction(10**20 + 1, 10**19)))
        _assert_fp_models_match((9, i) for i in range(500))


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

    def test_raising_check_family_is_a_counterexample(self, monkeypatch):
        def raising(attacker, aA, defender, aD):
            raise InternalCheckError("sides disagree")

        monkeypatch.setattr(harness, "ratio_report", raising)
        verdict = verify_all(GeneratorConfig(seed=31, instance_count=3))
        assert verdict.checks["falsepos"] == 3  # later families still ran
        assert [(ce.check, ce.seed, ce.index, ce.message)
                for ce in verdict.counterexamples] == [
            ("adversarial", 31, i, "InternalCheckError: sides disagree")
            for i in range(3)
        ]

    def test_swapped_ratio_report_is_caught(self, monkeypatch):
        # swapping attacker and defender keeps the report self-consistent, so
        # ratio_report's own cross-check passes it; the recomputation from raw
        # capacities must flag every instance whose report the swap changes
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
