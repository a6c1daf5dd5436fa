"""Seeded random instance generation and the randomized verification driver.

Every generated object is a pure function of (seed, index): the generator
is CPython's Mersenne Twister (`random.Random`) seeded with the text
"{seed}:{index}:{label}", with an empty label for the instance itself and a
name for each auxiliary draw: a seeding rule that `random` documents as
stable and platform-independent.  Replaying a (seed, index) pair therefore
reproduces an instance exactly, and independent instances could be
generated by parallel workers with no shared state.

`verify_all` drives every equivalence and bound check in the library across
the generated instances and tallies results per check.  It verifies
contiguous blocks of indices, runs each check family over a whole block
before the next, and merges the results in index order; `verify_instance`
is the one-index block of the same path.  A counterexample —
which would indicate an implementation bug, since the underlying facts are
proved — carries its (seed, index) for exact replay.
"""

from __future__ import annotations

import random
from fractions import Fraction
from types import MappingProxyType

from .adversarial import defender_misses_bottleneck, ratio_report
from .ceiling import (
    AuthoritySpec,
    ceiling,
    generalized_ceiling,
    is_h_admissible,
    tightness_witness,
)
from .characterize import verify_characterizations
from .documents import _dumps
from .falsepos import (
    FixedFractionModel,
    RationalDecayPrecision,
    decline_check,
    plateau_check,
)
from .model import ONE, Multiplier, Pipeline, Record, perturbed_throughput

CAPACITY_GRID = tuple(Fraction(i) for i in range(1, 11))
# factor 1 listed twice: ties kept at factor 1 are the interesting case
FACTOR_GRID = (
    ONE,
    ONE,
    Fraction(3, 2),
    Fraction(2),
    Fraction(5),
)
# the decreasing precision every falsepos check declines under
_DECAY = RationalDecayPrecision(Fraction(1, 10))


class GeneratorConfig(Record):
    seed: int = 0
    instance_count: int = 10_000
    max_stages: int = 8

    def __post_init__(self):
        if self.instance_count < 0:
            raise ValueError("instance_count must be >= 0")
        if self.max_stages < 1:
            raise ValueError("max_stages must be >= 1")


def _rng(cfg: GeneratorConfig, index: int, label: str = "") -> random.Random:
    return random.Random(f"{cfg.seed}:{index}:{label}")


def _random_pipeline(rng: random.Random, cfg: GeneratorConfig) -> Pipeline:
    n = rng.randint(1, cfg.max_stages)
    stages = tuple(f"s{i + 1}" for i in range(n))
    return Pipeline(stages, {s: rng.choice(CAPACITY_GRID) for s in stages})


def _random_multiplier(rng: random.Random, p: Pipeline) -> Multiplier:
    return Multiplier({s: rng.choice(FACTOR_GRID) for s in p.stages})


def generate_instance(cfg: GeneratorConfig, index: int) -> tuple[Pipeline, Multiplier]:
    """Deterministic instance number `index` under `cfg`."""
    rng = _rng(cfg, index)
    p = _random_pipeline(rng, cfg)
    return p, _random_multiplier(rng, p)


def generate_dominating(cfg: GeneratorConfig, index: int,
                        a: Multiplier) -> Multiplier:
    """A multiplier that dominates `a` stagewise (each factor scaled by a
    further grid draw)."""
    rng = _rng(cfg, index, "dominate")
    draws = [rng.choice(FACTOR_GRID) for _ in a.factor]
    return Multiplier({s: f if g is ONE else g if f is ONE else f * g
                       for (s, f), g in zip(a.factor.items(), draws)})


def generate_authority(cfg: GeneratorConfig, index: int,
                       p: Pipeline) -> AuthoritySpec:
    """Random nonempty pinned subset of p's stages (sometimes all of them)."""
    rng = _rng(cfg, index, "authority")
    k = rng.randint(1, len(p.stages))
    return AuthoritySpec(rng.sample(list(p.stages), k))


def generate_pair(
    cfg: GeneratorConfig, index: int
) -> tuple[Pipeline, Multiplier, Pipeline, Multiplier]:
    """Attacker instance `index` and an independent defender drawn from an
    auxiliary stream of the same (seed, index), as
    (attacker, aA, defender, aD)."""
    return (*generate_instance(cfg, index), *_generate_defender(cfg, index))


def _generate_defender(cfg: GeneratorConfig,
                       index: int) -> tuple[Pipeline, Multiplier]:
    """The defender half of `generate_pair(cfg, index)`."""
    rng = _rng(cfg, index, "defender")
    defender = _random_pipeline(rng, cfg)
    return defender, _random_multiplier(rng, defender)


def generate_fp_model(
    cfg: GeneratorConfig, index: int
) -> tuple[FixedFractionModel, list[Fraction]]:
    """Random fixed-fraction model plus sample rates above its capacity."""
    rng = _rng(cfg, index, "falsepos")
    model = FixedFractionModel(
        Fraction(rng.randint(0, 9), 10), rng.choice(CAPACITY_GRID)
    )
    c = model.investigation_capacity
    samples = [  # c + n/d, drawing n then d, as one Fraction each
        Fraction(c.numerator * d + n * c.denominator, c.denominator * d)
        for n, d in [(rng.randint(1, 1000), rng.randint(1, 10)) for _ in range(5)]
    ]
    # the planner's order key: floor(x * 2**64), with the Fraction on ties
    samples.sort(key=lambda x: ((x.numerator << 64) // x.denominator, x))
    return model, samples


class Counterexample(Record):
    check: str
    seed: int
    index: int
    message: str


class HarnessVerdict(Record):
    seed: int
    count: int
    checks: MappingProxyType  # check name -> number of instances it ran on
    counterexamples: tuple[Counterexample, ...]
    max_stages: int = GeneratorConfig.max_stages

    def __post_init__(self):
        object.__setattr__(self, "checks", MappingProxyType(dict(self.checks)))

    @property
    def passed(self) -> bool:
        return not self.counterexamples


def check_ceiling(p: Pipeline, a: Multiplier,
                  h: AuthoritySpec) -> list[str]:
    """Authority ceiling: `a` with the stages of `h` pinned to factor 1
    stays at or below `ceiling(p, h)`, and the tightness witness attains it."""
    failures = []
    pinned = Multiplier(
        {s: ONE if s in h.human_stages else f for s, f in a.factor.items()}
    )
    if not is_h_admissible(pinned, h):
        failures.append("pinned multiplier not recognised as authority-admissible")
    cap = ceiling(p, h)
    pinned_throughput = perturbed_throughput(p, pinned)
    if pinned_throughput > cap:
        failures.append(
            f"pinned throughput {pinned_throughput} exceeds ceiling {cap}"
        )
    witness = tightness_witness(p, h)
    if not is_h_admissible(witness, h):
        failures.append("tightness witness is not authority-admissible")
    achieved = perturbed_throughput(p, witness)
    if achieved != cap:
        failures.append(f"witness achieves {achieved}, ceiling is {cap}")
    if any(witness.factor[s] * p.capacity[s] <= cap
           for s in p.stages if s not in h.human_stages):
        failures.append("witness leaves a non-pinned stage at or below the ceiling")
    # with all-ones assist bounds the generalised bound reduces to the ceiling
    ones = AuthoritySpec(h.human_stages, dict.fromkeys(h.human_stages, ONE))
    if generalized_ceiling(p, ones) != cap:
        failures.append("all-ones assist bounds do not reduce to the ceiling")
    return failures


def check_adversarial(attacker: Pipeline, aA: Multiplier,
                      defender: Pipeline, aD: Multiplier) -> list[str]:
    """Attacker/defender ratios: `ratio_report` against the ratios and gains
    recomputed from raw capacities, and the missed-bottleneck corollary."""
    failures = []
    rep = ratio_report(attacker, aA, defender, aD)
    ta = min(attacker.capacity.values())
    td = min(defender.capacity.values())
    ta_new = min([aA.factor[s] * c for s, c in attacker.capacity.items()])
    td_new = min([aD.factor[s] * c for s, c in defender.capacity.items()])
    baseline, perturbed = ta / td, ta_new / td_new
    gain_a, gain_d = ta_new / ta, td_new / td
    by_ratio = perturbed > baseline
    recomputed = (baseline, perturbed, gain_a, gain_d, by_ratio)
    reported = (rep.baseline_ratio, rep.perturbed_ratio, rep.attacker_gain,
                rep.defender_gain, rep.favours_attacker)
    if reported != recomputed or by_ratio != (gain_a > gain_d):
        failures.append("ratio/gain equivalence violated on recomputation")
    if rep.baseline_ratio.numerator <= 0 or rep.perturbed_ratio.numerator <= 0:
        failures.append("ratios must be strictly positive")
    if (defender_misses_bottleneck(attacker, aA, defender, aD)
            and not rep.favours_attacker):
        failures.append(
            "defender missed its bottleneck yet the ratio did not move "
            "in the attacker's favour"
        )
    return failures


def check_falsepos(model: FixedFractionModel,
                   samples: list[Fraction]) -> list[str]:
    """Plateau of the fixed-fraction model on `samples`, which is also the
    constant-precision check (Proposition 6), and decline under rational-decay
    precision across the distinct samples.  `samples` must be nondecreasing,
    as `generate_fp_model` returns them, so that equal ones are adjacent and
    drop out by their numerator/denominator pairs, without hashing."""
    failures = []
    if not plateau_check(model, samples).passed:
        failures.append("fixed-fraction plateau violated")
    distinct = samples[:1] + [
        x for prev, x in zip(samples, samples[1:])
        if x.as_integer_ratio() != prev.as_integer_ratio()
    ]
    if len(distinct) >= 2 and not decline_check(
        _DECAY, model.investigation_capacity, distinct
    ).passed:
        failures.append("rational-decay decline violated")
    return failures


def check_monotonicity(p: Pipeline, a: Multiplier,
                       dominating: Multiplier) -> list[str]:
    """Throughput under `dominating` is at least that under `a`.
    Non-decrease against `p` itself is `verify_characterizations`' check."""
    if perturbed_throughput(p, a) > perturbed_throughput(p, dominating):
        return ["throughput not monotone under stagewise domination"]
    return []


# (name, run(cfg, index, p, a)) for each check family, in report order; the
# attacker of generate_pair is (p, a), so adversarial draws only the defender
_FAMILIES = (
    ("characterizations",
     lambda cfg, index, p, a: list(verify_characterizations(p, a).failures)),
    ("monotonicity", lambda cfg, index, p, a: check_monotonicity(
        p, a, generate_dominating(cfg, index, a))),
    ("ceiling", lambda cfg, index, p, a: check_ceiling(
        p, a, generate_authority(cfg, index, p))),
    ("adversarial", lambda cfg, index, p, a: check_adversarial(
        p, a, *_generate_defender(cfg, index))),
    ("falsepos", lambda cfg, index, p, a: check_falsepos(
        *generate_fp_model(cfg, index))),
)
_BLOCK = 64  # instances that verify_all generates and holds at a time


def _verify_range(cfg: GeneratorConfig,
                  indices: range) -> list[dict[str, list[str]]]:
    """`verify_instance` of each index in `indices`, in order.  Each family
    runs over every instance of the range before the next family starts.

    An exception raised inside a check family is that family's failure at
    that index, recorded as "<ExcType>: <message>", and the other families
    still run.
    """
    instances = [generate_instance(cfg, index) for index in indices]
    results: list[dict[str, list[str]]] = [{} for _ in instances]
    for name, run in _FAMILIES:
        for index, (p, a), result in zip(indices, instances, results):
            try:
                result[name] = run(cfg, index, p, a)
            except Exception as exc:  # a defect, kept with its (seed, index)
                result[name] = [f"{type(exc).__name__}: {exc}"]
    return results


def verify_instance(cfg: GeneratorConfig, index: int) -> dict[str, list[str]]:
    """All checks for one instance; maps check name to its failures."""
    return _verify_range(cfg, range(index, index + 1))[0]


def verify_all(cfg: GeneratorConfig) -> HarnessVerdict:
    counterexamples: list[Counterexample] = []
    for start in range(0, cfg.instance_count, _BLOCK):
        block = range(start, min(start + _BLOCK, cfg.instance_count))
        counterexamples += [
            Counterexample(check=name, seed=cfg.seed, index=index, message=message)
            for index, results in zip(block, _verify_range(cfg, block))
            for name, failures in results.items() for message in failures
        ]
    return HarnessVerdict(
        seed=cfg.seed,
        count=cfg.instance_count,
        # exact: every family runs on every instance, and an exception
        # inside one is that family's failure, not a skipped check
        checks={name: cfg.instance_count for name, _ in _FAMILIES if cfg.instance_count},
        counterexamples=tuple(counterexamples),
        max_stages=cfg.max_stages,
    )


def structured_report(verdict: HarnessVerdict) -> str:
    """Canonical machine-readable form; identical configs give identical
    bytes."""
    payload = {
        "seed": verdict.seed,
        "count": verdict.count,
        "passed": verdict.passed,
        "checks": dict(sorted(verdict.checks.items())),
        "counterexamples": [
            {
                "check": ce.check,
                "seed": ce.seed,
                "index": ce.index,
                "message": ce.message,
            }
            for ce in verdict.counterexamples
        ],
    }
    return _dumps(payload) + "\n"


def text_report(verdict: HarnessVerdict) -> str:
    lines = [
        f"verified {verdict.count} instances (seed {verdict.seed})",
    ]
    for name, n in sorted(verdict.checks.items()):
        lines.append(f"  {name}: {n} instances checked")
    if verdict.passed:
        lines.append("all checks passed")
    else:
        lines.append(f"{len(verdict.counterexamples)} counterexample(s):")
        stages = ("" if verdict.max_stages == GeneratorConfig.max_stages
                  else f" --max-stages {verdict.max_stages}")
        for ce in verdict.counterexamples[:20]:
            lines.append(
                f"  [{ce.check}] seed={ce.seed} index={ce.index}: {ce.message}"
            )
            lines.append(
                f"    replay: pipecalc verify --replay={ce.seed}:{ce.index}{stages}")
    return "\n".join(lines) + "\n"
