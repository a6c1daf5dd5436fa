"""Exact characterisations of what a perturbation does to a pipeline.

Three facts hold for every admissible multiplier, and each is checkable from
both sides:

  * throughput is unchanged iff some original bottleneck keeps factor 1;
  * throughput strictly increases iff every original bottleneck has factor
    strictly above 1;
  * the bottleneck set is preserved iff all bottlenecks share one common
    factor and every perturbed bottleneck value stays strictly below every
    perturbed non-bottleneck value; as the bottlenecks share one capacity,
    the largest of their values is the largest of their factors times it.

`classify`, `preservation_report` and `migration_decomposition` are
projections of one pass over the (pipeline, multiplier) pair, `_analyse`,
which `cli perturb` and `verify_characterizations` read whole.
`verify_characterizations` recomputes both sides of each equivalence with
the one brute-force oracle that the harness and the tests share, the builtin
`min` over `Fraction` values and `Fraction` operators, and reports any
disagreement as an internal defect with all intermediate values attached.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from types import MappingProxyType

from .model import (
    Multiplier,
    Pipeline,
    Record,
    _argmin,
    check_admissible,
)


class Outcome(enum.Enum):
    UNCHANGED = "unchanged"
    STRICT_INCREASE = "strict_increase"


class PerturbationClassification(Record):
    """Outcome of a perturbation together with the predicates that explain it.

    `unchanged_predicate` is "some original bottleneck has factor exactly 1";
    `strict_predicate` is "every original bottleneck has factor > 1".
    Admissibility forces exactly one of the two to hold, and the outcome
    matches the holding predicate.  When unchanged, `witness` names the
    earliest bottleneck (in stage order) whose factor is 1.
    """

    outcome: Outcome
    unchanged_predicate: bool
    strict_predicate: bool
    witness: str | None
    base_throughput: Fraction
    new_throughput: Fraction


class PreservationReport(Record):
    """Whether the bottleneck set survives perturbation, and why.

    condition_i: all original bottlenecks share one factor.
    condition_ii: every perturbed bottleneck value is strictly below every
    perturbed non-bottleneck value (vacuously true when every stage is a
    bottleneck).  Preservation holds iff both conditions do.
    """

    preserved: bool
    condition_i: bool
    condition_ii: bool
    common_factor: Fraction | None


class MigrationDecomposition(Record):
    """Stages that left or joined the bottleneck set, in stage order."""

    departed: tuple[str, ...]
    entered: tuple[str, ...]

    @property
    def empty(self) -> bool:
        return not self.departed and not self.entered


def _analyse(p: Pipeline, a: Multiplier) -> tuple[
        PerturbationClassification, PreservationReport, MigrationDecomposition]:
    """The three reports on one perturbation, from one admissibility check
    and three `_argmin` scans: of the capacities, of the perturbed products,
    and of the non-bottlenecks' products.  Minima, ties, the unchanged test
    and condition (ii) are decided on integer pairs, the last from the
    bottlenecks' shared capacity."""
    check_admissible(p, a)
    fac = a.factor
    base_n, base_d, bottlenecks = _argmin(p)
    new_n, new_d, new_bottlenecks = _argmin(p, None, fac)
    before, after = frozenset(bottlenecks), frozenset(new_bottlenecks)

    unchanged = new_n * base_d == base_n * new_d
    classification = PerturbationClassification(
        outcome=Outcome.UNCHANGED if unchanged else Outcome.STRICT_INCREASE,
        unchanged_predicate=any(fac[s] == 1 for s in bottlenecks),
        strict_predicate=all(fac[s] > 1 for s in bottlenecks),
        witness=(next(s for s in bottlenecks if fac[s] == 1)
                 if unchanged else None),
        base_throughput=p.capacity[bottlenecks[0]],
        new_throughput=Fraction(new_n, new_d),
    )

    factors = {fac[s] for s in bottlenecks}
    condition_i = len(factors) == 1
    top = max(factors)
    # the rest's minimum is 1/0, above every product, if every stage is a bottleneck
    best_n, best_d, _ = _argmin(p, [s for s in p.stages if s not in before], fac)
    condition_ii = top.numerator * base_n * best_d < best_n * top.denominator * base_d
    preservation = PreservationReport(
        preserved=before == after,
        condition_i=condition_i,
        condition_ii=condition_ii,
        common_factor=next(iter(factors)) if condition_i else None,
    )

    # both argmins list their stages in stage order
    migration = MigrationDecomposition(
        departed=tuple(s for s in bottlenecks if s not in after),
        entered=tuple(s for s in new_bottlenecks if s not in before),
    )
    return classification, preservation, migration


def classify(p: Pipeline, a: Multiplier) -> PerturbationClassification:
    return _analyse(p, a)[0]


def preservation_report(p: Pipeline, a: Multiplier) -> PreservationReport:
    return _analyse(p, a)[1]


def migration_decomposition(p: Pipeline, a: Multiplier) -> MigrationDecomposition:
    return _analyse(p, a)[2]


class CharacterizationVerdict(Record):
    """Result of cross-checking every equivalence on one (pipeline,
    multiplier) instance.  A failure means the implementation disagrees with
    a brute-force recomputation; it is an internal bug, never a refutation
    of the characterisations themselves."""

    passed: bool
    failures: tuple[str, ...]
    detail: MappingProxyType

    def __post_init__(self):  # read-only, and so are the maps inside it
        object.__setattr__(self, "detail", MappingProxyType(
            {k: MappingProxyType(dict(v)) if type(v) is dict else v for k, v in self.detail.items()}))


def verify_characterizations(p: Pipeline, a: Multiplier) -> CharacterizationVerdict:
    cls, rep, decomp = _analyse(p, a)  # refuses an inadmissible multiplier
    base = min(p.capacity.values())
    # each stage's perturbed capacity, a Fraction product built once
    product = {s: a.factor[s] * p.capacity[s] for s in p.stages}
    new = min(product.values())
    before = frozenset(s for s in p.stages if p.capacity[s] == base)
    after = frozenset(s for s in p.stages if product[s] == new)

    failures = []

    # non-decrease, and the resulting dichotomy
    if new < base:
        failures.append("throughput decreased under an admissible multiplier")

    # unchanged iff some bottleneck keeps factor 1
    exists_one = any(a.factor[s] == 1 for s in before)
    if (new == base) != exists_one:
        failures.append("unchanged-throughput equivalence violated")

    # strict increase iff all bottlenecks have factor > 1
    all_above = all(a.factor[s] > 1 for s in before)
    if (new > base) != all_above:
        failures.append("strict-increase equivalence violated")

    # classification consistency against the predicate route
    if cls.unchanged_predicate != exists_one or cls.strict_predicate != all_above:
        failures.append("classification predicates disagree with brute force")
    if (cls.outcome is Outcome.UNCHANGED) != (new == base):
        failures.append("classification outcome disagrees with brute force")
    if cls.witness is not None and (
        cls.witness not in before or a.factor[cls.witness] != 1
    ):
        failures.append("classification witness is not a factor-1 bottleneck")

    # preservation iff (i) and (ii)
    cond_i = len({a.factor[s] for s in before}) == 1
    cond_ii = all(
        product[u] < product[w]
        for u in before
        for w in p.stages
        if w not in before
    )
    if (before == after) != (cond_i and cond_ii):
        failures.append("preservation equivalence violated")
    if rep.preserved != (before == after) or rep.condition_i != cond_i or rep.condition_ii != cond_ii:
        failures.append("preservation report disagrees with brute force")

    # migration iff the decomposition is nonempty
    if decomp.empty != (before == after):
        failures.append("migration decomposition disagrees with set equality")
    if set(decomp.departed) != before - after or set(decomp.entered) != after - before:
        failures.append("migration decomposition sets are wrong")

    detail = {
        "base_throughput": base,
        "new_throughput": new,
        "bottlenecks_before": tuple(sorted(before)),
        "bottlenecks_after": tuple(sorted(after)),
        "factors": {s: a.factor[s] for s in p.stages},
        "capacities": {s: p.capacity[s] for s in p.stages},
    }
    return CharacterizationVerdict(
        passed=not failures, failures=tuple(failures), detail=detail
    )
