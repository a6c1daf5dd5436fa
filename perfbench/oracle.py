"""Exact reference results and output checks for the pipecalc benchmark.

Every reference is recomputed here from the generated document text with
`fractions.Fraction`, never with pipecalc itself:

  * analyze:  throughput is the minimum capacity and the bottlenecks are
    the stages at that minimum, in stage order;
  * perturb:  base and perturbed throughput, the unchanged/strict-increase
    outcome, its factor-1 witness, and the bottlenecks that left or joined;
  * ceiling:  the ceiling is the smallest pinned capacity, the reported
    witness pins every authority stage at 1 and its throughput, recomputed
    from the printed factors, equals the ceiling; the assist-bound ceiling
    is the smallest bound * capacity;
  * compare:  all four ratios, and `favours_attacker` agrees with both the
    ratio side and the gain side of the comparison;
  * plan:     the trivial allocation is refused exactly on tied
    bottlenecks; the max-min factors spend what is reported, at most the
    budget, and reach a throughput no better than the exact water-filling
    optimum, solved here from the piecewise-linear cost
    C(t) = sum over c_v < t of u_v (t / c_v - 1) = budget;
  * verify:   the report passes and every check family ran on every
    instance.

Text output is read by line prefix, so lines added to a report later do not
break the check.
"""

from __future__ import annotations

import ast
import json
from fractions import Fraction

VERIFY_FAMILIES = ("adversarial", "ceiling", "characterizations", "falsepos")


class CheckFailure(Exception):
    """The program's output disagrees with the exact reference."""


def _expect(what: str, got, want) -> None:
    if got != want:
        raise CheckFailure(f"{what}: got {got!r}, expected {want!r}")


class Doc:
    """Exact view of one generated pipeline document."""

    def __init__(self, raw: dict):
        self.name = raw["pipeline"]["name"]
        self.stages = [rec["id"] for rec in raw["pipeline"]["stages"]]
        self.capacity = {
            rec["id"]: Fraction(rec["capacity"]) for rec in raw["pipeline"]["stages"]
        }
        self.throughput = min(self.capacity.values())
        self.bottlenecks = [s for s in self.stages if self.capacity[s] == self.throughput]
        auth = raw.get("authority", {})
        self.human = set(auth.get("human_stages", ()))
        self.assist = {s: Fraction(b) for s, b in auth.get("assist_bounds", {}).items()}
        self.scenarios = {
            name: {s: Fraction(f) for s, f in factors.items()}
            for name, factors in raw.get("scenarios", {}).items()
        }

    def factors(self, scenario) -> dict:
        given = self.scenarios.get(scenario, {}) if scenario else {}
        return {s: given.get(s, Fraction(1)) for s in self.stages}

    def perturbed(self, factors: dict) -> dict:
        return {s: factors[s] * self.capacity[s] for s in self.stages}


def maxmin_optimum(capacities, budget: Fraction, unit_cost: Fraction = Fraction(1)) -> Fraction:
    """Largest t with sum over c < t of unit_cost * (t / c - 1) <= budget.

    With the k smallest capacities below t the cost is linear in t, so t
    solves unit_cost * (t * sum 1/c_i - k) = budget; the first k whose
    solution does not pass the next capacity is the answer.
    """
    ordered = sorted(capacities)
    inverse_sum = Fraction(0)
    for k, c in enumerate(ordered, start=1):
        inverse_sum += 1 / c
        t = (budget / unit_cost + k) / inverse_sum
        if k == len(ordered) or t <= ordered[k]:
            return t
    raise ValueError("empty pipeline")


def _lines(out: str) -> dict:
    fields = {}
    for line in out.splitlines():
        key, sep, value = line.strip().partition(":")
        if sep and key not in fields:
            fields[key] = value.strip()
    return fields


def _field(fields: dict, key: str) -> str:
    if key not in fields:
        raise CheckFailure(f"text output has no {key!r} line")
    return fields[key]


def _pairs(text: str) -> dict:
    out = {}
    for item in text.split(", "):
        s, _, f = item.partition("=")
        out[s] = Fraction(f)
    return out


def _json(out: str) -> dict:
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckFailure(f"structured output is not JSON: {exc}") from None


def check_analyze(check, docs, out):
    doc = docs[check["doc"]]
    rest = [s for s in doc.stages if s not in doc.bottlenecks]
    if check["format"] == "structured":
        payload = _json(out)
        _expect("throughput", Fraction(payload["throughput"]), doc.throughput)
        _expect("bottlenecks", payload["bottlenecks"], doc.bottlenecks)
        _expect("non_bottlenecks", payload["non_bottlenecks"], rest)
        _expect("pipeline", payload["pipeline"], doc.name)
    else:
        fields = _lines(out)
        _expect("throughput", Fraction(_field(fields, "throughput")), doc.throughput)
        _expect("bottlenecks", _field(fields, "bottlenecks"), ", ".join(doc.bottlenecks))
        _expect("non-bottlenecks", _field(fields, "non-bottlenecks"),
                ", ".join(rest) or "(none)")


def check_perturb(check, docs, out):
    doc = docs[check["doc"]]
    factors = doc.factors(check["scenario"])
    after = doc.perturbed(factors)
    new = min(after.values())
    after_set = [s for s in doc.stages if after[s] == new]
    outcome = "unchanged" if new == doc.throughput else "strict_increase"
    # the characterisation the outcome must agree with
    kept_one = any(factors[s] == 1 for s in doc.bottlenecks)
    _expect("unchanged iff a bottleneck kept factor 1", outcome == "unchanged", kept_one)
    departed = [s for s in doc.stages if s in doc.bottlenecks and s not in after_set]
    entered = [s for s in doc.stages if s in after_set and s not in doc.bottlenecks]
    if check["format"] == "structured":
        payload = _json(out)
        _expect("outcome", payload["outcome"], outcome)
        _expect("base_throughput", Fraction(payload["base_throughput"]), doc.throughput)
        _expect("new_throughput", Fraction(payload["new_throughput"]), new)
        witness = next((s for s in doc.bottlenecks if factors[s] == 1), None)
        _expect("witness", payload["witness"], witness)
        _expect("preserved", payload["preserved"], set(after_set) == set(doc.bottlenecks))
        _expect("departed", payload["departed"], departed)
        _expect("entered", payload["entered"], entered)
    else:
        fields = _lines(out)
        _expect("outcome", _field(fields, "outcome"), outcome)
        base_text, _, new_text = _field(fields, "throughput").partition(" -> ")
        _expect("base throughput", Fraction(base_text), doc.throughput)
        _expect("new throughput", Fraction(new_text), new)
        migration = _field(fields, "migration")
        if migration == "none":
            _expect("migration", ([], []), (departed, entered))
        else:
            left, _, joined = migration.removeprefix("departed ").partition(", entered ")
            _expect("migration", (ast.literal_eval(left), ast.literal_eval(joined)),
                    (departed, entered))


def check_ceiling(check, docs, out):
    doc = docs[check["doc"]]
    ceiling = min(doc.capacity[s] for s in doc.human)
    if check["format"] == "structured":
        payload = _json(out)
        reported = Fraction(payload["ceiling"])
        witness = {s: Fraction(f) for s, f in payload["witness"].items()}
        achieved = Fraction(payload["witness_throughput"])
        general = payload.get("generalized_ceiling")
    else:
        fields = _lines(out)
        reported = Fraction(_field(fields, "ceiling"))
        witness = _pairs(_field(fields, "witness factors"))
        achieved = Fraction(_field(fields, "witness throughput").split(" ")[0])
        general = fields.get("assist-bound ceiling (bound only)")
    _expect("ceiling", reported, ceiling)
    _expect("witness domain", sorted(witness), sorted(doc.stages))
    _expect("witness pins authority stages at 1",
            all(witness[s] == 1 for s in doc.human), True)
    _expect("witness factors >= 1", all(f >= 1 for f in witness.values()), True)
    _expect("recomputed witness throughput", min(doc.perturbed(witness).values()), ceiling)
    _expect("witness_throughput", achieved, ceiling)
    if doc.assist:
        want = min(doc.assist[s] * doc.capacity[s] for s in doc.human)
        _expect("assist-bound ceiling", None if general is None else Fraction(general), want)
    else:
        _expect("assist-bound ceiling", general, None)


def check_compare(check, docs, out):
    atk, dfn = docs[check["doc"]], docs[check["defender"]]
    scenario = check["scenario"]
    ta, td = atk.throughput, dfn.throughput
    ta_new = min(atk.perturbed(atk.factors(scenario)).values())
    td_new = min(dfn.perturbed(dfn.factors(scenario)).values())
    want = {
        "baseline_ratio": ta / td,
        "perturbed_ratio": ta_new / td_new,
        "attacker_gain": ta_new / ta,
        "defender_gain": td_new / td,
    }
    by_ratio = want["perturbed_ratio"] > want["baseline_ratio"]
    by_gain = want["attacker_gain"] > want["defender_gain"]
    _expect("ratio side agrees with gain side", by_ratio, by_gain)
    if check["format"] == "structured":
        payload = _json(out)
        got = {k: Fraction(payload[k]) for k in want}
        favours = payload["favours_attacker"]
    else:
        fields = _lines(out)
        got = {k: Fraction(_field(fields, k.replace("_", " "))) for k in want}
        favours = {"True": True, "False": False}.get(_field(fields, "favours attacker"))
    _expect("ratios", got, want)
    _expect("favours_attacker", favours, by_ratio)


def check_plan(check, docs, out):
    """Returns the relative gap of the max-min throughput to the optimum."""
    doc = docs[check["doc"]]
    budget = Fraction(check["budget"])
    caps = [doc.capacity[s] for s in doc.stages]
    if check["format"] == "structured":
        payload = _json(out)
        trivial = payload["trivial"]
        refused = "refused" in trivial
        maxmin = payload["maxmin"]
        factors = {s: Fraction(f) for s, f in maxmin["factors"].items()}
        achieved = Fraction(maxmin["throughput"])
        spent = Fraction(maxmin["spent"])
        if not refused:
            trivial_tp = Fraction(trivial["throughput"])
            trivial_spent = Fraction(trivial["spent"])
    else:
        fields = _lines(out)
        refused = "trivial allocation refused" in fields
        tp_text, _, spent_text = _field(fields, "max-min allocation").partition(", spent ")
        achieved = Fraction(tp_text.removeprefix("throughput "))
        spent = Fraction(spent_text)
        factors = _pairs(_field(fields, "factors"))
        if not refused:
            tp_text, _, spent_text = _field(
                fields, "trivial (single-bottleneck) allocation"
            ).partition(", spent ")
            trivial_tp = Fraction(tp_text.removeprefix("throughput "))
            trivial_spent = Fraction(spent_text)

    _expect("trivial allocation refused iff bottleneck tied",
            refused, len(doc.bottlenecks) > 1)
    if not refused:
        ordered = sorted(caps)
        cap = ordered[0] * (1 + budget)
        if len(ordered) > 1:
            cap = min(cap, ordered[1])
        _expect("trivial throughput", trivial_tp, cap)
        _expect("trivial spends at most the budget", trivial_spent <= budget, True)

    _expect("max-min factor domain", sorted(factors), sorted(doc.stages))
    _expect("max-min factors >= 1", all(f >= 1 for f in factors.values()), True)
    _expect("max-min spent", sum(f - 1 for f in factors.values()), spent)
    _expect("max-min spends at most the budget", spent <= budget, True)
    _expect("max-min throughput", min(doc.perturbed(factors).values()), achieved)
    optimum = maxmin_optimum(caps, budget)
    if achieved > optimum:
        raise CheckFailure(f"max-min throughput {achieved} beats the optimum {optimum}")
    return (optimum - achieved) / optimum


def check_verify(check, docs, out):
    payload = _json(out)
    _expect("passed", payload["passed"], True)
    _expect("counterexamples", payload["counterexamples"], [])
    _expect("seed", payload["seed"], check["seed"])
    _expect("count", payload["count"], check["count"])
    checks = payload["checks"]
    missing = [f for f in VERIFY_FAMILIES if f not in checks]
    _expect("missing check families", missing, [])
    _expect("instances per check family",
            {name: n for name, n in checks.items() if n != check["count"]}, {})


CHECKS = {
    "analyze": check_analyze,
    "perturb": check_perturb,
    "ceiling": check_ceiling,
    "compare": check_compare,
    "plan": check_plan,
    "verify": check_verify,
}


def check(check_spec: dict, docs: dict, status: int, out: str):
    """Raise CheckFailure unless (status, out) is the exact expected result.

    Returns the plan gap for `plan` operations and None otherwise.
    """
    if status != 0:
        raise CheckFailure(f"exit status {status}, expected 0")
    try:
        return CHECKS[check_spec["kind"]](check_spec, docs, out)
    except (KeyError, TypeError, ValueError, ZeroDivisionError, SyntaxError) as exc:
        raise CheckFailure(f"unreadable output: {type(exc).__name__}: {exc}") from None
