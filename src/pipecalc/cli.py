"""Command-line surface.

Subcommands:
  analyze   throughput and bottleneck report for a pipeline document
  perturb   classification, preservation, and migration for a scenario
  ceiling   authority ceiling, tightness witness, and assist-bound variant
            (both with a per-stage table on --explain)
  compare   attacker/defender ratio report for a document pair
  fp        plateau and decline checks for a configured scalar model
  plan      budgeted allocation (trivial and max-min)
  verify    randomized verification harness over seeded instances, or
            one instance replayed with --replay SEED:INDEX

Exit status: 0 success, 1 validation or usage error, 2 internal
verification counterexample.  Structured output renders every rational as
exact "num/den" (or integer) text, never as a decimal approximation; a
result too long for CPython's int-to-text limit is an error (exit 1) that
names the quantity.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from .adversarial import InternalCheckError, ratio_report
from .ceiling import (
    ceiling as ceiling_value,
    generalized_ceiling,
    tightness_witness,
)
from .documents import DocumentError, _exact, _json, _text, load_document
from .model import ONE, _quoted, bottleneck_report, perturbed_throughput


def _factors(factor) -> dict[str, str]:
    stages = sorted(factor)
    # text each distinct object once: ONE and a witness's N are one object each
    distinct = {id(f): f for f in factor.values()}
    try:
        texts = {i: str(f) for i, f in distinct.items()}
    except ValueError:  # the int-string digit limit: _text names the stage
        return {s: _text(factor[s], "factor of stage {}", s) for s in stages}
    return {s: texts[id(factor[s])] for s in stages}


def _explain(payload: dict, lines: list[str], p, factor, products, cls) -> None:
    """--explain: each stage's capacity, factor and perturbed value, from
    `_analyse`'s unreduced products (stage, n, d), and its role before and
    after, read off the classification `cls`; capacities and factors print
    (inputs, or a witness already printed)."""
    role = ("non-bottleneck", "bottleneck")
    base, new = cls.base_throughput, cls.new_throughput
    rows = payload["per_stage"] = []
    lines.append("per stage: capacity x factor = perturbed, role before -> after")
    for s, n, d in products:
        x = Fraction(n, d)
        row = {"stage": s, "capacity": str(p.capacity[s]), "factor": str(factor[s]),
               "perturbed": _text(x, "perturbed capacity of stage {}", s),
               "before": role[p.capacity[s] == base], "after": role[x == new]}
        rows.append(row)
        lines.append(f"  {s}: {row['capacity']} x {row['factor']} = {row['perturbed']}, "
                     f"{row['before']} -> {row['after']}")


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "structured":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_analyze(args) -> int:
    doc = load_document(args.file)
    rep = bottleneck_report(doc.pipeline)
    tp = _text(rep.throughput, "throughput")
    payload = {
        "pipeline": doc.name,
        "throughput": tp,
        "bottlenecks": list(rep.bottlenecks),
        "non_bottlenecks": list(rep.non_bottlenecks),
    }
    _emit(args, payload, [
        f"pipeline: {doc.name or args.file}",
        f"throughput: {tp}",
        f"bottlenecks: {', '.join(rep.bottlenecks)}",
        f"non-bottlenecks: {', '.join(rep.non_bottlenecks) or '(none)'}",
    ])
    return 0


def _cmd_perturb(args) -> int:
    from .characterize import _analyse
    doc = load_document(args.file)
    mult = doc.scenario(args.scenario)
    cls, pres, migr, products = _analyse(doc.pipeline, mult)
    base = _text(cls.base_throughput, "base throughput")
    new = _text(cls.new_throughput, "new throughput")
    common = (None if pres.common_factor is None
              else _text(pres.common_factor, "common factor"))
    payload = {
        "scenario": args.scenario or "(identity)",
        "outcome": cls.outcome.value,
        "base_throughput": base,
        "new_throughput": new,
        "witness": cls.witness,
        "preserved": pres.preserved,
        "condition_i": pres.condition_i,
        "condition_ii": pres.condition_ii,
        "common_factor": common,
        "departed": list(migr.departed),
        "entered": list(migr.entered),
    }
    lines = [
        f"scenario: {args.scenario or '(identity)'}",
        f"outcome: {cls.outcome.value}",
        f"throughput: {base} -> {new}",
    ]
    if cls.witness is not None:
        lines.append(f"unchanged because bottleneck {cls.witness!r} kept factor 1")
    lines.append(
        f"bottleneck set preserved: {pres.preserved} "
        f"(common factor on bottlenecks: {pres.condition_i}, "
        f"separation below others: {pres.condition_ii})"
    )
    if migr.departed or migr.entered:
        lines.append(
            f"migration: departed {list(migr.departed)}, entered {list(migr.entered)}"
        )
    else:
        lines.append("migration: none")
    if args.explain:
        _explain(payload, lines, doc.pipeline, mult.factor, products, cls)
    _emit(args, payload, lines)
    return 0


def _cmd_ceiling(args) -> int:
    doc = load_document(args.file)
    if doc.authority is None:
        raise DocumentError("document has no authority section")
    h = doc.authority
    cap = _text(ceiling_value(doc.pipeline, h), "ceiling")
    witness = tightness_witness(doc.pipeline, h)
    achieved = _text(perturbed_throughput(doc.pipeline, witness),
                     "witness throughput")
    factors = _factors(witness.factor)
    payload = {
        "ceiling": cap,
        "witness": factors,
        "witness_throughput": achieved,
    }
    lines = [
        f"pinned stages: {', '.join(sorted(h.human_stages))}",
        f"ceiling: {cap}",
        "witness factors: " + ", ".join(f"{s}={f}" for s, f in factors.items()),
        f"witness throughput: {achieved} (achieves the ceiling exactly)",
    ]
    if h.assist_bound is not None:
        gen = _text(generalized_ceiling(doc.pipeline, h), "assist-bound ceiling")
        payload["generalized_ceiling"] = gen
        lines.append(f"assist-bound ceiling (bound only): {gen}")
    if args.explain:
        from .characterize import _analyse
        cls, _, _, products = _analyse(doc.pipeline, witness)
        _explain(payload, lines, doc.pipeline, witness.factor, products, cls)
    _emit(args, payload, lines)
    return 0


def _cmd_compare(args) -> int:
    atk = load_document(args.attacker)
    dfn = load_document(args.defender)
    rep = ratio_report(atk.pipeline, atk.scenario(args.scenario),
                       dfn.pipeline, dfn.scenario(args.scenario))
    payload = {
        key: _text(getattr(rep, key), key.replace("_", " "))
        for key in ("baseline_ratio", "perturbed_ratio",
                    "attacker_gain", "defender_gain")
    }
    payload["favours_attacker"] = rep.favours_attacker
    _emit(args, payload, [
        f"baseline ratio:  {payload['baseline_ratio']}",
        f"perturbed ratio: {payload['perturbed_ratio']}",
        f"attacker gain:   {payload['attacker_gain']}",
        f"defender gain:   {payload['defender_gain']}",
        f"favours attacker: {rep.favours_attacker}",
    ])
    return 0


def _section(cfg: dict, key: str) -> dict:
    if not isinstance(cfg[key], dict):
        raise DocumentError(f"model file section {key!r} must be an object")
    return cfg[key]


def _field(section: dict, key: str, where: str):
    if key not in section:
        raise DocumentError(f"model file section {where!r} is missing {key!r}")
    return section[key]


def _number(section: dict, key: str, where: str) -> Fraction:
    return _exact(_field(section, key, where), key)


def _table_points(pc: dict) -> list[tuple[Fraction, Fraction]]:
    points = _field(pc, "points", "precision")
    if not isinstance(points, list) or not all(
        isinstance(pt, list) and len(pt) == 2 for pt in points
    ):
        raise DocumentError("precision points must be [rate, precision] pairs")
    return [(_exact(lam, "table rate"), _exact(p, "table precision"))
            for lam, p in points]


# each family's precision, from the falsepos module and the model file section
_PRECISION_FAMILIES = {
    "constant": lambda fp, pc: fp.ConstantPrecision(_number(pc, "level", "precision")),
    "rational_decay": lambda fp, pc: fp.RationalDecayPrecision(
        _number(pc, "coefficient", "precision")),
    "table": lambda fp, pc: fp.TablePrecision(_table_points(pc)),
}


def _cmd_fp(args) -> int:
    from . import falsepos
    try:
        with open(args.file, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: the file is not UTF-8
        raise DocumentError(f"cannot read model file: {exc}") from None
    cfg = _json(text, "cannot read model file")
    if not isinstance(cfg, dict):
        raise DocumentError("model file root must be an object")
    raw_samples = cfg.get("samples", [])
    if not isinstance(raw_samples, list):
        raise DocumentError("model file 'samples' must be a list")
    if "fixed_fraction" not in cfg and "precision" not in cfg:
        raise DocumentError(
            "model file has neither a 'fixed_fraction' nor a 'precision' "
            "section, so there is nothing to check"
        )

    payload: dict = {}
    lines: list[str] = []
    status = 0
    samples = [_exact(s, "sample") for s in raw_samples]

    if "fixed_fraction" in cfg:
        ff = _section(cfg, "fixed_fraction")
        model = falsepos.FixedFractionModel(
            _number(ff, "false_positive_fraction", "fixed_fraction"),
            _number(ff, "investigation_capacity", "fixed_fraction"),
        )
        above = [s for s in samples if s > model.investigation_capacity]
        verdict = falsepos.plateau_check(model, above)
        common = _text(verdict.common_value, "plateau value")
        payload["plateau"] = {
            "passed": verdict.passed,
            "common_value": common,
            "samples_checked": verdict.samples_checked,
        }
        lines.append(
            f"fixed-fraction plateau: {'pass' if verdict.passed else 'FAIL'} "
            f"(common value {common} over "
            f"{verdict.samples_checked} samples)"
        )
        if not verdict.passed:
            status = 2
        for lam in samples:
            lines.append(f"  U({_text(lam, 'sample')}) = "
                         f"{_text(falsepos.simple_useful(lam, model), 'useful rate')}")

    if "precision" in cfg:
        pc = _section(cfg, "precision")
        family = pc.get("family")
        if not isinstance(family, str) or family not in _PRECISION_FAMILIES:
            raise DocumentError(
                f"unknown precision family {_quoted(family)}; "
                f"have {sorted(_PRECISION_FAMILIES)}"
            )
        p = _PRECISION_FAMILIES[family](falsepos, pc)
        c_inv = _number(pc, "investigation_capacity", "precision")
        above = sorted({s for s in samples if s > c_inv})
        verdict = falsepos.decline_check(p, c_inv, above)
        values = [_text(v, "useful rate") for v in verdict.values]
        payload["decline"] = {
            "passed": verdict.passed,
            "mode": verdict.mode,
            "values": values,
        }
        lines.append(
            f"precision-model {verdict.mode}: "
            f"{'pass' if verdict.passed else 'FAIL'}"
        )
        for lam, val in zip(above, values):
            lines.append(f"  U_p({_text(lam, 'sample')}) = {val}")
        if not verdict.passed:
            status = 2

    _emit(args, payload, lines)
    return status


def _allocation(result, factors: bool) -> dict:
    """Texts of factors, throughput and spent, made in that order so that both
    formats refuse the same one first; without `factors`, for the trivial
    line of text output, raised factors are texted only to be refused."""
    factor = result.multiplier.factor
    if factors:
        texts = {"factors": _factors(factor)}
    else:
        _factors({s: f for s, f in factor.items() if f is not ONE})
        texts = {}
    texts["throughput"] = _text(result.achieved_throughput, "planned throughput")
    texts["spent"] = _text(result.spent, "spent budget")
    return texts


def _cmd_plan(args) -> int:
    from .planner import CostModel, TiedBottleneckError, maxmin_allocation, trivial_allocation
    doc = load_document(args.file)
    cost = CostModel.uniform(doc.pipeline, _exact(args.budget, "budget"),
                             _exact(args.unit_cost, "unit cost"))
    budget = _text(cost.budget, "budget")
    structured = args.format == "structured"
    try:
        trivial = _allocation(trivial_allocation(doc.pipeline, cost), structured)
    except TiedBottleneckError as exc:
        trivial = {"refused": str(exc)}
    maxmin = _allocation(maxmin_allocation(doc.pipeline, cost), True)

    lines = []  # only the requested format is rendered
    if not structured:
        lines = [
            f"budget: {budget} (unit cost {args.unit_cost} per stage)",
            f"trivial allocation refused: {trivial['refused']}" if "refused" in trivial
            else f"trivial (single-bottleneck) allocation: throughput "
                 f"{trivial['throughput']}, spent {trivial['spent']}",
            f"max-min allocation: throughput {maxmin['throughput']}, "
            f"spent {maxmin['spent']}",
            "  factors: " + ", ".join(f"{s}={f}" for s, f in maxmin["factors"].items()),
        ]
    _emit(args, {"budget": budget, "trivial": trivial, "maxmin": maxmin}, lines)
    return 0


def _cmd_verify(args) -> int:
    from . import harness
    if args.replay is not None:
        return _replay(args)
    cfg = harness.GeneratorConfig(
        seed=args.seed, instance_count=args.count, max_stages=args.max_stages
    )
    verdict = harness.verify_all(cfg)
    if args.format == "structured":
        sys.stdout.write(harness.structured_report(verdict))
    else:
        sys.stdout.write(harness.text_report(verdict))
    return 0 if verdict.passed else 2


def _int(text: str) -> int:
    """argparse's `type=int`, with an over-long value quoted cut."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_quoted(text)}") from None


def _replay_target(text: str) -> tuple[int, int]:
    """SEED:INDEX of one verify instance, as a counterexample names it."""
    try:
        if re.fullmatch(r"-?[0-9]+:[0-9]+", text):
            seed, index = text.split(":")
            return int(seed), int(index)
    except ValueError:  # more digits than CPython converts to an int
        pass
    raise argparse.ArgumentTypeError(
        f"{_quoted(text)} is not SEED:INDEX (two integers, INDEX >= 0)")


def _replay(args) -> int:
    """Instance SEED:INDEX re-run through every check family, with the
    values `verify_characterizations` reads (none if that check raises)."""
    from . import harness
    from .characterize import verify_characterizations
    seed, index = args.replay
    cfg = harness.GeneratorConfig(seed=seed, max_stages=args.max_stages)
    results = harness.verify_instance(cfg, index)
    try:
        detail = verify_characterizations(*harness.generate_instance(cfg, index)).detail
    except Exception:  # verify_instance has already recorded it as a failure
        detail = {}
    # rationals as exact text; the bottleneck lists are stage ids already
    detail = {key: {s: str(x) for s, x in value.items()} if isinstance(value, dict)
              else value if isinstance(value, list) else str(value)
              for key, value in detail.items()}
    passed = not any(results.values())
    lines = [f"replay of seed={seed} index={index} (max stages {args.max_stages})"]
    for name, failures in results.items():
        lines.append(f"  {name}: {'FAIL' if failures else 'pass'}")
        lines.extend(f"    {message}" for message in failures)
    lines.append("characterization detail:" if detail else
                 "characterization detail: none")
    for key, value in detail.items():
        if isinstance(value, dict):
            value = ", ".join(f"{s}={x}" for s, x in value.items())
        elif isinstance(value, list):
            value = ", ".join(value)
        lines.append(f"  {key}: {value}")
    _emit(args, {"seed": seed, "index": index, "max_stages": args.max_stages,
                 "passed": passed, "checks": results, "detail": detail}, lines)
    return 0 if passed else 2


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors (exit 1); exit 2 is reserved for
    # verification counterexamples
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


_EXPLAIN = {"action": "store_true", "help": "add a per-stage table: capacity, "
            "factor, perturbed value, and role before and after"}

# each subcommand's function, help line and arguments after --format, in order:
# the one definition that the whole parser and the one-command parsers read
_COMMANDS = {
    "analyze": (_cmd_analyze, "throughput and bottleneck report", {"file": {}}),
    "perturb": (_cmd_perturb, "apply a named scenario and classify it",
                {"file": {}, "--scenario": {"default": None}, "--explain": _EXPLAIN}),
    "ceiling": (_cmd_ceiling, "authority ceiling and tightness witness",
                {"file": {}, "--explain": _EXPLAIN}),
    "compare": (_cmd_compare, "attacker/defender ratio report",
                {"attacker": {}, "defender": {}, "--scenario": {"default": None}}),
    "fp": (_cmd_fp, "plateau and decline checks for a scalar model", {"file": {}}),
    "plan": (_cmd_plan, "budgeted improvement allocation",
             {"file": {}, "--budget": {"required": True}, "--unit-cost": {"default": "1"}}),
    "verify": (_cmd_verify, "randomized verification harness", {
        "--seed": {"type": _int, "default": 0},
        "--count": {"type": _int, "default": 10_000},
        "--max-stages": {"type": _int, "default": 8},
        "--replay": {"type": _replay_target, "default": None, "metavar": "SEED:INDEX",
                     "help": "re-run one instance, showing each check and the "
                             "values behind it (--count is not used)"}}),
}


def _define(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """`parser`, given subcommand `name`'s function and arguments."""
    func, _, arguments = _COMMANDS[name]
    parser.set_defaults(func=func)
    parser.add_argument("--format", choices=["text", "structured"], default="text")
    for flag, options in arguments.items():
        parser.add_argument(flag, **options)
    return parser


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one: parsing keeps no state in it, and callers must not change
    it."""
    parser = _Parser(
        prog="pipecalc",
        description="Exact bottleneck-throughput analysis for serial pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        _define(sub.add_parser(name, help=help_text), name)
    return parser


@functools.lru_cache(maxsize=None)
def _command_parser(name: str) -> argparse.ArgumentParser:
    """Subcommand `name`'s parser alone, as `build_parser` makes it, built
    on first use and shared in the same way."""
    return _define(_Parser(prog=f"pipecalc {name}"), name)


def main(argv=None) -> int:
    """Run one command line: the named subcommand's own parser reads it, and
    argv that this parser cannot read whole is read again by the whole one."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        unread = True
        if argv and argv[0] in _COMMANDS:
            args, unread = _command_parser(argv[0]).parse_known_args(argv[1:])
        if unread:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the flush at exit
        return status
    except ValueError as exc:  # every validation error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalCheckError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout early (`| head`)
        # point stdout at devnull, so that the flush at exit cannot raise again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
