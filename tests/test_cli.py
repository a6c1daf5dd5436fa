import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pipecalc.harness as harness
from pipecalc.cli import build_parser, main
from pipecalc.documents import DocumentError, parse_document, serialize_document
from test_documents import EXAMPLE_DOC


def _file(tmp_path, name: str, content) -> str:
    """Path of file `name` in tmp_path, holding `content`: text as given,
    anything else as JSON."""
    path = tmp_path / name
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    return str(path)


def _doc(tmp_path, capacities: dict, **parts) -> str:
    """Path of a document with these stage capacities, in order, and any other
    top-level sections (authority, scenarios) as given."""
    stages = [{"id": s, "capacity": c} for s, c in capacities.items()]
    return _file(tmp_path, "doc.json",
                 {"format_version": "1", "pipeline": {"stages": stages}, **parts})


@pytest.fixture
def doc_path(tmp_path):
    return _file(tmp_path, "pipeline.json", EXAMPLE_DOC)


class TestAnalyze:
    def test_text(self, doc_path, capsys):
        assert main(["analyze", doc_path]) == 0
        out = capsys.readouterr().out
        assert "throughput: 1" in out
        assert "bottlenecks: b" in out

    def test_structured(self, doc_path, capsys):
        assert main(["analyze", doc_path, "--format", "structured"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["throughput"] == "1"
        assert payload["bottlenecks"] == ["b"]

    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")

    # one value of the worked example replaced: nothing on stdout, one named error
    @pytest.mark.parametrize("path, value, message", [
        (["format_version"], None, "unsupported format_version None (expected '1')"),
        (["pipeline"], None, "missing pipeline.stages"),
        (["pipeline", "stages"], {"a": "3"}, "pipeline.stages must be a list of stage records"),
        (["pipeline", "stages"], [],
         "invalid pipeline: assumption 1 violated: stage set is empty"),
        (["pipeline", "stages", 0, "capacity"], "0", "invalid pipeline: assumption 2 "
         "violated: capacity of stage 'a' is 0 (must be > 0)"),
        (["pipeline", "stages", 0, "id"], ["x"], "stage id ['x'] must be text"),
        (["authority", "human_stages"], "ab",
         "authority.human_stages must be a list of stage ids"),
        (["authority", "human_stages"], ["ghost"], "authority names unknown stages ['ghost']"),
        (["authority", "assist_bounds"], ["2"],
         "authority.assist_bounds must map stage ids to bounds"),
        (["authority", "assist_bounds", "a"], "1/2",
         "invalid authority: assist bounds below 1: ['a']"),
        (["scenarios"], [], "scenarios must map scenario names to factor maps"),
        (["scenarios", "boost"], {"ghost": "2"},
         "scenario 'boost' names unknown stages ['ghost']"),
        # read by Fraction from Python 3.11 and 3.12 on, refused on every one
        (["pipeline", "stages", 0, "capacity"], "1_000", "capacity of stage 'a' is not an "
         "exact rational: Invalid literal for Fraction: '1_000'"),
        (["pipeline", "stages", 0, "capacity"], "3 / 4", "capacity of stage 'a' is not an "
         "exact rational: Invalid literal for Fraction: '3 / 4'"),
    ], ids=["no-format-version", "no-pipeline", "stages-not-list", "no-stages", "zero-capacity",
            "stage-id-not-text", "human-stages-text", "authority-unknown-stage",
            "assist-bounds-list", "assist-bound-below-one", "scenarios-list",
            "scenario-unknown-stage", "underscore-capacity", "spaced-ratio-capacity"])
    def test_malformed_section_exits_1(self, tmp_path, capsys, path, value, message):
        bad = _file(tmp_path, "bad.json", replaced(json.loads(EXAMPLE_DOC), path, value))
        assert main(["analyze", bad]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestPerturb:
    def test_identity_is_unchanged(self, doc_path, capsys):
        assert main(["perturb", doc_path]) == 0
        assert "unchanged" in capsys.readouterr().out

    def test_scenario(self, doc_path, capsys):
        assert main([
            "perturb", doc_path, "--scenario", "boost",
            "--format", "structured",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "strict_increase"
        assert payload["new_throughput"] == "2"
        assert payload["preserved"] is True

    def test_unknown_scenario(self, doc_path, capsys):
        assert main(["perturb", doc_path, "--scenario", "nope"]) == 1


class TestCeiling:
    def test_report(self, doc_path, capsys):
        assert main(["ceiling", doc_path, "--format", "structured"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ceiling"] == "3"
        assert payload["witness_throughput"] == "3"
        assert payload["generalized_ceiling"] == "6"

    def test_requires_authority(self, tmp_path, capsys):
        doc = json.loads(EXAMPLE_DOC)
        del doc["authority"]
        path = _file(tmp_path, "no_auth.json", doc)
        assert main(["ceiling", path]) == 1


def _run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def _row(stage, capacity, factor, perturbed, before, after):
    return {"stage": stage, "capacity": capacity, "factor": factor,
            "perturbed": perturbed, "before": before, "after": after}


B, N = "bottleneck", "non-bottleneck"


class TestExplain:
    # the worked example a=3, b=1, c=4: "boost" doubles b; the ceiling pins
    # a, so its witness raises b and c by 4
    @pytest.mark.parametrize("argv, rows", [
        (["perturb", "{doc}", "--scenario", "boost"],
         [_row("a", "3", "1", "3", N, N), _row("b", "1", "2", "2", B, B),
          _row("c", "4", "1", "4", N, N)]),
        (["ceiling", "{doc}"],
         [_row("a", "3", "1", "3", N, B), _row("b", "1", "4", "4", B, N),
          _row("c", "4", "4", "16", N, N)]),
    ], ids=["perturb", "ceiling"])
    def test_worked_example(self, doc_path, capsys, argv, rows):
        argv = [a.format(doc=doc_path) for a in argv]
        # the table follows the unchanged lines, and joins the unchanged keys
        table = "per stage: capacity x factor = perturbed, role before -> after\n"
        table += "".join(f"  {r['stage']}: {r['capacity']} x {r['factor']} = "
                         f"{r['perturbed']}, {r['before']} -> {r['after']}\n"
                         for r in rows)
        assert _run([*argv, "--explain"], capsys) == (0, _run(argv, capsys)[1] + table)
        structured = [*argv, "--format", "structured"]
        plain = json.loads(_run(structured, capsys)[1])
        assert _run([*structured, "--explain"], capsys) == (
            0, json.dumps({**plain, "per_stage": rows}, indent=2, sort_keys=True) + "\n")

    def test_unprintable_product_is_named(self, tmp_path, capsys):
        # a's product 10**4300 has 4301 digits; the throughput is b's 1
        path = _doc(tmp_path, {"a": "1e4299", "b": "1"}, scenarios={"up": {"a": "10"}})
        argv = ["perturb", path, "--scenario", "up"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv, "--explain"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: perturbed capacity of stage 'a' has too "
                                "many digits to print exactly\n")


class TestCompare:
    def test_identity_vs_identity(self, doc_path, capsys):
        assert main([
            "compare", doc_path, doc_path, "--format", "structured",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["favours_attacker"] is False
        assert payload["baseline_ratio"] == payload["perturbed_ratio"] == "1"

    def test_attacker_scenario(self, doc_path, capsys):
        # 'boost' raises each side's bottleneck; applied to both, gains tie
        assert main([
            "compare", doc_path, doc_path, "--scenario", "boost",
            "--format", "structured",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["attacker_gain"] == payload["defender_gain"] == "2"
        assert payload["favours_attacker"] is False

    def test_unreadable_defender_named(self, doc_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff{}")
        assert main(["compare", doc_path, str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff in "
            "position 0: invalid start byte\n")


class TestFp:
    @pytest.mark.parametrize("target, planted, section", [
        ("ConstantPrecision.value", lambda self, lam: 1 / lam, "plateau"),
        ("RationalDecayPrecision.value", lambda self, lam: Fraction(1, 2), "decline"),
    ], ids=["plateau", "decline"])
    def test_failing_check_exits_2(self, tmp_path, capsys, monkeypatch,
                                   target, planted, section):
        path = _file(tmp_path, "fp.json", FP_MODELS["rational_decay"])
        monkeypatch.setattr(f"pipecalc.falsepos.{target}", planted)
        assert main(["fp", path, "--format", "structured"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert [payload[s]["passed"] for s in ("plateau", "decline")] == [
            s != section for s in ("plateau", "decline")]

    def test_table_rising_across_capacity_refused(self, tmp_path, capsys):
        # a rise on the segment that straddles the capacity breaks the
        # hypothesis of Proposition 6: a refusal, not an internal defect
        path = _file(tmp_path, "fp.json", {
            "precision": {"family": "table", "investigation_capacity": "2",
                          "points": [["1", "1/2"], ["4", "1"], ["8", "1/4"]]},
            "samples": ["5/2", "7/2"]})
        assert main(["fp", path]) == 1
        assert capsys.readouterr().err == (
            "error: precision function is not strictly decreasing above the "
            "investigation capacity\n")

    def test_overlong_integer_refused(self, tmp_path, capsys):
        path = _file(tmp_path, "fp.json", '{"samples": [' + "9" * 5000 + "]}")
        assert main(["fp", path]) == 1
        assert "cannot read model file" in capsys.readouterr().err

    # exponential decay was the one family without exact values; it is gone
    @pytest.mark.parametrize("family", ["mystery", "exponential_decay"])
    def test_unknown_family(self, tmp_path, capsys, family):
        path = _file(tmp_path, "fp.json", {
            "precision": {"family": family, "coefficient": "1/10",
                          "investigation_capacity": "1"},
        })
        assert main(["fp", path]) == 1
        assert capsys.readouterr().err == (
            f"error: unknown precision family {family!r}; "
            "have ['constant', 'rational_decay', 'table']\n")

    def test_long_unknown_family_is_cut(self, tmp_path, capsys):
        path = _file(tmp_path, "fp.json", {"precision": {"family": "f" * 100_000}})
        assert main(["fp", path]) == 1
        assert capsys.readouterr().err == (
            f"error: unknown precision family '{'f' * 59}... (a str, cut); "
            "have ['constant', 'rational_decay', 'table']\n")

    @pytest.mark.parametrize("model, name", [
        ({"fixed_fraction": {"false_positive_fraction": "1/2",
                             "investigation_capacity": "10"},
          "samples": [6.1]}, "sample"),
        ({"fixed_fraction": {"false_positive_fraction": 0.1,
                             "investigation_capacity": "10"}},
         "false_positive_fraction"),
    ], ids=["float-sample", "float-parameter"])
    def test_floats_refused(self, tmp_path, capsys, model, name):
        path = _file(tmp_path, "fp.json", model)
        assert main(["fp", path]) == 1
        assert f"{name} must be exact text" in capsys.readouterr().err

    @pytest.mark.parametrize("model, message", [
        ({"fixed_fraction": {"false_positive_fraction": "1/2"}},
         "'fixed_fraction' is missing 'investigation_capacity'"),
        ({"precision": {"family": "constant", "investigation_capacity": "1"}},
         "'precision' is missing 'level'"),
        ({"precision": {"family": "rational_decay", "coefficient": "1/10"}},
         "'precision' is missing 'investigation_capacity'"),
        ({"precision": {"family": "table", "investigation_capacity": "1"}},
         "'precision' is missing 'points'"),
        ({"fixed_fraction": "1/2"}, "'fixed_fraction' must be an object"),
        ({"precision": ["constant"]}, "'precision' must be an object"),
        (["samples"], "root must be an object"),
        ({"samples": "123"}, "'samples' must be a list"),
        ({"precision": {"family": "table", "investigation_capacity": "1",
                        "points": [["1", "1", "1"]]}}, "points must be"),
        # refused even though no sample lies above it
        ({"precision": {"family": "rational_decay", "coefficient": "1/10",
                        "investigation_capacity": "-3"}, "samples": []},
         "error: investigation capacity -3 must be > 0\n"),
    ], ids=["missing-fixed-fraction-key", "missing-level",
            "missing-precision-capacity", "missing-points",
            "fixed-fraction-not-object", "precision-not-object",
            "root-not-object", "samples-not-list", "points-not-pairs",
            "nonpositive-capacity-no-samples"])
    def test_malformed_model_file(self, tmp_path, capsys, model, message):
        path = _file(tmp_path, "fp.json", model)
        assert main(["fp", path]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "{}", json.dumps({"samples": ["20", "40"]}), EXAMPLE_DOC,
    ], ids=["empty", "samples-only", "pipeline-document"])
    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_nothing_to_check_refused(self, tmp_path, capsys, text, fmt):
        path = _file(tmp_path, "fp.json", text)
        assert main(["fp", path, "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "neither a 'fixed_fraction' nor a 'precision' section" in captured.err

    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "nope.json"
        assert main(["fp", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read model file: ")


# one model file per precision family, each with a fixed-fraction section and
# samples below, at and above the investigation capacity
FP_MODELS = {
    "constant": {
        "fixed_fraction": {"false_positive_fraction": "1/3",
                           "investigation_capacity": "10"},
        "precision": {"family": "constant", "level": "2/3",
                      "investigation_capacity": "10"},
        "samples": ["4", "10", "12.5", "20", "40"],
    },
    "rational_decay": {
        "fixed_fraction": {"false_positive_fraction": "0",
                           "investigation_capacity": "7/2"},
        "precision": {"family": "rational_decay", "coefficient": "1/10",
                      "investigation_capacity": "7/2"},
        "samples": ["1", "7/2", "5", "100", "5"],
    },
    "table": {
        "fixed_fraction": {"false_positive_fraction": "9/10",
                           "investigation_capacity": "10"},
        "precision": {"family": "table", "investigation_capacity": "10",
                      "points": [["5", "1"], ["10", "9/10"], ["20", "1/2"],
                                 ["40", "1/4"]]},
        "samples": ["5", "10", "15", "20", "40"],
    },
}

# sha256 of stdout, stderr and exit code of `fp` on each model file
FP_DIGESTS = {
    ("constant", "text"):
        "0f9f71d90baaa5eee23b6f8513c70bdeb1687ffebef0546e8c51178d644cb75c",
    ("constant", "structured"):
        "e22dbd9450bc7bacf2fa1f40d80c654608446cd0425d5ac0e5a5f9f703450ef6",
    ("rational_decay", "text"):
        "532dc4509e1737c4dd86ca137898e8ad687c8dcee0592c19badc57eb85e40afa",
    ("rational_decay", "structured"):
        "5569d3609864224a474ca4c3c26e77f36a3259eae35beac0c149f3695c7f7f6f",
    ("table", "text"):
        "0e60c572783d0ed8804196f75272148fc7d62e61a99c67abf3527c17140245d1",
    ("table", "structured"):
        "746b43a07073916f7872e6ff4222fd85a65f3788ae993b08a355c0d71cf8ec27",
}


@pytest.mark.parametrize("family, fmt", list(FP_DIGESTS),
                         ids=[f"{family}-{fmt}" for family, fmt in FP_DIGESTS])
def test_fp_output_is_unchanged(tmp_path, capsys, family, fmt):
    path = _file(tmp_path, "fp.json", FP_MODELS[family])
    code = main(["fp", path, "--format", fmt])
    captured = capsys.readouterr()
    digest = hashlib.sha256(f"{captured.out}\0{captured.err}\0{code}\0".encode())
    assert digest.hexdigest() == FP_DIGESTS[(family, fmt)]


class TestPlan:
    def test_budget_one(self, doc_path, capsys):
        assert main([
            "plan", doc_path, "--budget", "1", "--format", "structured",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["trivial"]["throughput"] == "2"
        assert payload["trivial"]["spent"] == "1"

    def test_maxmin_spends_budget_exactly(self, doc_path, capsys):
        assert main([
            "plan", doc_path, "--budget", "6", "--format", "structured",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["maxmin"]["throughput"] == "108/19"
        assert payload["maxmin"]["spent"] == "6"

    def test_tolerance_is_a_usage_error(self, doc_path, capsys):
        assert main([
            "plan", doc_path, "--budget", "1", "--tolerance", "1/1024",
        ]) == 1

    @pytest.mark.parametrize("flag, value, name", [
        ("--budget", "1/0", "budget"),
        ("--budget", "abc", "budget"),
        ("--unit-cost", "1/0", "unit cost"),
        ("--unit-cost", "abc", "unit cost"),
    ], ids=["--budget-1/0-budget", "--budget-abc-budget",
            "--unit-cost-1/0-unit-cost", "--unit-cost-abc-unit-cost"])
    def test_inexact_number_refused(self, doc_path, capsys, flag, value, name):
        argv = ["plan", doc_path, "--budget", "1", flag, value]
        assert main(argv) == 1
        assert f"{name} is not an exact rational" in capsys.readouterr().err

    # an exact value whose exponent is too large to expand: the refusal
    # names its size, not its form
    @pytest.mark.parametrize("flag, name", [("--budget", "budget"),
                                            ("--unit-cost", "unit cost")],
                             ids=["--budget-budget", "--unit-cost-unit-cost"])
    def test_huge_exponent_refused(self, doc_path, capsys, flag, name):
        assert main(["plan", doc_path, "--budget", "1", flag, "1e5000"]) == 1
        assert capsys.readouterr().err == (
            f"error: {name} has a decimal exponent above 4300 in magnitude, "
            "too large to expand exactly\n")


class TestVerify:
    def test_small_run(self, capsys):
        assert main(["verify", "--seed", "42", "--count", "25"]) == 0
        assert "all checks passed" in capsys.readouterr().out
        assert main(["verify", "--count", "25", "--max-stages", "1"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    # sha256 of each report as first recorded; any drift in a generator or a
    # check family changes it
    @pytest.mark.parametrize("argv, expected", [
        ("verify --seed 20260823 --count 10000 --format structured",
         "62f3102a54d710671f0c5c8e1a8cbc6ebcc7cc4e116d10a75a74055c8617a688"),
        ("verify --replay=20260823:0",
         "037182fa1c39ff3a5c02389e2aa260da0e9dfb5e2118e572c63e6e26d19aa6e2"),
        ("verify --replay=20260823:0 --format structured",
         "a1f61fef4378e1e60ec4ca8c21c4f63f7ec6fec44b604c40e04bdbf98d87ac49"),
    ], ids=["verify-10000", "replay-text", "replay-structured"])
    def test_structured_report_is_unchanged(self, capsys, argv, expected):
        assert main(argv.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == expected

    def test_raising_check_family_exits_2(self, capsys, monkeypatch):
        def raising(attacker, aA, defender, aD):
            raise RuntimeError("planted defect")

        monkeypatch.setattr(harness, "ratio_report", raising)
        assert main(["verify", "--seed", "5", "--count", "2"]) == 2
        out = capsys.readouterr().out
        assert ("[adversarial] seed=5 index=1: "
                "RuntimeError: planted defect") in out

    @pytest.mark.parametrize("flag", ["--seed", "--count", "--max-stages"])
    @pytest.mark.parametrize("value, quoted", [
        ("1.5", "'1.5'"), ("1" * 5000, f"'{'1' * 59}... (a str, cut)")],
        ids=["short", "5000-digits"])
    def test_invalid_int_is_quoted_cut(self, capsys, flag, value, quoted):
        # argparse's own wording, with an over-long value cut
        assert main(["verify", flag, value]) == 1
        assert capsys.readouterr().err == (
            f"pipecalc verify: error: argument {flag}: invalid int value: {quoted}\n")


class TestReplay:
    @staticmethod
    def _identity_witness(monkeypatch):
        # a planted defect: the witness raises no stage, so it misses the
        # ceiling whenever a machine stage is the overall bottleneck
        monkeypatch.setattr(harness, "tightness_witness",
                            lambda p, h: harness.Multiplier.identity(p))

    @pytest.mark.parametrize("flags, suffix", [
        ([], ""), (["--max-stages", "5"], " --max-stages 5")],
        ids=["no-flags", "max-stages-5"])
    def test_printed_command_reproduces_the_failure(self, capsys, monkeypatch,
                                                    flags, suffix):
        self._identity_witness(monkeypatch)
        assert main(["verify", "--seed", "11", "--count", "30", *flags]) == 2
        lines = capsys.readouterr().out.splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("  ["))
        check, _, message = lines[first].partition("] ")[2].partition(": ")
        index = lines[first].split("index=")[1].partition(":")[0]
        command = lines[first + 1]
        assert command == f"    replay: pipecalc verify --replay=11:{index}{suffix}"
        ceiling_failures = [line.partition(": ")[2] for line in lines
                            if line.startswith(f"  [ceiling] seed=11 index={index}:")]

        assert main(command.split()[2:]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out[0] == (f"replay of seed=11 index={index} "
                          f"(max stages {5 if suffix else 8})")
        at = out.index("  ceiling: FAIL")
        assert out[at + 1:at + 1 + len(ceiling_failures)] == [
            f"    {m}" for m in ceiling_failures]
        assert f"    {message}" in out
        assert "  characterizations: pass" in out

    def test_passing_instance_shows_its_values(self, capsys):
        # s3 and s4 tie as bottlenecks, and s4's factor 2 lifts it past s3
        assert main(["verify", "--replay", "5:26"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [f"  {name}: pass" for name in (
            "characterizations", "monotonicity", "ceiling", "adversarial", "falsepos")] + [
            "characterization detail:", "  base_throughput: 2", "  new_throughput: 3",
            "  bottlenecks_before: s3, s4", "  bottlenecks_after: s3",
            "  factors: s1=1, s2=5, s3=3/2, s4=2", "  capacities: s1=5, s2=6, s3=2, s4=2"]

    def test_structured_replay(self, capsys):
        assert main(["verify", "--replay", "5:3", "--max-stages", "3",
                     "--format", "structured"]) == 0
        payload = json.loads(capsys.readouterr().out)
        p, _ = harness.generate_instance(
            harness.GeneratorConfig(seed=5, max_stages=3), 3)
        assert (payload["seed"], payload["index"], payload["max_stages"]) == (5, 3, 3)
        assert payload["passed"] is True
        assert payload["checks"] == dict.fromkeys(
            ("adversarial", "ceiling", "characterizations", "falsepos",
             "monotonicity"), [])
        assert payload["detail"]["capacities"] == {
            s: str(c) for s, c in p.capacity.items()}

    def test_raising_family_has_no_detail(self, capsys, monkeypatch):
        def raising(p, a):
            raise RuntimeError("planted")

        monkeypatch.setattr(harness, "verify_characterizations", raising)
        monkeypatch.setattr("pipecalc.characterize.verify_characterizations", raising)
        # a negative seed needs the --replay=SEED:INDEX spelling the report prints
        assert main(["verify", "--replay=-4:0"]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out[1:3] == ["  characterizations: FAIL",
                            "    RuntimeError: planted"]
        assert out[-1] == "characterization detail: none"

    @pytest.mark.parametrize("target", [
        "5", "5:", ":3", "a:1", "1:-1", "1:2:3", "1.0:2", " 1:2", "١:2", ""], ids=[
        "5", "5:", ":3", "a:1", "1:-1", "1:2:3", "1.0:2", "leading-space", "١:2", "empty"])
    def test_malformed_target_exits_1(self, capsys, target):
        assert main(["verify", f"--replay={target}"]) == 1
        err = capsys.readouterr().err
        assert err == ("pipecalc verify: error: argument --replay: "
                       f"{target!r} is not SEED:INDEX (two integers, INDEX >= 0)\n")

    def test_overlong_target_is_quoted_cut(self, capsys):
        target = "1" * 5000 + ":1"
        assert main(["verify", f"--replay={target}"]) == 1
        assert capsys.readouterr().err == (
            "pipecalc verify: error: argument --replay: "
            f"'{'1' * 59}... (a str, cut) is not SEED:INDEX "
            "(two integers, INDEX >= 0)\n")


def _whole_parser(argv) -> int:
    """main's dispatch through the whole parser alone: parse all of argv,
    then run the subcommand, with SystemExit mapped as main maps it."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return args.func(args)


# DOC is the worked example and FP a model file; None runs sys.argv
@pytest.mark.parametrize("argv, code", [
    pytest.param(["analyze", "DOC"], 0, id="analyze"),
    pytest.param(["perturb", "DOC", "--scenario", "boost", "--explain"], 0, id="perturb"),
    pytest.param(["ceiling", "DOC", "--format", "structured"], 0, id="ceiling"),
    pytest.param(["compare", "DOC", "DOC", "--scenario", "boost"], 0, id="compare"),
    pytest.param(["fp", "FP"], 0, id="fp"),
    pytest.param(["plan", "DOC", "--budget", "1", "--unit-cost", "1/2"], 0, id="plan"),
    pytest.param(["verify", "--count", "3", "--format", "structured"], 0, id="verify"),
    pytest.param([], 1, id="no-subcommand"),
    pytest.param(["-h"], 0, id="h"),
    pytest.param(["--help"], 0, id="help"),
    pytest.param(["frobnicate"], 1, id="unknown-subcommand"),
    pytest.param(["perturb", "--help"], 0, id="subcommand-help"),
    *(pytest.param([sub, "--help"], 0, id=f"{sub}-help")
      for sub in ("analyze", "ceiling", "compare", "fp", "plan", "verify")),
    pytest.param(["analyze"], 1, id="missing-positional"),
    pytest.param(["plan", "DOC"], 1, id="missing-budget"),
    pytest.param(["analyze", "DOC", "extra"], 1, id="extra-positional"),
    pytest.param(["analyze", "DOC", "--bogus"], 1, id="unknown-option"),
    pytest.param(["analyze", "DOC", "--format", "xml"], 1, id="format-xml"),
    pytest.param(["analyze", "DOC", "--form", "structured"], 0, id="abbreviation"),
    pytest.param(["analyze", "--", "DOC"], 0, id="double-dash"),
    pytest.param(["verify", "--count", "x"], 1, id="count-x"),
    pytest.param(None, 0, id="sys-argv"),
])
def test_dispatch_matches_whole_parser(doc_path, tmp_path, capsys, monkeypatch,
                                       argv, code):
    model = _file(tmp_path, "fp.json", FP_MODELS["rational_decay"])
    if argv is None:
        monkeypatch.setattr(sys, "argv", ["pipecalc", "analyze", doc_path])
    else:
        argv = [{"DOC": doc_path, "FP": model}.get(a, a) for a in argv]
    assert main(argv) == code
    got = capsys.readouterr()
    assert _whole_parser(argv) == code
    assert capsys.readouterr() == got


# BIG prints more than stdout's buffer holds, so a print raises; DOC, the
# verify report and the help print less, and raise only when stdout is flushed
@pytest.mark.parametrize("argv", [
    pytest.param(["analyze", "BIG"], id="text"),
    pytest.param(["analyze", "BIG", "--format", "structured"], id="structured"),
    pytest.param(["analyze", "DOC"], id="small"),
    pytest.param(["verify", "--count", "2"], id="verify-small"),
    pytest.param(["-h"], id="help"),
    pytest.param(["analyze", "-h"], id="analyze-help"),
])
def test_closed_pipe_ends_quietly(tmp_path, doc_path, argv):
    path = _doc(tmp_path, {f"s{i}": "1" for i in range(20_000)})
    argv = [{"BIG": path, "DOC": doc_path}.get(a, a) for a in argv]
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONUNBUFFERED", None)  # unbuffered, every print writes at once
    read, write = os.pipe()
    os.close(read)  # the reader is gone before the first write
    try:
        proc = subprocess.run([sys.executable, "-m", "pipecalc.cli", *argv],
                              env=env, stdout=write, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


class TestParserReuse:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_accepted_call_skips_whole_parser(self, doc_path, capsys, monkeypatch):
        def whole():
            raise AssertionError("an accepted call built the whole parser")
        monkeypatch.setattr("pipecalc.cli.build_parser", whole)
        assert main(["plan", doc_path, "--budget", "1"]) == 0

    def test_scenario_does_not_carry_over(self, doc_path, capsys):
        assert main(["perturb", doc_path, "--scenario", "boost"]) == 0
        assert "strict_increase" in capsys.readouterr().out
        assert main(["perturb", doc_path]) == 0
        out = capsys.readouterr().out
        assert "scenario: (identity)" in out
        assert "outcome: unchanged" in out

    def test_valid_call_after_usage_error(self, doc_path, capsys):
        assert main(["plan", doc_path]) == 1  # --budget is required
        assert main(["plan", doc_path, "--budget", "1"]) == 0
        assert "max-min allocation" in capsys.readouterr().out

    def test_format_does_not_carry_over(self, doc_path, capsys):
        assert main(["analyze", doc_path, "--format", "structured"]) == 0
        json.loads(capsys.readouterr().out)
        assert main(["analyze", doc_path]) == 0
        assert capsys.readouterr().out.startswith("pipeline: ")


class TestOverlongResults:
    # every input prints, but the product 10 * 10**4299 has 4301 digits; a
    # throughput is a capacity, and every accepted capacity prints, so only
    # computed results such as this one reach the refusal
    @pytest.mark.parametrize("caps, boost, argv, quantity", [
        (("1e4299", "2e4299"), {"a": "10", "b": "10"},
         ["perturb", "--scenario", "boost", "--format", "structured"],
         "new throughput"),
    ], ids=["perturb-new"])
    def test_named_error(self, tmp_path, capsys, caps, boost, argv, quantity):
        path = _doc(tmp_path, dict(zip("ab", caps)), scenarios={"boost": boost})
        assert main([argv[0], path, *argv[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {quantity} has too many digits" in captured.err

    def test_plan_names_first_unprintable_factor(self, tmp_path, capsys):
        # b and c are raised together to t = (B + 2) / (P + Q), so b's factor
        # t * P has a numerator of about 4320 digits; a keeps factor 1
        p, q = 10**4299 + 1, 10**4299 - 1
        path = _doc(tmp_path, {"a": "5", "b": f"1/{p}", "c": f"1/{q}"})
        assert main(["plan", path, "--budget", str(10**20)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: factor of stage 'b' has too many digits to print exactly\n")

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_plan_refuses_trivial_factor_before_spend(self, tmp_path, capsys, fmt):
        # the trivial allocation raises a to the runner-up, factor 10**8598,
        # and spends 10**-4299 * (10**8598 - 1): both are unprintable, and
        # the factor is texted first, though text output never prints it
        path = _doc(tmp_path, {"a": "1e-4299", "b": "1e4299", "c": "1e4299"})
        assert main(["plan", path, "--budget", "1e4299",
                     "--unit-cost", "1e-4299", "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: factor of stage 'a' has too many digits to print exactly\n")

    # "-1e-4300" is exact and inside the exponent bound, but its denominator
    # 10**4300 has 4301 digits, so it is refused on input before any sign
    # check; the refusal names the quantity (the fp one by its file key)
    @pytest.mark.parametrize("capacity, argv, quantity", [
        ("-1e-4300", ["analyze", "{doc}"], "capacity of stage 'a'"),
        ("3", ["plan", "{doc}", "--budget=-1e-4300"], "budget"),
        ("3", ["fp", "{model}"], "investigation_capacity"),
    ], ids=["analyze-capacity", "plan-budget", "fp-investigation-capacity"])
    def test_refusal_quoting_overlong_value(self, tmp_path, capsys, capacity,
                                            argv, quantity):
        doc = _doc(tmp_path, {"a": capacity})
        model = _file(tmp_path, "model.json", {"precision": {
            "family": "rational_decay", "coefficient": "1/10",
            "investigation_capacity": "-1e-4300"}})
        argv = [a.format(doc=doc, model=model) for a in argv]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {quantity} has more than 4300 digits" in captured.err
        assert "set_int_max_str_digits" not in captured.err

    # text that Fraction reads, inside the exponent bound, whose exact value
    # has a numerator or denominator of more than 4300 digits
    @pytest.mark.parametrize("text", [
        "1e4300", "-1e-4300", "0." + "1" * 4300, "9" * 3000 + "." + "9" * 3000,
    ], ids=["1e4300", "-1e-4300", "0.-4300-ones", "3000-dot-3000-digits"])
    def test_unprintable_input_is_refused(self, tmp_path, capsys, text):
        path = _doc(tmp_path, {"a": text})
        assert main(["analyze", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: capacity of stage 'a' has more than 4300 digits in its "
            "numerator or denominator, too many to print exactly\n")


@pytest.mark.parametrize("command", ["analyze", "fp"])
def test_deeply_nested_json_is_refused(tmp_path, capsys, command):
    path = _file(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
    assert main([command, path]) == 1
    err = capsys.readouterr().err
    assert "nesting is too deep" in err
    assert "Traceback" not in err


# -- fuzzing the input boundary ----------------------------------------------

# numbers at the 4300 bound on decimal exponents and digits: "1e4301" is
# refused for its exponent, "1e4300" and "-1e-4300" for their 4301-digit
# values, and the rest are accepted
NEAR_BOUND = st.sampled_from([
    "1e4300", "-1e-4300", "1e4301", "9" * 4300, "1/" + "9" * 4300, 10**4299,
])

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | NEAR_BOUND,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)


def json_paths(value, path=()):
    """Every path into a parsed JSON value, the root included."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from json_paths(child, path + (key,))


def replaced(value, path, new):
    if not path:
        return new
    value[path[0]] = replaced(value[path[0]], path[1:], new)
    return value


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_inputs_exit_0_or_1(tmp_path_factory, data):
    # one value anywhere in a valid document or fp model replaced by
    # arbitrary JSON: each subcommand that reads such a file reports
    # success or a named error
    is_doc = data.draw(st.booleans())
    raw = json.loads(EXAMPLE_DOC if is_doc else json.dumps(FP_MODELS["table"]))
    path = data.draw(st.sampled_from(list(json_paths(raw))))
    mutated = replaced(raw, path, data.draw(JSON_VALUES))
    base = tmp_path_factory.getbasetemp()
    (base / "fuzz.json").write_text(json.dumps(mutated))
    (base / "example.json").write_text(EXAMPLE_DOC)
    f, example = str(base / "fuzz.json"), str(base / "example.json")
    commands = ([["analyze", f], ["perturb", f, "--scenario", "boost"],
                 ["ceiling", f], ["compare", f, example],
                 ["plan", f, "--budget", "2"]] if is_doc else [["fp", f]])
    for argv in commands:
        assert main(argv) in (0, 1), argv
    # and a document that parses is written back and read to the same value
    if is_doc:
        try:
            doc = parse_document(json.dumps(mutated))
        except DocumentError:
            return
        assert parse_document(serialize_document(doc)) == doc


# exact text at and past the print limit, in each place a document holds a
# value: a document that parses is written back and read to the same value
AT_PRINT_LIMIT = ["1e4299", "1e4300", "-1e-4300", "1e4301", "9" * 4300,
                  "1/" + "9" * 4300, 10**4299, "0." + "1" * 4299,
                  "0." + "1" * 4300, "9" * 3000 + "." + "9" * 3000]
VALUE_PATHS = [("pipeline", "stages", 0, "capacity"), ("scenarios", "boost", "b"),
               ("authority", "assist_bounds", "a")]


def test_values_at_the_print_limit_round_trip_or_are_refused():
    accepted = set()
    for path in VALUE_PATHS:
        for i, value in enumerate(AT_PRINT_LIMIT):
            text = json.dumps(replaced(json.loads(EXAMPLE_DOC), path, value))
            try:
                doc = parse_document(text)
            except DocumentError:
                continue
            accepted.add(i)
            assert parse_document(serialize_document(doc)) == doc
    assert accepted == {0, 4, 5, 6, 7}
