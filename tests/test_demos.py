"""Every demo script runs standalone against the in-tree package and prints
byte for byte what it printed when pinned, every name the benchmark's tracer
wraps still exists, and every arithmetic mutant of the kill matrix still
finds its text."""

import hashlib
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout bytes as first recorded
DEMO_DIGESTS = {
    "alert_noise.py": "47c567a47822cd5d22651db0ecd223732ddbeff7e5fc56e38ba280a53234ed4d",
    "budget_allocation.py": "63946c0b0e4923da0dc998e28ff2f9591ed56ba7a0481708a3b94e4dc9676fab",
    "authority_ceiling.py": "414aab2dde21ac751ff43fef88f66d0098595ec4318fb30d0cbfcc420b0f1945",
    "attacker_vs_defender.py": "0a8d942d6c9d3a32239cdc1f84307384a2fd787a7a15f8a4964d7e98cb6f42f5",
    "bottleneck_basics.py": "4a89c5eef7ab648ad88ab6a2c4261c915738fb1f786131b6bee93f40db82c616",
    "random_verification.py": "a1830515a6cb42bc0ca5ee6b7a8c1670edbbaaf7d2d9a1e6dbba3c1901c0e437",
}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[demo.name]


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve(monkeypatch):
    # the benchmark's tracer rebinds these names by lookup, so a rename or a
    # deletion must fail here and not only in a traced benchmark run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracer = _load(ROOT / "perfbench" / "tracer.py")
    names = [f"{m}.{f}" for m, funcs in tracer.SPANNED.items() for f in funcs]
    for name in names + list(tracer.COUNTED):
        module, attr, *method = name.split(".")
        value = getattr(importlib.import_module(f"pipecalc.{module}"), attr)
        assert callable(value), name
        assert all(f"__{m}__" in vars(value) for m in method), name


def test_arithmetic_mutants_resolve(monkeypatch):
    # each entry quotes library text that must occur exactly once; an edit to
    # that text must fail here and not only when the matrix is next run
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    mutants = _load(ROOT / "tools" / "mutants.py")
    for entry in mutants.ARITHMETIC:
        mutants.arithmetic(ROOT, *entry)  # asserts that each quoted text is unique
