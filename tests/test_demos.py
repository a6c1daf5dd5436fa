"""Every demo script runs standalone against the in-tree package, every
name the benchmark's tracer wraps still exists, and every arithmetic mutant
of the kill matrix still finds its text."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


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
