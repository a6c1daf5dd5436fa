"""Every name a module imports is used in that module.

The package's `__init__.py` is exempt: its imports are the public API it
re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHECKED = ("src/pipecalc", "tests", "demos")
EXEMPT = {Path("src/pipecalc/__init__.py")}


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in `source` and never referenced in it."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def checked_files() -> list[Path]:
    return sorted(
        path.relative_to(ROOT)
        for top in CHECKED
        for path in (ROOT / top).rglob("*.py")
        if path.relative_to(ROOT) not in EXEMPT
    )


def test_checks_every_tree():
    files = checked_files()
    for top in CHECKED:
        assert any(f.is_relative_to(top) for f in files), top


@pytest.mark.parametrize("path", checked_files(), ids=str)
def test_no_unused_import(path):
    assert unused_imports((ROOT / path).read_text(encoding="utf-8")) == []


def test_finds_an_unused_import():
    source = "import os\nimport sys as system\nfrom a.b import c, d\nprint(c)\n"
    assert unused_imports(source) == [
        "line 3: d", "line 1: os", "line 2: system"]
