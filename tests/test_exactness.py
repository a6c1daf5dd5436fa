"""pipecalc computes with exact rationals only.

No module under src/pipecalc imports `decimal`, writes a float literal or
calls `float(...)`.  Naming `float` to refuse it, as in
`isinstance(value, float)`, is allowed.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pipecalc"


def inexact_code(source: str) -> list[str]:
    """Each decimal import, float literal and float(...) call in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        if any(m.partition(".")[0] == "decimal" for m in modules):
            found.append(f"line {node.lineno}: import of decimal")
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {node.lineno}: float literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"line {node.lineno}: float(...) call")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda path: path.name)
def test_module_is_exact(path):
    assert inexact_code(path.read_text(encoding="utf-8")) == []


def test_finds_inexact_code():
    source = ("import decimal\nfrom decimal import Decimal\nx = 0.5\n"
              "y = float('1')\nok = isinstance(x, float)\nimport fractions\n")
    assert inexact_code(source) == [
        "line 1: import of decimal", "line 2: import of decimal",
        "line 3: float literal 0.5", "line 4: float(...) call"]
