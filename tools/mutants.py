"""Mutation kill matrix for the pipecalc library: stdlib only.

Each mutant is one relational operator swapped at one site (`<` and `<=`,
`>` and `>=`, `==` and `!=`, `in` and `not in`, `is` and `is not` trade
places), one statement inside a function replaced by `pass` (an `if`,
`raise`, call, loop, `try`, `with` or augmented assignment), or one of the
arithmetic defects in ARITHMETIC.  The checkout is
snapshotted once, so edits made during a run do not reach it; each mutant is
written into a fresh copy of the snapshot, never into the working tree, and
the tests run there under a fixed Hypothesis seed, with no pytest cache and
an empty Hypothesis example database.  A failing run kills its mutant and is
credited to the tests that failed; a timed-out run counts as killed but is
credited to no test.

    python tools/mutants.py                          # full matrix, all tests
    python tools/mutants.py --modules harness -x tests/test_harness.py

Prints one line per mutant as its run ends, writes the matrix as JSON with
--out, and exits 1 if any mutant survives.  On SIGTERM or SIGINT it starts no
further mutant, ends the test runs in progress, removes its copies, prints
the summary of the mutants that finished and exits 128 + the signal number.
"""

import argparse
import ast
import contextlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src", "pipecalc")
IGNORE = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", "__pycache__",
                                ".perfbench_out")
MODULES = ("model", "characterize", "ceiling", "planner", "adversarial",
           "falsepos", "harness", "documents", "cli")
SWAP = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="),
        ast.GtE: (">=", ">"), ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
        ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"),
        ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is")}
DELETE = {ast.If: "if", ast.Raise: "raise", ast.Expr: "call", ast.For: "for",
          ast.While: "while", ast.Try: "try", ast.With: "with", ast.AugAssign: "augassign"}
# (name, module, [(old text, new text), ...]): each old text occurs once
_ARGMIN = "n, d = n * wn, d * wd\n        lhs, rhs = "
ARITHMETIC = [
    ("argmin-mispaired-products", "model",
     [(_ARGMIN + "n * best_d, best_n * d", _ARGMIN + "n * d, best_n * best_d")]),
    ("argmin-swapped-products", "model",
     [(_ARGMIN + "n * best_d, best_n * d", _ARGMIN + "best_n * d, n * best_d")]),
    ("decimal-without-scale", "model", [("int(w) * scale + int(f)", "int(w) + int(f)")]),
    ("witness-without-plus-one", "ceiling", [("mn)) + 1)", "mn)))")]),
    ("witness-floor-division", "ceiling", [("-(-hn * md // (hd * mn))", "hn * md // (hd * mn)")]),
    ("unchanged-numerators-only", "characterize",
     [("unchanged = new_n * base_d == base_n * new_d", "unchanged = new_n == base_n")]),
    # condition (ii): the largest bottleneck product against the rest's minimum
    ("condition-ii-mispaired-products", "characterize",
     [("top.numerator * base_n * best_d < best_n * top.denominator * base_d",
       "top.numerator * base_n * top.denominator * base_d < best_n * best_d")]),
    ("condition-ii-swapped-products", "characterize",
     [("top.numerator * base_n * best_d < best_n * top.denominator * base_d",
       "best_n * top.denominator * base_d < top.numerator * base_n * best_d")]),
    ("heap-key-without-capacity-tie-break", "planner",
     [("x.denominator, x, i, st)", "x.denominator, i, x, st)"),
      ("_, x, _, stage = heapq", "_, _, x, stage = heapq"),
      ("(x := heap[0][1])", "(x := heap[0][2])")]),
]
RESOLVE = "tests/test_demos.py::test_arithmetic_mutants_resolve"
TIMEOUT = 300  # seconds per pytest run
WORKERS = os.cpu_count() or 1
STOP = []  # the signal that stopped the run, once SIGTERM or SIGINT came
RUNNING = set()  # the pytest processes in flight


def read(root, module):
    """The module's bytes, and the byte offset at which each line starts."""
    source = (root / PACKAGE / f"{module}.py").read_bytes()
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return source, starts


def relational(root, module):
    """(name, module, edits) for every comparison operator in `module`."""
    source, starts = read(root, module)
    mutants = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            lo = starts[left.end_lineno - 1] + left.end_col_offset
            hi = starts[right.lineno - 1] + right.col_offset
            old, new = SWAP[type(op)]
            gap = source[lo:hi].decode()
            match = re.search(r"(?<![\w<>=!])" + old.replace(" ", r"\s+")
                              + r"(?![\w<>=])", gap)
            at = lo + match.start()
            line = source[:at].count(b"\n")
            mutants.append((f"{module}.py:{line + 1}:{at - starts[line]} {old} -> {new}",
                            module, [(at, lo + match.end(), new)]))
            left = right
    return sorted(mutants, key=lambda m: m[2])


def deletions(root, module):
    """(name, module, edits) for every statement of a kind in DELETE inside a
    function, each replaced by `pass`; a docstring is no call and stays."""
    source, starts = read(root, module)
    found = {}  # a statement of a nested function is walked more than once
    for function in ast.walk(ast.parse(source)):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(function):
                if type(node) in DELETE and (type(node) is not ast.Expr
                                             or isinstance(node.value, ast.Call)):
                    found[node.lineno, node.col_offset] = node
    return [(f"{module}.py:{line}:{col} {DELETE[type(node)]} -> pass", module,
             [(starts[line - 1] + col,
               starts[node.end_lineno - 1] + node.end_col_offset, "pass")])
            for (line, col), node in sorted(found.items())]


def arithmetic(root, name, module, edits):
    source = (root / PACKAGE / f"{module}.py").read_text()
    spans = []
    for old, new in edits:
        assert source.count(old) == 1, f"{name}: {old!r} is not unique"
        at = len(source[:source.index(old)].encode())
        spans.append((at, at + len(old.encode()), new))
    return name, module, spans


def kill(proc):
    """End a pytest run together with every process it started."""
    with contextlib.suppress(ProcessLookupError):  # the run ended already
        os.killpg(proc.pid, signal.SIGKILL)


def stop(signum, frame):
    """Start no further mutant and end the test runs in progress; the threads
    then remove their copies."""
    STOP.append(signum)
    for proc in list(RUNNING):
        kill(proc)


def run(mutant, snapshot, args):
    """Run the tests on one mutant; return (status, failing node ids), or None
    if stopped first."""
    _, module, spans = mutant
    if STOP:
        return None
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(shutil.copytree(snapshot, Path(tmp, "repo"), ignore=IGNORE))
        target = work / PACKAGE / f"{module}.py"
        source = target.read_bytes()
        for lo, hi, new in sorted(spans, reverse=True):
            source = source[:lo] + new.encode() + source[hi:]
        target.write_bytes(source)
        command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                   "--continue-on-collection-errors", f"--hypothesis-seed={args.seed}",
                   "-rfE", "--tb=no", *(["-x"] if args.x else []), *args.tests,
                   # a mutant that edits quoted text fails this test on its quote alone
                   *(["--deselect", RESOLVE] if spans else [])]
        # whatever the tests write to a temporary directory goes with the copy
        env = dict(os.environ, PYTHONPATH=str(work / "src"), TMPDIR=tmp)
        proc = subprocess.Popen(command, cwd=work, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True,
                                start_new_session=True)
        RUNNING.add(proc)
        if STOP:  # the signal came before the run was registered
            kill(proc)
        try:
            stdout = proc.communicate(timeout=TIMEOUT)[0]
        except subprocess.TimeoutExpired:
            kill(proc)
            proc.wait()
            return "timeout", []
        finally:
            RUNNING.discard(proc)
        if STOP and proc.returncode < 0:
            return None
    failed = sorted({line.split(" ", 1)[1].split(" - ", 1)[0]
                     for line in stdout.splitlines()
                     if line.startswith(("FAILED ", "ERROR "))})
    return ("killed" if proc.returncode else "survived"), failed


def report(name, result):
    """Print one mutant's line as its run ends, in one write, so that lines
    from parallel runs do not interleave; a run stopped first prints none."""
    if result:
        status, failed = result
        print(f"{status:8} {len(failed):4} {name}\n", end="", flush=True)
        return name, status, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tests", nargs="*", default=["tests"])
    parser.add_argument("--modules", type=lambda text: text.split(","), default=MODULES,
                        help=f"comma-separated, from {','.join(MODULES)} (default all)")
    parser.add_argument("-x", action="store_true", help="stop at the first failure")
    parser.add_argument("--seed", type=int, default=20260823)
    parser.add_argument("--out", help="write the matrix here as JSON")
    args = parser.parse_args(argv)
    if set(args.modules) - set(MODULES):
        parser.error(f"unknown modules: {sorted(set(args.modules) - set(MODULES))}")
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        snapshot = Path(shutil.copytree(ROOT, Path(tmp, "repo"), ignore=IGNORE))
        mutants = [m for module in args.modules
                   for m in relational(snapshot, module) + deletions(snapshot, module)]
        mutants += [arithmetic(snapshot, *a) for a in ARITHMETIC if a[1] in args.modules]
        unmutated = run(("unmutated", "model", []), snapshot, args)
        if unmutated and unmutated[0] != "survived":
            sys.exit(f"the tests fail on the unmutated code: {unmutated[0]} "
                     f"{unmutated[1][:5]}")
        with ThreadPoolExecutor(WORKERS) as pool:
            results = [r for r in pool.map(
                lambda m: report(m[0], run(m, snapshot, args)), mutants) if r]
    counts = {s: sum(r[1] == s for r in results)
              for s in ("killed", "timeout", "survived")}
    print(f"{len(results)} mutants: " + ", ".join(f"{n} {s}" for s, n in counts.items()))
    if STOP:
        print(f"stopped by {signal.Signals(STOP[0]).name}: {len(mutants) - len(results)} "
              f"of {len(mutants)} mutants not run to the end", file=sys.stderr)
    if args.out:
        Path(args.out).write_text(json.dumps(
            [{"mutant": n, "status": s, "failed": f} for n, s, f in results], indent=1))
    return 128 + STOP[0] if STOP else 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
