"""Scaling of measured times to a fixed reference CPU speed.

Shared machines change speed by tens of percent over seconds (frequency
changes, contention from neighbours), and the change reaches thread CPU
time as much as wall time.  So the client runs `kernel()`, a fixed piece of pure-Python work in
the style of pipecalc's (building and running an argparse parser, exact
Fractions, JSON text), after every operation, and scales each operation's
time by REFERENCE_NS / (median kernel time over the neighbouring
operations).
Times are then reported as milliseconds at the speed at which the kernel
takes exactly REFERENCE_NS.  The kernel imports nothing from pipecalc, so
a change to the program cannot move it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from fractions import Fraction

REFERENCE_NS = 1_000_000
# kernel samples on each side of an operation that set its speed estimate
WINDOW = 5


def kernel() -> str:
    parser = argparse.ArgumentParser(prog="kernel")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("alpha", "beta", "gamma", "delta"):
        sp = sub.add_parser(name, help=name)
        sp.add_argument("file")
        sp.add_argument("--format", choices=["text", "structured"], default="text")
        sp.add_argument("--count", type=int, default=0)
    args = parser.parse_args(["gamma", "doc.json", "--format", "structured"])
    total = Fraction(0)
    capacity = {}
    for i in range(1, 50):
        value = Fraction(f"{i * 7919 % 1000 + 1}/{i % 97 + 1}")
        capacity[f"s{i}"] = value
        total += value
    low = {s: str(v) for s, v in capacity.items() if v < total / 50}
    return json.dumps({"args": vars(args), "low": low})


def time_kernel() -> int:
    start = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - start


def scale_factors(kernel_ns: list[int]) -> list[float]:
    """Per-sample factor turning a measured time into reference time."""
    factors = []
    for i in range(len(kernel_ns)):
        local = statistics.median(kernel_ns[max(0, i - WINDOW):i + WINDOW + 1])
        factors.append(REFERENCE_NS / local)
    return factors
