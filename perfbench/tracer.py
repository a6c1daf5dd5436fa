"""Outside-in tracer for pipecalc's public functions.

`Tracer.install()` wraps every function in `SPANNED` and rebinds the name
in every loaded `pipecalc.*` module that holds it, so calls made through
`from .model import throughput` and similar imports are traced as well.
The hot constructors in `COUNTED` are only counted: `__init__` is replaced
on the class and the class name is never rebound, so `isinstance` keeps
working.

Spans (operation id, name, start, end, parent) are kept in memory in flat
arrays and written out by `write()`.  A span's self time is its duration
minus the time covered by its child spans.  Nothing in pipecalc queues, so
there is no waiting time to record.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

SPANNED = {
    "cli": ("main", "build_parser"),
    "documents": ("load_document", "parse_document"),
    "model": (
        "validate_pipeline", "check_admissible", "throughput",
        "perturbed_throughput", "perturb", "bottleneck_set", "bottleneck_report",
    ),
    "characterize": (
        "classify", "preservation_report", "migration_decomposition",
        "verify_characterizations",
    ),
    "ceiling": (
        "ceiling", "tightness_witness", "generalized_ceiling", "is_h_admissible",
    ),
    "adversarial": ("ratio_report", "defender_misses_bottleneck"),
    "falsepos": (
        "plateau_check", "decline_check", "simple_useful", "repaired_useful",
    ),
    "planner": ("trivial_allocation", "maxmin_allocation"),
    "harness": (
        "generate_instance", "generate_dominating", "generate_authority",
        "generate_pair", "generate_fp_model", "verify_instance", "verify_all",
        "structured_report", "text_report",
    ),
}

COUNTED = ("model.Pipeline.init", "model.Multiplier.init", "model.as_fraction")

SPAN_NAMES = tuple(f"{m}.{f}" for m, funcs in SPANNED.items() for f in funcs)


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name != "pipecalc" and not name.startswith("pipecalc."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class Tracer:
    def __init__(self):
        self.op = 0
        self.fids = array("i")
        self.parents = array("q")
        self.ops = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack: list[int] = []
        self.counts = Counter({name: 0 for name in COUNTED})
        # (span name, exception class name) -> times the call raised
        self.raised: Counter = Counter()

    def __len__(self) -> int:
        return len(self.fids)

    def install(self) -> None:
        for fid, name in enumerate(SPAN_NAMES):
            module_name, func = name.split(".")
            module = importlib.import_module(f"pipecalc.{module_name}")
            original = getattr(module, func)
            _rebind(original, self._spanned(fid, original))
        model = importlib.import_module("pipecalc.model")
        for cls in (model.Pipeline, model.Multiplier):
            cls.__init__ = self._counted(f"model.{cls.__name__}.init", cls.__init__)
        _rebind(model.as_fraction, self._counted("model.as_fraction", model.as_fraction))

    def _spanned(self, fid: int, fn):
        fids, parents, ops, starts, ends = (
            self.fids, self.parents, self.ops, self.starts, self.ends
        )
        stack, raised, clock = self._stack, self.raised, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised[SPAN_NAMES[fid], type(exc).__name__] += 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def totals(self, factors) -> tuple[Counter, Counter]:
        """Calls and self time in ns, per span name; the self time of a span
        in operation `op` is scaled by `factors[op]`."""
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        covered = [0] * len(self.fids)
        # children are recorded after their parent, so a reverse scan has
        # every child's duration before it reaches the parent
        for i in reversed(range(len(self.fids))):
            duration = self.ends[i] - self.starts[i]
            name = SPAN_NAMES[self.fids[i]]
            calls[name] += 1
            self_ns[name] += (duration - covered[i]) * factors[self.ops[i]]
            if self.parents[i] >= 0:
                covered[self.parents[i]] += duration
        return calls, self_ns

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for i in range(len(self.fids)):
                fh.write(
                    f"{self.ops[i]},{i},{self.parents[i]},{SPAN_NAMES[self.fids[i]]},"
                    f"{self.starts[i]},{self.ends[i]}\n"
                )
