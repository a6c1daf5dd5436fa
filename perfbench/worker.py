"""One workload process of the pipecalc benchmark.

    python3 worker.py MODE SPEC SECONDS [SPANS]

The process is one closed-loop client: a single thread calls
`pipecalc.cli.main(argv)` in-process with stdout and stderr captured, and
starts the next operation only after the previous one returned and its
output was checked against the exact reference in `oracle`.  Only the
`main` call is timed; the calibration kernel of `calibrate` runs after each
operation, and reported times are scaled to the reference speed.

It first measures its own set-up: importing `pipecalc` and `pipecalc.cli`,
plus the first operation of the spec as an untimed warm-up.  Then, by MODE:

  setup    stop there;
  measure  run the operations in order, cyclically, for SECONDS;
  trace    run them untraced for SECONDS / 2, then install the tracer and
           run them traced for SECONDS / 2, and write the spans to SPANS.

The result is one JSON object on the last line of stdout.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

# nothing else is imported before this point, so the set-up time includes
# every module pipecalc pulls in
_t0 = time.perf_counter()
import pipecalc  # noqa: E402
import pipecalc.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import calibrate  # noqa: E402
import oracle  # noqa: E402
import tracer as tracing  # noqa: E402

# a traced run stops early once it holds this many spans (about 40 MB)
MAX_SPANS = 1_000_000


class Client:
    def __init__(self, spec: dict):
        self.ops = spec["ops"]
        self.docs = {doc_id: oracle.Doc(raw) for doc_id, raw in spec["docs"].items()}
        self.attempted = 0
        self.failures: list[str] = []
        self.gaps: list = []
        self.next = 0
        # op index -> (output already checked, its plan gap); the program is
        # deterministic, so byte-identical output needs no second check
        self._checked: dict = {}

    def call(self, index: int) -> int:
        """Run operation `index` once; return its duration in ns."""
        op = self.ops[index]
        out, err = io.StringIO(), io.StringIO()
        main = pipecalc.cli.main
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                status = main(op["argv"])
            except Exception as exc:  # a raise is a failed operation
                status = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter_ns() - start
        self.attempted += 1
        text = out.getvalue()
        cached = self._checked.get(index)
        if cached is not None and cached[0] == text and status == 0:
            gap = cached[1]
        else:
            try:
                if not isinstance(status, int):
                    raise oracle.CheckFailure(status)
                gap = oracle.check(op["check"], self.docs, status, text)
            except oracle.CheckFailure as exc:
                self.failures.append(
                    f"{' '.join(op['argv'])}: {exc} {err.getvalue().strip()}"
                )
                return elapsed
            self._checked[index] = (text, gap)
        if gap is not None:
            self.gaps.append(gap)
        return elapsed

    def loop(self, seconds: float, tracer=None) -> list[tuple[int, int]]:
        """Closed loop for `seconds`.  Returns, per operation, its duration
        and the duration of the calibration kernel run right after it."""
        samples: list[tuple[int, int]] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            if tracer is not None:
                if len(tracer) >= MAX_SPANS:
                    break
                tracer.op = len(samples)
            elapsed = self.call(self.next)
            self.next = (self.next + 1) % len(self.ops)
            samples.append((elapsed, calibrate.time_kernel()))
        return samples


def _reference_ns(samples: list[tuple[int, int]]) -> tuple[list[float], list[float]]:
    """Operation durations at reference speed, and the factors applied."""
    factors = calibrate.scale_factors([k for _, k in samples])
    return [elapsed * f for (elapsed, _), f in zip(samples, factors)], factors


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _layer_metrics(tracer: tracing.Tracer, factors: list[float]) -> dict:
    calls, self_ns = tracer.totals(factors)
    per_op = 1 / len(factors)
    metrics = {}
    module_ms: dict = {}
    for name in tracing.SPAN_NAMES:
        ms = self_ns[name] / 1e6 * per_op
        metrics[f"{name}.calls"] = calls[name] * per_op
        metrics[f"{name}.self_ms"] = ms
        module = name.split(".")[0]
        module_ms[module] = module_ms.get(module, 0.0) + ms
    for module, ms in module_ms.items():
        metrics[f"{module}.self_ms"] = ms
    for key in tracing.COUNTED:
        metrics[f"{key}.calls"] = tracer.counts[key] * per_op
    verified = calls["harness.verify_instance"]
    metrics["harness.generated_per_verified"] = (
        calls["harness.generate_instance"] / verified if verified else 0.0
    )
    trivial = calls["planner.trivial_allocation"]
    refused = tracer.raised["planner.trivial_allocation", "TiedBottleneckError"]
    metrics["planner.trivial_allocation.refusals"] = refused / trivial if trivial else 0.0
    return metrics


def _ops_per_s(reference_ns: list[float]) -> float:
    return len(reference_ns) / (sum(reference_ns) / 1e9)


def main(argv) -> int:
    mode, spec_path, seconds = argv[0], argv[1], float(argv[2])
    if not os.path.abspath(pipecalc.__file__).startswith(SRC + os.sep):
        print(f"pipecalc imported from {pipecalc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        client = Client(json.load(fh))

    setup_ns = IMPORT_S * 1e9 + client.call(0)
    kernel_ns = statistics.median(calibrate.time_kernel() for _ in range(15))
    result = {"setup_s": setup_ns * calibrate.REFERENCE_NS / kernel_ns / 1e9}
    if mode == "measure":
        samples = client.loop(seconds)
        reference_ns, _ = _reference_ns(samples)
        result.update(
            latencies_ms=[ns / 1e6 for ns in reference_ns],
            raw_ops_per_s=len(samples) / (sum(e for e, _ in samples) / 1e9),
            kernel_ms=statistics.median(k for _, k in samples) / 1e6,
            peak_rss_mb=_peak_rss_mb(),
        )
    elif mode == "trace":
        plain, _ = _reference_ns(client.loop(seconds / 2))
        tracer = tracing.Tracer()
        tracer.install()
        traced, factors = _reference_ns(client.loop(seconds / 2, tracer))
        tracer.write(argv[3])
        metrics = _layer_metrics(tracer, factors)
        metrics["trace.untraced_ops_per_s"] = _ops_per_s(plain)
        metrics["trace.traced_ops_per_s"] = _ops_per_s(traced)
        metrics["trace.overhead_x"] = (
            metrics["trace.untraced_ops_per_s"] / metrics["trace.traced_ops_per_s"]
        )
        result.update(traced_ops=len(traced), spans=len(tracer), layers=metrics)
    elif mode != "setup":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    result.update(
        attempted=client.attempted,
        failures=client.failures,
        plan_gap=statistics.median(client.gaps) if client.gaps else 0.0,
        plan_ops=len(client.gaps),
    )
    print(json.dumps(result, default=float))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
