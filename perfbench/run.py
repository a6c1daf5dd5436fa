"""Benchmark for pipecalc's command line, run from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 15 --trace 0

Workloads (inputs come from `gen.py` and depend only on --seed):

  verify      `verify --seed k --count 20 --format structured` on consecutive
              seeds: the harness generators and every check family.
  docs-mixed  `analyze`, `perturb --scenario`, `ceiling` and `compare` in
              text and structured form on documents of 3-10 stages (70%),
              about 100 (10%) and about 1000 stages (20%).
  plan        `plan FILE --budget B` on 10-, 100- and 1000-stage documents,
              some with tied bottlenecks, some with budgets whose max-min
              bracket is affordable at its upper end.

The client is one closed loop: one process, one thread, `pipecalc.cli.main`
called in-process, the next call only after the previous one returned (see
`worker.py`).  Every output is checked against an exact reference computed
by `oracle.py`; a failed check counts as a failed operation.

With --trace 0 the end-to-end metrics are measured untraced.  Times are
scaled to a fixed reference CPU speed by a calibration kernel run after
every operation (`calibrate.py`), because a shared machine's speed drifts
by tens of percent within seconds; the unscaled throughput is printed too.

  ops_per_s    operations per second of time spent inside `cli.main`
  p50_ms       median latency of one operation
  p90_ms       90th percentile latency (runs hold well over 100 samples)
  peak_rss_mb  peak resident memory of the measuring process
  setup_s      median over 9 fresh processes of importing pipecalc and
               pipecalc.cli plus one warm-up operation

The error rate (failed / attempted, warm-ups included) is printed and
carried by the `attempted` and `failed` fields of the result; it is 0 on a
correct program, so it is not a bounded metric.

With --trace 1 a separate run traces calls into each module's public
functions from outside (`tracer.py`) and reports per-operation calls and
self time per function and module, constructor counts, two ratios, the
plan gap to the exact max-min optimum, and the tracing overhead.

The last line of stdout is the JSON result.  Spans of a traced run are
written to .perfbench_out/spans-WORKLOAD.csv.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

import calibrate
import gen
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_RUNS = 8
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def per_layer_units() -> dict:
    units = {}
    for name in tracer.SPAN_NAMES:
        units[f"{name}.calls"] = "calls/op"
        units[f"{name}.self_ms"] = "ms/op"
    for module in tracer.SPANNED:
        units[f"{module}.self_ms"] = "ms/op"
    for key in tracer.COUNTED:
        units[f"{key}.calls"] = "calls/op"
    units["harness.generated_per_verified"] = "ratio"
    units["planner.trivial_allocation.refusals"] = "ratio"
    units["planner.plan_gap"] = "ratio"
    units["trace.untraced_ops_per_s"] = "1/s"
    units["trace.traced_ops_per_s"] = "1/s"
    units["trace.overhead_x"] = "x"
    return units


def _worker(mode: str, spec_path: str, seconds: float, spans_path: str = "") -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), mode, spec_path, str(seconds)]
    if spans_path:
        argv.append(spans_path)
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        argv, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"worker {mode} exited with {proc.returncode}: {proc.stderr.strip()}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _table(rows) -> None:
    for name, value, unit, note in rows:
        print(f"  {name:<44} {value:>14.6g} {unit:<9} {note}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.makedirs(OUT_DIR, exist_ok=True)
    # write the bytecode now so the first set-up run does not compile
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR)
    try:
        spec = gen.build(workload, seed, workdir)
        spec_path = os.path.join(workdir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        if trace:
            results = [_worker("trace", spec_path, seconds,
                               os.path.join(OUT_DIR, f"spans-{workload}.csv"))]
        else:
            results = [_worker("setup", spec_path, 0) for _ in range(SETUP_RUNS)]
            results.append(_worker("measure", spec_path, seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    last = results[-1]
    print(f"workload {workload}, seed {seed}: one closed-loop client calling "
          f"pipecalc.cli.main in-process, {seconds:g} s "
          f"{'traced' if trace else 'untraced'}")
    print(f"  operations attempted {attempted}, failed {len(failures)}, "
          f"error_rate {len(failures) / attempted:.6g} "
          f"(warm-up operations included)")
    for failure in failures[:10]:
        print(f"  FAILED {failure}", file=sys.stderr)

    if trace:
        metrics = dict(last["layers"])
        metrics["planner.plan_gap"] = last["plan_gap"]
        units = per_layer_units()
        print(f"  per-layer metrics per operation over {last['traced_ops']} traced "
              f"operations ({last['spans']} spans); nothing in pipecalc queues, "
              "so no wait-time metrics are reported")
        _table((name, metrics[name], units[name], "") for name in units)
    else:
        lat_ms = sorted(last["latencies_ms"])
        n = len(lat_ms)
        metrics = {
            "ops_per_s": n / (sum(lat_ms) / 1e3),
            "p50_ms": statistics.median(lat_ms),
            "p90_ms": statistics.quantiles(lat_ms, n=10)[8],
            "peak_rss_mb": last["peak_rss_mb"],
            "setup_s": statistics.median(r["setup_s"] for r in results),
        }
        beyond = sum(1 for x in lat_ms if x > metrics["p90_ms"])
        units = END_TO_END_UNITS
        print(f"  times at reference speed: the calibration kernel took a median "
              f"{last['kernel_ms']:.4g} ms against the reference "
              f"{calibrate.REFERENCE_NS / 1e6:g} ms; unscaled ops_per_s "
              f"{last['raw_ops_per_s']:.6g}")
        _table([
            ("ops_per_s", metrics["ops_per_s"], units["ops_per_s"], f"{n} operations"),
            ("p50_ms", metrics["p50_ms"], units["p50_ms"], f"{n} samples"),
            ("p90_ms", metrics["p90_ms"], units["p90_ms"],
             f"{n} samples, {beyond} beyond p90"),
            ("peak_rss_mb", metrics["peak_rss_mb"], units["peak_rss_mb"], ""),
            ("setup_s", metrics["setup_s"], units["setup_s"],
             f"median of {len(results)} fresh processes"),
        ])
        if last["plan_ops"]:
            print(f"  plan_gap {float(last['plan_gap']):.6g} ratio (median over "
                  f"{last['plan_ops']} plan operations of (optimum - achieved) / optimum)")

    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "pipecalc", "cli.py")):
        print(f"no pipecalc source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
