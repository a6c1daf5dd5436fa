"""Seeded inputs for the pipecalc benchmark.

`build(workload, seed, workdir)` writes the pipeline documents a workload
needs into `workdir` and returns its spec: the documents as plain dicts and
the ordered list of operations, each a `pipecalc` argv plus the data its
output check needs.  The same (workload, seed) always gives the same spec.

Only valid documents are produced, and nothing here imports pipecalc: the
capacities, authority sets, scenarios and budgets are drawn from
`random.Random` seeded with text, and every value is written as exact text
("17", "3.25" or "13/4").  No operation passes `--tolerance` or an fp model
file, so the benchmark runs unchanged while those interfaces evolve.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

# verify: instances per `verify` call; about 20 ms per call on one core
VERIFY_COUNT = 20
VERIFY_OPS = 1000

COMMANDS = ("analyze", "perturb", "ceiling", "compare")
FORMATS = ("text", "structured")
SCENARIO_FACTORS = ("1", "5/4", "3/2", "2", "5")

# docs-mixed: one cycle of 20 operations holds 14 small, 2 medium and
# 4 large documents, so the median lands among the small ones (where
# argument parsing dominates) and p90 in the middle of the large ones
# (where document parsing and Fraction conversion dominate)
MIXED_CYCLE = "SSLSMSSLSSSSLSMSSLSS"
MIXED_SIZES = {"S": (3, 10), "M": (90, 110), "L": (980, 1020)}
MIXED_POOL = {"S": 24, "M": 4, "L": 8}
MIXED_CYCLES = 16

# plan: equal thirds of 10-, 100- and 1000-stage documents; in each size
# a quarter of the cases tie the bottleneck (trivial allocation refuses),
# a quarter use a budget small enough that the max-min bracket's upper end
# is affordable, and the rest need the bisection
PLAN_SIZES = (10, 100, 1000)
PLAN_CASES = ("tied", "saturating", "general", "general")
PLAN_PER_SIZE = 12


def _capacity(rng: random.Random) -> str:
    kind = rng.randrange(3)
    if kind == 0:
        return str(rng.randint(1, 1000))
    if kind == 1:
        return f"{rng.randint(1, 999)}.{rng.randint(0, 99):02d}"
    return f"{rng.randint(1, 100_000)}/{rng.randint(1, 97)}"


def _stages(rng: random.Random, n: int, tie: bool) -> list[dict]:
    stages = [{"id": f"st{i}", "capacity": _capacity(rng)} for i in range(n)]
    if tie and n >= 2:
        low = min(stages, key=lambda rec: Fraction(rec["capacity"]))
        twin = rng.choice([rec for rec in stages if rec is not low])
        twin["capacity"] = low["capacity"]
    return stages


def _scenarios(rng: random.Random, stages: list[dict]) -> dict:
    ids = [rec["id"] for rec in stages]
    low = min(Fraction(rec["capacity"]) for rec in stages)
    partial = {
        s: rng.choice(SCENARIO_FACTORS)
        for s in rng.sample(ids, max(1, len(ids) // 3))
    }
    # improves every bottleneck: the strict-increase side of the dichotomy
    lift = {
        rec["id"]: rng.choice(SCENARIO_FACTORS[1:])
        for rec in stages
        if Fraction(rec["capacity"]) == low
    }
    return {"partial": partial, "lift": lift}


def _authority(rng: random.Random, ids: list[str], assist: bool) -> dict:
    if len(ids) <= 10 and rng.random() < 0.2:
        human = list(ids)
    else:
        human = rng.sample(ids, max(1, len(ids) // 10))
    auth: dict = {"human_stages": human}
    if assist:
        auth["assist_bounds"] = {s: rng.choice(SCENARIO_FACTORS) for s in human}
    return auth


def _document(rng: random.Random, name: str, n: int, tie: bool,
              assist: bool) -> dict:
    stages = _stages(rng, n, tie)
    ids = [rec["id"] for rec in stages]
    return {
        "format_version": "1",
        "pipeline": {"name": name, "stages": stages},
        "authority": _authority(rng, ids, assist),
        "scenarios": _scenarios(rng, stages),
    }


def _write(workdir: str, docs: dict) -> dict:
    paths = {}
    for doc_id, doc in docs.items():
        path = os.path.join(workdir, f"{doc_id}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        paths[doc_id] = path
    return paths


def _verify_spec(seed: int) -> dict:
    rng = random.Random(f"verify:{seed}")
    base = rng.randrange(1, 10**6)
    ops = []
    for k in range(base, base + VERIFY_OPS):
        ops.append({
            "argv": ["verify", "--seed", str(k), "--count", str(VERIFY_COUNT),
                     "--format", "structured"],
            "check": {"kind": "verify", "seed": k, "count": VERIFY_COUNT},
        })
    return {"docs": {}, "ops": ops}


def _mixed_spec(seed: int, workdir: str) -> dict:
    rng = random.Random(f"docs-mixed:{seed}")
    docs = {}
    pools = {}
    for size, count in MIXED_POOL.items():
        lo, hi = MIXED_SIZES[size]
        pools[size] = []
        for i in range(count):
            doc_id = f"mixed-{size}{i}"
            docs[doc_id] = _document(
                rng, doc_id, rng.randint(lo, hi), tie=i % 3 == 0, assist=i % 2 == 0
            )
            pools[size].append(doc_id)
    paths = _write(workdir, docs)

    # the j-th operation on a size class takes variant j mod 8 on a document
    # shifted by one every 8 operations, so each (document, variant) pair of
    # the large pool occurs once in the list
    variants = [(c, f) for c in COMMANDS for f in FORMATS]
    served = {size: 0 for size in MIXED_POOL}
    ops = []
    for _ in range(MIXED_CYCLES):
        for size in MIXED_CYCLE:
            j = served[size]
            served[size] += 1
            command, fmt = variants[j % len(variants)]
            pool = pools[size]
            slot = j + j // len(variants)
            doc_id = pool[slot % len(pool)]
            argv = [command, paths[doc_id]]
            check = {"kind": command, "doc": doc_id}
            if command == "compare":
                other = pool[(slot + 1) % len(pool)]
                argv.append(paths[other])
                check["defender"] = other
            if command in ("perturb", "compare"):
                scenario = ("partial", "lift")[j // len(variants) % 2]
                argv += ["--scenario", scenario]
                check["scenario"] = scenario
            argv += ["--format", fmt]
            check["format"] = fmt
            ops.append({"argv": argv, "check": check})
    return {"docs": docs, "ops": ops}


def _plan_budget(rng: random.Random, case: str, caps: list[Fraction]) -> Fraction:
    ordered = sorted(caps)
    if case == "saturating":
        # at most the bottleneck's headroom to the runner-up, so raising the
        # bottleneck alone already spends it
        headroom = ordered[1] / ordered[0] - 1
        return headroom * Fraction(rng.randint(1, 9), 10)
    # cost of lifting every stage up to the 10th percentile capacity,
    # rounded down to quarters
    target = ordered[max(1, len(ordered) // 10)]
    cost = sum(target / c - 1 for c in ordered if c < target)
    return max(Fraction(1, 4), Fraction(math.floor(cost * 4), 4))


def _plan_spec(seed: int, workdir: str) -> dict:
    rng = random.Random(f"plan:{seed}")
    docs = {}
    cases = {}
    for n in PLAN_SIZES:
        cases[n] = []
        for i in range(PLAN_PER_SIZE):
            case = PLAN_CASES[i % len(PLAN_CASES)]
            doc_id = f"plan-{n}-{i}"
            while True:
                doc = _document(rng, doc_id, n, tie=case == "tied", assist=False)
                caps = sorted(Fraction(r["capacity"]) for r in doc["pipeline"]["stages"])
                # the saturating and general cases need a unique bottleneck
                if case == "tied" or caps[0] != caps[1]:
                    break
            docs[doc_id] = doc
            budget = _plan_budget(rng, case, caps)
            cases[n].append((doc_id, str(budget)))
    paths = _write(workdir, docs)

    ops = []
    for i in range(PLAN_PER_SIZE):
        for n in PLAN_SIZES:
            doc_id, budget = cases[n][i]
            # alternate formats within each case as well as across cases
            fmt = FORMATS[(i + i // len(PLAN_CASES)) % 2]
            ops.append({
                "argv": ["plan", paths[doc_id], "--budget", budget, "--format", fmt],
                "check": {"kind": "plan", "doc": doc_id, "budget": budget,
                          "format": fmt},
            })
    return {"docs": docs, "ops": ops}


WORKLOADS = ("verify", "docs-mixed", "plan")


def build(workload: str, seed: int, workdir: str) -> dict:
    """Write the workload's documents under `workdir` and return its spec."""
    if workload == "verify":
        spec = _verify_spec(seed)
    elif workload == "docs-mixed":
        spec = _mixed_spec(seed, workdir)
    elif workload == "plan":
        spec = _plan_spec(seed, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")
    return spec
