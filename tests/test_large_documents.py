"""Golden output for two seeded ~1000-stage documents.

The documents are drawn here from `random.Random` and written as exact
text: integers, decimals, fractions and exponent forms.  One ties three
stages at the bottleneck and carries assist bounds; the other has a unique
bottleneck.  Both hold a partial scenario (some stages named, the rest
defaulting to factor 1, some named with factor "1") and a lift scenario
that raises every bottleneck.  Every subcommand that reads a pipeline
document runs in both formats, and the sha256 of stdout, stderr and exit
code is pinned, so the output on large documents stays byte for byte the
same.
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from pipecalc.cli import main

FACTORS = ("1", "5/4", "3/2", "2", "5")


def _capacity(rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return str(rng.randint(50, 5000))
    if kind == 1:
        return f"{rng.randint(50, 4999)}.{rng.randint(0, 999):03d}"
    if kind == 2:
        return f"{rng.randint(500, 500_000)}/{rng.randint(1, 97)}"
    return f"{rng.randint(50, 5000)}{rng.randint(0, 9)}e-1"


def large_document(seed: int, n: int, tied: bool) -> dict:
    rng = random.Random(f"large-document:{seed}")
    stages = [{"id": f"stage-{i}", "capacity": _capacity(rng)} for i in range(n)]
    # the bottleneck is below every drawn capacity (all >= 5), with a few
    # stages close above it that a lifted bottleneck overtakes
    low = rng.sample(range(n), 7 if tied else 5)
    for i, text in zip(low[::-1], ("4.5", "11/2", "4", "9/2", "7/2", "3.5", "35e-1")):
        # 7/2 three times in different spellings when tied
        stages[i]["capacity"] = text
    low = low[:3] if tied else low[:1]
    ids = [rec["id"] for rec in stages]
    human = sorted(rng.sample(ids, n // 10) + [ids[low[0]]])
    authority: dict = {"human_stages": human}
    if tied:
        authority["assist_bounds"] = {s: rng.choice(FACTORS) for s in human}
    partial = {s: rng.choice(FACTORS) for s in rng.sample(ids, n // 3)}
    lift = {ids[i]: rng.choice(FACTORS[1:]) for i in low}
    return {
        "format_version": "1",
        "pipeline": {"name": f"large-{seed}", "stages": stages},
        "authority": authority,
        "scenarios": {"partial": partial, "lift": lift},
    }


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    base = tmp_path_factory.mktemp("large")
    paths = []
    for seed, n, tied in ((1, 1003, True), (2, 997, False)):
        path = base / f"large-{seed}.json"
        path.write_text(json.dumps(large_document(seed, n, tied), indent=1))
        paths.append(str(path))
    return paths


def test_documents_have_the_intended_shape(documents):
    tied, unique = (json.loads(Path(p).read_text()) for p in documents)
    for raw, count in ((tied, 3), (unique, 1)):
        caps = [Fraction(r["capacity"]) for r in raw["pipeline"]["stages"]]
        assert caps.count(min(caps)) == count
        assert set(raw["scenarios"]) == {"partial", "lift"}
    assert "assist_bounds" in tied["authority"]


RUNS = {
    "analyze": lambda a, b: [["analyze", a], ["analyze", b]],
    "perturb-identity": lambda a, b: [["perturb", a], ["perturb", b]],
    "perturb-partial": lambda a, b: [["perturb", a, "--scenario", "partial"],
                                     ["perturb", b, "--scenario", "partial"]],
    "perturb-lift": lambda a, b: [["perturb", a, "--scenario", "lift"],
                                  ["perturb", b, "--scenario", "lift"]],
    "ceiling": lambda a, b: [["ceiling", a], ["ceiling", b]],
    "compare-partial": lambda a, b: [["compare", a, b, "--scenario", "partial"],
                                     ["compare", b, a, "--scenario", "partial"]],
    "compare-lift": lambda a, b: [["compare", a, b, "--scenario", "lift"],
                                  ["compare", b, a, "--scenario", "lift"]],
    "plan": lambda a, b: [["plan", a, "--budget", "3/2"],
                          ["plan", b, "--budget", "3/2"],
                          ["plan", b, "--budget", "250"]],
}

# recorded while the constructor sign checks and preservation's condition
# (ii) were still decided by Fraction comparisons and products
DIGESTS = {
    ("analyze", "text"): "e012e0f2dead4155d3a1ac645ec6b53dea74e8f342fbc0a3cffb3d0f6fe34645",
    ("analyze", "structured"): "24da1a279d1e428b5bb6bb89533daa2874e1b41765211925ae1c64a21cfe21a0",
    ("perturb-identity", "text"): "1a6caffa654a024cdf2b4c04044662cf7e97ca91cde65fb1be9d1544817943be",
    ("perturb-identity", "structured"): "4dda47b53686722a49616a73f5bbb38eb9fd07e633f9c2001ecd5abcaf175ed3",
    ("perturb-partial", "text"): "40fb9bd81701aec32022d21bb7af1dd14bf8fee41362b681e1c94a327c1d54a1",
    ("perturb-partial", "structured"): "c292a783b43298c7c4bdf16bed4d3b0afe618cffba63ed35d0493cb7971ee5e0",
    ("perturb-lift", "text"): "5d41418d3b787366aa6c7bbe6da1b39cf193122885ce6db67e99e1f98deb1ffe",
    ("perturb-lift", "structured"): "9440899894ed85a349935fa8e2e5ffcf46c2edf636d9920d53845e2fcd3dbac3",
    ("ceiling", "text"): "f6e5fa4c58c6af4e65b6bf17699f63f294b435640d4c54fe7a4b753292f0cab5",
    ("ceiling", "structured"): "a0bd6369dc8f6b07e9bbff29d906347ee3856cc0ab87f5b3afe2f89082bbe5d7",
    ("compare-partial", "text"): "642153b6149532232c5989494b436cdf6da5887d553b68a05cf455072cfae961",
    ("compare-partial", "structured"): "97c584f1bd90933b4ba85af84a645d768e820e5439bdf35613cbc1f7fe9fbfcd",
    ("compare-lift", "text"): "14ccbf6abd9b5fa2fd261292ed1ecb2c553bc8cf2c2e027a5deaf8fb3476c2d1",
    ("compare-lift", "structured"): "30f0ebfc89fb052c54930182ac8e5c8d45706dec008070565c274de823326d93",
    ("plan", "text"): "cb43ded0905c714c7b50d5a6740f460b68a1cb75a8790a920cbbd4528e6cb024",
    ("plan", "structured"): "ffc0add720e748ca65db21c197bcbe96ceb92237fc489f29fc1ea270476482c9",
}


@pytest.mark.parametrize("run, fmt", list(DIGESTS),
                         ids=["-".join(key) for key in DIGESTS])
def test_output_is_unchanged(documents, capsys, run, fmt):
    digest = hashlib.sha256()
    for argv in RUNS[run](*documents):
        code = main(argv + ["--format", fmt])
        captured = capsys.readouterr()
        digest.update(f"{captured.out}\0{captured.err}\0{code}\0".encode())
    assert digest.hexdigest() == DIGESTS[(run, fmt)]
