import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import strategies as st

import pipecalc.model as model
from pipecalc import Multiplier, Pipeline


def count_calls(monkeypatch, names) -> Counter:
    """A Counter of calls to each of the pipecalc.model functions `names`.
    Every pipecalc module that holds one of these names calls a counting
    wrapper instead, so calls made inside model are counted as well."""
    counts = Counter()

    def counting(name, original):
        def counted(*args):
            counts[name] += 1
            return original(*args)
        return counted

    for name in names:
        original = getattr(model, name)
        wrapper = counting(name, original)
        for module_name, module in list(sys.modules.items()):
            if (module_name.partition(".")[0] == "pipecalc"
                    and getattr(module, name, None) is original):
                monkeypatch.setattr(module, name, wrapper)
    return counts


@pytest.fixture
def example_pipeline() -> Pipeline:
    # three stages, capacities 3/1/4: the canonical worked example
    return Pipeline(("a", "b", "c"), {"a": 3, "b": 1, "c": 4})


def fractions(min_num=1, max_num=40, max_den=8):
    return st.builds(
        Fraction,
        st.integers(min_value=min_num, max_value=max_num),
        st.integers(min_value=1, max_value=max_den),
    )


@st.composite
def pipelines(draw, max_stages=6):
    n = draw(st.integers(min_value=1, max_value=max_stages))
    stages = tuple(f"s{i}" for i in range(n))
    caps = {s: draw(fractions()) for s in stages}
    return Pipeline(stages, caps)


@st.composite
def multipliers_for(draw, p: Pipeline):
    grid = [Fraction(1), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5)]
    return Multiplier(
        {s: draw(st.sampled_from(grid) | fractions(min_num=8, max_num=40)) for s in p.stages}
    )


@st.composite
def pipeline_with_multiplier(draw, max_stages=6):
    p = draw(pipelines(max_stages=max_stages))
    a = draw(multipliers_for(p))
    return p, a
