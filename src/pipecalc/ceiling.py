"""Throughput ceilings imposed by stages that cannot be accelerated.

If a nonempty set of stages H is pinned to factor 1 (human-authority
stages), no admissible perturbation can push throughput past the smallest
capacity in H.  The bound is tight: `tightness_witness` builds an explicit
multiplier achieving it exactly, by raising every non-pinned stage far
enough that none of them can be the minimum.  Both take their minima in
one integer scan with `model._argmin`, as `throughput` does, and the
witness's factor is an integer floor division.

The assist-bound variant (each pinned stage allowed a factor up to a given
bound) gives the ceiling min over H of bound * capacity, attained by the
same construction with each pinned stage at its bound; the CLI still labels
it "(bound only)".
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

from .model import (
    ONE,
    Multiplier,
    Pipeline,
    RationalInput,
    Record,
    _argmin,
    _quoted,
    as_fraction,
)


class UndefinedCeilingError(ValueError):
    """The ceiling requires a nonempty pinned stage set."""


class ConfigurationError(ValueError):
    """An authority spec lacks data required by the requested operation."""


class AuthoritySpec(Record):
    """A set of pinned stages, optionally with per-stage assist bounds.

    When `assist_bound` is present its domain must equal `human_stages` and
    every bound must be >= 1.
    """

    human_stages: frozenset[str]
    assist_bound: Mapping[str, Fraction] | None = None

    def __init__(
        self,
        human_stages,
        assist_bound: Mapping[str, RationalInput] | None = None,
    ):
        stages = frozenset(human_stages)
        bounds = None
        if assist_bound is not None:
            bounds = {s: b if type(b) is Fraction else as_fraction(b)
                      for s, b in assist_bound.items()}
            if set(bounds) != stages:
                raise ConfigurationError(
                    "assist bounds must cover exactly the pinned stages"
                )
            low = sorted(
                s for s, b in bounds.items() if b.numerator < b.denominator
            )
            if low:
                raise ConfigurationError(f"assist bounds below 1: {_quoted(low)}")
            bounds = MappingProxyType(bounds)
        object.__setattr__(self, "human_stages", stages)
        object.__setattr__(self, "assist_bound", bounds)


def _require_nonempty(p: Pipeline, h: AuthoritySpec) -> None:
    if not h.human_stages:
        raise UndefinedCeilingError("pinned stage set is empty")
    unknown = sorted(s for s in h.human_stages if s not in p.capacity)
    if unknown:
        raise ConfigurationError(
            f"pinned stages not in pipeline: {_quoted(unknown)}")


def ceiling(p: Pipeline, h: AuthoritySpec) -> Fraction:
    """Smallest capacity among the pinned stages.  Upper-bounds the
    throughput of every perturbation that leaves the pinned stages at
    factor 1."""
    _require_nonempty(p, h)
    return p.capacity[_argmin(p, h.human_stages)[2][0]]


def is_h_admissible(a: Multiplier, h: AuthoritySpec) -> bool:
    """True iff every pinned stage keeps factor exactly 1."""
    return all((f := a.factor.get(s)) is not None and f.numerator == f.denominator
               for s in h.human_stages)


def tightness_witness(p: Pipeline, h: AuthoritySpec) -> Multiplier:
    """Multiplier that pins H at 1 and achieves the ceiling exactly.

    Non-pinned stages all get the integer factor
    N = ceil(ceiling / min non-pinned capacity) + 1, which pushes each of
    their perturbed capacities strictly above the ceiling; the minimum is
    then attained on H.  If every stage is pinned, the identity is the only
    choice and already attains the ceiling.
    """
    _require_nonempty(p, h)
    machine = [s for s in p.stages if s not in h.human_stages]
    hn, hd, _ = _argmin(p, h.human_stages)
    mn, md, _ = _argmin(p, machine)
    # N - 1 = ceil((hn/hd) / (mn/md)), all four positive; with no machine
    # stage the scan gives mn/md = 1/0, so N = 1 and this is the identity
    n = Fraction(-(-hn * md // (hd * mn)) + 1)
    return Multiplier({s: ONE if s in h.human_stages else n for s in p.stages})


def generalized_ceiling(p: Pipeline, h: AuthoritySpec) -> Fraction:
    """Ceiling under assist limits: min over pinned stages of bound * capacity,
    taken with `_argmin` weighted by the bounds.

    It is attained: pin each stage at its bound and raise the others by N,
    as `tightness_witness` does.  With all bounds equal to 1 it coincides
    with `ceiling`.
    """
    _require_nonempty(p, h)
    if h.assist_bound is None:
        raise ConfigurationError("generalized ceiling requires assist bounds")
    n, d, _ = _argmin(p, h.human_stages, h.assist_bound)
    return Fraction(n, d)
