"""Serial pipeline data model and the foundational throughput operations.

A pipeline is an ordered sequence of named stages, each with a strictly
positive capacity.  System throughput is the minimum stage capacity; the
bottleneck set is the set of stages attaining it.  An improvement multiplier
assigns each stage a factor >= 1, and perturbation multiplies capacities
stagewise.

All quantities are exact rationals (`fractions.Fraction`).  Floats are
rejected at the boundary: the equality and tie structure the analysis relies
on would not survive binary rounding.  Every minimum is one `_argmin`: the
least weight x capacity over a set of stages, with weight 1 or a pointwise
factor, in one scan that cross-multiplies `as_integer_ratio()` pairs, so it
is exact and builds no Fraction until the result.  `Pipeline`, `Multiplier`
and `planner.CostModel` accept first: one cheap test passes valid input, and
their value-by-value checks run only to word a refusal.  The constructors'
sign checks (capacity > 0, factor >= 1, and their relatives in `ceiling` and
`planner`) read the sign off the normalised numerator and denominator, and
`characterize` decides whether throughput changed, and preservation's
separation test, on unreduced integer pairs in the same way.  Parsing is on
integers too: `as_fraction` reads "17", "13/4" and "3.25" with int() alone,
and any other text with Fraction.

Model assumptions enforced by validation (numbered for report output):
  1. the stage set is finite and nonempty;
  2. every stage capacity is strictly positive.
Structural requirements (unique stage ids, capacity domain equal to the
stage set) are reported alongside by name.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from types import MappingProxyType

RationalInput = Fraction | int | str

# CPython's default int-string digit limit.  Fraction expands a decimal
# exponent into a power of ten before anything can check it, so text such
# as "1e999999999" would stall; a larger exponent is refused first.
MAX_EXPONENT = 4300

# the least integer of MAX_EXPONENT + 1 digits; a value whose numerator or
# denominator reaches it cannot be printed back, so text spelling one is
# refused on input (compared as ints, never converted to text)
_UNPRINTABLE = 10 ** MAX_EXPONENT

# the most characters of a raw value that a refusal message quotes
_QUOTE_LIMIT = 60

# the factor of a stage left unimproved; Fractions are immutable, so every
# default factor is this one value and none is built per stage
ONE = Fraction(1)

# a refusal's stand-in for a value too long for CPython's int-to-text limit
_UNSHOWN = f"<a value of more than {MAX_EXPONENT} digits>"


def _shown(value) -> str:
    """`value` as text for a refusal message, or _UNSHOWN."""
    try:
        return str(value)
    except ValueError:  # the int-string digit limit
        return _UNSHOWN


class _TooLong(ValueError):
    """An exact value refused for its size alone, its digits or its decimal
    exponent; the message starts "value"."""


def _printable(x: Fraction) -> Fraction:
    """`x`, refused unless its numerator and denominator have at most
    MAX_EXPONENT digits, the most that CPython prints as text.

    as_fraction asks only where text can spell a longer value: off its
    digit paths, or in more than MAX_EXPONENT characters.  Without an exponent
    a value has no more digits than its text has characters, and digits or
    digits/digits need no check at all: int() bounds each part, and
    normalising only shrinks them."""
    if abs(x.numerator) >= _UNPRINTABLE or x.denominator >= _UNPRINTABLE:
        raise _TooLong(
            f"value has more than {MAX_EXPONENT} digits in its numerator or "
            "denominator, too many to print exactly")
    return x


def _quoted(value) -> str:
    """repr of a raw value for a refusal message, cut after _QUOTE_LIMIT
    characters so that a malformed value of any size or depth is not
    echoed back whole; a shorter repr is quoted as is, and one that would
    pass the int-to-text limit is _UNSHOWN."""
    try:
        text = repr(value)
    except ValueError:  # the int-string digit limit
        return _UNSHOWN
    if len(text) <= _QUOTE_LIMIT:
        return text
    return f"{text[:_QUOTE_LIMIT]}... (a {type(value).__name__}, cut)"


class PipelineValidationError(ValueError):
    """Raised when a pipeline description violates a model assumption."""

    def __init__(self, report: "ValidationReport"):
        super().__init__("; ".join(report.violations))
        self.report = report


class AdmissibilityError(ValueError):
    """Raised when a multiplier is not admissible for the target pipeline."""


def as_fraction(value: RationalInput) -> Fraction:
    """Convert an exact input (int, Fraction, or text) to a Fraction.  Text
    is read by 3.10's Fraction grammar on every Python: `N/D`, or `N`, `N.`,
    `.F` or `N.F` with an optional `eX`, for decimal digits N, D, F and X, N
    and X signed or not, in optional whitespace; so `_`, `d` and whitespace
    beside `/`, read or misread by later versions, get 3.10's refusal.
    Floats are refused, and so is text whose decimal exponent exceeds
    MAX_EXPONENT in magnitude, or whose value has a numerator or denominator
    of more than MAX_EXPONENT digits, which could not be printed back.

    A Fraction is returned as is: it is immutable.  ASCII N, N/D with D
    nonzero and N.F are read with int() part by part, as Fraction's parser
    does, so the value and any digit-limit refusal are the same."""
    if type(value) is Fraction:
        return value
    if type(value) is str and value.isascii():
        if value.isdigit():
            return Fraction(int(value))
        n, _, d = value.partition("/")
        if n.isdigit() and d.isdigit() and d.strip("0"):
            return Fraction(int(n), int(d))
        w, _, f = value.partition(".")
        if w.isdigit() and f.isdigit():
            scale = 10 ** len(f)
            x = Fraction(int(w) * scale + int(f), scale)
            return _printable(x) if len(value) > MAX_EXPONENT else x
    if isinstance(value, bool):
        raise TypeError("booleans are not capacities")
    if isinstance(value, float):
        raise TypeError(
            "floats are not accepted; pass an int, Fraction, or exact text "
            'such as "3.25" or "13/4"'
        )
    if isinstance(value, str):
        if "e" in value or "E" in value:
            exponent = value.lower().rpartition("e")[2].strip().lstrip("+-")
            digits = exponent.replace("_", "").lstrip("0")
            # the length test comes first: int() of a long digit string is slow
            if digits.isdecimal() and (len(digits) > 4 or int(digits) > MAX_EXPONENT):
                raise _TooLong(f"value has a decimal exponent above {MAX_EXPONENT} in "
                               "magnitude, too large to expand exactly")
        n, slash, d = value.partition("/")
        if any(c in value for c in "_dD") or slash and (n[-1:].isspace() or d[:1].isspace()):
            raise ValueError(f"Invalid literal for Fraction: {value!r}")
        return _printable(Fraction(value))
    return Fraction(value)


# bound once: a generic record __init__ calls it for every value built
_setattr = object.__setattr__


class Record:
    """Base of pipecalc's immutable values; it compiles no code per class.
    The fields are the names annotated in a subclass's own body, in order,
    with class attributes of those names as defaults; equality and hash are
    those of the field tuple.  A validating constructor defines its own
    `__init__` and sets each field with `object.__setattr__`."""

    def __init_subclass__(cls):
        cls._fields = cls.__match_args__ = tuple(vars(cls).get("__annotations__", ()))
        cls._names = names = frozenset(cls._fields)
        if "__init__" in vars(cls):  # a validating constructor
            return
        # the generic __init__, its names and __post_init__ found once, not per call
        post_init = vars(cls).get("__post_init__")

        def __init__(self, *args, **kwargs):
            # the usual call names every field once by keyword: no binding
            if args or kwargs.keys() != names:
                kwargs = self._bind(args, kwargs)
            _setattr(self, "__dict__", kwargs)
            if post_init is not None:
                post_init(self)
        cls.__init__ = __init__

    def _bind(self, args: tuple, kwargs: dict) -> dict:
        """The fields of a call by position or with defaults, or TypeError."""
        cls, fields = type(self), self._fields
        given = dict(zip(fields, args))
        values = {f: vars(cls)[f] for f in fields if f in vars(cls)} | given | kwargs
        if len(args) > len(fields) or given.keys() & kwargs or values.keys() != self._names:
            raise TypeError(f"{cls.__qualname__}() takes the fields {', '.join(fields)}; got "
                            f"{len(args)} by position and {', '.join(kwargs) or 'none'} by name")
        return values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # a mappingproxy cannot be pickled, even nested; every constructor takes dicts
        return type(self), tuple(
            {k: dict(x) if type(x) is MappingProxyType else x for k, x in v.items()}
            if type(v) is MappingProxyType else v for v in self._values())


class ValidationReport(Record):
    """Outcome of validating a raw pipeline description.

    `violations` lists every failed check, not just the first, so an input
    file can be repaired in one pass.
    """

    violations: tuple[str, ...]


def _check_description(
    stages: Sequence[str], capacity: Mapping[str, Fraction]
) -> list[str]:
    violations = []
    if len(stages) == 0:
        violations.append("assumption 1 violated: stage set is empty")
    seen = set()
    for s in stages:
        if not isinstance(s, str) or not s:
            violations.append(f"stage id {_quoted(s)} is not nonempty text")
        elif s in seen:
            violations.append(f"duplicate stage id {_quoted(s)}: stage ids form a set")
        seen.add(s)
    for s in stages:
        if s not in capacity:
            violations.append(f"stage {_quoted(s)} has no capacity")
    for s in capacity:
        if s not in seen:
            violations.append(f"capacity given for unknown stage {_quoted(s)}")
    for s, c in capacity.items():
        if s in seen and c.numerator <= 0:  # denominators are positive
            violations.append(
                f"assumption 2 violated: capacity of stage {_quoted(s)} is "
                f"{_shown(c)} (must be > 0)"
            )
    return violations


class Pipeline(Record):
    """Ordered stages with exact positive capacities.

    The stage order models the serial structure and is preserved through
    serialization and report output, but no computation consults it: every
    result depends only on the stage set and the capacity function.
    Immutable after construction.
    """

    stages: tuple[str, ...]
    capacity: Mapping[str, Fraction]

    def __init__(
        self,
        stages: Iterable[str],
        capacity: Mapping[str, RationalInput],
    ):
        stage_tuple = tuple(stages)
        cap = (dict(capacity) if set(map(type, capacity.values())) == {Fraction} else
               {s: c if type(c) is Fraction else as_fraction(c) for s, c in capacity.items()})
        # accept first: _check_description runs only to word a refusal
        if not (set(map(type, stage_tuple)) == {str} and "" not in (ids := set(stage_tuple))
                and len(ids) == len(stage_tuple) and cap.keys() == ids
                and not [c for c in cap.values() if c.numerator <= 0]):
            violations = _check_description(stage_tuple, cap)
            if violations:
                raise PipelineValidationError(ValidationReport(tuple(violations)))
        object.__setattr__(self, "stages", stage_tuple)
        object.__setattr__(self, "capacity", MappingProxyType(cap))

    def __hash__(self) -> int:
        return hash((self.stages, tuple(sorted(self.capacity.items()))))


def validate_pipeline(
    stages: Iterable[str], capacity: Mapping[str, RationalInput]
) -> Pipeline | ValidationReport:
    """Build a Pipeline, or return a report listing every violated check;
    a capacity that cannot be converted raises as from `Pipeline`."""
    try:
        return Pipeline(stages, capacity)
    except PipelineValidationError as exc:
        return exc.report


class Multiplier(Record):
    """Per-stage improvement factors, each >= 1.  Factor 1 means unimproved."""

    factor: Mapping[str, Fraction]

    def __init__(self, factor: Mapping[str, RationalInput]):
        # accept first: convert and check only if some value is not a Fraction >= 1
        if [s for s, v in factor.items() if v is not ONE and (
                type(v) is not Fraction or v.numerator < v.denominator)]:
            factor = {s: v if type(v) is Fraction else as_fraction(v)
                      for s, v in factor.items()}
            bad = [s for s, v in factor.items() if v is not ONE and v.numerator < v.denominator]
            if bad:
                raise AdmissibilityError(
                    f"factors below 1 are inadmissible: {_quoted(sorted(bad))}"
                )
        object.__setattr__(self, "factor", MappingProxyType(dict(factor)))

    @classmethod
    def identity(cls, p: Pipeline) -> "Multiplier":
        return cls(dict.fromkeys(p.stages, ONE))

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.factor.items())))


def check_admissible(p: Pipeline, a: Multiplier) -> None:
    """Raise AdmissibilityError unless a's domain is exactly p's stage set.

    Factor lower bounds are already enforced by the Multiplier constructor.
    """
    # a valid pipeline's capacity domain is its stage set
    if a.factor.keys() == p.capacity.keys():
        return
    stage_set = set(p.stages)
    domain = set(a.factor)
    missing = sorted(stage_set - domain)
    extra = sorted(domain - stage_set)
    parts = []
    if missing:
        parts.append(f"missing factors for stages {_quoted(missing)}")
    if extra:
        parts.append(f"factors for unknown stages {_quoted(extra)}")
    raise AdmissibilityError("; ".join(parts))


class BottleneckReport(Record):
    """Throughput plus the partition of stages into bottlenecks and the rest.

    Bottlenecks are listed in stage-sequence order for deterministic output;
    comparisons between reports use set semantics.
    """

    throughput: Fraction
    bottlenecks: tuple[str, ...]
    non_bottlenecks: tuple[str, ...]


def _argmin(p: Pipeline, stages: Iterable[str] | None = None,
            weight: Mapping[str, Fraction] | None = None) -> tuple[int, int, list[str]]:
    """Least weight[s] * capacity[s] over `stages` (default: all, in stage
    order; weight 1 where none is given), as (n, d, stages attaining it in
    the order scanned), from 1/0, above every value: (1, 0, []) for none.

    Each value is the unreduced product of `as_integer_ratio()` pairs, and
    n1/d1 < n2/d2 exactly when n1*d2 < n2*d1, so every comparison is one
    pair of integer products and no Fraction is built or normalised."""
    cap, best_n, best_d, ties = p.capacity, 1, 0, []
    for s in (p.stages if stages is None else stages):
        n, d = cap[s].as_integer_ratio()
        if weight is not None:
            wn, wd = weight[s].as_integer_ratio()
            n, d = n * wn, d * wd
        lhs, rhs = n * best_d, best_n * d
        if lhs < rhs:
            best_n, best_d, ties = n, d, [s]
        elif lhs == rhs:
            ties.append(s)
    return best_n, best_d, ties


def throughput(p: Pipeline) -> Fraction:
    """Minimum stage capacity.  Always exists and is > 0."""
    return p.capacity[_argmin(p)[2][0]]


def bottleneck_set(p: Pipeline) -> frozenset[str]:
    return frozenset(_argmin(p)[2])


def bottleneck_report(p: Pipeline) -> BottleneckReport:
    bottle = _argmin(p)[2]
    tied = set(bottle)
    return BottleneckReport(
        throughput=p.capacity[bottle[0]],
        bottlenecks=tuple(bottle),
        non_bottlenecks=tuple(s for s in p.stages if s not in tied),
    )


def perturb(p: Pipeline, a: Multiplier) -> Pipeline:
    """Apply a stagewise: capacity of each stage becomes factor * capacity.

    The result is again a valid pipeline (positive capacities, same stage
    order).
    """
    check_admissible(p, a)
    return Pipeline(p.stages, {s: a.factor[s] * p.capacity[s] for s in p.stages})


def perturbed_throughput(p: Pipeline, a: Multiplier) -> Fraction:
    """Throughput after perturbation, computed directly as
    min over stages of factor * capacity, without building the perturbed
    pipeline."""
    check_admissible(p, a)
    n, d, _ = _argmin(p, None, a.factor)
    return Fraction(n, d)
