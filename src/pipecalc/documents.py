"""Versioned JSON document format for pipelines, scenarios, and authority.

Capacities, factors, and assist bounds are written as exact text — "3",
"3.25", or "13/4" — and parsed back to the identical rational by Python
3.10's Fraction grammar on every interpreter (`as_fractions`, capacities in
one call; "1_000" and "3 / 4" are refused), so documents round-trip.  Schema:

    {
      "format_version": "1",
      "pipeline": {
        "name": "example",
        "stages": [{"id": "a", "capacity": "3"}, ...]
      },
      "authority": {                      # optional
        "human_stages": ["a"],
        "assist_bounds": {"a": "2"}       # optional
      },
      "scenarios": {                      # optional
        "boost": {"b": "2"}               # stages omitted default to 1
      }
    }
"""

from __future__ import annotations

import functools
import json
from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

from .ceiling import AuthoritySpec, ConfigurationError
from .model import (
    ONE,
    Multiplier,
    Pipeline,
    PipelineValidationError,
    Record,
    _quoted,
    _TooLong,
    as_fraction,
    as_fractions,
)

FORMAT_VERSION = "1"


class DocumentError(ValueError):
    """A document fails to parse or violates the schema."""


class PipelineDocument(Record):
    name: str
    pipeline: Pipeline
    authority: AuthoritySpec | None
    scenarios: Mapping[str, Multiplier]

    def __post_init__(self):
        object.__setattr__(self, "scenarios", MappingProxyType(dict(self.scenarios)))

    def scenario(self, name: str | None) -> Multiplier:
        """Named scenario, or the identity when name is None."""
        if name is None:
            return Multiplier.identity(self.pipeline)
        if name not in self.scenarios:
            raise DocumentError(f"no scenario named {_quoted(name)}; "
                                f"have {_quoted(sorted(self.scenarios))}")
        return self.scenarios[name]


def _text(value, quantity: str, *names) -> str:
    """Exact text of a rational, as a document or a report prints it.  A
    value longer than CPython's limit on int-to-text conversion is refused
    with an error naming `quantity`, its `{}` fields filled with `names`
    through _quoted, built only on refusal."""
    try:
        return str(value)
    except ValueError:  # the int-string digit limit
        quantity = quantity.format(*map(_quoted, names))
        raise DocumentError(
            f"{quantity} has too many digits to print exactly"
        ) from None


def _exact(text, what: str, *names) -> Fraction:
    """`text` as an exact rational.  A refusal labels it `what`, its `{}`
    fields filled with `names` through _quoted, built only on refusal."""
    try:
        return as_fraction(text)  # refuses bools and floats too
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        what = what.format(*map(_quoted, names))
        if isinstance(exc, _TooLong):  # exact: name it in place of "value"
            raise DocumentError(what + str(exc).removeprefix("value")) from None
        if isinstance(text, (bool, float)):
            raise DocumentError(
                f"{what} must be exact text or an integer, got {text!r}"
            ) from None
        reason = str(exc)
        if isinstance(text, str):  # Fraction's own message quotes it whole
            reason = reason.replace(repr(text), _quoted(text))
        raise DocumentError(f"{what} is not an exact rational: {reason}") from None


def _exact_once(memo: dict, text, what: str, *names) -> Fraction:
    """`_exact(text, what, *names)`, kept in `memo` per distinct str `text`;
    no other type is a key, since True == 1 == 1.0 would share an entry."""
    if type(text) is not str:
        return _exact(text, what, *names)
    x = memo.get(text)
    if x is None:
        x = memo[text] = _exact(text, what, *names)
    return x


def _json(text: str, refusal: str):
    """`text` parsed as JSON; a refusal reads `refusal: reason`."""
    try:
        return json.loads(text)
    except ValueError as exc:  # bad JSON, or an over-long integer
        raise DocumentError(f"{refusal}: {exc}") from None
    except RecursionError:
        raise DocumentError(f"{refusal}: nesting is too deep") from None


def parse_document(text: str) -> PipelineDocument:
    raw = _json(text, "not valid JSON")
    if not isinstance(raw, dict):
        raise DocumentError("document root must be an object")

    version = raw.get("format_version")
    if version != FORMAT_VERSION:
        raise DocumentError(
            f"unsupported format_version {_quoted(version)} "
            f"(expected {FORMAT_VERSION!r})"
        )

    pipe_raw = raw.get("pipeline")
    if not isinstance(pipe_raw, dict) or "stages" not in pipe_raw:
        raise DocumentError("missing pipeline.stages")
    name = pipe_raw.get("name", "")
    if not isinstance(name, str):
        raise DocumentError(f"pipeline.name {_quoted(name)} must be text")
    stage_records = pipe_raw["stages"]
    if not isinstance(stage_records, list):
        raise DocumentError("pipeline.stages must be a list of stage records")
    # accept first: the loop below runs only to word a refusal
    try:
        stages = [rec["id"] for rec in stage_records]
        pipeline = Pipeline(stages, dict(zip(stages, as_fractions(
            [rec["capacity"] for rec in stage_records]))))
    except (TypeError, KeyError, ValueError, ZeroDivisionError):
        stages = []
        capacity = {}
        for rec in stage_records:
            if not isinstance(rec, dict) or "id" not in rec or "capacity" not in rec:
                raise DocumentError(
                    f"stage record {_quoted(rec)} needs 'id' and 'capacity'") from None
            sid = rec["id"]
            if not isinstance(sid, str):
                raise DocumentError(f"stage id {_quoted(sid)} must be text") from None
            stages.append(sid)
            capacity[sid] = _exact(rec["capacity"], "capacity of stage {}", sid)
        try:
            pipeline = Pipeline(stages, capacity)
        except PipelineValidationError as exc:
            raise DocumentError(f"invalid pipeline: {exc}") from None
    cap = pipeline.capacity
    memo: dict = {}  # factor and bound texts converted so far

    authority = None
    if "authority" in raw:
        auth_raw = raw["authority"]
        if not isinstance(auth_raw, dict) or "human_stages" not in auth_raw:
            raise DocumentError("authority must carry human_stages")
        human = auth_raw["human_stages"]
        if not isinstance(human, list) or not all(isinstance(s, str) for s in human):
            raise DocumentError("authority.human_stages must be a list of stage ids")
        unknown = sorted({s for s in human if s not in cap})
        if unknown:
            raise DocumentError(f"authority names unknown stages {_quoted(unknown)}")
        bounds = None
        if "assist_bounds" in auth_raw:
            if not isinstance(auth_raw["assist_bounds"], dict):
                raise DocumentError(
                    "authority.assist_bounds must map stage ids to bounds"
                )
            bounds = {
                s: _exact_once(memo, v, "assist bound of stage {}", s)
                for s, v in auth_raw["assist_bounds"].items()
            }
        try:
            authority = AuthoritySpec(human, bounds)
        except ConfigurationError as exc:
            raise DocumentError(f"invalid authority: {exc}") from None

    scenarios_raw = raw.get("scenarios", {})
    if not isinstance(scenarios_raw, dict):
        raise DocumentError("scenarios must map scenario names to factor maps")
    scenarios = {}
    for scen_name, factors_raw in scenarios_raw.items():
        if not isinstance(factors_raw, dict):
            raise DocumentError(
                f"scenario {_quoted(scen_name)} must map stages to factors")
        if not factors_raw.keys() <= cap.keys():
            unknown = sorted(s for s in factors_raw if s not in cap)
            raise DocumentError(f"scenario {_quoted(scen_name)} names "
                                f"unknown stages {_quoted(unknown)}")
        factors = dict.fromkeys(pipeline.stages, ONE)
        factors.update({s: _exact_once(memo, v, "factor of stage {} in {}", s, scen_name)
                        for s, v in factors_raw.items()})
        try:
            scenarios[scen_name] = Multiplier(factors)
        except ValueError as exc:
            raise DocumentError(f"scenario {_quoted(scen_name)}: {exc}") from None

    return PipelineDocument(
        name=name,
        pipeline=pipeline,
        authority=authority,
        scenarios=scenarios,
    )


def document_dict(doc: PipelineDocument) -> dict:
    out: dict = {
        "format_version": FORMAT_VERSION,
        "pipeline": {
            "name": doc.name,
            "stages": [
                {"id": s, "capacity": _text(doc.pipeline.capacity[s],
                                            "capacity of stage {}", s)}
                for s in doc.pipeline.stages
            ],
        },
    }
    if doc.authority is not None:
        auth: dict = {
            "human_stages": sorted(doc.authority.human_stages),
        }
        if doc.authority.assist_bound is not None:
            auth["assist_bounds"] = {
                s: _text(b, "assist bound of stage {}", s)
                for s, b in sorted(doc.authority.assist_bound.items())
            }
        out["authority"] = auth
    if doc.scenarios:
        out["scenarios"] = {
            name: {s: _text(f, "factor of stage {} in {}", s, name)
                   for s, f in sorted(mult.factor.items())}
            for name, mult in sorted(doc.scenarios.items())
        }
    return out


_encoder = functools.cache(  # the C encoder per line break and indent `pad`
    lambda pad: json.JSONEncoder(sort_keys=True, separators=("," + pad, ": ")).encode)


def _dumps(value, pad: str = "\n") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`, byte for byte, for dicts
    with text keys, lists, tuples, text, ints, bools and None.  json encodes
    an indent in Python before 3.13, so each container holding no non-empty
    container is one C encoder call, its line break and indent in the item
    separator; only containers of containers recurse, `pad` before their end.
    Bools, None, ints and empty containers are written here, as json would."""
    is_dict = isinstance(value, dict)
    if not (is_dict or isinstance(value, (list, tuple))):
        if value is None or value is True or value is False:  # by identity: True == 1
            return "null" if value is None else "true" if value else "false"
        return int.__repr__(value) if isinstance(value, int) else _encoder(pad)(value)
    if not value:
        return "{}" if is_dict else "[]"
    inner = pad + "  "
    encode = _encoder(inner)
    values = value.values() if is_dict else value
    if {dict, list, tuple}.isdisjoint(map(type, filter(None, values))):
        text = encode(value)
        return text[0] + inner + text[1:-1] + pad + text[-1]
    parts = ([encode(k) + ": " + _dumps(v, inner) for k, v in sorted(value.items())]
             if is_dict else [_dumps(v, inner) for v in values])
    return "[{"[is_dict] + inner + ("," + inner).join(parts) + pad + "]}"[is_dict]


def serialize_document(doc: PipelineDocument) -> str:
    return _dumps(document_dict(doc)) + "\n"


def document_for_pipeline(pipeline: Pipeline, name: str = "") -> PipelineDocument:
    return PipelineDocument(
        name=name,
        pipeline=pipeline,
        authority=None,
        scenarios={},
    )


def _read(path, refusal: str) -> str:
    """The text of file `path`; a refusal reads `refusal: reason`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: the file is not UTF-8
        raise DocumentError(f"{refusal}: {exc}") from None


def load_document(path) -> PipelineDocument:
    return parse_document(_read(path, f"cannot read {path}"))
