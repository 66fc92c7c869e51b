"""Scenario files and built-in presets.

A scenario file is a JSON document mirroring :class:`~rateauction.engine.Scenario`:

    {
      "R": 100.0,
      "delta": 0.01,
      "max_iterations": 20,
      "seed": 0,
      "allow_early_stop": null,
      "users": [
        {"type": "logarithmic", "k": 1.0, "r_max": 100.0},
        {"type": "sigmoidal", "a": "FIXED(15.0)", "b": "FIXED(20.0)"}
      ]
    }

Unknown fields are rejected, and every diagnostic names the offending
field (or carries the JSON line/column for syntax errors).
"""

from __future__ import annotations

import json
from typing import Any

from .engine import LogarithmicUserSpec, Scenario, SigmoidalUserSpec, SpecError, UserSpec
from .sampling import Fixed, Normal, ParamSpec, Triangular, format_param_spec, parse_param_spec

PRESET_CAPACITY = 100.0
PRESET_DELTA = 1e-2
PRESET_ITERATIONS = 20


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""


def _fail(source: str, field: str, message: str) -> None:
    raise ScenarioError(f"{source}: field '{field}': {message}")


def _check_fields(source: str, prefix: str, raw: dict, fields: set) -> None:
    """Refuse a field of ``raw`` not in ``fields``, then one of ``fields``
    that ``raw`` lacks, naming it after ``prefix``."""
    unknown = set(raw) - fields
    if unknown:
        _fail(source, f"{prefix}{sorted(unknown)[0]}", "unknown field")
    missing = fields - set(raw)
    if missing:
        _fail(source, f"{prefix}{sorted(missing)[0]}", "missing field")


def _param_spec(key: str, raw: Any) -> ParamSpec:
    """A spec field's spec; SpecError names ``key`` for its syntax or its arguments."""
    try:
        return parse_param_spec(raw)
    except ValueError as exc:
        raise SpecError(key, str(exc)) from exc


def _parse_user(source: str, where: str, raw: Any) -> UserSpec:
    if not isinstance(raw, dict):
        _fail(source, where, f"expected an object, got {raw!r}")
    kind = raw.get("type")
    if kind not in ("sigmoidal", "logarithmic"):
        _fail(source, f"{where}.type", f"expected 'sigmoidal' or 'logarithmic', got {kind!r}")
    _check_fields(source, f"{where}.", raw, {"type", "a", "b"} if kind == "sigmoidal" else {"type", "k", "r_max"})
    try:
        if kind == "logarithmic":
            return LogarithmicUserSpec(k=raw["k"], r_max=raw["r_max"])
        return SigmoidalUserSpec(a=_param_spec("a", raw["a"]), b=_param_spec("b", raw["b"]))
    except SpecError as exc:
        _fail(source, f"{where}.{exc.field}", str(exc))


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    """Parse scenario JSON from a string.  Only the document's shape is
    checked here; the spec constructors check every value, and each
    SpecError's field is named by its path in the document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{source}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ScenarioError(f"{source}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{source}: top level must be an object")
    doc = {"allow_early_stop": None, **doc}  # the one optional field
    _check_fields(source, "", doc, {"R", "delta", "max_iterations", "seed", "allow_early_stop", "users"})
    if not isinstance(doc["users"], list):
        _fail(source, "users", "expected a list")
    users = tuple(_parse_user(source, f"users[{i}]", raw) for i, raw in enumerate(doc["users"]))
    try:
        return Scenario(
            capacity=doc["R"],
            delta=doc["delta"],
            max_iterations=doc["max_iterations"],
            seed=doc["seed"],
            users=users,
            allow_early_stop=doc["allow_early_stop"],
        )
    except SpecError as exc:
        _fail(source, exc.field, str(exc))


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: cannot read scenario file: {exc}") from exc
    return parse_scenario(text, source=str(path))


def _user_to_doc(spec: UserSpec) -> dict:
    if isinstance(spec, SigmoidalUserSpec):
        return {
            "type": "sigmoidal",
            "a": format_param_spec(spec.a),
            "b": format_param_spec(spec.b),
        }
    return {"type": "logarithmic", "k": spec.k, "r_max": spec.r_max}


def scenario_to_json(scenario: Scenario) -> str:
    """Canonical JSON rendering; loading it back reproduces the scenario."""
    doc = {
        "R": scenario.capacity,
        "delta": scenario.delta,
        "max_iterations": scenario.max_iterations,
        "seed": scenario.seed,
        "allow_early_stop": scenario.allow_early_stop,
        "users": [_user_to_doc(u) for u in scenario.users],
    }
    return json.dumps(doc, indent=2) + "\n"


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(scenario_to_json(scenario))


# The real-time users' (a, b) centres, and how each preset spreads a centre
# c into a parameter spec: FIXED(c), NORM(c, 2) or TRIA(c - 2, c, c + 2).
_SIGMOID_CENTRES = ((15.0, 20.0), (10.0, 25.0), (5.0, 35.0))
PRESETS = {
    "fixed": Fixed,
    "normal": lambda c: Normal(c, 2.0),
    "triangular": lambda c: Triangular(c - 2.0, c, c + 2.0),
}


def preset(name: str) -> Scenario:
    """Built-in scenario: three delay-tolerant users (k = 1, 0.1, 0.02)
    plus three real-time users under the named parameter regime."""
    try:
        spread = PRESETS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    # r_max is taken equal to the capacity: the utility must reach 1
    # somewhere and the pool size is the only scale available
    log_users = tuple(LogarithmicUserSpec(k=k, r_max=PRESET_CAPACITY) for k in (1.0, 0.1, 0.02))
    sigmoid_users = tuple(SigmoidalUserSpec(a=spread(a), b=spread(b)) for a, b in _SIGMOID_CENTRES)
    return Scenario(
        capacity=PRESET_CAPACITY,
        delta=PRESET_DELTA,
        max_iterations=PRESET_ITERATIONS,
        seed=0,
        users=log_users + sigmoid_users,
    )
