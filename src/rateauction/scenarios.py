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
from .sampling import Fixed, Normal, Triangular, format_param_spec, parse_param_spec

PRESET_CAPACITY = 100.0
PRESET_DELTA = 1e-2
PRESET_ITERATIONS = 20


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate."""


def _fail(source: str, field: str, message: str) -> None:
    raise ScenarioError(f"{source}: field '{field}': {message}")


def _require_number(source: str, field: str, value: Any, *, integer: bool = False) -> float:
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if integer:
        ok = isinstance(value, int) and not isinstance(value, bool)
    if not ok:
        _fail(source, field, f"expected {'an integer' if integer else 'a number'}, got {value!r}")
    return value


def _parse_user(source: str, index: int, raw: Any) -> UserSpec:
    where = f"users[{index}]"
    if not isinstance(raw, dict):
        _fail(source, where, f"expected an object, got {raw!r}")
    kind = raw.get("type")
    if kind == "sigmoidal":
        allowed = {"type", "a", "b"}
    elif kind == "logarithmic":
        allowed = {"type", "k", "r_max"}
    else:
        _fail(source, f"{where}.type", f"expected 'sigmoidal' or 'logarithmic', got {kind!r}")
    unknown = set(raw) - allowed
    if unknown:
        _fail(source, f"{where}.{sorted(unknown)[0]}", "unknown field")
    missing = allowed - set(raw)
    if missing:
        _fail(source, f"{where}.{sorted(missing)[0]}", "missing field")

    if kind == "sigmoidal":
        specs = {}
        for key in ("a", "b"):
            try:
                specs[key] = parse_param_spec(raw[key])
            except ValueError as exc:
                _fail(source, f"{where}.{key}", str(exc))
        try:
            return SigmoidalUserSpec(a=specs["a"], b=specs["b"])
        except SpecError as exc:
            _fail(source, f"{where}.{exc.field}", str(exc))

    k = _require_number(source, f"{where}.k", raw["k"])
    r_max = _require_number(source, f"{where}.r_max", raw["r_max"])
    try:
        return LogarithmicUserSpec(k=float(k), r_max=float(r_max))
    except SpecError as exc:
        _fail(source, f"{where}.{exc.field}", str(exc))


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    """Parse and validate scenario JSON from a string."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{source}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"{source}: top level must be an object")

    allowed = {"R", "delta", "max_iterations", "seed", "allow_early_stop", "users"}
    unknown = set(doc) - allowed
    if unknown:
        _fail(source, sorted(unknown)[0], "unknown field")
    for field in ("R", "delta", "max_iterations", "seed", "users"):
        if field not in doc:
            _fail(source, field, "missing field")

    capacity = _require_number(source, "R", doc["R"])
    delta = _require_number(source, "delta", doc["delta"])
    max_iterations = _require_number(source, "max_iterations", doc["max_iterations"], integer=True)
    seed = _require_number(source, "seed", doc["seed"], integer=True)
    early = doc.get("allow_early_stop")
    if early is not None and not isinstance(early, bool):
        _fail(source, "allow_early_stop", f"expected true, false or null, got {early!r}")
    if not isinstance(doc["users"], list):
        _fail(source, "users", "expected a list")

    users = tuple(_parse_user(source, i, raw) for i, raw in enumerate(doc["users"]))
    try:
        return Scenario(
            capacity=float(capacity),
            delta=float(delta),
            max_iterations=int(max_iterations),
            seed=int(seed),
            users=users,
            allow_early_stop=early,
        )
    except SpecError as exc:
        _fail(source, exc.field, str(exc))


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
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


def _log_users() -> tuple[UserSpec, ...]:
    # r_max is taken equal to the capacity: the utility must reach 1
    # somewhere and the pool size is the only scale available
    return (
        LogarithmicUserSpec(k=1.0, r_max=PRESET_CAPACITY),
        LogarithmicUserSpec(k=0.1, r_max=PRESET_CAPACITY),
        LogarithmicUserSpec(k=0.02, r_max=PRESET_CAPACITY),
    )


def _preset(users: tuple[UserSpec, ...]) -> Scenario:
    return Scenario(
        capacity=PRESET_CAPACITY,
        delta=PRESET_DELTA,
        max_iterations=PRESET_ITERATIONS,
        seed=0,
        users=users,
    )


def _fixed_preset() -> Scenario:
    return _preset(
        _log_users()
        + (
            SigmoidalUserSpec(a=Fixed(15.0), b=Fixed(20.0)),
            SigmoidalUserSpec(a=Fixed(10.0), b=Fixed(25.0)),
            SigmoidalUserSpec(a=Fixed(5.0), b=Fixed(35.0)),
        )
    )


def _normal_preset() -> Scenario:
    return _preset(
        _log_users()
        + (
            SigmoidalUserSpec(a=Normal(15.0, 2.0), b=Normal(20.0, 2.0)),
            SigmoidalUserSpec(a=Normal(10.0, 2.0), b=Normal(25.0, 2.0)),
            SigmoidalUserSpec(a=Normal(5.0, 2.0), b=Normal(35.0, 2.0)),
        )
    )


def _triangular_preset() -> Scenario:
    return _preset(
        _log_users()
        + (
            SigmoidalUserSpec(a=Triangular(13.0, 15.0, 17.0), b=Triangular(18.0, 20.0, 22.0)),
            SigmoidalUserSpec(a=Triangular(8.0, 10.0, 12.0), b=Triangular(23.0, 25.0, 27.0)),
            SigmoidalUserSpec(a=Triangular(3.0, 5.0, 7.0), b=Triangular(33.0, 35.0, 37.0)),
        )
    )


PRESETS = {
    "fixed": _fixed_preset,
    "normal": _normal_preset,
    "triangular": _triangular_preset,
}


def preset(name: str) -> Scenario:
    """Built-in scenario: three delay-tolerant users (k = 1, 0.1, 0.02)
    plus three real-time users under the named parameter regime."""
    try:
        builder = PRESETS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
    return builder()
