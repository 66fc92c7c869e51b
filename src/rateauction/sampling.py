"""Seeded sampling of sigmoid parameters under three regimes.

Parameter specs are either fixed values, normal draws NORM(mu, sigma), or
triangular draws TRIA(min, ml, max) with mode ml.  Sigmoid users with
non-fixed specs get fresh (a, b) draws once per auction iteration, before
they solve their subproblem.

Reproducibility contract: every draw is a pure function of
(seed, iteration, user_id).  Each such triple keys its own PCG64 stream
via numpy's SeedSequence spawning, so users and iterations can be sampled
in any order (or concurrently) with identical results.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .ue import UserState
from .utility import SigmoidalUtility

# Clamp bounds for sampled sigmoid parameters.  Normal specs put tail mass
# on non-positive values, which would make the utility invalid.
MIN_STEEPNESS = 0.1
MIN_INFLECTION = 1.0


@dataclass(frozen=True)
class Fixed:
    """Degenerate spec: every draw returns the same value."""

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"FIXED value must be finite, got {self.value}")


@dataclass(frozen=True)
class Normal:
    """NORM(mu, sigma): gaussian draws around mu."""

    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise ValueError(f"NORM parameters must be finite, got ({self.mu}, {self.sigma})")
        if not self.sigma > 0:
            raise ValueError(f"NORM sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class Triangular:
    """TRIA(min, ml, max): bounded draws with mode ml."""

    lo: float
    mode: float
    hi: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) for x in (self.lo, self.mode, self.hi)):
            raise ValueError(
                f"TRIA parameters must be finite, got ({self.lo}, {self.mode}, {self.hi})"
            )
        if not (self.lo <= self.mode <= self.hi):
            raise ValueError(
                f"TRIA requires min <= ml <= max, got ({self.lo}, {self.mode}, {self.hi})"
            )
        if not self.lo < self.hi:
            raise ValueError(f"TRIA requires min < max, got ({self.lo}, {self.hi})")


ParamSpec = Union[Fixed, Normal, Triangular]

_SPEC_RE = re.compile(r"^\s*(FIXED|NORM|TRIA)\s*\(\s*([^)]*)\s*\)\s*$")


def parse_param_spec(text) -> ParamSpec:
    """Parse ``FIXED(v)``, ``NORM(mu,sigma)`` or ``TRIA(min,ml,max)``.

    A bare number is accepted as shorthand for FIXED.
    """
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        return Fixed(float(text))
    if not isinstance(text, str):
        raise ValueError(f"expected a FIXED/NORM/TRIA spec string, got {text!r}")
    m = _SPEC_RE.match(text)
    if m is None:
        raise ValueError(f"expected FIXED(v), NORM(mu,sigma) or TRIA(min,ml,max), got {text!r}")
    name, body = m.group(1), m.group(2)
    try:
        args = [float(part) for part in body.split(",")] if body.strip() else []
    except ValueError:
        raise ValueError(f"non-numeric argument in spec {text!r}") from None
    arity = {"FIXED": 1, "NORM": 2, "TRIA": 3}[name]
    if len(args) != arity:
        raise ValueError(f"{name} takes {arity} argument(s), got {len(args)} in {text!r}")
    if name == "FIXED":
        return Fixed(args[0])
    if name == "NORM":
        return Normal(args[0], args[1])
    return Triangular(args[0], args[1], args[2])


def format_param_spec(spec: ParamSpec) -> str:
    """Canonical spelling; round-trips through :func:`parse_param_spec`."""
    if isinstance(spec, Fixed):
        return f"FIXED({spec.value!r})"
    if isinstance(spec, Normal):
        return f"NORM({spec.mu!r},{spec.sigma!r})"
    if isinstance(spec, Triangular):
        return f"TRIA({spec.lo!r},{spec.mode!r},{spec.hi!r})"
    raise TypeError(f"not a ParamSpec: {spec!r}")


def is_stochastic(spec: ParamSpec) -> bool:
    return not isinstance(spec, Fixed)


def stream_rng(seed: int, iteration: int, user_id: int) -> np.random.Generator:
    """Independent generator for one (iteration, user) cell of one run."""
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(iteration, user_id))
    )


def triangular_inverse_cdf(u: float, lo: float, mode: float, hi: float) -> float:
    """Map a uniform u in [0, 1] through the triangular quantile function."""
    split = (mode - lo) / (hi - lo)
    if u < split:
        return lo + math.sqrt(u * (hi - lo) * (mode - lo))
    return hi - math.sqrt((1.0 - u) * (hi - lo) * (hi - mode))


def sample(spec: ParamSpec, rng: np.random.Generator) -> float:
    """One draw; Fixed consumes no randomness."""
    if isinstance(spec, Fixed):
        return spec.value
    if isinstance(spec, Normal):
        return float(rng.normal(spec.mu, spec.sigma))
    if isinstance(spec, Triangular):
        return triangular_inverse_cdf(float(rng.random()), spec.lo, spec.mode, spec.hi)
    raise TypeError(f"not a ParamSpec: {spec!r}")


def clamp_sigmoid_params(a: float, b: float, capacity: float) -> tuple[float, float]:
    """Force sampled (a, b) into the valid range: a >= 0.1, 1 <= b <= capacity."""
    return max(a, MIN_STEEPNESS), min(max(b, MIN_INFLECTION), capacity)


def resample_user(
    state: UserState,
    a_spec: ParamSpec,
    b_spec: ParamSpec,
    capacity: float,
    rng: np.random.Generator,
) -> UserState:
    """Fresh (a, b) draws for a sigmoid user; a drawn first, then b.

    Fully fixed specs return the state unchanged.  Draws are clamped so
    the resulting utility is always valid.
    """
    if not isinstance(state.utility, SigmoidalUtility):
        raise TypeError(f"user {state.user_id} is not sigmoidal; nothing to resample")
    if isinstance(a_spec, Fixed) and isinstance(b_spec, Fixed):
        return state
    a = sample(a_spec, rng)
    b = sample(b_spec, rng)
    a, b = clamp_sigmoid_params(a, b, capacity)
    return replace(state, utility=SigmoidalUtility(a=a, b=b))
