"""Utility families for rate allocation.

Two normalized families describe how much a user values an allocated
rate ``r``:

* sigmoidal -- S-shaped, models adaptive real-time traffic (VoIP, video)
  that is nearly worthless below an inflection rate and saturates above it;
* logarithmic -- concave with diminishing returns, models delay-tolerant
  traffic (file transfer) that benefits from any rate.

Both satisfy ``U(0) = 0`` and reach 1 (at infinity for the sigmoidal
family, at ``r_max`` for the logarithmic one).  Evaluators accept scalars
or numpy arrays and are written so that no large exponential is ever
formed: the textbook sigmoid normalization needs ``exp(a*b)``, which
overflows float64 already for ``a*b > ~710`` while realistic parameter
sets reach ``a*b = 300``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import expit

SMALLEST_NORMAL = np.finfo(float).tiny


class RateDomainError(ValueError):
    """log-utility is undefined: U(r) underflows to zero at the given rate."""


def sigmoid_log_slope(a, b, r):
    """d(log U)/dr of the sigmoidal family, elementwise over a, b and r.

    The single home of the formula and its domain guard: the utility
    method and the lane solver both call it, so a scalar solve and a lane
    solve perform the same float operations.
    """
    neg_a = -a
    x = neg_a * r
    decay = -np.expm1(x)
    # count_nonzero, not np.any: the guard runs on every evaluation, and
    # np.any's reduction costs several times the formula on small inputs;
    # below the smallest normal float, exp(x) / decay overflows
    if np.count_nonzero(decay < SMALLEST_NORMAL):
        raise RateDomainError(f"log-slope undefined: a*r underflows for a={a}, r={r}")
    return a * (np.exp(x) / decay + expit(neg_a * (r - b)))


def logarithmic_log_slope(k, r):
    """d(log U)/dr of the logarithmic family, elementwise over k and r."""
    kr = k * r
    growth = np.log1p(kr)
    if np.count_nonzero(growth <= 0.0):
        raise RateDomainError(f"log-slope undefined: k*r underflows for k={k}, r={r}")
    return k / ((1.0 + kr) * growth)


@dataclass(frozen=True)
class SigmoidalUtility:
    """S-shaped utility ``c * (1/(1 + exp(-a*(r - b))) - d)``.

    ``c = (1 + exp(a*b)) / exp(a*b)`` and ``d = 1 / (1 + exp(a*b))`` pin
    the curve to U(0) = 0 and U(inf) = 1.  Internally everything is
    evaluated through the algebraically identical form

        U(r) = (1 - exp(-a*r)) * expit(a*(r - b))

    which stays in [0, 1] for any float inputs, is exact at r = 0, and
    never overflows.

    a: steepness of the transition (per unit rate), > 0
    b: inflection rate, the effective minimum useful rate, > 0
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not self.a > 0:
            raise ValueError(f"sigmoid steepness a must be > 0, got {self.a}")
        if not self.b > 0:
            raise ValueError(f"sigmoid inflection b must be > 0, got {self.b}")

    @property
    def c(self) -> float:
        """Normalization scale, computed as 1 + exp(-a*b)."""
        return 1.0 + float(np.exp(-self.a * self.b))

    @property
    def d(self) -> float:
        """Normalization offset, computed as exp(-a*b) / (1 + exp(-a*b))."""
        q = float(np.exp(-self.a * self.b))
        return q / (1.0 + q)

    def value(self, r):
        """U(r) for r >= 0; exact 0 at r = 0, bounded by 1."""
        return -np.expm1(-self.a * r) * expit(self.a * (r - self.b))

    def derivative(self, r):
        """dU/dr = c * a * s * (1 - s) with s the logistic of a*(r - b)."""
        s = expit(self.a * (r - self.b))
        return self.c * self.a * s * (1.0 - s)

    def log_value(self, r):
        """log U(r); -inf at r = 0."""
        with np.errstate(divide="ignore"):
            return np.log(-np.expm1(-self.a * r)) - np.logaddexp(
                0.0, -self.a * (r - self.b)
            )

    def log_slope(self, r):
        """d(log U)/dr = a * (exp(-a*r)/(1 - exp(-a*r)) + expit(-a*(r - b))).

        Strictly decreasing on (0, inf) and diverging at 0+, which is what
        makes the price-response subproblem solvable by bisection.  The
        closed form avoids the 0/0 of derivative(r)/value(r) where U
        underflows.
        """
        return sigmoid_log_slope(self.a, self.b, r)


@dataclass(frozen=True)
class LogarithmicUtility:
    """Concave utility ``log(1 + k*r) / log(1 + k*r_max)``.

    k: growth coefficient (per unit rate), > 0
    r_max: rate at which the utility reaches exactly 1, > 0
    """

    k: float
    r_max: float

    def __post_init__(self) -> None:
        if not self.k > 0:
            raise ValueError(f"log-utility coefficient k must be > 0, got {self.k}")
        if not self.r_max > 0:
            raise ValueError(f"log-utility r_max must be > 0, got {self.r_max}")

    def value(self, r):
        return np.log1p(self.k * r) / np.log1p(self.k * self.r_max)

    def derivative(self, r):
        return self.k / ((1.0 + self.k * r) * np.log1p(self.k * self.r_max))

    def log_value(self, r):
        with np.errstate(divide="ignore"):
            return np.log(np.log1p(self.k * r)) - np.log(np.log1p(self.k * self.r_max))

    def log_slope(self, r):
        """d(log U)/dr = k / ((1 + k*r) * log(1 + k*r)); r_max cancels.

        The closed form sidesteps the 0/0 of derivative/value near r = 0.
        """
        return logarithmic_log_slope(self.k, r)


UtilityFunction = Union[SigmoidalUtility, LogarithmicUtility]
