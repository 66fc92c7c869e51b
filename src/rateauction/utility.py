"""Utility families for rate allocation.

Two normalized families describe how much a user values an allocated
rate ``r``:

* sigmoidal -- S-shaped, models adaptive real-time traffic (VoIP, video)
  that is nearly worthless below an inflection rate and saturates above it;
* logarithmic -- concave with diminishing returns, models delay-tolerant
  traffic (file transfer) that benefits from any rate.

Both satisfy ``U(0) = 0`` and reach 1 (at infinity for the sigmoidal
family, at ``r_max`` for the logarithmic one).  Evaluators accept scalars
or numpy arrays and never form the textbook sigmoid normalization's
``exp(a*b)``, which overflows float64 already for ``a*b > ~710`` while
realistic parameter sets reach ``a*b = 300``; the one exponential that
can overflow is the logistic term's, where the term is 0.

Each family's marginal log-utility d(log U)/dr has one home, an unguarded
kernel (:func:`sigmoid_slope`, :func:`logarithmic_slope`), and its domain
guard, which raises :class:`RateDomainError` where U underflows to zero
(:func:`check_sigmoid_rate`, :func:`check_logarithmic_rate`).  The
``log_slope`` methods, and through them the scalar solver, run the guard
and then the kernel.

Each family's root of ``log_slope(r) = price`` also has an estimate,
over numpy arrays (:func:`sigmoid_root`, :func:`logarithmic_root`) and
over lists of Python floats (:func:`sigmoid_root_floats`,
:func:`logarithmic_root_floats`), which a solve of a few lanes takes
without a numpy call.  The sigmoidal one is the logistic term's closed-form
root, and where ``a*r <= 30`` the slope's other term still counts: both paths
polish those lanes with the same Newton steps (:func:`polished_sigmoid_root`).
The lane solver bisects against the estimates and checks its decisions with
the kernels, so a poor estimate costs time, never a rate.  A guard that fails
at r fails at every lower rate, so the lane solver runs the guards at
``tol``, below every rate it visits, and on the lanes' paths where that fails.

The module needs numpy and the standard library only: the logistic term
is ``1/(1 + exp(x))`` on numpy's ``exp`` (:func:`falling_logistic`), and
the logarithmic root's Lambert W is four Newton steps (Iacono & Boyd 2017).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from math import expm1, log, log1p
from typing import Union

import numpy as np

SMALLEST_NORMAL = np.finfo(float).tiny
# Lambert W's argument is clipped to the positive finite floats: at 0 and
# infinity its iteration would divide 0 by 0 and infinity by infinity.
W_FLOOR, W_CEIL = math.ulp(0.0), sys.float_info.max
# 0-d array operands, not Python floats: numpy converts a Python or numpy
# scalar operand on every ufunc call, which costs about half the call again.
ONE = np.array(1.0)
ONE.flags.writeable = False
# Past this a*r, a sigmoid root estimate leaves out less than a*1e-13 of the slope.
POLISH_ABOVE = 30.0


class RateDomainError(ValueError):
    """log-utility is undefined: U(r) underflows to zero at the given rate."""


def check_sigmoid_rate(a, r) -> None:
    """Raise :class:`RateDomainError` where the sigmoidal log-slope is
    undefined: ``1 - exp(-a*r)`` below the smallest normal float, where
    :func:`sigmoid_slope`'s quotient overflows."""
    # count_nonzero, not np.any: np.any's reduction costs several times the
    # formula on small inputs; expm1(x) > -tiny is 1 - exp(x) < tiny exactly
    if np.count_nonzero(np.expm1(-a * r) > -SMALLEST_NORMAL):
        raise RateDomainError(f"log-slope undefined: a*r underflows for a={a}, r={r}")


def check_logarithmic_rate(k, r) -> None:
    """Raise :class:`RateDomainError` where the logarithmic log-slope is
    undefined: ``log(1 + k*r)`` rounds to zero."""
    if np.count_nonzero(np.log1p(k * r) <= 0.0):
        raise RateDomainError(f"log-slope undefined: k*r underflows for k={k}, r={r}")


def falling_logistic(x):
    """``1/(1 + exp(x))``, elementwise: the logistic function of ``-x``.
    Where ``x`` passes 709.78, ``exp`` overflows to infinity, and the value
    is 0; run it under ``np.errstate(over="ignore")`` to keep that quiet."""
    e = np.exp(x)
    e += ONE
    return ONE / e


def sigmoid_slope(a, neg_a, b, r, out=None):
    """d(log U)/dr of the sigmoidal family, unguarded, elementwise over a, b
    and r, with ``neg_a = -a``; into ``out`` if given.

    The single home of the formula: ``a * (exp(x)/(1 - exp(x)) +
    falling_logistic(a*(r - b)))`` with ``x = -a*r``, evaluated as ``a *
    (falling_logistic(a*(r - b)) - exp(x)/expm1(x))``, the same value bit
    for bit (IEEE division and negation commute).  The logistic term runs on
    numpy's ``exp``, within 4 ulps of ``scipy.special.expit(-a*(r - b))``.
    Where :func:`check_sigmoid_rate` would raise, the quotient divides by
    zero or overflows."""
    x = neg_a * r
    quotient = np.exp(x)
    quotient /= np.expm1(x)
    slope = r - b
    slope *= a
    slope = falling_logistic(slope)
    slope -= quotient
    return np.multiply(a, slope, out=out)


def logarithmic_slope(k, r, out=None):
    """d(log U)/dr = k / ((1 + k*r) * log(1 + k*r)) of the logarithmic
    family, unguarded, elementwise over k and r; into ``out`` if given.
    Where :func:`check_logarithmic_rate` would raise, it divides by zero."""
    kr = k * r
    scale = np.log1p(kr)
    kr += ONE
    scale *= kr
    return np.divide(k, scale, out=out)


def sigmoid_root(a, b, price):
    """Estimate of the r at which :func:`sigmoid_slope` equals ``price``, over
    1-d arrays: ``b + log(a/price - 1)/a``, where the slope's logistic term
    alone equals the price; the other term, ``a/expm1(a*r)``, is below
    ``a*1e-13`` there where ``a*r > 30``.  The lanes in doubt, where not or
    NaN (``a <= price``), take :func:`polished_sigmoid_root`."""
    ratio = a / price
    ratio -= ONE
    ratio[ratio <= 0.0] = np.nan
    root = np.log(ratio, out=ratio)
    root /= a
    root += b
    doubt = np.flatnonzero(np.logical_not(np.greater(a * root, POLISH_ABOVE)))
    if doubt.size:
        root[doubt] = list(map(polished_sigmoid_root, a[doubt].tolist(), b[doubt].tolist(), price[doubt].tolist()))
    return root


def polished_sigmoid_root(a: float, b: float, price: float) -> float:
    """The r at which :func:`sigmoid_slope` equals ``price``, in Python floats:
    at most eight Newton steps in log r on ``L + Q - price/a``, with ``L =
    falling_logistic(a*(r - b))`` and ``Q = 1/expm1(a*r)``, to a step below
    1e-14.  Both terms are positive, so the root of each alone lies below the
    slope's root, and the greater of them starts.  A step that overflows,
    divides by zero or leaves the positive floats ends the polish."""
    ratio = a / price
    r = log1p(ratio) / a  # Q alone equals price/a
    if ratio > 1.0:
        r = max(r, b + log(ratio - 1.0) / a)  # L alone does
    try:
        for _ in range(8):
            x = a * r
            e = math.exp(a * (r - b))
            logistic, q = 1.0 / (1.0 + e), 1.0 / expm1(x)
            step = (logistic + q - price / a) / (x * (e * logistic * logistic + q + q * q))
            polished = r * math.exp(step)
            if not 0.0 < polished < math.inf:
                break
            r = polished
            if abs(step) < 1e-14:
                break
    except ArithmeticError:  # math raises where numpy would give infinity
        pass
    return r if 0.0 < r < math.inf else math.nan


def logarithmic_root(k, price):
    """The r at which :func:`logarithmic_slope` equals ``price``, in closed
    form: with ``u = 1 + k*r`` the condition is ``u*log(u) = k/price``, so
    ``log(u) = W(k/price)`` with W the principal branch of Lambert W, and
    ``r = expm1(W(k/price))/k``.

    W(c) is four steps of Newton's method on ``w + log(w) = log(c)`` from
    ``w = log1p(c)``; three leave a gap of 3.5e-9.  The step, ``w/(1 + w) *
    (1 + log(c/w))`` (Iacono & Boyd 2017), is taken as the correction ``w -
    w*(w - log(c/w))/(1 + w)``, which rounds less: r is within 7.3e-15
    relative of scipy's ``expm1(wrightomega(log(c)))/k`` for c in
    1e-6-1e15, where the first form leaves 1.4e-14.  c is clipped to the positive finite floats first, so that c = 0
    gives about 5e-324/k and an infinite c about 2.6e305/k."""
    c = np.clip(k / price, W_FLOOR, W_CEIL)
    w = np.log1p(c)
    step, denominator = np.empty((2, *w.shape))
    for _ in range(4):
        np.divide(c, w, out=step)
        np.log(step, out=step)
        np.subtract(w, step, out=step)
        step *= w
        np.add(w, ONE, out=denominator)
        step /= denominator
        w -= step
    np.expm1(w, out=w)
    w /= k
    return w


def sigmoid_root_floats(a: list, b: list, price: list) -> list:
    """:func:`sigmoid_root` over lists of Python floats, with :mod:`math`;
    the lanes in doubt take the same :func:`polished_sigmoid_root`."""
    return [
        root if (ratio := aj / pj - 1.0) > 0.0 and aj * (root := bj + log(ratio) / aj) > POLISH_ABOVE
        else polished_sigmoid_root(aj, bj, pj)
        for aj, bj, pj in zip(a, b, price)
    ]


def logarithmic_root_floats(k: list, price: list) -> list:
    """:func:`logarithmic_root` over lists of Python floats, with :mod:`math`;
    its four Newton steps are unrolled."""
    roots = []
    append = roots.append
    for kj, pj in zip(k, price):
        c = kj / pj
        if not W_FLOOR <= c <= W_CEIL:
            c = W_FLOOR if c < W_FLOOR else W_CEIL
        w = log1p(c)
        w -= w * (w - log(c / w)) / (1.0 + w)
        w -= w * (w - log(c / w)) / (1.0 + w)
        w -= w * (w - log(c / w)) / (1.0 + w)
        w -= w * (w - log(c / w)) / (1.0 + w)
        append(expm1(w) / kj)
    return roots


@dataclass(frozen=True)
class SigmoidalUtility:
    """S-shaped utility ``c * (1/(1 + exp(-a*(r - b))) - d)``.

    ``c = (1 + exp(a*b)) / exp(a*b)`` and ``d = 1 / (1 + exp(a*b))`` pin
    the curve to U(0) = 0 and U(inf) = 1.  Internally everything is
    evaluated through the algebraically identical form

        U(r) = (1 - exp(-a*r)) * falling_logistic(a*(b - r))

    which stays in [0, 1] for any float inputs and is exact at r = 0.
    Where ``a*(b - r)`` passes 709.78 the logistic factor is below 1e-308,
    and its exponential overflows quietly to infinity: it reads 0.

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

    def value(self, r):
        """U(r) for r >= 0; exact 0 at r = 0, bounded by 1."""
        with np.errstate(over="ignore"):
            return -np.expm1(-self.a * r) * falling_logistic(self.a * (self.b - r))

    def derivative(self, r):
        """dU/dr = c * a * s * (1 - s) with s the logistic of a*(r - b)."""
        with np.errstate(over="ignore"):
            s = falling_logistic(self.a * (self.b - r))
        return self.c * self.a * s * (1.0 - s)

    def log_value(self, r):
        """log U(r); -inf at r = 0."""
        with np.errstate(divide="ignore"):
            return np.log(-np.expm1(-self.a * r)) - np.logaddexp(
                0.0, -self.a * (r - self.b)
            )

    def log_slope(self, r):
        """d(log U)/dr = a * (exp(-a*r)/(1 - exp(-a*r)) + falling_logistic(a*(r - b))).

        Strictly decreasing on (0, inf) and diverging at 0+, which is what
        makes the price-response subproblem solvable by bisection.  The
        closed form avoids the 0/0 of derivative(r)/value(r) where U
        underflows.
        """
        check_sigmoid_rate(self.a, r)
        with np.errstate(over="ignore"):  # a logistic term that overflows reads 0
            return sigmoid_slope(self.a, -self.a, self.b, r)


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
        check_logarithmic_rate(self.k, r)
        with np.errstate(over="ignore"):  # (1 + k*r) * log1p(k*r) past the float max: the slope is 0
            return logarithmic_slope(self.k, r)


UtilityFunction = Union[SigmoidalUtility, LogarithmicUtility]
