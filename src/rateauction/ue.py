"""User-equipment side of the auction.

Each round a UE receives the broadcast shadow price, solves its own
concave subproblem

    r* = argmax_{0 <= r <= capacity}  log U(r) - price * r

by bisection on the marginal condition, and answers with the bid
``price * r*``.  Because log U(r) -> -inf as r -> 0, the maximizer is
always strictly positive: every user keeps a minimum level of service
no matter how high the price.

:func:`solve_rate` solves one UE and :func:`ue_step` adds its bid;
:func:`solve_lanes` solves many at once with the same float operations,
one array element (a *lane*) per UE.
"""

from __future__ import annotations

import numpy as np

from .utility import UtilityFunction, logarithmic_log_slope, sigmoid_log_slope

DEFAULT_RATE_TOL = 1e-6
MAX_BISECTION_STEPS = 200


class BisectionError(RuntimeError):
    """The bisection step cap was hit: tol is below the float spacing near
    the root, so no bracket can get that narrow."""


def solve_rate(
    utility: UtilityFunction,
    price: float,
    capacity: float,
    tol: float = DEFAULT_RATE_TOL,
) -> float:
    """Best response to a shadow price, in (0, capacity].

    d(log U)/dr is strictly decreasing and diverges at 0+, so either the
    marginal log-utility at full capacity still beats the price (return
    capacity, ties included) or ``log_slope(r) = price`` has a unique root,
    bracketed by [tol, capacity] and bisected down to a bracket of width
    tol.  Returns the final bracket midpoint.
    """
    if not price > 0:
        raise ValueError(f"price must be > 0, got {price}")
    if not capacity > 0:
        raise ValueError(f"capacity must be > 0, got {capacity}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")

    if utility.log_slope(capacity) >= price:
        return capacity

    lo, hi = tol, capacity
    steps = 0
    while hi - lo > tol:
        if steps >= MAX_BISECTION_STEPS:
            raise BisectionError(
                f"no convergence after {MAX_BISECTION_STEPS} bisection steps "
                f"(price={price}, capacity={capacity}, tol={tol})"
            )
        mid = 0.5 * (lo + hi)
        if utility.log_slope(mid) >= price:
            lo = mid
        else:
            hi = mid
        steps += 1
    return 0.5 * (lo + hi)


def solve_lanes(a, b, k, price, capacity: float, tol: float = DEFAULT_RATE_TOL) -> np.ndarray:
    """Best responses of many UEs at once, one lane per UE.

    Lanes ``[0, len(a))`` are sigmoidal users with parameters ``a``, ``b``;
    the ``len(k)`` lanes after them are logarithmic users with parameter
    ``k``; ``price`` holds each lane's shadow price.  Lane for lane this
    performs the float operations of :func:`solve_rate` -- the clamp at
    ``capacity``, ``mid = 0.5*(lo + hi)``, ``slope >= price`` -- and a lane
    stops moving once its bracket is within ``tol``, so every lane equals
    its own :func:`solve_rate` bit for bit.  Raises :class:`BisectionError`
    when any lane needs more than ``MAX_BISECTION_STEPS`` steps.
    """
    price = np.asarray(price, dtype=float)
    if not np.all(price > 0):
        raise ValueError(f"every price must be > 0, got {price}")
    if not capacity > 0:
        raise ValueError(f"capacity must be > 0, got {capacity}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")

    # Basic slices keep both families' views contiguous and copy-free.
    s = len(a)
    slope = np.empty_like(price)
    slope[:s] = sigmoid_log_slope(a, b, capacity)
    slope[s:] = logarithmic_log_slope(k, capacity)
    # A clamped lane starts as the bracket [capacity, capacity]: never
    # active, and its midpoint is capacity exactly.
    lo = np.where(slope >= price, capacity, tol)
    hi = np.full_like(price, capacity)
    mid = np.empty_like(price)
    move = np.empty(price.shape, dtype=bool)
    active = hi - lo > tol
    steps = 0
    while np.count_nonzero(active):
        if steps >= MAX_BISECTION_STEPS:
            raise BisectionError(
                f"no convergence after {MAX_BISECTION_STEPS} bisection steps in "
                f"{np.count_nonzero(active)} lane(s) (capacity={capacity}, tol={tol})"
            )
        np.add(lo, hi, out=mid)
        mid *= 0.5
        np.greater_equal(sigmoid_log_slope(a, b, mid[:s]), price[:s], out=move[:s])
        np.greater_equal(logarithmic_log_slope(k, mid[s:]), price[s:], out=move[s:])
        move &= active
        np.copyto(lo, mid, where=move)
        np.not_equal(active, move, out=move)  # active lanes whose slope fell below price
        np.copyto(hi, mid, where=move)
        width = np.subtract(hi, lo, out=mid)  # mid is spent; reuse its buffer
        np.greater(width, tol, out=active)
        steps += 1
    np.add(lo, hi, out=mid)
    mid *= 0.5
    return mid


def ue_step(
    utility: UtilityFunction,
    price: float,
    capacity: float,
    tol: float = DEFAULT_RATE_TOL,
) -> tuple[float, float]:
    """One UE round: the best response to the broadcast price, and its bid
    ``price * rate`` -- which the station inverts as bid/price."""
    rate = solve_rate(utility, price, capacity, tol)
    return rate, price * rate
