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
one array element (a *lane*) per UE.  The slope formulas and the root
estimates live in :mod:`rateauction.utility`: :func:`solve_rate` calls
the guarded ``log_slope`` at each step, and :func:`solve_lanes` calls the
unguarded kernels and then checks the domain guards once, over every
midpoint on the lanes' paths, so both raise the same ``RateDomainError``.

Both halves of the lane solve rest on one fact: a level's midpoint depends
only on ``tol``, ``capacity`` and the decisions above it, so a guessed
path is exact down to its first wrong decision, and one pass of compares
finds it.  Given a :class:`LanePaths`, :func:`solve_lanes` first replays
each lane's last bisection path: the slope recorded at each level is what
the same float operations give again, so comparing the recorded slopes
with the new price is exact.  Below the first flipped decision it walks
against each lane's estimated root, evaluates the slopes at every
midpoint so visited at once, and checks the decisions the same way; only
below a wrong one does it walk by the slopes, a level at a time.  Only
lanes whose parameters stay keep a path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .utility import (
    UtilityFunction,
    check_logarithmic_rate,
    check_sigmoid_rate,
    logarithmic_root,
    logarithmic_slope,
    sigmoid_root,
    sigmoid_slope,
)

DEFAULT_RATE_TOL = 1e-6
MAX_BISECTION_STEPS = 200

# A 0-d array operand, not a Python float: numpy converts a Python or
# numpy scalar operand on every ufunc call.
HALF = np.array(0.5)
HALF.flags.writeable = False


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


class LanePaths:
    """Each lane's last bisection path, for the next solve of the same lanes.

    A level's midpoint depends only on ``tol``, ``capacity`` and the
    decisions of the levels above it, and the paths keep, at each level,
    the midpoint, the slope there and the ``slope >= price`` decision, and
    each lane's slope at ``capacity``.  While a lane's decisions at the new
    price match its recorded ones it visits the recorded midpoints, whose
    slopes are what the same float operations would give again:
    :func:`solve_lanes` compares every recorded slope with the new price in
    one pass, evaluating none, and resumes the lockstep walk below the first
    level at which any lane's decision flips.  The slopes belong to the
    parameters that walked them, so :meth:`clear` the paths when a lane's
    parameters change or the lanes themselves do; a solve at another
    ``capacity`` or ``tol`` clears them itself.  Over all solves,
    ``predicted`` counts the levels walked against the estimated roots,
    ``walked`` the levels walked by the slopes below a wrong estimate, and
    ``compared`` the recorded levels the replays compared.
    """

    def __init__(self) -> None:
        self.walked = 0
        self.predicted = 0
        self.compared = 0
        self.bracket: Optional[tuple[float, float]] = None  # (capacity, tol) of the paths
        # (level, lane): midpoint, slope there, slope >= price, and whether
        # the level is on the lane's path (the lane was active there)
        self.mids = self.slopes = self.moves = self.on = None
        self.clear()

    def clear(self) -> None:
        """Forget every path, keeping the buffers: the next solve walks each lane from level 0."""
        self.top: Optional[int] = None  # levels recorded, every path within them
        self.at_capacity: Optional[np.ndarray] = None  # per lane: the slope at capacity

    def _replay(self, price, clamped, lo, hi) -> int:
        """The level at which the walk resumes: below the first level at which
        any lane's decision flips, or past every path if none flips.  Takes
        the flipped decisions, and narrows ``lo`` and ``hi`` to each lane's
        bracket at that level."""
        top = self.top
        if top is None:
            if self.mids is None or self.mids.shape[1] != len(price):
                self.mids, self.slopes = np.empty((2, MAX_BISECTION_STEPS, len(price)))
                self.moves = np.empty(self.mids.shape, dtype=bool)
                self.on = np.empty((MAX_BISECTION_STEPS + 1, len(price)), dtype=bool)
            return 0
        if not top:
            return 0
        # a clamped lane walks no path: once it leaves the clamp, the walk
        # starts again from level 0
        on_path = np.greater(self.on[:top], clamped, out=self.on[:top])
        if np.count_nonzero(on_path[0]) + np.count_nonzero(clamped) != len(price):
            return 0
        self.compared += top
        flipped = self._flip_first(0, top, price)
        level = top if flipped is None else flipped + 1
        self._narrow(level, lo, hi)
        return level

    def _flip_first(self, start: int, top: int, price) -> Optional[int]:
        """The first of levels ``[start, top)`` at which a lane's recorded
        decision differs from ``slope >= price`` on its path, with that level's
        flipped decisions taken; None if no decision flips."""
        # a walk writes every lane into each row it reaches, so each slope
        # on a path is the one its midpoint gives with these parameters
        flips = np.greater_equal(self.slopes[start:top], price)
        flips ^= self.moves[start:top]
        flips &= self.on[start:top]
        first = int(flips.argmax())  # row-major: on the first flipped level
        if not flips.item(first):
            return None
        level = first // len(price)
        self.moves[start + level] ^= flips[level]
        return start + level

    def _narrow(self, level: int, lo, hi) -> None:
        """Narrow ``lo`` and ``hi`` from each lane's first bracket to its
        bracket at ``level`` (at least 1)."""
        # lo only rises and hi only falls along a path, so a lane's bracket
        # is the last midpoint each decision moved to
        mids, before = self.mids[:level], self.on[:level]
        ups = before & self.moves[:level]
        np.maximum.reduce(np.where(ups, mids, lo), axis=0, out=lo)
        np.minimum.reduce(np.where(before ^ ups, mids, hi), axis=0, out=hi)


def _walk(paths: LanePaths, bracket: np.ndarray, level: int, tol, decide) -> int:
    """Bisect every lane wider than ``tol`` in lockstep from ``level`` on,
    and return the level at which none is left or the step cap is reached.

    ``decide(level, mid, moved)`` writes each lane's ``slope >= price`` at
    the level's midpoints into ``moved``.  Each level's midpoints, decisions
    and active lanes go into the paths' rows.
    """
    lo, hi = bracket
    mids, moves, on = paths.mids, paths.moves, paths.on
    # rows of the bracket a lane's midpoint replaces: lo where its slope is
    # at least the price, hi where it is below, neither once it stopped
    moved_to = np.empty(bracket.shape, dtype=bool)
    ups, downs = moved_to
    width = np.subtract(hi, lo)
    active = np.greater(width, tol, out=on[level])
    while level < MAX_BISECTION_STEPS and np.count_nonzero(active):
        mid, moved = mids[level], moves[level]
        np.add(lo, hi, out=mid)
        mid *= HALF
        decide(level, mid, moved)
        np.logical_and(moved, active, out=ups)
        np.greater(active, ups, out=downs)
        np.copyto(bracket, mid, where=moved_to)
        np.subtract(hi, lo, out=width)
        level += 1
        active = np.greater(width, tol, out=on[level])
    return level


def solve_lanes(
    a, b, k, price, capacity: float, tol: float = DEFAULT_RATE_TOL, paths: Optional[LanePaths] = None
) -> np.ndarray:
    """Best responses of many UEs at once, one lane per UE.

    Lanes ``[0, len(a))`` are sigmoidal users with parameters ``a``, ``b``;
    the ``len(k)`` lanes after them are logarithmic users with parameter
    ``k``; ``price`` holds each lane's shadow price.  Lane for lane this
    performs the float operations of :func:`solve_rate` -- the clamp at
    ``capacity``, ``mid = 0.5*(lo + hi)``, ``slope >= price`` -- and a lane
    stops moving once its bracket is within ``tol``, so every lane equals
    its own :func:`solve_rate` bit for bit.  Raises
    :class:`~rateauction.utility.RateDomainError` when a lane's slope is
    undefined at ``capacity`` or at any midpoint on its bisection path, and
    otherwise :class:`BisectionError` when any lane needs more than
    ``MAX_BISECTION_STEPS`` steps; a solve that raises leaves ``paths``
    empty.

    Below the replayed levels, the lanes are first bisected against each
    lane's estimated root (:func:`~rateauction.utility.sigmoid_root`,
    :func:`~rateauction.utility.logarithmic_root`): ``mid <= root`` stands
    in for ``slope >= price``.  Then each family's kernel evaluates the
    slopes at every midpoint so visited in one call, and the replay's
    comparison checks every decision against the price.  A level's
    midpoint depends only on the decisions above it, so if none flips, the
    estimated path is the path of :func:`solve_rate`; otherwise the levels
    above the first flip are, and the walk goes on below it by the slopes.
    The domain guards run over the levels on the true path only, so an
    estimate can cost time but never changes a rate, raises or warns.

    ``paths`` holds each lane's path from a solve with the same ``a``, ``b``
    and ``k``, and takes the new paths; ``clear()`` it when any of them
    changes, or its recorded slopes give wrong rates and raise nothing.
    """
    price = np.asarray(price, dtype=float)
    if np.count_nonzero(price > 0) != price.size:
        raise ValueError(f"every price must be > 0, got {price}")
    if not capacity > 0:
        raise ValueError(f"capacity must be > 0, got {capacity}")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if paths is None:
        paths = LanePaths()
    elif paths.bracket != (capacity, tol):
        paths.clear()
    paths.bracket = (capacity, tol)

    # Basic slices keep both families' views contiguous and copy-free.
    s = len(a)
    neg_a = -a
    at_capacity = paths.at_capacity
    if at_capacity is None:
        check_sigmoid_rate(a, capacity)
        check_logarithmic_rate(k, capacity)
        at_capacity = np.empty_like(price)
        sigmoid_slope(a, neg_a, b, capacity, out=at_capacity[:s])
        logarithmic_slope(k, capacity, out=at_capacity[s:])
    elif len(at_capacity) != len(price):
        raise ValueError(f"paths hold {len(at_capacity)} lanes, the solve has {len(price)}")
    clamped = at_capacity >= price
    # Each lane's bracket, rows lo and hi.  A clamped lane starts as
    # [capacity, capacity]: never active, and its midpoint is capacity exactly.
    first_bracket = np.array([[tol], [capacity]])
    bracket = np.where(clamped, capacity, first_bracket)
    lo, hi = bracket
    resume = paths._replay(price, clamped, lo, hi)
    mids, slopes = paths.mids, paths.slopes
    tol_array = np.array(tol)
    paths.top = paths.at_capacity = None  # a walk that raises leaves no paths

    def by_slope(level, mid, moved):
        slope = slopes[level]
        sigmoid_slope(a, neg_a, b, mid[:s], out=slope[:s])
        logarithmic_slope(k, mid[s:], out=slope[s:])
        np.greater_equal(slope, price, out=moved)

    # The slope kernels are unguarded, and a midpoint outside their domain
    # divides by zero or overflows: quietly here, since the guards below
    # raise for it where it lies on a lane's path.
    with np.errstate(divide="ignore", over="ignore"):
        level = resume
        if np.count_nonzero(np.greater(np.subtract(hi, lo), tol_array)):
            root = np.concatenate((sigmoid_root(a, b, price[:s]), logarithmic_root(k, price[s:])))
            level = _walk(paths, bracket, resume, tol_array, lambda _, mid, moved: np.less_equal(mid, root, out=moved))
        predicted, exact = level, level
        if predicted > resume:
            sigmoid_slope(a, neg_a, b, mids[resume:predicted, :s], out=slopes[resume:predicted, :s])
            logarithmic_slope(k, mids[resume:predicted, s:], out=slopes[resume:predicted, s:])
            flipped = paths._flip_first(resume, predicted, price)
            if flipped is not None:
                # the levels down to the first flip are the true path's:
                # narrow the first bracket through them
                bracket[...] = np.where(clamped, capacity, first_bracket)
                exact = flipped + 1
                paths._narrow(exact, lo, hi)
                level = _walk(paths, bracket, exact, tol_array, by_slope)
    # The domain guards, once over every midpoint on the lanes' paths: the
    # solve raises where a guarded slope at each level would have, and
    # before the step cap.  Estimated midpoints below a wrong decision are
    # on no path, and the walk by the slopes overwrote those it reached.
    on_paths = mids[resume:level]
    check_sigmoid_rate(a, on_paths[:, :s])
    check_logarithmic_rate(k, on_paths[:, s:])
    if level == MAX_BISECTION_STEPS:
        active = np.count_nonzero(np.greater(np.subtract(hi, lo), tol_array))
        if active:
            raise BisectionError(
                f"no convergence after {MAX_BISECTION_STEPS} bisection steps in "
                f"{active} lane(s) (capacity={capacity}, tol={tol})"
            )
    # every path ends within the levels walked: a lane's path ends where it
    # stopped, before the walk or in it
    paths.top, paths.at_capacity = level, at_capacity
    paths.predicted += predicted - resume
    paths.walked += level - exact
    rates = np.add(lo, hi)
    rates *= HALF
    return rates


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
