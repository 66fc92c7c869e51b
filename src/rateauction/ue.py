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
one array element (a *lane*) per UE, over a :class:`LanePaths` built once
for the lanes' parameters, ``capacity`` and ``tol``.  The slope formulas
and the root estimates live in :mod:`rateauction.utility`:
:func:`solve_rate` calls the guarded ``log_slope`` at each step, and the
lane solve calls the unguarded kernels and screens the guards at ``tol``
when its paths are built, then runs them on the lanes' paths only where
that fails: both raise the same ``RateDomainError``.

Both halves of the lane solve rest on one fact: a level's midpoint depends
only on ``tol``, ``capacity`` and the decisions above it, so a guessed
path is exact down to its first wrong decision, and one pass of compares
finds it.  :func:`solve_lanes` first replays each lane's last bisection
path, kept in its :class:`LanePaths`: the slope recorded at each level is
what the same float operations give again, so comparing the recorded
slopes with the new price is exact.  Below the first flipped decision it
walks against each lane's estimated root, evaluates the slopes at every
midpoint so visited at once, and checks the decisions the same way; only
below a wrong one does it walk by the slopes, a level at a time.  Each
walk halves every lane's bracket, and a lane that stopped above the last
level takes its midpoint where it stopped.  New parameters take new
paths.  Fewer than ``LANE_BY_LANE_BELOW`` lanes estimate their roots and
walk against them one at a time, in Python floats; other walks are numpy
lockstep.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Optional

import numpy as np

from .utility import (
    RateDomainError,
    UtilityFunction,
    check_logarithmic_rate,
    check_sigmoid_rate,
    logarithmic_root,
    logarithmic_root_floats,
    logarithmic_slope,
    sigmoid_root,
    sigmoid_root_floats,
    sigmoid_slope,
)

DEFAULT_RATE_TOL = 1e-6
MAX_BISECTION_STEPS = 200
# Below it a numpy call costs more than its arithmetic: a walk against the
# roots took 0.42-0.49 of the lockstep walk's time at 6 lanes, 0.89-0.92 at
# 16 and 1.12-1.25 at 20 (2-core x86-64, Python 3.11, numpy 2.4).
LANE_BY_LANE_BELOW = 18

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
    tol.  Returns the final bracket midpoint; a tol above capacity raises.
    """
    if not price > 0:
        raise ValueError(f"price must be > 0, got {price}")
    if not capacity > 0:
        raise ValueError(f"capacity must be > 0, got {capacity}")
    if not 0 < tol <= capacity:
        raise ValueError(f"tol must be > 0 and at most the capacity {capacity}, got {tol}")

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
    """Each lane's last bisection path, for the next solve of the same
    lanes at new prices.

    Lanes ``[0, len(a))`` are sigmoidal users with parameters ``a``, ``b``,
    and the ``len(k)`` lanes after them logarithmic users with parameter
    ``k``; as in :func:`solve_rate`, ``tol`` is at most ``capacity``.  Built
    once for them, the paths screen both domain guards at ``tol`` (checking
    them at ``capacity`` where that fails) and take each lane's slope at
    ``capacity``.  A level's midpoint depends only on ``tol``, ``capacity``
    and the decisions of the levels above it, and the paths keep, at each
    level, the midpoint, the slope there and the ``slope >= price``
    decision.  A level is on a lane's path where the lane's recorded bracket
    width there is above ``tol``.  While a lane's decisions at the new price
    match its recorded ones it visits the recorded midpoints, whose slopes
    are what the same float operations would give again: :func:`solve_lanes`
    compares every recorded slope with the new price in one pass, evaluating
    none, and resumes the lockstep walk below the first level at which any
    lane's decision flips.  Of the last solve, ``predicted`` counts the
    levels walked against the estimated roots, ``walked`` the levels walked
    by the slopes below a wrong estimate, and ``compared`` the recorded
    levels the replay compared.
    """

    def __init__(self, a, b, k, capacity: float, tol: float = DEFAULT_RATE_TOL) -> None:
        if not capacity > 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if not 0 < tol <= capacity:
            raise ValueError(f"tol must be > 0 and at most the capacity {capacity}, got {tol}")
        a, b, k = (np.array(p, dtype=float) for p in (a, b, k))  # the paths' own copies
        self.a, self.neg_a, self.b, self.k, self.capacity, self.tol = a, -a, b, k, capacity, tol
        # every solve's first bracket, rows lo and hi, and tol as an operand
        self.first_bracket, self.tol_array = np.array([[tol], [capacity]]), np.array(tol)
        try:  # a guard passing at tol passes at every higher rate: capacity and every midpoint
            check_sigmoid_rate(a, tol)
            check_logarithmic_rate(k, tol)
            self.screened = True
        except RateDomainError:
            self.screened = False
            check_sigmoid_rate(a, capacity)
            check_logarithmic_rate(k, capacity)
        self.at_capacity = np.empty(len(a) + len(k))  # per lane: the slope at capacity
        with np.errstate(over="ignore"):  # a logistic term that overflows reads 0
            sigmoid_slope(a, self.neg_a, b, capacity, out=self.at_capacity[: len(a)])
        logarithmic_slope(k, capacity, out=self.at_capacity[len(a) :])
        # (level, lane): midpoint, slope there, slope >= price, the
        # bracket's width there, and whether it is on the lane's path
        self.mids, self.slopes = np.empty((2, MAX_BISECTION_STEPS, len(self.at_capacity)))
        self.moves = np.empty(self.mids.shape, dtype=bool)
        self.widths = np.empty((MAX_BISECTION_STEPS + 1, len(self.at_capacity)))
        self.on = np.empty(self.widths.shape, dtype=bool)
        self.top = 0  # levels recorded, every path within them
        self.walked = self.predicted = self.compared = 0

    def _replay(self, price, clamped, n_clamped: int, lo, hi) -> int:
        """The level at which the walk resumes: below the first level at which
        any lane's decision flips, or past every path if none flips.  Takes
        the flipped decisions, and narrows ``lo`` and ``hi`` to each lane's
        bracket at that level."""
        top, self.compared = self.top, 0
        if not top:  # no paths, or no lane walked a level
            return 0
        # a clamped lane walks no path: once it leaves the clamp, the walk
        # starts again from level 0
        on_path = np.greater(self.on[:top], clamped, out=self.on[:top])
        if np.count_nonzero(on_path[0]) + n_clamped != len(price):
            return 0
        self.compared = top
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


def _walk(paths: LanePaths, level: int, tol, bisect) -> tuple[int, int]:
    """Bisect every lane from ``level``, whose widths row holds some lane
    wider than ``tol``.  Return the level at which none is left or the step
    cap is reached, and the level the bracket was walked to.

    ``bisect(start, end)`` writes the midpoints of levels ``[start, end)``
    and the widths below them into the paths' rows; the widths give ``on``.
    No lane is masked: one within ``tol`` halves on (a clamped ``[capacity,
    capacity]`` stays put), and its rate is its midpoint where it stopped.
    """
    widths = paths.widths
    start, log2_tol = level, math.log2(tol)
    while True:
        # every level halves each bracket, so the widest is within tol
        # after about this many; a NaN or infinite width walks to the cap
        steps = min(MAX_BISECTION_STEPS, math.log2(widths[level].max()) - log2_tol)
        end = min(MAX_BISECTION_STEPS, level + max(1, math.ceil(steps)))
        bisect(level, end)
        level = end
        if level == MAX_BISECTION_STEPS or not np.count_nonzero(np.greater(widths[level], tol, out=paths.on[level])):
            break
    on = np.greater(widths[start : level + 1], tol, out=paths.on[start : level + 1])
    if level > start and not np.count_nonzero(on[-2]):
        # rounding stopped every lane above the last level: end at the first with none
        return start + np.count_nonzero(on.any(axis=1)), level
    return level, level


def _bisect_in_lockstep(paths: LanePaths, bracket: np.ndarray, decide, start: int, end: int) -> None:
    """Walk levels ``[start, end)`` of every lane at once, a few numpy calls
    a level.  ``decide(level, mid, ups)`` writes each lane's ``slope >=
    price`` at the level's midpoints into ``ups``."""
    (lo, hi), mids, widths = bracket, paths.mids, paths.widths
    # rows of the bracket a lane's midpoint replaces: lo where its slope is
    # at least the price, hi where it is below
    ups, downs = moved_to = np.empty(bracket.shape, dtype=bool)
    for row in range(start, end):
        mid = mids[row]
        np.add(lo, hi, out=mid)
        mid *= HALF
        decide(row, mid, ups)
        np.logical_not(ups, out=downs)
        np.copyto(bracket, mid, where=moved_to)
        np.subtract(hi, lo, out=widths[row + 1])


def _bisect_lane_by_lane(paths: LanePaths, bracket: np.ndarray, roots: list, start: int, end: int) -> None:
    """Walk levels ``[start, end)`` against the estimated ``roots`` one lane
    at a time, in Python floats: ``(lo + hi) * 0.5``, ``mid <= root`` (False
    for a NaN root) and ``hi - lo`` write the lockstep walk's rows bit for bit."""
    levels, mids, widths, ends = range(start, end), [], [], []
    for lo, hi, root in zip(*bracket.tolist(), roots):
        for _ in levels:
            mid = (lo + hi) * 0.5
            if mid <= root:
                lo = mid
            else:
                hi = mid
            mids.append(mid)
            widths.append(hi - lo)
        ends.append((lo, hi))
    # fromiter: np.reshape and np.array convert a list of floats more slowly
    paths.mids[start:end] = np.fromiter(mids, float, len(mids)).reshape(-1, len(levels)).T
    paths.widths[start + 1 : end + 1] = np.fromiter(widths, float, len(widths)).reshape(-1, len(levels)).T
    bracket.T[...] = ends


def solve_lanes(paths: LanePaths, price) -> np.ndarray:
    """Best responses of the lanes of ``paths`` at once, where ``price``
    holds each lane's shadow price.

    Lane for lane this performs the float operations of :func:`solve_rate`
    -- the clamp at ``capacity``, ``mid = 0.5*(lo + hi)``, ``slope >=
    price`` -- and a lane stops moving once its bracket is within ``tol``,
    so every lane equals its own :func:`solve_rate` bit for bit.  Raises
    :class:`~rateauction.utility.RateDomainError` when a lane's slope is
    undefined at any midpoint on its bisection path, and otherwise
    :class:`BisectionError` when any lane needs more than
    ``MAX_BISECTION_STEPS`` steps; a solve that raises leaves no recorded
    path, so the next solve walks every lane from level 0.

    Below the replayed levels, the lanes are first bisected against each
    lane's estimated root (:func:`~rateauction.utility.sigmoid_root`,
    :func:`~rateauction.utility.logarithmic_root`): ``mid <= root`` stands
    in for ``slope >= price``, one lane at a time in Python floats below
    ``LANE_BY_LANE_BELOW`` lanes, where the estimates are taken in floats too
    (:func:`~rateauction.utility.sigmoid_root_floats`,
    :func:`~rateauction.utility.logarithmic_root_floats`).  Then each
    family's kernel evaluates the slopes at every midpoint so visited in
    one call, and the replay's comparison checks every decision against the
    price.  A level's
    midpoint depends only on the decisions above it, so if none flips, the
    estimated path is the path of :func:`solve_rate`; otherwise the levels
    above the first flip are, and the walk goes on below it by the slopes.
    Guards failing at ``tol`` run over the true paths' midpoints only, so
    an estimate can cost time but never changes a rate, raises or warns.
    """
    price = np.asarray(price, dtype=float)
    if np.count_nonzero(price > 0) != price.size:
        raise ValueError(f"every price must be > 0, got {price}")
    at_capacity = paths.at_capacity
    if len(at_capacity) != len(price):
        raise ValueError(f"paths hold {len(at_capacity)} lanes, the solve has {len(price)}")
    # Basic slices keep both families' views contiguous and copy-free.
    a, neg_a, b, k, capacity, tol = paths.a, paths.neg_a, paths.b, paths.k, paths.capacity, paths.tol
    s = len(a)
    clamped = at_capacity >= price
    n_clamped = np.count_nonzero(clamped)
    # Each lane's bracket, rows lo and hi.  A clamped lane starts as
    # [capacity, capacity]: never active, and its midpoint is capacity exactly.
    first_bracket, tol_array = paths.first_bracket, paths.tol_array
    bracket = np.where(clamped, capacity, first_bracket)
    lo, hi = bracket
    resume = paths._replay(price, clamped, n_clamped, lo, hi)
    mids, slopes, moves, on = paths.mids, paths.slopes, paths.moves, paths.on
    paths.top = 0  # a walk that raises leaves no paths

    def evaluate(rows, mid):  # the slopes at mid into rows
        sigmoid_slope(a, neg_a, b, mid[..., :s], out=slopes[rows, :s])
        logarithmic_slope(k, mid[..., s:], out=slopes[rows, s:])

    def by_slope(level, mid, ups):
        evaluate(level, mid)
        np.greater_equal(slopes[level], price, out=ups)

    # The slope kernels are unguarded, and a midpoint outside their domain
    # divides by zero or overflows: quietly here, since the guard below
    # raises for it where it lies on a lane's path.
    with np.errstate(divide="ignore", over="ignore"):
        level = end = resume
        if np.count_nonzero(np.greater(np.subtract(hi, lo, out=paths.widths[resume]), tol_array, out=on[resume])):
            if len(price) < LANE_BY_LANE_BELOW:  # the estimates take no numpy call
                prices = price.tolist()
                root = [*sigmoid_root_floats(a.tolist(), b.tolist(), prices[:s]),
                        *logarithmic_root_floats(k.tolist(), prices[s:])]
                by_root = partial(_bisect_lane_by_lane, paths, bracket, root)
            else:
                root = np.concatenate((sigmoid_root(a, b, price[:s]), logarithmic_root(k, price[s:])))
                by_root = partial(_bisect_in_lockstep, paths, bracket, lambda _, mid, ups: np.less_equal(mid, root, out=ups))
            level, end = _walk(paths, resume, tol_array, by_root)
            np.less_equal(mids[resume:level], root, out=moves[resume:level])
        predicted, exact = level, level
        if predicted > resume:
            evaluate(slice(resume, predicted), mids[resume:predicted])
            flipped = paths._flip_first(resume, predicted, price)
            if flipped is not None:
                # the levels down to the first flip are the true path's:
                # narrow the first bracket through them
                bracket[...] = np.where(clamped, capacity, first_bracket)
                exact = flipped + 1
                paths._narrow(exact, lo, hi)
                level = end = exact
                if np.count_nonzero(np.greater(np.subtract(hi, lo, out=paths.widths[exact]), tol_array, out=on[exact])):
                    level, end = _walk(paths, exact, tol_array, partial(_bisect_in_lockstep, paths, bracket, by_slope))
                    np.greater_equal(slopes[exact:level], price, out=moves[exact:level])
    # Where a lane fails its guard at tol, the guards run over every lane's
    # path, raising before the step cap as a guarded walk would.  Estimated
    # midpoints below a wrong decision are on no path, or walked over again.
    if not paths.screened:
        on_paths = np.where(on[resume:level], mids[resume:level], capacity)
        check_sigmoid_rate(a, on_paths[:, :s])
        check_logarithmic_rate(k, on_paths[:, s:])
    if level == MAX_BISECTION_STEPS and (active := np.count_nonzero(on[level])):
        raise BisectionError(
            f"no convergence after {MAX_BISECTION_STEPS} bisection steps in "
            f"{active} lane(s) (capacity={capacity}, tol={tol})"
        )
    # every path ends within the levels walked: a lane's path ends where it
    # stopped, before the walk or in it
    paths.top, paths.predicted, paths.walked = level, predicted - resume, level - exact
    rates = np.add(lo, hi)
    rates *= HALF
    if end > resume and np.count_nonzero(on[end - 1]) + n_clamped != len(price):
        # lanes the walk halved on past their stop take their midpoint there
        early = np.flatnonzero(np.less(on[end - 1], ~clamped))
        rates[early] = mids[np.count_nonzero(on[:end, early], axis=0), early]
    return rates


def ue_step(utility: UtilityFunction, price: float, capacity: float) -> tuple[float, float]:
    """One UE round: the best response to the broadcast price, and its bid
    ``price * rate`` -- which the station inverts as bid/price."""
    rate = solve_rate(utility, price, capacity)
    return rate, price * rate
