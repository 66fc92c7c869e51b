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

The lane solve rests on one fact: a level's midpoint depends only on
``tol``, ``capacity`` and the decisions above it, so a walk against
estimated roots that makes every ``slope >= price`` decision right is
the lane's exact path; :func:`solve_lanes` says how its walks are made
and certified.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .utility import (
    LogarithmicUtility,
    RateDomainError,
    SigmoidalUtility,
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
# Below it a numpy call costs more than its arithmetic: on the fixed preset
# tiled with distinct a, to convergence, a solve in floats took 39, 51, 69,
# 100, 111 and 145 us at 6, 12, 21, 36, 42 and 60 lanes, and in lockstep 113,
# 118, 125, 131, 126 and 134 us (2-core x86-64, Python 3.11).
LANE_BY_LANE_BELOW = 40
# A walk from level 0 takes at most this many levels from a midpoint_table,
# of 2**16 + 1 floats (0.5 MiB).
TABLE_LEVELS = 16
# A walk holds where its final lo and hi, each where it is a visited
# midpoint, have slope >= price*ABOVE and < price*BELOW: every lo it moved
# to lies at or below the final one, every hi at or above.  The
# kernels err from the exact slope, which falls in r, by up to 745 ulps (of
# 2**-52), mostly from rounding a*(r - b) and a*r ahead of exp, so the
# margin must exceed twice that.  Built of correctly rounded (so monotone)
# sums, products and quotients of positive terms around exp, expm1 and
# log1p (4 ulps each), a kernel is also within 17 ulps, or a*2**-1070 where
# a term is subnormal, of a function falling in r.
MARGIN = 2.0**-40  # 4096 ulps
ABOVE, BELOW = 1.0 + MARGIN, 1.0 - MARGIN

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
    """The parameters, screens and buffers of a set of lanes, for solving
    them again and again at new prices.

    Lanes ``[0, len(a))`` are sigmoidal users with parameters ``a``, ``b``,
    and the ``len(k)`` lanes after them logarithmic users with parameter
    ``k``; as in :func:`solve_rate`, ``tol`` is at most ``capacity``.  The
    paths screen both domain guards at ``tol`` (checking them at
    ``capacity`` where that fails) and take each lane's slope at
    ``capacity``: once for the logarithmic lanes, and for the sigmoid ones
    each time :meth:`set_sigmoid` takes new ``a`` and ``b``.  A lockstep
    walk writes, at each level, every lane's midpoint, its bracket's width
    there and whether that is on the lane's path, where its bracket is wider
    than ``tol``.  Of the last solve, ``predicted`` counts the levels walked
    against the estimated roots (a few-lane solve's deepest lane's),
    ``looked_up`` those taken from the :func:`midpoint_table`, and
    ``resolved`` the lanes solved again by :func:`solve_rate` after a
    failed check.
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
            check_logarithmic_rate(k, tol)
            self.log_screened = True
        except RateDomainError:
            self.log_screened = False
            check_logarithmic_rate(k, capacity)
        self.at_capacity = np.empty(len(a) + len(k))  # per lane: the slope at capacity
        with np.errstate(over="ignore"):  # (1 + k*r) * log1p(k*r) past the float max: the slope is 0
            logarithmic_slope(k, capacity, out=self.at_capacity[len(a) :])
        # (level, lane): midpoint, the bracket's width there, and whether it
        # is on the lane's path
        self.mids = np.empty((MAX_BISECTION_STEPS, len(self.at_capacity)))
        self.widths = np.empty((MAX_BISECTION_STEPS + 1, len(self.at_capacity)))
        self.on = np.empty(self.widths.shape, dtype=bool)
        self.resolved = self.predicted = self.looked_up = 0
        self.set_sigmoid(a, b)

    def set_sigmoid(self, a, b) -> None:
        """Take new sigmoid ``a`` and ``b``, one per sigmoid lane, into the
        paths' own arrays: screen their guard at ``tol`` (at ``capacity``
        where that fails, raising there, the paths left as they were) and
        take their slopes at ``capacity``.  The logarithmic lanes, their
        screen and slopes, and the buffers stay."""
        a = np.asarray(a, dtype=float)
        try:
            check_sigmoid_rate(a, self.tol)
            screened = self.log_screened
        except RateDomainError:
            check_sigmoid_rate(a, self.capacity)
            screened = False
        np.copyto(self.a, a)
        np.negative(a, out=self.neg_a)
        np.copyto(self.b, b)
        self.screened = screened
        with np.errstate(over="ignore"):  # a logistic term that overflows reads 0
            sigmoid_slope(self.a, self.neg_a, self.b, self.capacity, out=self.at_capacity[: len(a)])


def _walk(paths: LanePaths, bracket: np.ndarray, level: int, tol, root) -> tuple[int, int]:
    """Bisect every lane of ``bracket`` in lockstep from ``level``, whose
    widths row holds some lane wider than ``tol``, against ``root``, a few
    numpy calls a level: ``mid <= root`` stands in for ``slope >= price``.
    Return the level at which none is left or the step cap is reached, and
    the level the bracket was walked to.

    No lane is masked: one within ``tol`` halves on (a clamped ``[capacity,
    capacity]`` stays put), and its rate is its midpoint where it stopped.
    """
    (lo, hi), mids, widths = bracket, paths.mids, paths.widths
    # rows of the bracket a lane's midpoint replaces: lo where it is at
    # most the root, hi where it is above
    ups, downs = moved_to = np.empty(bracket.shape, dtype=bool)
    start = level
    log2_tol = math.log2(tol)
    while True:
        # every level halves each bracket, so the widest is within tol
        # after about this many; a NaN or infinite width walks to the cap
        steps = min(MAX_BISECTION_STEPS, math.log2(widths[level].max()) - log2_tol)
        end = min(MAX_BISECTION_STEPS, level + max(1, math.ceil(steps)))
        for row in range(level, end):
            mid = mids[row]
            np.add(lo, hi, out=mid)
            mid *= HALF
            np.less_equal(mid, root, out=ups)
            np.logical_not(ups, out=downs)
            np.copyto(bracket, mid, where=moved_to)
            np.subtract(hi, lo, out=widths[row + 1])
        level = end
        if level == MAX_BISECTION_STEPS or not np.count_nonzero(np.greater(widths[level], tol, out=paths.on[level])):
            break
    np.greater(widths[start : level + 1], tol, out=paths.on[start : level + 1])
    on = paths.on[start : level + 1]
    if level > start and not np.count_nonzero(on[-2]):
        # rounding stopped every lane above the last level: end at the first with none
        return start + np.count_nonzero(on.any(axis=1)), level
    return level, level


@lru_cache(maxsize=8)
def midpoint_table(tol: float, capacity: float) -> tuple[np.ndarray, np.ndarray]:
    """The bisection tree of ``[tol, capacity]`` down to ``TABLE_LEVELS``
    levels, fewer where some bracket of a level is within ``tol``, as the
    walk computes it: its brackets' ends and midpoints in order, ``tol``
    first, and one row per level and the one below them of ``2**(levels -
    level)``, the number of table entries one bracket of the level spans.
    Both are read-only."""
    ends = np.empty((1 << TABLE_LEVELS) + 1)
    ends[0], ends[-1], step, levels = tol, capacity, len(ends) - 1, 0
    while levels < TABLE_LEVELS:
        known = ends[::step]  # the level's bracket ends
        if np.count_nonzero(np.diff(known) <= tol):
            break  # every unclamped lane is on each looked-up level
        mids = ends[step // 2 :: step]  # in place, between them
        with np.errstate(over="ignore"):  # inf, as (lo + hi) * 0.5 gives near the float max
            np.add(known[:-1], known[1:], out=mids)
        mids *= 0.5
        step, levels = step // 2, levels + 1
    if step > 1:
        ends = ends[::step].copy()
    spans = np.left_shift(1, np.arange(levels, -1, -1))[:, None]
    ends.flags.writeable = spans.flags.writeable = False
    return ends, spans


def _leaves(ends: np.ndarray, root) -> np.ndarray:
    """The leaf each root's walk reaches in the table ``ends``: ``mid <=
    root`` moves it right, so it is the count of midpoints at most the root
    (none for NaN).  It is guessed from the root, the entries lying close to
    evenly spaced, moved one entry as its two neighbours say, and searched
    where still off, such as past entries that overflowed to inf."""
    top, root = len(ends) - 2, np.fmax(root, -np.inf)  # the last leaf, and NaN read as -inf
    guess = (np.clip(root, ends[0], ends[-1]) - ends[0]) * ((top + 1) / (ends[-1] - ends[0]) if top else 0.0)
    leaf = np.minimum(guess, top).astype(np.intp)
    leaf += (ends[leaf + 1] <= root) & (leaf < top)
    leaf -= (ends[leaf] > root) & (leaf > 0)
    off = np.flatnonzero(((ends[leaf] > root) & (leaf > 0)) | ((ends[leaf + 1] <= root) & (leaf < top)))
    leaf[off] = np.searchsorted(ends[1:-1], root[off], side="right")
    return leaf


def _look_up(paths: LanePaths, bracket: np.ndarray, root, clamped, n_clamped: int) -> int:
    """Walk against ``root`` from the first bracket as far as the paths'
    :func:`midpoint_table` reaches: the bracket and its width where the
    table ends, the ``on`` rows below level 0, and each lane's midpoints
    where the paths are unscreened, since only the guards read them.
    Returns the levels taken, at least 1 where level 0 has a lane wider
    than tol."""
    ends, spans = midpoint_table(paths.tol, paths.capacity)
    levels = len(spans) - 1
    # a lane's bracket is its leaf's two table entries.  Every index is in
    # range, and a take into out= with the default mode copies through a buffer
    leaf = _leaves(ends, root)
    if not paths.screened:
        # each level's midpoint lies half a bracket on from the first table
        # entry of the level's bracket, the leaf with its low bits cleared
        index = np.bitwise_and(leaf, -spans[:levels])
        index += spans[1:]
        np.take(ends, index, out=paths.mids[:levels], mode="clip")
        np.copyto(paths.mids[:levels], paths.capacity, where=clamped)
    lo, hi = bracket
    np.take(ends, leaf, out=lo, mode="clip")
    leaf += 1
    np.take(ends, leaf, out=hi, mode="clip")
    if n_clamped:  # a clamped lane stays at [capacity, capacity]
        np.copyto(bracket, paths.capacity, where=clamped)
    np.logical_not(clamped, out=paths.on[1:levels])
    np.subtract(hi, lo, out=paths.widths[levels])
    paths.looked_up = levels
    return levels


def _solve_again(paths: LanePaths, price, lanes, rates):
    """Solve each of ``lanes`` again with :func:`solve_rate` into ``rates``,
    and return them.  A lane's ``BisectionError`` is held until every lane
    is solved, so that another's ``RateDomainError`` comes first."""
    s, capacity, held = len(paths.a), paths.capacity, None
    for j in lanes:
        utility = (SigmoidalUtility(float(paths.a[j]), float(paths.b[j])) if j < s
                   else LogarithmicUtility(float(paths.k[j - s]), capacity))
        try:
            rates[j] = solve_rate(utility, float(price[j]), capacity, paths.tol)
        except BisectionError as exc:
            held = held or exc
    paths.resolved = len(lanes)
    if held:
        raise held
    return rates


def _first_up(tol: float, capacity: float, root: float) -> float:
    """The first midpoint a walk of ``[tol, capacity]`` against ``root`` moves ``lo`` to, else ``capacity``."""
    hi = capacity
    while hi - tol > tol:
        if (mid := (tol + hi) * 0.5) <= root:
            return mid
        hi = mid
    return capacity


def _end_slopes(paths: LanePaths, ends: np.ndarray) -> np.ndarray:
    """The slopes at each lane's two final bracket ends, ``ends``' rows lo
    and hi, one call per kernel.  An end outside the domain divides by zero
    or overflows quietly: it is guarded where it lies on a lane's path."""
    s, slopes = len(paths.a), np.empty(ends.shape)
    with np.errstate(divide="ignore", over="ignore"):
        sigmoid_slope(paths.a, paths.neg_a, paths.b, ends[:, :s], out=slopes[:, :s])
        logarithmic_slope(paths.k, ends[:, s:], out=slopes[:, s:])
    return slopes


def _solve_each(paths: LanePaths, price, clamped) -> np.ndarray:
    """The rates of fewer than ``LANE_BY_LANE_BELOW`` lanes: each takes its
    leaf of the :func:`midpoint_table` (a NaN root goes left), walks on
    against its estimated root in Python floats, and holds where its final
    ends pass the ``MARGIN`` check, one kernel call per family; any other
    lane is solved again.  Where a guard fails at ``tol`` it runs at each
    held lane's lowest visited midpoint, its first ``lo`` or final ``hi``."""
    paths.resolved = 0
    a, s, tol, capacity, prices = paths.a, len(paths.a), paths.tol, paths.capacity, price.tolist()
    roots = [*sigmoid_root_floats(a.tolist(), paths.b.tolist(), prices[:s]),
             *logarithmic_root_floats(paths.k.tolist(), prices[s:])]
    ends, spans = midpoint_table(tol, capacity)
    top, leaf = len(spans) - 1, np.searchsorted(ends[1:-1], np.fmax(roots, -np.inf), side="right")
    walks = []  # per lane: rate, final ends (tol, capacity where it moved no lo, hi), levels
    for root, held, lo, hi in zip(roots, clamped.tolist(), ends[leaf].tolist(), ends[leaf + 1].tolist()):
        level, lo = top, (hi if held else lo)  # a clamped lane walks nothing
        while hi - lo > tol:
            if level == MAX_BISECTION_STEPS:  # NaN ends: no check passes
                lo = hi = math.nan
                break
            mid = (lo + hi) * 0.5
            if mid <= root:
                lo = mid
            else:
                hi = mid
            level += 1
        walks.append((capacity, tol, capacity, 0) if held else ((lo + hi) * 0.5, lo, hi, level))
    rates, lows, highs, levels = zip(*walks) if walks else ((),) * 4
    slopes = _end_slopes(paths, np.array((lows, highs)))
    again = [j for j, (lo, hi, at_lo, at_hi, p) in enumerate(zip(lows, highs, *slopes.tolist(), prices))
             if not ((lo == tol or at_lo >= p * ABOVE) and (hi == capacity or at_hi < p * BELOW))]
    if not paths.screened:  # a guard passing at a rate passes at every higher one
        lowest = np.array([min(_first_up(tol, capacity, root), hi) if level and j not in again else capacity
                           for j, (root, hi, level) in enumerate(zip(roots, highs, levels))])
        check_sigmoid_rate(a, lowest[:s])
        check_logarithmic_rate(paths.k, lowest[s:])
    paths.predicted, paths.looked_up = max(levels, default=0), (top if any(levels) else 0)
    return _solve_again(paths, price, again, np.array(rates)) if again else np.array(rates)


def solve_lanes(paths: LanePaths, price) -> np.ndarray:
    """Best responses of the lanes of ``paths`` at once, where ``price``
    holds each lane's shadow price.

    Every lane equals its own :func:`solve_rate` bit for bit: the clamp at
    ``capacity``, ``mid = 0.5*(lo + hi)`` and ``slope >= price`` until the
    bracket is within ``tol``.  Raises
    :class:`~rateauction.utility.RateDomainError` when a lane's slope is
    undefined at a midpoint on its bisection path, and otherwise
    :class:`BisectionError` when a lane needs more than
    ``MAX_BISECTION_STEPS`` steps.

    A solve walks every lane from level 0, the first levels from the
    :func:`midpoint_table` (each root's leaf guessed or searched), fewer than
    ``LANE_BY_LANE_BELOW`` lanes on in Python floats (:func:`_solve_each`),
    more in lockstep.  Either way each lane is certified by its two final
    bracket ends (``MARGIN``), one call per slope kernel, and
    :func:`solve_rate` solves every lane whose check fails again.  Guards
    failing at ``tol`` run on the checked paths only, so an estimate can
    cost time but never changes a rate, raises or warns.
    """
    price = np.asarray(price, dtype=float)
    if np.count_nonzero(price > 0) != price.size:
        raise ValueError(f"every price must be > 0, got {price}")
    at_capacity = paths.at_capacity
    if len(at_capacity) != len(price):
        raise ValueError(f"paths hold {len(at_capacity)} lanes, the solve has {len(price)}")
    clamped = at_capacity >= price
    if len(price) < LANE_BY_LANE_BELOW:
        return _solve_each(paths, price, clamped)
    # Basic slices keep both families' views contiguous and copy-free.
    a, b, k, capacity, tol, s = paths.a, paths.b, paths.k, paths.capacity, paths.tol, len(paths.a)
    mids, on, widths, tol_array = paths.mids, paths.on, paths.widths, paths.tol_array
    n_clamped = np.count_nonzero(clamped)
    # Each lane's bracket, rows lo and hi.  A clamped lane starts as
    # [capacity, capacity]: never active, and its midpoint is capacity exactly.
    bracket = np.where(clamped, capacity, paths.first_bracket)
    lo, hi = bracket
    paths.looked_up = paths.resolved = level = end = 0
    again = ()
    # The estimates, the walk and the kernels may overflow or divide by
    # zero, quietly: a midpoint past the float max is inf, as (lo + hi) *
    # 0.5 gives in floats, and an end outside the domain is guarded below
    # where it lies on a lane's path.
    with np.errstate(divide="ignore", over="ignore"):
        if np.count_nonzero(np.greater(np.subtract(hi, lo, out=widths[0]), tol_array, out=on[0])):
            root = np.concatenate((sigmoid_root(a, b, price[:s]), logarithmic_root(k, price[s:])))
            level = end = _look_up(paths, bracket, root, clamped, n_clamped)
            if np.count_nonzero(np.greater(widths[level], tol_array, out=on[level])):
                level, end = _walk(paths, bracket, level, tol_array, root)
            # A lane holds where each final end is one the walk never moved,
            # or has its slope beyond MARGIN of the price on its side.  lo
            # only rises and hi only falls, so every up-move lies at or below
            # the final lo and every down-move at or above the final hi:
            # lanes the walk halved on past their stop are checked at those
            # over-walked ends, which covers their paths too.
            at_lo, at_hi = _end_slopes(paths, bracket)
            holds = np.greater_equal(at_lo, price * ABOVE)
            holds |= lo == tol
            holds &= (at_hi < price * BELOW) | (hi == capacity)
            holds |= clamped
            if np.count_nonzero(holds) != len(price):  # those lanes' walks may leave their paths
                again = np.flatnonzero(~holds).tolist()
                on[: level + 1, again] = False
    rates = np.add(lo, hi)
    rates *= HALF
    if end and np.count_nonzero(on[end - 1]) + n_clamped != len(price):
        # lanes the walk halved on past their stop take their midpoint there
        early = np.flatnonzero(np.less(on[end - 1], ~clamped))
        rates[early] = mids[np.count_nonzero(on[:end, early], axis=0), early]
    # Where a lane fails its guard at tol, the guards run over every held
    # lane's path, raising before the step cap as a guarded walk would.
    if not paths.screened:
        on_paths = np.where(on[:level], mids[:level], capacity)
        check_sigmoid_rate(a, on_paths[:, :s])
        check_logarithmic_rate(k, on_paths[:, s:])
    if again:
        _solve_again(paths, price, again, rates)
    if level == MAX_BISECTION_STEPS and (active := np.count_nonzero(on[level])):
        raise BisectionError(
            f"no convergence after {MAX_BISECTION_STEPS} bisection steps in "
            f"{active} lane(s) (capacity={capacity}, tol={tol})"
        )
    paths.predicted = level
    return rates


def ue_step(utility: UtilityFunction, price: float, capacity: float) -> tuple[float, float]:
    """One UE round: the best response to the broadcast price, and its bid
    ``price * rate`` -- which the station inverts as bid/price."""
    rate = solve_rate(utility, price, capacity)
    return rate, price * rate
