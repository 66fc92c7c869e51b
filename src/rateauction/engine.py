"""Closed-loop auction engine.

One run: bootstrap the price at 1, then each iteration resample any
stochastic sigmoid users, let every UE solve its subproblem against the
broadcast price and bid, aggregate the bids into the next shadow price,
and test convergence.  The loop stops when all bid changes fall within
delta (if early stopping applies) or at the iteration cap; the final
allocation divides each bid by the closing price, which fills the
capacity exactly.  Every UE solves to the one solver tolerance
:data:`~rateauction.ue.DEFAULT_RATE_TOL`, and a scenario's R is at least it.

Runs are made in lockstep batches: one scenario under its seeds, with the
user layout built once from the scenario and the parameters as arrays, one
row per run.  Each round, every distinct UE of every live run is one lane of
a single vectorised solve (:func:`~rateauction.ue.solve_lanes`), which
performs the scalar solver's float operations lane for lane: within a run,
the fixed sigmoid users with equal (a, b) share a lane, as do the logarithmic
users with equal k, and each drawn user has its own.  Every user takes its
lane's rate and bids ``price * rate``; one
:class:`~rateauction.station.BidLedger`, one row per live run, gives every
run's price, convergence test and allocation.  One
:class:`~rateauction.sampling.BatchSampler` draws a block of rounds' (a, b)
for every live run and drawn user at once, as array arithmetic, bit for
bit the draws of each cell's own generator, and serves each round from
the block; where runs may stop early, the blocks start at one round and
double, so that the sampler draws at most about twice the rounds the runs
use.  A cell whose draw fails is drawn again, in its round, by the scalar
reference, which names the error.  ``run`` is a batch of one seed,
``run_replication`` runs all its seeds together, and a run leaves the
batch when it converges.  A result holds its rounds as arrays, and its
users' lanes, which the trace formats one user of each.

A batch keeps one :class:`~rateauction.ue.LanePaths` for its lane layout,
and sets each round's draw into it; a batch that runs leave builds new
paths for the runs left.  Runs with no drawn user differ only in their
seed, so they leave together, each with its sampler and ledger rows.  One
DEBUG line per batch reports its first round's lanes against its (run,
user) cells, the lanes re-solved by the scalar solver after a failed
check, the levels walked against the estimated roots and those looked up
in the midpoint table, and the sampler's blocks, cells and cells redrawn
off the ziggurat's fast path.

Runs are deterministic: the same scenario (including seed) always yields
an identical result, trace included, whatever batch it ran in.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterable, Optional, Union

import numpy as np

# a failed draw is named by the scalar reference, one cell's resample_user
# on its stream_rng, looked up here by name
from .sampling import (MAX_KEY, BatchSampler, Fixed, ParamSpec, SpecError, _require_at_least,
                       _require_finite_positive, format_param_spec, is_stochastic, resample_user, stream_rng)
from .station import BidLedger
from .ue import DEFAULT_RATE_TOL, BisectionError, LanePaths, solve_lanes, ue_step
from .utility import LogarithmicUtility, SigmoidalUtility

logger = logging.getLogger(__name__)

BOOTSTRAP_PRICE = 1.0

STOP_CONVERGED = "converged"
STOP_ITERATION_CAP = "iteration_cap"


class SimulationError(RuntimeError):
    """A UE step failed; carries which user and iteration broke."""


@dataclass(frozen=True)
class SigmoidalUserSpec:
    """A real-time user; a and b may be distribution-driven."""

    a: ParamSpec
    b: ParamSpec

    def __post_init__(self) -> None:
        for field_name in ("a", "b"):
            spec = getattr(self, field_name)
            if not isinstance(spec, ParamSpec):
                raise SpecError(field_name, f"{field_name} must be a FIXED, NORM or TRIA spec, got {spec!r}")
            if isinstance(spec, Fixed) and not spec.value > 0:
                raise SpecError(field_name, f"a fixed sigmoid {field_name} must be > 0, got {spec.value!r}")

    @property
    def drawn(self) -> bool:
        """Whether a or b is drawn afresh each round."""
        return is_stochastic(self.a) or is_stochastic(self.b)

    def initial_utility(self, capacity: float) -> SigmoidalUtility:
        """The utility of fixed a and b; SpecError names a drawn one."""
        for name, spec in (("a", self.a), ("b", self.b)):
            if is_stochastic(spec):
                raise SpecError(name, f"{name} is drawn from {format_param_spec(spec)}")
        return SigmoidalUtility(a=self.a.value, b=self.b.value)


@dataclass(frozen=True)
class LogarithmicUserSpec:
    """A delay-tolerant user; parameters are always fixed."""

    k: float
    r_max: float

    drawn = False  # k and r_max are always fixed

    def __post_init__(self) -> None:
        for name in ("k", "r_max"):
            object.__setattr__(self, name, _require_finite_positive(name, getattr(self, name)))
        if not math.isfinite(self.k * self.r_max):
            raise SpecError("k", f"k*r_max must be finite, got {self.k!r}*{self.r_max!r}")

    def initial_utility(self, capacity: float) -> LogarithmicUtility:
        return LogarithmicUtility(k=self.k, r_max=self.r_max)


UserSpec = Union[SigmoidalUserSpec, LogarithmicUserSpec]


@dataclass(frozen=True)
class Scenario:
    """Full experiment description.

    allow_early_stop=None means: stop at convergence only when no user is
    stochastic.  Stochastic runs otherwise execute the full iteration cap,
    so a lucky pair of draws cannot end the experiment early.
    """

    capacity: float
    delta: float
    max_iterations: int
    seed: int
    users: tuple[UserSpec, ...]
    allow_early_stop: Optional[bool] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "capacity", _require_finite_positive("R", self.capacity))
        # every UE bisects [tol, R]; a subnormal R, whose 1/R overflows the log-slopes, lies far below
        if self.capacity < DEFAULT_RATE_TOL:
            raise SpecError("R", f"R must be at least the solver tolerance {DEFAULT_RATE_TOL!r}, got {self.capacity!r}")
        object.__setattr__(self, "delta", _require_finite_positive("delta", self.delta))
        object.__setattr__(self, "max_iterations", _require_at_least("max_iterations", self.max_iterations, 1))
        object.__setattr__(self, "seed", _require_at_least("seed", self.seed, 0))
        if not (self.allow_early_stop is None or isinstance(self.allow_early_stop, bool)):
            raise SpecError("allow_early_stop", f"allow_early_stop must be a bool or None, got {self.allow_early_stop!r}")
        if not self.users:
            raise SpecError("users", "a scenario needs at least one user")
        try:
            object.__setattr__(self, "users", tuple(self.users))
        except TypeError:
            raise SpecError("users", f"users must be a sequence of user specs, got {self.users!r}") from None
        for i, user in enumerate(self.users):
            if not isinstance(user, (SigmoidalUserSpec, LogarithmicUserSpec)):
                raise SpecError(f"users[{i}]", f"users[{i}] must be a user spec, got {user!r}")
            if isinstance(user, LogarithmicUserSpec) and not math.isfinite(user.k * self.capacity):
                raise SpecError(
                    f"users[{i}].k", f"k*R must be finite, got {user.k!r}*{self.capacity!r}"
                )
            if user.drawn and self.max_iterations > MAX_KEY:  # a round's draws are keyed by its iteration
                raise SpecError("max_iterations", f"max_iterations must be at most {MAX_KEY} when users[{i}] "
                                                  f"is drawn, got {self.max_iterations}")
            # the slope evaluates a*r and a*(r - b) for r up to R; a drawn b
            # is clamped to R
            if isinstance(user, SigmoidalUserSpec) and isinstance(user.a, Fixed):
                reach = max(user.b.value, self.capacity) if isinstance(user.b, Fixed) else self.capacity
                if not math.isfinite(user.a.value * reach):
                    raise SpecError(
                        f"users[{i}].a", f"a*max(b, R) must be finite, got {user.a.value!r}*{reach!r}"
                    )


@dataclass(frozen=True)
class TraceRecord:
    """One (iteration, user) row of the convergence log."""

    iteration: int
    user_id: int
    price: float
    rate: float
    bid: float
    a: Optional[float] = None
    b: Optional[float] = None


@dataclass(frozen=True)
class RunResult:
    """A run's outcome and its rounds: ``prices`` per round; ``rates`` and
    ``bids`` (the ``price * rate`` the station priced) per round and user;
    ``a`` and ``b`` per round and sigmoid user, the users ``sigmoid`` marks;
    ``lane``, each user's lane in a run alone, one read-only array a batch:
    users of one lane have bit-equal columns and final rates."""

    stop_reason: str
    converged_at: Optional[int]
    iterations: int
    final_price: float
    final_rates: dict[int, float]
    prices: np.ndarray = field(repr=False)
    rates: np.ndarray = field(repr=False)
    bids: np.ndarray = field(repr=False)
    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    sigmoid: np.ndarray = field(repr=False)
    lane: np.ndarray = field(repr=False)

    def __eq__(self, other: object) -> bool:
        """Every field equal, the arrays bit for bit."""
        if not isinstance(other, RunResult):
            return NotImplemented
        return all(_bits(getattr(self, f.name)) == _bits(getattr(other, f.name)) for f in fields(self))

    @cached_property
    def trace(self) -> tuple[TraceRecord, ...]:
        """One record per (iteration, user), built on first access; a and b
        are None for the logarithmic users."""
        params = np.full((2, *self.rates.shape), None, dtype=object)
        params[:, :, self.sigmoid] = np.stack((self.a, self.b))
        prices = np.broadcast_to(self.prices[:, None], self.rates.shape)
        columns = (*np.indices(self.rates.shape) + 1, prices, self.rates, self.bids, *params)
        return tuple(map(TraceRecord, *(c.ravel().tolist() for c in columns)))


def _bits(x):
    return (x.dtype, x.shape, x.tobytes()) if isinstance(x, np.ndarray) else x


def _raise_first_failure(scenario: Scenario, seeds: list[int], prices: np.ndarray, n: int) -> None:
    """Make round n of the live runs under ``seeds`` again with the scalar
    reference: each drawn user's ``resample_user`` on its ``stream_rng``,
    run by run, then every user's ``ue_step`` at its run's price.  Raise
    SimulationError naming the first user that fails, else AssertionError."""
    capacity, cells = scenario.capacity, []
    try:
        for seed in seeds:
            for uid, spec in enumerate(scenario.users, start=1):
                utility = (SigmoidalUtility(*resample_user(spec.a, spec.b, capacity, stream_rng(seed, n, uid)))
                           if spec.drawn else spec.initial_utility(capacity))
                cells.append((uid, utility))
        for price, (uid, utility) in zip(np.repeat(prices, len(scenario.users)).tolist(), cells):
            ue_step(utility, price, capacity)
    except (ValueError, BisectionError) as exc:  # a failed draw, or what the solver raises by design
        raise SimulationError(f"user {uid} failed at iteration {n}: {exc}") from exc
    raise AssertionError(f"round {n} failed only in the batch")


def _lane_layout(runs: int, sigmoid: np.ndarray, column: np.ndarray, n_sig: int, k: np.ndarray):
    """The lanes of ``runs`` live runs: the ``n_sig`` sigmoid columns' in run
    and column order, then the logarithmic columns', one per ``k``.  Returns
    each logarithmic lane's k, each lane's run, and each (run, user)'s lane."""
    n_log, run_ids = len(k), np.arange(runs)[:, None]
    lane_run = np.concatenate((run_ids.repeat(n_sig), run_ids.repeat(n_log)))
    lane_of = np.where(sigmoid, run_ids * n_sig + column, runs * n_sig + run_ids * n_log + column)
    return np.tile(k, runs), lane_run, lane_of


def _run_lockstep(scenario: Scenario, seeds: list[int]) -> list[RunResult]:
    """The runs of one scenario under each of ``seeds``, round by round
    together; a run leaves the batch when it converges.  ``live`` indexes
    the runs still in the batch; ``a`` and ``b`` hold the sigmoid lane
    columns' parameters, one row per live run, and ``k`` the logarithmic."""
    capacity, cap, runs = scenario.capacity, scenario.max_iterations, len(seeds)
    # one pass over the users: the sigmoid mask, and each user's lane column in its family: one
    # per fixed (a, b) and per k, shared by the users holding it, and one per drawn user, whose
    # (column, id, spec) ``drawn`` keeps
    sigmoid, column, ab, k, drawn = [], [], {}, {}, []
    for uid, spec in enumerate(scenario.users, start=1):
        sigmoid.append(isinstance(spec, SigmoidalUserSpec))
        if not sigmoid[-1]:
            column.append(k.setdefault(spec.k, len(k)))
        elif not spec.drawn:
            column.append(ab.setdefault((spec.a.value, spec.b.value), len(ab)))
        else:
            drawn.append((len(ab), uid, spec))
            column.append(ab.setdefault(uid, len(ab)))
    # the columns' (a, b), NaN until each round's draw for a drawn user
    ab = [key if isinstance(key, tuple) else (np.nan, np.nan) for key in ab]
    a, b = np.tile(np.reshape(ab, (-1, 2)).T[:, None], (runs, 1))
    sigmoid, column, k = np.array(sigmoid), np.array(column, dtype=int), np.array(list(k), dtype=float)
    user_col, drawn_cols = column[sigmoid], [j for j, _, _ in drawn]  # each sigmoid user's column
    lane = _lane_layout(1, sigmoid, column, a.shape[1], k)[2][0]  # each user's lane in a run alone
    lane.flags.writeable = False
    early_stop = not drawn if scenario.allow_early_stop is None else scenario.allow_early_stop
    if drawn:
        sampler = BatchSampler(seeds, [uid for _, uid, _ in drawn], [(spec.a, spec.b) for _, _, spec in drawn],
                               capacity, cap, growing=early_stop)
    ledger = BidLedger(capacity, scenario.delta)
    paths = None  # built for each new lane layout
    resolved = predicted = looked_up = 0
    live = np.arange(runs)
    prices = np.full(runs, BOOTSTRAP_PRICE)
    rounds = []  # per round: live, prices, rates, bids, a, b
    converged_at = np.zeros(runs, dtype=int)  # 0: not converged
    final_prices = np.empty(runs)
    final_rates = np.empty((runs, len(sigmoid)))
    # rebuilt only when runs leave the batch
    k_lanes, lane_run, lane_of = _lane_layout(runs, sigmoid, column, a.shape[1], k)
    first_layout = (len(lane_run), lane_of.size)
    for n in range(1, cap + 1):
        if drawn:
            drawn_a, drawn_b, failed = sampler.draw(n)
            if np.count_nonzero(failed):
                _raise_first_failure(scenario, [seeds[i] for i in live.tolist()], prices, n)
            a, b = a.copy(), b.copy()  # the kept rounds hold the old rows
            a[:, drawn_cols], b[:, drawn_cols] = drawn_a, drawn_b
        try:
            if paths is None:
                paths = LanePaths(a.ravel(), b.ravel(), k_lanes, capacity)
            elif drawn:  # the slopes at capacity belong to the old parameters
                paths.set_sigmoid(a.ravel(), b.ravel())
            lanes = solve_lanes(paths, prices[lane_run])
        except (ValueError, BisectionError):  # the scalar replay raises the precise error
            _raise_first_failure(scenario, [seeds[i] for i in live.tolist()], prices, n)
        resolved, predicted, looked_up = (resolved + paths.resolved, predicted + paths.predicted,
                                          looked_up + paths.looked_up)
        rates = lanes[lane_of]
        bids = prices[:, None] * rates
        rounds.append((live, prices, rates, bids, a, b))
        ledger.ingest(bids)
        prices = ledger.compute_price()
        done = ledger.check_convergence() if early_stop else np.zeros(len(live), dtype=bool)
        if n == cap or np.count_nonzero(done):
            converged_at[live[done]] = n
            done |= n == cap
            final_prices[live[done]] = prices[done]
            final_rates[live[done]] = ledger.allocate_rates(prices)[done]
            ledger.drop(done)
            paths = None
            if drawn:
                sampler.drop(done)
            live, prices, a, b = live[~done], prices[~done], a[~done], b[~done]
            if not live.size:
                break
            k_lanes, lane_run, lane_of = _lane_layout(len(live), sigmoid, column, a.shape[1], k)
    drew = (sampler.blocks, sampler.cells, sampler.redrawn) if drawn else (0, 0, 0)
    logger.debug("lane solve: %d lanes for %d cells; %d lanes re-solved, %d predicted (%d looked up); "
                 "sampler: %d blocks, %d cells, %d redrawn", *first_layout, resolved, predicted, looked_up, *drew)
    # each run's prices, rates, bids, a and b, in round order; a and b per sigmoid user
    run_of, *kept = map(np.concatenate, zip(*rounds))
    order, ends = np.argsort(run_of, kind="stable"), np.cumsum(np.bincount(run_of)).tolist()
    kept = [c[order] if j < 3 else c[order][:, user_col] for j, c in enumerate(kept)]
    arrays = ([c[start:end] for c in kept] for start, end in zip([0, *ends], ends))
    finals = zip(converged_at.tolist(), final_prices.tolist(), final_rates.tolist(), arrays)
    return [
        RunResult(STOP_CONVERGED if stop else STOP_ITERATION_CAP, stop or None, len(cols[0]), price,
                  dict(enumerate(rates, start=1)), *cols, sigmoid, lane)
        for stop, price, rates, cols in finals
    ]


def run(scenario: Scenario) -> RunResult:
    """Execute one auction to convergence or the iteration cap: a lockstep
    batch of one run."""
    return _run_lockstep(scenario, [scenario.seed])[0]


def run_replication(scenario: Scenario, seeds: Iterable[int]) -> list[RunResult]:
    """Independent runs of the same scenario, one per seed, in seed order.

    The seeds run in lockstep over one user layout, every UE of every run in
    one lane solve per round; each result equals ``run(replace(scenario,
    seed=s))`` exactly, and the first negative seed raises its SpecError.
    """
    seeds = [_require_at_least("seed", seed, 0) for seed in seeds]
    if not seeds:
        raise ValueError("seed list must not be empty")
    return _run_lockstep(scenario, seeds)
