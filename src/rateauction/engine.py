"""Closed-loop auction engine.

One run: bootstrap the price at 1, then each iteration resample any
stochastic sigmoid users, let every UE solve its subproblem against the
broadcast price and bid, aggregate the bids into the next shadow price,
and test convergence.  The loop stops when all bid changes fall within
delta (if early stopping applies) or at the iteration cap; the final
allocation divides each bid by the closing price, which fills the
capacity exactly.

Runs are made in lockstep batches, whose parameters are arrays: one row
per run.  Each round, every UE of every live run is one lane of a single
vectorised solve (:func:`~rateauction.ue.solve_lanes`), which performs the
scalar solver's float operations lane for lane, and bids ``price * rate``;
one :class:`~rateauction.station.BidLedger`, one row per live run, gives
every run's price, convergence test and allocation.  One
:class:`~rateauction.sampling.BatchSampler` draws each round's (a, b) for
every live run and drawn user at once, as array arithmetic, bit for bit
the draws of each cell's own generator; a cell whose draw fails is drawn
again by the scalar reference, which names the error.  ``run`` is a batch
of one, ``run_replication`` runs all its seeds together, and a run leaves
the batch when it converges.  A result holds its rounds as arrays.

A batch keeps one :class:`~rateauction.ue.LanePaths`: each lane's last
bisection path, which the next round's solve replays exactly, walking on
only below the first flipped decision.  A run that leaves the batch drops
its lanes' paths and its sampler row with its ledger row.  A batch with a
drawn user forgets every path each round, since fresh parameters flip a
path within a few levels and the replay would cost more than it saves.
One DEBUG line per batch reports the levels walked and replayed.

Runs are deterministic: the same scenario (including seed) always yields
an identical result, trace included, whatever batch it ran in.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Optional, Union

import numpy as np

# a failed draw is named by the scalar reference, one cell's resample_user
# on its stream_rng, looked up here by name
from .sampling import BatchSampler, Fixed, ParamSpec, format_param_spec, is_stochastic, resample_user, stream_rng
from .station import BidLedger
from .ue import DEFAULT_RATE_TOL, LanePaths, solve_lanes, ue_step
from .utility import LogarithmicUtility, SigmoidalUtility

logger = logging.getLogger(__name__)

BOOTSTRAP_PRICE = 1.0

STOP_CONVERGED = "converged"
STOP_ITERATION_CAP = "iteration_cap"


class SimulationError(RuntimeError):
    """A UE step failed; carries which user and iteration broke."""


class SpecError(ValueError):
    """A value a spec cannot run with; ``field`` names it as a scenario file does."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


def _require_finite_positive(field: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise SpecError(field, f"{field} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class SigmoidalUserSpec:
    """A real-time user; a and b may be distribution-driven."""

    a: ParamSpec
    b: ParamSpec

    def __post_init__(self) -> None:
        for field_name in ("a", "b"):
            spec = getattr(self, field_name)
            if isinstance(spec, Fixed) and not spec.value > 0:
                raise SpecError(
                    field_name, f"a fixed sigmoid {field_name} must be > 0, got {spec.value!r}"
                )

    @property
    def is_stochastic(self) -> bool:
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

    def __post_init__(self) -> None:
        _require_finite_positive("k", self.k)
        _require_finite_positive("r_max", self.r_max)
        if not math.isfinite(self.k * self.r_max):
            raise SpecError("k", f"k*r_max must be finite, got {self.k!r}*{self.r_max!r}")

    @property
    def is_stochastic(self) -> bool:
        return False

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
        _require_finite_positive("R", self.capacity)
        _require_finite_positive("delta", self.delta)
        if self.max_iterations < 1:
            raise SpecError(
                "max_iterations", f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.seed < 0:
            raise SpecError("seed", f"seed must be >= 0, got {self.seed}")
        if not self.users:
            raise SpecError("users", "a scenario needs at least one user")
        object.__setattr__(self, "users", tuple(self.users))
        for i, user in enumerate(self.users):
            if isinstance(user, LogarithmicUserSpec) and not math.isfinite(user.k * self.capacity):
                raise SpecError(
                    f"users[{i}].k", f"k*R must be finite, got {user.k!r}*{self.capacity!r}"
                )
            # the slope evaluates a*r and a*(r - b) for r up to R; a drawn b
            # is clamped to R
            if isinstance(user, SigmoidalUserSpec) and isinstance(user.a, Fixed):
                reach = max(user.b.value, self.capacity) if isinstance(user.b, Fixed) else self.capacity
                if not math.isfinite(user.a.value * reach):
                    raise SpecError(
                        f"users[{i}].a", f"a*max(b, R) must be finite, got {user.a.value!r}*{reach!r}"
                    )

    @property
    def is_stochastic(self) -> bool:
        return any(u.is_stochastic for u in self.users)

    @property
    def early_stop_enabled(self) -> bool:
        if self.allow_early_stop is None:
            return not self.is_stochastic
        return self.allow_early_stop


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
    ``a`` and ``b`` per round and sigmoid user, the users ``sigmoid`` marks."""

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


def _raise_first_failure(scenario: Scenario, prices, a: np.ndarray, b: np.ndarray, n: int, tol: float) -> None:
    """Solve round n again with the scalar reference, one ``ue_step`` per
    user in run and user order, and raise SimulationError naming the first
    user that fails."""
    capacity = scenario.capacity
    for price, a_row, b_row in zip(prices.tolist(), a.tolist(), b.tolist()):
        sigmoid = map(SigmoidalUtility, a_row, b_row)
        for uid, spec in enumerate(scenario.users, start=1):
            utility = next(sigmoid) if isinstance(spec, SigmoidalUserSpec) else spec.initial_utility(capacity)
            try:
                ue_step(utility, price, capacity, tol)
            except Exception as exc:
                raise SimulationError(f"user {uid} failed at iteration {n}: {exc}") from exc


def _raise_draw_failure(scenarios: list[Scenario], drawn, failed: np.ndarray, n: int) -> None:
    """Draw round n's first failed cell, in run and user order, again with
    the scalar reference, and raise SimulationError naming its user.
    ``scenarios`` are the live runs, ``failed`` marks cells (run, drawn user)."""
    row, col = np.argwhere(failed)[0].tolist()
    scenario, (_, uid, spec) = scenarios[row], drawn[col]
    try:
        resample_user(spec.a, spec.b, scenario.capacity, stream_rng(scenario.seed, n, uid))
    except ValueError as exc:  # a non-finite draw, or a*R
        raise SimulationError(f"user {uid} failed at iteration {n}: {exc}") from exc
    raise AssertionError(f"user {uid}'s draw at iteration {n} failed only in the batch sampler")


def _run_lockstep(scenarios: list[Scenario], solver_tol: float) -> list[RunResult]:
    """Runs of scenarios that differ at most in their seed, round by round
    together; a run leaves the batch when it converges.  ``live`` indexes
    the runs still in the batch; ``a`` and ``b`` hold the sigmoid users'
    parameters, one row per live run, and ``k`` the logarithmic users'."""
    first = scenarios[0]
    capacity = first.capacity
    sigmoid = np.array([isinstance(spec, SigmoidalUserSpec) for spec in first.users])
    sig, log = np.flatnonzero(sigmoid).tolist(), np.flatnonzero(~sigmoid).tolist()
    specs = [first.users[i] for i in sig]
    # (column, user id, spec) of every sigmoid user that draws its parameters
    drawn = [(j, sig[j] + 1, spec) for j, spec in enumerate(specs) if spec.is_stochastic]
    drawn_cols = [j for j, _, _ in drawn]
    # NaN holds a drawn user's place until each round's draw, before the solve
    a = np.tile([np.nan if s.is_stochastic else s.a.value for s in specs], (len(scenarios), 1))
    b = np.tile([np.nan if s.is_stochastic else s.b.value for s in specs], (len(scenarios), 1))
    k = np.array([first.users[i].k for i in log], dtype=float)
    if drawn:
        sampler = BatchSampler([s.seed for s in scenarios], [uid for _, uid, _ in drawn],
                               [(spec.a, spec.b) for _, _, spec in drawn], capacity)
    ledger = BidLedger(capacity, first.delta)
    paths = LanePaths()
    live = np.arange(len(scenarios))
    prices = np.full(len(scenarios), BOOTSTRAP_PRICE)
    rounds = []  # per round: live, prices, rates, bids, a, b
    converged_at = np.zeros(len(scenarios), dtype=int)  # 0: not converged
    final_prices = np.empty(len(scenarios))
    final_rates = np.empty((len(scenarios), len(first.users)))
    early_stop = first.early_stop_enabled
    for n in range(1, first.max_iterations + 1):
        if drawn:
            drawn_a, drawn_b, failed = sampler.draw(n)
            if failed.any():
                _raise_draw_failure([scenarios[i] for i in live.tolist()], drawn, failed, n)
            a, b = a.copy(), b.copy()  # the kept rounds hold the old rows
            a[:, drawn_cols], b[:, drawn_cols] = drawn_a, drawn_b
            paths.clear()  # fresh draws flip a path within a few levels: no replay would pay
        try:
            lanes = solve_lanes(
                a.ravel(), b.ravel(), np.tile(k, len(live)),
                np.concatenate((prices.repeat(len(sig)), prices.repeat(len(log)))),
                capacity, solver_tol, paths,
            )
        except Exception:  # any failure: the scalar re-solve raises the precise error
            _raise_first_failure(first, prices, a, b, n, solver_tol)
            raise
        rates = np.empty((len(live), len(first.users)))
        rates[:, sig] = lanes[: a.size].reshape(a.shape)
        rates[:, log] = lanes[a.size :].reshape(len(live), len(log))
        bids = prices[:, None] * rates
        rounds.append((live, prices, rates, bids, a, b))
        ledger.ingest(bids)
        prices = ledger.compute_price()
        done = ledger.check_convergence() if early_stop else np.zeros(len(live), dtype=bool)
        converged_at[live[done]] = n
        done |= n == first.max_iterations
        if done.any():
            final_prices[live[done]] = prices[done]
            final_rates[live[done]] = ledger.allocate_rates(prices)[done]
            ledger.drop(done)
            paths.drop(np.concatenate((done.repeat(len(sig)), done.repeat(len(log)))))
            if drawn:
                sampler.drop(done)
            live, prices, a, b = live[~done], prices[~done], a[~done], b[~done]
            if not live.size:
                break
    logger.debug("lane solve: %d levels walked, %d replayed", paths.walked, paths.replayed)
    # each run's prices, rates, bids, a and b, in round order
    run_of, *kept = map(np.concatenate, zip(*rounds))
    order, ends = np.argsort(run_of, kind="stable"), np.cumsum(np.bincount(run_of))[:-1]
    arrays = zip(*(np.split(c[order], ends) for c in kept))
    finals = zip(converged_at.tolist(), final_prices.tolist(), final_rates.tolist(), arrays)
    return [
        RunResult(STOP_CONVERGED if stop else STOP_ITERATION_CAP, stop or None, len(cols[0]), price,
                  dict(enumerate(rates, start=1)), *cols, sigmoid)
        for stop, price, rates, cols in finals
    ]


def run(scenario: Scenario, solver_tol: float = DEFAULT_RATE_TOL) -> RunResult:
    """Execute one auction to convergence or the iteration cap: a lockstep
    batch of one run."""
    return _run_lockstep([scenario], solver_tol)[0]


def run_replication(
    scenario: Scenario,
    seeds: list[int],
    solver_tol: float = DEFAULT_RATE_TOL,
) -> list[RunResult]:
    """Independent runs of the same scenario, one per seed, in seed order.

    The seeds run in lockstep, every UE of every run in one lane solve per
    round; each result equals ``run(replace(scenario, seed=s))`` exactly.
    """
    if not seeds:
        raise ValueError("seed list must not be empty")
    return _run_lockstep([replace(scenario, seed=s) for s in seeds], solver_tol)
