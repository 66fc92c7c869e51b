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
prices, convergence tests and allocations stay per run, in each run's
:class:`~rateauction.station.BidLedger`.  A round's draws come from one
:func:`~rateauction.sampling.stream_rngs` call, one generator per live run
and stochastic user.  ``run`` is a batch of one, ``run_replication`` runs
all its seeds together, and a run leaves the batch when it converges.

Runs are deterministic: the same scenario (including seed) always yields
an identical result, trace included, whatever batch it ran in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

# stream_rng, the one-cell case of stream_rngs, stays importable from here
# for code that wraps the engine's sampling calls by name
from .sampling import Fixed, Normal, ParamSpec, Triangular, clamp_sigmoid_params, is_stochastic, resample_user, stream_rng, stream_rngs
from .station import BidLedger
from .ue import DEFAULT_RATE_TOL, solve_lanes, ue_step
from .utility import LogarithmicUtility, SigmoidalUtility

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


def _nominal(spec: ParamSpec) -> float:
    if isinstance(spec, Fixed):
        return spec.value
    if isinstance(spec, Normal):
        return spec.mu
    if isinstance(spec, Triangular):
        return spec.mode
    raise TypeError(f"not a ParamSpec: {spec!r}")


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
        a, b = _nominal(self.a), _nominal(self.b)
        if self.is_stochastic:
            # nominal center of a stochastic spec may be invalid; the
            # iteration-1 resample replaces it before any solve anyway
            a, b = clamp_sigmoid_params(a, b, capacity)
        return SigmoidalUtility(a=a, b=b)


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
    stop_reason: str
    converged_at: Optional[int]
    iterations: int
    final_price: float
    final_rates: dict[int, float]
    trace: tuple[TraceRecord, ...] = field(repr=False)


class _Run:
    """One run of a lockstep batch: its ledger, its price and its rounds so far."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.ledger = BidLedger(scenario.capacity, scenario.delta)
        self.early_stop = scenario.early_stop_enabled
        self.price = BOOTSTRAP_PRICE
        self.rounds: list[tuple] = []  # per round: price, rates, bids, a, b
        self.converged_at: Optional[int] = None

    def close_round(self, n: int, rates, bids, a, b) -> None:
        """Keep the round, hand its bids to the station, and either stop or
        take the next price."""
        self.rounds.append((self.price, rates, bids, a, b))
        self.ledger.ingest(bids)
        if self.early_stop and self.ledger.check_convergence():
            self.converged_at = n
        else:
            self.price = self.ledger.compute_price()

    def result(self, sig: list[int]) -> RunResult:
        """The run's outcome; ``sig`` are the columns of the sigmoid users,
        whose a and b the trace carries (None for the logarithmic users)."""
        prices, rates, bids, a, b = map(np.array, zip(*self.rounds))
        rounds, users = rates.shape
        params = np.full((2, rounds, users), None, dtype=object)
        params[:, :, sig] = np.stack((a, b))
        trace = map(
            TraceRecord,
            np.arange(1, rounds + 1).repeat(users).tolist(),
            list(range(1, users + 1)) * rounds,
            prices.repeat(users).tolist(),
            rates.ravel().tolist(),
            bids.ravel().tolist(),
            params[0].ravel().tolist(),
            params[1].ravel().tolist(),
        )
        final_price = self.ledger.compute_price()
        return RunResult(
            stop_reason=STOP_CONVERGED if self.converged_at is not None else STOP_ITERATION_CAP,
            converged_at=self.converged_at,
            iterations=rounds,
            final_price=final_price,
            final_rates=self.ledger.allocate_rates(final_price),
            trace=tuple(trace),
        )


def _raise_first_failure(live: list[_Run], a: np.ndarray, b: np.ndarray, n: int, tol: float) -> None:
    """Solve round n again with the scalar reference, one ``ue_step`` per
    user in run and user order, and raise SimulationError naming the first
    user that fails."""
    for r, a_row, b_row in zip(live, a.tolist(), b.tolist()):
        sigmoid = map(SigmoidalUtility, a_row, b_row)
        capacity = r.scenario.capacity
        for uid, spec in enumerate(r.scenario.users, start=1):
            utility = next(sigmoid) if isinstance(spec, SigmoidalUserSpec) else spec.initial_utility(capacity)
            try:
                ue_step(utility, r.price, capacity, tol)
            except Exception as exc:
                raise SimulationError(f"user {uid} failed at iteration {n}: {exc}") from exc


def _run_lockstep(scenarios: list[Scenario], solver_tol: float) -> list[RunResult]:
    """Runs of scenarios that differ at most in their seed, round by round
    together; a run leaves the batch when it converges.  ``a`` and ``b``
    hold the sigmoid users' parameters, one row per live run, and ``k`` the
    logarithmic users', shared by every run."""
    first = scenarios[0]
    capacity = first.capacity
    sig = [i for i, spec in enumerate(first.users) if isinstance(spec, SigmoidalUserSpec)]
    log = [i for i, spec in enumerate(first.users) if not isinstance(spec, SigmoidalUserSpec)]
    # (column, spec) and user id of every sigmoid user that draws its parameters
    drawn = [(j, first.users[i]) for j, i in enumerate(sig) if first.users[i].is_stochastic]
    drawn_ids = [i + 1 for i in sig if first.users[i].is_stochastic]
    nominal = [first.users[i].initial_utility(capacity) for i in sig]
    a = np.tile([u.a for u in nominal], (len(scenarios), 1))
    b = np.tile([u.b for u in nominal], (len(scenarios), 1))
    k = np.array([first.users[i].k for i in log], dtype=float)
    runs = [_Run(s) for s in scenarios]
    live = runs
    for n in range(1, first.max_iterations + 1):
        if drawn:  # one generator per (live run, drawn user), row-major
            seeds = [r.scenario.seed for r in live for _ in drawn_ids]
            rngs = iter(stream_rngs(seeds, n, drawn_ids * len(live)))
            for row in range(len(live)):
                for j, spec in drawn:
                    a[row, j], b[row, j] = resample_user(spec.a, spec.b, capacity, next(rngs))
        prices = np.array([r.price for r in live])
        try:
            lanes = solve_lanes(
                a.ravel(), b.ravel(), np.tile(k, len(live)),
                np.concatenate((prices.repeat(len(sig)), prices.repeat(len(log)))),
                capacity, solver_tol,
            )
        except Exception:  # any failure: the scalar re-solve raises the precise error
            _raise_first_failure(live, a, b, n, solver_tol)
            raise
        rates = np.empty((len(live), len(first.users)))
        rates[:, sig] = lanes[: a.size].reshape(a.shape)
        rates[:, log] = lanes[a.size :].reshape(len(live), len(log))
        bids = prices[:, None] * rates
        for row, r in enumerate(live):
            r.close_round(n, rates[row], bids[row], a[row], b[row])
        keep = [row for row, r in enumerate(live) if r.converged_at is None]
        live = [live[row] for row in keep]
        a, b = a[keep], b[keep]  # copies: the runs keep this round's rows
        if not live:
            break
    return [r.result(sig) for r in runs]


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
