"""Closed-loop auction engine.

One run: bootstrap the price at 1, then each iteration resample any
stochastic sigmoid users, let every UE solve its subproblem against the
broadcast price and bid, aggregate the bids into the next shadow price,
and test convergence.  The loop stops when all bid changes fall within
delta (if early stopping applies) or at the iteration cap; the final
allocation divides each bid by the closing price, which fills the
capacity exactly.

Runs are made in lockstep batches.  Each round, every UE of every live run
is one lane of a single vectorised solve (:func:`~rateauction.ue.solve_lanes`),
which performs the scalar solver's float operations lane for lane; prices,
convergence tests and allocations stay per run, in each run's
:class:`~rateauction.station.BidLedger`.  ``run`` is a batch of one,
``run_replication`` runs all its seeds together, and a run leaves the batch
when it converges.

Runs are deterministic: the same scenario (including seed) always yields
an identical result, trace included, whatever batch it ran in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from .sampling import Fixed, Normal, ParamSpec, Triangular, clamp_sigmoid_params, is_stochastic, resample_user, stream_rng
from .station import BidLedger
from .ue import DEFAULT_RATE_TOL, BidMessage, PriceUpdate, UserState, solve_lanes, ue_step
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
    """One run of a lockstep batch: its users, its ledger and its trace so far."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.states = [
            UserState(user_id=i + 1, utility=spec.initial_utility(scenario.capacity))
            for i, spec in enumerate(scenario.users)
        ]
        self.user_ids = [state.user_id for state in self.states]
        self.ledger = BidLedger(scenario.capacity, scenario.delta)
        self.early_stop = scenario.early_stop_enabled
        self.price = BOOTSTRAP_PRICE
        self.trace: list[TraceRecord] = []
        self.iterations = 0
        self.converged_at: Optional[int] = None

    def resample(self, n: int, stochastic: list[int]) -> None:
        """Fresh draws for the stochastic users, keyed by (seed, n, user_id)."""
        capacity = self.scenario.capacity
        for i in stochastic:
            spec = self.scenario.users[i]
            rng = stream_rng(self.scenario.seed, n, i + 1)
            self.states[i] = resample_user(self.states[i], spec.a, spec.b, capacity, rng)

    def close_round(self, n: int, rates: list[float], bids: list[float]) -> None:
        """Trace the round, hand its bids to the station, and either stop or
        take the next price."""
        self.iterations = n
        for state, rate, bid in zip(self.states, rates, bids):
            u = state.utility
            sig = isinstance(u, SigmoidalUtility)
            self.trace.append(
                TraceRecord(n, state.user_id, self.price, rate, bid,
                            float(u.a) if sig else None, float(u.b) if sig else None)
            )
        self.ledger.ingest(map(BidMessage, self.user_ids, bids))
        if self.early_stop and self.ledger.check_convergence():
            self.converged_at = n
        else:
            self.price = self.ledger.compute_price().price

    def result(self) -> RunResult:
        final_price = self.ledger.compute_price().price
        return RunResult(
            stop_reason=STOP_CONVERGED if self.converged_at is not None else STOP_ITERATION_CAP,
            converged_at=self.converged_at,
            iterations=self.iterations,
            final_price=final_price,
            final_rates=self.ledger.allocate_rates(final_price),
            trace=tuple(self.trace),
        )


def _solve_round(
    live: list[_Run], sig: list[int], log: list[int], prices: np.ndarray, n: int, tol: float
) -> np.ndarray:
    """Every live run's rates for round n: one row per run, users in order.

    All UEs of all live runs go through one lane solve: the sigmoid users
    ``sig`` of every run, then the logarithmic users ``log``, each run's
    lanes at its own price.  Should it fail, the round is solved again one
    ``ue_step`` per user (:func:`_solve_by_user`), so the error names the
    failing user and round exactly as a scalar solve would.
    """
    scenario = live[0].scenario
    a = np.array([r.states[i].utility.a for r in live for i in sig], dtype=float)
    b = np.array([r.states[i].utility.b for r in live for i in sig], dtype=float)
    k = np.array([r.states[i].utility.k for r in live for i in log], dtype=float)
    try:
        lanes = solve_lanes(
            a, b, k, np.concatenate((prices.repeat(len(sig)), prices.repeat(len(log)))),
            scenario.capacity, tol,
        )
    except Exception:  # any failure: the scalar re-solve raises the precise error
        return _solve_by_user(live, n, tol)
    rates = np.empty((len(live), len(scenario.users)))
    rates[:, sig] = lanes[: a.size].reshape(len(live), len(sig))
    rates[:, log] = lanes[a.size :].reshape(len(live), len(log))
    return rates


def _solve_by_user(live: list[_Run], n: int, tol: float) -> np.ndarray:
    """Round n solved by the scalar reference, in run and user order; raises
    SimulationError at the first user that fails."""
    rows = []
    for r in live:
        msg = PriceUpdate(iteration=n, price=r.price)
        row = []
        for state in r.states:
            try:
                row.append(ue_step(state, msg, r.scenario.capacity, tol)[0].last_rate)
            except Exception as exc:
                raise SimulationError(
                    f"user {state.user_id} failed at iteration {n}: {exc}"
                ) from exc
        rows.append(row)
    return np.array(rows)


def _run_lockstep(scenarios: list[Scenario], solver_tol: float) -> list[RunResult]:
    """Runs of scenarios that differ at most in their seed, round by round
    together; a run leaves the batch when it converges."""
    first = scenarios[0]
    sig = [i for i, spec in enumerate(first.users) if isinstance(spec, SigmoidalUserSpec)]
    log = [i for i, spec in enumerate(first.users) if not isinstance(spec, SigmoidalUserSpec)]
    stochastic = [i for i, spec in enumerate(first.users) if spec.is_stochastic]
    runs = [_Run(s) for s in scenarios]
    live = runs
    for n in range(1, first.max_iterations + 1):
        for r in live:
            r.resample(n, stochastic)
        prices = np.array([r.price for r in live])
        rates = _solve_round(live, sig, log, prices, n, solver_tol)
        bids = prices[:, None] * rates
        for r, rate_row, bid_row in zip(live, rates.tolist(), bids.tolist()):
            r.close_round(n, rate_row, bid_row)
        live = [r for r in live if r.converged_at is None]
        if not live:
            break
    return [r.result() for r in runs]


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
