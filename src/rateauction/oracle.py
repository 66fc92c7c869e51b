"""Brute-force reference solvers on dense rate grids.

These certify the auction on small instances without sharing its solution
path: the centralized product-of-utilities optimum over the capacity
simplex (up to three users, enumerated exhaustively) and the single-user
subproblem argmax.  Objectives are accumulated in log space so that tiny
utilities never underflow the product.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .utility import UtilityFunction

DEFAULT_POINT_BUDGET = 200_000_000


class BudgetExceededError(RuntimeError):
    """The requested enumeration is larger than the configured budget."""


class GridStepError(ValueError):
    """The grid step leaves fewer than two intervals over the capacity."""


@dataclass(frozen=True)
class GridSpec:
    """Grid resolution and the enumeration ceiling guarding it."""

    step: float
    point_budget: int = DEFAULT_POINT_BUDGET

    def __post_init__(self) -> None:
        if not self.step > 0:
            raise ValueError(f"step must be > 0, got {self.step}")
        if self.point_budget < 1:
            raise ValueError(f"point_budget must be >= 1, got {self.point_budget}")


def _axis(capacity: float, grid: GridSpec, dims: int) -> tuple[np.ndarray, int]:
    """Uniform grid over [0, capacity] with pitch as close to ``grid.step`` as
    possible, refused before it is built when it has fewer than two
    intervals or enumerating it over ``dims`` axes would exceed the point
    budget."""
    ratio = capacity / grid.step
    # clipped before round(): a tiny step (ratio up to inf) is refused
    # without int() or np.arange ever seeing it, and past budget + 1 the
    # count is over the budget whatever the rounding
    n = round(min(ratio, grid.point_budget + 1))
    if n < 2:
        raise GridStepError(
            f"step {grid.step!r} gives {n} grid interval(s) over capacity {capacity!r}; at least 2 are needed"
        )
    if n**dims > grid.point_budget:
        raise BudgetExceededError(
            f"{ratio:.6g} grid points per axis over {dims} axes exceed the budget of {grid.point_budget}"
        )
    return capacity / n * np.arange(n + 1), n


def log_objective(utilities: Sequence[UtilityFunction], rates: Sequence[float]) -> float:
    """Sum of log-utilities; -inf when any utility is zero."""
    return float(sum(u.log_value(r) for u, r in zip(utilities, rates)))


def centralized_argmax(
    utilities: Sequence[UtilityFunction],
    capacity: float,
    grid: GridSpec,
) -> dict[int, float]:
    """Grid maximizer of the utility product on {sum r_i = capacity, r_i > 0}.

    Enumerates the (M-1)-dimensional simplex cross-section for M <= 3;
    points where any utility is zero are excluded (log objective -inf).
    Ties resolve to the lexicographically smallest rate vector.
    """
    m = len(utilities)
    if m < 1:
        raise ValueError("need at least one utility")
    if not capacity > 0:
        raise ValueError(f"capacity must be > 0, got {capacity}")
    if m > 3:
        raise BudgetExceededError(
            f"exhaustive enumeration is limited to 3 users, got {m}"
        )
    if m == 1:
        return {1: capacity}

    grid_values, n = _axis(capacity, grid, m - 1)
    logs = [np.asarray(u.log_value(grid_values)) for u in utilities]

    if m == 2:
        l1, l2 = logs
        obj = l1[1:n] + l2[n - 1 : 0 : -1]
        best = int(np.argmax(obj))
        if not np.isfinite(obj[best]):
            raise ValueError("objective is zero at every interior grid point")
        r1 = grid_values[best + 1]
        return {1: float(r1), 2: float(capacity - r1)}

    l1, l2, l3 = logs
    best_val = -np.inf
    best_ij = (1, 1)
    for i in range(1, n - 1):
        # j runs 1..n-i-1 and the third rate takes index n-i-j
        vals = l1[i] + l2[1 : n - i] + l3[n - i - 1 : 0 : -1]
        j = int(np.argmax(vals))
        if vals[j] > best_val:
            best_val = float(vals[j])
            best_ij = (i, j + 1)
    if not np.isfinite(best_val):
        raise ValueError("objective is zero at every interior grid point")
    i, j = best_ij
    r1, r2 = grid_values[i], grid_values[j]
    return {1: float(r1), 2: float(r2), 3: float(capacity - r1 - r2)}


def subproblem_argmax(
    utility: UtilityFunction,
    price: float,
    capacity: float,
    grid: GridSpec,
) -> float:
    """Dense-grid argmax of log U(r) - price * r over [step, capacity]."""
    if not price > 0:
        raise ValueError(f"price must be > 0, got {price}")
    grid_values, _ = _axis(capacity, grid, 1)
    r = grid_values[1:]
    obj = np.asarray(utility.log_value(r)) - price * r
    return float(r[int(np.argmax(obj))])
