"""Output checks for every benchmark run, and the clearing-price reference.

Each run is checked against the invariants below and, when goldens.json
holds its key, against the sha256 of the trace rendered at the commit that
defined the benchmark.  The reference price p* is the Kelly-Maulloo-Tan
shadow price: the unique p with sum_i r_i(p) = R, where r_i(p) is user i's
best response.  Every utility here is log-concave, so p* is unique.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import rateauction as ra
from scipy.optimize import brentq

GOLDENS = Path(__file__).with_name("goldens.json")

CAPACITY_RTOL = 1e-9
# Tight enough that the reference's own error is far below any price gap
# the auction can reach at delta = 1e-6.
REFERENCE_RATE_TOL = 1e-12
BRACKET_STEP = 2.0


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_goldens() -> dict[str, str]:
    return json.loads(GOLDENS.read_text(encoding="utf-8"))


def check_run(
    result: ra.RunResult,
    digest: str,
    capacity: float,
    want_digest: str | None,
    want_converged_at: int | None,
) -> list[str]:
    """Every way this run's output is wrong; empty when it is right."""
    problems = []
    if want_digest is not None and digest != want_digest:
        problems.append(f"trace sha256 {digest[:12]} != expected {want_digest[:12]}")
    total = sum(result.final_rates.values())
    if abs(total - capacity) > CAPACITY_RTOL * capacity:
        problems.append(f"final rates sum to {total!r}, not R = {capacity!r}")
    if not all(r > 0 for r in result.final_rates.values()):
        problems.append("a final rate is not > 0")
    if not all(rec.rate > 0 for rec in result.trace):
        problems.append("a traced rate is not > 0")
    if want_converged_at is not None and result.converged_at != want_converged_at:
        problems.append(f"converged_at {result.converged_at}, want {want_converged_at}")
    return problems


def final_utilities(scenario: ra.Scenario, result: ra.RunResult) -> list:
    """The utilities the users held in the run's last round.

    Stochastic sigmoid users redraw (a, b) every round; the trace records
    the values each round used.
    """
    last = {rec.user_id: rec for rec in result.trace if rec.iteration == result.iterations}
    utilities = []
    for uid, spec in enumerate(scenario.users, start=1):
        rec = last[uid]
        if rec.a is not None:
            utilities.append(ra.SigmoidalUtility(a=rec.a, b=rec.b))
        else:
            utilities.append(spec.initial_utility(scenario.capacity))
    return utilities


def clearing_price(utilities: list, capacity: float) -> float:
    """p* with sum_i r_i(p*) = R, by a bracketed root-find in log p."""
    multiplicity = Counter(utilities)

    def excess(log_p: float) -> float:
        p = math.exp(log_p)
        demand = sum(
            n * ra.solve_rate(u, p, capacity, REFERENCE_RATE_TOL) for u, n in multiplicity.items()
        )
        return demand - capacity

    # Demand falls from n*R toward 0 as p grows: widen around p = 1 until
    # the excess changes sign.
    lo = hi = 0.0
    while excess(lo) <= 0:
        lo -= BRACKET_STEP
    while excess(hi) >= 0:
        hi += BRACKET_STEP
    return math.exp(brentq(excess, lo, hi, xtol=1e-14, rtol=4 * 2.0**-52))


def price_gap(scenario: ra.Scenario, result: ra.RunResult) -> float:
    """|p_final - p*| / p* for the utilities of the run's final round."""
    p_star = clearing_price(final_utilities(scenario, result), scenario.capacity)
    return abs(result.final_price - p_star) / p_star
