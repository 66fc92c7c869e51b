"""Acceptance suite.

Eight end-to-end criteria, one test (and one printed pass/fail line) each:

 1. fixed reference scenario: settles under delta=1e-2 given headroom, at
    the first round the bid-change rule allows; fills the capacity, favors
    every sigmoid user past its inflection rate, and leaves every
    logarithmic user a positive rate; at its 20-round cap the run reports
    ``iteration_cap``;
 2. the auction matches the brute-force simplex reference on randomized
    small scenarios;
 3. the bisection subproblem solver is certified against dense grids;
 4. stationarity (marginal log-utility == shadow price) at delta=1e-6;
 5. numerical stability of the sigmoid evaluation;
 6. stochastic regimes: invariants hold for 50 seeds per preset and traces
    are byte-reproducible;
 7. triangular sampler distribution correctness;
 8. seed-to-seed dispersion: positive for stochastic presets, zero for the
    fixed preset.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 1's measured dynamics: from the bootstrap price 1.0 the paper's
update p <- sum(w)/R contracts the bid iteration by a factor ~0.83 per
round near the fixed point, so the largest per-user bid change is ~0.157
at round 20 and first drops to 1e-2 at round 36.  The criterion therefore
runs the preset with a 60-round cap, checks the settle round against the
trace itself, and checks that the 20-round run reports the cap.
"""

import math
import time
from dataclasses import replace

import numpy as np
from scipy import stats

from rateauction import (
    STOP_CONVERGED,
    STOP_ITERATION_CAP,
    Fixed,
    LogarithmicUserSpec,
    LogarithmicUtility,
    Normal,
    Scenario,
    SigmoidalUserSpec,
    SigmoidalUtility,
    Triangular,
    centralized_argmax,
    emit_trace,
    log_objective,
    preset,
    run,
    run_replication,
    sample,
    solve_rate,
    stream_rng,
    subproblem_argmax,
)

CAPACITY = 100.0
PRESET_SIGMOIDS = [(15.0, 20.0), (10.0, 25.0), (5.0, 35.0)]


def _verdict(criterion: int, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status}")
    assert not failures, f"criterion {criterion}: " + "; ".join(failures)


def _check(failures: list, ok: bool, clause: str) -> None:
    if not ok:
        failures.append(clause)


def _trace_utilities(scenario, record):
    """Reconstruct the utility a trace row was solved with."""
    spec = scenario.users[record.user_id - 1]
    if isinstance(spec, LogarithmicUserSpec):
        return LogarithmicUtility(k=spec.k, r_max=spec.r_max)
    return SigmoidalUtility(a=record.a, b=record.b)


def _max_bid_changes(trace) -> dict:
    """Largest absolute per-user bid change of each round after the first,
    recomputed from the trace rows alone."""
    bids: dict = {}
    for rec in trace:
        bids.setdefault(rec.iteration, {})[rec.user_id] = rec.bid
    return {
        n: max(abs(bids[n][uid] - bids[n - 1][uid]) for uid in bids[n])
        for n in sorted(bids)
        if n - 1 in bids
    }


def _first_settled_round(trace, delta: float):
    """First round whose largest bid change is within delta, or None."""
    changes = _max_bid_changes(trace)
    return next((n for n in sorted(changes) if changes[n] <= delta), None)


def test_criterion_1_fixed_scenario_convergence():
    failures = []
    capped = preset("fixed")
    scenario = replace(capped, max_iterations=60)
    start = time.perf_counter()
    result = run(scenario)
    elapsed = time.perf_counter() - start

    _check(failures, elapsed < 1.0, f"runtime {elapsed:.3f}s not well under 1s")
    settle = _first_settled_round(result.trace, scenario.delta)
    _check(
        failures,
        result.stop_reason == STOP_CONVERGED,
        f"did not converge under delta={scenario.delta} within "
        f"{scenario.max_iterations} iterations (stop_reason={result.stop_reason}; "
        f"the trace's first settled round is {settle})",
    )
    _check(
        failures,
        settle is not None and result.converged_at == settle,
        f"converged_at={result.converged_at}, but the trace's max per-user bid "
        f"change first drops to delta={scenario.delta} at round {settle}",
    )
    total = sum(result.final_rates.values())
    _check(
        failures,
        abs(total - CAPACITY) <= 1e-6 * CAPACITY,
        f"final rates sum to {total!r}, not 100 within 1e-6 relative",
    )
    for uid, b in zip((4, 5, 6), (20.0, 25.0, 35.0)):
        _check(
            failures,
            result.final_rates[uid] > b,
            f"sigmoid user {uid} rate {result.final_rates[uid]:.4f} <= inflection {b}",
        )
    for uid in (1, 2, 3):
        _check(failures, result.final_rates[uid] > 0.0, f"log user {uid} rate not positive")

    # the solver's lower bracket must stay on the positive side of the
    # marginal condition at every realized price
    for rec in result.trace:
        u = _trace_utilities(scenario, rec)
        _check(
            failures,
            float(u.log_slope(1e-6)) > rec.price,
            f"lower bracket invalid at iteration {rec.iteration} user {rec.user_id}",
        )

    # at the preset's own cap the run has not settled and must say so
    cut = run(capped)
    cap = capped.max_iterations
    last_change = _max_bid_changes(cut.trace).get(cap)
    _check(
        failures,
        cut.stop_reason == STOP_ITERATION_CAP and cut.converged_at is None,
        f"{cap}-round run reported stop_reason={cut.stop_reason}, "
        f"converged_at={cut.converged_at}, not {STOP_ITERATION_CAP} and None",
    )
    _check(
        failures,
        last_change is not None and last_change > capped.delta,
        f"round-{cap} max bid change {last_change} is not above delta={capped.delta}",
    )
    _verdict(1, failures)


def _random_small_scenario(rng, m):
    """A convergence-friendly random instance: at least one logarithmic
    user (so the fixed-point price stays well-scaled) and total sigmoid
    inflection mass well under the capacity."""
    n_sig = int(rng.integers(0, m))  # leaves >= 1 logarithmic user
    users = []
    for _ in range(n_sig):
        users.append(
            SigmoidalUserSpec(
                a=Fixed(float(rng.uniform(2.0, 12.0))),
                b=Fixed(float(rng.uniform(8.0, 60.0 / n_sig))),
            )
        )
    for _ in range(m - n_sig):
        users.append(
            LogarithmicUserSpec(
                k=float(10.0 ** rng.uniform(math.log10(0.02), 0.0)), r_max=CAPACITY
            )
        )
    order = rng.permutation(m)
    return Scenario(
        capacity=CAPACITY,
        delta=1e-8,
        max_iterations=3000,
        seed=0,
        users=tuple(users[i] for i in order),
    )


def test_criterion_2_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(20260810)
    start = time.perf_counter()
    for case in range(20):
        m = case % 3 + 1
        scenario = _random_small_scenario(rng, m)
        result = run(scenario)
        _check(
            failures,
            result.stop_reason == STOP_CONVERGED,
            f"case {case}: auction did not converge",
        )
        utilities = [u.initial_utility(CAPACITY) for u in scenario.users]
        step = 1e-3 if m <= 2 else 1e-2
        reference = centralized_argmax(utilities, CAPACITY, step)
        for uid in sorted(reference):
            diff = abs(result.final_rates[uid] - reference[uid])
            _check(
                failures,
                diff <= 0.05,
                f"case {case}: user {uid} rate off by {diff:.4f} (> 0.05)",
            )
        ordered = sorted(result.final_rates)
        gap = abs(
            log_objective(utilities, [result.final_rates[u] for u in ordered])
            - log_objective(utilities, [reference[u] for u in ordered])
        )
        _check(failures, gap <= 1e-3, f"case {case}: log-objective gap {gap:.2e} (> 1e-3)")
    elapsed = time.perf_counter() - start
    _check(failures, elapsed <= 300.0, f"runtime {elapsed:.1f}s exceeds 5 minutes")
    _verdict(2, failures)


def test_criterion_3_subproblem_certification():
    failures = []
    rng = np.random.default_rng(31415)
    tol = 1e-6
    # 200 halvings of [1e-6, 100] is far beyond float64 resolution, so the
    # step cap can only fire on a broken bracket
    _check(failures, math.log2((CAPACITY - tol) / tol) < 200, "step budget implausible")
    step = 1e-4
    for case in range(500):
        if rng.random() < 0.5:
            u = SigmoidalUtility(
                a=float(rng.uniform(0.5, 16.0)), b=float(rng.uniform(2.0, 80.0))
            )
        else:
            u = LogarithmicUtility(k=float(10.0 ** rng.uniform(-2.0, 0.5)), r_max=CAPACITY)
        price = float(10.0 ** rng.uniform(-3.0, 1.0))
        try:
            rate = solve_rate(u, price, CAPACITY, tol=tol)
        except Exception as exc:  # any failure here is a certification failure
            failures.append(f"case {case}: solver raised {exc!r}")
            continue
        _check(failures, rate > 0.0, f"case {case}: non-positive rate {rate}")
        ref_rate = subproblem_argmax(u, price, CAPACITY, step)
        obj = float(u.log_value(rate)) - price * rate
        ref_obj = float(u.log_value(ref_rate)) - price * ref_rate
        _check(
            failures,
            obj >= ref_obj - 1e-6,
            f"case {case}: objective {obj:.9f} under grid optimum {ref_obj:.9f} by "
            f"more than 1e-6",
        )
    _verdict(3, failures)


def test_criterion_4_kkt_stationarity():
    failures = []
    scenario = replace(preset("fixed"), delta=1e-6, max_iterations=500)
    result = run(scenario)
    _check(
        failures,
        result.stop_reason == STOP_CONVERGED,
        "tight-delta run did not converge",
    )
    utilities = [u.initial_utility(CAPACITY) for u in scenario.users]
    for uid, rate in sorted(result.final_rates.items()):
        if rate >= CAPACITY:
            continue
        residual = abs(float(utilities[uid - 1].log_slope(rate)) - result.final_price)
        _check(
            failures,
            residual <= 1e-3,
            f"user {uid}: |marginal log-utility - price| = {residual:.2e} (> 1e-3)",
        )
    _verdict(4, failures)


def test_criterion_5_numerical_stability():
    failures = []
    rng = np.random.default_rng(2718)

    for _ in range(500):
        a = float(rng.uniform(0.1, 6.0))
        b = float(rng.uniform(0.1, 30.0 / a))
        u = SigmoidalUtility(a=a, b=b)
        r = float(rng.uniform(0.0, 3.0 * b))
        e_ab = math.exp(a * b)
        naive = ((1.0 + e_ab) / e_ab) * (
            1.0 / (1.0 + math.exp(-a * (r - b))) - 1.0 / (1.0 + e_ab)
        )
        stable = float(u.value(r))
        if naive > 1e-300:
            rel = abs(stable - naive) / naive
            _check(
                failures,
                rel <= 1e-12,
                f"stable vs naive form differ by rel {rel:.2e} at a={a}, b={b}, r={r}",
            )

    u = SigmoidalUtility(a=15.0, b=20.0)  # a*b = 300: naive form overflows
    vals = u.value(np.linspace(0.0, 100.0, 4001))
    _check(failures, bool(np.all(np.isfinite(vals))), "a*b=300 produced non-finite values")
    _check(
        failures,
        bool(np.all((vals >= 0.0) & (vals <= 1.0))),
        "a*b=300 values left [0, 1]",
    )

    h = 0.02
    for a, b in PRESET_SIGMOIDS:
        u = SigmoidalUtility(a=a, b=b)
        r = np.linspace(b / 10.0, 3.0 * b, 500)
        second = (u.log_value(r + h) - 2.0 * u.log_value(r) + u.log_value(r - h)) / h**2
        worst = float(np.max(second))
        _check(
            failures,
            worst <= 1e-8,
            f"log-concavity violated for ({a}, {b}): max second difference {worst:.2e}",
        )
    _verdict(5, failures)


def test_criterion_6_stochastic_regimes(tmp_path):
    failures = []
    supports = {
        4: (Triangular(13.0, 15.0, 17.0), Triangular(18.0, 20.0, 22.0)),
        5: (Triangular(8.0, 10.0, 12.0), Triangular(23.0, 25.0, 27.0)),
        6: (Triangular(3.0, 5.0, 7.0), Triangular(33.0, 35.0, 37.0)),
    }
    for name in ("normal", "triangular"):
        scenario = preset(name)
        results = run_replication(scenario, list(range(50)))
        for seed, result in zip(range(50), results):
            _check(
                failures,
                result.stop_reason == STOP_ITERATION_CAP and result.iterations == 20,
                f"{name} seed {seed}: did not run the full 20 iterations",
            )
            for rec in result.trace:
                if rec.price <= 0.0 or rec.rate <= 0.0 or rec.bid < 0.0:
                    failures.append(
                        f"{name} seed {seed}: invalid trace row at "
                        f"iteration {rec.iteration}, user {rec.user_id}"
                    )
                    break
                if name == "triangular" and rec.user_id in supports:
                    a_spec, b_spec = supports[rec.user_id]
                    if not (a_spec.lo <= rec.a <= a_spec.hi and b_spec.lo <= rec.b <= b_spec.hi):
                        failures.append(
                            f"triangular seed {seed}: sample ({rec.a}, {rec.b}) outside "
                            f"support at iteration {rec.iteration}, user {rec.user_id}"
                        )
                        break

    # gaussian three-sigma mass
    rng = stream_rng(8128, 0, 0)
    draws = np.array([sample(Normal(15.0, 2.0), rng) for _ in range(100_000)])
    inside = float(np.mean((draws >= 9.0) & (draws <= 21.0)))
    _check(failures, inside >= 0.995, f"3-sigma mass {inside:.4f} below 0.995")

    # byte-identical traces for identical seeds
    for name in ("normal", "triangular"):
        scenario = replace(preset(name), seed=7)
        first, second = tmp_path / f"{name}-a.csv", tmp_path / f"{name}-b.csv"
        emit_trace(run(scenario), first)
        emit_trace(run(scenario), second)
        _check(
            failures,
            first.read_bytes() == second.read_bytes(),
            f"{name}: same seed produced different trace files",
        )
    _verdict(6, failures)


def test_criterion_7_distribution_correctness():
    failures = []
    spec = Triangular(13.0, 15.0, 17.0)
    rng = stream_rng(1729, 0, 0)
    draws = np.array([sample(spec, rng) for _ in range(100_000)])
    dist = stats.triang(c=0.5, loc=13.0, scale=4.0)
    ks = float(stats.kstest(draws, dist.cdf).statistic)
    _check(failures, ks <= 0.01, f"KS statistic {ks:.4f} above 0.01")
    mean = float(draws.mean())
    _check(failures, abs(mean - 15.0) <= 0.02, f"empirical mean {mean:.4f} not 15 +- 0.02")
    _verdict(7, failures)


def test_criterion_8_seed_dispersion():
    failures = []
    normal_runs = run_replication(preset("normal"), list(range(50)))
    for uid in (4, 5, 6):
        spread = float(np.std([r.final_rates[uid] for r in normal_runs]))
        _check(
            failures,
            spread > 0.0,
            f"normal preset user {uid}: zero final-rate dispersion across seeds",
        )
    fixed_runs = run_replication(replace(preset("fixed"), max_iterations=60), list(range(50)))
    for uid in range(1, 7):
        finals = {r.final_rates[uid] for r in fixed_runs}
        # bit-identical finals <=> exactly zero standard deviation (np.std on
        # 50 identical floats reports ~1e-16 from pairwise-summation round-off)
        _check(
            failures,
            len(finals) == 1,
            f"fixed preset user {uid}: final rates differ across seeds: {sorted(finals)}",
        )
    _verdict(8, failures)
