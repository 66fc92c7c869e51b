"""Reference-solver tests: simplex grid search and subproblem argmax."""

import numpy as np
import pytest

from rateauction import (
    BudgetExceededError,
    GridSpec,
    LogarithmicUtility,
    SigmoidalUtility,
    centralized_argmax,
    log_objective,
    solve_rate,
    subproblem_argmax,
)
from rateauction.oracle import GridStepError


class TestCentralizedArgmax:
    def test_single_user_takes_capacity(self):
        out = centralized_argmax([LogarithmicUtility(k=1.0, r_max=10.0)], 10.0, GridSpec(1e-3))
        assert out == {1: 10.0}

    def test_identical_log_users_split_evenly(self):
        users = [LogarithmicUtility(k=0.5, r_max=100.0)] * 2
        out = centralized_argmax(users, 100.0, GridSpec(1e-3))
        assert out[1] == pytest.approx(50.0, abs=1e-3)
        assert out[2] == pytest.approx(50.0, abs=1e-3)

    def test_mixed_pair_stable_across_resolutions(self):
        users = [SigmoidalUtility(a=5.0, b=10.0), LogarithmicUtility(k=0.1, r_max=50.0)]
        coarse = centralized_argmax(users, 50.0, GridSpec(1e-2))
        fine = centralized_argmax(users, 50.0, GridSpec(1e-3))
        for uid in (1, 2):
            assert abs(coarse[uid] - fine[uid]) <= 2e-2

    def test_three_identical_log_users(self):
        users = [LogarithmicUtility(k=0.2, r_max=90.0)] * 3
        out = centralized_argmax(users, 90.0, GridSpec(5e-2))
        for uid in (1, 2, 3):
            assert out[uid] == pytest.approx(30.0, abs=5e-2)

    def test_rates_fill_capacity(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            m = int(rng.integers(2, 4))
            users = [
                LogarithmicUtility(k=float(rng.uniform(0.05, 1.0)), r_max=100.0)
                for _ in range(m)
            ]
            out = centralized_argmax(users, 100.0, GridSpec(5e-2))
            assert sum(out.values()) == pytest.approx(100.0, rel=1e-12)
            assert all(r > 0.0 for r in out.values())

    def test_grid_refinement_moves_at_most_one_step(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            users = [
                SigmoidalUtility(a=float(rng.uniform(2, 8)), b=float(rng.uniform(5, 25))),
                LogarithmicUtility(k=float(rng.uniform(0.05, 1.0)), r_max=100.0),
            ]
            coarse_step = 0.05
            coarse = centralized_argmax(users, 100.0, GridSpec(coarse_step))
            fine = centralized_argmax(users, 100.0, GridSpec(coarse_step / 2.0))
            for uid in coarse:
                assert abs(coarse[uid] - fine[uid]) <= coarse_step + 1e-12

    def test_log_space_matches_plain_product(self):
        rng = np.random.default_rng(71)
        users = [
            SigmoidalUtility(a=2.0, b=15.0),
            LogarithmicUtility(k=0.3, r_max=100.0),
            LogarithmicUtility(k=0.05, r_max=100.0),
        ]
        for _ in range(200):
            rates = rng.uniform(5.0, 50.0, size=3)
            product = float(np.prod([u.value(r) for u, r in zip(users, rates)]))
            if product > 1e-280:
                assert log_objective(users, rates) == pytest.approx(
                    float(np.log(product)), abs=1e-10
                )

    def test_budget_enforced(self):
        users = [LogarithmicUtility(k=1.0, r_max=100.0)] * 3
        with pytest.raises(BudgetExceededError):
            centralized_argmax(users, 100.0, GridSpec(step=1e-3, point_budget=10_000))
        with pytest.raises(BudgetExceededError):
            centralized_argmax([LogarithmicUtility(k=1.0, r_max=1.0)] * 4, 100.0, GridSpec(1e-2))

    @pytest.mark.parametrize("step", [1e-7, 1e-300, 5e-324])
    def test_tiny_step_refused_before_the_grid_is_built(self, step):
        # 1e-7 on two users would be a 1e9-point axis (8 GB); 5e-324 makes
        # capacity/step infinite
        users = [LogarithmicUtility(k=1.0, r_max=100.0)] * 2
        with pytest.raises(BudgetExceededError, match="per axis"):
            centralized_argmax(users, 100.0, GridSpec(step=step))


class TestSubproblemArgmax:
    def test_matches_solve_rate(self):
        rng = np.random.default_rng(73)
        step = 1e-3
        for _ in range(100):
            if rng.random() < 0.5:
                u = SigmoidalUtility(a=float(rng.uniform(1, 12)), b=float(rng.uniform(5, 50)))
            else:
                u = LogarithmicUtility(k=float(rng.uniform(0.02, 2.0)), r_max=100.0)
            price = float(10.0 ** rng.uniform(-3, 0.5))
            grid_best = subproblem_argmax(u, price, 100.0, GridSpec(step))
            solved = solve_rate(u, price, 100.0, tol=1e-9)
            assert abs(grid_best - solved) <= step

    def test_huge_price_pushes_to_smallest_point(self):
        u = LogarithmicUtility(k=1.0, r_max=100.0)
        grid = GridSpec(step=1e-2)
        assert subproblem_argmax(u, 1e6, 100.0, grid) == pytest.approx(1e-2, rel=1e-9)

    def test_low_price_clamps_to_capacity(self):
        u = LogarithmicUtility(k=0.1, r_max=100.0)
        price = float(u.log_slope(100.0))
        grid = GridSpec(step=1e-3)
        assert subproblem_argmax(u, price, 100.0, grid) == pytest.approx(100.0)
        assert subproblem_argmax(u, 0.5 * price, 100.0, grid) == pytest.approx(100.0)

    def test_budget_enforced(self):
        u = LogarithmicUtility(k=1.0, r_max=100.0)
        with pytest.raises(BudgetExceededError):
            subproblem_argmax(u, 1.0, 100.0, GridSpec(step=1e-4, point_budget=1000))
        with pytest.raises(BudgetExceededError, match="per axis"):
            subproblem_argmax(u, 1.0, 100.0, GridSpec(step=1e-300))

    def test_budget_boundary_is_exact(self):
        # capacity/step = 1000.4 rounds to a 1000-interval axis, within the budget
        u = LogarithmicUtility(k=1.0, r_max=100.0)
        best = subproblem_argmax(u, 1.0, 100.0, GridSpec(step=100.0 / 1000.4, point_budget=1000))
        assert 0.0 < best <= 100.0
        with pytest.raises(BudgetExceededError):
            subproblem_argmax(u, 1.0, 100.0, GridSpec(step=100.0 / 1000.6, point_budget=1000))


class TestGridIntervals:
    def test_fewer_than_two_intervals_refused(self):
        # capacity/step = 1.5 rounds to a 2-interval axis; just past it, 1
        u = LogarithmicUtility(k=1.0, r_max=3.0)
        assert subproblem_argmax(u, 1.0, 3.0, GridSpec(step=2.0)) == 1.5
        with pytest.raises(GridStepError, match="1 grid interval"):
            subproblem_argmax(u, 1.0, 3.0, GridSpec(step=2.0000001))

    def test_infinite_step_refused(self):
        users = [LogarithmicUtility(k=1.0, r_max=50.0)] * 2
        with pytest.raises(GridStepError, match="0 grid interval"):
            centralized_argmax(users, 50.0, GridSpec(step=float("inf")))
