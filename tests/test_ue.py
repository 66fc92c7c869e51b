"""UE subproblem tests: bisection solve, bids, and the single-round step."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rateauction import (
    BidMessage,
    BisectionError,
    LogarithmicUtility,
    PriceUpdate,
    SigmoidalUtility,
    UserState,
    compute_bid,
    solve_rate,
    ue_step,
)
from rateauction.ue import solve_lanes

LOG_SLOPE_K1_R10 = 0.0379120355840223937  # 1/(11 ln 11)

R = 100.0
TOL = 1e-6


def grid_argmax(utility, price, capacity, step=1e-4):
    """Independent dense-grid maximizer of log U(r) - price*r."""
    r = np.arange(step, capacity + step / 2, step)
    with np.errstate(divide="ignore"):
        obj = np.asarray(utility.log_value(r)) - price * r
    return float(r[int(np.argmax(obj))]), float(np.max(obj))


def random_case(rng):
    if rng.random() < 0.5:
        u = SigmoidalUtility(a=rng.uniform(1.0, 16.0), b=rng.uniform(5.0, 60.0))
    else:
        u = LogarithmicUtility(k=rng.uniform(0.02, 2.0), r_max=R)
    price = float(10.0 ** rng.uniform(-3.0, 0.5))
    return u, price


class TestSolveRate:
    def test_inverts_log_slope_of_log_user(self):
        u = LogarithmicUtility(k=1.0, r_max=100.0)
        r = solve_rate(u, LOG_SLOPE_K1_R10, R, tol=1e-6)
        assert r == pytest.approx(10.0, abs=1e-4)

    def test_inverts_log_slope_of_sigmoid_user(self):
        u = SigmoidalUtility(a=5.0, b=35.0)
        price = float(u.log_slope(40.0))
        r = solve_rate(u, price, R, tol=1e-6)
        assert r == pytest.approx(40.0, abs=1e-4)
        ref, _ = grid_argmax(u, price, R)
        assert r == pytest.approx(ref, abs=1e-4)

    def test_clamps_at_capacity_when_price_low(self):
        u = LogarithmicUtility(k=0.1, r_max=100.0)
        binding = float(u.log_slope(R))
        assert solve_rate(u, 0.5 * binding, R) == R
        assert solve_rate(u, binding, R) == R  # tie goes to the clamp

    def test_perturbation_does_not_improve_objective(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            u, price = random_case(rng)
            r = solve_rate(u, price, R, tol=TOL)
            obj = float(u.log_value(r)) - price * r
            for shift in (-10 * TOL, 10 * TOL):
                if 0.0 < r + shift <= R:
                    other = float(u.log_value(r + shift)) - price * (r + shift)
                    assert other <= obj + 1e-12

    def test_objective_matches_grid_maximum(self):
        rng = np.random.default_rng(37)
        for _ in range(150):
            u, price = random_case(rng)
            r = solve_rate(u, price, R, tol=TOL)
            assert r > 0.0
            obj = float(u.log_value(r)) - price * r
            _, ref_obj = grid_argmax(u, price, R)
            assert obj >= ref_obj - 1e-6

    def test_rate_positive_even_at_huge_price(self):
        for u in (SigmoidalUtility(a=15.0, b=20.0), LogarithmicUtility(k=1.0, r_max=R)):
            r = solve_rate(u, 1e6, R, tol=TOL)
            assert 0.0 < r < 1e-2

    def test_monotone_in_price(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            u, _ = random_case(rng)
            prices = np.sort(10.0 ** rng.uniform(-3.0, 0.5, size=5))
            rates = [solve_rate(u, float(p), R, tol=TOL) for p in prices]
            assert all(r1 >= r2 for r1, r2 in zip(rates, rates[1:]))

    def test_input_validation(self):
        u = LogarithmicUtility(k=1.0, r_max=R)
        with pytest.raises(ValueError):
            solve_rate(u, 0.0, R)
        with pytest.raises(ValueError):
            solve_rate(u, 1.0, 0.0)
        with pytest.raises(ValueError):
            solve_rate(u, 1.0, R, tol=0.0)


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


# One UE: a sigmoidal (a, b) or a logarithmic k, and the price it sees.
# Prices down to 1e-12 leave some lanes clamped at the capacity.
lane_users = st.one_of(
    st.tuples(st.just("sig"), log_uniform(-1.5, 1.5), log_uniform(-1, 3.5), log_uniform(-12, 3)),
    st.tuples(st.just("log"), log_uniform(-3, 2), st.none(), log_uniform(-12, 3)),
)


class TestSolveLanes:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        users=st.lists(lane_users, min_size=1, max_size=12),
        capacity=log_uniform(0, 4),
        tol=log_uniform(-13, 0),
    )
    def test_every_lane_equals_solve_rate_bit_for_bit(self, users, capacity, tol):
        # users arrive with the families in any order; the lanes hold the
        # sigmoid users first, then the logarithmic ones
        sig = [u for u in users if u[0] == "sig"]
        log = [u for u in users if u[0] == "log"]
        lanes = (
            np.array([u[1] for u in sig]),
            np.array([u[2] for u in sig]),
            np.array([u[1] for u in log]),
            np.array([u[3] for u in sig + log]),
            capacity,
            tol,
        )
        utilities = [SigmoidalUtility(a=u[1], b=u[2]) for u in sig] + [
            LogarithmicUtility(k=u[1], r_max=capacity) for u in log
        ]
        try:
            want = [solve_rate(u, p[3], capacity, tol) for u, p in zip(utilities, sig + log)]
        except BisectionError:
            # tol below the float spacing near some root: the cap must fire
            # in the lanes too
            with pytest.raises(BisectionError):
                solve_lanes(*lanes)
            return
        got = solve_lanes(*lanes)
        assert got.tobytes() == np.array(want).tobytes(), (got, want)

    def test_clamped_and_interior_lanes_side_by_side(self):
        u = LogarithmicUtility(k=0.1, r_max=R)
        binding = float(u.log_slope(R))
        got = solve_lanes(np.array([5.0]), np.array([35.0]), np.array([0.1, 0.1]),
                          np.array([0.3, binding, 2.0 * binding]), R)
        assert got[1] == R
        assert got[2] < R
        assert got[0] == solve_rate(SigmoidalUtility(a=5.0, b=35.0), 0.3, R)

    def test_step_cap_raises(self):
        # tol below the float spacing at R: no bracket can get that narrow
        with pytest.raises(BisectionError, match="200 bisection steps"):
            solve_lanes(np.array([15.0]), np.array([20.0]), np.array([1.0]), np.full(2, 1.0), R, 1e-20)


class TestComputeBid:
    def test_direct_product(self):
        assert compute_bid(0.5, 20.0) == 10.0

    def test_zero_rate_bids_zero(self):
        assert compute_bid(0.6, 0.0) == 0.0

    def test_round_trips_with_allocation(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            price = float(10.0 ** rng.uniform(-4, 2))
            rate = float(rng.uniform(0.0, 100.0))
            assert compute_bid(price, rate) / price == pytest.approx(rate, rel=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            compute_bid(0.0, 1.0)
        with pytest.raises(ValueError):
            compute_bid(1.0, -1.0)


class TestUeStep:
    def test_chains_solve_and_bid(self):
        state = UserState(user_id=1, utility=LogarithmicUtility(k=1.0, r_max=R))
        msg = PriceUpdate(iteration=1, price=LOG_SLOPE_K1_R10)
        new_state, bid = ue_step(state, msg, R, tol=1e-6)
        assert new_state.last_rate == pytest.approx(10.0, abs=1e-4)
        assert bid == BidMessage(user_id=1, bid=new_state.last_bid)
        assert new_state.last_bid == pytest.approx(LOG_SLOPE_K1_R10 * 10.0, rel=1e-4)

    def test_deterministic(self):
        state = UserState(user_id=3, utility=SigmoidalUtility(a=10.0, b=25.0))
        msg = PriceUpdate(iteration=5, price=0.2)
        assert ue_step(state, msg, R) == ue_step(state, msg, R)

    def test_halving_price_increases_rate(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            u, price = random_case(rng)
            if solve_rate(u, price, R) == R:
                continue  # already clamped; halving cannot increase further
            state = UserState(user_id=1, utility=u)
            s1, _ = ue_step(state, PriceUpdate(1, price), R)
            s2, _ = ue_step(state, PriceUpdate(2, price / 2.0), R)
            assert s2.last_rate > s1.last_rate
            ref, _ = grid_argmax(u, price / 2.0, R, step=1e-3)
            assert s2.last_rate == pytest.approx(ref, abs=2e-3)

    def test_keeps_identity_and_utility(self):
        u = SigmoidalUtility(a=5.0, b=35.0)
        state = UserState(user_id=9, utility=u, last_rate=1.0, last_bid=2.0)
        new_state, msg = ue_step(state, PriceUpdate(1, 0.3), R)
        assert new_state.user_id == 9
        assert new_state.utility is u
        assert msg.user_id == 9
