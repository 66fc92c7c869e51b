"""UE subproblem tests: bisection solve, lane solve, and the single-round step."""

import copy
import warnings
from contextlib import ExitStack
from dataclasses import replace
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rateauction.ue
from rateauction import (
    BidLedger,
    BisectionError,
    LogarithmicUtility,
    RateDomainError,
    SigmoidalUtility,
    preset,
    run,
    solve_rate,
    ue_step,
)
from rateauction.ue import (
    LANE_BY_LANE_BELOW,
    LanePaths,
    _bisect_in_lockstep,
    _bisect_lane_by_lane,
    _walk,
    solve_lanes,
)
from rateauction.utility import (
    check_logarithmic_rate,
    check_sigmoid_rate,
    logarithmic_root,
    logarithmic_slope,
    sigmoid_slope,
)

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

    def test_tol_above_capacity_is_refused(self):
        # no bracket [tol, capacity]: the midpoint would lie above capacity
        with pytest.raises(ValueError, match="at most the capacity 100.0, got 300.0"):
            solve_rate(LogarithmicUtility(k=1.0, r_max=R), 0.5, R, tol=300.0)
        assert solve_rate(LogarithmicUtility(k=1.0, r_max=R), 0.5, R, tol=R) == R


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


# One UE: a sigmoidal (a, b) or a logarithmic k, and the price it sees.
# Prices down to 1e-12 leave some lanes clamped at the capacity.  A tenth
# of the lanes sit near a domain guard's threshold: a*r or k*r underflows
# at every rate (a = 1e-320), below r = 0.5 (k = 5e-324), below r = 0.022
# (a = 1e-306) or only below r = 2.5e-14 (k = 1e-310).
in_domain_users = st.one_of(
    st.tuples(st.just("sig"), log_uniform(-1.5, 1.5), log_uniform(-1, 3.5), log_uniform(-12, 3)),
    st.tuples(st.just("log"), log_uniform(-3, 2), st.none(), log_uniform(-12, 3)),
)
near_guard_users = st.one_of(
    st.tuples(st.just("sig"), st.sampled_from([1e-306, 1e-320]), log_uniform(-1, 3.5), log_uniform(-12, 3)),
    st.tuples(st.just("log"), st.sampled_from([1e-310, 5e-324]), st.none(), log_uniform(-12, 3)),
)
lane_users = st.integers(0, 9).flatmap(lambda i: near_guard_users if i == 0 else in_domain_users)


# How many times the drawn users are tiled: the lane counts land on both
# sides of LANE_BY_LANE_BELOW, so both walks against the estimated roots run.
tile_counts = st.integers(1, 6)

# Root estimates that steer the lane solve's first walk anywhere, or nowhere.
WRONG_ROOTS = [np.nan, 0.0, 1e-300, 1e300, np.inf, "random"]


def patch_roots(sigmoid=None, logarithmic=None) -> ExitStack:
    """Replace a family's root estimate in the lane solve, over arrays and
    over the lists of Python floats that solves of a few lanes take alike:
    ``root(*params, price)`` returns an array of one root per price."""
    stack = ExitStack()
    for family, root in (("sigmoid", sigmoid), ("logarithmic", logarithmic)):
        if root is None:
            continue

        def floats(*args, root=root):
            return root(*args).tolist()

        stack.enter_context(patch.object(rateauction.ue, f"{family}_root", root))
        stack.enter_context(patch.object(rateauction.ue, f"{family}_root_floats", floats))
    return stack


class TestSolveLanes:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        users=st.lists(lane_users, min_size=1, max_size=12),
        copies=tile_counts,
        capacity=log_uniform(0, 4),
        tol=log_uniform(-13, 0),
    )
    def test_every_lane_equals_solve_rate_bit_for_bit(self, users, copies, capacity, tol):
        self.assert_lanes_equal_solve_rate(users * copies, capacity, tol)

    @staticmethod
    def assert_lanes_equal_solve_rate(users, capacity, tol):
        # users arrive with the families in any order; the lanes hold the
        # sigmoid users first, then the logarithmic ones
        sig = [u for u in users if u[0] == "sig"]
        log = [u for u in users if u[0] == "log"]
        lanes = np.array([u[1] for u in sig]), np.array([u[2] for u in sig]), np.array([u[1] for u in log])
        price = np.array([u[3] for u in sig + log])
        utilities = [SigmoidalUtility(a=u[1], b=u[2]) for u in sig] + [
            LogarithmicUtility(k=u[1], r_max=capacity) for u in log
        ]
        want, failures = [], set()
        for u, p in zip(utilities, sig + log):
            try:
                want.append(solve_rate(u, p[3], capacity, tol))
            except (RateDomainError, BisectionError) as exc:
                failures.add(type(exc))
        if failures:
            # a slope undefined on some lane's path, else tol below the float
            # spacing near some root: the lanes raise the same, the domain
            # error before the step cap
            with pytest.raises(RateDomainError if RateDomainError in failures else BisectionError):
                solve_lanes(LanePaths(*lanes, capacity, tol), price)
            return
        got = solve_lanes(LanePaths(*lanes, capacity, tol), price)
        assert got.tobytes() == np.array(want).tobytes(), (got, want)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        users=st.lists(lane_users, min_size=1, max_size=12),
        copies=tile_counts,
        capacity=log_uniform(0, 4),
        tol=log_uniform(-13, 0),
        estimates=st.lists(st.sampled_from(WRONG_ROOTS), min_size=2, max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_root_estimate_gives_the_same_rates(self, users, copies, capacity, tol, estimates, seed):
        # the estimates only pick which midpoints the solve checks against
        # the slopes, so even useless ones leave every rate as it was
        rng = np.random.default_rng(seed)

        def wrong_root(kind):
            def root(*params_and_price):
                size = len(params_and_price[-1])
                if kind == "random":
                    return 10.0 ** rng.uniform(-15.0, 5.0, size)
                return np.full(size, kind)

            return root

        with patch_roots(wrong_root(estimates[0]), wrong_root(estimates[1])):
            self.assert_lanes_equal_solve_rate(users * copies, capacity, tol)

    def test_estimated_midpoints_outside_the_domain_are_not_guarded(self):
        # a*r underflows below r = 0.022 for a = 1e-306; the root lies near
        # r = 1, but an estimate of 1e-300 walks the bracket down towards
        # tol first.  Those midpoints are off the lane's path: the solve
        # neither raises nor warns for them.
        lanes = np.array([1e-306]), np.array([50.0]), np.empty(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with patch_roots(sigmoid=lambda a, b, price: np.full(len(price), 1e-300)):
                paths = LanePaths(*lanes, R)
                got = solve_lanes(paths, np.array([1.0]))
        assert paths.walked  # the estimate was wrong, and steered the walk
        assert got[0] == solve_rate(SigmoidalUtility(a=1e-306, b=50.0), 1.0, R)

    def test_slope_at_capacity_past_the_logistic_overflow_is_quiet(self):
        # a*(R - b) = 1200: the logistic term's exp overflows, and the term is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            paths = LanePaths(np.array([15.0]), np.array([20.0]), np.empty(0), R)
        assert paths.at_capacity[0] == SigmoidalUtility(15.0, 20.0).log_slope(R)

    @pytest.mark.parametrize("copies", [1, 2, 3])
    def test_a_few_lanes_estimate_their_roots_in_floats(self, copies):
        # the fixed preset's 3 sigmoid and 3 logarithmic users, tiled: below
        # LANE_BY_LANE_BELOW lanes the estimates take no numpy call
        floats = 6 * copies < LANE_BY_LANE_BELOW
        lanes = np.tile([15.0, 10.0, 5.0], copies), np.tile([20.0, 25.0, 35.0], copies), np.tile([1.0, 0.1, 0.02], copies)
        names = ("sigmoid_root", "logarithmic_root", "sigmoid_root_floats", "logarithmic_root_floats")
        with ExitStack() as stack:
            mocks = [stack.enter_context(patch.object(rateauction.ue, n, wraps=getattr(rateauction.ue, n))) for n in names]
            solve_lanes(LanePaths(*lanes, R), np.full(6 * copies, 0.05))
        assert [m.call_count for m in mocks] == [0, 0, 1, 1] if floats else [1, 1, 0, 0]

    def test_clamped_and_interior_lanes_side_by_side(self):
        u = LogarithmicUtility(k=0.1, r_max=R)
        binding = float(u.log_slope(R))
        paths = LanePaths(np.array([5.0]), np.array([35.0]), np.array([0.1, 0.1]), R)
        got = solve_lanes(paths, np.array([0.3, binding, 2.0 * binding]))
        assert got[1] == R
        assert got[2] < R
        assert got[0] == solve_rate(SigmoidalUtility(a=5.0, b=35.0), 0.3, R)

    def test_tol_above_capacity_is_refused(self):
        # the paths take capacity and tol once, and refuse them there
        with pytest.raises(ValueError, match="at most the capacity 100.0, got 300.0"):
            LanePaths(np.empty(0), np.empty(0), np.ones(1), R, 300.0)
        assert solve_lanes(LanePaths(np.empty(0), np.empty(0), np.ones(1), R, R), np.array([0.5]))[0] == R

    def test_step_cap_raises(self):
        # tol below the float spacing at R: no bracket can get that narrow
        with pytest.raises(BisectionError, match="200 bisection steps"):
            solve_lanes(LanePaths(np.array([15.0]), np.array([20.0]), np.array([1.0]), R, 1e-20), np.full(2, 1.0))

    def test_guard_failing_only_at_deep_midpoints_raises(self):
        # a*r underflows below r = 0.022 for a = 1e-306: the guard passes at
        # R and at the walk's first levels, and fails about 13 levels down,
        # on the way to the root near 1e-5; the walk's divisions by a
        # subnormal warn nothing, and the solve leaves no paths
        lanes = np.array([1e-306]), np.array([50.0]), np.empty(0)
        paths = LanePaths(*lanes, R)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solve_lanes(paths, np.array([1.0]))[0] < R
            with pytest.raises(RateDomainError, match="a\\*r underflows"):
                solve_lanes(paths, np.array([1e5]))
            self.assert_solves_as_new(paths, lanes, np.array([1.0]))
        with pytest.raises(RateDomainError):
            solve_rate(SigmoidalUtility(a=1e-306, b=50.0), 1e5, R)

    @staticmethod
    def assert_solves_as_new(paths, lanes, price):
        # after a solve that raised, the paths solve as new ones, replaying nothing
        again = solve_lanes(paths, price)
        assert again.tobytes() == solve_lanes(LanePaths(*lanes, R), price).tobytes()
        assert paths.compared == 0

    def test_guard_covers_the_slope_walk(self):
        # an estimate of 1e300 sends the first decision up, and the slope at
        # R/2 sends it down: every level below walks by the slopes, and
        # reaches r below 0.022, where a*r underflows for a = 1e-306
        lanes = np.array([1e-306]), np.array([50.0]), np.empty(0)
        paths = LanePaths(*lanes, R)
        with patch_roots(sigmoid=lambda a, b, price: np.full(len(price), 1e300)):
            with pytest.raises(RateDomainError, match="a\\*r underflows"):
                solve_lanes(paths, np.array([1e5]))
        self.assert_solves_as_new(paths, lanes, np.array([1.0]))

    def test_guard_comes_before_the_step_cap(self):
        # the sigmoid lane's root lies where the float spacing exceeds tol,
        # so it would walk into the step cap; the log lane's k*r underflows
        # about 50 levels down, where a guarded walk stops
        lanes = np.array([15.0]), np.array([20.0]), np.array([1e-310])
        with pytest.raises(RateDomainError, match="k\\*r underflows"):
            solve_lanes(LanePaths(*lanes, R, 1e-20), np.array([1.0, 1e15]))

    def test_lanes_passing_their_guards_at_tol_are_guarded_once(self):
        # every rate a solve visits is at least tol: the fixed preset's 87
        # rounds at delta 1e-6 run each family's guard once, at tol, and
        # never over a path
        rates = []

        def counted(check):
            def guard(param, r):
                rates.append(r)
                check(param, r)

            return guard

        with (
            patch.object(rateauction.ue, "check_sigmoid_rate", counted(check_sigmoid_rate)),
            patch.object(rateauction.ue, "check_logarithmic_rate", counted(check_logarithmic_rate)),
        ):
            run(replace(preset("fixed"), delta=1e-6, max_iterations=200))
        assert rates == [TOL, TOL]


# One round of price moves: every price drifts by a relative 1e-9 to 1 in
# either direction, a share of the lanes jumps by up to 1e±6 (across the
# clamp, often), a share of the lanes leaves before the round, and a share
# redraws its parameters.
price_rounds = st.lists(
    st.tuples(
        log_uniform(-9, 0),
        st.sampled_from([0.0, 0.0, 0.25, 1.0]),
        st.sampled_from([0.0, 0.0, 0.3]),
        st.sampled_from([0.0, 0.0, 0.0, 0.5]),
        st.integers(0, 2**32 - 1),  # picks the lanes and the directions
    ),
    min_size=10,
    max_size=14,
)


class TestLanePaths:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        users=st.lists(lane_users, min_size=1, max_size=8),
        copies=tile_counts,
        capacity=log_uniform(0, 4),
        tol=log_uniform(-13, 0),
        rounds=price_rounds,
    )
    def test_every_round_equals_a_solve_without_paths(self, users, copies, capacity, tol, rounds):
        users = users * copies
        sig = [u for u in users if u[0] == "sig"]
        log = [u for u in users if u[0] == "log"]
        a, b = np.array([u[1] for u in sig]), np.array([u[2] for u in sig])
        k = np.array([u[1] for u in log])
        price = np.array([u[3] for u in sig + log])
        paths = None  # built where the lanes' parameters are new
        for drift, jump, drop, redraw, seed in rounds:
            rng = np.random.default_rng(seed)
            gone = rng.random(len(price)) < drop
            if not gone.all():
                if np.count_nonzero(gone):
                    paths = None  # as the engine does when runs leave its batch
                a, b, k, price = a[~gone[: len(a)]], b[~gone[: len(a)]], k[~gone[len(a) :]], price[~gone]
            price = price * np.exp(drift * rng.choice([-1.0, 1.0], len(price)))
            jumps = rng.random(len(price)) < jump
            price[jumps] *= 10.0 ** rng.uniform(-6.0, 6.0, np.count_nonzero(jumps))
            fresh = rng.random(len(price)) < redraw
            if np.count_nonzero(fresh):
                # fresh parameters in in_domain_users' ranges; half the redrawn
                # lanes get a price between their old and new slopes at
                # capacity (which can underflow to 0, or overflow where a*r
                # does), so exactly one of the two parameter sets clamps
                # them.  The old paths belong to the old parameters.
                old = self.capacity_slopes(a, b, k, capacity)
                a = np.where(fresh[: len(a)], 10.0 ** rng.uniform(-1.5, 1.5, len(a)), a)
                b = np.where(fresh[: len(a)], 10.0 ** rng.uniform(-1.0, 3.5, len(a)), b)
                k = np.where(fresh[len(a) :], 10.0 ** rng.uniform(-3.0, 2.0, len(k)), k)
                between = 0.5 * (old + self.capacity_slopes(a, b, k, capacity))
                across = fresh & (rng.random(len(price)) < 0.5) & (between > 0.0) & np.isfinite(between)
                price[across] = between[across]
                paths = None
            try:
                want = solve_lanes(LanePaths(a, b, k, capacity, tol), price)
            except (RateDomainError, BisectionError) as exc:
                # a slope undefined on some lane's path, or tol below the
                # float spacing near some root: the same error must come in
                # the same round with the paths
                with pytest.raises(type(exc)):
                    solve_lanes(paths or LanePaths(a, b, k, capacity, tol), price)
                return
            paths = paths or LanePaths(a, b, k, capacity, tol)
            got = solve_lanes(paths, price)
            assert got.tobytes() == want.tobytes(), (got, want)

    @staticmethod
    def capacity_slopes(a, b, k, capacity):
        # the first round redraws before any solve has guarded the lanes: a
        # slope undefined at capacity comes out infinite
        with np.errstate(divide="ignore", over="ignore"):
            return np.concatenate((sigmoid_slope(a, -a, b, capacity), logarithmic_slope(k, capacity)))

    def test_lane_leaving_the_clamp_gets_every_step(self):
        # both roots need 190 of the 200 steps; lane 1, clamped in the first
        # round, has no path, so the walk must start again from level 0
        k, none = np.array([1.0, 1.0]), np.empty(0)
        paths = LanePaths(none, none, k, 1e4, 1e-53)
        first = solve_lanes(paths, np.array([1e40, 1e-12]))
        assert first[1] == 1e4
        price = np.array([1e40 * (1 + 1e-15), 1e45])
        want = solve_lanes(LanePaths(none, none, k, 1e4, 1e-53), price)
        assert solve_lanes(paths, price).tobytes() == want.tobytes()
        assert paths.walked + paths.predicted == 190

    def test_paths_of_other_lanes_are_refused(self):
        paths = LanePaths(np.array([5.0]), np.array([35.0]), np.array([0.1]), R)
        solve_lanes(paths, np.full(2, 0.3))
        with pytest.raises(ValueError, match="paths hold 2 lanes, the solve has 3"):
            solve_lanes(paths, np.full(3, 0.3))


# Logarithmic lanes (k = 1) whose brackets round to tol one level apart:
# (capacity, tol, prices), and the stop levels are 3 and 4, 28 and 29, 26
# and 27.  The walk halves the first lane past its stop.
UNEVEN_STOPS = [
    (1.0, 0.1111111111111111, (1.0, 3.0)),
    (100.0, 3.725290284584126e-07, (0.01, 0.3)),
    (10.0, 1.4901160971803054e-07, (0.3, 0.05)),
]


class TestUnevenStops:
    @staticmethod
    def solve_rates(capacity, tol, prices):
        return np.array([solve_rate(LogarithmicUtility(k=1.0, r_max=capacity), p, capacity, tol) for p in prices])

    @pytest.mark.parametrize("capacity, tol, prices", UNEVEN_STOPS)
    def test_each_lane_takes_its_own_stop(self, capacity, tol, prices):
        none = np.empty(0)
        lanes = none, none, np.array([1.0, 1.0])
        want = self.solve_rates(capacity, tol, prices)
        paths = LanePaths(*lanes, capacity, tol)
        assert solve_lanes(paths, np.array(prices)).tobytes() == want.tobytes()
        stops = np.count_nonzero(paths.on[: paths.top], axis=0)
        assert abs(int(stops[0]) - int(stops[1])) == 1
        swapped = solve_lanes(paths, np.array(prices[::-1]))
        assert swapped.tobytes() == want[::-1].tobytes()

    def test_a_walk_past_every_stop(self):
        # log2(capacity - tol) - log2(tol) rounds to just above 18, so the
        # walk takes 19 levels, while the lane stops at level 18
        capacity, tol, price = 0.9648064809633523, 3.6804306050586654e-06, 0.7699745596976851
        paths = LanePaths(np.empty(0), np.empty(0), np.ones(1), capacity, tol)
        got = solve_lanes(paths, np.array([price]))
        assert got.tobytes() == self.solve_rates(capacity, tol, [price]).tobytes()
        assert paths.top == paths.predicted == 18

    @pytest.mark.parametrize("capacity, tol, prices", UNEVEN_STOPS)
    def test_a_clamped_lane_beside_them(self, capacity, tol, prices):
        # the third lane walked a path in the first solve, and is clamped in
        # the second, with the other two prices swapped
        lanes = np.empty(0), np.empty(0), np.ones(3)
        prices = (*prices, 1e-12)
        want = self.solve_rates(capacity, tol, prices)
        assert solve_lanes(LanePaths(*lanes, capacity, tol), np.array(prices)).tobytes() == want.tobytes()
        paths = LanePaths(*lanes, capacity, tol)
        solve_lanes(paths, np.array([*prices[:2], 1.0]))
        got = solve_lanes(paths, np.array([prices[1], prices[0], prices[2]]))
        assert got.tobytes() == want[[1, 0, 2]].tobytes()
        assert got[2] == capacity


# Root estimates anywhere around the bracket, the ones no bracket holds, and
# the first midpoint itself, where mid <= root holds with equality.
walk_roots = log_uniform(-15, 5) | st.sampled_from([np.nan, np.inf, -np.inf, 0.0, "first midpoint"])
# (capacity, tol), tol below capacity/2 so that level 0 has a lane to walk:
# anywhere; the uneven stops'; and tols below the float spacing at the
# roots, subnormal ones included, which walk to the step cap
walk_brackets = (
    st.tuples(log_uniform(0, 4), log_uniform(-13, -0.5))
    | st.sampled_from([(capacity, tol) for capacity, tol, _ in UNEVEN_STOPS])
    | st.tuples(log_uniform(0, 4), st.sampled_from([1e-20, 1e-310, 5e-324]))
)


class TestLaneByLaneWalk:
    """Below ``LANE_BY_LANE_BELOW`` lanes, the solve walks its estimated
    paths one lane at a time in Python floats.  From the same paths, bracket
    and level, that walk and the lockstep one write the same midpoints,
    widths, ``on`` rows and bracket, and end at the same levels."""

    @staticmethod
    def assert_walks_agree(roots, clamped, capacity, tol, start):
        roots = np.array([(tol + capacity) * 0.5 if r == "first midpoint" else r for r in roots], dtype=float)
        first = np.where(clamped, capacity, np.array([[tol], [capacity]]))
        paths = LanePaths(np.empty(0), np.empty(0), np.ones(len(roots)), capacity, tol)

        def by_root(_, mid, ups):
            np.less_equal(mid, roots, out=ups)

        # down to level start, or from level 0 if every lane is within tol there
        bracket = first.copy()
        _bisect_in_lockstep(paths, bracket, by_root, 0, start)
        if not np.count_nonzero(bracket[1] - bracket[0] > tol):
            start, bracket = 0, first
        assert np.count_nonzero(np.subtract(bracket[1], bracket[0], out=paths.widths[start]) > tol)
        lane_by_lane, lane_bracket = copy.deepcopy(paths), bracket.copy()
        tol = np.array(tol)
        want = _walk(paths, start, tol, partial(_bisect_in_lockstep, paths, bracket, by_root))
        got = _walk(lane_by_lane, start, tol, partial(_bisect_lane_by_lane, lane_by_lane, lane_bracket, roots.tolist()))
        assert got == want
        for name in ("mids", "widths", "on"):
            assert getattr(lane_by_lane, name).tobytes() == getattr(paths, name).tobytes(), name
        assert lane_bracket.tobytes() == bracket.tobytes()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        lanes=st.lists(st.tuples(walk_roots, st.sampled_from([False, False, False, True])), min_size=1, max_size=12),
        bracket=walk_brackets,
        start=st.integers(0, 40),
    )
    def test_both_walks_write_the_same_rows(self, lanes, bracket, start):
        roots, clamped = zip(*lanes)
        # the first lane walks
        self.assert_walks_agree(roots, np.array([False, *clamped[1:]]), *bracket, start)

    @pytest.mark.parametrize(
        "capacity, tol, prices", [*UNEVEN_STOPS, (0.9648064809633523, 3.6804306050586654e-06, (0.7699745596976851,))]
    )
    def test_stops_one_level_apart(self, capacity, tol, prices):
        # TestUnevenStops' lanes at their own roots: rounding stops each pair
        # one level apart, and the lone lane's walk ends one level past its stop
        roots = logarithmic_root(np.ones(len(prices)), np.array(prices))
        self.assert_walks_agree(roots, np.zeros(len(prices), dtype=bool), capacity, tol, 0)


class TestSlopeCalls:
    """A solve with paths takes no slope a path has recorded: replayed
    levels reuse the recorded slopes, and the clamp test the slopes at
    capacity taken when the paths were built.  The lane solve evaluates
    slopes through the unguarded kernels only."""

    @staticmethod
    def count_calls(monkeypatch) -> dict[str, int]:
        calls = {"sigmoid_slope": 0, "logarithmic_slope": 0}
        for name in calls:
            def counted(*args, _name=name, _slope=getattr(rateauction.ue, name), **kwargs):
                calls[_name] += 1
                return _slope(*args, **kwargs)

            monkeypatch.setattr(rateauction.ue, name, counted)
        return calls

    def test_a_repeated_solve_takes_no_slope(self, monkeypatch):
        lanes = np.array([15.0, 5.0]), np.array([20.0, 35.0]), np.array([0.1, 1.0])
        price = np.array([0.3, 0.05, 0.02, 1e-9])  # the last lane is clamped
        paths = LanePaths(*lanes, R)
        first = solve_lanes(paths, price)
        calls = self.count_calls(monkeypatch)
        again = solve_lanes(paths, price)
        assert calls == {"sigmoid_slope": 0, "logarithmic_slope": 0}
        assert again.tobytes() == first.tobytes()
        assert again[3] == R

    def test_fixed_preset_takes_each_walked_slope_once(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        run(replace(preset("fixed"), delta=1e-6, max_iterations=200))
        # the first round's clamp test, and one call per round over the
        # levels each of the 87 rounds walked against the estimated roots
        assert calls == {"sigmoid_slope": 88, "logarithmic_slope": 88}


class TestComputeBid:
    """The bid rule w = price * rate, as ``ue_step`` answers a price."""

    def test_direct_product(self):
        u = SigmoidalUtility(a=5.0, b=35.0)
        rate, bid = ue_step(u, 0.3, R)
        assert bid == 0.3 * rate

    def test_round_trips_with_allocation(self):
        # the station's allocation bid/price recovers every solved rate
        rng = np.random.default_rng(43)
        for _ in range(40):
            price = float(10.0 ** rng.uniform(-3.0, 0.5))
            answers = [ue_step(random_case(rng)[0], price, R) for _ in range(5)]
            ledger = BidLedger(R, 1e-2)
            ledger.ingest([[bid for _, bid in answers]])
            allocated = ledger.allocate_rates([price])[0].tolist()
            for allocated_rate, (rate, _) in zip(allocated, answers):
                assert allocated_rate == pytest.approx(rate, rel=1e-15)

    def test_rejects_bad_inputs(self):
        u = LogarithmicUtility(k=1.0, r_max=R)
        with pytest.raises(ValueError):
            ue_step(u, 0.0, R)
        with pytest.raises(ValueError):
            ue_step(u, -1.0, R)


class TestUeStep:
    def test_chains_solve_and_bid(self):
        u = LogarithmicUtility(k=1.0, r_max=R)
        rate, bid = ue_step(u, LOG_SLOPE_K1_R10, R)
        assert rate == solve_rate(u, LOG_SLOPE_K1_R10, R, tol=1e-6)
        assert rate == pytest.approx(10.0, abs=1e-4)
        assert bid == LOG_SLOPE_K1_R10 * rate
        assert bid / LOG_SLOPE_K1_R10 == rate

    def test_deterministic(self):
        u = SigmoidalUtility(a=10.0, b=25.0)
        assert ue_step(u, 0.2, R) == ue_step(u, 0.2, R)

    def test_halving_price_increases_rate(self):
        rng = np.random.default_rng(47)
        for _ in range(100):
            u, price = random_case(rng)
            if solve_rate(u, price, R) == R:
                continue  # already clamped; halving cannot increase further
            r1, _ = ue_step(u, price, R)
            r2, _ = ue_step(u, price / 2.0, R)
            assert r2 > r1
            ref, _ = grid_argmax(u, price / 2.0, R, step=1e-3)
            assert r2 == pytest.approx(ref, abs=2e-3)
