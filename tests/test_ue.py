"""UE subproblem tests: bisection solve, lane solve, and the single-round step."""

import math
import sys
import warnings
from contextlib import ExitStack
from dataclasses import replace
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
    SigmoidalUserSpec,
    SigmoidalUtility,
    preset,
    run,
    solve_rate,
    ue_step,
)
from rateauction.ue import (
    LANE_BY_LANE_BELOW,
    TABLE_LEVELS,
    LanePaths,
    _leaves,
    _look_up,
    _walk,
    midpoint_table,
    solve_lanes,
)
from rateauction.utility import (
    SMALLEST_NORMAL,
    check_logarithmic_rate,
    check_sigmoid_rate,
    logarithmic_slope,
    sigmoid_root,
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
# sides of LANE_BY_LANE_BELOW, so both the few-lane solve and the lockstep
# one run.
tile_counts = st.integers(1, 12)

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

    @pytest.mark.parametrize("copies", [1, LANE_BY_LANE_BELOW])
    def test_estimated_midpoints_outside_the_domain_are_not_guarded(self, copies):
        # a*r underflows below r = 0.022 for a = 1e-306; the root lies near
        # r = 1, but an estimate of 1e-300 walks the bracket down towards
        # tol first.  Those midpoints are off the lane's path: the solve,
        # in floats or in lockstep, neither raises nor warns for them.
        lanes = np.full(copies, 1e-306), np.full(copies, 50.0), np.empty(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with patch_roots(sigmoid=lambda a, b, price: np.full(len(price), 1e-300)):
                paths = LanePaths(*lanes, R)
                got = solve_lanes(paths, np.ones(copies))
        assert paths.resolved == copies  # the estimates were wrong: solve_rate solved the lanes
        assert (got == solve_rate(SigmoidalUtility(a=1e-306, b=50.0), 1.0, R)).all()

    def test_slope_at_capacity_past_the_logistic_overflow_is_quiet(self):
        # a*(R - b) = 1200: the logistic term's exp overflows, and the term is 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            paths = LanePaths(np.array([15.0]), np.array([20.0]), np.empty(0), R)
        assert paths.at_capacity[0] == SigmoidalUtility(15.0, 20.0).log_slope(R)

    @pytest.mark.parametrize("copies", [1, 2, 3, 4, LANE_BY_LANE_BELOW // 6 + 1])
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
        # after a solve that raised, the paths solve as new ones
        again = solve_lanes(paths, price)
        assert again.tobytes() == solve_lanes(LanePaths(*lanes, R), price).tobytes()

    @pytest.mark.parametrize("copies", [1, LANE_BY_LANE_BELOW])
    def test_guard_covers_a_lane_solved_again(self, copies):
        # an estimate of 1e300 sends the first decision up, and the slope at
        # R/2 sends it down: solve_rate solves the lane again, and reaches r
        # below 0.022, where a*r underflows for a = 1e-306; in floats and in
        # lockstep alike
        lanes = np.full(copies, 1e-306), np.full(copies, 50.0), np.empty(0)
        paths = LanePaths(*lanes, R)
        with patch_roots(sigmoid=lambda a, b, price: np.full(len(price), 1e300)):
            with pytest.raises(RateDomainError, match="a\\*r underflows"):
                solve_lanes(paths, np.full(copies, 1e5))
        self.assert_solves_as_new(paths, lanes, np.full(copies, 1.0))

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

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        data=st.data(),
        users=st.lists(lane_users, min_size=1, max_size=8),
        copies=tile_counts,
        capacity=log_uniform(0, 4),
        tol=log_uniform(-13, 0),
    )
    def test_setting_the_sigmoid_half_equals_a_new_build(self, data, users, copies, capacity, tol):
        # a tenth of the new a fail their guard at tol (1e-306) or at every
        # rate (1e-320), as lane_users' do
        users = users * copies
        sig = [u for u in users if u[0] == "sig"]
        log = [u for u in users if u[0] == "log"]
        k, price = np.array([u[1] for u in log]), np.array([u[3] for u in sig + log])
        fresh = data.draw(st.lists(st.tuples(st.sampled_from([1e-306, 1e-320]) | log_uniform(-1.5, 1.5),
                                             log_uniform(-1, 3.5)), min_size=len(sig), max_size=len(sig)))
        a, b = np.array(fresh).reshape(-1, 2).T
        try:
            paths = LanePaths(np.array([u[1] for u in sig]), np.array([u[2] for u in sig]), k, capacity, tol)
            solve_lanes(paths, price)
        except (RateDomainError, BisectionError):
            return  # the old parameters' own failure
        try:
            want = LanePaths(a, b, k, capacity, tol)
        except RateDomainError:
            # a guard failing at capacity: the same error, and the paths as they were
            before = [x.tobytes() for x in (paths.a, paths.neg_a, paths.b, paths.at_capacity)], paths.screened
            with pytest.raises(RateDomainError):
                paths.set_sigmoid(a, b)
            assert ([x.tobytes() for x in (paths.a, paths.neg_a, paths.b, paths.at_capacity)], paths.screened) == before
            return
        paths.set_sigmoid(a, b)
        assert paths.at_capacity.tobytes() == want.at_capacity.tobytes()
        assert paths.screened == want.screened
        for got_paths in (paths, want):
            assert got_paths.a.tobytes() == a.tobytes() and got_paths.neg_a.tobytes() == (-a).tobytes()
        try:
            rates = solve_lanes(want, price)
        except (RateDomainError, BisectionError) as exc:
            with pytest.raises(type(exc)):
                solve_lanes(paths, price)
            return
        assert solve_lanes(paths, price).tobytes() == rates.tobytes()

    def test_a_set_failing_at_tol_screens_the_paths(self):
        # a = 1e-306 fails the guard at tol only: the next solve guards the paths
        paths = LanePaths(np.array([15.0]), np.array([20.0]), np.array([1.0]), R)
        assert paths.screened
        paths.set_sigmoid(np.array([1e-306]), np.array([50.0]))
        assert not paths.screened
        with pytest.raises(RateDomainError, match="a\\*r underflows"):
            solve_lanes(paths, np.array([1e5, 1.0]))
        paths.set_sigmoid(np.array([15.0]), np.array([20.0]))
        assert paths.screened
        assert solve_lanes(paths, np.array([0.3, 0.02])).tobytes() == solve_lanes(
            LanePaths(np.array([15.0]), np.array([20.0]), np.array([1.0]), R), np.array([0.3, 0.02])).tobytes()

    @staticmethod
    def capacity_slopes(a, b, k, capacity):
        # the first round redraws before any solve has guarded the lanes: a
        # slope undefined at capacity comes out infinite
        with np.errstate(divide="ignore", over="ignore"):
            return np.concatenate((sigmoid_slope(a, -a, b, capacity), logarithmic_slope(k, capacity)))

    def test_lane_leaving_the_clamp_gets_every_step(self):
        # both roots need 190 of the 200 steps; the odd lanes, clamped in the
        # first round, walk every one of them in the second, in a lockstep
        # walk of LANE_BY_LANE_BELOW lanes or more.  The even lanes' final
        # brackets, 1e-53 wide at r = 1e-40, lie within MARGIN of their
        # price: solve_rate solves them again
        copies = LANE_BY_LANE_BELOW // 2 + 1
        k, none = np.ones(2 * copies), np.empty(0)
        paths = LanePaths(none, none, k, 1e4, 1e-53)
        first = solve_lanes(paths, np.tile([1e40, 1e-12], copies))
        assert first[1] == 1e4
        price = np.tile([1e40 * (1 + 1e-15), 1e45], copies)
        want = solve_lanes(LanePaths(none, none, k, 1e4, 1e-53), price)
        assert solve_lanes(paths, price).tobytes() == want.tobytes()
        assert (paths.resolved, paths.predicted) == (copies, 190)

    def test_a_wrong_estimate_in_lockstep_is_solved_again(self):
        # the fixed preset tiled to LANE_BY_LANE_BELOW lanes or more, with
        # one sigmoid lane's estimate 1e300: the walk moves that lane's lo up
        # at every level, the check finds the slope at its final lo below
        # the price, and solve_rate solves exactly it again; the next solve,
        # with the real estimates, solves none again
        copies = LANE_BY_LANE_BELOW // 6 + 1
        lanes = np.tile([15.0, 10.0, 5.0], copies), np.tile([20.0, 25.0, 35.0], copies), np.tile([1.0, 0.1, 0.02], copies)
        price = np.full(6 * copies, 0.05)
        utilities = [SigmoidalUtility(a=a, b=b) for a, b in zip(*lanes[:2])] + [
            LogarithmicUtility(k=k, r_max=R) for k in lanes[2]]
        want = np.array([solve_rate(u, 0.05, R) for u in utilities])

        def one_wrong(a, b, price):
            root = sigmoid_root(a, b, price)
            root[1] = 1e300
            return root

        paths = LanePaths(*lanes, R)
        with patch_roots(sigmoid=one_wrong):
            assert solve_lanes(paths, price).tobytes() == want.tobytes()
        assert (paths.resolved, paths.looked_up) == (1, TABLE_LEVELS)
        assert solve_lanes(paths, price).tobytes() == want.tobytes()
        assert (paths.resolved, paths.predicted, paths.looked_up) == (0, 27, TABLE_LEVELS)

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


def solve_rate_midpoints(utility, price, capacity, tol) -> list:
    """The midpoints :func:`solve_rate` visits, in order."""
    seen, log_slope = [], type(utility).log_slope
    with patch.object(type(utility), "log_slope", lambda u, r: seen.append(r) or log_slope(u, r)):
        solve_rate(utility, price, capacity, tol)
    return seen[1:]  # after the clamp test at capacity


def final_ends(utility, price, midpoints, capacity, tol) -> tuple[float, float]:
    """The final bracket of the walk :func:`solve_rate` takes over
    ``midpoints``: the greatest it moved ``lo`` to, else ``tol``, and the
    least it moved ``hi`` to, else ``capacity``."""
    ups = [m for m in midpoints if utility.log_slope(m) >= price]
    return max(ups, default=tol), min(set(midpoints).difference(ups), default=capacity)


class TestUnevenStops:
    @staticmethod
    def solve_rates(capacity, tol, prices):
        return np.array([solve_rate(LogarithmicUtility(k=1.0, r_max=capacity), p, capacity, tol) for p in prices])

    @pytest.mark.parametrize("capacity, tol, prices", UNEVEN_STOPS)
    def test_each_lane_takes_its_own_stop(self, capacity, tol, prices, monkeypatch):
        # a few lanes: each walks solve_rate's midpoints to its own stop, and
        # one kernel call sees each lane's two final bracket ends, a row of
        # lo ends above a row of hi ends
        none = np.empty(0)
        want = self.solve_rates(capacity, tol, prices)
        checked = []

        def logarithmic_slope_seen(k, r, out=None):
            checked.append(r.copy())
            return logarithmic_slope(k, r, out=out)

        paths = LanePaths(none, none, np.array([1.0, 1.0]), capacity, tol)
        monkeypatch.setattr(rateauction.ue, "logarithmic_slope", logarithmic_slope_seen)
        assert solve_lanes(paths, np.array(prices)).tobytes() == want.tobytes()
        utility = LogarithmicUtility(k=1.0, r_max=capacity)
        walks = [solve_rate_midpoints(utility, p, capacity, tol) for p in prices]
        assert abs(len(walks[0]) - len(walks[1])) == 1
        ends = [final_ends(utility, p, walk, capacity, tol) for p, walk in zip(prices, walks)]
        (seen,) = checked
        assert seen.tobytes() == np.array(ends).T.tobytes()
        assert paths.predicted == max(map(len, walks))
        assert solve_lanes(paths, np.array(prices[::-1])).tobytes() == want[::-1].tobytes()

    @pytest.mark.parametrize("capacity, tol, prices", UNEVEN_STOPS)
    def test_lockstep_lanes_are_checked_at_their_over_walked_ends(self, capacity, tol, prices, monkeypatch):
        # LANE_BY_LANE_BELOW lanes or more walk in lockstep to the later of
        # two stops one level apart: each lane takes its own stop, and the
        # one kernel call sees the later lane's final ends as solve_rate's
        # walk leaves them, and the earlier lane's, halved on past its stop,
        # within them; in either order of the prices
        copies = LANE_BY_LANE_BELOW // 2 + 1
        none = np.empty(0)
        want = self.solve_rates(capacity, tol, prices)
        utility = LogarithmicUtility(k=1.0, r_max=capacity)
        walks = [solve_rate_midpoints(utility, p, capacity, tol) for p in prices]
        ends = [final_ends(utility, p, walk, capacity, tol) for p, walk in zip(prices, walks)]
        checked = []

        def logarithmic_slope_seen(k, r, out=None):
            checked.append(r.copy())
            return logarithmic_slope(k, r, out=out)

        paths = LanePaths(none, none, np.ones(2 * copies), capacity, tol)
        monkeypatch.setattr(rateauction.ue, "logarithmic_slope", logarithmic_slope_seen)
        for order in ([0, 1], [1, 0]):
            checked.clear()
            got = solve_lanes(paths, np.tile(np.array(prices)[order], copies))
            assert got.tobytes() == np.tile(want[order], copies).tobytes()
            stops = [len(walks[j]) for j in order]
            assert sorted(stops) == [paths.predicted - 1, paths.predicted]
            (seen,) = checked
            for lane, j in enumerate(order):
                (lo, hi), seen_lo, seen_hi = ends[j], *seen[:, lane]
                if stops[lane] == paths.predicted:
                    assert (seen_lo, seen_hi) == (lo, hi)
                else:
                    assert lo <= seen_lo < seen_hi <= hi and (seen_lo, seen_hi) != (lo, hi)
            assert seen.tobytes() == np.tile(seen[:, :2], copies).tobytes()
            assert paths.resolved == 0

    def test_a_walk_past_every_stop(self):
        # log2(capacity - tol) - log2(tol) rounds to just above 18, so a
        # lockstep walk from level 0 would take 19 levels where every lane
        # stops at 18.  The solve looks up 16 levels and walks 2, to the
        # lanes' stop, in lockstep as a lone lane does in floats
        capacity, tol, price = 0.9648064809633523, 3.6804306050586654e-06, 0.7699745596976851
        want = self.solve_rates(capacity, tol, [price])
        for lanes in (LANE_BY_LANE_BELOW, 1):
            paths = LanePaths(np.empty(0), np.empty(0), np.ones(lanes), capacity, tol)
            got = solve_lanes(paths, np.full(lanes, price))
            assert got.tobytes() == np.repeat(want, lanes).tobytes()
            assert (paths.predicted, paths.looked_up, paths.resolved) == (18, TABLE_LEVELS, 0)

    def test_lanes_one_level_past_their_stop_take_the_last_midpoint(self):
        # the fixed preset tiled 20 times with each copy's a scaled by 1 +
        # j/1000, at R = tol * (2**34 + 1): the level-34 brackets are within
        # a few ulps of tol, so rounding stops some lanes there and the
        # walk halves them once more, to level 35.  Each takes the walk's
        # last midpoint, and none is solved again
        capacity = 17179.869185
        fixed = preset("fixed")
        sig = [u for u in fixed.users if isinstance(u, SigmoidalUserSpec)]
        a = np.array([u.a.value * (1 + j / 1000) for j in range(20) for u in sig])
        b = np.array([u.b.value for _ in range(20) for u in sig])
        k = np.array([u.k for u in fixed.users if not isinstance(u, SigmoidalUserSpec)])
        utilities = [SigmoidalUtility(a=aj, b=bj) for aj, bj in zip(a.tolist(), b.tolist())] + [
            LogarithmicUtility(k=kj, r_max=capacity) for kj in k.tolist()]
        paths = LanePaths(a, b, k, capacity)
        for price in (1e-4, 1e-2, 1.0):
            got = solve_lanes(paths, np.full(len(utilities), price))
            assert got.tobytes() == np.array([solve_rate(u, price, capacity) for u in utilities]).tobytes()
            assert (paths.resolved, paths.predicted) == (0, 35)
            stops = [len(solve_rate_midpoints(u, price, capacity, TOL)) for u in utilities]
            assert min(stops) == paths.predicted - 1 and max(stops) == paths.predicted

    @pytest.mark.parametrize("capacity, tol, prices", UNEVEN_STOPS)
    @pytest.mark.parametrize("case", ["over-walked", "in the domain", "off the domain"])
    def test_an_unscreened_lane_beside_them_in_lockstep(self, capacity, tol, prices, case):
        # beside LANE_BY_LANE_BELOW lanes or more, a sigmoid lane whose a*r
        # underflows below some rate between tol and capacity, so that its
        # guard fails at tol.  Over-walked: its walk goes down at every
        # level, and its guard holds at its stop's hi but fails at the
        # midpoint below it, where the walk halves it on where its stop is
        # one level above the other lanes' (the second and third stops).
        # Otherwise its path lies within the domain, or leaves it.  Each
        # rate, or the RateDomainError, is solve_rate's
        copies = LANE_BY_LANE_BELOW // 2 + 1
        hi = capacity
        while hi - tol > tol:  # the lowest hi of a walk that goes down at every level
            hi = (tol + hi) * 0.5
        edge = {"over-walked": ((tol + hi) * 0.5 + hi) * 0.5}.get(case, math.sqrt(tol * capacity))
        price = {"over-walked": 2 / tol, "in the domain": 0.25 / edge, "off the domain": 4 / edge}[case]
        utility = SigmoidalUtility(a=SMALLEST_NORMAL / edge, b=50.0)
        paths = LanePaths(np.array([utility.a]), np.array([utility.b]), np.ones(2 * copies), capacity, tol)
        assert not paths.screened
        price = np.array([price, *np.tile(prices, copies)])
        try:
            want = np.array([solve_rate(utility, price[0], capacity, tol), *self.solve_rates(capacity, tol, price[1:])])
        except RateDomainError:
            with pytest.raises(RateDomainError):
                solve_lanes(paths, price)
            assert case == "off the domain"
            return
        assert solve_lanes(paths, price).tobytes() == want.tobytes()
        if case == "over-walked":
            stop = len(solve_rate_midpoints(utility, price[0], capacity, tol))
            assert (stop < paths.predicted) == (capacity > 1.0)

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


# (capacity, tol), tol below capacity/2 so that level 0 has a lane to walk:
# anywhere; the uneven stops'; and tols below the float spacing at the
# roots, subnormal ones included, which walk to the step cap
walk_brackets = (
    st.tuples(log_uniform(0, 4), log_uniform(-13, -0.5))
    | st.sampled_from([(capacity, tol) for capacity, tol, _ in UNEVEN_STOPS])
    | st.tuples(log_uniform(0, 4), st.sampled_from([1e-20, 1e-310, 5e-324]))
)


# Root estimates that send every few-lane walk off its path, or nowhere.
FAR_ROOTS = [np.nan, np.inf, -np.inf, 0.0, 1e-300, 1e300]


class TestFewLanes:
    """Below ``LANE_BY_LANE_BELOW`` lanes, each lane takes its leaf of the
    midpoint table and walks on to its own stop against its estimated root
    in Python floats, and one call per slope kernel checks its two final
    bracket ends; a lane whose check fails or at the step cap is solved
    again by ``solve_rate``.  Every lane equals its own ``solve_rate``,
    errors included."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        data=st.data(),
        users=st.lists(lane_users, min_size=1, max_size=LANE_BY_LANE_BELOW - 1),
        bracket=walk_brackets,
        estimate=st.sampled_from(["real", "real", *FAR_ROOTS]),
    )
    def test_every_lane_equals_solve_rate(self, data, users, bracket, estimate):
        # about a quarter of the lanes priced at half their slope at
        # capacity, where it is positive and finite, which clamps them
        capacity, tol = bracket
        clamp = data.draw(st.lists(st.sampled_from([False, False, False, True]),
                                   min_size=len(users), max_size=len(users)))
        users = [(*u[:3], self.half_slope_at(u, capacity) or u[3]) if c else u for u, c in zip(users, clamp)]
        with ExitStack() if estimate == "real" else patch_roots(*[lambda *args: np.full(len(args[-1]), estimate)] * 2):
            TestSolveLanes.assert_lanes_equal_solve_rate(users, capacity, tol)

    @staticmethod
    def half_slope_at(user, capacity):
        with np.errstate(divide="ignore", over="ignore"):
            if user[0] == "sig":
                half = 0.5 * float(sigmoid_slope(user[1], -user[1], user[2], capacity))
            else:
                half = 0.5 * float(logarithmic_slope(user[1], capacity))
        return half if 0.0 < half < np.inf else None

    @pytest.mark.parametrize("capacity, tol, prices", UNEVEN_STOPS)
    def test_uneven_stops(self, capacity, tol, prices):
        # TestUnevenStops' lanes, beside a clamped one, under the real
        # estimates and under ones that send the lanes to solve_rate
        prices = (*prices, 1e-12)
        want = TestUnevenStops.solve_rates(capacity, tol, prices)
        for estimate in ("real", *FAR_ROOTS):
            with ExitStack() if estimate == "real" else patch_roots(
                    logarithmic=lambda k, price: np.full(len(price), estimate)):
                got = solve_lanes(LanePaths(np.empty(0), np.empty(0), np.ones(3), capacity, tol), np.array(prices))
            assert got.tobytes() == want.tobytes(), estimate

    def test_a_wrong_estimate_is_solved_again(self):
        # the fixed preset's 6 lanes with NaN sigmoid estimates: the float
        # walks go down at every level, the check finds the 3 sigmoid ones
        # wrong, and solve_rate solves those lanes again; the next round,
        # with the real estimates, solves none again
        lanes = np.array([15.0, 10.0, 5.0]), np.array([20.0, 25.0, 35.0]), np.array([1.0, 0.1, 0.02])
        price = np.full(6, 0.05)
        utilities = [SigmoidalUtility(a=a, b=b) for a, b in zip(*lanes[:2])] + [
            LogarithmicUtility(k=k, r_max=R) for k in lanes[2]]
        want = np.array([solve_rate(u, 0.05, R) for u in utilities])
        paths = LanePaths(*lanes, R)
        with patch_roots(sigmoid=lambda a, b, price: np.full(len(price), np.nan)):
            assert solve_lanes(paths, price).tobytes() == want.tobytes()
        assert (paths.resolved, paths.looked_up) == (3, TABLE_LEVELS)
        assert solve_lanes(paths, price).tobytes() == want.tobytes()
        assert (paths.resolved, paths.predicted, paths.looked_up) == (0, 27, TABLE_LEVELS)

    def test_step_cap_and_unscreened_guard_raise_as_solve_rate(self):
        # tol below the float spacing at R: every walk reaches the step cap;
        # a = 1e-306 fails its guard at tol, and its slope is undefined on
        # its path at the price 1e5
        with pytest.raises(BisectionError, match="200 bisection steps"):
            solve_lanes(LanePaths(np.array([15.0]), np.array([20.0]), np.empty(0), R, 1e-20), np.ones(1))
        paths = LanePaths(np.array([1e-306, 15.0]), np.array([50.0, 20.0]), np.empty(0), R)
        with pytest.raises(RateDomainError, match="a\\*r underflows"):
            solve_lanes(paths, np.array([1e5, 0.3]))


# Flat lanes, whose slopes change least across a final bracket: sigmoid
# users priced within 10% of their a, so that a*r stays below 30 near the
# root, and logarithmic users of k near their guard, where k*r is subnormal
# or underflows at tol.
flat_users = st.one_of(
    st.builds(lambda a, b, ratio: ("sig", a, b, a / ratio), log_uniform(-1.5, 1.5), log_uniform(-1, 2), st.floats(0.9, 1.1)),
    st.tuples(st.just("log"), log_uniform(-323.3, -300), st.none(), log_uniform(-3, 3)),
)
# Relative errors put into the estimated roots
PERTURBATIONS = [0.0, 1e-9, 1e-7, 1e-5, 1e-3]


def perturbed_roots(error: float) -> ExitStack:
    """Both families' estimates, in floats and in arrays, each lane's moved
    by ``error`` relative, up and down by turns."""
    stack = ExitStack()
    for name in ("sigmoid_root", "logarithmic_root"):
        def floats(*args, _estimate=getattr(rateauction.ue, f"{name}_floats")):
            return [root * (1.0 + (-1) ** j * error) for j, root in enumerate(_estimate(*args))]

        def array(*args, _estimate=getattr(rateauction.ue, name)):
            roots = _estimate(*args)
            return roots * (1.0 + error * (-1.0) ** np.arange(len(roots)))

        stack.enter_context(patch.object(rateauction.ue, f"{name}_floats", floats))
        stack.enter_context(patch.object(rateauction.ue, name, array))
    return stack


class TestTwoEndCheck:
    """A walk, in floats or in lockstep, is certified by its two final
    bracket ends: where each lies beyond ``MARGIN`` of the price on its
    side, every decision on the path is ``slope >= price``; a lane with an
    end within it is solved again by ``solve_rate``."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        users=st.lists(flat_users | lane_users, min_size=1, max_size=LANE_BY_LANE_BELOW - 1),
        capacity=log_uniform(0, 4),
        tol=log_uniform(-13, -1),
        error=st.sampled_from(PERTURBATIONS),
    )
    def test_flat_lanes_under_perturbed_estimates_equal_solve_rate(self, users, capacity, tol, error):
        with perturbed_roots(error):
            TestSolveLanes.assert_lanes_equal_solve_rate(users, capacity, tol)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        users=st.lists(flat_users | lane_users, min_size=LANE_BY_LANE_BELOW, max_size=LANE_BY_LANE_BELOW + 12),
        capacity=log_uniform(0, 4),
        tol=log_uniform(-13, -1),
        error=st.sampled_from(PERTURBATIONS),
    )
    def test_flat_lockstep_lanes_under_perturbed_estimates_equal_solve_rate(self, users, capacity, tol, error):
        with perturbed_roots(error):
            TestSolveLanes.assert_lanes_equal_solve_rate(users, capacity, tol)

    MARGIN_UTILITIES = [SigmoidalUtility(a=10.0, b=25.0), LogarithmicUtility(k=0.1, r_max=R)]

    @pytest.mark.parametrize("end", ["lo", "hi"])
    @pytest.mark.parametrize("utility", MARGIN_UTILITIES)
    def test_an_end_within_the_margin_is_solved_again(self, utility, end):
        self.assert_one_lane_within_the_margin(utility, end, 1)

    @pytest.mark.parametrize("end", ["lo", "hi"])
    @pytest.mark.parametrize("utility", MARGIN_UTILITIES)
    def test_an_end_within_the_margin_is_solved_again_in_lockstep(self, utility, end):
        self.assert_one_lane_within_the_margin(utility, end, LANE_BY_LANE_BELOW)

    @staticmethod
    def assert_one_lane_within_the_margin(utility, end, lanes):
        # the first lane's price moved to within MARGIN/2 of the slope at its
        # final lo (above it) or hi (below it), the walk's path unchanged;
        # the other lanes, of the same utility at the price 0.05, hold
        lo, hi = final_ends(utility, 0.05, solve_rate_midpoints(utility, 0.05, R, TOL), R, TOL)
        nudge = 1.0 + rateauction.ue.MARGIN / 2
        price = float(utility.log_slope(lo)) / nudge if end == "lo" else float(utility.log_slope(hi)) * nudge
        assert final_ends(utility, price, solve_rate_midpoints(utility, price, R, TOL), R, TOL) == (lo, hi)
        sigmoid = isinstance(utility, SigmoidalUtility)
        params = (np.full(lanes, utility.a), np.full(lanes, utility.b), np.empty(0)) if sigmoid else (
            np.empty(0), np.empty(0), np.full(lanes, utility.k))
        paths = LanePaths(*params, R)
        got = solve_lanes(paths, np.array([price] + [0.05] * (lanes - 1)))
        assert got[0] == solve_rate(utility, price, R)
        assert (got[1:] == solve_rate(utility, 0.05, R)).all()
        assert paths.resolved == 1

    def test_an_unscreened_lane_is_guarded_at_its_first_up_move(self):
        # a*r underflows below r = 0.0223 for a = 1e-306, where the slope is
        # about 1/r: at the price 1/0.023 the walk moves lo first to R/2**13
        # = 0.0122, which is outside the domain, and ends at [0.023, 0.023 +
        # tol], inside it
        utility, price = SigmoidalUtility(a=1e-306, b=50.0), 1 / 0.023
        with pytest.raises(RateDomainError):
            utility.log_slope(R / 2**13)
        utility.log_slope(0.023)
        with pytest.raises(RateDomainError, match="a\\*r underflows"):
            solve_rate(utility, price, R)
        for lanes in (1, LANE_BY_LANE_BELOW):
            paths = LanePaths(np.full(lanes, 1e-306), np.full(lanes, 50.0), np.empty(0), R)
            assert not paths.screened
            with pytest.raises(RateDomainError, match="a\\*r underflows"):
                solve_lanes(paths, np.full(lanes, price))

    def test_a_capacity_near_the_float_max_is_quiet(self):
        # the table's midpoints past the float max are inf, as the float walk's
        # (lo + hi) * 0.5 are; every lane walks into the step cap, as solve_rate
        # does, in floats and in lockstep.  A logarithmic lane's slope there
        # is 0: (1 + k*r) * log1p(k*r) overflows to inf
        capacity = sys.float_info.max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ends, levels = midpoint_table(TOL, capacity)
            assert ends.tolist() == float_tree(TOL, capacity, levels)
            assert math.inf in ends.tolist()
            assert LogarithmicUtility(k=1.0, r_max=capacity).log_slope(capacity) == 0.0
            for copies in (1, LANE_BY_LANE_BELOW):
                lanes = np.tile([0.5, 1.0], copies), np.tile([20.0, 10.0], copies), np.ones(copies)
                paths = LanePaths(*lanes, capacity)
                assert (paths.at_capacity[2 * copies :] == 0.0).all()
                with pytest.raises(BisectionError, match="200 bisection steps"):
                    solve_lanes(paths, np.ones(3 * copies))
            for utility in (SigmoidalUtility(a=0.5, b=20.0), LogarithmicUtility(k=1.0, r_max=capacity)):
                with pytest.raises(BisectionError, match="200 bisection steps"):
                    solve_rate(utility, 1.0, capacity)


def float_tree(tol: float, capacity: float, levels: int) -> list:
    """The bisection tree of ``[tol, capacity]`` to ``levels`` levels in
    Python floats, its ends and midpoints in order."""
    ends = [tol, capacity]
    for _ in range(levels):
        ends = [x for lo, hi in zip(ends, ends[1:]) for x in (lo, (lo + hi) * 0.5)] + [capacity]
    return ends


# The capacities whose trees the table covers to 7 and 15 levels above tol
# 1e-6 (where a bracket of the next level is within tol), and to all 16.
TABLE_CAPACITIES = [1e-4, 0.03, 100.0, 1e6]


@st.composite
def table_estimates(draw, capacity):
    """A root estimate for a walk of ``[TOL, capacity]``: anywhere, none,
    below the bracket, a midpoint of the table or a float next to one."""
    kind = draw(st.sampled_from(["anywhere", "none", "node", "below node", "above node"]))
    if kind == "anywhere":
        return draw(log_uniform(-15, 7))
    if kind == "none":
        return draw(st.sampled_from([np.nan, np.inf, -np.inf, -1.0, 0.0]))
    ends, _ = midpoint_table(TOL, capacity)
    node = float(ends[draw(st.integers(1, len(ends) - 2))])
    return {"node": node, "below node": np.nextafter(node, -np.inf), "above node": np.nextafter(node, np.inf)}[kind]


@st.composite
def table_walks(draw):
    """At least LANE_BY_LANE_BELOW lanes' estimates, a share of the lanes
    clamped (never the first), and the capacity."""
    capacity = draw(st.sampled_from(TABLE_CAPACITIES))
    lanes = draw(st.lists(st.tuples(table_estimates(capacity), st.sampled_from([False, False, False, True])),
                          min_size=LANE_BY_LANE_BELOW, max_size=LANE_BY_LANE_BELOW + 20))
    roots, clamped = zip(*lanes)
    return np.array(roots), np.array([False, *clamped[1:]]), capacity


class TestGuessedLeaves:
    """A lockstep walk guesses each root's leaf of the ``midpoint_table``
    from the root, and must land where ``searchsorted`` of the midpoints
    does, a NaN root counting none; at R = 1.7976931348623157e308 the table
    holds inf past the float max."""

    CAPACITIES = [100.0, 1e-4, 0.03, sys.float_info.max]

    @staticmethod
    def searched(ends, roots):
        return np.searchsorted(ends[1:-1], np.fmax(roots, -np.inf), side="right")

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), capacity=st.sampled_from(CAPACITIES))
    def test_leaves_equal_searchsorted(self, data, capacity):
        ends, _ = midpoint_table(TOL, capacity)
        roots = np.array(data.draw(st.lists(table_estimates(capacity), min_size=1, max_size=60)))
        assert _leaves(ends, roots).tolist() == self.searched(ends, roots).tolist()

    @pytest.mark.parametrize("capacity", [*CAPACITIES, TOL, 1.5 * TOL])
    def test_every_entry_and_its_neighbours(self, capacity):
        # the last two: a table of one leaf, [tol, R]
        ends, _ = midpoint_table(TOL, capacity)
        with np.errstate(over="ignore"):  # the float max's next float up is inf
            above = np.nextafter(ends, np.inf)
        roots = np.concatenate((ends, np.nextafter(ends, -np.inf), above, [np.nan, -np.nan, np.inf, -np.inf, 0.0, -1.0]))
        with patch.object(np, "searchsorted", wraps=np.searchsorted) as search:
            leaves = _leaves(ends, roots)
        assert leaves.tolist() == self.searched(ends, roots).tolist()
        # every guess was at most one leaf off, so the neighbours set it right
        assert [call.args[1].size for call in search.call_args_list] == [0]

    def test_a_guess_far_off_is_searched(self):
        # entries far from evenly spaced: a guess two or more leaves off
        # is found by searchsorted
        ends = np.array([TOL, 1.0, 2.0, 3.0, 100.0])
        roots = np.linspace(-1.0, 101.0, 1021)
        assert _leaves(ends, roots).tolist() == self.searched(ends, roots).tolist()


class TestLookedUpWalk:
    """A lockstep walk takes its first levels from the ``midpoint_table`` of
    its ``(tol, capacity)``: the bracket, the stop level and the widths of
    the walk that bisects every level."""

    @staticmethod
    def walk(roots, clamped, capacity, looked_up):
        paths = LanePaths(np.empty(0), np.empty(0), np.ones(len(roots)), capacity)
        bracket = np.where(clamped, capacity, paths.first_bracket)
        np.subtract(bracket[1], bracket[0], out=paths.widths[0])
        # the table's levels first, then the walk below them if a lane is left
        level = _look_up(paths, bracket, roots, clamped, np.count_nonzero(clamped)) if looked_up else 0
        if level and not np.count_nonzero(paths.widths[level % 3] > TOL):
            return paths, bracket, level
        return paths, bracket, _walk(paths, bracket, level, paths.tol_array, roots)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(walk=table_walks())
    def test_looked_up_levels_end_where_the_walk_does(self, walk):
        roots, clamped, capacity = walk
        want_paths, want_bracket, level = self.walk(roots, clamped, capacity, False)
        paths, bracket, stop = self.walk(roots, clamped, capacity, True)
        assert stop == level
        assert paths.looked_up == min(level, midpoint_table(TOL, capacity)[1]) > 0
        assert bracket.tobytes() == want_bracket.tobytes()
        assert paths.widths[level % 3].tobytes() == want_paths.widths[level % 3].tobytes()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), capacity=st.sampled_from(TABLE_CAPACITIES),
           users=st.lists(in_domain_users, min_size=LANE_BY_LANE_BELOW, max_size=LANE_BY_LANE_BELOW + 10))
    def test_rates_under_any_estimate_equal_solve_rate(self, data, capacity, users):
        # about a fifth of the lanes clamped at capacity (where the slope
        # there is above 0), and every estimate one of table_estimates'
        sig = [u for u in users if u[0] == "sig"]
        log = [u for u in users if u[0] == "log"]
        a, b, k = np.array([u[1] for u in sig]), np.array([u[2] for u in sig]), np.array([u[1] for u in log])
        price = np.array([u[3] for u in sig + log])
        clamp = data.draw(st.lists(st.sampled_from([False, False, False, False, True]),
                                   min_size=len(price), max_size=len(price)))
        half = 0.5 * TestLanePaths.capacity_slopes(a, b, k, capacity)
        clamp = np.array(clamp) & (half > 0.0)
        price[clamp] = half[clamp]
        estimates = np.array(data.draw(st.lists(table_estimates(capacity), min_size=len(price), max_size=len(price))))
        utilities = [SigmoidalUtility(a=aj, b=bj) for aj, bj in zip(a, b)] + [
            LogarithmicUtility(k=kj, r_max=capacity) for kj in k]
        want = np.array([solve_rate(u, p, capacity) for u, p in zip(utilities, price.tolist())])
        paths = LanePaths(a, b, k, capacity)
        with patch_roots(lambda *_: estimates[: len(a)], lambda *_: estimates[len(a) :]):
            got = solve_lanes(paths, price)
        assert got.tobytes() == want.tobytes()
        walked = np.count_nonzero(got < capacity)  # some lane is not clamped
        assert paths.looked_up == (midpoint_table(TOL, capacity)[1] if walked else 0)

    def test_table_levels_stop_above_tol(self):
        # every bracket of a looked-up level is wider than tol, and some
        # bracket one level below is not, unless the table is full
        for capacity, levels in zip(TABLE_CAPACITIES, [7, 15, TABLE_LEVELS, TABLE_LEVELS]):
            ends, table_levels = midpoint_table(TOL, capacity)
            assert len(ends) == 2**levels + 1 and table_levels == levels
            assert not ends.flags.writeable
            assert np.diff(ends[:: 2]).min() > TOL
            if levels < TABLE_LEVELS:
                assert np.diff(ends).min() <= TOL
        assert midpoint_table(TOL, 100.0)[0].nbytes <= 2**19 + 8

    def test_every_walk_looks_up(self):
        # each solve walks from level 0, in lockstep or in floats, and takes
        # its first levels from the table, the same paths' solves included
        copies = LANE_BY_LANE_BELOW // 6 + 1
        lanes = (np.tile([15.0, 10.0, 5.0], copies), np.tile([20.0, 25.0, 35.0], copies),
                 np.tile([1.0, 0.1, 0.02], copies))
        price = np.full(6 * copies, 0.05)
        paths = LanePaths(*lanes, R)
        for nudge in (1.0, 1.0 + 1e-9):
            solve_lanes(paths, price * nudge)
            assert (paths.predicted, paths.looked_up) == (27, TABLE_LEVELS)
        few = LanePaths(lanes[0][:3], lanes[1][:3], lanes[2][:3], R)
        solve_lanes(few, price[:6])
        assert (few.predicted, few.looked_up) == (27, TABLE_LEVELS)


class TestSlopeCalls:
    """A solve takes one call per slope kernel, over its lanes' two final
    bracket ends, and its clamp test the slopes at capacity taken when the
    paths were built.  The lane solve evaluates slopes through the
    unguarded kernels only."""

    @staticmethod
    def count_calls(monkeypatch) -> dict[str, int]:
        calls = {"sigmoid_slope": 0, "logarithmic_slope": 0}
        for name in calls:
            def counted(*args, _name=name, _slope=getattr(rateauction.ue, name), **kwargs):
                calls[_name] += 1
                return _slope(*args, **kwargs)

            monkeypatch.setattr(rateauction.ue, name, counted)
        return calls

    def test_a_lockstep_solve_takes_one_call_per_kernel(self, monkeypatch):
        # LANE_BY_LANE_BELOW lanes or more, in lockstep; the last lane is
        # clamped.  Each call takes its family's rows lo and hi.
        copies = LANE_BY_LANE_BELOW // 4 + 1
        sigmoid = np.array([15.0, 5.0] * copies), np.array([20.0, 35.0] * copies)
        lanes = *sigmoid, np.array([0.1, 1.0] * copies)
        price = np.array([0.3, 0.05] * copies + [0.02, 1e-9] * copies)
        paths = LanePaths(*lanes, R)
        first = solve_lanes(paths, price)
        seen = []
        for name in ("sigmoid_slope", "logarithmic_slope"):
            def seen_slope(*args, _name=name, _slope=getattr(rateauction.ue, name), **kwargs):
                seen.append((_name, np.shape(args[-1])))
                return _slope(*args, **kwargs)

            monkeypatch.setattr(rateauction.ue, name, seen_slope)
        again = solve_lanes(paths, price)
        assert seen == [("sigmoid_slope", (2, 2 * copies)), ("logarithmic_slope", (2, 2 * copies))]
        assert again.tobytes() == first.tobytes()
        assert again[-1] == R

    def test_a_few_lanes_take_one_call_per_kernel(self, monkeypatch):
        lanes = np.array([15.0, 5.0]), np.array([20.0, 35.0]), np.array([0.1, 1.0])
        price = np.array([0.3, 0.05, 0.02, 1e-9])  # the last lane is clamped
        paths = LanePaths(*lanes, R)
        first = solve_lanes(paths, price)
        calls = self.count_calls(monkeypatch)
        again = solve_lanes(paths, price)
        assert calls == {"sigmoid_slope": 1, "logarithmic_slope": 1}
        assert again.tobytes() == first.tobytes()
        assert again[3] == R

    def test_fixed_preset_takes_each_walked_slope_once(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        run(replace(preset("fixed"), delta=1e-6, max_iterations=200))
        # the first round's clamp test, and one call per round over the
        # final bracket ends of the lanes each of the 87 rounds walked
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
