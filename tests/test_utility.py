"""Utility family tests: frozen values, derivatives vs finite differences,
shape properties, numerical stability of the sigmoid evaluation, and the
logistic term and root estimates against scipy's."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, wrightomega

from rateauction import LogarithmicUtility, RateDomainError, SigmoidalUtility
from rateauction.ue import solve_rate
from rateauction.utility import (
    check_logarithmic_rate,
    check_sigmoid_rate,
    falling_logistic,
    logarithmic_root,
    logarithmic_root_floats,
    POLISH_ABOVE,
    polished_sigmoid_root,
    sigmoid_root,
    sigmoid_root_floats,
)

# high-precision references (30-digit evaluation of the closed forms)
LOG_VALUE_K1_R10 = 0.519573706482440696691  # ln(11)/ln(101)
LOG_SLOPE_K1_R10 = 0.0379120355840223937    # 1/(11 ln 11)
LOG_DERIV_K01_R0 = 0.0417032391424246331    # 0.1/ln(11)

PRESET_SIGMOIDS = [(15.0, 20.0), (10.0, 25.0), (5.0, 35.0)]


def random_utility(rng, max_b=100.0):
    if rng.random() < 0.5:
        return SigmoidalUtility(a=rng.uniform(0.5, 16.0), b=rng.uniform(2.0, max_b))
    return LogarithmicUtility(k=rng.uniform(0.02, 2.0), r_max=rng.uniform(10.0, 200.0))


class TestConstruction:
    @pytest.mark.parametrize("a,b", [(0.0, 20.0), (-1.0, 20.0), (15.0, 0.0), (15.0, -3.0)])
    def test_sigmoid_rejects_nonpositive_params(self, a, b):
        with pytest.raises(ValueError):
            SigmoidalUtility(a=a, b=b)

    @pytest.mark.parametrize("k,r_max", [(0.0, 100.0), (-0.1, 100.0), (1.0, 0.0), (1.0, -5.0)])
    def test_log_rejects_nonpositive_params(self, k, r_max):
        with pytest.raises(ValueError):
            LogarithmicUtility(k=k, r_max=r_max)

    def test_normalization_constants_identity(self):
        # with the offset d = 1/(1 + exp(a*b)) that pins U(0) = 0, c must
        # pin U(inf) = c*(1 - d) to 1
        rng = np.random.default_rng(7)
        for _ in range(300):
            a = rng.uniform(0.1, 6.0)
            b = rng.uniform(0.1, 30.0 / a)
            d = 1.0 / (1.0 + math.exp(a * b))
            assert SigmoidalUtility(a=a, b=b).c * (1.0 - d) == pytest.approx(1.0, rel=1e-12)

    def test_constants_follow_parameters(self):
        u = SigmoidalUtility(a=1.0, b=2.0)
        assert u.c == pytest.approx(1.0 + math.exp(-2.0), rel=1e-15)


class TestValue:
    def test_sigmoid_zero_at_origin(self):
        for a, b in PRESET_SIGMOIDS:
            assert SigmoidalUtility(a=a, b=b).value(0.0) == 0.0

    def test_log_zero_at_origin_and_one_at_rmax(self):
        u = LogarithmicUtility(k=1.0, r_max=100.0)
        assert u.value(0.0) == 0.0
        assert u.value(100.0) == pytest.approx(1.0, abs=1e-15)

    def test_sigmoid_half_at_inflection(self):
        # U(b) = (1 - exp(-a*b)) / 2; with a*b = 300 that is 0.5 to round-off
        u = SigmoidalUtility(a=15.0, b=20.0)
        assert u.value(20.0) == pytest.approx(0.5, abs=1e-12)

    def test_log_frozen_value(self):
        u = LogarithmicUtility(k=1.0, r_max=100.0)
        assert u.value(10.0) == pytest.approx(LOG_VALUE_K1_R10, rel=1e-12)

    def test_range_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            u = random_utility(rng)
            hi = 10.0 * u.b if isinstance(u, SigmoidalUtility) else u.r_max
            r = np.linspace(0.0, hi, 501)
            vals = u.value(r)
            assert np.all(vals >= 0.0)
            assert np.all(vals <= 1.0)

    def test_strictly_increasing(self):
        # sigmoids saturate to exactly 1.0 in float64 once a*(r - b) > ~37,
        # so strictness is asserted on the representable part of the curve
        rng = np.random.default_rng(13)
        for _ in range(100):
            u = random_utility(rng, max_b=40.0)
            hi = u.b + 30.0 / u.a if isinstance(u, SigmoidalUtility) else u.r_max
            r = np.linspace(1e-3, hi, 400)
            vals = u.value(r)
            assert np.all(np.diff(vals) > 0.0)


class TestDerivative:
    def test_sigmoid_peak_slope(self):
        u = SigmoidalUtility(a=10.0, b=25.0)
        assert u.derivative(25.0) == pytest.approx(u.c * u.a / 4.0, rel=1e-15)
        assert u.derivative(25.0) == pytest.approx(2.5, abs=1e-10)

    def test_log_slope_near_origin(self):
        u = LogarithmicUtility(k=0.1, r_max=100.0)
        assert u.derivative(1e-9) == pytest.approx(LOG_DERIV_K01_R0, rel=1e-8)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        h = 1e-6
        checked = 0
        while checked < 1000:
            u = random_utility(rng, max_b=60.0)
            hi = 2.0 * u.b if isinstance(u, SigmoidalUtility) else u.r_max
            r = rng.uniform(0.5, hi)
            fd = (u.value(r + h) - u.value(r - h)) / (2.0 * h)
            if abs(fd) < 1e-5:
                continue  # near saturation the difference is cancellation noise
            assert u.derivative(r) == pytest.approx(fd, rel=1e-4)
            checked += 1


class TestLogSlope:
    def test_log_family_frozen_value(self):
        u = LogarithmicUtility(k=1.0, r_max=100.0)
        assert u.log_slope(10.0) == pytest.approx(LOG_SLOPE_K1_R10, rel=1e-12)

    def test_log_family_independent_of_rmax(self):
        a = LogarithmicUtility(k=0.5, r_max=50.0)
        b = LogarithmicUtility(k=0.5, r_max=500.0)
        r = np.linspace(0.1, 40.0, 50)
        np.testing.assert_allclose(a.log_slope(r), b.log_slope(r), rtol=1e-14)

    def test_equals_derivative_over_value(self):
        u = SigmoidalUtility(a=5.0, b=35.0)
        r = 35.0
        assert u.log_slope(r) == pytest.approx(u.derivative(r) / u.value(r), rel=1e-12)
        rng = np.random.default_rng(19)
        for _ in range(200):
            u = random_utility(rng, max_b=40.0)
            r = rng.uniform(u.b * 0.5 if isinstance(u, SigmoidalUtility) else 0.5, 80.0)
            quotient = u.derivative(r) / u.value(r)
            assert u.log_slope(r) == pytest.approx(quotient, rel=1e-9)

    def test_matches_log_finite_differences(self):
        u = SigmoidalUtility(a=5.0, b=35.0)
        h = 1e-6
        for r in (20.0, 35.0, 50.0):
            fd = (np.log(u.value(r + h)) - np.log(u.value(r - h))) / (2.0 * h)
            assert u.log_slope(r) == pytest.approx(fd, rel=1e-4)

    def test_strictly_decreasing(self):
        # non-increasing everywhere; strictness is asserted where the curve
        # is numerically alive (a steep sigmoid's slope is float-flat both
        # in the plateau at height a between its two decay scales and after
        # it has decayed below the representable range)
        rng = np.random.default_rng(23)
        for _ in range(100):
            u = random_utility(rng, max_b=60.0)
            r = np.linspace(1e-3, 100.0, 700)
            slopes = np.asarray(u.log_slope(r))
            assert np.all(np.diff(slopes) <= 0.0)
            if isinstance(u, SigmoidalUtility):
                windows = [
                    np.linspace(1e-3, min(25.0 / u.a, u.b), 50),
                    np.linspace(max(u.b - 25.0 / u.a, u.b / 2.0), u.b + 25.0 / u.a, 50),
                ]
            else:
                windows = [np.linspace(1e-3, 100.0, 700)]
            for w in windows:
                assert np.all(np.diff(np.asarray(u.log_slope(w))) < 0.0)

    def test_diverges_near_zero(self):
        for u in (SigmoidalUtility(a=15.0, b=20.0), LogarithmicUtility(k=1.0, r_max=100.0)):
            assert u.log_slope(1e-12) > 1e10

    def test_domain_error_when_underflowed(self):
        with pytest.raises(RateDomainError):
            SigmoidalUtility(a=1e-200, b=1.0).log_slope(1e-200)
        with pytest.raises(RateDomainError):
            LogarithmicUtility(k=1e-200, r_max=1.0).log_slope(1e-200)

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(
        check=st.sampled_from([check_sigmoid_rate, check_logarithmic_rate]),
        exponent=st.floats(-323, -280),
        rate_exponents=st.lists(st.floats(-20, 4), min_size=2, max_size=2).map(sorted),
    )
    def test_each_guard_fails_on_a_down_set_of_rates(self, check, exponent, rate_exponents):
        # the lane solve screens each lane's a or k once at tol, which lies
        # below every midpoint and the capacity: a guard that fails at a
        # rate must fail at every lower one
        def fails(r):
            try:
                check(10.0**exponent, r)
            except RateDomainError:
                return True
            return False

        r1, r2 = (10.0**e for e in rate_exponents)
        assert fails(r1) or not fails(r2)


class TestNumericalStability:
    def naive_value(self, a, b, r):
        # textbook form with explicit exp(a*b); only usable for small a*b
        c = (1.0 + math.exp(a * b)) / math.exp(a * b)
        d = 1.0 / (1.0 + math.exp(a * b))
        return c * (1.0 / (1.0 + math.exp(-a * (r - b))) - d)

    def test_agrees_with_naive_form_small_ab(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            a = rng.uniform(0.1, 5.0)
            b = rng.uniform(0.1, 30.0 / a)
            u = SigmoidalUtility(a=a, b=b)
            r = rng.uniform(0.0, 3.0 * b)
            naive = self.naive_value(a, b, r)
            if naive > 1e-300:
                assert float(u.value(r)) == pytest.approx(naive, rel=1e-12)

    def test_extreme_ab_stays_finite_and_bounded(self):
        # a*b = 300: the naive normalization would need exp(300) ~ 2e130
        # times exp(a*(b - r)) and overflows along the way
        u = SigmoidalUtility(a=15.0, b=20.0)
        r = np.linspace(0.0, 100.0, 2001)
        vals = u.value(r)
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= 0.0)
        assert np.all(vals <= 1.0)

    def test_log_concavity_of_preset_sigmoids(self):
        # unimodality of log U(r) - p*r rests on this
        h = 0.02
        for a, b in PRESET_SIGMOIDS:
            u = SigmoidalUtility(a=a, b=b)
            r = np.linspace(b / 10.0, 3.0 * b, 400)
            second = (u.log_value(r + h) - 2.0 * u.log_value(r) + u.log_value(r - h)) / h**2
            assert np.all(second <= 1e-8)


class TestLogisticTerm:
    """The sigmoid slope's logistic term, ``1/(1 + exp(x))`` on numpy's exp,
    against scipy's ``expit(-x)``."""

    def test_within_four_ulps_of_expit(self):
        # numpy's exp and libm's differ in the last bit for about 1.8% of
        # these x, and 1 + exp(x) can round that bit up to a whole ulp of the
        # sum: 0.4% differ by 2 ulps, and by 3 or 4 near x = 37, where exp(x)
        # is about 2**53.  Past x = 709.78 exp overflows, and the term is 0 as
        # expit's is.
        rng = np.random.default_rng(5)
        x = np.concatenate((np.linspace(-750.0, 750.0, 300_001), rng.uniform(-750.0, 750.0, 100_000)))
        with np.errstate(over="ignore"):
            got = falling_logistic(x)
        want = expit(-x)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))
        assert np.count_nonzero(got != want) < 0.03 * len(x)

    def test_a_float_gives_the_array_value(self):
        x = np.array([-30.0, -0.5, 0.0, 1e-9, 2.0, 700.0])
        assert [float(falling_logistic(v)) for v in x.tolist()] == falling_logistic(x).tolist()

    def test_overflow_beyond_the_inflection_is_quiet(self):
        # a*(r - b) = 1200 at R = 100 for the fixed preset's first user: the
        # logistic term is 0 and the slope is the other term alone
        u = SigmoidalUtility(15.0, 20.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slope = u.log_slope(100.0)
            value, derivative = u.value(np.array([0.0, 100.0])), u.derivative(np.array([0.0, 100.0]))
        assert slope == 15.0 * math.exp(-1500.0) / -math.expm1(-1500.0)
        assert value.tolist() == [0.0, 1.0]
        assert derivative[1] == 0.0


def wright_omega_root(k, price):
    """The logarithmic root through scipy's Wright omega: expm1(W(k/price))/k."""
    return np.expm1(wrightomega(np.log(k / price))) / k


# k/price over 1e-6-1e15, each at three k
ROOT_RATIOS = np.concatenate((np.logspace(-6, 15, 4001), 10.0 ** np.random.default_rng(3).uniform(-6, 15, 4000)))
ROOT_K = np.repeat([1e-3, 1.0, 37.0], len(ROOT_RATIOS))
ROOT_PRICES = ROOT_K / np.tile(ROOT_RATIOS, 3)


def sigmoid_elasticity(a, b, r):
    """-dlog(slope)/dlog(r) of the sigmoidal log-slope at r."""
    x, e = a * r, math.exp(a * (r - b))
    logistic, q = 1.0 / (1.0 + e), math.exp(-x) / -math.expm1(-x)
    return x * (e * logistic * logistic + q + q * q) / (logistic + q)


class TestRootEstimates:
    """The root estimates over numpy arrays, and over lists of Python floats
    for solves of a few lanes, against scipy."""

    def test_logarithmic_root_matches_wright_omega(self):
        want = wright_omega_root(ROOT_K, ROOT_PRICES)
        for got in (
            logarithmic_root(ROOT_K, ROOT_PRICES),
            np.array(logarithmic_root_floats(ROOT_K.tolist(), ROOT_PRICES.tolist())),
        ):
            assert np.max(np.abs(got - want) / want) <= 1e-14

    @pytest.mark.parametrize(
        "k, price",
        [
            (1e-300, 1e300),  # k/price underflows to 0
            (1e-310, 1.0),  # subnormal
            (1.0, 1e300),
            (1e-300, 1.0),
            (1e300, 1.0),
            (1.0, 1e-300),
            (1e300, 1e-300),  # k/price overflows to infinity
        ],
    )
    def test_logarithmic_root_at_extreme_ratios(self, k, price):
        # the lane solve divides under np.errstate(over="ignore"); no other
        # warning comes, and the W iteration divides neither 0/0 nor inf/inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                array = logarithmic_root(np.array([k]), np.array([price]))[0]
            (floats,) = logarithmic_root_floats([k], [price])
        assert array == pytest.approx(floats, rel=1e-14)
        c = k / price
        if c == 0.0:
            assert 0.0 < array * k <= 1e-320  # from the smallest subnormal
        elif c == math.inf:
            assert array * k > 1e305  # from the largest float
        else:
            assert array == pytest.approx(wright_omega_root(k, price), rel=1e-14)

    def test_sigmoid_root_floats_match_the_array_path(self):
        rng = np.random.default_rng(11)
        a, b = rng.uniform(0.5, 20.0, 2000), rng.uniform(1.0, 60.0, 2000)
        price = a * 10.0 ** rng.uniform(-12.0, 1.0, 2000)  # a/price <= 1 in about 1 in 13
        want = sigmoid_root(a, b, price)
        got = np.array(sigmoid_root_floats(a.tolist(), b.tolist(), price.tolist()))
        # where a <= price the logistic term alone stays below the price, and
        # the closed form has no root: the polish gives one on both paths
        above = a <= price
        assert np.count_nonzero(above)
        assert np.all(np.isfinite(got[above]) & (got[above] > 0.0)) and np.array_equal(got[above], want[above])
        np.testing.assert_allclose(got, want, rtol=1e-14)

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(
        a=st.floats(0.1, 50.0),
        b=st.floats(1.0, 60.0),
        ratio=st.floats(1e-3, 1e6),
    )
    def test_polished_sigmoid_root_is_the_root(self, a, b, ratio):
        price = a / ratio
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (array,) = sigmoid_root(np.array([a]), np.array([b]), np.array([price])).tolist()
            (floats,) = sigmoid_root_floats([a], [b], [price])
        assert 0.0 < floats < math.inf and array == pytest.approx(floats, rel=1e-14)
        closed = b + math.log(ratio - 1.0) / a if ratio > 1.0 else math.nan
        if a * closed > POLISH_ABOVE:  # not in doubt: the closed form stands
            return
        assert array == floats == polished_sigmoid_root(a, b, price)
        elasticity = sigmoid_elasticity(a, b, floats)
        if abs(math.log(SigmoidalUtility(a, b).log_slope(floats) / price)) > 1e-12 * elasticity:
            return  # not landed in eight steps, as where price is just above a
        want = solve_rate(SigmoidalUtility(a, b), price, 1e3, tol=1e-12)
        # the slope's rounding moves its root by about 1e-15 over its
        # elasticity, which is tiny where price is near a and the slope is
        # flat about the root: there the float slope equals the price
        # over a wide range of rates
        flatness = min(elasticity, sigmoid_elasticity(a, b, want))
        assert floats == pytest.approx(want, rel=1e-9 + 1e-14 / max(flatness, 1e-290), abs=1e-12)
