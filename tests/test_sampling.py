"""Sampling tests: spec parsing, draw distributions, clamping, determinism."""

import math

import numpy as np
import pytest
from scipy import stats

from rateauction import (
    Fixed,
    Normal,
    SigmoidalUtility,
    Triangular,
    UserState,
    format_param_spec,
    parse_param_spec,
    resample_user,
    sample,
    stream_rng,
)
from rateauction.sampling import clamp_sigmoid_params, triangular_inverse_cdf


class TestParamSpecs:
    def test_parse_canonical_spellings(self):
        assert parse_param_spec("FIXED(15)") == Fixed(15.0)
        assert parse_param_spec("NORM(15,2)") == Normal(15.0, 2.0)
        assert parse_param_spec("TRIA(13,15,17)") == Triangular(13.0, 15.0, 17.0)

    def test_parse_accepts_bare_numbers_and_spacing(self):
        assert parse_param_spec(15) == Fixed(15.0)
        assert parse_param_spec(2.5) == Fixed(2.5)
        assert parse_param_spec(" NORM( 10 , 2.0 ) ") == Normal(10.0, 2.0)

    @pytest.mark.parametrize(
        "bad",
        ["GAMMA(1,2)", "NORM(15)", "TRIA(1,2)", "FIXED()", "NORM(a,b)", "15,2", ""],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_param_spec(bad)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Normal(10.0, 0.0)
        with pytest.raises(ValueError):
            Triangular(5.0, 4.0, 6.0)
        with pytest.raises(ValueError):
            Triangular(5.0, 5.0, 5.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                Fixed(bad)
            with pytest.raises(ValueError, match="finite"):
                Normal(bad, 1.0)
            with pytest.raises(ValueError, match="finite"):
                Triangular(0.0, 1.0, bad)

    def test_format_round_trips(self):
        for spec in (Fixed(15.0), Normal(5.0, 2.0), Triangular(3.0, 5.0, 7.0), Fixed(0.125)):
            assert parse_param_spec(format_param_spec(spec)) == spec


class TestSample:
    def test_fixed_always_returns_value(self):
        rng = stream_rng(0, 1, 1)
        assert all(sample(Fixed(15.0), rng) == 15.0 for _ in range(10))

    def test_fixed_consumes_no_randomness(self):
        a = stream_rng(0, 1, 1)
        b = stream_rng(0, 1, 1)
        sample(Fixed(15.0), a)
        assert a.random() == b.random()

    def test_triangular_support_and_mean(self):
        spec = Triangular(13.0, 15.0, 17.0)
        rng = stream_rng(123, 0, 0)
        draws = np.array([sample(spec, rng) for _ in range(100_000)])
        assert draws.min() >= 13.0
        assert draws.max() <= 17.0
        assert draws.mean() == pytest.approx(15.0, abs=0.02)

    def test_triangular_matches_analytic_cdf(self):
        spec = Triangular(13.0, 15.0, 17.0)
        rng = stream_rng(321, 0, 0)
        draws = np.array([sample(spec, rng) for _ in range(100_000)])
        # scipy's parametrization is the independent reference here
        dist = stats.triang(c=(15.0 - 13.0) / (17.0 - 13.0), loc=13.0, scale=4.0)
        ks = stats.kstest(draws, dist.cdf).statistic
        assert ks <= 0.01

    def test_asymmetric_triangular_mean(self):
        spec = Triangular(0.0, 1.0, 5.0)
        rng = stream_rng(11, 0, 0)
        draws = np.array([sample(spec, rng) for _ in range(100_000)])
        assert draws.mean() == pytest.approx(2.0, abs=0.02)  # (min+ml+max)/3

    def test_normal_three_sigma_mass(self):
        spec = Normal(15.0, 2.0)
        rng = stream_rng(77, 0, 0)
        draws = np.array([sample(spec, rng) for _ in range(100_000)])
        inside = np.mean((draws >= 9.0) & (draws <= 21.0))
        assert inside >= 0.995

    def test_inverse_cdf_edges(self):
        assert triangular_inverse_cdf(0.0, 3.0, 5.0, 7.0) == 3.0
        assert triangular_inverse_cdf(1.0, 3.0, 5.0, 7.0) == 7.0
        # degenerate modes at an endpoint still stay inside the support
        assert 3.0 <= triangular_inverse_cdf(0.5, 3.0, 3.0, 7.0) <= 7.0
        assert 3.0 <= triangular_inverse_cdf(0.5, 3.0, 7.0, 7.0) <= 7.0


class TestResampleUser:
    def state(self):
        return UserState(user_id=4, utility=SigmoidalUtility(a=15.0, b=20.0))

    def test_fixed_specs_leave_state_unchanged(self):
        state = self.state()
        for n in range(1, 6):
            out = resample_user(state, Fixed(15.0), Fixed(20.0), 100.0, stream_rng(0, n, 4))
            assert out is state

    def test_draws_update_utility(self):
        out = resample_user(
            self.state(), Normal(15.0, 2.0), Normal(20.0, 2.0), 100.0, stream_rng(0, 1, 4)
        )
        assert isinstance(out.utility, SigmoidalUtility)
        assert out.utility != self.state().utility

    def test_rejects_logarithmic_users(self):
        from rateauction import LogarithmicUtility

        log_state = UserState(user_id=1, utility=LogarithmicUtility(k=1.0, r_max=100.0))
        with pytest.raises(TypeError):
            resample_user(log_state, Fixed(1.0), Fixed(2.0), 100.0, stream_rng(0, 1, 1))

    def test_steepness_clamped_at_floor(self):
        # NORM(5,2) puts ~0.7% of its mass below 0.1; scan iterations until
        # a raw draw lands there and check the clamp caught it
        spec_a, spec_b = Normal(5.0, 2.0), Normal(35.0, 2.0)
        clamped = 0
        for n in range(1, 4000):
            raw = sample(spec_a, stream_rng(2024, n, 4))
            out = resample_user(self.state(), spec_a, spec_b, 100.0, stream_rng(2024, n, 4))
            if raw < 0.1:
                clamped += 1
                assert out.utility.a == 0.1
            else:
                assert out.utility.a == raw
            assert out.utility.a >= 0.1
        assert clamped > 0

    def test_inflection_clamped_into_capacity(self):
        out = resample_user(
            self.state(), Fixed(5.0), Normal(500.0, 1.0), 100.0, stream_rng(0, 1, 4)
        )
        assert out.utility.b == 100.0
        out = resample_user(
            self.state(), Fixed(5.0), Normal(-50.0, 1.0), 100.0, stream_rng(0, 1, 4)
        )
        assert out.utility.b == 1.0

    def test_clamp_helper_bounds(self):
        assert clamp_sigmoid_params(-3.0, 0.0, 100.0) == (0.1, 1.0)
        assert clamp_sigmoid_params(2.0, 250.0, 100.0) == (2.0, 100.0)


class TestDeterminism:
    def test_same_key_same_stream(self):
        for spec in (Normal(15.0, 2.0), Triangular(13.0, 15.0, 17.0)):
            a = sample(spec, stream_rng(99, 7, 3))
            b = sample(spec, stream_rng(99, 7, 3))
            assert a == b

    def test_distinct_keys_distinct_streams(self):
        spec = Normal(0.0, 1.0)
        base = sample(spec, stream_rng(99, 7, 3))
        assert sample(spec, stream_rng(99, 7, 4)) != base
        assert sample(spec, stream_rng(99, 8, 3)) != base
        assert sample(spec, stream_rng(100, 7, 3)) != base

    def test_full_sequence_reproducible(self):
        spec = Triangular(3.0, 5.0, 7.0)

        def sequence(seed):
            return [
                sample(spec, stream_rng(seed, n, uid))
                for n in range(1, 21)
                for uid in (4, 5, 6)
            ]

        assert sequence(5) == sequence(5)
        assert sequence(5) != sequence(6)
