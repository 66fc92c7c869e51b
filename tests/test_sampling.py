"""Sampling tests: spec parsing, draw distributions, clamping, determinism."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rateauction import (
    Fixed,
    Normal,
    Triangular,
    format_param_spec,
    parse_param_spec,
    resample_user,
    sample,
    stream_rng,
)
from rateauction.sampling import clamp_sigmoid_params, stream_rngs, triangular_inverse_cdf

# Seeds on each side of every word-count boundary of SeedSequence's entropy:
# one word, two, the full four-word pool, and past it.
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 3, 2**128 - 1, 2**128 + 5]
EDGE_KEYS = [0, 1, 2**32 - 1, 2**32, 2**34 + 1]


def numpy_rng(seed, iteration, user_id):
    """The reference stream: numpy's own SeedSequence for the cell."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(iteration, user_id)))


def first_draws(rng):
    return rng.normal(size=4).tolist() + rng.random(4).tolist()


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

    @pytest.mark.parametrize(
        "spec,drawn",
        [(Normal(1e308, 1e308), "inf"), (Triangular(-1e308, 0.0, 1e308), "-inf")],
        ids=["normal", "triangular"],
    )
    def test_non_finite_draw_refused(self, spec, drawn):
        # mu + sigma*z passes the float maximum for z > 0.8; hi - lo
        # overflows, which makes every triangular draw -inf
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=rf"^{re.escape(format_param_spec(spec))} drew {drawn}$"):
            for _ in range(100):
                sample(spec, rng)


class TestResampleUser:
    def test_fixed_specs_leave_state_unchanged(self):
        for n in range(1, 6):
            rng, fresh = stream_rng(0, n, 4), stream_rng(0, n, 4)
            assert resample_user(Fixed(15.0), Fixed(20.0), 100.0, rng) == (15.0, 20.0)
            assert rng.random() == fresh.random()  # nothing drawn

    def test_draws_update_utility(self):
        a, b = resample_user(Normal(15.0, 2.0), Normal(20.0, 2.0), 100.0, stream_rng(0, 1, 4))
        assert (a, b) != (15.0, 20.0)
        # a is drawn first, then b, from the same stream
        rng = stream_rng(0, 1, 4)
        assert (a, b) == (sample(Normal(15.0, 2.0), rng), sample(Normal(20.0, 2.0), rng))

    def test_fixed_half_clamped_with_the_draw(self):
        a, b = resample_user(Fixed(0.05), Normal(20.0, 2.0), 100.0, stream_rng(0, 1, 4))
        assert a == 0.1
        a, b = resample_user(Normal(10.0, 2.0), Fixed(150.0), 100.0, stream_rng(0, 1, 4))
        assert b == 100.0

    def test_steepness_clamped_at_floor(self):
        # NORM(5,2) puts ~0.7% of its mass below 0.1; scan iterations until
        # a raw draw lands there and check the clamp caught it
        spec_a, spec_b = Normal(5.0, 2.0), Normal(35.0, 2.0)
        clamped = 0
        for n in range(1, 4000):
            raw = sample(spec_a, numpy_rng(2024, n, 4))
            a, _ = resample_user(spec_a, spec_b, 100.0, numpy_rng(2024, n, 4))
            if raw < 0.1:
                clamped += 1
                assert a == 0.1
            else:
                assert a == raw
            assert a >= 0.1
        assert clamped > 0

    def test_inflection_clamped_into_capacity(self):
        _, b = resample_user(Fixed(5.0), Normal(500.0, 1.0), 100.0, stream_rng(0, 1, 4))
        assert b == 100.0
        _, b = resample_user(Fixed(5.0), Normal(-50.0, 1.0), 100.0, stream_rng(0, 1, 4))
        assert b == 1.0

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


class TestStreamSeeding:
    """Batched seeding against numpy's SeedSequence itself, not against
    ``stream_rng``, which is the batch's one-cell case."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        cells=st.lists(
            st.tuples(
                st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**200),
                st.sampled_from(EDGE_KEYS) | st.integers(0, 2**70),
            ),
            min_size=1,
            max_size=8,
        ),
        iteration=st.sampled_from(EDGE_KEYS) | st.integers(0, 2**70),
    )
    def test_every_cell_matches_numpy(self, cells, iteration):
        seeds = [seed for seed, _ in cells]
        user_ids = [uid for _, uid in cells]
        batch = stream_rngs(seeds, iteration, user_ids)
        assert len(batch) == len(cells)
        for (seed, uid), rng in zip(cells, batch):
            want = first_draws(numpy_rng(seed, iteration, uid))
            assert first_draws(rng) == want
            assert first_draws(stream_rng(seed, iteration, uid)) == want

    def test_edge_seeds_and_keys_in_one_batch(self):
        # every entropy length at once, so cells of different lengths share
        # one pass
        cells = [(seed, uid) for seed in EDGE_SEEDS for uid in EDGE_KEYS]
        for iteration in (0, 1, 2**32):
            batch = stream_rngs([s for s, _ in cells], iteration, [u for _, u in cells])
            for (seed, uid), rng in zip(cells, batch):
                assert first_draws(rng) == first_draws(numpy_rng(seed, iteration, uid)), (seed, iteration, uid)

    def test_numpy_integers_accepted(self):
        want = first_draws(numpy_rng(7, 3, 2))
        assert first_draws(stream_rngs(np.array([7]), np.int64(3), np.array([2]))[0]) == want

    def test_empty_and_mismatched_batches(self):
        assert stream_rngs([], 1, []) == []
        with pytest.raises(ValueError, match="2 seeds for 1 user ids"):
            stream_rngs([1, 2], 1, [4])

    @pytest.mark.parametrize("seed,iteration,uid", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    def test_negative_values_rejected_like_numpy(self, seed, iteration, uid):
        with pytest.raises(ValueError):
            numpy_rng(seed, iteration, uid)
        with pytest.raises(ValueError, match=">= 0"):
            stream_rng(seed, iteration, uid)
