"""Sampling tests: spec parsing, draw distributions, clamping, determinism."""

import math
import re
from dataclasses import replace

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
    preset,
    resample_user,
    run_replication,
    sample,
    stream_rng,
)
from rateauction import _ziggurat, sampling
from rateauction.sampling import (
    BatchSampler,
    MAX_KEY,
    PCG64_MULT,
    SpecError,
    clamp_sigmoid_params,
    is_stochastic,
    triangular_inverse_cdf,
)

# Seeds on each side of every word-count boundary of SeedSequence's entropy:
# one word, two, the full four-word pool, and past it.  Spawn keys are one
# word each, up to MAX_KEY.
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 3, 2**128 - 1, 2**128 + 5]
EDGE_KEYS = [0, 1, 2**31, MAX_KEY - 1, MAX_KEY]


def numpy_rng(seed, iteration, user_id):
    """The reference stream: numpy's own SeedSequence for the cell."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(iteration, user_id)))


def first_draws(rng):
    return rng.normal(size=4).tolist() + rng.random(4).tolist()


def numpy_states(seeds, iteration, user_ids):
    """Each cell's PCG64 state words from numpy's own SeedSequence, as rows
    of runs and columns of users."""
    return [
        [np.random.SeedSequence(seed, spawn_key=(iteration, uid)).generate_state(4, np.uint64).tolist() for uid in user_ids]
        for seed in seeds
    ]


def batch_states(seeds, iteration, user_ids):
    """The same cells' state words from one batch sampler's hash."""
    specs = [(Normal(15.0, 2.0), Fixed(5.0))] * len(user_ids)
    sampler = BatchSampler(seeds, user_ids, specs, CAPACITY, iteration)
    return sampler._cell_states([iteration])[0].tolist()


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

    def test_steepness_whose_a_times_r_overflows_raises(self):
        with pytest.raises(ValueError, match=r"^a\*R must be finite, got 1e\+307\*100\.0$"):
            resample_user(Fixed(1e307), Normal(20.0, 2.0), 100.0, stream_rng(0, 1, 4))
        assert resample_user(Fixed(1e305), Fixed(20.0), 100.0, stream_rng(0, 1, 4)) == (1e305, 20.0)

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
    """The batch sampler's seeding hash against numpy's SeedSequence itself,
    cell for cell."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        cells=st.lists(
            st.tuples(
                st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**200),
                st.sampled_from(EDGE_KEYS) | st.integers(0, MAX_KEY),
            ),
            min_size=1,
            max_size=8,
        ),
        iteration=st.sampled_from(EDGE_KEYS) | st.integers(0, MAX_KEY),
    )
    def test_every_cell_matches_numpy(self, cells, iteration):
        # every seed with every user id: cells of different entropy lengths
        # share one pass
        seeds = [seed for seed, _ in cells]
        user_ids = [uid for _, uid in cells]
        assert batch_states(seeds, iteration, user_ids) == numpy_states(seeds, iteration, user_ids)
        for seed, uid in cells:
            assert first_draws(stream_rng(seed, iteration, uid)) == first_draws(numpy_rng(seed, iteration, uid))

    def test_edge_seeds_and_keys_in_one_batch(self):
        # every entropy length at once, and iterations at both ends of a word
        for iteration in (0, 1, MAX_KEY):
            assert batch_states(EDGE_SEEDS, iteration, EDGE_KEYS) == numpy_states(EDGE_SEEDS, iteration, EDGE_KEYS)

    def test_numpy_integers_accepted(self):
        want = numpy_states([7], 3, [2])
        assert batch_states(np.array([7]), np.int64(3), np.array([2])) == want

    @pytest.mark.parametrize("seed,iteration,uid", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    def test_negative_values_rejected_like_numpy(self, seed, iteration, uid):
        with pytest.raises(ValueError):
            numpy_rng(seed, iteration, uid)
        with pytest.raises(ValueError, match=">= 0"):
            stream_rng(seed, iteration, uid)


CAPACITY = 100.0

fixed_specs = st.builds(Fixed, st.floats(0.5, 50.0))
normal_specs = st.builds(Normal, st.floats(-20.0, 60.0), st.floats(0.01, 10.0))
triangular_specs = st.lists(st.floats(-20.0, 60.0), min_size=3, max_size=3, unique=True).map(
    lambda v: Triangular(*sorted(v))
)
user_specs = st.tuples(*[fixed_specs | normal_specs | triangular_specs] * 2).filter(
    lambda pair: any(map(is_stochastic, pair))
)


def reference_draws(seeds, iteration, user_ids, specs):
    """Each cell's (a, b) from resample_user on numpy's own stream, as rows
    of runs and columns of users."""
    cells = [
        [resample_user(a, b, CAPACITY, numpy_rng(seed, iteration, uid)) for uid, (a, b) in zip(user_ids, specs)]
        for seed in seeds
    ]
    return [[a for a, _ in row] for row in cells], [[b for _, b in row] for row in cells]


def assert_draws_match(sampler, seeds, iteration, user_ids, specs):
    a, b, failed = sampler.draw(iteration)
    assert a.shape == b.shape == failed.shape == (len(seeds), len(user_ids))
    assert not failed.any()
    assert (a.tolist(), b.tolist()) == reference_draws(seeds, iteration, user_ids, specs)


class TestBatchSampler:
    """The batch sampler against resample_user on numpy's SeedSequence
    streams, cell for cell."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        specs=st.lists(user_specs, min_size=1, max_size=4),
        seeds=st.lists(st.sampled_from(EDGE_SEEDS) | st.integers(0, 2**200), min_size=1, max_size=5),
        keys=st.lists(st.sampled_from(EDGE_KEYS[1:]) | st.integers(1, MAX_KEY), min_size=4, max_size=4, unique=True),
        first=st.sampled_from([1, MAX_KEY - 2]) | st.integers(0, MAX_KEY - 2),
        data=st.data(),
    )
    def test_every_cell_matches_resample_user(self, specs, seeds, keys, first, data):
        # three rounds, dropping runs between them; the last first iteration
        # listed ends on MAX_KEY
        user_ids = keys[: len(specs)]
        sampler = BatchSampler(seeds, user_ids, specs, CAPACITY, first + 2)
        for n in range(first, first + 3):
            assert_draws_match(sampler, seeds, n, user_ids, specs)
            dropped = data.draw(st.lists(st.booleans(), min_size=len(seeds), max_size=len(seeds)))
            if all(dropped):
                break
            sampler.drop(dropped)
            seeds = [seed for seed, gone in zip(seeds, dropped) if not gone]

    def test_every_half_mix_in_one_batch(self):
        # a fixed a leaves b the first output; a drawn a moves it to the second
        halves = (Fixed(0.05), Normal(15.0, 2.0), Triangular(3.0, 5.0, 7.0))
        specs = [(a, b) for a in halves for b in halves if is_stochastic(a) or is_stochastic(b)]
        user_ids = list(range(1, len(specs) + 1))
        sampler = BatchSampler(EDGE_SEEDS, user_ids, specs, CAPACITY, MAX_KEY)
        for n in (1, 2, MAX_KEY - 1, MAX_KEY):
            assert_draws_match(sampler, EDGE_SEEDS, n, user_ids, specs)

    def test_dropped_runs_leave_the_seed_pools(self):
        seeds, user_ids = [11, 2**130 + 1, 13, 2**40, 15], [4, MAX_KEY]
        specs = [(Normal(15.0, 2.0), Normal(35.0, 2.0)), (Fixed(5.0), Triangular(3.0, 5.0, 7.0))]
        sampler = BatchSampler(seeds, user_ids, specs, CAPACITY, 4)
        for n, dropped in ((1, [True, False, False, True, False]), (2, [False, True, False]), (3, [False, True])):
            assert_draws_match(sampler, seeds, n, user_ids, specs)
            sampler.drop(dropped)
            seeds = [seed for seed, gone in zip(seeds, dropped) if not gone]
        assert_draws_match(sampler, seeds, 4, user_ids, specs)

    def test_cells_off_the_fast_path_are_redrawn_exactly(self, monkeypatch):
        # about 1.5% of normal draws leave the ziggurat's fast path, so
        # 1,600 draws all but certainly include some: the count is fixed by
        # the seeds, and each such cell is redrawn from its own generator
        redrawn = []

        def counting(state, real=sampling._cell_rng):
            redrawn.append(state.tolist())
            return real(state)

        monkeypatch.setattr(sampling, "_cell_rng", counting)
        seeds, user_ids = list(range(100)), [1, 3, 4]
        specs = [
            (Normal(15.0, 2.0), Normal(35.0, 2.0)),
            (Fixed(5.0), Normal(20.0, 2.0)),
            (Normal(5.0, 2.0), Triangular(3.0, 5.0, 7.0)),
        ]
        sampler = BatchSampler(seeds, user_ids, specs, CAPACITY, 4)
        for n in range(1, 5):
            assert_draws_match(sampler, seeds, n, user_ids, specs)
        assert sampler.redrawn == len(redrawn) >= 10

    @pytest.mark.parametrize(
        "spec",
        [Normal(1e308, 1e308), Triangular(-1e308, 0.0, 1e308), Normal(1.797e306, 2e305)],
        ids=["normal-overflow", "triangular-inf", "a-times-r"],
    )
    def test_failed_cells_are_flagged_without_warnings(self, spec):
        # every warning fails this suite, and the array arithmetic meets
        # inf and 0*inf where the scalar reference raises first; a*R
        # overflows for about half of NORM(1.797e306, 2e305)'s draws
        seeds = list(range(8))
        a, b, failed = BatchSampler(seeds, [1], [(spec, Fixed(20.0))], CAPACITY, 1).draw(1)
        want = []
        for seed in seeds:
            try:
                resample_user(spec, Fixed(20.0), CAPACITY, numpy_rng(seed, 1, 1))
            except ValueError:
                want.append(True)
            else:
                want.append(False)
        assert failed[:, 0].tolist() == want
        assert any(want)

    def test_pcg64_outputs_match_numpy(self):
        rng = np.random.default_rng(5)
        words = rng.integers(0, 2**64, size=(500, 4), dtype=np.uint64, endpoint=False)
        words[0], words[1] = 0, 2**64 - 1
        outputs = sampling._pcg64_outputs(words, 2)
        for row, state in enumerate(words):
            want = sampling._cell_rng(state.copy()).bit_generator.random_raw(2)
            assert outputs[:, row].tolist() == want.tolist()


class TestBlocks:
    """Rounds drawn a block at a time, against resample_user on numpy's
    streams, cell for cell: a block holds whole rounds of at most
    BLOCK_CELLS cells, ends at the cap, and loses the runs dropped while it
    is held.  Each iteration is one word of the spawn key, so a scenario
    with a drawn user caps its iterations at MAX_KEY."""

    SEEDS, USER_IDS = [3, 2**64 + 1, 40, 2**130], [4, 6]
    SPECS = [(Normal(15.0, 2.0), Normal(35.0, 2.0)), (Fixed(5.0), Triangular(3.0, 5.0, 7.0))]

    def draw_rounds(self, sampler, iterations, seeds=SEEDS):
        for n in iterations:
            assert_draws_match(sampler, seeds, n, self.USER_IDS, self.SPECS)

    def test_block_boundary_inside_a_run(self, monkeypatch):
        # two rounds of 4 runs and 2 users per block: blocks 1-2, 3-4, 5
        monkeypatch.setattr(sampling, "BLOCK_CELLS", 2 * 4 * 2 + 1)
        sampler = BatchSampler(self.SEEDS, self.USER_IDS, self.SPECS, CAPACITY, 5)
        self.draw_rounds(sampler, range(1, 6))
        assert (sampler.blocks, sampler.cells) == (3, 5 * 4 * 2)

    def test_cap_cuts_the_block_short(self):
        sampler = BatchSampler(self.SEEDS, self.USER_IDS, self.SPECS, CAPACITY, 3)
        self.draw_rounds(sampler, range(1, 4))
        assert (sampler.blocks, sampler.cells) == (1, 3 * 4 * 2)
        with pytest.raises(ValueError, match="outside"):
            sampler.draw(4)

    def test_runs_dropped_inside_a_block(self):
        seeds = self.SEEDS
        sampler = BatchSampler(seeds, self.USER_IDS, self.SPECS, CAPACITY, 6)
        for n, dropped in ((1, [False, True, False, False]), (2, [True, False, False]), (4, [False, False])):
            self.draw_rounds(sampler, [n], seeds)
            sampler.drop(dropped)
            seeds = [seed for seed, gone in zip(seeds, dropped) if not gone]
        self.draw_rounds(sampler, [5, 6], seeds)
        assert sampler.blocks == 1  # round 3 skipped; the block held round 4 on

    def test_an_iteration_past_one_word_overflows(self):
        # the block from MAX_KEY - 1 would hash MAX_KEY + 1 too
        sampler = BatchSampler(self.SEEDS, self.USER_IDS, self.SPECS, CAPACITY, MAX_KEY + 1)
        with pytest.raises(OverflowError):
            sampler.draw(MAX_KEY - 1)

    def test_a_drawn_scenario_caps_its_iterations_at_one_word(self):
        for name in ("normal", "triangular"):
            assert replace(preset(name), max_iterations=MAX_KEY).max_iterations == MAX_KEY
            refused = rf"^max_iterations must be at most {MAX_KEY} when users\[3\] is drawn, got {MAX_KEY + 1}$"
            with pytest.raises(SpecError, match=refused) as info:
                replace(preset(name), max_iterations=MAX_KEY + 1)
            assert info.value.field == "max_iterations"
        assert replace(preset("fixed"), max_iterations=MAX_KEY + 1).max_iterations == MAX_KEY + 1

    def test_a_batch_hashes_no_iteration_past_its_cap(self, monkeypatch):
        # three rounds per block of 5 runs and 3 drawn users: blocks 1-3,
        # 4-6 and 7, the last cut short by the cap
        hashed = []

        def recording(self, iterations, real=BatchSampler._cell_states):
            hashed.extend(iterations)
            return real(self, iterations)

        monkeypatch.setattr(BatchSampler, "_cell_states", recording)
        monkeypatch.setattr(sampling, "BLOCK_CELLS", 3 * 5 * 3)
        run_replication(replace(preset("normal"), max_iterations=7), range(5))
        assert hashed == list(range(1, 8))


class TestZigguratTables:
    """numpy does not expose its ziggurat tables, so they are recovered from
    its generator: steering a PCG64 so that its next output is a chosen r
    shows which r numpy's standard normal takes on its fast path, and the
    value it returns there."""

    MULT_INVERSE = pow(PCG64_MULT, -1, 2**128)

    def steered(self, output):
        """A generator whose next output is ``output``: with the stream
        increment 1, the state before it steps to ``output`` itself, whose
        high half is 0, so XSL-RR returns it unrotated."""
        bits = np.random.PCG64()
        state = ((output - 1) * self.MULT_INVERSE) % 2**128
        bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": 1}, "has_uint32": 0, "uinteger": 0}
        return np.random.Generator(bits)

    def normal_at(self, output):
        """numpy's standard normal from ``output``, and whether it took more outputs."""
        rng = self.steered(output)
        z = rng.standard_normal()
        return z, rng.bit_generator.state["state"]["state"] != output

    def test_tables_match_numpys_draws(self):
        for strip in range(256):
            lo, hi = 0, 2**52  # the fast path takes exactly rabs < ki
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if self.normal_at(mid << 9 | strip)[1] else (mid + 1, hi)
            assert _ziggurat.KI[strip] == lo, strip
            if lo > 1:
                assert _ziggurat.WI[strip] == self.normal_at(1 << 9 | strip)[0], strip

    def test_fast_path_boundary_of_every_strip(self):
        # the last rabs on each strip's fast path and the first off it,
        # with either sign, against numpy
        outputs, expected = [], []
        for strip, ki in enumerate(_ziggurat.KI):
            for rabs in (ki - 1, ki):
                for sign in (0, 1):
                    if rabs >= 0:
                        output = rabs << 9 | sign << 8 | strip
                        outputs.append(output)
                        expected.append(self.normal_at(output))
        z, missed = sampling._fast_normals(np.array(outputs, dtype=np.uint64))
        assert missed.tolist() == [more for _, more in expected]
        assert [x for x, off in zip(z.tolist(), missed.tolist()) if not off] == [
            want for want, more in expected if not more
        ]
