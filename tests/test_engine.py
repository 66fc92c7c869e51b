"""Engine tests: full-auction behavior on the reference scenarios, stop
conditions, determinism, and the fixed-point identities."""

import logging
import re
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rateauction.engine
import rateauction.sampling
import rateauction.ue
import rateauction.utility
from rateauction import (
    STOP_CONVERGED,
    STOP_ITERATION_CAP,
    LogarithmicUserSpec,
    Scenario,
    SigmoidalUserSpec,
    Fixed,
    Normal,
    SigmoidalUtility,
    Triangular,
    centralized_argmax,
    preset,
    resample_user,
    run,
    run_replication,
    solve_rate,
)
from rateauction.engine import SpecError

# measured behavior of the fixed reference scenario: from the bootstrap
# price 1.0 the bid iteration contracts by ~0.83 per round and first gets
# every per-user bid change under delta=1e-2 at round 36
FIXED_CONVERGENCE_ROUND = 36


def single_user_scenario(spec, capacity=100.0):
    return Scenario(
        capacity=capacity, delta=1e-6, max_iterations=500, seed=0, users=(spec,)
    )


class TestFixedScenario:
    def test_converges_with_headroom(self):
        scenario = replace(preset("fixed"), max_iterations=60)
        result = run(scenario)
        assert result.stop_reason == STOP_CONVERGED
        assert result.converged_at == FIXED_CONVERGENCE_ROUND
        assert sum(result.final_rates.values()) == pytest.approx(100.0, rel=1e-6)

    def test_sigmoid_users_exceed_inflection(self):
        result = run(replace(preset("fixed"), max_iterations=60))
        inflections = {4: 20.0, 5: 25.0, 6: 35.0}
        for uid, b in inflections.items():
            assert result.final_rates[uid] > b

    def test_log_users_keep_positive_rates(self):
        result = run(replace(preset("fixed"), max_iterations=60))
        for uid in (1, 2, 3):
            assert result.final_rates[uid] > 0.0

    def test_total_bids_over_price_equal_capacity(self):
        result = run(replace(preset("fixed"), max_iterations=60))
        last = [rec for rec in result.trace if rec.iteration == result.iterations]
        assert sum(rec.bid for rec in last) / result.final_price == pytest.approx(
            100.0, rel=1e-6
        )

    def test_solved_rates_never_exceed_capacity(self):
        # the price descends toward its fixed point from above, so demand
        # approaches the capacity from below on every iteration
        result = run(replace(preset("fixed"), max_iterations=60))
        for n in range(1, result.iterations + 1):
            total = sum(rec.rate for rec in result.trace if rec.iteration == n)
            assert total <= 100.0 + 1e-6

    def test_kkt_stationarity_at_tight_delta(self):
        scenario = replace(preset("fixed"), delta=1e-6, max_iterations=500)
        result = run(scenario)
        assert result.stop_reason == STOP_CONVERGED
        utilities = [u.initial_utility(scenario.capacity) for u in scenario.users]
        for uid, rate in result.final_rates.items():
            if rate < scenario.capacity:
                slope = float(utilities[uid - 1].log_slope(rate))
                assert abs(slope - result.final_price) <= 1e-3


class TestStopConditions:
    def test_iteration_cap_reported(self):
        result = run(preset("fixed"))  # cap 20 < the 36 rounds it needs
        assert result.stop_reason == STOP_ITERATION_CAP
        assert result.converged_at is None
        assert result.iterations == 20

    def test_stochastic_runs_full_cap_by_default(self):
        result = run(preset("normal"))
        assert result.stop_reason == STOP_ITERATION_CAP
        assert result.iterations == 20

    def test_stochastic_early_stop_opt_in(self):
        scenario = replace(
            preset("normal"), delta=10.0, allow_early_stop=True, max_iterations=50
        )
        result = run(scenario)
        assert result.stop_reason == STOP_CONVERGED  # delta this loose fires fast

    def test_fixed_early_stop_opt_out(self):
        scenario = replace(preset("fixed"), allow_early_stop=False, max_iterations=40)
        result = run(scenario)
        assert result.stop_reason == STOP_ITERATION_CAP
        assert result.iterations == 40

    def test_one_drawn_half_makes_a_user_drawn(self):
        # a fixed a beside a drawn b: the user is drawn, so the run goes to
        # the cap unless early stopping is allowed; b's spread is too narrow
        # to keep the bids from settling by round 8
        scenario = Scenario(
            capacity=100.0, delta=1e-2, max_iterations=30, seed=3,
            users=(SigmoidalUserSpec(a=Fixed(15.0), b=Normal(20.0, 1e-9)), LogarithmicUserSpec(k=1.0, r_max=100.0)),
        )
        result = run(scenario)
        assert (result.stop_reason, result.iterations) == (STOP_ITERATION_CAP, 30)
        assert np.all(result.a == 15.0) and np.all(result.b != 20.0)
        early = run(replace(scenario, allow_early_stop=True))
        assert (early.stop_reason, early.converged_at, early.iterations) == (STOP_CONVERGED, 8, 8)
        assert run_replication(replace(scenario, allow_early_stop=True), [3, 0]) == [
            early, run(replace(scenario, seed=0, allow_early_stop=True))
        ]


class TestSmallScenarios:
    def test_single_log_user_gets_everything(self):
        result = run(single_user_scenario(LogarithmicUserSpec(k=0.5, r_max=100.0)))
        assert result.final_rates[1] == pytest.approx(100.0, rel=1e-12)

    def test_two_user_run_matches_reference_grid(self):
        scenario = Scenario(
            capacity=50.0,
            delta=1e-8,
            max_iterations=3000,
            seed=0,
            users=(
                SigmoidalUserSpec(a=Fixed(5.0), b=Fixed(10.0)),
                LogarithmicUserSpec(k=0.1, r_max=50.0),
            ),
        )
        result = run(scenario)
        assert result.stop_reason == STOP_CONVERGED
        utilities = [u.initial_utility(50.0) for u in scenario.users]
        reference = centralized_argmax(utilities, 50.0, 1e-3)
        for uid in (1, 2):
            assert result.final_rates[uid] == pytest.approx(reference[uid], abs=0.05)


class TestDeterminismAndReplication:
    def test_run_is_deterministic(self):
        scenario = preset("triangular")
        assert run(scenario) == run(scenario)

    def test_replication_matches_seed_order(self):
        scenario = preset("normal")
        results = run_replication(scenario, [3, 1, 3])
        assert results[0] == results[2]
        assert results[0] != results[1]

    def test_fixed_scenario_ignores_seed(self):
        scenario = replace(preset("fixed"), max_iterations=60)
        results = run_replication(scenario, [0, 1, 2, 3])
        assert all(r == results[0] for r in results)

    def test_results_compare_every_array_bit_for_bit(self):
        # log users carry no a or b; equal runs still compare equal
        result = run(preset("normal"))
        assert result == run(preset("normal"))
        assert result != "not a result"
        for name, (row, col) in (("rates", (3, 4)), ("a", (7, 1))):
            values = getattr(result, name).copy()
            values[row, col] = np.nextafter(values[row, col], np.inf)
            nudged = replace(result, **{name: values})
            assert nudged != result
            assert result != nudged

    def test_replication_rejects_empty_seed_list(self):
        with pytest.raises(ValueError):
            run_replication(preset("normal"), [])

    @pytest.mark.parametrize("name", ["fixed", "normal"])
    def test_replication_takes_any_iterable_of_seeds(self, name):
        want = run_replication(preset(name), [0, 1, 2])
        assert run_replication(preset(name), iter([0, 1, 2])) == want
        assert run_replication(preset(name), np.arange(3)) == want

    @pytest.mark.parametrize("name", ["fixed", "normal"])
    def test_replication_names_the_first_negative_seed(self, name):
        with pytest.raises(SpecError, match=r"^seed must be >= 0, got -1$") as info:
            run_replication(preset(name), [0, -1, -5])
        assert info.value.field == "seed"

    def test_replication_names_a_seed_that_is_no_integer(self):
        with pytest.raises(SpecError, match=r"^seed must be an integer, got 2\.5$") as info:
            run_replication(preset("normal"), [0, 2.5])
        assert info.value.field == "seed"

    def test_stochastic_rates_fluctuate_across_seeds(self):
        results = run_replication(preset("normal"), list(range(10)))
        for uid in (4, 5, 6):
            finals = np.array([r.final_rates[uid] for r in results])
            assert finals.std() > 0.0

    def test_stochastic_envelope_brackets_fixed_outcome(self):
        fixed = run(replace(preset("fixed"), max_iterations=60))
        results = run_replication(preset("normal"), list(range(20)))
        for uid in (4, 5, 6):
            finals = np.array([r.final_rates[uid] for r in results])
            assert np.all(np.isfinite(finals))
            assert finals.min() < fixed.final_rates[uid] < finals.max()


class TestStreamSeeding:
    def test_large_seeds_draw_numpys_streams(self):
        # seeds of one, two and five words; traced (a, b) must be numpy's
        # SeedSequence draws for (seed, iteration, user id)
        scenario = preset("normal")
        seeds = [0, 2**32, 2**128 + 5]
        results = run_replication(scenario, seeds)
        assert results == [run(replace(scenario, seed=s)) for s in seeds]
        for seed, result in zip(seeds, results):
            drawn = 0
            for rec in result.trace:
                spec = scenario.users[rec.user_id - 1]
                if not isinstance(spec, SigmoidalUserSpec):
                    continue
                rng = np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(rec.iteration, rec.user_id))
                )
                assert (rec.a, rec.b) == resample_user(spec.a, spec.b, scenario.capacity, rng)
                drawn += 1
            assert drawn == 3 * result.iterations

    def test_rounds_build_no_seed_sequence(self, monkeypatch):
        # a batch takes each seed's pool from one SeedSequence; every
        # round's cells are hashed as arrays, never from a SeedSequence
        # built per round or per cell
        real = np.random.SeedSequence
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        for rounds in (20, 40):
            scenario = replace(preset("triangular"), max_iterations=rounds)
            expected = [run(replace(scenario, seed=s)) for s in (0, 1)]
            built.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np.random, "SeedSequence", counting)
                results = run_replication(scenario, [0, 1])
            assert [r.iterations for r in results] == [rounds, rounds]
            assert built == [(0,), (1,)], rounds
            assert results == expected


class TestParameterColumns:
    def test_setup_builds_no_utility(self, monkeypatch):
        # fixed columns come from the Fixed values and drawn ones from each
        # round's draw: a SigmoidalUtility is built only to re-solve a failure
        names = ("fixed", "normal", "triangular")
        expected = [run(preset(name)) for name in names]

        def refuse(*args, **kwargs):
            raise AssertionError("SigmoidalUtility built during a run")

        monkeypatch.setattr(rateauction.engine, "SigmoidalUtility", refuse)
        assert [run(preset(name)) for name in names] == expected

    def test_drawn_users_keep_their_draws_not_placeholders(self):
        # a fixed half of a drawn user is clamped with the draw, every round
        users = (
            SigmoidalUserSpec(a=Fixed(0.05), b=Normal(20.0, 2.0)),
            LogarithmicUserSpec(k=1.0, r_max=100.0),
            SigmoidalUserSpec(a=Fixed(5.0), b=Fixed(30.0)),
        )
        scenario = Scenario(capacity=100.0, delta=1e-2, max_iterations=15, seed=4, users=users)
        for result in run_replication(scenario, [0, 1, 2]):
            assert np.all(result.a[:, 0] == 0.1)
            assert np.all(np.isfinite(result.b[:, 0])) and len(set(result.b[:, 0].tolist())) > 1
            assert np.all(result.a[:, 1] == 5.0) and np.all(result.b[:, 1] == 30.0)


class TestTrace:
    def test_record_count_and_shared_price(self):
        result = run(preset("normal"))
        assert len(result.trace) == 6 * result.iterations
        for n in range(1, result.iterations + 1):
            prices = {rec.price for rec in result.trace if rec.iteration == n}
            assert len(prices) == 1

    def test_sigmoid_rows_carry_sampled_params(self):
        result = run(preset("triangular"))
        for rec in result.trace:
            if rec.user_id in (4, 5, 6):
                assert rec.a is not None and rec.b is not None
            else:
                assert rec.a is None and rec.b is None

    def test_triangular_samples_stay_in_support(self):
        result = run(preset("triangular"))
        supports = {4: (13.0, 17.0, 18.0, 22.0), 5: (8.0, 12.0, 23.0, 27.0), 6: (3.0, 7.0, 33.0, 37.0)}
        for rec in result.trace:
            if rec.user_id in supports:
                a_lo, a_hi, b_lo, b_hi = supports[rec.user_id]
                assert a_lo <= rec.a <= a_hi
                assert b_lo <= rec.b <= b_hi

    def test_rates_and_bids_positive_throughout(self):
        for name in ("fixed", "normal", "triangular"):
            result = run(preset(name))
            for rec in result.trace:
                assert rec.price > 0.0
                assert rec.rate > 0.0
                assert rec.bid > 0.0

    def test_fixed_sigmoid_params_constant(self):
        result = run(preset("fixed"))
        for uid, (a, b) in {4: (15.0, 20.0), 5: (10.0, 25.0), 6: (5.0, 35.0)}.items():
            rows = [rec for rec in result.trace if rec.user_id == uid]
            assert all(rec.a == a and rec.b == b for rec in rows)


def batch_line(caplog, execute) -> tuple[int, ...]:
    """Every count of the one batch ``execute`` runs, from its DEBUG line:
    the lanes of its first round and its (run, user) cells, then the
    counts :func:`batch_counts` returns."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="rateauction.engine"):
        execute()
    (message,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("lane solve:")]
    pattern = (r"lane solve: (\d+) lanes for (\d+) cells; (\d+) lanes re-solved, (\d+) predicted "
               r"\((\d+) looked up\); sampler: (\d+) blocks, (\d+) cells, (\d+) redrawn")
    return tuple(map(int, re.fullmatch(pattern, message).groups()))


def batch_counts(caplog, execute) -> tuple[int, ...]:
    """The counts of the one batch ``execute`` runs, from its DEBUG line:
    lanes re-solved, levels predicted and looked up (of the predicted),
    and the sampler's blocks, cells and cells redrawn."""
    return batch_line(caplog, execute)[2:]


class TestLanePaths:
    """Every solve walks each lane from the top of the bisection tree and
    certifies it by its two final bracket ends; one DEBUG line per batch
    reports the lanes re-solved by ``solve_rate`` after a failed check, the
    levels walked against the estimated roots, and those of them looked up
    in the midpoint table."""

    @staticmethod
    def lane_work(caplog, execute) -> tuple[int, int, int]:
        return batch_counts(caplog, execute)[:3]

    def test_fixed_preset_walks_each_round_from_level_0(self, caplog):
        # its 6 lanes walk one at a time in floats: each of the 87 rounds
        # takes 27 levels, the first 16 from the table, and every lane's two
        # final ends hold
        scenario = replace(preset("fixed"), delta=1e-6, max_iterations=200)
        counts = [self.lane_work(caplog, lambda: run(scenario)) for _ in range(2)]
        assert counts[0] == counts[1] == (0, 87 * 27, 87 * 16)

    def test_distinct_copies_walk_each_round_from_level_0(self, caplog):
        # the fixed preset tiled 100 times with each copy's a made distinct,
        # at R = 1e4: 303 lanes in lockstep, each of whose 87 rounds walks
        # 34 levels, the first 16 from the table, and every lane's two final
        # ends hold
        fixed = preset("fixed")
        users = tuple(replace(u, a=Fixed(u.a.value * (1 + j / 1000))) if isinstance(u, SigmoidalUserSpec) else u
                      for j in range(100) for u in fixed.users)
        scenario = replace(fixed, capacity=1e4, delta=1e-6, max_iterations=200, users=users)
        counts = [self.lane_work(caplog, lambda: run(scenario)) for _ in range(2)]
        assert counts[0] == counts[1] == (0, 87 * 34, 87 * 16)

    def test_fixed_runs_leave_a_batch_together(self, caplog):
        # runs with no drawn user differ only in their seed: a batch of
        # seven walks the levels one run of them would, and all seven leave
        # it at once
        scenario = replace(preset("fixed"), delta=1e-6, max_iterations=200)
        seeds = range(rateauction.ue.LANE_BY_LANE_BELOW // 6 + 1)
        results = []
        counts = self.lane_work(caplog, lambda: results.extend(run_replication(scenario, seeds)))
        # (their 42 lanes walk in lockstep, 27 levels a round, the first 16
        # looked up)
        assert counts == (0, 87 * 27, 87 * 16)
        assert results == [run(replace(scenario, seed=s)) for s in seeds]
        assert [r.converged_at for r in results] == [87] * len(seeds)

    @pytest.mark.parametrize("name", ["normal", "triangular"])
    def test_drawn_batches_solve_no_lane_again(self, caplog, name):
        # every estimated level of the 20 rounds holds against the slopes:
        # normal's lanes of small a, whose closed-form estimate is poor or
        # NaN, take a polished one.  Each round's 300 lanes walk from level
        # 0, and take its first 16 levels from the table
        assert self.lane_work(caplog, lambda: run_replication(preset(name), range(50))) == (0, 540, 20 * 16)

    def test_a_lane_failing_its_guard_at_tol_walks_in_floats(self, caplog):
        # the fixed preset beside a = 1e-303, whose guard fails at tol but at
        # no midpoint on its path: each of the 82 rounds' 7 lanes walks in
        # floats below the table's 16 levels, guarded at its lowest visited
        # midpoint, and takes no lockstep walk
        fixed = preset("fixed")
        users = (*fixed.users, SigmoidalUserSpec(a=Fixed(1e-303), b=Fixed(50.0)))
        scenario = replace(fixed, delta=1e-6, max_iterations=200, users=users)
        results = []
        assert self.lane_work(caplog, lambda: results.append(run(scenario))) == (0, 2214, 82 * 16)
        (result,) = results
        assert (result.stop_reason, result.converged_at) == ("converged", 82)
        assert_cells_solved(scenario, result)

    def test_a_lane_failing_its_guard_at_tol_walks_in_lockstep(self, caplog):
        # the fixed preset tiled 14 times with each copy's a made distinct,
        # at R = 1400, beside a = 1e-303: each of the 86 rounds' 46 lanes
        # walks 31 levels in lockstep, 16 of them looked up, and is guarded
        # on its path
        fixed = preset("fixed")
        users = tuple(replace(u, a=Fixed(u.a.value * (1 + j / 1000))) if isinstance(u, SigmoidalUserSpec) else u
                      for j in range(14) for u in fixed.users)
        users = (*users, SigmoidalUserSpec(a=Fixed(1e-303), b=Fixed(50.0)))
        scenario = replace(fixed, capacity=1400.0, delta=1e-6, max_iterations=200, users=users)
        results = []
        lanes, _, *work = batch_line(caplog, lambda: results.append(run(scenario)))[:5]
        assert (lanes, work) == (46, [0, 86 * 31, 86 * 16])
        (result,) = results
        assert (result.stop_reason, result.converged_at) == ("converged", 86)
        assert_cells_solved(scenario, result)

    @pytest.mark.parametrize("name", ["normal", "triangular"])
    def test_drawn_few_lane_batches_solve_no_lane_again(self, caplog, name):
        # 3 runs' 18 lanes walk in floats: 27 levels a round, 16 looked up
        assert self.lane_work(caplog, lambda: run_replication(preset(name), [0, 1, 2])) == (0, 540, 20 * 16)

    def test_a_drawn_batch_builds_one_lane_paths(self, monkeypatch):
        # each round's draw is set into the paths of the batch's one layout
        built, set_rounds = [], []

        class Counted(rateauction.engine.LanePaths):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

            def set_sigmoid(self, a, b):
                set_rounds.append(a)
                super().set_sigmoid(a, b)

        monkeypatch.setattr(rateauction.engine, "LanePaths", Counted)
        results = run_replication(preset("normal"), range(50))
        # the constructor sets round 1's, and each later round sets its own
        assert (len(built), len(set_rounds)) == (1, 20)
        monkeypatch.undo()
        assert results == run_replication(preset("normal"), range(50))

    @pytest.mark.parametrize("capacity, levels, walks", [(1e-4, 7, 14), (0.03, 15, 18)])
    def test_table_levels_stop_above_tol_in_a_drawn_batch(self, caplog, capacity, levels, walks):
        # 4 runs of 6 lanes walk in floats, and every round in which some
        # lane is not clamped at R looks up the levels of the table whose
        # brackets are all wider than tol
        scenario = replace(preset("normal"), capacity=capacity)
        results = []
        counts = batch_counts(caplog, lambda: results.extend(run_replication(scenario, range(4))))
        rounds = np.zeros(20, dtype=bool)
        for result in results:
            assert_cells_solved(scenario, result)
            rounds |= (result.rates < capacity).any(axis=1)
        assert counts[2] == levels * walks == levels * np.count_nonzero(rounds)


class TestGuardFailingDraws:
    """A drawn a whose guard fails at tol is screened when it is set into the
    paths, and its lanes are guarded on their paths; one that fails at R
    fails its round, and the scalar replay names it."""

    USERS = (SigmoidalUserSpec(a=Normal(0.5, 0.5), b=Normal(10.0, 2.0)), LogarithmicUserSpec(k=1.0, r_max=100.0))

    def scenario(self, monkeypatch, floor):
        # the draws' clamp of a lowered to floor: a*tol underflows for 1e-305,
        # and a*R too for 1e-320
        monkeypatch.setattr(rateauction.sampling, "MIN_STEEPNESS", floor)
        return Scenario(capacity=100.0, delta=0.01, max_iterations=40, seed=0, users=self.USERS)

    def test_failing_at_tol(self, monkeypatch):
        scenario = self.scenario(monkeypatch, 1e-305)
        results = run_replication(scenario, range(10))  # 20 lanes
        assert sum(np.count_nonzero(r.a == 1e-305) for r in results) > 10
        for result in results:
            assert_cells_solved(scenario, result)

    def test_failing_at_r(self, monkeypatch):
        # seed 2 is the first whose a is clamped, in round 2: set into the
        # paths built in round 1, it fails there
        from rateauction import SimulationError

        scenario = self.scenario(monkeypatch, 1e-320)
        sets = []
        set_sigmoid = rateauction.engine.LanePaths.set_sigmoid
        monkeypatch.setattr(rateauction.engine.LanePaths, "set_sigmoid",
                            lambda paths, a, b: sets.append(len(sets)) or set_sigmoid(paths, a, b))
        with pytest.raises(SimulationError) as info:
            run_replication(scenario, [0, 2, 5, 6, 8, 9, 10, 11])
        assert str(info.value) == (
            "user 1 failed at iteration 2: log-slope undefined: a*r underflows for a=1e-320, r=100.0"
        )
        assert sets == [0, 1]  # the constructor's, and round 2's


def assert_cells_solved(scenario, result):
    """Every round's rate of every user is its own ``solve_rate`` at that
    round's price, bit for bit, and its bid is ``price * rate``."""
    capacity = scenario.capacity
    for n, price in enumerate(result.prices.tolist()):
        params = zip(result.a[n].tolist(), result.b[n].tolist())
        utilities = [SigmoidalUtility(*next(params)) if isinstance(spec, SigmoidalUserSpec)
                     else spec.initial_utility(capacity) for spec in scenario.users]
        expected = np.array([solve_rate(u, price, capacity) for u in utilities])
        assert result.rates[n].tobytes() == expected.tobytes()
        assert result.bids[n].tobytes() == (price * expected).tobytes()


def distinct_lanes(users) -> int:
    """The lanes one run of ``users`` solves: one per fixed (a, b), one per
    k, and one per drawn user."""
    sigmoid = [u for u in users if isinstance(u, SigmoidalUserSpec)]
    fixed = {(u.a.value, u.b.value) for u in sigmoid if isinstance(u.a, Fixed) and isinstance(u.b, Fixed)}
    drawn = len(sigmoid) - sum(isinstance(u.a, Fixed) and isinstance(u.b, Fixed) for u in sigmoid)
    return len(fixed) + len({u.k for u in users if isinstance(u, LogarithmicUserSpec)}) + drawn


USER_SPECS = st.one_of(
    st.builds(lambda a, b: SigmoidalUserSpec(a=Fixed(a), b=Fixed(b)),
              st.sampled_from([0.5, 2.0, 15.0]), st.sampled_from([10.0, 20.0, 35.0])),
    st.sampled_from([SigmoidalUserSpec(a=Normal(3.0, 1.0), b=Normal(25.0, 5.0)),
                     SigmoidalUserSpec(a=Triangular(1.0, 4.0, 8.0), b=Fixed(20.0))]),
    st.builds(LogarithmicUserSpec, k=st.sampled_from([0.5, 1.0, 3.0]), r_max=st.sampled_from([50.0, 100.0])),
)


@st.composite
def tiled_mixed_scenarios(draw):
    """Fixed, drawn and half-drawn sigmoid users and logarithmic users,
    tiled 1-4 times and shuffled, so equal users are not adjacent.  Always
    held: a logarithmic pair with equal k and different r_max, and a fixed
    a beside a drawn b next to a fixed user with the same a."""
    users = draw(st.lists(USER_SPECS, max_size=5)) + [
        LogarithmicUserSpec(k=1.0, r_max=50.0),
        LogarithmicUserSpec(k=1.0, r_max=100.0),
        SigmoidalUserSpec(a=Fixed(15.0), b=Normal(20.0, 2.0)),
        SigmoidalUserSpec(a=Fixed(15.0), b=Fixed(20.0)),
    ]
    users = draw(st.permutations(users * draw(st.integers(1, 4))))
    return Scenario(capacity=25.0 * len(users), delta=0.5, max_iterations=6, seed=0, users=tuple(users),
                    allow_early_stop=draw(st.sampled_from([None, True])))


class TestSharedLanes:
    """Within a run, the fixed sigmoid users with equal (a, b) share one
    lane, as do the logarithmic users with equal k; every drawn user has
    its own.  Every user still gets its own solve's rate."""

    def test_tiled_fixed_preset_solves_six_lanes(self, caplog):
        fixed = preset("fixed")
        scenario = replace(fixed, capacity=10_000.0, users=fixed.users * 100)
        # each of the 20 rounds takes its 6 lanes' 34 levels from level 0,
        # the first 16 from the table
        assert batch_line(caplog, lambda: run(scenario))[:5] == (6, 600, 0, 20 * 34, 20 * 16)

    def test_drawn_users_keep_their_own_lanes(self, caplog):
        # 9 drawn users of their own beside 3 logarithmic lanes, for 5 runs
        normal = preset("normal")
        scenario = replace(normal, users=normal.users * 3)
        assert batch_line(caplog, lambda: run_replication(scenario, range(5)))[:2] == (60, 90)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(scenario=tiled_mixed_scenarios())
    def test_every_cell_is_its_own_solve(self, caplog, scenario):
        seeds = [0, 1, 2]
        results = []
        lanes, cells = batch_line(caplog, lambda: results.extend(run_replication(scenario, seeds)))[:2]
        assert (lanes, cells) == (3 * distinct_lanes(scenario.users), 3 * len(scenario.users))
        for result in results:
            assert_cells_solved(scenario, result)
        assert results == [run(replace(scenario, seed=s)) for s in seeds]

    def test_distinct_copies_walk_in_lockstep(self, caplog):
        # the fixed preset tiled 6 times with each copy's a made distinct:
        # 18 sigmoid lanes and the 3 shared logarithmic ones a run, so that
        # two runs' solve walks in lockstep, 30 levels in each of the 40
        # rounds, 16 of them looked up, and every lane's two final ends hold
        fixed = preset("fixed")
        users = tuple(replace(u, a=Fixed(u.a.value * (1 + j / 1000))) if isinstance(u, SigmoidalUserSpec) else u
                      for j in range(6) for u in fixed.users)
        scenario = replace(fixed, capacity=600.0, delta=1e-6, max_iterations=40, users=users)
        results = []
        lanes, cells, *work = batch_line(caplog, lambda: results.extend(run_replication(scenario, [0, 1])))[:5]
        assert (lanes, cells) == (2 * 21, 2 * 36)
        assert lanes >= rateauction.ue.LANE_BY_LANE_BELOW and work == [0, 40 * 30, 40 * 16]
        for result in results:
            assert_cells_solved(scenario, result)
        assert results == [run(replace(scenario, seed=s)) for s in (0, 1)]


def lane_cases():
    """The scenarios and seeds of the lane contract, and the lanes a run."""
    fixed, normal = preset("fixed"), preset("normal")
    mixed = (
        SigmoidalUserSpec(a=Fixed(0.05), b=Normal(20.0, 2.0)),
        SigmoidalUserSpec(a=Normal(10.0, 2.0), b=Fixed(150.0)),
        LogarithmicUserSpec(k=1.0, r_max=100.0),
    )
    cases = {name: (preset(name), [0, 1], 6) for name in ("fixed", "normal", "triangular")}
    cases["fixed-tiled100-R10000"] = (replace(fixed, capacity=10_000.0, users=fixed.users * 100), [0], 6)
    cases["normal-tiled3"] = (replace(normal, users=normal.users * 3), [0, 1], 12)
    # runs settle between rounds 6 and 16, leaving the batch
    cases["normal-early-stop"] = (replace(normal, delta=1.0, allow_early_stop=True, max_iterations=50),
                                  list(range(10)), 6)
    cases["mixed-stochastic"] = (replace(normal, users=mixed), [1, 0], 3)
    return cases


class TestLaneContract:
    """Users with equal ``lane`` entries have bit-equal rates, bids, a and b
    columns and final rates; a lane holds one family, the sigmoid lanes
    first, and a batch's results share one read-only ``lane``."""

    @pytest.mark.parametrize("name", sorted(lane_cases()))
    def test_users_of_a_lane_are_bit_equal(self, name):
        scenario, seeds, lanes = lane_cases()[name]
        results = run_replication(scenario, seeds)
        lane, sig = results[0].lane, results[0].sigmoid
        assert all(result.lane is lane for result in results) and not lane.flags.writeable
        assert sorted(set(lane.tolist())) == list(range(lanes))
        assert lane[sig].max(initial=-1) < lane[~sig].min(initial=lanes)
        for result in results:
            params = np.zeros((2, *result.rates.shape))
            params[:, :, sig] = result.a, result.b
            columns = np.concatenate((result.rates, result.bids, *params)).view(np.uint64)
            finals = np.array([result.final_rates[uid] for uid in range(1, len(lane) + 1)]).view(np.uint64)
            first = np.unique(lane, return_index=True)[1][lane]  # each user's lane's first user
            assert (columns == columns[:, first]).all()
            assert (finals == finals[first]).all()


class TestSamplerCounts:
    """The batch's DEBUG line reports the sampler's blocks, the cells they
    hold, and the cells redrawn off the ziggurat's fast path."""

    def test_normal_replicate_draws_one_block(self, caplog):
        # 20 rounds of 50 runs and 3 drawn users fit one block
        execute = lambda: run_replication(preset("normal"), range(50))
        assert batch_counts(caplog, execute)[3:] == (1, 3000, 95)

    def test_one_round_per_block(self, caplog, monkeypatch):
        monkeypatch.setattr(rateauction.sampling, "BLOCK_CELLS", 50 * 3)
        execute = lambda: run_replication(preset("normal"), range(50))
        assert batch_counts(caplog, execute)[3:] == (20, 3000, 95)

    def test_fixed_batches_draw_nothing(self, caplog):
        assert batch_counts(caplog, lambda: run(preset("fixed")))[3:] == (0, 0, 0)

    def test_early_stop_draws_at_most_twice_the_cells_used(self, caplog):
        # every run stops by round 21 of 200; blocks of 1, 2, 4, 8 and 16
        # rounds draw 3,378 cells where one block would draw 16,350
        scenario = replace(preset("normal"), allow_early_stop=True, delta=0.5, max_iterations=200)
        results = []
        counts = batch_counts(caplog, lambda: results.extend(run_replication(scenario, range(50))))
        used = sum(r.iterations for r in results) * 3
        assert max(r.iterations for r in results) < 200
        assert counts[3] == 5
        assert counts[4] <= 2 * used


class TestErrorContext:
    def test_solver_failure_names_user_and_iteration(self):
        # user 1's root lies near b = 1e10, where the float spacing exceeds
        # the solver tolerance 1e-6: no bracket there ever gets that narrow,
        # so the bisection cap fires on the first solve
        from rateauction import SimulationError

        users = (SigmoidalUserSpec(a=Fixed(15.0), b=Fixed(1e10)), LogarithmicUserSpec(k=1.0, r_max=100.0))
        scenario = Scenario(capacity=2e10, delta=1e-2, max_iterations=20, seed=0, users=users)
        start = time.perf_counter()
        with pytest.raises(SimulationError) as info:
            run(scenario)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == (
            "user 1 failed at iteration 1: no convergence after 200 bisection steps "
            "(price=1.0, capacity=20000000000.0, tol=1e-06)"
        )

    def test_deep_domain_failure_names_user_with_the_scalar_message(self):
        # users 2 and 3 clamp at R, so the price doubles every round; user 1's
        # root falls below 0.022, where a*r underflows, in round 7
        from rateauction import SimulationError

        users = (
            SigmoidalUserSpec(a=Fixed(1e-306), b=Fixed(50.0)),
            SigmoidalUserSpec(a=Fixed(1e10), b=Fixed(100.0)),
            SigmoidalUserSpec(a=Fixed(1e10), b=Fixed(100.0)),
        )
        scenario = Scenario(capacity=100.0, delta=1e-6, max_iterations=50, seed=0, users=users)
        with pytest.raises(SimulationError) as info:
            run(scenario)
        assert str(info.value) == (
            "user 1 failed at iteration 7: log-slope undefined: a*r underflows for a=1e-306, r=0.012208031127929687"
        )

    def test_a_warning_raised_as_an_error_is_not_a_simulation_error(self, monkeypatch):
        # only the solver's own errors name a user; a warning turned into an
        # error propagates as itself, from the lane solve and from the
        # scalar reference alike
        from rateauction import SimulationError

        def warning_slope(*args, **kwargs):
            warnings.warn("overflow in a slope kernel", RuntimeWarning)
            return slope(*args, **kwargs)

        slope = rateauction.utility.sigmoid_slope
        monkeypatch.setattr(rateauction.ue, "sigmoid_slope", warning_slope)
        monkeypatch.setattr(rateauction.utility, "sigmoid_slope", warning_slope)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="overflow in a slope kernel") as info:
                run(preset("fixed"))
        assert not isinstance(info.value, SimulationError)

    @pytest.mark.parametrize("name", ["fixed", "normal"])
    def test_a_lane_failure_the_scalar_replay_passes_is_an_assertion(self, monkeypatch, name):
        # the replay redraws the normal preset's users and solves every
        # user cleanly: a failure only the lane solve meets names no user
        def failing(*args, **kwargs):
            raise ValueError("lane failure")

        monkeypatch.setattr(rateauction.engine, "solve_lanes", failing)
        with pytest.raises(AssertionError, match=r"^round 1 failed only in the batch$") as info:
            run(preset(name))
        assert str(info.value.__context__) == "lane failure"

    def test_r_below_the_solver_tolerance_is_refused_before_any_round(self):
        # the bracket [tol, R] would be empty: every user would take R/2.
        # The scenario refuses it, so no batch is ever built
        for name in ("fixed", "normal"):
            with pytest.raises(SpecError, match=r"^R must be at least the solver tolerance 1e-06, got 1e-07$") as info:
                replace(preset(name), capacity=1e-7)
            assert info.value.field == "R"
        # R at the tolerance runs, and its allocation fills R
        assert sum(run(replace(preset("fixed"), capacity=1e-6)).final_rates.values()) == pytest.approx(1e-6)

    def test_first_failed_draw_in_run_then_user_order(self):
        # at iteration 1, seed 2 draws cleanly, seed 3 fails on user 3's b
        # and seed 5 on user 1's a*R: the error names seed 3's cell, which a
        # user-major scan would have passed over for seed 5's
        from rateauction import SimulationError

        users = (
            SigmoidalUserSpec(a=Normal(1.797e306, 2e305), b=Fixed(20.0)),
            LogarithmicUserSpec(k=1.0, r_max=100.0),
            SigmoidalUserSpec(a=Fixed(5.0), b=Normal(1.797e308, 1e306)),
        )
        scenario = Scenario(capacity=100.0, delta=1e-2, max_iterations=5, seed=0, users=users)
        with pytest.raises(SimulationError) as info:
            run_replication(scenario, [2, 3, 5])
        assert str(info.value) == "user 3 failed at iteration 1: NORM(1.797e+308,1e+306) drew inf"
        with pytest.raises(SimulationError, match=r"^user 1 failed at iteration 1: a\*R must be finite"):
            run(replace(scenario, seed=5))

    @pytest.mark.parametrize(
        "b,message",
        [
            (Normal(1.797e308, 2e306), "NORM(1.797e+308,2e+306) drew inf"),
            (Fixed(20.0), "a*R must be finite, got 1.9975605680337667e+306*100.0"),
        ],
        ids=["b-before-a-times-r", "a-times-r"],
    )
    def test_within_a_cell_a_then_b_then_a_times_r(self, b, message):
        # seed 5, iteration 1: a's draw overflows a*R and b's draw is inf
        from rateauction import SimulationError

        users = (SigmoidalUserSpec(a=Normal(1.797e306, 2e305), b=b), LogarithmicUserSpec(k=1.0, r_max=100.0))
        scenario = Scenario(capacity=100.0, delta=1e-2, max_iterations=5, seed=5, users=users)
        with pytest.raises(SimulationError) as info:
            run(scenario)
        assert str(info.value) == f"user 1 failed at iteration 1: {message}"

    def test_draw_failure_is_reported_in_its_own_round(self):
        # a*R overflows for about half of NORM(1.797e306, 2e305)'s draws;
        # seeds 2, 4 and 16 first fail at iterations 5, 6 and 4.  The batch
        # draws all 8 rounds in one block at round 1, and still fails in
        # round 4; a solve failure in round 1 (a*r underflows for user 3's
        # a = 1e-320 at R) comes first, and a cap of 3 rounds meets no
        # failed draw
        from rateauction import SimulationError

        users = (SigmoidalUserSpec(a=Normal(1.797e306, 2e305), b=Fixed(20.0)), LogarithmicUserSpec(k=1.0, r_max=100.0))
        scenario = Scenario(capacity=100.0, delta=1e-2, max_iterations=8, seed=0, users=users)
        with pytest.raises(SimulationError, match=r"^user 1 failed at iteration 4: a\*R must be finite"):
            run_replication(scenario, [2, 4, 16])
        underflowing = replace(scenario, users=users + (SigmoidalUserSpec(a=Fixed(1e-320), b=Fixed(20.0)),))
        with pytest.raises(SimulationError, match=r"^user 3 failed at iteration 1: log-slope undefined"):
            run_replication(underflowing, [2, 4, 16])
        assert [r.iterations for r in run_replication(replace(scenario, max_iterations=3), [2, 4, 16])] == [3, 3, 3]

    def test_non_finite_a_is_named_before_b(self):
        from rateauction import SimulationError

        users = (SigmoidalUserSpec(a=Normal(1.797e308, 1e306), b=Normal(1.797e308, 2e306)),)
        scenario = Scenario(capacity=100.0, delta=1e-2, max_iterations=5, seed=5, users=users)
        with pytest.raises(SimulationError) as info:
            run(scenario)
        assert str(info.value) == "user 1 failed at iteration 1: NORM(1.797e+308,1e+306) drew inf"


class TestScenarioValidation:
    def test_rejects_bad_fields(self):
        users = (LogarithmicUserSpec(k=1.0, r_max=100.0),)
        with pytest.raises(ValueError):
            Scenario(capacity=0.0, delta=1e-2, max_iterations=20, seed=0, users=users)
        with pytest.raises(ValueError):
            Scenario(capacity=100.0, delta=0.0, max_iterations=20, seed=0, users=users)
        with pytest.raises(ValueError):
            Scenario(capacity=100.0, delta=1e-2, max_iterations=0, seed=0, users=users)
        with pytest.raises(ValueError):
            Scenario(capacity=100.0, delta=1e-2, max_iterations=20, seed=-1, users=users)
        with pytest.raises(ValueError):
            Scenario(capacity=100.0, delta=1e-2, max_iterations=20, seed=0, users=())
        with pytest.raises(ValueError, match="finite"):
            Scenario(capacity=float("inf"), delta=1e-2, max_iterations=20, seed=0, users=users)
        with pytest.raises(ValueError, match="finite"):
            Scenario(capacity=100.0, delta=float("nan"), max_iterations=20, seed=0, users=users)
        with pytest.raises(ValueError, match=r"k\*R"):
            Scenario(
                capacity=1e10, delta=1e-2, max_iterations=20, seed=0,
                users=(LogarithmicUserSpec(k=1e300, r_max=1e-10),),
            )
        # a*r and a*(r - b) reach a*max(b, R); a drawn b is clamped to R
        for a, b, capacity in ((1e300, Fixed(1e10), 1.0), (1e300, Fixed(1.0), 1e10), (1e300, Normal(5.0, 1.0), 1e10)):
            with pytest.raises(SpecError, match=r"a\*max\(b, R\) must be finite") as info:
                Scenario(
                    capacity=capacity, delta=1e-2, max_iterations=20, seed=0,
                    users=(LogarithmicUserSpec(k=1.0, r_max=1.0), SigmoidalUserSpec(a=Fixed(a), b=b)),
                )
            assert info.value.field == "users[1].a"
        Scenario(capacity=1e10, delta=1e-2, max_iterations=20, seed=0,
                 users=(SigmoidalUserSpec(a=Fixed(1e290), b=Fixed(1e10)),))

    @pytest.mark.parametrize(
        "field, changes, message",
        [
            ("seed", {"seed": 1.5}, "seed must be an integer, got 1.5"),
            ("seed", {"seed": None}, "seed must be an integer, got None"),
            ("max_iterations", {"max_iterations": 2.5}, "max_iterations must be an integer, got 2.5"),
            ("max_iterations", {"max_iterations": None}, "max_iterations must be an integer, got None"),
            ("R", {"capacity": "100"}, "R must be finite and > 0, got '100'"),
            ("delta", {"delta": None}, "delta must be finite and > 0, got None"),
            # a bool is no number, though Python counts it as an int
            ("seed", {"seed": True}, "seed must be an integer, got True"),
            ("max_iterations", {"max_iterations": True}, "max_iterations must be an integer, got True"),
            ("R", {"capacity": True}, "R must be finite and > 0, got True"),
            ("delta", {"delta": True}, "delta must be finite and > 0, got True"),
            pytest.param("seed", {"seed": 10**400}, f"seed is too large for a float, got {10**400}", id="seed-401-digits"),
            ("allow_early_stop", {"allow_early_stop": "no"}, "allow_early_stop must be a bool or None, got 'no'"),
            ("allow_early_stop", {"allow_early_stop": 1}, "allow_early_stop must be a bool or None, got 1"),
            ("users[0]", {"users": ("x",)}, "users[0] must be a user spec, got 'x'"),
            # a spec that refuses its own arguments, built inside the check
            ("a", lambda: SigmoidalUserSpec(a=15.0, b=Fixed(20.0)), "a must be a FIXED, NORM or TRIA spec, got 15.0"),
            ("value", lambda: Fixed(None), "value must be a finite number, got FIXED(None)"),
            ("mu", lambda: Normal("1", 2.0), "mu must be a finite number, got NORM('1',2.0)"),
            pytest.param("k", lambda: LogarithmicUserSpec(k=10**400, r_max=100.0), f"k must be finite and > 0, got {10**400}",
                         id="k-401-digits"),
            ("users", {"users": 5}, "users must be a sequence of user specs, got 5"),
        ],
    )
    @pytest.mark.parametrize("name", ["fixed", "normal"])
    def test_wrongly_typed_numbers_name_their_field(self, name, field, changes, message):
        # before any round: a float seed would reach the sampler, or run
        with pytest.raises(SpecError, match=rf"^{re.escape(message)}$") as info:
            changes() if callable(changes) else replace(preset(name), **changes)
        assert info.value.field == field

    def test_stored_values_are_floats_and_ints(self):
        scenario = Scenario(capacity=100, delta=1, max_iterations=np.int32(5), seed=np.int64(3),
                            users=[LogarithmicUserSpec(k=1, r_max=100), SigmoidalUserSpec(a=Fixed(15), b=Normal(20, 2))])
        log, sig = scenario.users
        values = (scenario.capacity, scenario.delta, log.k, log.r_max, sig.a.value, sig.b.mu, sig.b.sigma)
        assert {type(v) for v in values} == {float}
        assert type(scenario.max_iterations) is int and type(scenario.seed) is int

    def test_numpy_integers_pass(self):
        scenario = replace(preset("fixed"), seed=np.int64(3), max_iterations=np.int32(5))
        assert run(scenario) == run(replace(preset("fixed"), seed=3, max_iterations=5))

    def test_user_specs_reject_values_no_run_can_use(self):
        with pytest.raises(ValueError, match="> 0"):
            SigmoidalUserSpec(a=Fixed(-1.0), b=Fixed(10.0))
        with pytest.raises(ValueError, match="> 0"):
            SigmoidalUserSpec(a=Fixed(5.0), b=Fixed(0.0))
        SigmoidalUserSpec(a=Normal(-1.0, 2.0), b=Fixed(10.0))  # draws are clamped
        with pytest.raises(ValueError, match="finite"):
            LogarithmicUserSpec(k=float("nan"), r_max=100.0)
        with pytest.raises(ValueError, match="> 0"):
            LogarithmicUserSpec(k=1.0, r_max=-1.0)
        with pytest.raises(ValueError, match=r"k\*r_max"):
            LogarithmicUserSpec(k=1e308, r_max=100.0)

    def test_initial_utility_refuses_drawn_parameters(self):
        fixed = SigmoidalUserSpec(a=Fixed(5.0), b=Fixed(20.0))
        assert fixed.initial_utility(100.0) == SigmoidalUtility(a=5.0, b=20.0)
        cases = [
            (SigmoidalUserSpec(a=Normal(0.05, 1.0), b=Normal(250.0, 1.0)), "a", r"NORM\(0\.05,1\.0\)"),
            (SigmoidalUserSpec(a=Fixed(5.0), b=Triangular(18.0, 20.0, 22.0)), "b", r"TRIA\(18\.0,20\.0,22\.0\)"),
        ]
        for spec, field, drawn_from in cases:
            with pytest.raises(SpecError, match=rf"^{field} is drawn from {drawn_from}$") as info:
                spec.initial_utility(100.0)
            assert info.value.field == field
