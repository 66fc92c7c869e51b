"""Engine tests: full-auction behavior on the reference scenarios, stop
conditions, determinism, and the fixed-point identities."""

import logging
import re
import time
from dataclasses import replace

import numpy as np
import pytest

import rateauction.engine
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
        result = run(scenario, solver_tol=1e-9)
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
        # every cell's stream comes from one batched hash per round, never
        # from a SeedSequence built per cell
        expected = [run(replace(preset("triangular"), seed=s)) for s in (0, 1)]

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.random.SeedSequence built during a run")

        monkeypatch.setattr(np.random, "SeedSequence", refuse)
        assert run_replication(preset("triangular"), [0, 1]) == expected


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


class TestLanePaths:
    """A batch whose parameters stay replays each lane's last bisection
    path; one DEBUG line per batch reports the levels walked and replayed."""

    @staticmethod
    def lane_work(caplog, execute) -> tuple[int, int]:
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="rateauction.engine"):
            execute()
        (message,) = [r.getMessage() for r in caplog.records if r.getMessage().startswith("lane solve:")]
        walked, replayed = map(int, re.fullmatch(r"lane solve: (\d+) levels walked, (\d+) replayed", message).groups())
        return walked, replayed

    def test_fixed_preset_walks_about_half_the_levels(self, caplog):
        scenario = replace(preset("fixed"), delta=1e-6, max_iterations=200)
        counts = [self.lane_work(caplog, lambda: run(scenario)) for _ in range(2)]
        assert counts[0] == counts[1] == (1165, 1446)
        # solved from level 0, each of the 87 rounds walks 27 levels
        assert counts[0][0] <= 0.55 * 87 * 27

    def test_drawn_batches_replay_nothing(self, caplog):
        for name in ("normal", "triangular"):
            walked, replayed = self.lane_work(caplog, lambda: run_replication(preset(name), [0, 1, 2]))
            assert walked > 0
            assert replayed == 0


class TestErrorContext:
    def test_solver_failure_names_user_and_iteration(self):
        # tol below the float spacing at R = 100: no bracket ever gets that
        # narrow, so the bisection cap fires on the first solve
        from rateauction import SimulationError

        start = time.perf_counter()
        with pytest.raises(SimulationError) as info:
            run(preset("fixed"), solver_tol=1e-20)
        assert time.perf_counter() - start < 1.0
        assert str(info.value) == (
            "user 1 failed at iteration 1: no convergence after 200 bisection steps "
            "(price=1.0, capacity=100.0, tol=1e-20)"
        )

    def test_replication_failure_names_user_and_iteration(self):
        from rateauction import SimulationError

        with pytest.raises(SimulationError, match=r"^user 1 failed at iteration 1: tol must be > 0"):
            run_replication(preset("normal"), [0, 1], solver_tol=0.0)

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

    def test_stochastic_flags(self):
        assert preset("fixed").is_stochastic is False
        assert preset("normal").is_stochastic is True
        assert preset("fixed").early_stop_enabled is True
        assert preset("normal").early_stop_enabled is False
        assert replace(preset("normal"), allow_early_stop=True).early_stop_enabled is True

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
