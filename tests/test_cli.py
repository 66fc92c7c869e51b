"""CLI and trace-emission tests."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rateauction.engine
from rateauction import (
    RunResult,
    emit_trace,
    preset,
    render_trace,
    run,
    run_replication,
    save_scenario,
    scenario_to_json,
)
from rateauction.cli import main
from rateauction.trace import BLOCK_ROWS, TRACE_HEADER, format_number


def write_scenario(tmp_path, name="scenario.json", **overrides):
    doc = {
        "R": 50.0,
        "delta": 1e-8,
        "max_iterations": 3000,
        "seed": 0,
        "allow_early_stop": None,
        "users": [
            {"type": "sigmoidal", "a": "FIXED(5.0)", "b": "FIXED(10.0)"},
            {"type": "logarithmic", "k": 0.1, "r_max": 50.0},
        ],
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def reference_render(result) -> str:
    """The trace file with one format call per field, from the records."""
    lines = [TRACE_HEADER]
    for rec in result.trace:
        lines.append(
            ",".join(
                (
                    str(rec.iteration),
                    str(rec.user_id),
                    format_number(rec.price),
                    format_number(rec.rate),
                    format_number(rec.bid),
                    format_number(rec.a) if rec.a is not None else "",
                    format_number(rec.b) if rec.b is not None else "",
                )
            )
        )
    lines.append(f"# stop_reason,{result.stop_reason}")
    lines.append(
        f"# converged_at,{result.converged_at if result.converged_at is not None else ''}"
    )
    lines.append(f"# iterations,{result.iterations}")
    lines.append(f"# final_price,{format_number(result.final_price)}")
    for uid in sorted(result.final_rates):
        lines.append(f"# final_rate,{uid},{format_number(result.final_rates[uid])}")
    return "\n".join(lines) + "\n"


# values at the nine-digit rounding boundary (9.9999999995 prints as 10),
# scaled across the exponent range, subnormals included
ROUND_UP = st.builds(
    lambda m, e: m * 10.0**e,
    st.sampled_from([9.9999999995, 9.99999999951, 1.0000000005, 4.99999999949, 1.23456789500001]),
    st.integers(-320, 300),
)
NUMBERS = st.one_of(st.floats(width=64), ROUND_UP, st.sampled_from([5e-324, 2.2250738585072014e-308, -0.0]))
FAMILIES = {
    "sigmoid-only": st.lists(st.just(True), min_size=1, max_size=12),
    "log-only": st.lists(st.just(False), min_size=1, max_size=12),
    "mixed": st.lists(st.booleans(), min_size=2, max_size=12).filter(lambda f: 0 < sum(f) < len(f)),
}


@st.composite
def run_results(draw, family):
    sigmoid = np.array(draw(FAMILIES[family]))
    users, nsig = len(sigmoid), int(sigmoid.sum())
    rounds = draw(st.integers(1, 3))

    def matrix(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(NUMBERS, min_size=size, max_size=size)), dtype=float).reshape(shape)

    converged_at = draw(st.one_of(st.none(), st.just(rounds)))
    return RunResult(
        stop_reason="converged" if converged_at else "iteration_cap",
        converged_at=converged_at,
        iterations=rounds,
        final_price=draw(NUMBERS),
        final_rates=dict(enumerate(matrix(users).tolist(), start=1)),
        prices=matrix(rounds),
        rates=matrix(rounds, users),
        bids=matrix(rounds, users),
        a=matrix(rounds, nsig),
        b=matrix(rounds, nsig),
        sigmoid=sigmoid,
    )


class TestRendererMatchesPerFieldFormatting:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_byte_equal(self, family, data):
        result = data.draw(run_results(family))
        assert render_trace(result) == reference_render(result)

    @pytest.mark.parametrize("name", ["fixed", "normal", "triangular"])
    def test_presets(self, name):
        result = run(replace(preset(name), users=preset(name).users * 2))  # user ids up to 12
        assert render_trace(result) == reference_render(result)


class TestStreamedEmission:
    def test_run_longer_than_a_block(self, tmp_path):
        fixed = preset("fixed")
        scenario = replace(fixed, capacity=10_000.0, users=fixed.users * 100, max_iterations=30)
        result = run(scenario)
        assert result.rates.size > BLOCK_ROWS
        path = tmp_path / "trace.csv"
        emit_trace(result, path)
        text = render_trace(result)
        assert path.read_bytes() == text.encode("utf-8")
        assert text == reference_render(result)


class TestNoRecordsOnTheOutputPath:
    def test_runs_render_and_emit_without_trace_records(self, tmp_path, monkeypatch, capsys):
        # a TraceRecord is built only when .trace is read, never by the
        # runs, the renderer, the writer or the CLI
        def refuse(*args, **kwargs):
            raise AssertionError("TraceRecord built")

        monkeypatch.setattr(rateauction.engine, "TraceRecord", refuse)
        result = run(preset("normal"))
        results = run_replication(preset("triangular"), [0, 1])
        render_trace(result)
        emit_trace(results[1], tmp_path / "trace.csv")
        assert main(["run", "--preset", "fixed", "--output", str(tmp_path / "run.csv")]) == 0
        assert main(["replicate", "--preset", "normal", "--seeds", "2", "--output-dir", str(tmp_path)]) == 0
        with pytest.raises(AssertionError, match="TraceRecord built"):
            result.trace


class TestTraceRendering:
    def test_header_rows_and_summary(self):
        result = run(preset("fixed"))
        text = render_trace(result)
        lines = text.splitlines()
        assert lines[0] == TRACE_HEADER
        data = [l for l in lines if not l.startswith("#") and l != TRACE_HEADER]
        assert len(data) == 6 * result.iterations
        first = data[0].split(",")
        assert first[0] == "1" and first[1] == "1"
        assert first[5] == "" and first[6] == ""  # log user: a, b empty
        sigmoid_row = data[3].split(",")
        assert sigmoid_row[5] == "15" and sigmoid_row[6] == "20"
        summary = [l for l in lines if l.startswith("#")]
        assert "# stop_reason,iteration_cap" in summary
        assert "# iterations,20" in summary
        assert any(l.startswith("# final_price,") for l in summary)
        assert sum(l.startswith("# final_rate,") for l in summary) == 6

    def test_final_rates_sum_to_capacity(self):
        result = run(preset("fixed"))
        totals = sum(
            float(l.split(",")[2])
            for l in render_trace(result).splitlines()
            if l.startswith("# final_rate,")
        )
        assert totals == pytest.approx(100.0, abs=1e-5)

    def test_rerun_is_byte_identical(self):
        a = render_trace(run(preset("normal")))
        b = render_trace(run(preset("normal")))
        assert a == b

    def test_emit_failure_names_path(self, tmp_path):
        result = run(preset("fixed"))
        bad = tmp_path / "missing-dir" / "trace.csv"
        with pytest.raises(OSError, match="trace.csv"):
            emit_trace(result, bad)


class TestRunCommand:
    def test_preset_run_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["run", "--preset", "fixed", "--output", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "stop_reason: iteration_cap" in captured
        assert out.read_text(encoding="utf-8").startswith(TRACE_HEADER)

    def test_scenario_file_run(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        code = main(["run", "--scenario", str(path)])
        assert code == 0
        assert "stop_reason: converged" in capsys.readouterr().out

    def test_overrides_apply(self, tmp_path, capsys):
        code = main(
            ["run", "--preset", "fixed", "--iterations", "60", "--delta", "0.01"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "stop_reason: converged" in out
        assert "converged_at: 36" in out

    def test_seed_override_changes_stochastic_run(self, tmp_path):
        out1, out2, out3 = (tmp_path / f"t{i}.csv" for i in range(3))
        main(["run", "--preset", "triangular", "--seed", "1", "--output", str(out1)])
        main(["run", "--preset", "triangular", "--seed", "2", "--output", str(out2)])
        main(["run", "--preset", "triangular", "--seed", "1", "--output", str(out3)])
        assert out1.read_bytes() == out3.read_bytes()
        assert out1.read_bytes() != out2.read_bytes()

    def test_scenario_error_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"R": 100, "unknown": 1}', encoding="utf-8")
        assert main(["run", "--scenario", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides,field",
        [
            ({"users": [{"type": "sigmoidal", "a": -1, "b": 10}]}, r"users\[0\]\.a"),
            ({"users": [{"type": "logarithmic", "k": float("nan"), "r_max": 50.0}]}, r"users\[0\]\.k"),
            ({"delta": float("inf")}, "delta"),
            ({"users": [{"type": "logarithmic", "k": 1e308, "r_max": 50.0}]}, r"users\[0\]\.k"),
        ],
        ids=["negative-fixed-a", "nan-k", "infinite-delta", "overflowing-k"],
    )
    def test_invalid_value_exits_2_naming_field(self, tmp_path, capsys, overrides, field):
        path = write_scenario(tmp_path, **overrides)
        assert main(["run", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert re.search(rf"field '{field}'", err), err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2

    def test_unknown_preset_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "bogus"])
        assert exc.value.code == 2


class TestExtremeParameters:
    """A sigmoid user (b = 20) beside a log user (k = 1, r_max = 100), with
    R = 100, delta = 1e-6 and a 300-round cap, whose steepness a lies at
    the edge of the float range."""

    @staticmethod
    def run_with_steepness(tmp_path, a):
        path = write_scenario(
            tmp_path, R=100.0, delta=1e-6, max_iterations=300,
            users=[
                {"type": "sigmoidal", "a": a, "b": "FIXED(20)"},
                {"type": "logarithmic", "k": 1.0, "r_max": 100.0},
            ],
        )
        return main(["run", "--scenario", str(path)])

    def test_subnormal_steepness_fails_naming_the_user(self, tmp_path, capsys):
        # a*r is subnormal, so exp(x) / decay would overflow to inf and the
        # user would clamp at R every round; every warning fails this suite
        assert self.run_with_steepness(tmp_path, "FIXED(1e-320)") == 3
        assert capsys.readouterr().err == (
            "error: user 1 failed at iteration 1: log-slope undefined: a*r underflows for a=1e-320, r=100.0\n"
        )

    def test_tiny_normal_steepness_converges(self, tmp_path, capsys):
        assert self.run_with_steepness(tmp_path, "FIXED(1e-12)") == 0
        out = capsys.readouterr().out
        assert "converged_at: 7\n" in out
        assert "final_rate[1]: 76.859735\nfinal_rate[2]: 23.140265\n" in out

    def test_infinite_triangular_draw_fails_naming_user_and_iteration(self, tmp_path, capsys):
        # hi - lo overflows in the inverse CDF, so every draw is -inf
        assert self.run_with_steepness(tmp_path, "TRIA(-1e308,0,1e308)") == 3
        assert capsys.readouterr().err == (
            "error: user 1 failed at iteration 1: TRIA(-1e+308,0.0,1e+308) drew -inf\n"
        )

    def test_infinite_normal_draw_fails_naming_user_and_iteration(self, tmp_path, capsys):
        # rounds 1 and 2 draw finite a of about 1.7e308 and 1.3e308, whose
        # a*r overflows in the lane arithmetic; round 3 draws inf
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = self.run_with_steepness(tmp_path, "NORM(1e308,1e308)")
        assert code == 3
        assert capsys.readouterr().err == (
            "error: user 1 failed at iteration 3: NORM(1e+308,1e+308) drew inf\n"
        )


class TestVerifyCommand:
    def test_two_user_verification(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        code = main(["verify", "--scenario", str(path), "--step", "1e-3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "user 1:" in out and "user 2:" in out
        assert "log-objective:" in out
        worst = float(out.split("max rate discrepancy: ")[1].strip())
        assert worst <= 0.05

    def test_single_user_exact(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            users=[{"type": "logarithmic", "k": 1.0, "r_max": 50.0}],
        )
        code = main(["verify", "--scenario", str(path), "--step", "1e-2"])
        assert code == 0
        worst = float(capsys.readouterr().out.split("max rate discrepancy: ")[1].strip())
        assert worst <= 1e-6

    def test_three_log_users_tight_objective_gap(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            R=30.0,
            users=[
                {"type": "logarithmic", "k": 1.0, "r_max": 30.0},
                {"type": "logarithmic", "k": 0.1, "r_max": 30.0},
                {"type": "logarithmic", "k": 0.02, "r_max": 30.0},
            ],
        )
        code = main(["verify", "--scenario", str(path), "--step", "1e-2"])
        assert code == 0
        out = capsys.readouterr().out
        gap = float(out.split("gap=")[1].splitlines()[0])
        assert gap <= 1e-4

    def test_too_many_users_exits_4(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path,
            users=[{"type": "logarithmic", "k": 1.0, "r_max": 50.0}] * 4,
        )
        assert main(["verify", "--scenario", str(path), "--step", "1e-2"]) == 4

    def test_budget_blowout_exits_4(self, tmp_path):
        path = write_scenario(
            tmp_path,
            users=[{"type": "logarithmic", "k": 1.0, "r_max": 50.0}] * 3,
        )
        assert main(["verify", "--scenario", str(path), "--step", "1e-6"]) == 4

    def test_tiny_step_exits_4(self, tmp_path, capsys):
        path = write_scenario(tmp_path)
        assert main(["verify", "--scenario", str(path), "--step", "1e-300"]) == 4
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["0", "-0.5", "nan"])
    def test_non_positive_step_exits_2_naming_flag(self, tmp_path, capsys, step):
        path = write_scenario(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--scenario", str(path), "--step", step])
        assert exc.value.code == 2
        assert "--step" in capsys.readouterr().err


    @pytest.mark.parametrize("step", ["inf", "1e400"])
    def test_infinite_step_exits_2_naming_flag(self, tmp_path, capsys, step):
        path = write_scenario(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--scenario", str(path), "--step", step])
        assert exc.value.code == 2
        assert "--step" in capsys.readouterr().err

    @pytest.mark.parametrize("step,code", [("2", 0), ("2.0000001", 2), ("40", 2)])
    def test_step_needs_two_intervals_over_capacity(self, tmp_path, capsys, step, code):
        # R=3: step 2 is 1.5 intervals, rounded to 2; a hair more is 1
        path = write_scenario(
            tmp_path,
            R=3.0,
            users=[
                {"type": "logarithmic", "k": 1.0, "r_max": 3.0},
                {"type": "logarithmic", "k": 0.1, "r_max": 3.0},
            ],
        )
        assert main(["verify", "--scenario", str(path), "--step", step]) == code
        captured = capsys.readouterr()
        if code == 2:
            assert "--step" in captured.err and "grid interval" in captured.err
            assert captured.out == ""  # refused before the auction runs
        else:
            assert "max rate discrepancy" in captured.out

    @pytest.mark.parametrize(
        "users,field",
        [
            ([{"type": "sigmoidal", "a": "NORM(0.5,0.1)", "b": "NORM(20,2)"},
              {"type": "logarithmic", "k": 0.1, "r_max": 50.0}], r"users\[0\]\.a"),
            ([{"type": "logarithmic", "k": 0.1, "r_max": 50.0},
              {"type": "sigmoidal", "a": "FIXED(0.5)", "b": "TRIA(18,20,22)"}], r"users\[1\]\.b"),
        ],
        ids=["drawn-a", "drawn-b-after-log-user"],
    )
    def test_stochastic_scenario_exits_2_naming_field(self, tmp_path, capsys, users, field):
        path = write_scenario(tmp_path, users=users)
        assert main(["verify", "--scenario", str(path), "--step", "1e-2"]) == 2
        captured = capsys.readouterr()
        assert re.search(rf"field '{field}': verify needs fixed parameters", captured.err), captured.err
        assert captured.out == ""


class TestReplicateCommand:
    def test_replicate_writes_one_file_per_seed(self, tmp_path, capsys):
        out_dir = tmp_path / "reps"
        code = main(
            ["replicate", "--preset", "triangular", "--seeds", "3", "--output-dir", str(out_dir)]
        )
        assert code == 0
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == [f"triangular-seed{i}.csv" for i in range(3)]
        contents = [(out_dir / f).read_bytes() for f in files]
        assert len({c for c in contents}) == 3  # distinct seeds, distinct traces

    def test_fixed_replicates_identical(self, tmp_path):
        out_dir = tmp_path / "reps"
        main(["replicate", "--preset", "fixed", "--seeds", "2", "--output-dir", str(out_dir)])
        a = (out_dir / "fixed-seed0.csv").read_bytes()
        b = (out_dir / "fixed-seed1.csv").read_bytes()
        assert a == b

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_non_positive_seed_count_exits_2_before_writing(self, tmp_path, capsys, seeds):
        out_dir = tmp_path / "reps"
        with pytest.raises(SystemExit) as exc:
            main(["replicate", "--preset", "fixed", "--seeds", seeds, "--output-dir", str(out_dir)])
        assert exc.value.code == 2
        assert "--seeds" in capsys.readouterr().err
        assert not out_dir.exists()


class TestScenarioEmission:
    def test_cli_round_trip_through_disk(self, tmp_path):
        s = preset("normal")
        path = tmp_path / "normal.json"
        save_scenario(s, path)
        code = main(["run", "--scenario", str(path), "--output", str(tmp_path / "t.csv")])
        assert code == 0
        direct = render_trace(run(s))
        assert (tmp_path / "t.csv").read_text(encoding="utf-8") == direct

    def test_emitted_json_parses_as_json(self):
        doc = json.loads(scenario_to_json(preset("fixed")))
        assert doc["R"] == 100.0
        assert len(doc["users"]) == 6
