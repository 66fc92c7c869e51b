"""CLI and trace-emission tests."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rateauction
import rateauction.cli
import rateauction.engine
import rateauction.trace
from rateauction import (
    Fixed,
    LogarithmicUserSpec,
    Normal,
    Scenario,
    SigmoidalUserSpec,
    Triangular,
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


def reference_summary(result) -> str:
    """The run command's summary with one format call per line."""
    lines = [f"stop_reason: {result.stop_reason}"]
    if result.converged_at is not None:
        lines.append(f"converged_at: {result.converged_at}")
    lines.append(f"iterations: {result.iterations}")
    lines.append(f"final_price: {format_number(result.final_price)}")
    for uid in sorted(result.final_rates):
        lines.append(f"final_rate[{uid}]: {format_number(result.final_rates[uid])}")
    return "\n".join(lines) + "\n"


def printed_summary(result) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rateauction.cli._print_summary(result, rateauction.trace.final_rate_texts(result))
    return out.getvalue()


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
    users = len(sigmoid)
    rounds = draw(st.integers(1, 3))

    def matrix(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(NUMBERS, min_size=size, max_size=size)), dtype=float).reshape(shape)

    # each user copies one of the drawn columns, so users often share every
    # bit of their rate, bid, a and b, across families too
    drawn = draw(st.integers(1, users))
    copies = draw(st.lists(st.integers(0, drawn - 1), min_size=users, max_size=users))
    rates, bids, a, b = matrix(4, rounds, drawn)[:, :, copies]
    # the final rates are drawn apart from the columns or copied as they are,
    # so the summary meets equal rates, 0.0 beside -0.0 and NaN payloads too
    final_rates = matrix(drawn)[copies] if draw(st.booleans()) else matrix(users)
    converged_at = draw(st.one_of(st.none(), st.just(rounds)))
    return RunResult(
        stop_reason="converged" if converged_at else "iteration_cap",
        converged_at=converged_at,
        iterations=rounds,
        final_price=draw(NUMBERS),
        final_rates=dict(enumerate(final_rates.tolist(), start=1)),
        prices=matrix(rounds),
        rates=rates,
        bids=bids,
        a=a[:, sigmoid],
        b=b[:, sigmoid],
        sigmoid=sigmoid,
    )


def columns_result(rates, sigmoid):
    """A run whose bids equal its rates, with every sigmoid user's a and b
    held at 0.0."""
    rates = np.array(rates, dtype=float)
    sigmoid = np.array(sigmoid)
    params = np.zeros((len(rates), int(sigmoid.sum())))
    return RunResult(
        stop_reason="iteration_cap", converged_at=None, iterations=len(rates), final_price=1.0,
        final_rates=dict(enumerate(rates[-1].tolist(), start=1)), prices=np.ones(len(rates)),
        rates=rates, bids=rates.copy(), a=params, b=params, sigmoid=sigmoid,
    )


def formatted_columns(result):
    """How many user columns the renderer formats when it renders result."""
    grouping = rateauction.trace._distinct_columns
    with mock.patch.object(rateauction.trace, "_distinct_columns", wraps=grouping) as spy:
        render_trace(result)
    columns, group = grouping(*spy.call_args.args)
    return result.rates.shape[1] if group is None else len(columns)


class TestRendererMatchesPerFieldFormatting:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_byte_equal(self, family, data):
        result = data.draw(run_results(family))
        assert render_trace(result) == reference_render(result)
        assert printed_summary(result) == reference_summary(result)

    @pytest.mark.parametrize("name", ["fixed", "normal", "triangular"])
    def test_presets(self, name):
        result = run(replace(preset(name), users=preset(name).users * 2))  # user ids up to 12
        assert render_trace(result) == reference_render(result)

    def test_drawn_column_held_constant_by_the_clamp(self):
        # NORM(-100, 1) draws far below the floor, so a is 0.1 every round
        # and is printed once, into the row template, beside a varying b
        users = (
            LogarithmicUserSpec(k=1.0, r_max=100.0),
            SigmoidalUserSpec(a=Normal(-100.0, 1.0), b=Normal(20.0, 2.0)),
        )
        result = run(Scenario(capacity=100.0, delta=1e-2, max_iterations=20, seed=4, users=users))
        assert result.a[:, 0].tolist() == [0.1] * 20
        assert len(set(result.b[:, 0].tolist())) == 20
        assert render_trace(result) == reference_render(result)

    def test_fixed_steepness_beside_a_drawn_inflection(self):
        users = (
            SigmoidalUserSpec(a=Fixed(5.0), b=Triangular(10.0, 20.0, 30.0)),
            LogarithmicUserSpec(k=1.0, r_max=100.0),
            SigmoidalUserSpec(a=Fixed(2.5), b=Fixed(35.0)),
        )
        results = run_replication(Scenario(capacity=100.0, delta=1e-2, max_iterations=15, seed=0, users=users), [0, 1])
        for result in results:
            assert result.a[:, 0].tolist() == [5.0] * 15
            assert len(set(result.b[:, 0].tolist())) == 15
            assert render_trace(result) == reference_render(result)


class TestGroupedColumns:
    """Users whose columns are bit-equal over the run are formatted once."""

    NAN = np.array(0x7FF8000000000001, dtype=np.uint64).view(float).item()  # another NaN payload

    @pytest.mark.parametrize(
        "rates, sigmoid, formatted",
        [
            # a log column and a sigmoid one with a = b = 0.0: the same bits
            # but for the family
            pytest.param([[1.5, 1.5], [2.5, 2.5]], [True, False], 2, id="families"),
            # the last round tells them apart: no grouping is tried
            pytest.param([[1.0, 1.0], [2.0, 3.0]], [False, False], 2, id="last-round-distinct"),
            pytest.param([[0.0, -0.0, 0.0, -0.0]], [False] * 4, 2, id="signed-zeros"),
            pytest.param([[math.nan, math.nan, NAN, 2.0, 2.0]], [False] * 5, 3, id="nans"),
            # all five tie in the last round; columns 0, 1 and 3 are equal,
            # but column 2 sorts between them
            pytest.param([[1.0, 1.0, 2.0, 1.0, 2.0], [3.0] * 5], [True, True, True, True, False], 4,
                         id="last-round-tie"),
        ],
    )
    def test_byte_equal(self, rates, sigmoid, formatted):
        result = columns_result(rates, sigmoid)
        assert formatted_columns(result) == formatted
        assert render_trace(result) == reference_render(result)

    def test_equal_rates_with_other_bids(self):
        result = replace(columns_result([[1.0, 1.0]], [False, False]), bids=np.array([[1.0, 2.0]]))
        assert formatted_columns(result) == 2
        assert render_trace(result) == reference_render(result)

    def test_one_group_with_other_final_rates(self):
        # the final rates are not the columns' last rates, and may differ
        # within a group; 0.0 and -0.0 are formatted apart
        result = replace(columns_result([[1.0] * 4], [True] * 4), final_rates={1: 0.5, 2: -0.0, 3: 0.0, 4: 0.5})
        assert formatted_columns(result) == 1
        assert render_trace(result) == reference_render(result)
        assert printed_summary(result) == reference_summary(result)

    @staticmethod
    def check_tiled_fixed(tmp_path, copies):
        """The fixed preset tiled ``copies`` times at R = 100 per copy: 6
        columns formatted, and render, emission and reference equal; the
        rounds a block and the run's rounds."""
        fixed = preset("fixed")
        result = run(replace(fixed, capacity=100.0 * copies, users=fixed.users * copies))
        assert formatted_columns(result) == 6
        emit_trace(result, tmp_path / "trace.csv")
        text = render_trace(result)
        assert (tmp_path / "trace.csv").read_bytes() == text.encode("utf-8")
        assert text == reference_render(result)
        return BLOCK_ROWS // result.rates.shape[1], result.iterations

    def test_tiled_preset_with_a_short_last_block(self, tmp_path):
        # 4,200 users, 3 rounds a block over 20 rounds: the last block holds 2
        step, rounds = self.check_tiled_fixed(tmp_path, 700)
        assert step == 3 and rounds % step == 2

    def test_tiled_preset_across_blocks(self, tmp_path):
        # 6,000 users, 2 rounds a block: the grouped fill crosses BLOCK_ROWS
        step, rounds = self.check_tiled_fixed(tmp_path, 1000)
        assert step == 2 and rounds > 2

    def test_tiled_stochastic_replication(self):
        # each sigmoid copy draws its own a and b; only the fixed log users
        # share their columns
        normal = preset("normal")
        for result in run_replication(replace(normal, users=normal.users * 3), [0, 1]):
            assert formatted_columns(result) == 12
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

    def test_tiled_scenario_summary(self, tmp_path, capsys):
        # 600 users with 6 distinct final rates
        fixed = preset("fixed")
        scenario = replace(fixed, capacity=1e4, users=fixed.users * 100)
        save_scenario(scenario, tmp_path / "scaled.json")
        assert main(["run", "--scenario", str(tmp_path / "scaled.json")]) == 0
        result = run(scenario)
        assert len(set(result.final_rates.values())) == 6
        assert capsys.readouterr().out == reference_summary(result)

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

    def test_allow_early_stop_flag(self, capsys):
        # a drawn scenario runs to its cap unless the flag lets it stop
        args = ["run", "--preset", "normal", "--delta", "1", "--iterations", "60"]
        assert main(args + ["--allow-early-stop"]) == 0
        result = run(replace(preset("normal"), delta=1.0, max_iterations=60, allow_early_stop=True))
        assert (result.stop_reason, result.converged_at) == ("converged", 10)
        assert capsys.readouterr().out == reference_summary(result)
        assert main(args) == 0
        out = capsys.readouterr().out
        assert out.startswith("stop_reason: iteration_cap\niterations: 60\n")

    @pytest.mark.parametrize("text", ["[]", "5"])
    def test_non_object_scenario_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert main(["run", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: top level must be an object\n"

    @pytest.mark.parametrize("users,code", [(["NORM(5,2)", "FIXED(10)"], 2), (["FIXED(5)", "FIXED(10)"], 0)],
                             ids=["drawn", "fixed"])
    def test_iteration_cap_past_one_word(self, tmp_path, capsys, users, code):
        # a drawn user keys each round's draws by the iteration, one 32-bit
        # word; a fixed scenario draws nothing and keeps the cap
        path = write_scenario(tmp_path, max_iterations=2**32, delta=0.01,
                              users=[{"type": "sigmoidal", "a": users[0], "b": users[1]}])
        assert main(["run", "--scenario", str(path)]) == code
        if code == 2:
            assert "field 'max_iterations': max_iterations must be at most 4294967295" in capsys.readouterr().err

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
            # both log-slopes grow like 1/r near 0, and 1/R overflows
            (
                {"R": 5e-324, "delta": 0.01, "max_iterations": 16,
                 "users": [{"type": "logarithmic", "k": 5, "r_max": 1e-9}] * 2},
                "R",
            ),
        ],
        ids=["negative-fixed-a", "nan-k", "infinite-delta", "overflowing-k", "subnormal-R"],
    )
    def test_invalid_value_exits_2_naming_field(self, tmp_path, capsys, overrides, field):
        path = write_scenario(tmp_path, **overrides)
        assert main(["run", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert re.search(rf"field '{field}'", err), err

    def test_r_below_the_solver_tolerance_exits_2(self, tmp_path, capsys):
        path = write_scenario(
            tmp_path, R=1e-7, delta=0.01, max_iterations=20,
            users=[
                {"type": "sigmoidal", "a": "FIXED(15.0)", "b": "FIXED(20.0)"},
                {"type": "logarithmic", "k": 1.0, "r_max": 100.0},
            ],
        )
        assert main(["run", "--scenario", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: field 'R': R must be at least the solver tolerance 1e-06, got 1e-07\n"
        assert captured.out == ""

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2

    def test_unknown_preset_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--preset", "bogus"])
        assert exc.value.code == 2


class TestRunFormatsFinalRatesOnce:
    """``run`` formats each run's final rates once: with ``--output`` the
    trace returns the texts it wrote, and stdout prints the same."""

    @staticmethod
    def run_counting(argv) -> tuple[int, str]:
        calls = []

        def counted(result, real=rateauction.trace.final_rate_texts):
            calls.append(result)
            return real(result)

        out = io.StringIO()
        with (
            mock.patch.object(rateauction.trace, "final_rate_texts", counted),
            mock.patch.object(rateauction.cli, "final_rate_texts", counted),
            contextlib.redirect_stdout(out),
        ):
            assert main(argv) == 0
        return len(calls), out.getvalue()

    @pytest.mark.parametrize("output", [False, True])
    def test_one_format_per_command(self, tmp_path, output):
        # the fixed preset tiled to 60 users: its final rates repeat
        scenario = preset("fixed")
        path = tmp_path / "scenario.json"
        save_scenario(replace(scenario, users=scenario.users * 10, capacity=1000.0), path)
        trace = tmp_path / "trace.csv"
        calls, out = self.run_counting(["run", "--scenario", str(path)] + (["--output", str(trace)] * output))
        assert calls == 1
        printed = [l.removeprefix("final_rate[").replace("]: ", ",") for l in out.splitlines() if l.startswith("final_rate[")]
        assert len(printed) == 60
        if output:
            traced = [l.removeprefix("# final_rate,") for l in trace.read_text(encoding="utf-8").splitlines()
                      if l.startswith("# final_rate,")]
            assert printed == traced


class TestImport:
    def test_package_and_cli_load_no_scipy(self):
        # a fresh interpreter: this session has imported scipy for its references
        src = Path(rateauction.__file__).resolve().parent.parent
        code = "import sys, rateauction, rateauction.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


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
        # round 1 draws a finite a of about 1.7e308, whose a*R overflows
        assert self.run_with_steepness(tmp_path, "NORM(1e308,1e308)") == 3
        assert capsys.readouterr().err == (
            "error: user 1 failed at iteration 1: a*R must be finite, got 1.7384200608380669e+308*100.0\n"
        )

    def test_fixed_steepness_whose_a_times_r_overflows_is_refused(self, tmp_path, capsys):
        assert self.run_with_steepness(tmp_path, "FIXED(1e307)") == 2
        assert "field 'users[0].a': a*max(b, R) must be finite, got 1e+307*100.0\n" in capsys.readouterr().err


# floats at the edges of the range: subnormal, the smallest normal, and
# near the largest
EDGE_FLOATS = [5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-9, 1.0, 100.0, 1e300, 1.7976931348623157e308]
positive_floats = (
    st.sampled_from(EDGE_FLOATS)
    | st.floats(1e-3, 1e3)
    | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
)
# mostly positive: a spec argument that is negative, infinite or NaN, or
# unordered TRIA bounds, exits 2 before the run
spec_floats = positive_floats | positive_floats.map(lambda x: -x) | st.floats()
spec_texts = (
    st.builds("FIXED({!r})".format, spec_floats)
    | st.builds("NORM({!r},{!r})".format, spec_floats, positive_floats)
    | st.lists(spec_floats, min_size=3, max_size=3).map(lambda v: "TRIA({!r},{!r},{!r})".format(*sorted(v)))
)
user_docs = st.fixed_dictionaries({"type": st.just("sigmoidal"), "a": spec_texts, "b": spec_texts}) | (
    st.fixed_dictionaries({"type": st.just("logarithmic"), "k": positive_floats, "r_max": positive_floats})
)
scenario_docs = st.fixed_dictionaries(
    {
        "R": positive_floats,
        "delta": positive_floats,
        "max_iterations": st.integers(1, 25),
        "seed": st.integers(0, 2**70),
        "users": st.lists(user_docs, min_size=1, max_size=5),
    }
)


# a valid document with one field given a value it cannot hold: a JSON type
# it cannot take, or an integer past the float range.  Each field by its
# name in diagnostics: its path in the document, and the kinds it may take
VALID_DOC = {
    "R": 50.0, "delta": 0.01, "max_iterations": 5, "seed": 0, "allow_early_stop": None,
    "users": [
        {"type": "sigmoidal", "a": "FIXED(5.0)", "b": "FIXED(10.0)"},
        {"type": "logarithmic", "k": 0.1, "r_max": 50.0},
    ],
}
DOC_FIELDS = {
    "R": (("R",), "number"),
    "delta": (("delta",), "number"),
    "max_iterations": (("max_iterations",), "number"),
    "seed": (("seed",), "number"),
    "allow_early_stop": (("allow_early_stop",), "null bool"),
    "users": (("users",), "list"),
    "users[0]": (("users", 0), "object"),
    "users[0].a": (("users", 0, "a"), "number string"),
    "users[0].b": (("users", 0, "b"), "number string"),
    "users[1].k": (("users", 1, "k"), "number"),
    "users[1].r_max": (("users", 1, "r_max"), "number"),
}
WRONG_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "string": st.text(max_size=6).filter(lambda t: "(" not in t),  # no spec string
    "list": st.lists(st.integers(), max_size=2),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    "huge": st.sampled_from([10**400, -(10**400)]),  # 401 digits
}


@st.composite
def wrongly_typed_docs(draw):
    """A field's name and a document in which it alone holds a wrong value."""
    field = draw(st.sampled_from(sorted(DOC_FIELDS)))
    (*parents, key), kinds = DOC_FIELDS[field]
    doc = json.loads(json.dumps(VALID_DOC))
    holder = doc
    for step in parents:
        holder = holder[step]
    holder[key] = draw(st.one_of(*(v for k, v in WRONG_VALUES.items() if k not in kinds.split())))
    return field, doc


class TestScenarioFuzz:
    """Every scenario document runs or exits with a diagnostic, never a
    traceback or a warning.  Warnings are recorded, not raised as this
    suite's filter would: a warning raised inside a run is caught by the
    engine's error path and reported as a solver failure, where the
    command line would go on with a wrong result."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(doc=scenario_docs)
    def test_documents_run_or_exit_with_a_code(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        results = []

        def recording(scenario, real=rateauction.cli.run):
            results.append(real(scenario))
            return results[-1]

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with mock.patch.object(rateauction.cli, "run", recording):
                code = main(["run", "--scenario", str(path)])
        assert not caught, [str(w.message) for w in caught]
        assert code in (0, 2, 3, 4)
        if code == 0:
            rates = list(results[0].final_rates.values())
            assert min(rates) > 0, rates
            # shares of R, so that a sum near the float maximum cannot overflow
            assert math.fsum(r / doc["R"] for r in rates) == pytest.approx(1.0, rel=1e-9, abs=0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(case=wrongly_typed_docs())
    def test_a_wrongly_typed_field_exits_2_naming_it(self, tmp_path_factory, case):
        field, doc = case
        path = tmp_path_factory.getbasetemp() / "wrong.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(io.StringIO()) as err:
            warnings.simplefilter("always")
            code = main(["run", "--scenario", str(path)])
        assert not caught, [str(w.message) for w in caught]
        assert code == 2, err.getvalue()
        assert err.getvalue().startswith(f"error: {path}: field '{field}': "), err.getvalue()


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


class TestOutputErrors:
    def test_unwritable_trace_exits_1_naming_path(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "x.csv"
        assert main(["run", "--preset", "fixed", "--output", str(out)]) == 1
        assert f"error: cannot write trace to {out}" in capsys.readouterr().err

    def test_output_dir_that_is_a_file_exits_1_naming_path(self, tmp_path, capsys):
        out_dir = tmp_path / "reps"
        out_dir.write_text("")
        assert main(["replicate", "--preset", "fixed", "--seeds", "2", "--output-dir", str(out_dir)]) == 1
        assert f"error: cannot create output directory {out_dir}: " in capsys.readouterr().err


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
