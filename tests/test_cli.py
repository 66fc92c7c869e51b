"""CLI and trace-emission tests."""

import json
import re

import pytest

from rateauction import preset, run, render_trace, emit_trace, save_scenario, scenario_to_json
from rateauction.cli import main
from rateauction.trace import TRACE_HEADER


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
