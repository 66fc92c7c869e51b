"""Scenario file and preset tests."""

import pytest

from rateauction import (
    Fixed,
    LogarithmicUserSpec,
    Normal,
    Scenario,
    ScenarioError,
    SigmoidalUserSpec,
    Triangular,
    load_scenario,
    parse_scenario,
    preset,
    save_scenario,
    scenario_to_json,
)

VALID = """
{
  "R": 50.0,
  "delta": 0.01,
  "max_iterations": 30,
  "seed": 7,
  "allow_early_stop": null,
  "users": [
    {"type": "logarithmic", "k": 0.1, "r_max": 50.0},
    {"type": "sigmoidal", "a": "NORM(5,2)", "b": "TRIA(8,10,12)"}
  ]
}
"""


class TestParsing:
    def test_valid_document(self):
        s = parse_scenario(VALID)
        assert s.capacity == 50.0
        assert s.delta == 0.01
        assert s.max_iterations == 30
        assert s.seed == 7
        assert s.allow_early_stop is None
        assert s.users == (
            LogarithmicUserSpec(k=0.1, r_max=50.0),
            SigmoidalUserSpec(a=Normal(5.0, 2.0), b=Triangular(8.0, 10.0, 12.0)),
        )

    def test_bare_numbers_mean_fixed(self):
        s = parse_scenario(
            '{"R": 10, "delta": 0.01, "max_iterations": 5, "seed": 0,'
            ' "users": [{"type": "sigmoidal", "a": 15, "b": 2.5}]}'
        )
        assert s.users[0] == SigmoidalUserSpec(a=Fixed(15.0), b=Fixed(2.5))
        # stored as the floats the constructors make of them
        assert type(s.capacity) is float and type(s.users[0].a.value) is float

    def test_syntax_error_reports_line(self):
        with pytest.raises(ScenarioError, match=r"<string>:\d+:\d+"):
            parse_scenario('{"R": 100,\n "delta": }')

    @pytest.mark.parametrize(
        "mutation,field",
        [
            ('"bogus": 1', "bogus"),
            ('"R": "lots"', "R"),
            ('"max_iterations": 2.5', "max_iterations"),
            ('"allow_early_stop": "yes"', "allow_early_stop"),
        ],
    )
    def test_bad_top_level_fields_are_named(self, mutation, field):
        text = (
            '{"R": 100, "delta": 0.01, "max_iterations": 5, "seed": 0, "users": '
            '[{"type": "logarithmic", "k": 1, "r_max": 100}], %s}' % mutation
        )
        with pytest.raises(ScenarioError, match=field):
            parse_scenario(text)

    @pytest.mark.parametrize("text", ["[]", "5"])
    def test_non_object_document_refused(self, text):
        with pytest.raises(ScenarioError, match=r"^<string>: top level must be an object$"):
            parse_scenario(text)

    def test_missing_field_named(self):
        with pytest.raises(ScenarioError, match="max_iterations"):
            parse_scenario('{"R": 100, "delta": 0.01, "seed": 0, "users": []}')

    def test_bad_user_fields_are_named(self):
        base = '{"R": 100, "delta": 0.01, "max_iterations": 5, "seed": 0, "users": [%s]}'
        with pytest.raises(ScenarioError, match=r"users\[0\]\.type"):
            parse_scenario(base % '{"type": "quadratic"}')
        with pytest.raises(ScenarioError, match=r"users\[0\]\.a"):
            parse_scenario(base % '{"type": "sigmoidal", "a": "NORM(1)", "b": 2}')
        with pytest.raises(ScenarioError, match=r"users\[0\]\.k"):
            parse_scenario(base % '{"type": "logarithmic", "k": "big", "r_max": 10}')
        with pytest.raises(ScenarioError, match=r"users\[0\]\.r_max"):
            parse_scenario(base % '{"type": "logarithmic", "k": 1}')
        with pytest.raises(ScenarioError, match=r"users\[0\]\.extra"):
            parse_scenario(base % '{"type": "logarithmic", "k": 1, "r_max": 10, "extra": 1}')

    def test_semantic_validation_surfaces(self):
        with pytest.raises(ScenarioError, match="delta"):
            parse_scenario(
                '{"R": 100, "delta": -1, "max_iterations": 5, "seed": 0,'
                ' "users": [{"type": "logarithmic", "k": 1, "r_max": 100}]}'
            )

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="nope.json"):
            load_scenario(tmp_path / "nope.json")

    def test_load_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b'{"R": 100\xff}')
        with pytest.raises(ScenarioError, match=r"latin\.json: cannot read scenario file: 'utf-8' codec"):
            load_scenario(path)

    def test_integer_past_the_digit_limit_is_invalid_json(self):
        with pytest.raises(ScenarioError, match=r"^<string>: invalid JSON: Exceeds the limit"):
            parse_scenario('{"R": %s}' % ("1" * 5000))


class TestRoundTrip:
    def test_presets_round_trip(self, tmp_path):
        for name in ("fixed", "normal", "triangular"):
            s = preset(name)
            path = tmp_path / f"{name}.json"
            save_scenario(s, path)
            assert load_scenario(path) == s

    def test_custom_scenario_round_trips(self, tmp_path):
        s = Scenario(
            capacity=62.5,
            delta=3e-4,
            max_iterations=123,
            seed=2**40,
            users=(
                SigmoidalUserSpec(a=Triangular(1.0, 2.0, 3.5), b=Fixed(12.25)),
                LogarithmicUserSpec(k=0.07, r_max=62.5),
            ),
            allow_early_stop=True,
        )
        path = tmp_path / "custom.json"
        save_scenario(s, path)
        assert load_scenario(path) == s

    def test_canonical_emission_is_stable(self):
        s = preset("triangular")
        assert scenario_to_json(s) == scenario_to_json(s)


class TestPresets:
    def test_fixed_preset_parameters(self):
        s = preset("fixed")
        assert s.capacity == 100.0
        assert s.delta == 1e-2
        assert s.max_iterations == 20
        assert [u.k for u in s.users[:3]] == [1.0, 0.1, 0.02]
        assert all(u.r_max == 100.0 for u in s.users[:3])
        assert [(u.a, u.b) for u in s.users[3:]] == [
            (Fixed(15.0), Fixed(20.0)),
            (Fixed(10.0), Fixed(25.0)),
            (Fixed(5.0), Fixed(35.0)),
        ]

    def test_normal_preset_parameters(self):
        s = preset("normal")
        assert [(u.a, u.b) for u in s.users[3:]] == [
            (Normal(15.0, 2.0), Normal(20.0, 2.0)),
            (Normal(10.0, 2.0), Normal(25.0, 2.0)),
            (Normal(5.0, 2.0), Normal(35.0, 2.0)),
        ]
        assert s.users[:3] == preset("fixed").users[:3]

    def test_triangular_preset_parameters(self):
        s = preset("triangular")
        assert [(u.a, u.b) for u in s.users[3:]] == [
            (Triangular(13.0, 15.0, 17.0), Triangular(18.0, 20.0, 22.0)),
            (Triangular(8.0, 10.0, 12.0), Triangular(23.0, 25.0, 27.0)),
            (Triangular(3.0, 5.0, 7.0), Triangular(33.0, 35.0, 37.0)),
        ]

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError, match="unknown preset"):
            preset("gamma")
