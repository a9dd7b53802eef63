"""CLI surface: formats, round trips, exit codes, determinism."""

import io
import json

import pytest

from floercone import algebra, cli as cli_module, cone, dual
from floercone.algebra import FilteredComplex, Generator, ReducedForm, check_complex
from floercone.cli import main
from floercone.models import dual_normal_form_model, minus_twist_knot, staircase
from floercone.serialize import complex_from_json, complex_to_json, dumps, loads


def run_cli(argv, stdin_text="", capsys=None, monkeypatch=None):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def cli(capsys, monkeypatch):
    def runner(argv, stdin_text=""):
        return run_cli(argv, stdin_text, capsys, monkeypatch)
    return runner


class TestSerialize:
    def test_round_trip_byte_identical(self):
        for c in (staircase(), minus_twist_knot(5), dual_normal_form_model(7)):
            text = dumps(complex_to_json(c))
            again = dumps(complex_to_json(complex_from_json(loads(text))))
            assert text == again

    def test_schema_fields(self):
        payload = complex_to_json(staircase())
        assert list(payload) == ["generators", "differential"]
        assert list(payload["generators"][0]) == ["name", "alexander", "maslov_x4"]
        assert list(payload["differential"][0]) == ["from", "to", "u_power"]
        assert payload["generators"][0]["maslov_x4"] == 8


class TestModelCommand:
    def test_minus_en_emits_eleven_generators(self, cli):
        code, out, _ = cli(["model", "--minus-en", "5"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["generators"]) == 11

    def test_deterministic_output(self, cli):
        _, first, _ = cli(["model", "--minus-en", "7"])
        _, second, _ = cli(["model", "--minus-en", "7"])
        assert first == second

    def test_mirror_flag(self, cli):
        code, out, _ = cli(["model", "--staircase", "--mirror"])
        assert code == 0
        gens = {g["name"]: g for g in json.loads(out)["generators"]}
        assert gens["x"]["maslov_x4"] == -8

    def test_domain_error_exit_code(self, cli):
        code, _, err = cli(["model", "--minus-en", "4"])
        assert code == 1
        assert "odd" in err

    def test_flag_misuse_is_parse_error(self, cli):
        code, _, _ = cli(["model"])
        assert code == 2

    @pytest.mark.parametrize("command", ["model", "knot-homology"])
    @pytest.mark.parametrize("flag", ["--minus-en", "--dual-normal"])
    def test_zero_size_is_given(self, cli, command, flag):
        code, out, err = cli([command, flag, "0"])
        assert (code, out) == (1, "")
        assert "n must be a positive odd integer, got 0" in err
        code, out, err = cli([command, flag, "0", "--staircase"])
        assert (code, out) == (2, "")
        assert "pick exactly one" in err


class TestValidateCommand:
    def test_accepts_model_output(self, cli):
        _, out, _ = cli(["model", "--minus-en", "5"])
        code, verdict, _ = cli(["validate"], stdin_text=out)
        assert code == 0
        assert json.loads(verdict)["ok"] is True

    def test_accepts_surgery_report(self, cli):
        _, model_out, _ = cli(["model", "--box"])
        _, report, _ = cli(["surgery", "--p", "1", "--q", "1"], stdin_text=model_out)
        code, verdict, _ = cli(["validate"], stdin_text=report)
        assert code == 0

    def test_accepts_dualknot_report(self, cli):
        _, report, _ = cli(["dualknot", "--n", "1", "--model", "minus-en:5"])
        code, _, _ = cli(["validate"], stdin_text=report)
        assert code == 0

    def test_rejects_broken_complex(self, cli):
        payload = {
            "generators": [{"name": "u", "alexander": 0, "maslov_x4": 4},
                           {"name": "v", "alexander": 2, "maslov_x4": 0}],
            "differential": [{"from": "u", "to": "v", "u_power": 0}],
        }
        code, _, err = cli(["validate"], stdin_text=json.dumps(payload))
        assert code == 1
        assert "filtration" in err

    def test_garbage_is_exit_two(self, cli):
        code, _, _ = cli(["validate"], stdin_text="{not json")
        assert code == 2

    def test_row_of_unknown_generator_is_reported(self, cli):
        # an entry out of an unknown generator into a known one: the row is
        # reported, and the unknown source is never looked up
        payload = complex_to_json(staircase())
        payload["differential"].append({"from": "w", "to": "y", "u_power": 0})
        for argv in (["validate"], ["surgery", "--p", "1"]):
            code, out, err = cli(argv, stdin_text=dumps(payload))
            assert (code, out) == (1, "")
            assert "differential row for unknown generator w" in err

    @pytest.mark.parametrize("value", ["0.5", "true", "1e400", '"0"'])
    @pytest.mark.parametrize("field", ["alexander", "maslov_x4", "u_power"])
    def test_non_integer_value_is_exit_two(self, cli, field, value):
        # int() would truncate 0.5, read true as 1, parse "0", and raise
        # OverflowError on 1e400, which JSON reads as float infinity
        payload = complex_to_json(staircase())
        part = "differential" if field == "u_power" else "generators"
        payload[part][0][field] = "<value>"
        text = dumps(payload).replace('"<value>"', value)
        for argv in (["validate"], ["surgery", "--p", "1"]):
            code, out, err = cli(argv, stdin_text=text)
            assert (code, out) == (2, "")
            assert err.startswith("error: malformed complex JSON: expected int, got ")


class TestSurgeryCommand:
    def test_lens_space_ranks(self, cli):
        _, model_out, _ = cli(["model", "--unknot"])
        code, out, _ = cli(["surgery", "--p", "3", "--q", "1"], stdin_text=model_out)
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "surgery_report"
        assert {k: v["total_rank"] for k, v in payload["sectors"].items()} == \
            {"0": 1, "1": 1, "2": 1}

    def test_sector_flag_and_infinity_flavor(self, cli):
        _, model_out, _ = cli(["model", "--staircase"])
        code, out, _ = cli(
            ["surgery", "--p", "-2", "--q", "1", "--flavor", "infinity", "--sector", "1"],
            stdin_text=model_out)
        assert code == 0
        payload = json.loads(out)
        assert list(payload["sectors"]) == ["1"]
        assert payload["sectors"]["1"]["total_rank"] == 1

    def test_bad_coefficients_exit_one(self, cli):
        _, model_out, _ = cli(["model", "--unknot"])
        code, _, _ = cli(["surgery", "--p", "2", "--q", "2"], stdin_text=model_out)
        assert code == 1

    def test_report_round_trip(self, cli):
        _, model_out, _ = cli(["model", "--box"])
        _, report, _ = cli(["surgery", "--p", "2", "--q", "1"], stdin_text=model_out)
        assert dumps(loads(report)) == report

    def test_invalid_unreflectable_model_reports_invalid(self, cli):
        # Maslov drop 2, and no generator sits where x would reflect to
        broken = FilteredComplex([Generator("x", 1, 2), Generator("y", 0, 0)], {"x": {"y": 0}})
        code, out, err = cli(["surgery", "--p", "3"], stdin_text=dumps(complex_to_json(broken)))
        assert code == 1
        assert out == ""
        assert err.startswith("error: invalid complex:")
        assert "Maslov drop is not 1" in err


class TestDualknotCommand:
    def test_normal_form_counts(self, cli):
        code, out, _ = cli(["dualknot", "--n", "1", "--model", "minus-en:5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"] == {"free": 1, "horizontal": 3, "vertical": 3}

    def test_gmap_report(self, cli):
        code, out, _ = cli(["dualknot", "--n", "1", "--model", "minus-en:7",
                            "--check", "gmap"])
        assert code == 0
        gmap = json.loads(out)["gmap"]
        assert gmap["injective"] is True
        assert gmap["domain_dim"] == 4
        assert gmap["rank"] == 4

    def test_bad_framing_exit_one(self, cli):
        code, _, _ = cli(["dualknot", "--n", "0", "--model", "staircase"])
        assert code == 1

    def test_non_integer_model_size_is_parse_error(self, cli):
        code, out, err = cli(["dualknot", "--n", "1", "--model", "minus-en:x"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestDgsCommand:
    def test_minus_one(self, cli):
        code, out, _ = cli(["dgs", "--r", "-1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["a"] == [-2]
        assert payload["stabilizations"] == [0]
        assert payload["round_trip"] == -1

    def test_fractional(self, cli):
        _, out, _ = cli(["dgs", "--r=-7/2"])
        payload = json.loads(out)
        assert payload["a"] == [-5, -2]
        assert payload["stabilizations"] == [3, 0]
        assert payload["all_minus_two"] is False

    def test_positive(self, cli):
        _, out, _ = cli(["dgs", "--r=5/4"])
        payload = json.loads(out)
        assert payload["expansion_kind"] == "positive"
        assert payload["e"] == 1
        assert payload["stabilizations"] == [4]

    def test_not_a_rational(self, cli):
        code, _, _ = cli(["dgs", "--r", "elephant"])
        assert code == 2


class TestC1Command:
    def test_cobordism(self, cli):
        _, out, _ = cli(["c1", "--formula", "cobordism", "--tb", "0", "--rot", "-1",
                         "--p", "3", "--q", "2"])
        assert json.loads(out)["value"] == 0

    def test_posint(self, cli):
        _, out, _ = cli(["c1", "--formula", "posint", "--rot", "-1", "--n", "2"])
        assert json.loads(out)["value"] == 0

    def test_plusone(self, cli):
        _, out, _ = cli(["c1", "--formula", "plusone", "--rot", "2"])
        assert json.loads(out)["value"] == 2


class TestPipelineCommand:
    def test_case_ii_text_trace(self, cli):
        code, out, _ = cli(["pipeline", "--n", "5", "--r", "-3"])
        assert code == 0
        assert out.strip().endswith("distinct: yes (case ii, k=1)")

    def test_json_format(self, cli):
        code, out, _ = cli(["pipeline", "--n", "5", "--r", "-2", "--format", "json"])
        payload = json.loads(out)
        assert payload["distinct"] is True
        assert payload["case"].startswith("case i")

    def test_excluded_coefficient_exit_one(self, cli):
        code, _, err = cli(["pipeline", "--n", "5", "--r", "-1"])
        assert code == 1
        assert "excluded" in err

    def test_pipeline_checks_four_complexes(self, cli, monkeypatch):
        # the 31-generator model by its FlipMap, the flattened dual cone once
        # built, the 33-generator normal form by g_map and by its FlipMap
        calls = []
        for module in (algebra, dual, cli_module):
            monkeypatch.setattr(module, "check_complex",
                                lambda c: calls.append(len(c)) or check_complex(c))
        code, _, _ = cli(["pipeline", "--n", "15", "--r=-5"])
        assert code == 0
        assert calls == [31, 93, 33, 33]

    def test_loss_command(self, cli):
        _, out, _ = cli(["loss", "--tb", "0", "--rot", "-1"])
        assert json.loads(out)["alexander"] == 1

    def test_knot_homology_command(self, cli):
        _, out, _ = cli(["knot-homology", "--minus-en", "5"])
        payload = json.loads(out)
        assert payload["alexander_polynomial_str"] == "3t - 5 + 3t^-1"
        assert payload["hat_ranks"]["total_rank"] == 11


class TestInternalError:
    def test_failed_invariant_exits_three(self, cli, monkeypatch):
        # a vertex reduction that leaves its differential trips the check in
        # the cone's vertex homology, on the way to include_B
        monkeypatch.setattr(cone, "reduce", lambda c, mode: ReducedForm(c, []))
        code, out, err = cli(["pipeline", "--n", "5", "--r=-3"])
        assert code == 3
        assert out == ""
        assert err.startswith("error: internal: vertex ")
        assert "Traceback" not in err

