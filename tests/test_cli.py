"""CLI surface: formats, round trips, exit codes, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from floercone import algebra, cli as cli_module, cone, contact, dual, gf2, models
from floercone.algebra import (
    FilteredComplex,
    Generator,
    GradedRanks,
    ReducedForm,
    check_complex,
    homology,
)
from floercone.cli import main
from floercone.errors import DomainError
from floercone.models import dual_normal_form_model, flip, minus_twist_knot, staircase
from floercone.serialize import complex_from_json, complex_to_json, dumps, loads

from random_complexes import default_seed, direct_sum, random_filtered_complex


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

    def test_dumps_is_indented_json_dumps(self):
        rng = random.Random(default_seed() + 11)
        for _ in range(300):
            payload = random_payload(rng, 4)
            assert dumps(payload) == json.dumps(payload, indent=2, ensure_ascii=False) + "\n"

    @pytest.mark.parametrize("payload", [Fraction(1, 2), {1, 2}, {"a": [1, Fraction(1, 3)]},
                                         {(1, 2): 0}, [{"x": {3}}]])
    def test_dumps_rejects_what_json_rejects(self, payload):
        with pytest.raises(TypeError) as want:
            json.dumps(payload, indent=2, ensure_ascii=False)
        with pytest.raises(TypeError) as got:
            dumps(payload)
        assert str(got.value) == str(want.value)


TEXTS = ["", "x", "a b", "é雪🙂", '"quoted" \\ back', "\x00\x1f\t\n\r", "\u2028\u2029", "\x7f"]


def random_payload(rng: random.Random, depth: int):
    """A JSON tree of the kinds reports hold, and of the edge cases of the encoder."""
    kind = rng.randrange(9 if depth > 0 else 6)
    if kind == 0:
        return rng.choice(TEXTS) + rng.choice(TEXTS)
    if kind == 1:
        return rng.choice([0, -1, 7, -(10 ** 40) - 3, 10 ** 39 + 11, rng.randint(-99, 99)])
    if kind == 2:
        return rng.choice([True, False, None])
    if kind == 3:
        return {"num": rng.randint(-9, 9), "den": rng.randint(2, 9)}
    if kind == 4:
        return rng.choice([{}, [], (), 0.5, -2.25])
    if kind == 5:
        return rng.choice(TEXTS)
    items = [random_payload(rng, depth - 1) for _ in range(rng.randint(0, 4))]
    if kind == 6:
        return items
    if kind == 7:
        return tuple(items)
    keys = [rng.choice(TEXTS + [0, -3, 10 ** 40]) for _ in items]
    return dict(zip(keys, items))


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

    @pytest.mark.parametrize("text, reason", [
        ("[" * 200_000, "maximum recursion depth exceeded"),
        ("1" * 5_000, "Exceeds the limit (4300 digits) for integer string conversion"),
    ], ids=["deep nesting", "5000-digit int"])
    def test_json_past_the_interpreter_limits_is_exit_two(self, cli, tmp_path, text, reason):
        path = tmp_path / "input.json"
        path.write_text(text)
        for argv in (["validate", str(path)], ["surgery", "--p", "1", "--in", str(path)]):
            code, out, err = cli(argv)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: invalid JSON: {reason}")
            assert "Traceback" not in err

    def test_row_of_unknown_generator_is_reported(self, cli):
        # an entry out of an unknown generator into a known one: the row is
        # reported, and the unknown source is never looked up
        payload = complex_to_json(staircase())
        payload["differential"].append({"from": "w", "to": "y", "u_power": 0})
        for argv in (["validate"], ["surgery", "--p", "1"]):
            code, out, err = cli(argv, stdin_text=dumps(payload))
            assert (code, out) == (1, "")
            assert "differential row for unknown generator w" in err

    def test_random_complexes_round_trip_and_validate(self, cli):
        # some draws shift every Maslov grading by 1/4, which keeps them valid
        # and makes maslov_x4 quarter-integral
        rng = random.Random(default_seed() + 12)
        valid = dumps({"kind": "validation", "ok": True, "complexes": 1})
        for _ in range(200):
            c, expected = random_filtered_complex(rng, rng.randint(0, 4),
                                                  rng.randint(1, 5), rng.randint(0, 50))
            if rng.random() < 0.5:
                c = FilteredComplex([Generator(g.name, g.alexander, g.maslov + Fraction(1, 4))
                                     for g in c.generators], c.differential)
                expected = GradedRanks(
                    {(m + Fraction(1, 4),): r for (m,), r in expected.ranks.items()},
                    {(m + Fraction(1, 4),): t for (m,), t in expected.torsion.items()})
            text = dumps(complex_to_json(c))
            parsed = complex_from_json(loads(text))
            assert dumps(complex_to_json(parsed)) == text
            assert cli(["validate"], stdin_text=text) == (0, valid, "")
            assert homology(parsed, ("maslov",)) == expected

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

    @pytest.mark.parametrize("argv,model", [
        # x at (A, 0), y at (-A, -2A): genus 10^8, about 4*10^8 vertices
        (["surgery", "--p", "1"], "huge"),
        (["surgery", "--p", str(10 ** 12)], "staircase"),
        (["surgery", "--p", str(-10 ** 30), "--range", "full"], "staircase"),
        (["surgery", "--p", "1", "--q", str(10 ** 12)], "staircase"),
    ])
    def test_window_over_budget_exits_one_at_once(self, cli, monkeypatch, argv, model):
        if model == "huge":
            a = 10 ** 8
            c = FilteredComplex([Generator("x", a, 0), Generator("y", -a, -2 * a)], {})
        else:
            c = staircase()
        monkeypatch.setattr(cone.MappingCone, "__init__", lambda *args: pytest.fail("cone built"))
        code, out, err = cli(argv, stdin_text=dumps(complex_to_json(c)))
        assert (code, out) == (1, "")
        assert err.startswith("error: the cone window has ")
        assert err.endswith(" vertices (MAX_CONE_VERTICES = 120000)\n")

    def test_reductions_over_budget_exit_one_at_once(self, cli, monkeypatch):
        # the twist knot with a pair u, w at A = +-300: both tails shared, the
        # estimate still 604 reductions of 1925 generators
        far = FilteredComplex([Generator("u", 300, 0), Generator("w", -300, -600)], {})
        model = direct_sum(minus_twist_knot(961), far)
        monkeypatch.setattr(cone.MappingCone, "__init__", lambda *args: pytest.fail("cone built"))
        code, out, err = cli(["surgery", "--p", "-2000", "--range", "full"],
                             stdin_text=dumps(complex_to_json(model)))
        assert (code, out) == (1, "")
        assert err == ("error: the cone window reduces 1162700 model elements "
                       "(MAX_REDUCED_ELEMENTS = 1000000)\n")

    def test_window_budget_keeps_the_large_staircase_window(self):
        c = cone.MappingCone.build(flip(staircase()), 20000, 1, "full")
        assert len(c.a_ts) + len(c.b_ts) == 100008

    def test_window_budget_keeps_a_many_generator_window(self, cli):
        # 483 generators on 1553 vertices, about 100 reductions
        code, out, _ = cli(["surgery", "--p", "301", "--q", "11", "--range", "full"],
                           stdin_text=dumps(complex_to_json(minus_twist_knot(241))))
        assert code == 0
        assert len(loads(out)["vertices"]) == 1553

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

    def test_box_model_is_not_in_normal_form(self, cli, tmp_path):
        _, model_out, _ = cli(["model", "--box"])
        path = tmp_path / "box.json"
        path.write_text(model_out)
        assert cli(["dualknot", "--n", "1", "--model", str(path)]) == \
            (1, "", "error: summand counts (free, horizontal, vertical) = (0, 1, 1)\n")

    def test_bad_framing_exit_one(self, cli):
        code, _, _ = cli(["dualknot", "--n", "0", "--model", "staircase"])
        assert code == 1

    @pytest.mark.parametrize("n,message", [
        (0, "framing must be a nonzero integer, got 0"),
        (2, "normal form is defined for framing +1"),
        (-1, "normal form is defined for framing +1"),
        (200000, "normal form is defined for framing +1"),
    ])
    @pytest.mark.parametrize("check", ["normalform", "gmap"])
    def test_framing_checked_before_the_cone(self, cli, monkeypatch, n, message, check):
        built = []
        build = cli_module.build_dual_cone
        monkeypatch.setattr(cli_module, "build_dual_cone",
                            lambda f, m: built.append(m) or build(f, m))
        code, out, err = cli(["dualknot", "--n", str(n), "--model", "staircase",
                              "--check", check])
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert built == []

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

    @pytest.mark.parametrize("argv, message", [
        (["--formula", "cobordism", "--q", "0"], "need coprime p != 0, q > 0; got p/q = 1/0"),
        (["--formula", "cobordism", "--p", "2", "--q", "4"],
         "need coprime p != 0, q > 0; got p/q = 2/4"),
        (["--formula", "plusone", "--y", "0"], "the order of a knot class is at least 1, got 0"),
        (["--formula", "posint", "--y", "-3"], "the order of a knot class is at least 1, got -3"),
        (["--formula", "posint", "--n", "0"], "positive integer surgery needs n >= 1, got 0"),
    ])
    def test_undefined_inputs_exit_one(self, cli, argv, message):
        assert cli(["c1", *argv]) == (1, "", f"error: {message}\n")


NINES = "9" * 4_000


class TestUnprintableResults:
    """A result or a refused count past the interpreter's 4,300-digit
    int-to-string limit is a domain error, and a rational input past it a
    parse error, never a ValueError on the way out."""

    @pytest.mark.parametrize("argv", [
        ["c1", "--formula", "cobordism", "--tb", "0", "--rot", NINES, "--p", "1", "--q", NINES],
        ["c1", "--formula", "posint", "--rot", NINES, "--y", NINES],
        ["pipeline", "--n", "5", "--r=-1/" + "7" * 4_000, "--m", NINES],
    ], ids=["c1 cobordism", "c1 posint", "pipeline --m"])
    def test_exit_one_naming_the_limit(self, cli, argv):
        assert cli(argv) == (1, "", "error: the result has more than 4300 decimal digits "
                                    "(int_max_str_digits = 4300)\n")

    @pytest.mark.parametrize("argv, code, message", [
        (["pipeline", "--n", "5", "--r=-1e5000"], 2, "not a rational number: '-1e5000'"),
        (["dgs", "--r=-1e4300"], 2, "not a rational number: '-1e4300'"),
        (["dgs", "--r=-" + "9" * 4_300], 1,
         "the result has more than 4300 decimal digits (int_max_str_digits = 4300)"),
        (["model", "--minus-en", "9" * 4_300], 1,
         "the model has at least 10^4300 generators (MAX_MODEL_GENERATORS = 10000)"),
        (["dualknot", "--n", "1", "--model", "minus-en:" + "9" * 4_300], 1,
         "the model has at least 10^4300 generators (MAX_MODEL_GENERATORS = 10000)"),
        (["surgery", "--p", "7", "--q", "9" * 4_300], 1,
         "the cone window has at least 10^4300 vertices (MAX_CONE_VERTICES = 120000)"),
        (["pipeline", "--n", "5", "--r=-1e4299"], 1,
         "the cone window has at least 10^4300 vertices (MAX_CONE_VERTICES = 120000)"),
        (["model", "--minus-en", "9" * 4_299], 1,
         f"the model has {2 * 10 ** 4_299 - 1} generators (MAX_MODEL_GENERATORS = 10000)"),
    ], ids=["pipeline --r=-1e5000", "dgs --r=-1e4300", "dgs a[0]", "model", "dualknot",
            "surgery --q", "pipeline window", "model count that prints"])
    def test_inputs_and_counts_past_the_limit(self, cli, argv, code, message):
        # e-notation builds 10^k without the int-from-string limit, and a
        # refused count past it is written as a power of ten
        assert cli(argv, dumps(complex_to_json(staircase()))) == (code, "", f"error: {message}\n")

    def test_a_4300_digit_expansion_still_prints(self, cli):
        code, out, _ = cli(["dgs", "--r=-1e4299"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "37f0f35ced45ab18ebebada73801e89669a9693ddb459e98ad9e3c7f575ff158"

    def test_the_limit_is_exact(self, cli):
        # the value p + rot - 1 is 10^4300 - 1 (4,300 digits) at p = 1, 10^4300 at p = 2
        argv = ["c1", "--formula", "cobordism", "--rot", "9" * 4_300]
        code, out, _ = cli(argv)
        assert code == 0 and json.loads(out)["value"] == 10 ** 4_300 - 1
        assert cli([*argv, "--p", "2"])[0] == 1


class TestSizeBudgets:
    """Inputs whose expansion or model would never finish are refused before
    anything large is built; the largest admitted sizes still build."""

    @pytest.mark.parametrize("argv", [
        ["dgs", "--r=1e400"],
        ["dgs", "--r=-1e-400"],
        ["dgs", "--r=-1/1000000"],
        ["dgs", "--r=1/1000000"],
        ["dgs", "--r=1e-400"],
        ["pipeline", "--n", "5", "--r=-1/1000000"],
    ])
    def test_long_expansions_exit_one_at_once(self, cli, monkeypatch, argv):
        monkeypatch.setattr(contact, "DgsExpansion", lambda *a: pytest.fail("expansion built"))
        assert cli(argv) == (1, "", "error: the expansion has more than 100000 terms "
                                    "(MAX_CF_TERMS = 100000)\n")

    @pytest.mark.parametrize("argv, generators", [
        (["model", "--minus-en", "1000001"], 2000003),
        (["model", "--dual-normal", "1000001"], 2000005),
        (["pipeline", "--n", "999999999", "--r=-2"], 1999999999),
        (["knot-homology", "--minus-en", "99999999"], 199999999),
        (["dualknot", "--n", "1", "--model", "minus-en:99999999"], 199999999),
    ])
    def test_large_models_exit_one_at_once(self, cli, monkeypatch, argv, generators):
        monkeypatch.setattr(models, "box", lambda *a: pytest.fail("model built"))
        monkeypatch.setattr(models, "Generator", lambda *a: pytest.fail("model built"))
        assert cli(argv) == (1, "", f"error: the model has {generators} generators "
                                    "(MAX_MODEL_GENERATORS = 10000)\n")

    def test_budget_edges(self):
        assert len(minus_twist_knot(4999)) == 9999
        assert len(dual_normal_form_model(4997)) == 9997
        assert len(contact.negative_cf(Fraction(-1, 100000))) == 100000
        assert contact.positive_expansion(Fraction(1, 100000)).e == 100000
        for build, n in [(minus_twist_knot, 5001), (dual_normal_form_model, 4999)]:
            with pytest.raises(DomainError, match="MAX_MODEL_GENERATORS"):
                build(n)
        for expand, r in [(contact.negative_expansion, Fraction(-1, 100001)),
                          (contact.positive_expansion, Fraction(1, 100001))]:
            with pytest.raises(DomainError, match="MAX_CF_TERMS"):
                expand(r)


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

    def test_pipeline_checks_three_complexes(self, cli, monkeypatch):
        # the 31-generator model by its FlipMap, the flattened dual cone once
        # built, and the 33-generator normal form by its FlipMap; g_map takes
        # the normal form as valid, since checked moves built it
        calls = []
        for module in (algebra, dual, cli_module):
            monkeypatch.setattr(module, "check_complex",
                                lambda c: calls.append(len(c)) or check_complex(c))
        code, _, _ = cli(["pipeline", "--n", "15", "--r=-5"])
        assert code == 0
        assert calls == [31, 93, 33]

    @staticmethod
    def count_searches(monkeypatch) -> list[int]:
        # every module that bound models.flip counts its calls, by model size
        calls = []
        search = models.flip
        for module in (models, cli_module, contact, dual, cone):
            if getattr(module, "flip", None) is search:
                monkeypatch.setattr(module, "flip", lambda c: calls.append(len(c)) or search(c))
        return calls

    def test_pipeline_searches_no_reflection_and_walks_one_sector(self, cli, monkeypatch):
        # the model's and the normal form's reflections are known by
        # construction, and include_B walks phi over its own sector of the
        # 45 alone; the dual cone has one sector
        searches = self.count_searches(monkeypatch)
        walked = []
        sector_phi = cone.MappingCone._sector_phi
        monkeypatch.setattr(cone.MappingCone, "_sector_phi", lambda self, t0: walked.append(
            (self.p, t0)) or sector_phi(self, t0))
        code, _, _ = cli(["pipeline", "--n", "15", "--r=-46"])
        assert (code, searches, walked) == (0, [], [(1, 0), (-45, 44)])

    def test_pipeline_replays_only_reduced_vertices(self, cli, monkeypatch):
        # g_map's one map and h of the top = 1 record, whose v is the
        # identity, B being A_top; include_B's sector reads the s = -1 record,
        # which is A_1's through the flip, and the s = -2 and 2 records,
        # derived from A_1's too: 2 replays, 4 with the s = -1 record
        # reduced and replayed, 5 with the top v replayed too
        replays = []
        for module in (cone, dual):
            induced_map = module.induced_map
            monkeypatch.setattr(module, "induced_map", lambda *args, f=induced_map:
                                replays.append(1) or f(*args))
        code, _, _ = cli(["pipeline", "--n", "15", "--r=-46"])
        assert (code, len(replays)) == (0, 2)

    @pytest.mark.parametrize("check", ["normalform", "gmap"])
    def test_dualknot_searches_only_what_it_reads(self, cli, monkeypatch, tmp_path, check):
        # the staircase is the n = 1 twist model, so its reflection is known;
        # the same complex read from JSON is searched
        searches = self.count_searches(monkeypatch)
        for model in ("minus-en:41", "staircase"):
            code, _, _ = cli(["dualknot", "--n", "1", "--model", model, "--check", check])
            assert (code, searches) == (0, [])
        path = tmp_path / "staircase.json"
        path.write_text(dumps(complex_to_json(staircase())), encoding="utf-8")
        code, _, _ = cli(["dualknot", "--n", "1", "--model", str(path), "--check", check])
        assert (code, searches) == (0, [3])

    def test_loss_command(self, cli):
        _, out, _ = cli(["loss", "--tb", "0", "--rot", "-1"])
        assert json.loads(out)["alexander"] == 1

    def test_knot_homology_command(self, cli):
        _, out, _ = cli(["knot-homology", "--minus-en", "5"])
        payload = json.loads(out)
        assert payload["alexander_polynomial_str"] == "3t - 5 + 3t^-1"
        assert payload["hat_ranks"]["total_rank"] == 11

    def test_knot_homology_computes_the_homology_once(self, cli, monkeypatch):
        # the ranks count the generators of one filtered reduction, and the
        # polynomial is the Euler characteristic of those ranks
        calls = []
        monkeypatch.setattr(models, "reduce",
                            lambda c, mode: calls.append((mode, len(c))) or algebra.reduce(c, mode))
        code, _, _ = cli(["knot-homology", "--minus-en", "5"])
        assert (code, calls) == (0, [("filtered", 11)])

    @pytest.mark.parametrize("model", [["--minus-en", "3"], ["--staircase"], ["--box"]])
    def test_knot_homology_of_a_mirror_prints_no_float(self, cli, model):
        # the mirror's Maslov gradings are negative; its polynomial is the
        # knot's own, and every coefficient is an int
        def no_float(text):
            raise AssertionError(f"float {text} in the output")

        polys = []
        for argv in (model, [*model, "--mirror"]):
            code, out, _ = cli(["knot-homology", *argv])
            assert code == 0
            payload = json.loads(out, parse_float=no_float)
            polys.append((payload["alexander_polynomial"], payload["alexander_polynomial_str"]))
        assert polys[0] == polys[1]
        assert "." not in polys[1][1]


def test_operation_counts_grow_linearly(monkeypatch):
    # from N = 241 to 961 (3.99 times the generators) every counted operation
    # grows at most 4.2 times, and the complexes built stay the same: the
    # model, the flattened cone, the filtered and the split reduction in
    # dualknot, and in pipeline also g_map's two slices and one reduction, and
    # the -2 cone's one hat vertex slice, A_top, with its reduction; its
    # s = -1 record is A_1's through the flip.  Heap pushes count the
    # elimination loop's candidates, with keep mode's re-queued rows and
    # columns (3.975 times)
    counts: dict[str, int] = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(algebra._Reduction, "basis_change",
                        counting("basis_change", algebra._Reduction.basis_change))
    monkeypatch.setattr(algebra._Reduction, "isolate",
                        counting("isolate", algebra._Reduction.isolate))
    toggle = counting("_toggle", algebra._toggle)
    for module in (algebra, dual):
        monkeypatch.setattr(module, "_toggle", toggle)
    monkeypatch.setattr(algebra.FilteredComplex, "__init__",
                        counting("FilteredComplex", algebra.FilteredComplex.__init__))
    monkeypatch.setattr(algebra, "heappush", counting("heappush", algebra.heappush))
    for argv, built in [(["dualknot", "--n", "1", "--model", "minus-en:{}", "--check",
                          "normalform"], 4),
                        (["pipeline", "--n", "{}", "--r=-3"], 9)]:
        per_size = []
        for size in (241, 961):
            counts.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([arg.format(size) for arg in argv]) == 0
            per_size.append(dict(counts))
        small, large = per_size
        assert small["FilteredComplex"] == large["FilteredComplex"] == built, argv
        assert small.keys() == large.keys() == {"basis_change", "isolate", "_toggle",
                                                "FilteredComplex", "heappush"}, argv
        assert all(large[name] <= 4.2 * small[name] for name in small), (argv, per_size)


def test_rank_column_work_is_pinned(monkeypatch):
    # pipeline --r=-3 ranks g_map's columns, then include_B's D, then
    # H(B_t)'s unit columns after D's pivot table.  No column is XORed: each
    # enters with a lowest bit no earlier column holds.  But every D column is
    # as wide as its highest row, so the bits the loop reads grow with the
    # square of the model (15.7 times for 3.99 times the generators).  Pinned
    # exactly, not as a ratio; a block sweep (ROADMAP item 4) or per-summand
    # cones (item 10) should lower them
    counts = {"calls": 0, "xors": 0, "bits": 0}
    package_rank = gf2.rank

    def rank(columns, pivots=None):
        counts["calls"] += 1
        pivots = {} if pivots is None else pivots
        earlier = list(pivots.values())
        for col in columns:
            counts["bits"] += col.bit_length()
            while col and (col & -col) in pivots:
                col ^= pivots[col & -col]
                counts["xors"] += 1
            if col:
                pivots[col & -col] = col
        assert len(pivots) == package_rank(earlier + list(columns))
        return len(pivots)

    monkeypatch.setattr(gf2, "rank", rank)
    measured = {}
    for size in (241, 961):
        for name in counts:
            counts[name] = 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["pipeline", "--n", str(size), "--r=-3"]) == 0
        measured[size] = dict(counts)
    assert measured == {241: {"calls": 3, "xors": 0, "bits": 753_481},
                        961: {"calls": 3, "xors": 0, "bits": 11_826_361}}


class TestRelabelledModels:
    """Renaming a model's generators, or reordering them too, at JSON level
    leaves the genus, the cone's vertices and every surgery sector as they
    were.  Sectors are compared, not bytes: the echoed complex keeps its
    input order."""

    COEFFICIENTS = [("1", "1"), ("-3", "1"), ("5", "2"), ("-7", "3")]

    @classmethod
    def surgery_fields(cls, runner, model: str) -> list[dict]:
        fields = []
        for p, q in cls.COEFFICIENTS:
            for flavor in ("hat", "infinity"):
                code, out, err = runner(["surgery", "--p", p, "--q", q, "--range", "full",
                                         "--flavor", flavor], model)
                assert (code, err) == (0, ""), (p, q, flavor)
                payload = json.loads(out)
                fields.append({key: payload[key] for key in ("genus", "vertices", "sectors")})
        return fields

    @staticmethod
    def relabelled(model: str, seed: int, shuffle: bool) -> str:
        payload = json.loads(model)
        generators = payload["generators"]
        names = [f"g{k}" for k in range(len(generators))]
        random.Random(seed).shuffle(names)
        rename = {g["name"]: name for g, name in zip(generators, names)}
        for g in generators:
            g["name"] = rename[g["name"]]
        for entry in payload["differential"]:
            entry["from"], entry["to"] = rename[entry["from"]], rename[entry["to"]]
        if shuffle:
            random.Random(seed).shuffle(generators)
        return json.dumps(payload)

    def assert_unchanged(self, cli, argv: list[str], n: int, shuffle: bool):
        code, model, _ = cli(["model", "--minus-en", str(n), *argv])
        assert code == 0
        renamed = self.relabelled(model, default_seed() + n, shuffle)
        assert self.surgery_fields(cli, renamed) == self.surgery_fields(cli, model)

    @pytest.mark.parametrize("n, argv", [(9, []), (41, []), (241, []), (9, ["--mirror"])])
    def test_renaming_in_order(self, cli, n, argv):
        self.assert_unchanged(cli, argv, n, shuffle=False)

    # ROADMAP item 7: the reflection search's step budget refuses the shuffled
    # n = 41 model today, so the shuffled sizes stop at 15
    @pytest.mark.parametrize("n", [5, 9, 15])
    def test_renaming_and_shuffling(self, cli, n):
        self.assert_unchanged(cli, [], n, shuffle=True)


# every command that takes --out, with arguments that make it succeed
OUT_COMMANDS = [
    (["model", "--minus-en", "5"], ""),
    (["surgery", "--p", "3", "--q", "2"], dumps(complex_to_json(staircase()))),
    (["dualknot", "--n", "1", "--model", "minus-en:5"], ""),
    (["dgs", "--r=-7/2"], ""),
    (["c1", "--formula", "cobordism", "--tb", "1", "--p", "2", "--q", "3"], ""),
    (["pipeline", "--n", "5", "--r=-3"], ""),
    (["pipeline", "--n", "5", "--r=-3", "--format", "json"], ""),
    (["loss", "--tb", "0", "--rot", "-1"], ""),
    (["knot-homology", "--minus-en", "5"], ""),
]


@pytest.mark.parametrize("argv,stdin_text", OUT_COMMANDS,
                         ids=[" ".join(a) for a, _ in OUT_COMMANDS])
def test_out_writes_exactly_what_stdout_would_show(cli, tmp_path, argv, stdin_text):
    takes_out = set()
    for name, (_, add_args, _) in cli_module.COMMANDS.items():
        parser = argparse.ArgumentParser()
        add_args(parser)
        if "--out" in parser._option_string_actions:
            takes_out.add(name)
    assert takes_out == {a[0] for a, _ in OUT_COMMANDS}
    code, shown, err = cli(argv, stdin_text)
    assert (code, err) == (0, "") and shown
    path = tmp_path / "report"
    assert cli([*argv, "--out", str(path)], stdin_text) == (0, "", "")
    assert path.read_bytes() == shown.encode("utf-8")


@pytest.mark.parametrize("argv, message", [
    (["surgery", "--p", "1", "--in", "{missing}/in.json"], "cannot read {missing}/in.json: "),
    (["loss", "--tb", "0", "--rot", "-1", "--out", "{missing}/x"], ""),
], ids=["--in", "--out"])
def test_missing_paths_exit_two(cli, tmp_path, argv, message):
    missing = tmp_path / "missing"
    code, out, err = cli([arg.format(missing=missing) for arg in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message.format(missing=missing) + "[Errno 2] ")


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

    @pytest.mark.parametrize("flavor, vertex", [("hat", "vertex A_1"), ("infinity", "the source")])
    def test_unreduced_surgery_vertex_exits_three(self, cli, monkeypatch, flavor, vertex):
        monkeypatch.setattr(cone, "reduce", lambda c, mode: ReducedForm(c, []))
        code, out, err = cli(["surgery", "--p", "3", "--flavor", flavor],
                             dumps(complex_to_json(staircase())))
        assert (code, out) == (3, "")
        assert err == f"error: internal: {vertex} keeps a differential after reduction\n"



# Exit code and SHA-256 of stdout + "\0" + stderr at COLUMNS=80 for the
# parser's own output: help, usage and error text.  Recorded when main still
# built every subparser on each call, so the top-level usage line must stay
# the same however the parser is now assembled.
PARSER_BYTES = [
    ([], 2, "12c270d54fc86a69d112a2314483be693d9a8e499d6ffc0390ae15ab26692fd9"),
    (["-h"], 0, "064e2f9ba9cb4b895e3f72d307e1bf2a8e9c8dc78bd58096e9b3f5f529490cd2"),
    (["bogus"], 2, "4c17de2fb6e99d7b0ccee7f7f686084217e1a330a2e630177fcf305ac62523d7"),
    (["--"], 2, "12c270d54fc86a69d112a2314483be693d9a8e499d6ffc0390ae15ab26692fd9"),
    (["surg"], 2, "1a44710d1712fcfd8386e2f6c867c685fefc4ae43bc08c15e22dacc855b3052a"),
    (["model", "-h"], 0, "4c329e4e9e28e2ebe4197472f8c0d960cd420fc2493a11bf0e97f3cc62b2b04f"),
    (["validate", "-h"], 0, "f473e4c306f80219462ebd0ed769b6e2fb8e2f335cc5aec8b01a2681ee7a3560"),
    (["surgery", "-h"], 0, "33585de150d4f163791478161ba1322de0de95b1d83e4bad5073f51d0f28f85a"),
    (["dualknot", "-h"], 0, "524971b4c58c929053abaf6841367f3a0d53e4c82f507d39ffcae4ffc7de5e8f"),
    (["dgs", "-h"], 0, "e40bd81f1849c94b663c1eaf4e9af8b42c697a7b42bf79ae9a8c73eff97240a0"),
    (["c1", "-h"], 0, "a3375319a25642688f026fb5e694c21574c25fed14720f405a832b54dce9782b"),
    (["pipeline", "-h"], 0, "c2ff9209f8e74ef9aea1ebd468657b4d52a1f6029ae43b34bda43e03665e1d53"),
    (["loss", "-h"], 0, "d7881a7420642ce427892934d81d9bc104c35449ae26959b021cbc7462d134e6"),
    (["knot-homology", "-h"], 0,
     "d008705847d8910b978aa621c8042e01ce9360a8dcc679dfa90e1ba6558d64a5"),
    (["surgery"], 2, "0d5eaef08e7e3ea21271d3a6d1dd43b51dba80fd5ad2d835752ac2a520838c28"),
    (["pipeline", "--n", "5"], 2,
     "06a8fb9e69b26885f15471e67dae3f15ba47af653f361d90f3e9e4635c8109d4"),
    (["loss", "--tb", "1"], 2, "c5a4294d35d993a949e340d9c81aad62f175b97cf8c90d2094fdaeefa342070d"),
    (["surgery", "--p", "3", "--flavor", "bogus"], 2,
     "a6f34ca5f239efcb96a22637ad5cad78bb6fdd52409d9aba779b25858b40db89"),
    (["c1", "--formula", "x"], 2,
     "ec0c078b4cd8839e4f4f1cd0e3c544a3c2d764c4869007a053a261390ce74c2e"),
    (["dualknot", "--n", "1", "--check", "nf"], 2,
     "e906a1c734c0eb0f5440bd381944d7b4350c5961e9c5e56509d4531486304a5f"),
    (["loss", "--tb", "1", "--rot", "0", "extra"], 2,
     "24ff1b7bfa24cd1c1e85666f6bc76370eab6381ef3fd62405fb43285bdb50dbe"),
    (["pipeline", "--n", "5", "--r=-3", "--bogus"], 2,
     "b2d0c43cf672568dad1b7d1d812c8a9df2b912e815e972f440f94fd073c8a3fe"),
    (["dgs", "--r=-2", "--x", "1"], 2,
     "8c3849deaa44ba964150d3a03657fc2c4299dbe83b66443d47d92cec3d02554b"),
    (["model", "--minus-en", "x"], 2,
     "2dc90a5f1508b3c6134758cd8f303269c8fe1c53e7d8d23bb7225cefb1460d55"),
]


class TestParser:
    @pytest.mark.parametrize("argv,code,digest", PARSER_BYTES,
                             ids=[" ".join(argv) or "<none>" for argv, _, _ in PARSER_BYTES])
    def test_help_usage_and_error_bytes(self, cli, monkeypatch, argv, code, digest):
        monkeypatch.setenv("COLUMNS", "80")
        got, out, err = cli(argv)
        assert got == code
        assert hashlib.sha256((out + "\0" + err).encode("utf-8")).hexdigest() == digest

    @staticmethod
    def subparsers_built(monkeypatch, run) -> list[str]:
        add_parser = argparse._SubParsersAction.add_parser
        names = []

        def counting(self, name, **kwargs):
            names.append(name)
            return add_parser(self, name, **kwargs)
        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
        run()
        return names

    @pytest.mark.parametrize("argv,built", [
        (["loss", "--tb", "1", "--rot", "0"], 1),
        (["pipeline", "--n", "5", "--r=-3"], 1),
        (["surgery", "-h"], 1),
        (["surgery"], 1),
        (["-h"], 9),
        ([], 9),
        (["bogus"], 9),
        (["--", "loss", "--tb", "1", "--rot", "0"], 9),
    ], ids=lambda x: " ".join(x) or "<none>" if isinstance(x, list) else str(x))
    def test_builds_only_the_invoked_subparser(self, cli, monkeypatch, argv, built):
        names = self.subparsers_built(monkeypatch, lambda: cli(argv))
        assert len(names) == len(set(names)) == built

    def test_sys_argv_picks_the_subparser(self, cli, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["floercone", "loss", "--tb", "1", "--rot", "0"])
        names = self.subparsers_built(monkeypatch, lambda: cli(None))
        assert names == ["loss"]

    def test_module_entry_point_reads_sys_argv(self, cli):
        src = str(Path(cli_module.__file__).parent.parent)
        env = dict(os.environ, PYTHONIOENCODING="utf-8",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "floercone", *argv], env=env,
                                  capture_output=True, check=False)
        helped = run("-h")
        assert helped.returncode == 0
        assert helped.stdout.startswith(b"usage: floercone")
        argv = ["pipeline", "--n", "5", "--r=-2"]
        proc = run(*argv)
        code, out, err = cli(argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())
