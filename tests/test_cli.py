"""Command line behavior: formats, exit codes, error reporting."""

import json

import pytest

from folindex.cli import main


def run_cli(tmp_path, capsys, text, *extra):
    path = tmp_path / "session.fol"
    path.write_text(text, encoding="utf-8")
    code = main(["run", str(path)] + list(extra))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_text_output_all_ok(tmp_path, capsys):
    code, out, err = run_cli(
        tmp_path, capsys,
        "ring x,y; f := y^2 - x^3; milnor f at (0,0); "
        "v := vf(2*x, 3*y); homological v along f at (0,0);")
    assert code == 0
    assert err == ""
    assert "== milnor f at (0, 0)" in out
    assert "value: 2" in out
    assert "value: -1" in out
    assert out.count("verdict: OK") == 2


def test_json_output_rationals(tmp_path, capsys):
    code, out, err = run_cli(
        tmp_path, capsys,
        "ring x,y; f := y^2 - x^3; milnor f at (0,0); "
        "v := vf(x, 7*y); bb v phi (c1^2) at (0,0);",
        "--format", "json")
    assert code == 0
    data = json.loads(out)
    records = data["records"]
    assert len(records) == 2
    # integers stay integers, proper fractions become "p/q" strings
    assert records[0]["value"] == 2
    assert records[1]["value"] == "64/7"
    for rec in records:
        assert set(rec) == {"command", "inputs", "value", "method",
                            "crosschecks", "verdict"}
        for check in rec["crosschecks"]:
            assert isinstance(check, list) and len(check) == 3
            assert isinstance(check[1], bool)


def test_check_pass_exit_zero(tmp_path, capsys):
    code, out, err = run_cli(
        tmp_path, capsys,
        "ring x,y; f := y^2 - x^3; v := vf(2*x, 3*y); "
        "P0 := point (1, 0, 0); Pinf := point (0, 0, 1); "
        "b0 := branch(t^2, t^3) order 20; binf := branch(t^3, t) order 20; "
        "check cs_total of v along f points (P0 branch b0, Pinf branch binf);")
    assert code == 0
    assert "verdict: PASS" in out
    assert "value: 9" in out


def test_check_fail_exit_one(tmp_path, capsys):
    # no branches declared at either point: each local sum is 0, so the
    # total misses the closed form and the check must fail honestly
    code, out, err = run_cli(
        tmp_path, capsys,
        "ring x,y; f := y^2 - x^3; v := vf(2*x, 3*y); "
        "P0 := point (1, 0, 0); Pinf := point (0, 0, 1); "
        "check cs_total of v along f points (P0, Pinf);")
    assert code == 1
    assert "verdict: FAIL" in out


def test_parse_error_exit_two(tmp_path, capsys):
    code, out, err = run_cli(tmp_path, capsys, "ring x,y; f := ;")
    assert code == 2
    assert out == ""
    assert "error:" in err and "line 1" in err


def test_undeclared_name_exit_two(tmp_path, capsys):
    code, out, err = run_cli(tmp_path, capsys, "ring x,y;\np := q + 1;")
    assert code == 2
    assert "line 2" in err and "column 6" in err


@pytest.mark.parametrize("text, message, where", [
    ("ring x,y; f := x $ y;", "unexpected character", "line 1, column 18"),
    ("ring x,y,x;", "repeated ring variable", "line 1, column 10"),
    ("ring x,y; x := y;", "cannot assign to ring variable",
     "line 1, column 11"),
    ("ring x,y; v := vf(x);", "vf needs 2 components", "line 1, column 21"),
    ("ring x,y; w := form(x dx, y);", "expected d<var>",
     "line 1, column 28"),
    ("ring x,y; b := branch(t, t) order 1;", "branch order",
     "line 1, column 35"),
    ("ring x,y; f := x/0;", "zero denominator", "line 1, column 18"),
    ("ring x,y; f := y^2 - x^3;\nmilnor f at (1/0, 0);", "zero denominator",
     "line 2, column 16"),
    ("ring x,y;\nmilnor g at (0,0);", "unknown name", "line 2, column 8"),
], ids=["unexpected-character", "repeated-ring-variable",
        "assign-ring-variable", "vf-arity", "form-item-without-dvar",
        "branch-order-one", "zero-denominator-expression",
        "zero-denominator-point", "unknown-name-in-command"])
def test_bad_session_text_exit_two_with_its_place(tmp_path, capsys, text,
                                                  message, where):
    code, out, err = run_cli(tmp_path, capsys, text)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err and where in err


def test_declared_polynomial_inside_an_expression(tmp_path, capsys):
    code, out, err = run_cli(
        tmp_path, capsys,
        "ring x,y; f := y^2; g := f - x^3; milnor g at (0,0);",
        "--format", "json")
    assert code == 0
    assert [r["value"] for r in json.loads(out)["records"]] == [2]


def test_missing_file_exit_two(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.fol")])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_oracle_flag(tmp_path, capsys):
    code, out, err = run_cli(
        tmp_path, capsys,
        "ring x,y; f := y^2 - x^3; v := vf(2*x, 3*y); "
        "homological v along f at (0,0);",
        "--oracle", "on")
    assert code == 0
    assert "verdict: OK" in out


def test_step_budget_exit_two(tmp_path, capsys):
    code, out, err = run_cli(
        tmp_path, capsys,
        "ring x,y; f := x^5 + y^5 + x^2*y^2; milnor f at (0,0);",
        "--steps", "2")
    assert code == 2
    assert "error:" in err and "budget" in err


PLANE = "ring x,y; v := vf(2*x, 3*y); f := y^2 - x^3; P := point (1, 0, 0); "
SPACE = ("ring x,y,z; v := vf(x, 2*y, 3*z); f := y; g := z; "
         "P := point (1, 0, 0, 0); ")


@pytest.mark.parametrize("text", [
    PLANE + "check brunella of v points (P);",
    PLANE + "check cs_total of v along (f) points (P);",
    PLANE + "check log_bb of v points (P);",
    PLANE + "check soares of v;",
    PLANE + "check adjunction of v along (f);",
    SPACE + "check pfaff_degree of v along f points (P);",
    SPACE + "check pfaff_degree of v along (f) points (P);",
    SPACE + "check var_total of v along f points (P);",
    SPACE + "gsv v along f at (0,0,0);",
    SPACE + "b := branch(t, t, t) order 8; cs v along f branch b at (0,0,0);",
    SPACE + "b := branch(t, t, t) order 8; var v along f branch b at (0,0,0);",
    PLANE + "gsv v along (f, f) at (0,0);",
    SPACE + "gsv v along (f, g, f) at (0,0,0);",
    SPACE + "w := form(x dx); gsv w along (f, g) at (0,0,0);",
], ids=["brunella-no-along", "cs-along-list", "log-bb-no-divisor", "soares",
        "adjunction", "pfaff-one-name", "pfaff-short-list", "var-in-space",
        "gsv-one-name-in-space", "cs-in-space", "var-in-space-local",
        "gsv-list-too-long", "gsv-list-too-long-in-space", "gsv-form-degree"])
def test_check_missing_what_its_kind_needs_exit_two(tmp_path, capsys, text):
    code, out, err = run_cli(tmp_path, capsys, text)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "line 1" in err


def test_bb_total_in_space_exit_zero(tmp_path, capsys):
    code, out, err = run_cli(
        tmp_path, capsys,
        SPACE + "Q := point (0, 1, 0, 0); R := point (0, 0, 1, 0); "
        "S := point (0, 0, 0, 1); check bb_total of v points (P, Q, R, S);",
        "--format", "json")
    assert code == 0
    assert err == ""
    assert [r["value"] for r in json.loads(out)["records"]] == [64]


# the residue along y^2 = x^25 needs branch order past 20
CUSP_25 = ("ring x,y; f := y^2 - x^25; v := vf(2*x, 25*y); "
           "b := branch(t^2, t^25) order 20; ")


@pytest.mark.parametrize("kind, value", [("cs", 50), ("var", 27)],
                         ids=["cs", "var"])
def test_branch_residue_order_comes_from_the_germ(tmp_path, capsys, kind,
                                                  value):
    # the branch is lifted past order 50 with no flag
    code, out, err = run_cli(
        tmp_path, capsys,
        CUSP_25 + f"{kind} v along f branch b at (0,0);", "--format", "json")
    assert code == 0
    assert err == ""
    assert [r["value"] for r in json.loads(out)["records"]] == [value]


@pytest.mark.parametrize("kind, order", [("cs", "0"), ("var", "-5")],
                         ids=["cs-truncation-zero", "var-truncation-negative"])
def test_truncation_flag_is_gone(tmp_path, capsys, kind, order):
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, capsys,
                CUSP_25 + f"{kind} v along f branch b at (0,0);",
                "--truncation", order)
    assert exc.value.code == 2


@pytest.mark.parametrize("text, extra, message", [
    (PLANE + "c := 1; check brunella of v along c points (P);", [],
     "does not define a curve"),
    (PLANE + "z := 0; homological v along z at (0,0);", [],
     "does not define a curve"),
    (PLANE + "z := 0; gsv v along z at (0,0);", [],
     "does not define a curve"),
    (PLANE + "milnor f at (0,0);", ["--steps", "0"],
     "step budget must be a positive integer"),
], ids=["constant-curve", "homological-zero-curve", "gsv-zero-curve",
        "steps-zero"])
def test_run_time_bad_input_exit_two(tmp_path, capsys, text, extra, message):
    code, out, err = run_cli(tmp_path, capsys, text, *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("steps, code", [("10", 2), ("200", 0)])
def test_steps_cap_the_whole_command(tmp_path, capsys, steps, code):
    # gsv on the cusp spends 17 steps: 16 in its standard bases and normal
    # forms, and one in its one exact division, the tangency cofactor
    got, out, err = run_cli(
        tmp_path, capsys,
        "ring x,y; f := y^2 - x^3; v := vf(2*x, 3*y); gsv v along f at (0,0);",
        "--steps", steps)
    assert got == code
    if code:
        assert err.startswith("error:") and "budget" in err
    else:
        assert "value: -1" in out


@pytest.mark.parametrize("text, where", [
    ("ring x,y; f := y^2 - x^3; milnor f at (0,0,0);", "line 1, column 39"),
    ("ring x,y; f := y^2 - x^3; P := point (0, 0, 0);\nmilnor f at P;",
     "line 2, column 13"),
    ("ring x,y; v := vf(x, 2*y); P := point (0, 0);\n"
     "check milnor_total of v points (P);", "line 2, column 33"),
], ids=["at-literal", "at-name", "points-item"])
def test_point_with_wrong_arity_exit_two(tmp_path, capsys, text, where):
    code, out, err = run_cli(tmp_path, capsys, text)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "coordinates" in err and where in err


DUPLICATE = ("ring x,y; v := vf((x-1)*(x-2), (y-1)*(y-2)); "
             "A := point (1,1,1); B := point (1,1,2); C := point (1,2,1); "
             "I0 := point (0,1,0); I1 := point (0,0,1); I2 := point (0,1,1); ")


@pytest.mark.parametrize("kind", ["milnor_total", "bb_total"])
def test_point_declared_twice_exit_two(tmp_path, capsys, kind):
    # A twice covers the missing [1:2:2] in every chart
    code, out, err = run_cli(
        tmp_path, capsys,
        DUPLICATE + f"check {kind} of v points (A, A, B, C, I0, I1, I2);")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "declared twice" in err


def test_file_that_is_not_utf8_exit_two(tmp_path, capsys):
    path = tmp_path / "session.fol"
    path.write_bytes(b"ring x,y; f := y^2 - x^3; \xff milnor f at (0,0);")
    code = main(["run", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_bad_steps_exit_two_without_a_command(tmp_path, capsys, steps):
    code, out, err = run_cli(tmp_path, capsys,
                             "ring x,y; f := y^2 - x^3;", "--steps", steps)
    assert code == 2
    assert out == ""
    assert "step budget must be a positive integer" in err
