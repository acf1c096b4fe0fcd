"""Session language: parsing, printing, round trips, execution."""

import random
from fractions import Fraction

import pytest

from folindex.dsl import (
    Assign,
    Command,
    parse_session,
    print_session,
    run_session,
)
from folindex.errors import (
    ParseError,
    RingMismatch,
    SessionError,
    UndeclaredName,
)
from folindex.polyring import Poly


def test_basic_session():
    text = "ring x,y; f := y^2 - x^3; v := vf(2*x, 3*y); gsv v along f at (0,0);"
    session = parse_session(text)
    assert session.ring == ("x", "y")
    assigns = [s for s in session.statements if isinstance(s, Assign)]
    commands = [s for s in session.statements if isinstance(s, Command)]
    assert len(assigns) == 2 and len(commands) == 1
    x, y = Poly.variables(2)
    assert assigns[0].payload == y ** 2 - x ** 3
    assert assigns[1].payload == (2 * x, 3 * y)
    cmd = commands[0]
    assert cmd.op == "gsv" and cmd.subject == "v" and cmd.along == "f"
    assert cmd.at == (0, 0)


def test_undeclared_name_with_position():
    with pytest.raises(UndeclaredName) as info:
        parse_session("ring x,y;\np := q + 1;")
    assert info.value.line == 2
    assert info.value.col == 6


def test_parse_error_position():
    with pytest.raises(ParseError) as info:
        parse_session("ring x,y; f := ;")
    assert info.value.line == 1
    with pytest.raises(ParseError):
        parse_session("ring x,y; f := x")
    with pytest.raises(ParseError):
        parse_session("ring x,y; f := x; f := y;")


def test_kind_checking():
    with pytest.raises(SessionError):
        parse_session("ring x,y; v := vf(x, y); milnor v at (0,0);")
    with pytest.raises(RingMismatch):
        parse_session(
            "ring x,y; v := vf(x, y); logindex v divisor (z) at (0,0);")


def test_rational_literals():
    session = parse_session("ring x,y; g := 1/2*x - 3/4;")
    x, y = Poly.variables(2)
    g = session.statements[0].payload
    assert g == Fraction(1, 2) * x - Poly.const(2, Fraction(3, 4))


def test_form_constructor():
    session = parse_session(
        "ring x,y; w := form(y dx, x dy); o := form(x dx ^ dy); "
        "o2 := form(x dy ^ dx);")
    x, y = Poly.variables(2)
    w = session.statements[0].payload
    assert w.degree == 1
    assert w.coefficient((0,)) == y and w.coefficient((1,)) == x
    o = session.statements[1].payload
    o2 = session.statements[2].payload
    assert o.degree == 2 and o.coefficient((0, 1)) == x
    assert o2.coefficient((0, 1)) == -x
    with pytest.raises(ParseError):
        parse_session("ring x,y; w := form(y dx, x dx ^ dy);")
    with pytest.raises(ParseError):
        parse_session("ring x,y; w := form(dx ^ dy ^ dx);")


def test_branch_and_point_constructors():
    session = parse_session(
        "ring x,y; b := branch(t^2, t^3) order 24; P := point (0, 0); "
        "Q := point (0, 0, 1);")
    comps, order = session.statements[0].payload
    t = Poly.var(1, 0)
    assert comps == (t ** 2, t ** 3) and order == 24
    assert session.statements[1].payload == (0, 0)
    assert session.statements[2].payload == (0, 0, 1)
    with pytest.raises(ParseError):
        parse_session("ring x,y; P := point (1, 2, 3, 4);")
    with pytest.raises(ParseError):
        parse_session("ring x,y; b := branch(t) order 8;")


CORPUS = [
    "ring x,y; f := y^2 - x^3; v := vf(2*x, 3*y); gsv v along f at (0,0);",
    ("ring x,y; f := y^2 - x^3; v := vf(2*x, 3*y); "
     "b := branch(t^2, t^3) order 20; cs v along f branch b at (0,0); "
     "var v along f branch b at (0,0);"),
    ("ring x,y; v := vf(x^2, y); logindex v divisor (x) at (0,0); "
     "ph v at (0,0);"),
    ("ring x,y; v := vf(x, 7*y); one := 1; bb v phi (c1^2) at (0,0); "
     "residue one over v at (0,0);"),
    ("ring x,y; f := y^2 - x^3; milnor f at (0,0); tjurina f at (0,0); "
     "v := vf(2*x, 3*y); homological v along f at (0,0); "
     "radial v along f at (0,0);"),
    ("ring x,y,z; c1p := y; c2p := z; v := vf(x, 2*y, 3*z); "
     "gsv v along (c1p, c2p) at (0,0,0);"),
    ("ring x,y; f := y^2 - x^3; v := vf(2*x, 3*y); "
     "P0 := point (1, 0, 0); Pinf := point (0, 0, 1); "
     "b0 := branch(t^2, t^3) order 20; binf := branch(t^3, t) order 20; "
     "check cs_total of v along f points (P0 branch b0, Pinf branch binf);"),
    ("ring x,y; v := vf(x, 2*y); O := point (1, 0, 0); "
     "A := point (0, 1, 0); B := point (0, 0, 1); "
     "check log_bb of v divisor (infinity) points (O, A, B); "
     "check milnor_total of v points (O, A, B);"),
    "ring x,y; w := form((y) dx, (x) dy); g := 1/2*x;",
]


def test_print_parse_round_trip():
    for text in CORPUS:
        first = parse_session(text)
        printed = print_session(first)
        second = parse_session(printed)
        assert second == first
        assert print_session(second) == printed


def test_round_trip_random_polys():
    rng = random.Random(7)
    names = ("x", "y")
    for _ in range(25):
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            e = (rng.randrange(4), rng.randrange(4))
            terms[e] = Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))
        p = Poly(2, terms)
        if p.is_zero():
            p = Poly.const(2, 1)
        text = "ring x,y; f := %s;" % p.format(names)
        session = parse_session(text)
        assert session.statements[0].payload == p
        assert parse_session(print_session(session)) == session


def test_run_session_local_commands():
    records = run_session(parse_session(CORPUS[4]))
    by_cmd = {r["command"].split()[0]: r for r in records}
    assert by_cmd["milnor"]["value"] == 2
    assert by_cmd["tjurina"]["value"] == 2
    assert by_cmd["homological"]["value"] == -1
    assert by_cmd["radial"]["value"] == 1
    for r in records:
        assert set(r) == {"command", "inputs", "value", "method",
                          "crosschecks", "verdict"}
        assert r["verdict"] == "OK"
        assert all(ok for _, ok, _ in r["crosschecks"])


def test_run_session_residues_and_bb():
    records = run_session(parse_session(CORPUS[3]))
    assert records[0]["value"] == Fraction(64, 7)
    assert records[1]["value"] == Fraction(1, 7)


def test_run_session_gsv_and_cs():
    records = run_session(parse_session(CORPUS[1]))
    assert [r["value"] for r in records] == [6, 5]
    records = run_session(parse_session(CORPUS[0]))
    assert records[0]["value"] == -1
    records = run_session(parse_session(CORPUS[5]))
    assert records[0]["value"] == 1


def test_run_session_checks():
    records = run_session(parse_session(CORPUS[6]))
    assert records[0]["verdict"] == "PASS"
    assert records[0]["value"] == 9
    records = run_session(parse_session(CORPUS[7]))
    assert [r["verdict"] for r in records] == ["PASS", "PASS"]
    assert [r["value"] for r in records] == [1, 3]


def test_phi_weight_rejected():
    with pytest.raises(ParseError):
        parse_session("ring x,y; v := vf(x, y); bb v phi (c1) at (0,0);")


def test_point_name_in_at_clause():
    text = ("ring x,y; f := y^2 - x^3; P := point (0, 0); "
            "milnor f at P;")
    session = parse_session(text)
    records = run_session(session)
    assert records[0]["value"] == 2
    assert parse_session(print_session(session)) == session
