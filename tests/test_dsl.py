"""Session language: parsing, printing, round trips, execution."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# Names a session may declare besides its ring variables: plain ones and
# keywords, which are contextual and so may name objects too.
_NAMES = ("f", "g", "h", "v", "u", "w", "b", "P", "Q", "R", "at", "along",
          "branch", "order", "phi", "over", "of", "points", "divisor",
          "infinity", "milnor", "check", "vf", "point", "form", "ring")
_RINGS = ("x", "y", "z", "s", "t")
_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _poly_text(draw, names, max_exp=2):
    n = len(names)
    terms = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, max_exp)] * n),
                                    _RATIONALS), max_size=3))
    return Poly(n, dict(terms)).format(names)


def _form_text(draw, ring, degree):
    idx = draw(st.lists(st.permutations(range(len(ring))).map(
        lambda p: p[:degree]), min_size=1, max_size=2))
    return "form(%s)" % ", ".join(
        "(%s) %s" % (_poly_text(draw, ring), " ^ ".join(
            "d" + ring[i] for i in chain)) for chain in idx)


def _rational_list(draw, k):
    return "(%s)" % ", ".join(str(c) for c in draw(
        st.lists(_RATIONALS, min_size=k, max_size=k)))


@st.composite
def _sessions(draw):
    """Session text over a 2- or 3-variable ring with every constructor
    and every command kind whose shape rules the ring admits."""
    n = draw(st.sampled_from((2, 3)))
    ring = tuple(draw(st.permutations(_RINGS))[:n])
    names = iter(draw(st.permutations(
        [name for name in _NAMES if name not in ring])))
    polys = [next(names) for _ in range(3)]
    fields = [next(names) for _ in range(2)]
    dual, other = next(names), next(names)
    branch, affine, proj = next(names), next(names), next(names)
    lines = ["ring %s;" % ", ".join(ring)]
    lines += ["%s := %s;" % (p, _poly_text(draw, ring)) for p in polys]
    lines += ["%s := vf(%s);" % (v, ", ".join(
        _poly_text(draw, ring) for _ in ring)) for v in fields]
    lines.append("%s := %s;" % (dual, _form_text(draw, ring, n - 1)))
    lines.append("%s := %s;" % (other, _form_text(
        draw, ring, draw(st.integers(1, n)))))
    lines.append("%s := branch(%s) order %d;" % (branch, ", ".join(
        _poly_text(draw, ("t",), 4) for _ in ring), draw(st.integers(2, 30))))
    lines.append("%s := point %s;" % (affine, _rational_list(draw, n)))
    lines.append("%s := point %s;" % (proj, _rational_list(draw, n + 1)))

    def one(options):
        return draw(st.sampled_from(options))

    def at():
        return "at " + one((affine, _rational_list(draw, n)))

    def curves():
        return "(%s)" % ", ".join(one(polys) for _ in range(n - 1))

    def divisor(items):
        return "(%s)" % ", ".join(draw(st.lists(
            st.sampled_from(items), min_size=1, max_size=n + 1)))

    plane = n == 2
    phis = ("c1^2", "c2") if plane else ("c1^3", "c1*c2", "c3")
    phi = " + ".join("%s*%s" % (draw(_RATIONALS), m) for m in phis)
    v, f = one(fields), one(polys)
    commands = [
        "milnor %s %s" % (f, at()), "tjurina %s %s" % (one(polys), at()),
        "ph %s %s" % (v, at()),
        "homological %s along %s %s" % (v, f, at()),
        "radial %s along %s %s" % (one(fields), one(polys), at()),
        "gsv %s along %s %s" % (v, curves(), at()),
        "gsv %s along %s %s" % (dual, f if plane else curves(), at()),
        "logindex %s divisor %s %s" % (v, divisor(ring), at()),
        "bb %s phi (%s) %s" % (v, phi, at()),
        "residue %s over %s %s" % (f, v, at()),
        "check milnor_total of %s points (%s)" % (v, ", ".join(
            draw(st.lists(st.sampled_from((proj, affine)), min_size=1,
                          max_size=3)))),
        "check pfaff_degree of %s along %s" % (v, curves()),
        "check log_bb of %s divisor %s points (%s branch %s)" % (
            v, divisor(ring + ("infinity",)), proj, branch),
    ]
    if plane:
        commands += [
            "cs %s along %s branch %s %s" % (v, f, branch, at()),
            "var %s along %s branch %s %s" % (v, f, branch, at()),
            "check bb_total of %s points (%s)" % (v, proj),
            "check brunella of %s along %s" % (v, f),
            "check cs_total of %s along %s points (%s branch %s branch %s)"
            % (v, f, proj, branch, branch),
            "check var_total of %s along %s divisor (infinity)" % (v, f),
        ]
    lines += [c + ";" for c in draw(st.permutations(commands))]
    return "\n".join(lines)


@settings(max_examples=40, deadline=None)
@given(_sessions())
def test_generated_sessions_round_trip(text):
    session = parse_session(text)
    printed = print_session(session)
    assert parse_session(printed) == session
    assert print_session(parse_session(printed)) == printed


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


def test_check_on_a_field_with_radial_top_part():
    text = ("ring x,y; v := vf(x + x^2, 2*y + x*y); P := point (1, 0, 0); "
            "Q := point (1, -1, 0); R := point (0, 0, 1); "
            "check milnor_total of v points (P, Q, R);")
    records = run_session(parse_session(text))
    assert records[0]["verdict"] == "PASS"
    assert records[0]["value"] == 3
