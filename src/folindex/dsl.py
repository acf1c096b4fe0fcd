"""Session language: declarations plus index commands, one statement per ';'.

Grammar (informal):

    session   := ring stmt*
    ring      := "ring" ident ("," ident)* ";"
    stmt      := assign ";" | command ";"
    assign    := name ":=" (polyexpr | constructor)
    constructor :=
        "vf" "(" polyexpr ("," polyexpr)* ")"
      | "form" "(" formitem ("," formitem)* ")"
      | "branch" "(" polyexpr ("," polyexpr)* ")" "order" int
      | "point" "(" rational ("," rational)* ")"
    formitem  := [polyexpr] dvar ("^" dvar)*        # dvar: "d" + ring variable
    command   :=
        ("milnor"|"tjurina") name at
      | "ph" name at
      | ("homological"|"radial") name "along" name at
      | "gsv" name "along" curveref at
      | ("cs"|"var") name "along" name "branch" name at
      | "logindex" name "divisor" "(" ident ("," ident)* ")" at
      | "bb" name "phi" "(" polyexpr ")" at         # over symbols c1..cn
      | "residue" name "over" name at
      | "check" kind "of" name ["along" curveref]
            ["divisor" "(" divitem ("," divitem)* ")"]
            ["points" "(" pointitem ("," pointitem)* ")"]
    at        := "at" (name | "(" rational ("," rational)* ")")
    curveref  := name | "(" name ("," name)* ")"
    pointitem := name ("branch" name)*
    divitem   := ident | "infinity"

Polynomial expressions use + - * / ^ with '/' restricted to integer
literals, so rationals are written 1/2.  Keywords are contextual: any of
them may also be a declared name.  Branch components are polynomials in
the parameter t.  Points carry n affine or n+1 homogeneous coordinates;
local commands need the affine form, check commands the homogeneous one.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .chern import IDENTITY_KINDS
from .errors import (
    DegreeMismatch,
    ParseError,
    RingMismatch,
    SessionError,
    UndeclaredName,
)
from .indices import (
    cs_index,
    gsv_curve,
    gsv_pfaff_curve,
    homological_index,
    log_index,
    milnor_number,
    ph_index,
    radial_index,
    tjurina_number,
    var_index,
)
from .polyring import DiffForm, Poly, VectorField, field_from_dual, wedge
from .projective import ProjPoint, ProjectiveFoliation, run_global_check
from .residues import PhiSpec, baum_bott_residue, grothendieck_residue
from .series import BranchParam

COMMAND_WORDS = (
    "milnor", "tjurina", "ph", "homological", "gsv", "cs", "var",
    "radial", "logindex", "bb", "residue", "check",
)

_TOKEN_RE = re.compile(r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<number>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<assign>:=)
  | (?P<op>[;,()+\-*/^])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


def _lex(text):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos],
                             line=line, col=col)
        kind = m.lastgroup
        lexeme = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(lexeme)
        else:
            tokens.append(Token(kind, lexeme, line, col))
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


@dataclass(frozen=True)
class Assign:
    name: str
    kind: str               # poly | field | form | branch | point
    payload: object
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Command:
    op: str
    subject: str = None
    along: object = None    # name or tuple of names
    branch_name: str = None
    at: object = None       # tuple of Fractions or a point name
    divisor: tuple = None
    phi: tuple = None       # ((coeff, exps), ...)
    over: str = None
    check_kind: str = None
    points: tuple = None    # ((point name, (branch names...)), ...)
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Session:
    ring: tuple
    statements: tuple


class _Parser:

    def __init__(self, text):
        self.tokens = _lex(text)
        self.pos = 0
        self.ring = None
        self.kinds = {}     # declared name -> kind
        self.polys = {}     # declared poly name -> Poly, for elaboration

    # token helpers

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, line=tok.line, col=tok.col)

    def expect(self, kind, text=None):
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            self.fail("expected %r, found %r" % (want, tok.text or "<eof>"))
        return self.next()

    def expect_word(self, word):
        tok = self.peek()
        if tok.kind != "ident" or tok.text != word:
            self.fail("expected %r, found %r" % (word, tok.text or "<eof>"))
        return self.next()

    def at_word(self, word):
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    def paren_list(self, item):
        """'(' item (',' item)* ')', returned as a tuple."""
        self.expect("op", "(")
        items = [item()]
        while self.peek().text == ",":
            self.next()
            items.append(item())
        self.expect("op", ")")
        return tuple(items)

    # session

    def parse(self):
        self.expect_word("ring")
        names = [self.expect("ident").text]
        while self.peek().text == ",":
            self.next()
            names.append(self.expect("ident").text)
        self.expect("op", ";")
        if len(set(names)) != len(names):
            self.fail("repeated ring variable")
        self.ring = tuple(names)
        statements = []
        while self.peek().kind != "eof":
            statements.append(self.statement())
        return Session(ring=self.ring, statements=tuple(statements))

    def statement(self):
        tok = self.peek()
        if tok.kind != "ident":
            self.fail("expected a statement")
        if tok.text in COMMAND_WORDS and self.peek(1).kind != "assign":
            stmt = self.command()
        else:
            stmt = self.assignment()
        self.expect("op", ";")
        return stmt

    # declarations

    def assignment(self):
        name_tok = self.expect("ident")
        name = name_tok.text
        if name in self.ring:
            self.fail("cannot assign to ring variable %r" % name, name_tok)
        if name in self.kinds:
            self.fail("name %r already declared" % name, name_tok)
        self.expect("assign")
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "vf" and \
                self.peek(1).text == "(":
            kind, payload = self.field_ctor()
        elif tok.kind == "ident" and tok.text == "form" and \
                self.peek(1).text == "(":
            kind, payload = self.form_ctor()
        elif tok.kind == "ident" and tok.text == "branch" and \
                self.peek(1).text == "(":
            kind, payload = self.branch_ctor()
        elif tok.kind == "ident" and tok.text == "point" and \
                self.peek(1).text == "(":
            kind, payload = self.point_ctor()
        else:
            kind, payload = "poly", self.expr(self.ring)
        self.kinds[name] = kind
        if kind == "poly":
            self.polys[name] = payload
        return Assign(name=name, kind=kind, payload=payload,
                      line=name_tok.line)

    def field_ctor(self):
        self.next()
        comps = self.paren_list(lambda: self.expr(self.ring))
        if len(comps) != len(self.ring):
            self.fail("vf needs %d components" % len(self.ring))
        return "field", comps

    def _dvar(self):
        if not self._peek_dvar():
            return None
        return self.ring.index(self.next().text[1:])

    def form_ctor(self):
        n = len(self.ring)
        self.next()
        self.expect("op", "(")
        total = None
        while True:
            if self._peek_dvar():
                coeff = Poly.const(n, 1)
            else:
                coeff = self.expr(self.ring)
            idx = self._dvar()
            if idx is None:
                self.fail("expected d<var> in form term")
            item = wedge(DiffForm.from_poly(coeff), DiffForm.dx(n, idx))
            while self.peek().text == "^":
                self.next()
                idx = self._dvar()
                if idx is None:
                    self.fail("expected d<var> after '^'")
                item = wedge(item, DiffForm.dx(n, idx))
            if total is None:
                total = item
            elif total.degree != item.degree:
                self.fail("form mixes degrees %d and %d"
                          % (total.degree, item.degree))
            else:
                total = total + item
            if self.peek().text == ",":
                self.next()
                continue
            break
        self.expect("op", ")")
        return "form", total

    def _peek_dvar(self):
        tok = self.peek()
        return (tok.kind == "ident" and len(tok.text) > 1 and
                tok.text[0] == "d" and tok.text[1:] in self.ring)

    def branch_ctor(self):
        self.next()
        comps = self.paren_list(lambda: self.expr(("t",)))
        self.expect_word("order")
        order_tok = self.expect("number")
        order = int(order_tok.text)
        if order < 2:
            self.fail("branch order must be at least 2", order_tok)
        if len(comps) != len(self.ring):
            self.fail("branch needs %d components" % len(self.ring))
        return "branch", (comps, order)

    def point_ctor(self):
        self.next()
        coords = self.paren_list(self.rational)
        n = len(self.ring)
        if len(coords) not in (n, n + 1):
            self.fail("point needs %d or %d coordinates" % (n, n + 1))
        return "point", coords

    def rational(self):
        sign = 1
        while self.peek().text == "-":
            self.next()
            sign = -sign
        num = int(self.expect("number").text)
        if self.peek().text == "/":
            self.next()
            den_tok = self.expect("number")
            den = int(den_tok.text)
            if den == 0:
                self.fail("zero denominator", den_tok)
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    # polynomial expressions

    def expr(self, varnames):
        value = self.term(varnames)
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.term(varnames)
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self, varnames):
        value = self.factor(varnames)
        while True:
            tok = self.peek()
            if tok.text == "*":
                self.next()
                value = value * self.factor(varnames)
            elif tok.text == "/":
                self.next()
                den_tok = self.expect("number")
                den = int(den_tok.text)
                if den == 0:
                    self.fail("zero denominator", den_tok)
                value = value * Fraction(1, den)
            else:
                return value

    def factor(self, varnames):
        if self.peek().text == "-":
            self.next()
            return -self.factor(varnames)
        return self.power(varnames)

    def power(self, varnames):
        base = self.atom(varnames)
        if self.peek().text == "^":
            self.next()
            expo = int(self.expect("number").text)
            return base ** expo
        return base

    def atom(self, varnames):
        n = len(varnames)
        tok = self.peek()
        if tok.text == "(":
            self.next()
            inner = self.expr(varnames)
            self.expect("op", ")")
            return inner
        if tok.kind == "number":
            self.next()
            return Poly.const(n, int(tok.text))
        if tok.kind == "ident":
            self.next()
            if tok.text in varnames:
                return Poly.var(n, varnames.index(tok.text))
            if varnames == self.ring and tok.text in self.polys:
                return self.polys[tok.text]
            raise UndeclaredName("unknown name %r" % tok.text,
                                 line=tok.line, col=tok.col)
        self.fail("expected a polynomial atom")

    # commands

    def name_of_kind(self, wanted, role):
        tok = self.expect("ident")
        declared = self.kinds.get(tok.text)
        if declared is None:
            raise UndeclaredName("unknown name %r" % tok.text,
                                 line=tok.line, col=tok.col)
        if declared not in wanted:
            raise SessionError(
                "%s must name a %s, %r is a %s"
                % (role, " or ".join(wanted), tok.text, declared),
                line=tok.line, col=tok.col)
        return tok.text

    def at_clause(self):
        self.expect_word("at")
        if self.peek().text == "(":
            return self.paren_list(self.rational)
        return self.name_of_kind(("point",), "at")

    def curve_ref(self):
        """'along' followed by one curve name or a list of them."""
        self.expect_word("along")
        if self.peek().text == "(":
            return self.paren_list(
                lambda: self.name_of_kind(("poly",), "along"))
        return self.name_of_kind(("poly",), "along")

    def command(self):
        tok = self.next()
        op = tok.text
        line = tok.line
        if op in ("milnor", "tjurina"):
            subject = self.name_of_kind(("poly",), op)
            return Command(op=op, subject=subject, at=self.at_clause(),
                           line=line)
        if op == "ph":
            subject = self.name_of_kind(("field",), op)
            return Command(op=op, subject=subject, at=self.at_clause(),
                           line=line)
        if op in ("homological", "radial"):
            subject = self.name_of_kind(("field",), op)
            self.expect_word("along")
            along = self.name_of_kind(("poly",), "along")
            return Command(op=op, subject=subject, along=along,
                           at=self.at_clause(), line=line)
        if op == "gsv":
            subject = self.name_of_kind(("field", "form"), op)
            along = self.curve_ref()
            return Command(op=op, subject=subject, along=along,
                           at=self.at_clause(), line=line)
        if op in ("cs", "var"):
            subject = self.name_of_kind(("field",), op)
            self.expect_word("along")
            along = self.name_of_kind(("poly",), "along")
            self.expect_word("branch")
            branch = self.name_of_kind(("branch",), "branch")
            return Command(op=op, subject=subject, along=along,
                           branch_name=branch, at=self.at_clause(), line=line)
        if op == "logindex":
            subject = self.name_of_kind(("field",), op)
            self.expect_word("divisor")
            divisor = self.paren_list(self.ring_var)
            return Command(op=op, subject=subject, divisor=divisor,
                           at=self.at_clause(), line=line)
        if op == "bb":
            subject = self.name_of_kind(("field",), op)
            self.expect_word("phi")
            self.expect("op", "(")
            symbols = tuple("c%d" % (i + 1) for i in range(len(self.ring)))
            phi_poly = self.expr(symbols)
            self.expect("op", ")")
            phi = tuple(
                (c, e) for e, c in sorted(phi_poly.terms.items()))
            try:
                PhiSpec(len(self.ring), phi)
            except DegreeMismatch as exc:
                self.fail("invalid phi: %s" % exc, tok)
            return Command(op=op, subject=subject, phi=phi,
                           at=self.at_clause(), line=line)
        if op == "residue":
            subject = self.name_of_kind(("poly",), op)
            self.expect_word("over")
            over = self.name_of_kind(("field",), "over")
            return Command(op=op, subject=subject, over=over,
                           at=self.at_clause(), line=line)
        if op == "check":
            return self.check_command(line)
        self.fail("unknown command %r" % op, tok)

    def ring_var(self):
        tok = self.expect("ident")
        if tok.text not in self.ring:
            raise RingMismatch("%r is not a ring variable" % tok.text,
                               line=tok.line, col=tok.col)
        return tok.text

    def check_command(self, line):
        kind_tok = self.expect("ident")
        kind = kind_tok.text
        if kind not in IDENTITY_KINDS:
            self.fail("unknown identity %r" % kind, kind_tok)
        if kind in ("soares", "adjunction"):
            self.fail("%s is a closed-form statement with no per-point "
                      "table to check" % kind, kind_tok)
        self.expect_word("of")
        subject = self.name_of_kind(("field",), "of")
        along = self.curve_ref() if self.at_word("along") else None
        divisor = points = None
        if self.at_word("divisor"):
            self.next()
            divisor = self.paren_list(
                lambda: self.next().text if self.at_word("infinity")
                else self.ring_var())
        if self.at_word("points"):
            self.next()
            points = self.paren_list(self.point_item)
        n = len(self.ring)
        if kind in ("brunella", "cs_total", "var_total") and (
                n != 2 or not isinstance(along, str)):
            self.fail("%s needs a plane ring and 'along <curve>'" % kind,
                      kind_tok)
        if kind == "pfaff_degree" and not (
                isinstance(along, tuple) and len(along) == n - 1):
            self.fail("pfaff_degree needs 'along' with a list of %d curves"
                      % (n - 1), kind_tok)
        if kind == "log_bb" and divisor is None:
            self.fail("log_bb needs 'divisor'", kind_tok)
        return Command(op="check", check_kind=kind, subject=subject,
                       along=along, divisor=divisor, points=points, line=line)

    def point_item(self):
        name = self.name_of_kind(("point",), "points")
        branches = []
        while self.at_word("branch"):
            self.next()
            branches.append(self.name_of_kind(("branch",), "branch"))
        return (name, tuple(branches))


def parse_session(text):
    """Parse and elaborate; raises ParseError / UndeclaredName /
    RingMismatch with source positions."""
    return _Parser(text).parse()


# printing

def _fmt_point(coords):
    return "(" + ", ".join(str(c) for c in coords) + ")"


def _fmt_along(along):
    return along if isinstance(along, str) else "(" + ", ".join(along) + ")"


def _fmt_form(form, names):
    if not form.coeffs:
        chain = " ^ ".join("d" + names[i] for i in range(form.degree))
        return "form(0 %s)" % chain
    items = []
    for idx in sorted(form.coeffs):
        poly = form.coeffs[idx]
        chain = " ^ ".join("d" + names[i] for i in idx)
        items.append("(%s) %s" % (poly.format(names), chain))
    return "form(%s)" % ", ".join(items)


def _fmt_at(at):
    if isinstance(at, tuple):
        return _fmt_point(at)
    return at


def _fmt_command(cmd):
    op = cmd.op
    if op in ("milnor", "tjurina", "ph"):
        return "%s %s at %s" % (op, cmd.subject, _fmt_at(cmd.at))
    if op in ("homological", "radial"):
        return "%s %s along %s at %s" % (op, cmd.subject, cmd.along,
                                         _fmt_at(cmd.at))
    if op == "gsv":
        return "gsv %s along %s at %s" % (cmd.subject, _fmt_along(cmd.along),
                                          _fmt_at(cmd.at))
    if op in ("cs", "var"):
        return "%s %s along %s branch %s at %s" % (
            op, cmd.subject, cmd.along, cmd.branch_name, _fmt_at(cmd.at))
    if op == "logindex":
        return "logindex %s divisor (%s) at %s" % (
            cmd.subject, ", ".join(cmd.divisor), _fmt_at(cmd.at))
    if op == "bb":
        if not cmd.phi:
            body = "0"
        else:
            n = len(cmd.phi[0][1])
            names = tuple("c%d" % (i + 1) for i in range(n))
            body = Poly(n, {e: c for c, e in cmd.phi}).format(names)
        return "bb %s phi (%s) at %s" % (cmd.subject, body, _fmt_at(cmd.at))
    if op == "residue":
        return "residue %s over %s at %s" % (cmd.subject, cmd.over,
                                             _fmt_at(cmd.at))
    if op == "check":
        parts = ["check", cmd.check_kind, "of", cmd.subject]
        if cmd.along is not None:
            parts += ["along", _fmt_along(cmd.along)]
        if cmd.divisor is not None:
            parts += ["divisor", "(" + ", ".join(cmd.divisor) + ")"]
        if cmd.points is not None:
            items = []
            for name, brs in cmd.points:
                item = name
                for b in brs:
                    item += " branch " + b
                items.append(item)
            parts += ["points", "(" + ", ".join(items) + ")"]
        return " ".join(parts)
    raise AssertionError("unprintable command %r" % op)


def print_session(session):
    """Canonical text whose parse equals the session (positions aside)."""
    names = session.ring
    lines = ["ring %s;" % ", ".join(names)]
    for stmt in session.statements:
        if isinstance(stmt, Assign):
            if stmt.kind == "poly":
                body = stmt.payload.format(names)
            elif stmt.kind == "field":
                body = "vf(%s)" % ", ".join(
                    p.format(names) for p in stmt.payload)
            elif stmt.kind == "form":
                body = _fmt_form(stmt.payload, names)
            elif stmt.kind == "branch":
                comps, order = stmt.payload
                body = "branch(%s) order %d" % (
                    ", ".join(p.format(("t",)) for p in comps), order)
            else:
                body = "point " + _fmt_point(stmt.payload)
            lines.append("%s := %s;" % (stmt.name, body))
        else:
            lines.append(_fmt_command(stmt) + ";")
    return "\n".join(lines) + "\n"


# execution

def _crosscheck_list(report):
    out = [(label, bool(ok), str(detail))
           for label, ok, detail in report.crosschecks]
    for flag in report.flags:
        out.append(("note", True, flag))
    return out


class _Env:

    def __init__(self, session):
        self.session = session
        self.n = len(session.ring)
        self.objects = {}
        self.kinds = {}
        for stmt in session.statements:
            if not isinstance(stmt, Assign):
                continue
            self.kinds[stmt.name] = stmt.kind
            if stmt.kind == "poly":
                self.objects[stmt.name] = stmt.payload
            elif stmt.kind == "field":
                self.objects[stmt.name] = VectorField(stmt.payload)
            elif stmt.kind == "form":
                self.objects[stmt.name] = stmt.payload
            elif stmt.kind == "branch":
                comps, order = stmt.payload
                self.objects[stmt.name] = BranchParam.from_polys(comps, order)
            else:
                self.objects[stmt.name] = stmt.payload

    def affine_point(self, at, line):
        coords = self.objects[at] if isinstance(at, str) else at
        if len(coords) != self.n:
            raise RingMismatch(
                "local commands need %d affine coordinates, got %d"
                % (self.n, len(coords)), line=line)
        return coords

    def proj_point(self, name, line):
        coords = self.objects[name]
        if len(coords) != self.n + 1:
            raise RingMismatch(
                "check commands need %d homogeneous coordinates, got %d"
                % (self.n + 1, len(coords)), line=line)
        return ProjPoint(coords)


def run_session(session, oracle=False, max_steps=None, truncation=None):
    """Execute every command; returns one record per command with fields
    command, inputs, value, method, crosschecks, verdict."""
    env = _Env(session)
    records = []
    for stmt in session.statements:
        if isinstance(stmt, Assign):
            continue
        records.append(_run_command(stmt, env, oracle, max_steps, truncation))
    return records


def _record(cmd, inputs, value, method, crosschecks, verdict):
    return {
        "command": _fmt_command(cmd),
        "inputs": inputs,
        "value": value,
        "method": method,
        "crosschecks": crosschecks,
        "verdict": verdict,
    }


def _from_report(cmd, inputs, report):
    return _record(cmd, inputs, report.value, report.method,
                   _crosscheck_list(report), "OK")


def _run_command(cmd, env, oracle, max_steps, truncation):
    op = cmd.op
    obj = env.objects
    if op == "check":
        return _run_check(cmd, env, oracle, max_steps, truncation)
    at = env.affine_point(cmd.at, cmd.line)
    inputs = {"at": _fmt_at(cmd.at)}
    if op in ("milnor", "tjurina"):
        inputs["f"] = cmd.subject
        fn = milnor_number if op == "milnor" else tjurina_number
        return _from_report(cmd, inputs,
                            fn(obj[cmd.subject], point=at,
                               max_steps=max_steps))
    if op == "ph":
        inputs["v"] = cmd.subject
        return _from_report(cmd, inputs,
                            ph_index(obj[cmd.subject], point=at,
                                     max_steps=max_steps))
    if op == "homological":
        inputs.update(v=cmd.subject, f=cmd.along)
        return _from_report(cmd, inputs,
                            homological_index(obj[cmd.subject],
                                              obj[cmd.along], point=at,
                                              oracle=oracle,
                                              max_steps=max_steps))
    if op == "radial":
        inputs.update(v=cmd.subject, f=cmd.along)
        return _from_report(cmd, inputs,
                            radial_index(obj[cmd.subject], obj[cmd.along],
                                         point=at, max_steps=max_steps))
    if op == "gsv":
        inputs.update(v=cmd.subject, curve=str(cmd.along))
        subject = obj[cmd.subject]
        if isinstance(cmd.along, tuple):
            curve = tuple(obj[name] for name in cmd.along)
            report = gsv_pfaff_curve(subject, curve, point=at,
                                     max_steps=max_steps)
        else:
            if isinstance(subject, DiffForm):
                subject = field_from_dual(subject)
            report = gsv_curve(subject, obj[cmd.along], point=at,
                               max_steps=max_steps)
        return _from_report(cmd, inputs, report)
    if op in ("cs", "var"):
        inputs.update(v=cmd.subject, f=cmd.along, branch=cmd.branch_name)
        if op == "cs":
            report = cs_index(obj[cmd.subject], obj[cmd.along],
                              obj[cmd.branch_name], point=at,
                              max_steps=max_steps,
                              max_order=truncation or 160)
        else:
            report = var_index(obj[cmd.subject], obj[cmd.along],
                               obj[cmd.branch_name], point=at,
                               max_steps=max_steps)
        return _from_report(cmd, inputs, report)
    if op == "logindex":
        inputs.update(v=cmd.subject, divisor=", ".join(cmd.divisor))
        idxs = tuple(env.session.ring.index(name) for name in cmd.divisor)
        report = log_index(obj[cmd.subject], idxs, point=at, oracle=oracle,
                           max_steps=max_steps)
        return _from_report(cmd, inputs, report)
    if op == "bb":
        inputs["v"] = cmd.subject
        phi = PhiSpec(env.n, cmd.phi)
        inputs["phi"] = repr(phi)
        result = baum_bott_residue(obj[cmd.subject], phi, point=at,
                                   max_steps=max_steps)
        checks = [("certificate", True, result.certificate[:12])]
        return _record(cmd, inputs, result.value, "transformation_law",
                       checks, "OK")
    if op == "residue":
        inputs.update(h=cmd.subject, v=cmd.over)
        result = grothendieck_residue(obj[cmd.subject], obj[cmd.over],
                                      point=at, max_steps=max_steps)
        checks = [("certificate", True, result.certificate[:12])]
        return _record(cmd, inputs, result.value, "transformation_law",
                       checks, "OK")
    raise AssertionError("unrunnable command %r" % op)


def _run_check(cmd, env, oracle, max_steps, truncation):
    obj = env.objects
    fol = ProjectiveFoliation.from_affine_field(obj[cmd.subject])
    curve = None
    if isinstance(cmd.along, tuple):
        curve = tuple(obj[name] for name in cmd.along)
    elif cmd.along is not None:
        curve = obj[cmd.along]
    divisor = ()
    if cmd.divisor:
        divisor = tuple(0 if item == "infinity"
                        else env.session.ring.index(item) + 1
                        for item in cmd.divisor)
    points = []
    branches = []
    for name, branch_names in (cmd.points or ()):
        p = env.proj_point(name, cmd.line)
        points.append(p)
        for bname in branch_names:
            branches.append((p, obj[bname]))
    report = run_global_check(fol, cmd.check_kind, curve=curve,
                              points=tuple(points), branches=branches,
                              divisor=divisor, oracle=oracle,
                              max_steps=max_steps, truncation=truncation)
    checks = []
    for row in report.rows:
        checks.append(("%s at %r chart %d" % (row.quantity, row.point,
                                              row.chart),
                       True, str(row.value)))
    checks.append(("sum vs closed form", report.local_sum == report.rhs,
                   "%s vs %s" % (report.local_sum, report.rhs)))
    for note in report.diagnostics:
        checks.append(("note", True, note))
    inputs = {"foliation": cmd.subject, "degree": str(fol.d)}
    if cmd.along is not None:
        inputs["curve"] = str(cmd.along)
    if cmd.divisor:
        inputs["divisor"] = ", ".join(cmd.divisor)
    return _record(cmd, inputs, report.local_sum,
                   "global_check/%s" % cmd.check_kind, checks, report.verdict)
