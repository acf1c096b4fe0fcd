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
the parameter t.  Points carry n affine or n+1 homogeneous coordinates:
an at point, written out or named, needs the affine form and each points
item the homogeneous one.  Each point is checked where it is written, at
parse time, and a wrong count raises RingMismatch with its line and column.
Shape rules (_NEEDS, with those of the check kinds read from
projective.CHECKS) are checked at parse time too: gsv needs a plane ring
or n-1 curves, cs and var a plane ring, a form subject degree n-1.  check
bb_total needs nothing beyond its field, in any number of variables.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

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
from .localalgebra import DEFAULT_MAX_STEPS, StepBudget, step_budget
from .polyring import DiffForm, Poly, VectorField, field_from_dual, wedge
from .projective import CHECKS, ProjPoint, ProjectiveFoliation, run_global_check
from .residues import (
    PhiSpec,
    ResidueResult,
    baum_bott_residue,
    grothendieck_residue,
)
from .series import BranchParam, moved

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
    branch: str = None
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
    # declared name -> the engine value the parser bound it to
    bound: dict = field(compare=False, repr=False)


# The command table.  Every command but check reads
#     op subject clause* at
# and check reads
#     check kind of subject [clause]*
# The parser, the printer and the runner all work from the entries below,
# so a local command is one entry plus the engine function it calls.


class _Syntax(NamedTuple):
    """How a clause value is read after its keyword, printed back (also in
    the record's inputs) and handed to the engine."""
    read: object        # (parser, keyword) -> value stored in the Command
    fmt: object         # value -> text after the keyword
    resolve: object     # (value, session) -> engine argument


class _Clause(NamedTuple):
    word: str           # keyword, also the Command field holding the value
    syntax: _Syntax
    key: str            # inputs key of the record, None if not shown


class _Op(NamedTuple):
    subject: tuple      # kinds the subject may name
    key: str            # inputs key of the subject
    clauses: tuple      # _Clause, in the order they are written
    run: object = None  # engine function: (subject, *clauses), all moved
                        # to the origin from the command's point
    takes_oracle: bool = False  # whether run also takes oracle=


def _fmt_point(coords):
    return "(" + ", ".join(str(c) for c in coords) + ")"


def _fmt_list(names):
    return "(" + ", ".join(names) + ")"


def _fmt_along(along):
    return along if isinstance(along, str) else _fmt_list(along)


def _fmt_at(at):
    return _fmt_point(at) if isinstance(at, tuple) else at


def _fmt_phi(phi):
    if not phi:
        return "(0)"
    n = len(phi[0][1])
    names = tuple("c%d" % (i + 1) for i in range(n))
    return "(%s)" % Poly(n, {e: c for c, e in phi}).format(names)


def _name(*kinds):
    """One declared name of one of the given kinds."""
    return _Syntax(lambda parser, word: parser.name_of_kind(kinds, word),
                   str, lambda name, session: session.bound[name])


def _resolve_curves(along, session):
    if isinstance(along, tuple):
        return tuple(session.bound[name] for name in along)
    return session.bound[along]


def _divisor(homogeneous):
    """A list of ring variables naming coordinate hyperplanes.  A check's
    divisor may also name the line at infinity and resolves to homogeneous
    coordinate indices, a local one to affine indices."""
    shift = 1 if homogeneous else 0

    def item(parser):
        if homogeneous and parser.at_word("infinity"):
            return parser.next().text
        return parser.ring_var()

    def resolve(names, session):
        return tuple(0 if name == "infinity"
                     else session.ring.index(name) + shift
                     for name in names)

    return _Syntax(lambda parser, word: parser.paren_list(lambda: item(parser)),
                   _fmt_list, resolve)


def _fmt_points(points):
    return _fmt_list([" branch ".join((name,) + brs) for name, brs in points])


_CURVES = _Syntax(lambda parser, word: parser.curves(word), _fmt_along,
                  _resolve_curves)
_PHI = _Syntax(lambda parser, word: parser.phi(), _fmt_phi,
               lambda phi, session: PhiSpec(len(session.ring), phi))
_POINTS = _Syntax(lambda parser, word: parser.paren_list(parser.point_item),
                  _fmt_points, None)
_ALONG = _Clause("along", _name("poly"), "f")
_BRANCH = _Clause("branch", _name("branch"), "branch")


def _gsv(data, curve):
    """GSV index of a field, or of its dual form, along a plane curve or
    along the n-1 curves that cut out a space curve."""
    if isinstance(data, DiffForm):
        data = field_from_dual(data)
    if isinstance(curve, tuple):
        return gsv_pfaff_curve(data, curve)
    return gsv_curve(data, curve)


COMMANDS = {
    "milnor": _Op(("poly",), "f", (), milnor_number),
    "tjurina": _Op(("poly",), "f", (), tjurina_number),
    "ph": _Op(("field",), "v", (), ph_index),
    "homological": _Op(("field",), "v", (_ALONG,), homological_index, True),
    "radial": _Op(("field",), "v", (_ALONG,), radial_index),
    "gsv": _Op(("field", "form"), "v", (_Clause("along", _CURVES, "curve"),),
               _gsv),
    "cs": _Op(("field",), "v", (_ALONG, _BRANCH), cs_index),
    "var": _Op(("field",), "v", (_ALONG, _BRANCH), var_index),
    "logindex": _Op(("field",), "v",
                    (_Clause("divisor", _divisor(False), "divisor"),),
                    log_index, True),
    "bb": _Op(("field",), "v", (_Clause("phi", _PHI, "phi"),),
              baum_bott_residue),
    "residue": _Op(("poly",), "h", (_Clause("over", _name("field"), "v"),),
                   grothendieck_residue),
    # every clause of a check is optional; _run_check builds its record
    "check": _Op(("field",), "foliation",
                 (_Clause("along", _CURVES, "curve"),
                  _Clause("divisor", _divisor(True), "divisor"),
                  _Clause("points", _POINTS, None))),
}

# Shape rules, checked when a command is parsed: what a local command or an
# identity kind needs of the ring and of its clauses beyond the kinds of the
# names it uses.  One of the listed shapes must hold.  A form subject must
# moreover have degree n-1, the degree of a dual form.
_SHAPES = {
    "plane": ("a plane ring and 'along <curve>'",
              lambda cmd, n: n == 2 and isinstance(cmd.along, str)),
    "curves": ("'along' with a list of %(n1)d curves",
               lambda cmd, n: (isinstance(cmd.along, tuple)
                               and len(cmd.along) == n - 1)),
    "divisor": ("'divisor'", lambda cmd, n: cmd.divisor is not None),
}
_NEEDS = {
    "gsv": ("plane", "curves"),
    "cs": ("plane",),
    "var": ("plane",),
    **{kind: (check.shape,) for kind, check in CHECKS.items() if check.shape},
}


class _Parser:

    def __init__(self, text):
        self.tokens = _lex(text)
        self.pos = 0
        self.ring = None
        self.kinds = {}     # declared name -> kind
        self.objects = {}   # declared name -> engine value

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
        self.expect("ident", "ring")
        names = [self.expect("ident").text]
        while self.peek().text == ",":
            self.next()
            tok = self.expect("ident")
            if tok.text in names:
                self.fail("repeated ring variable %r" % tok.text, tok)
            names.append(tok.text)
        self.expect("op", ";")
        self.ring = tuple(names)
        statements = []
        while self.peek().kind != "eof":
            statements.append(self.statement())
        return Session(ring=self.ring, statements=tuple(statements),
                       bound=self.objects)

    def statement(self):
        tok = self.peek()
        if tok.kind != "ident":
            self.fail("expected a statement")
        if tok.text in COMMANDS and self.peek(1).kind != "assign":
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
        ctor = {"vf": self.field_ctor, "form": self.form_ctor,
                "branch": self.branch_ctor,
                "point": self.point_ctor}.get(self.peek().text)
        if ctor and self.peek(1).text == "(":
            self.next()
            kind, payload = ctor()
        else:
            kind, payload = "poly", self.expr(self.ring)
        self.kinds[name] = kind
        if kind == "field":
            self.objects[name] = VectorField(payload)
        elif kind == "branch":
            self.objects[name] = BranchParam.from_polys(*payload)
        else:
            self.objects[name] = payload
        return Assign(name=name, kind=kind, payload=payload,
                      line=name_tok.line)

    def field_ctor(self):
        comps = self.paren_list(lambda: self.expr(self.ring))
        if len(comps) != len(self.ring):
            self.fail("vf needs %d components" % len(self.ring))
        return "field", comps

    def form_ctor(self):
        items = self.paren_list(self.form_item)
        for item in items[1:]:
            if item.degree != items[0].degree:
                self.fail("form mixes degrees %d and %d"
                          % (items[0].degree, item.degree))
        return "form", sum(items[1:], items[0])

    def form_item(self):
        n = len(self.ring)
        coeff = Poly.const(n, 1) if self._peek_dvar() else self.expr(self.ring)
        item = DiffForm.from_poly(coeff)
        while True:
            if not self._peek_dvar():
                self.fail("expected d<var>")
            if item.degree == n:
                self.fail("a form has degree at most %d" % n)
            idx = self.ring.index(self.next().text[1:])
            item = wedge(item, DiffForm.dx(n, idx))
            if self.peek().text != "^":
                return item
            self.next()

    def _peek_dvar(self):
        tok = self.peek()
        return (tok.kind == "ident" and len(tok.text) > 1 and
                tok.text[0] == "d" and tok.text[1:] in self.ring)

    def branch_ctor(self):
        comps = self.paren_list(lambda: self.expr(("t",)))
        self.expect("ident", "order")
        order_tok = self.expect("number")
        order = int(order_tok.text)
        if order < 2:
            self.fail("branch order must be at least 2", order_tok)
        if len(comps) != len(self.ring):
            self.fail("branch needs %d components" % len(self.ring))
        return "branch", (comps, order)

    def point_ctor(self):
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
            if varnames == self.ring and self.kinds.get(tok.text) == "poly":
                return self.objects[tok.text]
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

    def curves(self, role):
        """One curve name or a parenthesized list of them."""
        if self.peek().text == "(":
            return self.paren_list(lambda: self.name_of_kind(("poly",), role))
        return self.name_of_kind(("poly",), role)

    def ring_var(self):
        tok = self.expect("ident")
        if tok.text not in self.ring:
            raise RingMismatch("%r is not a ring variable" % tok.text,
                               line=tok.line, col=tok.col)
        return tok.text

    def phi(self):
        tok = self.expect("op", "(")
        symbols = tuple("c%d" % (i + 1) for i in range(len(self.ring)))
        phi_poly = self.expr(symbols)
        self.expect("op", ")")
        phi = tuple((c, e) for e, c in sorted(phi_poly.terms.items()))
        try:
            PhiSpec(len(self.ring), phi)
        except DegreeMismatch as exc:
            self.fail("invalid phi: %s" % exc, tok)
        return phi

    def point_item(self):
        tok = self.peek()
        name = self.name_of_kind(("point",), "points")
        self.check_point(name, tok, homogeneous=True)
        branches = []
        while self.at_word("branch"):
            self.next()
            branches.append(self.name_of_kind(("branch",), "branch"))
        return (name, tuple(branches))

    def identity_kind(self):
        tok = self.expect("ident")
        if tok.text not in CHECKS:
            self.fail("unknown identity %r" % tok.text, tok)
        return tok

    def command(self):
        tok = self.next()
        op = tok.text
        line = tok.line
        spec = COMMANDS[op]
        kind = None
        if op == "check":
            tok = self.identity_kind()
            kind = tok.text
            self.expect("ident", "of")
        fields = {"subject": self.name_of_kind(spec.subject,
                                               "of" if kind else op)}
        for clause in spec.clauses:
            if kind is None or self.at_word(clause.word):
                self.expect("ident", clause.word)
                fields[clause.word] = clause.syntax.read(self, clause.word)
        if kind is None:
            self.expect("ident", "at")
            at_tok = self.peek()
            fields["at"] = (self.paren_list(self.rational)
                            if at_tok.text == "("
                            else self.name_of_kind(("point",), "at"))
            self.check_point(fields["at"], at_tok, homogeneous=False)
        cmd = Command(op=op, check_kind=kind, line=line, **fields)
        self.check_shape(cmd, kind or op, tok)
        return cmd

    def check_point(self, point, tok, homogeneous):
        """RingMismatch at tok unless point, a coordinate tuple or a point
        name, has n affine or n+1 homogeneous coordinates."""
        coords = self.objects[point] if isinstance(point, str) else point
        want = len(self.ring) + homogeneous
        if len(coords) != want:
            raise RingMismatch(
                "%s commands need %d %s coordinates, got %d"
                % ("check" if homogeneous else "local", want,
                   "homogeneous" if homogeneous else "affine", len(coords)),
                line=tok.line, col=tok.col)

    def check_shape(self, cmd, name, tok):
        n = len(self.ring)
        needs = _NEEDS.get(name, ())
        if needs and not any(_SHAPES[s][1](cmd, n) for s in needs):
            self.fail("%s needs %s" % (name, " or ".join(
                _SHAPES[s][0] for s in needs) % {"n1": n - 1}), tok)
        if (self.kinds[cmd.subject] == "form"
                and self.objects[cmd.subject].degree != n - 1):
            self.fail("%s needs a form of degree %d" % (name, n - 1), tok)


def parse_session(text):
    """Parse and elaborate; raises ParseError / UndeclaredName /
    RingMismatch with source positions."""
    return _Parser(text).parse()


# printing

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


def _fmt_command(cmd):
    parts = [cmd.op]
    if cmd.op == "check":
        parts += [cmd.check_kind, "of"]
    parts.append(cmd.subject)
    for clause in COMMANDS[cmd.op].clauses:
        value = getattr(cmd, clause.word)
        if value is not None:
            parts += [clause.word, clause.syntax.fmt(value)]
    if cmd.at is not None:
        parts += ["at", _fmt_at(cmd.at)]
    return " ".join(parts)


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

def run_session(session, oracle=False, max_steps=DEFAULT_MAX_STEPS):
    """Execute every command; returns one record per command with fields
    command, inputs, value, method, crosschecks, verdict.  Each command
    spends from one step budget of max_steps, which is checked before the
    first statement."""
    StepBudget(max_steps)
    records = []
    for stmt in session.statements:
        if isinstance(stmt, Assign):
            continue
        with step_budget(max_steps):
            records.append(_run_command(stmt, session, oracle))
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


def _run_command(cmd, session, oracle):
    if cmd.op == "check":
        return _run_check(cmd, session, oracle)
    spec = COMMANDS[cmd.op]
    bound = session.bound
    at = bound[cmd.at] if isinstance(cmd.at, str) else cmd.at
    inputs = {"at": _fmt_at(cmd.at), spec.key: cmd.subject}
    args = [bound[cmd.subject]]
    for clause in spec.clauses:
        value = getattr(cmd, clause.word)
        args.append(clause.syntax.resolve(value, session))
        inputs[clause.key] = clause.syntax.fmt(value)
    kwargs = {"oracle": oracle} if spec.takes_oracle else {}
    result = spec.run(*moved(args, at), **kwargs)
    if isinstance(result, ResidueResult):
        return _record(cmd, inputs, result.value, "transformation_law",
                       [("certificate", True, result.certificate[:12])], "OK")
    checks = [(label, bool(ok), str(detail))
              for label, ok, detail in result.crosschecks]
    return _record(cmd, inputs, result.value, result.method, checks, "OK")


def _run_check(cmd, session, oracle):
    spec = COMMANDS["check"]
    bound = session.bound
    fol = ProjectiveFoliation.from_affine_field(bound[cmd.subject])
    inputs = {spec.key: cmd.subject, "degree": str(fol.d)}
    resolved = {}
    for clause in spec.clauses:
        value = getattr(cmd, clause.word)
        if value is not None and clause.key:
            resolved[clause.word] = clause.syntax.resolve(value, session)
            inputs[clause.key] = clause.syntax.fmt(value)
    points = []
    branches = []
    for name, branch_names in (cmd.points or ()):
        p = ProjPoint(bound[name])
        points.append(p)
        branches += [(p, bound[bname]) for bname in branch_names]
    report = run_global_check(fol, cmd.check_kind,
                              curve=resolved.get("along"),
                              points=tuple(points), branches=branches,
                              divisor=resolved.get("divisor", ()),
                              oracle=oracle)
    checks = []
    for row in report.rows:
        checks.append(("%s at %r chart %d" % (row.quantity, row.point,
                                              row.chart),
                       True, str(row.value)))
    checks.append(("sum vs closed form", report.local_sum == report.rhs,
                   "%s vs %s" % (report.local_sum, report.rhs)))
    for note in report.diagnostics:
        checks.append(("note", True, note))
    return _record(cmd, inputs, report.local_sum,
                   "global_check/%s" % cmd.check_kind, checks, report.verdict)
