"""Run the console sessions of the CI table through the ``folindex`` command.

Each row is a session file, the flags of ``folindex run``, the exit code it
must give, and for JSON output the values and each record's crosschecks it
must report.  Run it from a checkout:

    python scripts/console_sessions.py [DIR]

The sessions are written to DIR (a temporary directory when omitted).  The
``folindex`` on PATH runs them when there is one; otherwise the package under
``src`` next to this script does.  Exits 1 and lists the failures when any
session differs from its row.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

cubic = ("ring x,y; f := y^2 - x^3; v := vf(2*x, 3*y); "
         "P0 := point (1, 0, 0); Pinf := point (0, 0, 1); "
         "b0 := branch(t^2, t^3) order 20; "
         "binf := branch(t^3, t) order 20;")
grid = "ring x,y; v := vf(x*(x-1)*(x-2), (y-1)*(y-2)*(y-3));"
names = ""
for a in (0, 1, 2):
    for b in (1, 2, 3):
        grid += " G%d%d := point (1, %d, %d);" % (a, b, a, b)
        names += " G%d%d," % (a, b)
grid += (" I0 := point (0, 1, 0); I1 := point (0, 0, 1);"
         " I2 := point (0, 1, 1); I3 := point (0, 1, -1);")
oracle = ["truncation-oracle", True]

# name, session lines, flags, exit code, values (None: not read),
# each record's crosschecks (None: not read)
TABLE = [
    ("milnor", ["ring x,y; f := y^2 - x^3; milnor f at (0,0);"],
     [], 0, None, None),
    ("milnor-steps-0",
     ["ring x,y; f := y^2 - x^3; milnor f at (0,0);"],
     ["--steps", "0"], 2, None, None),
    # a monomial of degree 2^31 does not fit a packed key
    ("huge-exponent",
     ["ring x,y; f := x^2147483648 + y^2; milnor f at (0,0);"],
     [], 2, None, None),
    ("cs-total-branches",
     [cubic + " check cs_total of v along f points "
      "(P0 branch b0, Pinf branch binf);"], [], 0, None, None),
    ("cs-total-no-branches",
     [cubic + " check cs_total of v along f points (P0, Pinf);"],
     [], 1, None, None),
    ("grid-13-points",
     [grid + " check milnor_total of v points"
      " (%s I0, I1, I2, I3);" % names], [], 0, None, None),
    ("grid-without-I3",
     [grid + " check milnor_total of v points"
      " (%s I0, I1, I2);" % names], [], 2, None, None),
    # translation and reduction at points with denominators
    ("grid-rational",
     ["ring x,y; v := vf((x - 1/2)*(x + 1/3), (y - 2/3)*(y + 3/4));"
      " A := point (1, 1/2, 2/3); B := point (1, 1/2, -3/4);"
      " C := point (1, -1/3, 2/3); D := point (1, -1/3, -3/4);"
      " I0 := point (0, 1, 0); I1 := point (0, 0, 1);"
      " I2 := point (0, 1, 1);",
      "check milnor_total of v points (A, B, C, D, I0, I1, I2); "
      "check bb_total of v points (A, B, C, D, I0, I1, I2);"],
     ["--format", "json"], 0, [7, 16], None),
    ("oracle",
     ["ring x,y; f := y^2 - x^3; v := vf(2*x, 3*y); "
      "w := vf(x*(2+y), 3*y);",
      "homological v along f at (0,0);",
      "logindex w divisor (x, y) at (0,0);"],
     ["--oracle", "on", "--format", "json"], 0, None,
     [[oracle], [oracle]]),
    # the oracle in three variables, its rows built and
    # eliminated anew at each truncation level
    ("oracle-space",
     ["ring x,y,z; v := vf(x, y, z); f := x*y + y*z + z*x;",
      "homological v along f at (0,0,0);"],
     ["--oracle", "on", "--format", "json"], 0, [2], [[oracle]]),
    # a weighted Euler field on a Brieskorn surface: rows of mixed degree,
    # and 1 + mu = 1 + 1*2*3
    ("oracle-space-weighted",
     ["ring x,y,z; f := x^2 + y^3 + z^4; v := vf(6*x, 4*y, 3*z);",
      "homological v along f at (0,0,0);"],
     ["--oracle", "on", "--format", "json"], 0, [7], [[oracle]]),
    # the oracle runs levels 8, 10, 16 and 18: it rebuilds its
    # rows across a doubling of the level
    ("oracle-doubling",
     ["ring x,y; f := y^2 - x^5; v := vf(2*x, 5*y);",
      "homological v along f at (0,0);"],
     ["--oracle", "on", "--format", "json"], 0, [-3], [[oracle]]),
    # unit factors: the oracle counts only the zeros at the origin
    ("oracle-log-unit",
     ["ring x,y; w := vf(x*(1+x), 2*y); "
      "u := vf(x*(1+y), y*(2+x));",
      "logindex w divisor (x) at (0,0); "
      "logindex u divisor (x) at (0,0);"],
     ["--oracle", "on", "--format", "json"], 0, [0, 0],
     [[oracle], [oracle]]),
    ("oracle-log-bb-unit",
     ["ring x,y; v := vf(x*(1+x), 3*y); O := point (1,0,0); "
      "M := point (1,-1,0); A := point (0,1,0); B := point (0,0,1);",
      "check log_bb of v divisor (x) points (O, M, A, B);"],
     ["--oracle", "on", "--format", "json"], 0, [4], None),
    # a repeated divisor entry names one hyperplane
    ("log-divisor-repeated",
     ["ring x,y; v := vf(x^2, y);",
      "logindex v divisor (x, x) at (0,0); "
      "logindex v divisor (x) at (0,0);"],
     ["--oracle", "on", "--format", "json"], 0, [1, 1],
     [[oracle], [oracle]]),
    ("germs",
     ["ring x,y; f := y^9 + 3*x*y^9 + x^2*y^7 + x^6 + x^6*y^4;",
      "milnor f at (0,0); tjurina f at (0,0);"],
     ["--format", "json"], 0, [40, 36], None),
    ("space",
     ["ring x,y,z; f := z^4 - 3*y^2*z^3 + y^3 - 3*x*y*z^4 + x^2"
      " - 3*x^2*y^3;",
      "milnor f at (0,0,0); tjurina f at (0,0,0);"],
     ["--format", "json"], 0, [6, 6], None),
    ("rational",
     ["ring x,y; f := 7/3*y^9 + 3/5*x*y^9 + x^2*y^7 + 11/2*x^6"
      " - 5/7*x^6*y^4; g := (y+1/2)^2 - 2/3*(x-1)^3;",
      "milnor f at (0,0); tjurina f at (0,0); "
      "milnor g at (1,-1/2);"],
     ["--format", "json"], 0, [40, 36, 2], None),
    ("residues",
     ["ring x,y; f := y^2 - x^3; v := vf(2*x, 3*y); "
      "b := branch(t^2, t^3) order 20;",
      "w := vf(x^2, y^2); h := x*y; u := vf(x, 7*y); "
      "g := (y+2)^2 - (x-1)^3;",
      "cs v along f branch b at (0,0); "
      "var v along f branch b at (0,0);",
      "residue h over w at (0,0); bb u phi (c1^2) at (0,0); "
      "milnor g at (1,-2);"],
     ["--format", "json"], 0, [6, 5, 1, "64/7", 2], None),
    # power bound 5: the box inverse runs past its constant term
    ("residue-bound-5",
     ["ring x,y; w := vf(x^3 + x*y^2, y^3 - x^2*y); "
      "h := x^2*y^2 + 3*x*y;",
      "residue h over w at (0,0);"],
     ["--format", "json"], 0, ["1/2"], None),
    # a declared polynomial read inside another expression
    ("polynomial-name",
     ["ring x,y; f := y^2; g := f - x^3; milnor g at (0,0);"],
     ["--format", "json"], 0, [2], None),
    ("parse-error",
     ["ring x,y; f := x $ y;"], [], 2, None, None),
    # the series order comes from the germ: 2 * 2 * 101 + 1
    ("cusp101",
     ["ring x,y; f := y^2 - x^101; v := vf(2*x, 101*y); "
      "b := branch(t^2, t^101) order 20;",
      "cs v along f branch b at (0,0); "
      "var v along f branch b at (0,0);"],
     ["--format", "json"], 0, [202, 103], None),
    # 1/det, tr^2/det of the linear parts, and the cusp
    ("rational-residues",
     ["ring x,y; w := vf(1/2*x + x^2, 3/4*y - 2/5*x*y); "
      "u := vf(2/3*x, 5/7*y + x^2);",
      "g := (y - 1/3)^2 - 2/5*(x + 1/2)^3; h := 1 + 0*x;",
      "residue h over w at (0,0); bb u phi (c1^2) at (0,0); "
      "milnor g at (-1/2, 1/3);"],
     ["--format", "json"], 0, ["8/3", "841/210", 2], None),
    # the residues of c_1^3 at the coordinate points sum to 4^3
    ("bb-total-in-space",
     ["ring x,y,z; v := vf(x, 2*y, 3*z); P := point (1, 0, 0, 0); "
      "Q := point (0, 1, 0, 0); R := point (0, 0, 1, 0); "
      "S := point (0, 0, 0, 1);",
      "check bb_total of v points (P, Q, R, S);"],
     ["--format", "json"], 0, [64], None),
    # (t^21, t^30) vanishes to order 20: a threefold cover of the
    # branch (t^7, t^10), whose residue is 70
    ("cs-cover-past-order-20",
     ["ring x,y; f := y^7 - x^10; v := vf(7*x, 10*y); "
      "b := branch(t^21, t^30) order 20;",
      "cs v along f branch b at (0,0);"],
     ["--format", "json"], 0, [210], None),
    # every local command at a point off the origin: the runner
    # moves each kind of data there before the engine reads it
    ("plane-at-a-point",
     ["ring x,y; f := (y + 2)^2 - (x - 1)^3; "
      "v := vf(2*(x - 1), 3*(y + 2)); "
      "w := form(-3*(y + 2) dx, 2*(x - 1) dy); "
      "b := branch(1 + t^2, -2 + t^3) order 20; h := x*y;",
      "milnor f at (1, -2); tjurina f at (1, -2); "
      "ph v at (1, -2); homological v along f at (1, -2); "
      "radial v along f at (1, -2); gsv v along f at (1, -2); "
      "gsv w along f at (1, -2); "
      "cs v along f branch b at (1, -2); "
      "var v along f branch b at (1, -2); "
      "logindex v divisor (x, y) at (1, -2); "
      "bb v phi (c1^2) at (1, -2); residue h over v at (1, -2);"],
     ["--format", "json"], 0,
     [2, 2, 1, -1, 1, -1, -1, 6, 5, 0, "25/6", "-1/3"], None),
    ("space-at-a-point",
     ["ring x,y,z; v := vf(x - 1, 2*(y + 1), 3*z); "
      "l1 := y + 1 - (x - 1)^2; l2 := z - (x - 1)^3;",
      "gsv v along (l1, l2) at (1, -1, 0);"],
     ["--format", "json"], 0, [1], None),
    # a plane curve given alone or as a one-curve list, with a field or
    # its dual form: the list route reads the 1x1 minors f_x, then f_y
    ("gsv-plane-shapes",
     ["ring x,y; f := y^2 - x^3; v := vf(2*x, 3*y); "
      "w := form(-3*y dx, 2*x dy);",
      "gsv v along f at (0,0); gsv v along (f) at (0,0); "
      "gsv w along (f) at (0,0);"],
     ["--format", "json"], 0, [-1, -1, -1],
     [[["variant-fx", True], ["homological", True]],
      [["minors-(1,)", True]], [["minors-(1,)", True]]]),
    ("gsv-space-form",
     ["ring x,y,z; v := vf(x, 2*y, 3*z); "
      "w := form(3*z dx^dy, -2*y dx^dz, x dy^dz); "
      "l1 := y - x^2; l2 := z - x^3;",
      "gsv v along (l1, l2) at (0,0,0); gsv w along (l1, l2) at (0,0,0);"],
     ["--format", "json"], 0, [1, 1],
     [[["minors-(0, 2)", True], ["minors-(1, 2)", True]]] * 2),
    # points are checked where they are written, at parse time
    ("point-arity-at",
     ["ring x,y; f := y^2 - x^3; milnor f at (0,0,0);"],
     [], 2, None, None),
    ("point-arity-points",
     ["ring x,y; v := vf(2*x, 3*y); P := point (0, 0); "
      "check milnor_total of v points (P);"], [], 2, None, None),
    # A twice would cover the missing [1:2:2] in every chart
    ("duplicate-point",
     ["ring x,y; v := vf((x-1)*(x-2), (y-1)*(y-2)); "
      "A := point (1,1,1); B := point (1,1,2); C := point (1,2,1); "
      "I0 := point (0,1,0); I1 := point (0,0,1); "
      "I2 := point (0,1,1);",
      "check milnor_total of v points (A, A, B, C, I0, I1, I2);"],
     [], 2, None, None),
    # 999,999 standard monomials: more than the steps of the default
    # budget, so the staircase raises ResourceCap before listing them
    ("staircase-cap",
     ["ring x,y; f := x^1000000 + y^2; milnor f at (0,0);"],
     [], 2, None, None),
]


def _command():
    """The command that runs ``folindex``, and the environment it needs."""
    env = dict(os.environ)
    found = shutil.which("folindex")
    if found:
        return [found], env
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH"))))
    return [sys.executable, "-c",
            "import sys; from folindex.cli import main; sys.exit(main())"], env


def run(directory):
    command, env = _command()
    failed = []
    for name, lines, flags, code, values, checks in TABLE:
        session = Path(directory) / (name + ".fol")
        session.write_text("\n".join(lines) + "\n")
        try:
            done = subprocess.run([*command, "run", str(session), *flags],
                                  capture_output=True, text=True, env=env,
                                  timeout=60)
        except subprocess.TimeoutExpired:
            print("%s: timed out" % name)
            failed.append("%s ran past 60 s" % name)
            continue
        print("%s: exit %d" % (name, done.returncode))
        if done.returncode != code:
            failed.append("%s exited %d, expected %d\n%s"
                          % (name, done.returncode, code, done.stderr))
            continue
        if values is None and checks is None:
            continue
        records = json.loads(done.stdout)["records"]
        got = [r["value"] for r in records]
        if values is not None and got != values:
            failed.append("%s values %r, expected %r" % (name, got, values))
        seen = [[c[:2] for c in r["crosschecks"]] for r in records]
        if checks is not None and seen != checks:
            failed.append("%s crosschecks %r, expected %r"
                          % (name, seen, checks))
    return failed


def main(argv):
    if len(argv) > 1:
        failed = run(argv[1])
    else:
        with tempfile.TemporaryDirectory() as directory:
            failed = run(directory)
    if failed:
        sys.exit("\n".join(failed))


if __name__ == "__main__":
    main(sys.argv)
