"""List the statements of folindex that the benchmark and the console
sessions never run.

    python scripts/traffic.py [--seed N] [MODULE.py ...]

Runs, in this one process and under ``sys.settrace``:

- one pass over the pool of every workload of ``perfbench`` at the seed
  (default 1);
- every known-defect probe that ends within the benchmark's probe deadline
  when run untraced (a probe past it is left out);
- every row of ``scripts/console_sessions.py``, through ``folindex.cli``.

Then it prints, for each module of ``src/folindex`` (or for the modules
named), the statements that none of them reached, one line each, after a
count.  A statement is a line of the module that starts a statement and
that the compiler gives code.  Nothing is written outside a temporary
directory, and no file of the checkout changes.
"""

import argparse
import ast
import contextlib
import importlib
import io
import random
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "folindex"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"),
                str(ROOT / "scripts")]

import console_sessions  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402


def _code_lines(code):
    """The lines the compiler gave code, in code and in its nested code."""
    out = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            out |= _code_lines(const)
    return out


def statements(path):
    """The statement lines of one source file that have code."""
    text = path.read_text()
    starts = {node.lineno for node in ast.walk(ast.parse(text))
              if isinstance(node, ast.stmt)}
    return starts & _code_lines(compile(text, str(path), "exec"))


class LineTracer:
    """Records (file, line) for every line run inside the package."""

    def __init__(self):
        self.seen = set()
        self.prefix = str(PACKAGE)

    def _global(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.prefix):
            self.seen.add((frame.f_code.co_filename, frame.f_lineno))
            return self._local
        return None

    def _local(self, frame, event, arg):
        if event == "line":
            self.seen.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    @contextlib.contextmanager
    def installed(self):
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)


def _fresh_package():
    for name in list(sys.modules):
        if name == "folindex" or name.startswith("folindex."):
            del sys.modules[name]
    return importlib.import_module("folindex")


def _ends_in_time(fi, op):
    """Whether the probe returns or raises within the probe deadline."""
    old = signal.signal(signal.SIGALRM, bench._alarm)
    try:
        return bench._call(fi, op, bench.PROBE_DEADLINE)[1] != "OpDeadline"
    finally:
        signal.signal(signal.SIGALRM, old)


def _run_ops(fi, ops):
    for op in ops:
        try:
            op.call()
        except fi.FolindexError:
            pass


def _run_sessions(directory):
    """Every console row, in process; returns the rows whose exit code
    differs from the table's."""
    from folindex.cli import main
    wrong = []
    for name, lines, flags, code, _, _ in console_sessions.TABLE:
        session = Path(directory) / (name + ".fol")
        session.write_text("\n".join(lines) + "\n")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            got = main(["run", str(session), *flags])
        if got != code:
            wrong.append("%s exited %d, expected %d" % (name, got, code))
    return wrong


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("modules", nargs="*",
                        help="module files to report, such as series.py "
                             "(default: all)")
    args = parser.parse_args(argv)

    tracer = LineTracer()
    with tracer.installed():
        fi = _fresh_package()
    skipped = []
    for name, config in sorted(bench.CONFIG.items()):
        with tracer.installed():
            pool = workloads.build_pool(name, fi, random.Random(args.seed),
                                        config["rounds"])
            probes = workloads.build_probes(name, fi,
                                            random.Random(args.seed))
        in_time = [op for op in probes if _ends_in_time(fi, op)]
        skipped += ["%s probe past the deadline: %s" % (name, op.label)
                    for op in probes if op not in in_time]
        with tracer.installed():
            _run_ops(fi, pool + in_time)
    with tempfile.TemporaryDirectory() as directory, tracer.installed():
        wrong = _run_sessions(directory)

    for line in skipped + wrong:
        print("note: %s" % line)
    paths = ([PACKAGE / m for m in args.modules] if args.modules
             else sorted(PACKAGE.glob("*.py")))
    for path in paths:
        source = path.read_text().splitlines()
        lines = sorted(statements(path))
        missed = [n for n in lines if (str(path), n) not in tracer.seen]
        print("%s: %d of %d statements not reached"
              % (path.name, len(missed), len(lines)))
        for n in missed:
            print("  %s:%d: %s" % (path.name, n, source[n - 1].strip()))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
