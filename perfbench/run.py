"""Closed-loop benchmark of folindex through its public API.

    python3 perfbench/run.py --workload germs --seed 1 --seconds 36 --trace 0

Run it from the root of a source checkout: the benchmark imports the
package from ``src/`` of that checkout and nothing else.  One client sends
one operation at a time, in one thread.  Every returned value is checked
against its closed form; a wrong value, or an exception that is not a
``FolindexError``, ends the benchmark with a non-zero exit code.  A
``FolindexError``, or an operation stopped at the workload's per-operation
deadline, is a failed operation.  The pools are chosen so that none fails
today; the known defects are probes, run once after the timed loop and
reported as text lines, outside the figures (see workloads.py).

The run makes whole passes over the workload's pool for about
``--seconds``.  With ``--trace 0`` the last line of output is a JSON object
with the end-to-end metrics:

- setup_s: the median time of a fresh import of folindex plus building
  the pool, over the set-up before the timed loop and the spare set-ups
  made during it (see SETUP_EVERY_S), in reference seconds (its unit is
  written "s", as the benchmark's format requires of set-up time);
- ok_ops_per_s: operations that returned a checked value per reference
  second of the timed loop, failed ones counting in the time;
- op_s_p50, op_s_tail: the median per-operation time over all attempted
  operations, and the one at the highest percentile with ten samples
  beyond it in a three-pass run (see _tail), in reference seconds;
- ok_ratio: the share of attempted operations that returned a checked
  value.  Its complement fail_ratio is printed with a tally by error class;
  the JSON carries ok_ratio because no workload fails anything today and a
  metric must not read 0;
- peak_rss_mib: the peak resident memory of the process.

A reference second is a wall second scaled by the host's speed in the same
run, measured by chunks of a fixed computation between the operations (see
hostspeed.py), so that it is about a wall second on the container the
benchmark was baselined on; the wall-clock figures are printed beside them.

With ``--trace 1`` the run is split in two halves over the same pool,
untraced and then traced, and the JSON object holds the per-layer metrics
of the traced half (see layers.py) together with both throughputs.
"""

import argparse
import gc
import importlib
import json
import math
import random
import resource
import signal
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import hostspeed
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Seconds of operations between two spare set-ups in an untraced run: a
# fresh import of folindex plus building the pool, timed and thrown away.
# setup_s is the median of the first set-up and the spares, so that, like
# the other figures, it samples the host over the whole run and not over the
# fraction of a second one set-up takes.
SETUP_EVERY_S = 1.5

# Rounds of the workload's kinds in its pool, and the per-operation deadline
# in seconds.  A pass over the pool takes about 4-7 s on a 2-CPU container.
# The deadline is about ten times the pool's slowest operation, so that only
# a hung operation meets it.
CONFIG = {
    "germs": {"rounds": 3, "deadline": 5.0},
    "oracle": {"rounds": 3, "deadline": 30.0},
    "global": {"rounds": 2, "deadline": 20.0},
}

# Deadline of a known-defect probe.  The unbounded Mora runs of dense germs
# (a known defect) run past it; a fixed probe takes well under a second.
PROBE_DEADLINE = 2.0


class BenchError(Exception):
    """An operation returned a wrong value: the benchmark itself fails."""


class OpDeadline(BaseException):
    """Raised into an operation that ran past the per-operation deadline.

    A BaseException, so that no handler inside the program swallows it."""


def _alarm(signum, frame):
    raise OpDeadline()


def _load_package():
    src = ROOT / "src"
    if not (src / "folindex" / "__init__.py").is_file():
        raise SystemExit(
            "perfbench: no folindex source at %s; run from the root of a "
            "folindex checkout" % src)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def _pop_package():
    """Take the folindex modules out of sys.modules; returns them."""
    return {m: sys.modules.pop(m) for m in list(sys.modules)
            if m == "folindex" or m.startswith("folindex.")}


def _setup(name, seed):
    """Import folindex afresh and build the workload's pool; returns the
    package, the pool and the seconds it took."""
    _pop_package()
    gc.collect()
    t0 = perf_counter()
    fi = importlib.import_module("folindex")
    pool = workloads.build_pool(name, fi, random.Random(seed),
                                CONFIG[name]["rounds"])
    return fi, pool, perf_counter() - t0


def _spare_setup(name, seed):
    """Time one more set-up, then put back the modules the pool uses, so
    that the operations and the tracer keep seeing one package."""
    in_use = _pop_package()
    try:
        return _setup(name, seed)[2]
    finally:
        _pop_package()
        sys.modules.update(in_use)


def _call(fi, op, deadline):
    """Run one operation under the deadline; returns (value, the class of
    the failure or None)."""
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        return op.call(), None
    except fi.FolindexError as exc:
        return None, type(exc).__name__
    except OpDeadline:
        return None, "OpDeadline"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _checked(op, value):
    if not op.check(value):
        raise BenchError("wrong value %r from %s" % (value, op.label))


def _loop(fi, pool, seconds, deadline, tracer=None, spare_setup=None):
    """Make whole passes over the pool, so that every run does the same mix
    of work, and stop after the pass that ends nearest to ``seconds``: when
    half a pass more would overshoot, no further pass is made.  Between
    operations, run the host-speed reference chunks and, if given, the spare
    set-ups; their time is not in the loop's wall time.  Raises BenchError
    on a wrong value."""
    times = []
    failures = Counter()
    ok = 0
    passes = 0
    reference = []
    setups = []
    aside = 0.0
    last_chunk = last_setup = -math.inf
    start = perf_counter()
    while True:
        passes += 1
        pass_start = perf_counter()
        for op in pool:
            t0 = perf_counter()
            if t0 - last_chunk >= hostspeed.EVERY_S:
                reference.append(hostspeed.chunk())
                last_chunk = perf_counter()
            if spare_setup is not None and t0 - last_setup >= SETUP_EVERY_S:
                setups.append(spare_setup())
                last_setup = perf_counter()
            if tracer is not None:
                tracer.begin_op()
            aside += perf_counter() - t0
            t0 = perf_counter()
            value, failed = _call(fi, op, deadline)
            times.append(perf_counter() - t0)
            if failed is not None:
                failures[failed] += 1
            else:
                _checked(op, value)
                ok += 1
        now = perf_counter()
        if now - start + (now - pass_start) / 2 >= seconds:
            break
    return {"times": times, "ok": ok, "failures": failures,
            "wall": perf_counter() - start - aside, "passes": passes,
            "slowdown": hostspeed.slowdown(reference), "setups": setups}


def _probe(fi, op):
    """Run one known-defect probe; returns what it did, as text."""
    value, failed = _call(fi, op, PROBE_DEADLINE)
    if failed == "OpDeadline":
        return "still runs past the %g s deadline" % PROBE_DEADLINE
    if failed is not None:
        return "still raises %s" % failed
    _checked(op, value)
    return "fixed: returns %r" % (value,)


def _tail(times, pool_size):
    """The per-operation time at the highest percentile that has at least
    ten samples beyond it in a run of three passes, fewer than a run of the
    benchmark's length makes; returns (value, percentile).

    A run is whole passes, so every operation of the pool is sampled
    equally often and a fixed percentile picks the same operation of the
    pool (the fourth slowest) whatever the number of passes.  The highest
    percentile of the run itself would jump from one operation to another
    as the number of passes changes with the machine's speed."""
    level = 1 - 10 / (3 * pool_size)
    ordered = sorted(times)
    return ordered[math.ceil(level * len(ordered)) - 1], 100 * level


def run(name, seed, seconds, trace):
    """One benchmark run; returns (text lines, result object)."""
    _load_package()
    fi, pool, first_setup = _setup(name, seed)
    probes = workloads.build_probes(name, fi, random.Random(seed))
    deadline = CONFIG[name]["deadline"]
    old = signal.signal(signal.SIGALRM, _alarm)
    try:
        if trace:
            plain = _loop(fi, pool, seconds / 2, deadline)
            tracer = layers.Tracer()
            with tracer.installed():
                traced = _loop(fi, pool, seconds / 2, deadline, tracer)
            runs = (plain, traced)
        else:
            runs = (_loop(fi, pool, seconds, deadline,
                          spare_setup=lambda: _spare_setup(name, seed)),)
        known = ["known defect: %s: %s" % (op.label, _probe(fi, op))
                 for op in probes]
    finally:
        signal.signal(signal.SIGALRM, old)

    attempted = sum(len(r["times"]) for r in runs)
    failures = sum((r["failures"] for r in runs), Counter())
    failed = sum(failures.values())
    lines = ["workload %s seed %d seconds %s trace %d: %d ops in the pool"
             % (name, seed, seconds, trace, len(pool)),
             "timed loops: %s" % ", ".join(
                 "%d passes in %.2f s, host slowdown %.3f"
                 % (r["passes"], r["wall"], r["slowdown"]) for r in runs),
             "failures by class: %s" % (dict(sorted(failures.items())) or
                                        "none")] + known
    # rates per reference second: wall rates times the host's slowdown
    rates = [r["ok"] / r["wall"] * r["slowdown"] for r in runs]
    if trace:
        metrics = tracer.metrics(len(traced["times"]))
        metrics["trace.ok_ops_per_s_untraced"] = {"value": rates[0],
                                                  "unit": "1/ref_s"}
        metrics["trace.ok_ops_per_s_traced"] = {"value": rates[1],
                                                "unit": "1/ref_s"}
        metrics["trace.overhead_ratio"] = {
            "value": rates[0] / rates[1] - 1 if rates[1] else 0.0,
            "unit": "ratio"}
        lines.append("tracing overhead: %.2f ok ops per ref_s untraced, "
                     "%.2f traced" % tuple(rates))
    else:
        r = runs[0]
        setup_wall = statistics.median([first_setup] + r["setups"])
        p50 = statistics.median(r["times"])
        tail, pct = _tail(r["times"], len(pool))
        metrics = {
            "setup_s": {"value": setup_wall / r["slowdown"], "unit": "s"},
            "ok_ops_per_s": {"value": rates[0], "unit": "1/ref_s"},
            "op_s_p50": {"value": p50 / r["slowdown"], "unit": "ref_s"},
            "op_s_tail": {"value": tail / r["slowdown"], "unit": "ref_s"},
            "ok_ratio": {"value": r["ok"] / attempted, "unit": "ratio"},
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024, "unit": "MiB"},
        }
        lines.append("fail_ratio %.4f (%d of %d attempted)"
                     % (failed / attempted, failed, attempted))
        lines.append("op_s_tail is p%.2f of %d samples"
                     % (pct, len(r["times"])))
        lines.append("setup_s is the median of %d set-ups"
                     % (1 + len(r["setups"])))
        lines.append("wall clock: setup_s %.6g s, ok_ops_per_s %.6g 1/s, "
                     "op_s_p50 %.6g s, op_s_tail %.6g s"
                     % (setup_wall, r["ok"] / r["wall"], p50, tail))
    for key, m in metrics.items():
        lines.append("%s %.6g %s" % (key, m["value"], m["unit"]))
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(CONFIG))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        lines, result = run(args.workload, args.seed, args.seconds,
                            args.trace)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
