"""A fixed reference computation that tracks the speed of the host.

The benchmark runs in a container that shares its CPUs with other tenants,
and the host's speed moves by about 20 % either way over seconds to
minutes: on a 2-CPU container a tight loop's time per second of running
ranged over 14.5-21 ms, and the same pool of operations ran at 4.0-5.6 ops/s
in five 36 s runs.  So the timed loop interleaves short chunks of this
reference, which uses the benchmark's own code and no folindex, and the
benchmark reports times in reference seconds: a time multiplied by
NOMINAL_S over the chunk's mean time in the same run.  A change to folindex
moves them as it moves wall times; a slow or fast spell of the host moves
the chunks with the operations and cancels.

The chunk does the two kinds of work the program spends its time on: it
multiplies two fixed sparse bivariate polynomials with Fraction
coefficients held in dicts, as the polynomial ring does, and it eliminates
a fixed integer matrix without fractions, as the oracle's rank does.  The
two respond differently to a busy host, and the workloads mix them in
different shares.
"""

import random
import statistics
from fractions import Fraction
from time import perf_counter

# The chunk's time on the container the benchmark was baselined on (2 CPUs,
# Python 3.11.7), so that a reference second is about a second there.
NOMINAL_S = 0.0035

# Seconds of operations between two chunks: the chunks take about 1.5 % of
# a run.
EVERY_S = 0.25


def _poly(rng):
    return {(rng.randrange(8), rng.randrange(8)):
            Fraction(rng.randint(-99, 99), rng.randint(1, 99))
            for _ in range(14)}


_RNG = random.Random(0)
_A = _poly(_RNG)
_B = _poly(_RNG)
_M = [[_RNG.randint(-9, 9) for _ in range(24)] for _ in range(24)]


def _eliminate(rows):
    """Fraction-free Gaussian elimination of an integer matrix in place."""
    prev = 1
    for k in range(len(rows) - 1):
        piv = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if piv is None:
            continue
        rows[k], rows[piv] = rows[piv], rows[k]
        top = rows[k]
        pk = top[k]
        for row in rows[k + 1:]:
            a = row[k]
            for j in range(k + 1, len(top)):
                row[j] = (pk * row[j] - a * top[j]) // prev
            row[k] = 0
        prev = pk


def chunk():
    """Run the reference once; returns its wall time in seconds."""
    t0 = perf_counter()
    for _ in range(3):
        out = {}
        for (i, j), a in _A.items():
            for (k, l), b in _B.items():
                e = (i + k, j + l)
                out[e] = out.get(e, 0) + a * b
    _eliminate([list(row) for row in _M])
    return perf_counter() - t0


def slowdown(times):
    """The host's slowdown against the nominal speed: the mean of a run's
    chunk times over NOMINAL_S.  The mean, not the median, because the
    operations pay for a slow spell in proportion to its length, and so do
    the chunks on average."""
    return statistics.fmean(times) / NOMINAL_S
