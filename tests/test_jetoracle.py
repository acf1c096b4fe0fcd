"""Truncation oracle: integer ranks, naive dimensions, Euler characteristics."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from folindex import jetoracle
from folindex.errors import (
    NotInvariant,
    NotLogarithmic,
    RouteConflict,
    TruncationNotStabilized,
)
from folindex.jetoracle import (
    contraction_complex_euler,
    integer_rank,
    truncated_quotient_dim,
)
from folindex.localalgebra import (
    INFINITE,
    IdealGens,
    MonomialOrder,
    quotient_dim,
)
from folindex.polyring import DiffForm, Poly, VectorField


def test_integer_rank():
    assert integer_rank([]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[1, 2], [2, 5]]) == 2
    assert integer_rank([[2, 0, 0], [0, 3, 0], [2, 3, 0], [1, 1, 1]]) == 3
    rng = random.Random(43)
    for _ in range(10):
        # random row-echelon matrix scrambled by row operations has known rank
        r, c = rng.randrange(1, 5), rng.randrange(1, 6)
        rank = min(r, c, rng.randrange(1, 5))
        base = [[0] * c for _ in range(r)]
        for i in range(rank):
            base[i][i] = rng.randrange(1, 5)
            for j in range(i + 1, c):
                base[i][j] = rng.randrange(-4, 5)
        rows = [row[:] for row in base]
        for _ in range(6):
            i, j = rng.randrange(r), rng.randrange(r)
            k = rng.randrange(-2, 3)
            if i != j:
                rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        assert integer_rank(rows) == integer_rank(base) == rank


def _fraction_rank(rows, ncols):
    m = [[Fraction(a) for a in r] for r in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            t = m[i][col] / m[rank][col]
            m[i] = [a - t * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


@st.composite
def _matrices(draw):
    ncols = draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    base = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         max_size=7))
    rows = list(base)
    extras = draw(st.lists(st.tuples(st.sampled_from(("zero", "dup", "mult")),
                                     st.integers(0, 50), st.integers(-4, 4)),
                           max_size=5))
    for kind, i, k in extras:
        if kind == "zero" or not base:
            rows.append([0] * ncols)
        elif kind == "dup":
            rows.append(list(base[i % len(base)]))
        else:
            rows.append([k * a for a in base[i % len(base)]])
    order = draw(st.permutations(range(len(rows))))
    return ncols, [rows[i] for i in order]


@settings(max_examples=300, deadline=None)
@given(_matrices())
def test_integer_rank_dense_sparse_and_fraction_agree(matrix):
    ncols, rows = matrix
    sparse = [{k: a for k, a in enumerate(r) if a} for r in rows]
    rank = _fraction_rank(rows, ncols)
    assert integer_rank(rows) == rank
    assert integer_rank(sparse) == rank


def test_oracle_imports_nothing_from_the_local_algebra():
    # the oracle is only an independent check while it shares no code with
    # the standard-basis engine
    tree = ast.parse(Path(jetoracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        for name in names:
            assert "localalgebra" not in name.split("."), ast.dump(node)


def test_truncated_quotient_dim_examples():
    x, y = Poly.variables(2)
    assert truncated_quotient_dim((x, y), 3) == (1, True)
    assert truncated_quotient_dim((3 * x ** 2, 2 * y), 4) == (2, True)
    assert truncated_quotient_dim((x,), 5) == (5, False)
    assert truncated_quotient_dim((y ** 2 - x ** 3, y), 6) == (3, True)


def test_truncated_quotient_dim_counts_only_the_origin():
    # zeros away from the origin are not part of the local algebra
    x, y = Poly.variables(2)
    assert truncated_quotient_dim((x * (1 + x), y), 10) == (1, True)
    assert truncated_quotient_dim((1 + x, y), 10) == (0, True)


def _random_plane_germ(rng):
    mons = [(a, b) for a in range(4) for b in range(4) if 0 < a + b <= 3]
    return tuple(Poly(2, {e: rng.randint(-3, 3)
                          for e in rng.sample(mons, rng.randint(1, 4))})
                 for _ in range(2))


def test_truncated_quotient_dim_agrees_with_standard_bases():
    rng = random.Random(5)
    checked = 0
    while checked < 21:
        gens = _random_plane_germ(rng)
        if any(g.is_zero() for g in gens):
            continue
        dim = quotient_dim(IdealGens(gens, MonomialOrder.local(2)))
        if dim is INFINITE or dim > 12:
            continue
        assert truncated_quotient_dim(gens, dim + 5) == (dim, True), gens
        checked += 1


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(-4, 4)), max_size=4),
       st.integers(1, 4), st.integers(0, 1))
def test_truncated_quotient_dim_ignores_unit_factors(terms, const, which):
    # a unit is invertible modulo m^N, so it changes no generated ideal
    x, y = Poly.variables(2)
    unit = Poly(2, {(a, b): c for a, b, c in terms if a + b}) + const
    gens = [y ** 2 - x ** 3, x * y]
    scaled = list(gens)
    scaled[which] = unit * gens[which]
    for level in (4, 6):
        assert (truncated_quotient_dim(scaled, level)
                == truncated_quotient_dim(gens, level))


def test_euler_smooth_line():
    # the window matters here: a raw count stalls at 0 for every truncation
    x, y = Poly.variables(2)
    assert contraction_complex_euler(VectorField((x, y)), y) == (1, True)
    assert contraction_complex_euler(VectorField((x, 2 * y)), y) == (1, True)


def test_euler_plane_curves():
    x, y = Poly.variables(2)
    cusp = y ** 2 - x ** 3
    assert contraction_complex_euler(VectorField((2 * x, 3 * y)), cusp) == (-1, True)
    assert contraction_complex_euler(VectorField((2 * y, 3 * x ** 2)), cusp) == (0, True)
    assert contraction_complex_euler(VectorField((-y, x)), x ** 2 + y ** 2) == (0, True)


def test_euler_surfaces_in_space():
    x, y, z = Poly.variables(3)
    radial = VectorField((x, y, z))
    assert contraction_complex_euler(radial, x ** 2 + y ** 2 + z ** 2, N=5)[0] == 2
    assert contraction_complex_euler(radial, x * y - z ** 2, N=5)[0] == 2


def test_euler_log_divisor():
    x, y = Poly.variables(2)
    assert contraction_complex_euler(VectorField((2 * x, 3 * y)), (0,)) == (0, True)
    assert contraction_complex_euler(VectorField((2 * x, 3 * y)), (0, 1)) == (0, True)
    assert contraction_complex_euler(VectorField((x ** 2, y)), (0,)) == (1, True)


def test_euler_empty_divisor_is_poincare_hopf():
    x, y = Poly.variables(2)
    assert contraction_complex_euler(VectorField((y ** 2, -x ** 2)), ()) == (4, True)
    assert contraction_complex_euler(VectorField((x, y)), ()) == (1, True)


def test_tangency_and_divisor_guards():
    x, y = Poly.variables(2)
    with pytest.raises(NotInvariant):
        contraction_complex_euler(VectorField((x, x)), y)
    with pytest.raises(NotLogarithmic):
        contraction_complex_euler(VectorField((Poly.const(2, 1), y)), (0,))


def test_level_at_or_below_the_degree_buffer_raises():
    # at N = 2 the window is empty and the value would read 0, not -1
    x, y = Poly.variables(2)
    v = VectorField((2 * x, 3 * y))
    with pytest.raises(TruncationNotStabilized, match="too small"):
        contraction_complex_euler(v, y ** 2 - x ** 3, N=2)
    assert contraction_complex_euler(v, y ** 2 - x ** 3)[0] == -1


def test_self_checks_raise_route_conflict(monkeypatch):
    x, y = Poly.variables(2)
    real_contract = jetoracle.contract

    def patch_contract(extra):
        def contract(form, v):
            out = real_contract(form, v)
            if out.degree == 0:
                out = out + DiffForm.from_poly(extra)
            return out
        monkeypatch.setattr(jetoracle, "contract", contract)

    # a term far above the level pushes the window past the boundary
    patch_contract(x ** 40)
    with pytest.raises(RouteConflict, match="window"):
        contraction_complex_euler(VectorField((2 * x, 3 * y)), y ** 2 - x ** 3, N=10)
    # a constant term makes contracting twice nonzero
    patch_contract(Poly.const(2, 1))
    with pytest.raises(RouteConflict, match="twice"):
        contraction_complex_euler(VectorField((2 * x, 3 * y)), (0, 1), N=8)
    monkeypatch.setattr(jetoracle, "contract", real_contract)

    # relations built from the wrong differential are not closed under
    # contraction
    real_d = jetoracle.exterior_derivative
    monkeypatch.setattr(jetoracle, "exterior_derivative", lambda f: real_d(f + x))
    with pytest.raises(RouteConflict, match="relation span"):
        contraction_complex_euler(VectorField((2 * x, 3 * y)), y ** 2 - x ** 3, N=10)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(-5, 5)), max_size=5),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(-5, 5)), min_size=1, max_size=4))
def test_exact_division(p_terms, f_terms):
    p = Poly(2, {(a, b): c for a, b, c in p_terms})
    f = Poly(2, {(a, b): c for a, b, c in f_terms})
    assume(not f.is_zero())
    assert jetoracle._divide(p * f, f) == p
    if f.degree() > 0:
        assert jetoracle._divide(p * f + Poly.const(2, 1), f) is None


def test_non_reduced_curve_never_stabilizes():
    # on the double line the top homology keeps growing with the window
    x, y = Poly.variables(2)
    v = VectorField((x, y))
    _, stabilized = contraction_complex_euler(v, y ** 2, N=8)
    assert not stabilized
    with pytest.raises(TruncationNotStabilized):
        contraction_complex_euler(v, y ** 2, max_trunc=10)
