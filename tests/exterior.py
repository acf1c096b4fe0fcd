"""The exterior derivative of polynomial forms, kept as the tests' reference
for the signs of contract, wedge and the oracle's rows: no module of
folindex calls it."""

from folindex.errors import InvalidInput
from folindex.polyring import DiffForm, Poly


def exterior_derivative(form):
    """d(omega) for a form or a bare polynomial (treated as a 0-form)."""
    if isinstance(form, Poly):
        form = DiffForm.from_poly(form)
    n = form.nvars
    if form.degree >= n:
        raise InvalidInput("d of a %d-form in %d variables" % (form.degree, n))
    out = {}
    for idx, p in form.coeffs.items():
        for i in range(n):
            if i in idx:
                continue
            dp = p.diff(i)
            if dp.is_zero():
                continue
            below = sum(1 for j in idx if j < i)
            if below % 2:
                dp = -dp
            merged = tuple(sorted(idx + (i,)))
            out[merged] = out.get(merged, Poly.zero(n)) + dp
    return DiffForm(n, form.degree + 1, out)
