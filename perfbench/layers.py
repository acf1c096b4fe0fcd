"""Per-layer spans recorded from outside the program.

Each layer is one folindex module.  ``Tracer.installed()`` replaces the
module's public functions (and the few public methods that do its work)
with wrappers that time a span around every call.  Modules bind one
another's functions by name (``from .localalgebra import quotient_dim`` in
``indices`` and ``projective``), so a wrapper replaces the name in every
module that bound the original, not only in the module that defines it.

A span's self time is its duration minus the time covered by the spans it
caused; the tracer's own bookkeeping is kept out of both.
"""

import contextlib
import sys
from collections import defaultdict
from time import perf_counter

# (module, owner, attribute, span key); owner None means a module-level
# function.  The span key names the metric family; its layer is the part
# before the first dot.
SPANS = (
    ("polyring", "Poly", "__mul__", "polyring.mul"),
    ("polyring", "Poly", "__rmul__", "polyring.mul"),
    ("polyring", "Poly", "__add__", "polyring.addsub"),
    ("polyring", "Poly", "__radd__", "polyring.addsub"),
    ("polyring", "Poly", "__sub__", "polyring.addsub"),
    ("polyring", "Poly", "__rsub__", "polyring.addsub"),
    ("localalgebra", None, "standard_basis", "localalgebra.sb"),
    ("localalgebra", None, "normal_form", "localalgebra.nf"),
    ("localalgebra", None, "membership_with_cofactors", "localalgebra.member"),
    ("localalgebra", None, "quotient_dim", "localalgebra.other"),
    ("localalgebra", None, "monomial_power_bound", "localalgebra.other"),
    ("localalgebra", None, "exact_divide", "localalgebra.other"),
    ("localalgebra", None, "order_along_curve", "localalgebra.other"),
    ("jetoracle", None, "integer_rank", "jetoracle.rank"),
    ("jetoracle", None, "contraction_complex_euler", "jetoracle.euler"),
    ("jetoracle", None, "truncated_quotient_dim", "jetoracle.tqd"),
    ("residues", None, "grothendieck_residue", "residues.call"),
    ("residues", None, "baum_bott_residue", "residues.call"),
    ("series", None, "poly_on_branch", "series.call"),
    ("series", None, "pullback_one_form", "series.call"),
    ("series", None, "laurent_residue", "series.call"),
    ("series", None, "newton_lift", "series.call"),
    ("series", "BranchParam", "at_order", "series.call"),
    ("indices", None, "milnor_number", "indices.call"),
    ("indices", None, "tjurina_number", "indices.call"),
    ("indices", None, "ph_index", "indices.call"),
    ("indices", None, "tangency_cofactor", "indices.call"),
    ("indices", None, "homological_index", "indices.call"),
    ("indices", None, "saito_decomposition", "indices.call"),
    ("indices", None, "gsv_curve", "indices.call"),
    ("indices", None, "cs_index", "indices.call"),
    ("indices", None, "var_index", "indices.call"),
    ("indices", None, "radial_index", "indices.call"),
    ("indices", None, "gsv_pfaff_curve", "indices.call"),
    ("indices", None, "log_index", "indices.call"),
    ("chern", None, "identity_rhs", "chern.rhs"),
    ("projective", None, "run_global_check", "projective.check"),
    ("projective", None, "affine_singular_audit", "projective.audit"),
    ("projective", "ProjectiveFoliation", "from_affine_field",
     "projective.other"),
    ("projective", "ProjectiveFoliation", "chart_restrict",
     "projective.other"),
    ("dsl", None, "parse_session", "dsl.parse"),
    ("dsl", None, "run_session", "dsl.run"),
)

LAYERS = ("polyring", "localalgebra", "jetoracle", "residues", "series",
          "indices", "chern", "projective", "dsl")

# Span keys that do not open a new span inside a span of the same key:
# Poly.__sub__ is written as an addition, and it counts as one operation.
_FLAT = frozenset(("polyring.addsub",))


class _Frame:
    __slots__ = ("key", "child")

    def __init__(self, key):
        self.key = key
        self.child = 0.0


def _coeff_bits(basis):
    bits = 0
    for b in basis.elements:
        for c in b.terms.values():
            bits = max(bits, c.numerator.bit_length()
                       + c.denominator.bit_length())
    return bits


class Tracer:
    """Collects span durations, self times and layer counters for one
    traced run.  Call ``begin_op()`` before each operation."""

    def __init__(self):
        self.stack = []
        self.total = defaultdict(float)     # span key -> summed duration
        self.calls = defaultdict(int)       # span key -> calls
        self.self_s = defaultdict(float)    # layer or sb -> summed self time
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self.seen_sb = set()
        self.sb_calls = 0
        self.sb_repeats = 0

    def begin_op(self):
        # a deadline can cut an operation inside a span, leaving it open
        self.stack.clear()
        self.seen_sb = set()

    # -- per-span hooks: run outside the span's clock --------------------

    def _before(self, key, args):
        if key == "localalgebra.sb":
            gens, order = tuple(args[0]), args[1]
            sig = (gens, order)
            self.sb_calls += 1
            if sig in self.seen_sb:
                self.sb_repeats += 1
            self.seen_sb.add(sig)
            return "localalgebra.sb_local" if order.is_local() \
                else "localalgebra.sb_global"
        if key == "polyring.mul" and len(args) == 2:
            other = args[1]
            if hasattr(other, "terms"):
                self.counters["polyring.mul_term_pairs"] += (
                    len(args[0].terms) * len(other.terms))
        elif key == "jetoracle.rank":
            rows = args[0]
            if rows:
                self.counters["jetoracle.rank_cells"] += (
                    len(rows) * len(rows[0]))
                self.counters["jetoracle.rank_nnz"] += sum(
                    1 for r in rows for a in r if a)
        return key

    def _after(self, key, result):
        if key.startswith("localalgebra.sb_"):
            self.maxima["localalgebra.sb_size_max"] = max(
                self.maxima["localalgebra.sb_size_max"], len(result.elements))
            self.maxima["localalgebra.sb_coeff_bits_max"] = max(
                self.maxima["localalgebra.sb_coeff_bits_max"],
                _coeff_bits(result))
        elif key == "residues.call":
            self.maxima["residues.bound_max"] = max(
                self.maxima["residues.bound_max"], result.bound)

    # -- wrapping --------------------------------------------------------

    def _wrap(self, key, fn):
        stack = self.stack
        flat = key in _FLAT
        layer = key.split(".", 1)[0]

        def span(*args, **kwargs):
            if flat and stack and stack[-1].key == key:
                return fn(*args, **kwargs)
            b0 = perf_counter()
            name = self._before(key, args)
            frame = _Frame(key)
            stack.append(frame)
            done = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                done = True
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self.total[name] += dt
                self.calls[name] += 1
                own = dt - frame.child
                self.self_s[layer] += own
                if name.startswith("localalgebra.sb_"):
                    self.self_s["localalgebra.sb"] += own
                if done:
                    self._after(name, result)
                if stack:
                    # the parent's clock ran through this span and the
                    # bookkeeping around it
                    stack[-1].child += perf_counter() - b0
            return result

        return span

    @contextlib.contextmanager
    def installed(self):
        """Wrap every span point for the duration of the block."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "folindex" or name.startswith("folindex.")}
        undo = []
        wrapped = {}
        try:
            for modname, owner, attr, key in SPANS:
                mod = mods["folindex." + modname]
                if owner is not None:
                    cls = getattr(mod, owner)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(key, raw.__func__))
                    else:
                        new = self._wrap(key, raw)
                    setattr(cls, attr, new)
                    undo.append((cls, attr, raw))
                    continue
                fn = getattr(mod, attr)
                wrapped[id(fn)] = (fn, self._wrap(key, fn))
            # replace every binding of a wrapped function, in any module
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    hit = wrapped.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(mod, attr, hit[1])
                        undo.append((mod, attr, value))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    # -- results ---------------------------------------------------------

    def metrics(self, ops):
        """Per-layer metrics over ``ops`` traced operations: times and
        counts per operation, maxima and ratios as they are."""
        per = 1.0 / max(ops, 1)
        m = {}

        def put(name, value, unit):
            m[name] = {"value": value, "unit": unit}

        put("jetoracle.rank_s", self.total["jetoracle.rank"] * per, "s/op")
        put("jetoracle.rank_calls", self.calls["jetoracle.rank"] * per,
            "calls/op")
        put("jetoracle.rank_cells",
            self.counters["jetoracle.rank_cells"] * per, "cells/op")
        put("jetoracle.rank_nnz", self.counters["jetoracle.rank_nnz"] * per,
            "nnz/op")
        put("jetoracle.euler_s", self.total["jetoracle.euler"] * per, "s/op")
        put("jetoracle.euler_calls", self.calls["jetoracle.euler"] * per,
            "calls/op")
        put("jetoracle.tqd_calls", self.calls["jetoracle.tqd"] * per,
            "calls/op")
        for kind in ("local", "global"):
            key = "localalgebra.sb_" + kind
            put(key + "_calls", self.calls[key] * per, "calls/op")
            put(key + "_s", self.total[key] * per, "s/op")
        put("localalgebra.sb_self_s", self.self_s["localalgebra.sb"] * per,
            "s/op")
        put("localalgebra.sb_size_max",
            self.maxima["localalgebra.sb_size_max"], "elements")
        put("localalgebra.sb_coeff_bits_max",
            self.maxima["localalgebra.sb_coeff_bits_max"], "bits")
        put("localalgebra.sb_repeat_ratio",
            self.sb_repeats / self.sb_calls if self.sb_calls else 0.0,
            "ratio")
        put("localalgebra.nf_calls", self.calls["localalgebra.nf"] * per,
            "calls/op")
        put("localalgebra.nf_s", self.total["localalgebra.nf"] * per, "s/op")
        put("localalgebra.member_calls",
            self.calls["localalgebra.member"] * per, "calls/op")
        put("residues.calls", self.calls["residues.call"] * per, "calls/op")
        put("residues.bound_max", self.maxima["residues.bound_max"], "power")
        put("series.calls", self.calls["series.call"] * per, "calls/op")
        put("indices.calls", self.calls["indices.call"] * per, "calls/op")
        put("projective.check_calls", self.calls["projective.check"] * per,
            "calls/op")
        put("projective.audit_calls", self.calls["projective.audit"] * per,
            "calls/op")
        put("chern.rhs_calls", self.calls["chern.rhs"] * per, "calls/op")
        put("dsl.parse_s", self.total["dsl.parse"] * per, "s/op")
        put("dsl.run_calls", self.calls["dsl.run"] * per, "calls/op")
        put("polyring.mul_calls", self.calls["polyring.mul"] * per,
            "calls/op")
        put("polyring.mul_s", self.total["polyring.mul"] * per, "s/op")
        put("polyring.mul_term_pairs",
            self.counters["polyring.mul_term_pairs"] * per, "pairs/op")
        put("polyring.addsub_calls", self.calls["polyring.addsub"] * per,
            "calls/op")
        put("polyring.addsub_s", self.total["polyring.addsub"] * per, "s/op")
        for layer in LAYERS:
            put(layer + ".self_s", self.self_s[layer] * per, "s/op")
        return m
