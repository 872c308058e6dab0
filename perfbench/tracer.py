"""Spans and counts around pcurvkit's public entry points.

The benchmark installs these wrappers from outside the program: nothing in
pcurvkit knows about them.  A target is a public name, either a function
reachable from `pcurvkit` or one of its public submodules, or a method
defined on a class of pcurvkit.  A target that no longer resolves (a later
change removed or renamed it) is listed as unwrapped instead of failing
the run.

Functions are patched in every pcurvkit module that holds them, because
`from .poly import poly_gcd` binds the name in the importing module too.
Methods are patched on the class, together with any alias of the same
function (`__rmul__ = __mul__`).
"""

from __future__ import annotations

import gzip
import math
import sys
import time
from array import array

# (span name, public path).  The span name's first component is the layer.
SPAN_TARGETS = [
    ("connection.p_curvature", "p_curvature"),
    ("connection.nabla_power", "nabla_power_matrix"),
    ("connection.reduce", "ConnectionMatrix.reduce_mod"),
    ("connection.twist", "frobenius_twist_multiplier"),
    ("poly.mul", "Polynomial.__mul__"),
    ("poly.divmod", "Polynomial.__divmod__"),
    ("poly.gcd", "poly_gcd"),
    ("poly.xgcd", "poly_xgcd"),
    ("poly.irreducible", "is_irreducible_q"),
    ("ratfunc.new", "RationalFunction.__init__"),
    ("ratfunc.add", "RationalFunction.__add__"),
    ("ratfunc.mul", "RationalFunction.__mul__"),
    ("ratfunc.div", "RationalFunction.__truediv__"),
    ("ratfunc.derivative", "RationalFunction.derivative"),
    ("ratfunc.reduce_mod_p", "reduce_rational_mod_p"),
    ("linalg.matmul", "Matrix.__mul__"),
    ("linalg.rref", "Matrix.rref"),
    ("linalg.det", "Matrix.det"),
    ("numberfield.field_new", "NumberField.__init__"),
    ("numberfield.mul", "NumberFieldElement.__mul__"),
    ("numberfield.inverse", "NumberFieldElement.inverse"),
    ("intervals.enclosures", "certified_root_enclosures"),
    ("intervals.rat_mul", "RatInterval.__mul__"),
    ("intervals.rat_add", "RatInterval.__add__"),
    ("intervals.box_mul", "BoxC.__mul__"),
    ("intervals.box_add", "BoxC.__add__"),
    ("surface.certify", "certify_finiteness"),
    ("surface.element_order", "element_order"),
    ("surface.arch_check", "arch_check"),
    ("surface.nonarch_check", "nonarch_check"),
    ("valuation.newton_polygon", "newton_polygon"),
    ("valuation.predict", "predict_nonvanishing"),
    ("valuation.verify", "verify_prediction"),
    ("laurent.add", "TruncatedLaurentSeries.__add__"),
    ("laurent.mul", "TruncatedLaurentSeries.__mul__"),
    ("deformation.solve", "solve_deformation"),
    ("deformation.gauge_family", "gauge_family"),
    ("deformation.step_conjugate", "step_conjugate"),
    ("specdoc.load_spec", "specdoc.load_spec"),
    ("specdoc.connection_from_spec", "specdoc.connection_from_spec"),
    ("specdoc.companion_from_spec", "specdoc.companion_from_spec"),
    ("specdoc.family_from_spec", "specdoc.family_from_spec"),
    ("specdoc.representation_from_spec", "specdoc.representation_from_spec"),
    ("specdoc.conjugation_from_spec", "specdoc.conjugation_from_spec"),
    ("specdoc.make_report", "specdoc.make_report"),
    ("specdoc.dump_report", "specdoc.dump_report"),
    ("exprs.parse_expression", "exprs.parse_expression"),
    ("cli.pcurv", "cli.pcurv_main"),
    ("cli.rep", "cli.rep_main"),
    ("cli.deform", "cli.deform_main"),
]

# Arithmetic on GF(p) scalars, counted in a pass of its own: millions of
# calls, whose wrappers would swamp the span self times.  The class is
# found through the public API as the type of GF(2).one.
GF_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__pow__", "__neg__")


def _pcurvkit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "pcurvkit" or name.startswith("pcurvkit."))]


def resolve(path: str):
    """(owner, attribute, function) for a public path, or None.

    owner is the class for a method and None for a module-level function.
    """
    import pcurvkit

    head, _, rest = path.partition(".")
    if head.startswith("_") or rest.startswith("_") and not rest.startswith("__"):
        return None
    obj = getattr(pcurvkit, head, None)
    if obj is None:
        return None
    if isinstance(obj, type(pcurvkit)):                   # a public submodule
        fn = getattr(obj, rest, None)
        return None if fn is None or not _ours(fn) else (None, rest, fn)
    if isinstance(obj, type):
        fn = obj.__dict__.get(rest)
        if fn is None or not _ours(obj) or not callable(fn):
            return None
        return obj, rest, fn
    return (None, head, obj) if not rest and _ours(obj) else None


def _ours(obj) -> bool:
    return (getattr(obj, "__module__", "") or "").split(".")[0] == "pcurvkit"


def _patch(owner, fn, wrapper) -> None:
    if owner is not None:
        for name, value in list(vars(owner).items()):
            if value is fn:
                setattr(owner, name, wrapper)
        return
    for mod in _pcurvkit_modules():
        for name, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, name, wrapper)


class Tracer:
    """In-memory spans: name, start, end, parent span, operation id."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: array = array("H")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("i")
        self.op_id: array = array("H")
        self.nested: array = array("b")      # a span of the same name is open
        self.notes: dict[int, object] = {}
        self.op = 0
        self.unwrapped: list[str] = []
        self._stack = [-1]
        self._active: list[int] = []

    def install(self, targets=SPAN_TARGETS) -> None:
        for span_name, path in targets:
            found = resolve(path)
            if found is None:
                self.unwrapped.append(path)
                continue
            owner, _, fn = found
            _patch(owner, fn, self._wrap(span_name, fn))

    def _wrap(self, span_name, fn):
        k = len(self.names)
        self.names.append(span_name)
        self._active.append(0)
        note = _NOTES.get(span_name)
        name_id, start, end = self.name_id, self.start, self.end
        parent, op_id, nested = self.parent, self.op_id, self.nested
        stack, active, notes = self._stack, self._active, self.notes
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(k)
            parent.append(stack[-1])
            op_id.append(self.op)
            nested.append(active[k] > 0)
            end.append(0.0)
            active[k] += 1
            stack.append(idx)
            t0 = clock()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                active[k] -= 1
            if note is not None:
                try:
                    notes[idx] = note(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass    # a changed signature loses the note, not the run
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation ------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self_s, outer (inclusive) s, max_s."""
        n = len(self.name_id)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "self_s": 0.0, "s": 0.0, "max_s": 0.0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            if not self.nested[i]:
                row["s"] += dur
                row["max_s"] = max(row["max_s"], dur)
        return out

    def inside(self, outer_name: str, inner_name: str) -> int:
        """Number of inner_name spans opened while an outer_name span was."""
        if outer_name not in self.names or inner_name not in self.names:
            return 0
        ko, ki = self.names.index(outer_name), self.names.index(inner_name)
        flag = bytearray(len(self.name_id))
        count = 0
        for i in range(len(self.name_id)):
            p = self.parent[i]
            if p >= 0 and (flag[p] or self.name_id[p] == ko):
                flag[i] = 1
                if self.name_id[i] == ki:
                    count += 1
        return count

    def noted(self, name: str) -> list:
        """(duration, note) for every span of this name that carries a note."""
        if name not in self.names:
            return []
        k = self.names.index(name)
        return [(self.end[i] - self.start[i], v) for i, v in self.notes.items()
                if self.name_id[i] == k]

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for i in range(len(self.name_id)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]:.9f}\t"
                         f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op_id[i]}\n")


_NOTES = {
    # p_curvature(A, p) -> report: the prime and whether it was good
    "connection.p_curvature": lambda args, r: (args[1], bool(r.good_prime)),
    "poly.gcd": lambda args, g: g.degree() > 0,
    "surface.certify": lambda args, cert: cert.element_count,
}


class Counter:
    """Call counts of GF(p) scalar arithmetic."""

    def __init__(self):
        self.calls = 0
        self.unwrapped: list[str] = []

    def install(self) -> None:
        import pcurvkit

        gf = getattr(pcurvkit, "GF", None)
        cls = type(gf(2).one) if callable(gf) else None
        if cls is None or not isinstance(cls, type) or not _ours(cls):
            self.unwrapped.extend(f"GF(p) element.{op}" for op in GF_OPS)
            return
        for op in GF_OPS:
            fn = cls.__dict__.get(op)
            if fn is None:
                self.unwrapped.append(f"{cls.__name__}.{op}")
                continue
            setattr(cls, op, self._wrap(fn))

    def _wrap(self, fn):
        def wrapper(*args):
            self.calls += 1
            return fn(*args)
        return wrapper


def layer_metrics(summary: dict, tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run, named as in BENCHMARK.json."""
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def layer_self(prefix):
        return sum(v["self_s"] for k, v in summary.items()
                   if k.split(".")[0] == prefix)

    m = {}
    m["connection.p_curvature.calls"] = get("connection.p_curvature", "calls")
    m["connection.p_curvature.self_s"] = get("connection.p_curvature", "self_s")
    m["connection.p_curvature.max_s"] = get("connection.p_curvature", "max_s")
    m["connection.nabla_power.s"] = get("connection.nabla_power", "s")
    m["connection.reduce.s"] = get("connection.reduce", "s")
    m["connection.twist.s"] = get("connection.twist", "s")
    pc = tracer.noted("connection.p_curvature")
    m["connection.bad_primes"] = sum(1 for _, (p, good) in pc if not good)
    m["connection.p_exponent"] = _slope([(p, d) for d, (p, good) in pc
                                         if good and p >= 11])
    for short in ("mul", "divmod", "gcd"):
        m[f"poly.{short}.calls"] = get(f"poly.{short}", "calls")
        m[f"poly.{short}.self_s"] = get(f"poly.{short}", "self_s")
    gcds = tracer.noted("poly.gcd")
    m["poly.gcd.nontrivial_ratio"] = (sum(1 for _, v in gcds if v) / len(gcds)
                                      if gcds else 0.0)
    m["poly.xgcd.calls"] = get("poly.xgcd", "calls")
    m["poly.irreducible.s"] = get("poly.irreducible", "s")
    m["ratfunc.new.calls"] = get("ratfunc.new", "calls")
    m["ratfunc.self_s"] = layer_self("ratfunc")
    m["ratfunc.reduce_mod_p.s"] = get("ratfunc.reduce_mod_p", "s")
    for short in ("matmul", "rref", "det"):
        m[f"linalg.{short}.calls"] = get(f"linalg.{short}", "calls")
        m[f"linalg.{short}.self_s"] = get(f"linalg.{short}", "self_s")
    for short in ("mul", "inverse"):
        m[f"numberfield.{short}.calls"] = get(f"numberfield.{short}", "calls")
        m[f"numberfield.{short}.self_s"] = get(f"numberfield.{short}", "self_s")
    m["numberfield.field_new.s"] = get("numberfield.field_new", "s")
    m["intervals.self_s"] = layer_self("intervals")
    m["surface.certify.s"] = get("surface.certify", "s")
    elements = sum(v for _, v in tracer.noted("surface.certify"))
    products = tracer.inside("surface.certify", "linalg.matmul")
    m["surface.bfs.elements"] = elements
    m["surface.bfs.useful_ratio"] = elements / products if products else 0.0
    m["surface.element_order.calls"] = get("surface.element_order", "calls")
    m["surface.element_order.self_s"] = get("surface.element_order", "self_s")
    m["surface.arch_check.s"] = get("surface.arch_check", "s")
    m["surface.nonarch_check.s"] = get("surface.nonarch_check", "s")
    m["valuation.newton_polygon.s"] = get("valuation.newton_polygon", "s")
    m["valuation.predict.s"] = get("valuation.predict", "s")
    m["valuation.verify.s"] = get("valuation.verify", "s")
    m["laurent.self_s"] = layer_self("laurent")
    m["deformation.solve.calls"] = get("deformation.solve", "calls")
    m["deformation.solve.s"] = get("deformation.solve", "s")
    m["deformation.gauge_family.s"] = get("deformation.gauge_family", "s")
    m["deformation.step_conjugate.calls"] = get("deformation.step_conjugate", "calls")
    m["deformation.step_conjugate.s"] = get("deformation.step_conjugate", "s")
    m["specdoc.self_s"] = layer_self("specdoc")
    m["exprs.self_s"] = layer_self("exprs")
    m["cli.self_s"] = layer_self("cli")
    return m


def _slope(points):
    """Least-squares slope of log(time) against log(p); 0 under two primes."""
    pts = [(math.log(p), math.log(d)) for p, d in points if d > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx
