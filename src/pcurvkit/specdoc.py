"""JSON input documents and report assembly for the command line tools.

Everything that crosses the process boundary stays exact: rationals travel
as "num/den" strings, number-field elements as coordinate arrays, and
function-field data as expression strings over the declared variables.
"""

from __future__ import annotations

import json
import math
import operator
import time
from fractions import Fraction

from .connection import CompanionConnection, ConnectionMatrix, Derivation
from .deformation import TruncatedFamily, conjugation_obstacle
from .exprs import ParseError, parse_expression
from .fields import GF, QQ, is_prime
from .linalg import Matrix
from .numberfield import NumberField
from .poly import IrreducibilityUndecided, Polynomial, is_irreducible_q
from .ratfunc import FunctionField, clear_coefficients, lowest_terms
from .surface import Representation, SurfacePresentation
from .valuation import standard_tower

TOOL_NAME = "pcurvkit"
TOOL_VERSION = "0.1.0"
SCHEMA_VERSION = 1


class SpecError(ValueError):
    """A spec document that cannot be turned into exact objects."""


def load_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise SpecError("spec must be a JSON object")
    return doc


# ---------------------------------------------------------------------------
# exact literals


def frac_str(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s) -> Fraction:
    if isinstance(s, bool):
        raise SpecError(f"bad rational literal {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        num, slash, den = s.partition("/")
        try:
            if slash:
                return Fraction(int(num.strip()), int(den.strip()))
            return Fraction(int(num.strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise SpecError(f"bad rational literal {s!r}") from exc
    raise SpecError(f"bad rational literal {s!r}")


def _integer(value, lo: int, message: str, prime: bool = False) -> int:
    """value if it is a JSON integer (a boolean is not) of at least lo, and
    a prime when asked; SpecError(message) otherwise."""
    if type(value) is not int or value < lo or prime and not is_prime(value):
        raise SpecError(message)
    return value


def valuation_str(v) -> str:
    """q-adic valuations serialize as 'inf' or 'num/den'."""
    if v == math.inf:
        return "inf"
    return frac_str(v)


# ---------------------------------------------------------------------------
# function-field specs


def parse_base(obj):
    if obj is None or obj == "QQ":
        return QQ
    if isinstance(obj, dict) and set(obj) == {"p"}:
        p = obj["p"]
        return GF(_integer(p, 2, f"base characteristic must be a prime, got {p!r}",
                           prime=True))
    raise SpecError(f'bad base field {obj!r} (use "QQ" or {{"p": N}})')


class _Entry:
    """A spec entry as exprs evaluates it: v is a polynomial over the ring
    of clear_coefficients (k[x], or k[q][x] for field k(q)(x)) until a
    division by a nonconstant enters field, and an element of field after
    it.  Lowest terms are unique, so the value does not depend on where."""

    __slots__ = ("field", "v")

    def __init__(self, field: FunctionField, v):
        self.field, self.v = field, v

    def lift(self):
        """v as an element of field."""
        v, base = self.v, self.field.base
        if type(v) is not Polynomial:
            return v
        if isinstance(base, FunctionField):
            v = Polynomial(base, [base.from_poly(c) for c in v.coeffs])
        return self.field.from_poly(v)

    def _apply(self, op, other):
        if type(other) is int:  # exprs reads a literal n as one * n
            return _Entry(self.field, op(self.v, other))
        a, b = self.v, other.v
        if type(a) is not type(b):
            a, b = self.lift(), other.lift()
        return _Entry(self.field, op(a, b))

    def __add__(self, other):
        return self._apply(operator.add, other)

    def __sub__(self, other):
        return self._apply(operator.sub, other)

    def __mul__(self, other):
        return self._apply(operator.mul, other)

    def __truediv__(self, other):
        a, b = self.v, other.v
        if type(a) is not Polynomial or type(b) is not Polynomial:
            return _Entry(self.field, self.lift() / other.lift())
        c = b
        while type(c) is Polynomial and c.degree() == 0:
            c = c.leading()
        if type(c) is not Polynomial:  # a nonzero ground constant
            return _Entry(self.field, a * (1 / c))
        return _Entry(self.field, lowest_terms(self.field, a, b))

    def __neg__(self):
        return _Entry(self.field, -self.v)

    def __pow__(self, e: int):
        return _Entry(self.field, self.v ** e)

    def __bool__(self):
        return bool(self.v)


def _ring_env(field: FunctionField):
    """(env, one) for exprs over field: 1 and each variable of the tower,
    the outermost where two levels share a name, as _Entry polynomials."""
    levels = [field]
    while isinstance(levels[-1].base, FunctionField):
        levels.append(levels[-1].base)
    one, *gens = clear_coefficients(
        field.base, [field.one.num] + [field(L.gen()).num for L in levels])[1]
    env = {L.var: _Entry(field, g) for L, g in reversed(list(zip(levels, gens)))}
    return env, _Entry(field, one)


# characters of a spec entry that an error message quotes
_EXCERPT_WIDTH = 40


def _excerpt(text: str, at: int = 0) -> str:
    """text whole when it is short, else the _EXCERPT_WIDTH characters
    around index at, with an ellipsis where it was cut."""
    lo = max(0, min(at - _EXCERPT_WIDTH // 2, len(text) - _EXCERPT_WIDTH))
    hi = lo + _EXCERPT_WIDTH
    return ("…" if lo else "") + text[lo:hi] + ("…" if hi < len(text) else "")


def _parse_entry(text, field: FunctionField, env):
    """text as an element of field, with env = _ring_env(field)."""
    if isinstance(text, int) and not isinstance(text, bool):
        return field(text)
    if not isinstance(text, str):
        raise SpecError(f"expected an expression string, got {_excerpt(repr(text))}")
    try:
        return parse_expression(text, *env).lift()
    except ParseError as exc:
        # the index of the reported column in text
        at = sum(len(line) + 1 for line in text.split("\n")[:exc.line - 1]) + exc.col - 1
        raise SpecError(f"bad expression {_excerpt(text, at)!r}: {exc}") from exc


def parse_field_expression(text, field: FunctionField):
    return _parse_entry(text, field, _ring_env(field))


def _require_rows(rows) -> None:
    if not isinstance(rows, list) or not rows \
            or not all(isinstance(r, list) and r for r in rows):
        raise SpecError("matrix must be a nonempty list of nonempty rows")


def parse_expression_matrix(rows, field: FunctionField) -> Matrix:
    _require_rows(rows)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise SpecError("matrix rows have unequal lengths")
    env = _ring_env(field)
    return Matrix(field, [[_parse_entry(e, field, env) for e in r] for r in rows])


def parse_derivation(obj, field: FunctionField) -> Derivation:
    var = field.var
    if obj is None:
        return Derivation.d_dx(field)
    if isinstance(obj, str):
        compact = obj.replace(" ", "")
        if compact == f"d/d{var}":
            return Derivation.d_dx(field)
        if compact == f"{var}*d/d{var}":
            return Derivation.x_d_dx(field)
        raise SpecError(
            f"unknown derivation {obj!r}; use 'd/d{var}', '{var}*d/d{var}', "
            f"or {{\"multiplier\": <expr>}}")
    if isinstance(obj, dict) and set(obj) == {"multiplier"}:
        u = parse_field_expression(obj["multiplier"], field)
        if not u:
            raise SpecError("derivation multiplier must be nonzero")
        return Derivation(u)
    raise SpecError(f"bad derivation {obj!r}")


def connection_from_spec(doc: dict) -> ConnectionMatrix:
    if doc.get("kind") not in (None, "matrix"):
        raise SpecError(
            f'scan expects a plain connection spec, got kind {doc.get("kind")!r}')
    base = parse_base(doc.get("base"))
    var = doc.get("variable", "x")
    field = FunctionField(base, var)
    if "matrix" not in doc:
        raise SpecError('connection spec needs a "matrix" entry')
    M = parse_expression_matrix(doc["matrix"], field)
    if M.nrows != M.ncols:
        raise SpecError("connection matrix must be square")
    D = parse_derivation(doc.get("derivation"), field)
    return ConnectionMatrix(M, D)


def companion_from_spec(doc: dict):
    """Companion connection over GF(p)(q)(x); returns (connection, p).

    Whether the nonvanishing prediction applies to it is checked once, by
    valuation.predict_nonvanishing (pcurv analyze exits 65 when not).
    """
    if doc.get("kind") != "companion":
        raise SpecError('analyze expects a spec with "kind": "companion"')
    p = doc.get("p")
    _integer(p, 2, f"companion spec needs a prime p, got {p!r}", prime=True)
    qvar = doc.get("qvar", "q")
    xvar = doc.get("variable", "x")
    _, tower, D = standard_tower(p, qvar, xvar)
    if doc.get("derivation") is not None:
        D = parse_derivation(doc["derivation"], tower)
    col = doc.get("last_column")
    if not isinstance(col, list) or not col:
        raise SpecError('companion spec needs a nonempty "last_column"')
    env = _ring_env(tower)
    entries = [_parse_entry(e, tower, env) for e in col]
    return CompanionConnection(entries, D), p


def family_from_spec(doc: dict):
    """Truncated q-family of connections; returns (family, ansatz_degree|None)."""
    base = parse_base(doc.get("base"))
    var = doc.get("variable", "x")
    field = FunctionField(base, var)
    D = parse_derivation(doc.get("derivation"), field)
    layers_doc = doc.get("layers")
    if not isinstance(layers_doc, list) or not layers_doc:
        raise SpecError('family spec needs a nonempty "layers" list')
    layers = [parse_expression_matrix(L, field) for L in layers_doc]
    if layers[0].nrows != layers[0].ncols:
        raise SpecError("family layers must be square matrices")
    try:
        fam = TruncatedFamily(D, layers)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    ansatz = doc.get("ansatz_degree")
    if ansatz is not None:
        _integer(ansatz, 0, "ansatz_degree must be a nonnegative integer")
    return fam, ansatz


# ---------------------------------------------------------------------------
# number-field specs


def number_field_from_spec(obj) -> NumberField:
    if obj is None or obj == "QQ":
        return NumberField(Polynomial(QQ, [Fraction(0), Fraction(1)]), "t")
    if not isinstance(obj, dict) or "min_poly" not in obj:
        raise SpecError(
            'field spec needs {"min_poly": [c0, ..., 1]} coefficients')
    coeffs = [parse_frac(c) for c in obj["min_poly"]]
    name = obj.get("name", "w")
    f = Polynomial(QQ, coeffs)
    if f.degree() < 1:
        raise SpecError("bad number field: min_poly must be nonconstant")
    try:
        irreducible = is_irreducible_q(f)
    except IrreducibilityUndecided as exc:
        raise SpecError(f"cannot certify the field polynomial: {exc}") from exc
    if not irreducible:
        raise SpecError(f"bad number field: {f.monic()} is reducible over Q")
    return NumberField(f, name, check=False)


def parse_nf_element(obj, K: NumberField):
    """A 'num/den' string, an integer, or a coordinate array of them."""
    if isinstance(obj, (str, int)):
        return K(parse_frac(obj))
    if isinstance(obj, list):
        if len(obj) != K.degree:
            raise SpecError(
                f"coordinate array of length {len(obj)} for a degree "
                f"{K.degree} field")
        return K.element([parse_frac(c) for c in obj])
    raise SpecError(f"bad field element {obj!r}")


def nf_element_coords(e) -> list[str]:
    return [frac_str(c) for c in e.coords]


def parse_nf_matrix(rows, K: NumberField, size: int | None = None) -> Matrix:
    _require_rows(rows)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise SpecError("matrix must be square")
    if size is not None and n != size:
        raise SpecError(f"expected a {size}x{size} matrix")
    return Matrix(K, [[parse_nf_element(e, K) for e in r] for r in rows])


def representation_from_spec(doc: dict):
    """(Representation, caps dict, projective flag) from a JSON document."""
    K = number_field_from_spec(doc.get("field"))
    surf = doc.get("surface")
    if not isinstance(surf, dict):
        raise SpecError('representation spec needs "surface": {genus, punctures}')
    genus, punctures = (
        _integer(surf.get(key, 0), 0, "genus and puncture count must be nonnegative")
        for key in ("genus", "punctures"))
    try:
        pres = SurfacePresentation(genus, punctures)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    target = doc.get("target", "SL2")
    gens_doc = doc.get("generators")
    if not isinstance(gens_doc, dict) or not gens_doc:
        raise SpecError('representation spec needs a "generators" mapping')
    gens = {}
    for name, rows in gens_doc.items():
        gens[name] = parse_nf_matrix(rows, K, size=2)
    try:
        rho = Representation(K, pres, gens, target)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    caps = {
        key: _integer(doc.get(key, 10000), 1, f"{key} must be a positive integer")
        for key in ("max_elements", "max_order")
    }
    projective = doc.get("projective", False)
    if not isinstance(projective, bool):
        raise SpecError("projective must be a boolean")
    return rho, caps, projective


def conjugation_from_spec(doc: dict):
    """(sigma generator matrices, tau layer stacks, m) over a number field."""
    m = _integer(doc.get("m"), 1, "conjugation spec needs an integer m >= 1")
    K = number_field_from_spec(doc.get("field"))
    sigma_doc = doc.get("sigma")
    tau_doc = doc.get("tau")
    if not isinstance(sigma_doc, list) or not sigma_doc:
        raise SpecError('conjugation spec needs "sigma" generator matrices')
    if not isinstance(tau_doc, list) or len(tau_doc) != len(sigma_doc):
        raise SpecError('"tau" must list one layer stack per sigma generator')
    sigma = [parse_nf_matrix(rows, K) for rows in sigma_doc]
    tau = []
    for s, stack in zip(sigma, tau_doc):
        if not isinstance(stack, list) or not stack:
            raise SpecError("each tau entry must be a list of layer matrices")
        tau.append([parse_nf_matrix(rows, K, size=s.nrows) for rows in stack])
    obstacle = conjugation_obstacle(sigma, tau, m)
    if obstacle is not None:
        raise SpecError(obstacle)
    return sigma, tau, m


# ---------------------------------------------------------------------------
# report assembly


def ratfunc_matrix_strs(M: Matrix) -> list[list[str]]:
    return [[e.to_str() for e in r] for r in M.rows]


def nf_matrix_coords(M: Matrix) -> list[list[list[str]]]:
    return [[nf_element_coords(e) for e in r] for r in M.rows]


def make_report(command: list[str], results: dict, started: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": TOOL_NAME,
        "version": TOOL_VERSION,
        "command": list(command),
        "results": results,
        "timing_ms": int((time.monotonic() - started) * 1000),
    }


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2)
