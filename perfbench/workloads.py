"""Seeded inputs for the four workloads, and the checks on their reports.

Every workload is a list of operations.  An operation is one command line
of `pcurv`, `rep` or `deform` on one generated JSON spec, together with
the answer the spec was built to have.  Only the spec reaches the program;
the planted answer stays here and is compared with the report.
"""

from __future__ import annotations

import random
from fractions import Fraction

from exact import (
    NumberFieldQ,
    PolyRing,
    frac_str,
    mat_add,
    mat_identity,
    mat_mul,
    mat_neg,
    mat_sub,
    mat_zero,
    pderiv,
    pstr,
)

WORKLOADS = ("scan", "analyze", "certify", "deform")

# The seed whose answers are recorded besides seed 0, to catch a change
# that only holds on the seed it was developed against.
HOLDOUT_SEED = 7

SCAN_RANGE = (2, 37)


def build(workload: str, seed: int) -> list[dict]:
    """Operations of one run: {"tool", "args", "spec", "expect"} dicts.

    "args" holds the command line after the tool name, with "{spec}" where
    the spec file's path goes.
    """
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), seed)


def _primes(lo, hi):
    return [n for n in range(max(lo, 2), hi + 1)
            if all(n % d for d in range(2, int(n ** 0.5) + 1))]


# -- scan -----------------------------------------------------------------
#
# The rank-2 Gauss hypergeometric connection with (a, b, c) = (1/2, -1/2,
# 1/2) and d/dx.  Seed 0 is the connection itself; other seeds move its
# singular points from {0, 1} to {-t, 1-t}.  A translation of x commutes
# with d/dx, so every seed asks for the same p-curvature up to an
# automorphism of GF(p)(x), and the cost of a run does not depend on the
# seed.  t avoids the residues 0, 1 and (p+1)/2 mod every odd p >= 5 of
# the range, where (x+t)(x+t-1) would lose a coefficient mod p and the
# arithmetic would get cheaper.


def _scan_shift(rng, seed):
    if seed == 0:
        return 0
    odd = _primes(5, SCAN_RANGE[1])
    while True:
        t = rng.randint(2, 10 ** 6)
        if all(t % p not in (0, 1, (p + 1) // 2) for p in odd):
            return t


def _build_scan(rng, seed):
    a, b, c = Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2)
    t = _scan_shift(rng, seed)
    den = [Fraction(t * (t - 1)), Fraction(2 * t - 1), Fraction(1)]  # (x+t)(x+t-1)
    num0 = [-a * b]
    num1 = [c - (a + b + 1) * t, -(a + b + 1)]
    spec = {
        "base": "QQ",
        "variable": "x",
        "derivation": "d/dx",
        "matrix": [["0", "1"],
                   [f"({pstr(num0)})/({pstr(den)})",
                    f"({pstr(num1)})/({pstr(den)})"]],
    }
    # p is bad exactly when it divides a coefficient denominator of the
    # reduced entries (the denominator is monic and the multiplier is 1)
    dens = 1
    for coeff in num0 + num1:
        dens *= Fraction(coeff).denominator
    lo, hi = SCAN_RANGE
    bad = [p for p in _primes(lo, hi) if dens % p == 0]
    return [{
        "tool": "pcurv",
        "args": ["scan", "{spec}", "--primes", f"{lo}..{hi}", "--jobs", "1",
                 "--seed", str(seed)],
        "spec": spec,
        "expect": {"bad": bad, "primes": _primes(lo, hi)},
    }]


def _check_scan(op, code, results):
    exp = op["expect"]
    if code != 0:
        return f"exit status {code}"
    table = results["primes"]
    if [row["prime"] for row in table] != exp["primes"]:
        return "prime table does not cover the range"
    summary = {
        "bad": sum(1 for r in table if not r["good"]),
        "vanishing": sum(1 for r in table if r["good"] and r["vanishes"]),
        "nonvanishing": sum(1 for r in table if r["good"] and not r["vanishes"]),
    }
    if summary != results["summary"]:
        return "summary disagrees with the table"
    if [r["prime"] for r in table if not r["good"]] != exp["bad"]:
        return "bad primes differ from the spec's denominators"
    return None


def _scan_answer(results):
    return {"vanishing": [r["prime"] for r in results["primes"]
                          if r["good"] and r["vanishes"]]}


# -- analyze --------------------------------------------------------------
#
# Rank-2 companions over GF(p)(q)(x) with x*d/dx.  Each last-column entry
# is q^e * u(q) * g(x) with u(0) != 0 and g over GF(p), so its Gauss
# valuation is exactly e.  Half the specs plant a pole (e < 0, so a nonzero
# p-curvature is predicted); the other half are q-integral.  The shape of
# every spec (prime, valuations, where x appears) is fixed and the seed
# draws nonzero coefficients, so a run costs about the same on every seed.
# x appears only at p <= 7: with 1/x at p = 7 one spec alone takes 5 s.

_ANALYZE_SLOTS = [  # (p, planted valuations, x in entry 1: "den", "num" or None)
    (5, (0, -1), "den"), (5, (1, 0), "den"),
    (7, (0, -1), "num"), (7, (1, 0), "num"),
    (11, (-2, 0), None), (11, (1, 1), None),
    (13, (0, -1), None), (13, (1, 0), None),
]


def _gf_poly_str(coeffs, var):
    terms = [f"{c}*{var}^{i}" if i else str(c) for i, c in enumerate(coeffs) if c]
    return "+".join(terms) if terms else "0"


def _analyze_entry(rng, p, e, xform):
    u = [rng.randrange(1, p) for _ in range(3)]
    text = f"({_gf_poly_str(u, 'q')})"
    if xform == "num":
        text += f"*({_gf_poly_str([rng.randrange(1, p), rng.randrange(1, p)], 'x')})"
    if e > 0:
        text += f"*q^{e}"
    dens = ([f"q^{-e}"] if e < 0 else []) + (["x"] if xform == "den" else [])
    return text + ("/(" + "*".join(dens) + ")" if dens else "")


def _build_analyze(rng, seed):
    ops = []
    for p, vals, xform in _ANALYZE_SLOTS:
        entries = [_analyze_entry(rng, p, e, xform if i == 1 else None)
                   for i, e in enumerate(vals)]
        ops.append({
            "tool": "pcurv",
            "args": ["analyze", "{spec}", "--seed", str(seed)],
            "spec": {"kind": "companion", "p": p, "last_column": entries},
            "expect": {"valuations": [frac_str(v) for v in vals],
                       "predicted": min(vals) < 0},
        })
    return ops


def _check_analyze(op, code, results):
    exp = op["expect"]
    if code != 0:
        return f"exit status {code}"
    if results["valuations"] != exp["valuations"]:
        return f"valuations {results['valuations']} != planted {exp['valuations']}"
    if results["prediction"]["predicted"] != exp["predicted"]:
        return "prediction differs from the planted pole"
    if not results["verification"]["confirms_prediction"]:
        return "exact p-curvature contradicts the prediction"
    return None


def _analyze_answer(results):
    return {"polygon": results["polygon"],
            "psi_nonzero": results["verification"]["psi_nonzero"]}


# -- certify --------------------------------------------------------------
#
# Known finite and infinite images, each conjugated by a seeded product of
# elementary matrices over its field.  Conjugation keeps the group and its
# order and changes the coordinate heights the arithmetic works on.

_ICOSA_FIELD = ["5", "0", "1", "-2", "1"]  # x^4 - 2x^3 + x^2 + 5


def _icosahedral(K):
    h = Fraction(1, 2)
    w = K.elem([Fraction(2, 9), Fraction(4, 9), Fraction(1, 3), Fraction(-2, 9)])
    i = K.elem([Fraction(-2, 9), Fraction(5, 9), Fraction(-1, 3), Fraction(2, 9)])
    half = K.elem([h])
    winv = K.add(w, K.neg(K.one))          # 1/phi, since w^2 = w + 1
    wi = K.mul(winv, i)
    s = [[K.mul(K.add(w, wi), half), half],
         [K.neg(half), K.mul(K.add(w, K.neg(wi)), half)]]
    hi = K.mul(half, i)
    t = [[K.add(half, hi), K.add(half, hi)],
         [K.add(K.neg(half), hi), K.add(half, K.neg(hi))]]
    return s, t


def _quaternion(K):
    i = K.elem([0, 1])
    z, o = K.zero, K.one
    return [[i, z], [z, K.neg(i)]], [[z, o], [K.neg(o), z]]


def _parabolic(K):
    z, o = K.zero, K.one
    return [[o, o], [z, o]], [[o, z], [z, o]]


def _conjugator(rng, K):
    """P and P^-1 as products of two elementary matrices over K."""
    P = Pinv = mat_identity(K, 2)
    for upper in (True, False):
        r = K.elem([rng.choice([-1, 1])] +
                   [rng.randint(-1, 1) for _ in range(K.degree - 1)])
        E = [[K.one, r], [K.zero, K.one]] if upper else [[K.one, K.zero], [r, K.one]]
        Einv = [[K.one, K.neg(r)], [K.zero, K.one]] if upper \
            else [[K.one, K.zero], [K.neg(r), K.one]]
        P = mat_mul(K, P, E)
        Pinv = mat_mul(K, Einv, Pinv)
    return P, Pinv


def _rep_spec(rng, field_doc, K, gens):
    P, Pinv = _conjugator(rng, K)
    out = {}
    for name, g in zip(("a1", "b1"), gens):
        h = mat_mul(K, mat_mul(K, P, g), Pinv)
        out[name] = [[K.strs(e) for e in row] for row in h]
    return {"field": field_doc, "surface": {"genus": 1, "punctures": 1},
            "generators": out}


def _build_certify(rng, seed):
    K4 = NumberFieldQ([Fraction(c) for c in _ICOSA_FIELD])
    Ki = NumberFieldQ([1, 0, 1])
    Q = NumberFieldQ([0, 1])
    icosa_doc = {"min_poly": _ICOSA_FIELD, "name": "w"}
    cases = [
        (icosa_doc, K4, _icosahedral(K4), [], {"kind": "finite", "order": 120}),
        (icosa_doc, K4, _icosahedral(K4), ["--projective"],
         {"kind": "finite", "order": 60}),
        ({"min_poly": ["1", "0", "1"], "name": "i"}, Ki, _quaternion(Ki), [],
         {"kind": "finite", "order": 8}),
        ("QQ", Q, _parabolic(Q), [],
         {"kind": "obstructed", "reason": "parabolic noncentral"}),
    ]
    ops = []
    for field_doc, K, gens, extra, verdict in cases:
        ops.append({
            "tool": "rep",
            "args": ["certify", "{spec}", "--seed", str(seed)] + extra,
            "spec": _rep_spec(rng, field_doc, K, gens),
            "expect": verdict,
        })
    return ops


def _check_certify(op, code, results):
    exp = op["expect"]
    verdict = results["verdict"]
    if exp["kind"] == "finite":
        if code != 0:
            return f"exit status {code}"
        if verdict != exp:
            return f"verdict {verdict} != planted {exp}"
        if results["element_count"] != exp["order"]:
            return "element count differs from the group order"
    else:
        if code != 2:
            return f"exit status {code}"
        if verdict["kind"] != "obstructed" or verdict["reason"] != exp["reason"]:
            return f"verdict {verdict} != planted {exp}"
    return None


def _certify_answer(results):
    return {"verdict": results["verdict"],
            "element_count": results["element_count"],
            "max_order_seen": results["max_order_seen"]}


# -- deform ---------------------------------------------------------------
#
# normalize: a family constant in q (one constant matrix A0 with distinct
# eigenvalues) gauged by G = I + q*Y1 + q^2*Y2 + ... with polynomial Y_k,
# so it normalizes; and one family with A0 diagonal whose second layer
# carries c/x on the diagonal, which no rational gauge removes.
# conjugate: rank-3 generator pairs over Q(i) with tau = sigma + q^m *
# (M sigma - sigma M), which a lift always conjugates back; and the
# identity against I + q*E12, which nothing does.

_NORMALIZE_SHAPES = [(2, 4, 6, 2), (2, 5, 8, 2), (3, 3, 4, 1)]  # rank, order, ansatz, deg Y
_CONJUGATE_COUNT = 9
R = PolyRing


def _const_poly_matrix(rows):
    return [[(Fraction(v),) if v else () for v in row] for row in rows]


def _nonzero(rng, bound):
    """A nonzero integer in [-bound, bound]: no entry of a seeded input
    vanishes, so every seed does the same amount of arithmetic."""
    return rng.choice([-1, 1]) * rng.randint(1, bound)


def _distinct_eigenvalue_matrix(rng, r):
    """Integer matrix whose characteristic polynomial is squarefree."""
    while True:
        A = [[_nonzero(rng, 3) for _ in range(r)] for _ in range(r)]
        if _charpoly_squarefree(A):
            return A


def _charpoly_squarefree(A):
    r = len(A)
    # characteristic polynomial by Faddeev-LeVerrier, then gcd with its
    # derivative over Q
    M = [[Fraction(0)] * r for _ in range(r)]
    coeffs = [Fraction(1)]
    ident = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    for k in range(1, r + 1):
        M = [[sum(Fraction(A[i][t]) * M[t][j] for t in range(r)) + coeffs[-1] * ident[i][j]
              for j in range(r)] for i in range(r)]
        AM = [[sum(Fraction(A[i][t]) * M[t][j] for t in range(r)) for j in range(r)]
              for i in range(r)]
        coeffs.append(-sum(AM[i][i] for i in range(r)) / k)
    f = list(reversed(coeffs))           # constant term first, monic
    g = pderiv(f)
    while g:
        f, g = g, _rem(f, g)
    return len(f) == 1


def _rem(a, b):
    a = list(a)
    while len(a) >= len(b) and a:
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] -= c * bc
        while a and a[-1] == 0:
            a.pop()
    return a


def _rand_poly(rng, deg):
    return tuple(Fraction(_nonzero(rng, 2)) for _ in range(deg + 1))


def _series_mul(A, B, m, r):
    out = [mat_zero(R, r) for _ in range(m)]
    for i, Ai in enumerate(A):
        for j, Bj in enumerate(B):
            if i + j < m:
                out[i + j] = mat_add(R, out[i + j], mat_mul(R, Ai, Bj))
    return out


def _gauged_family(A0, Ys, m, r):
    """Layers of G^-1 A0 G + G^-1 dG/dx mod q^m for G = I + sum q^k Y_k."""
    ident = mat_identity(R, r)
    G = [ident] + Ys
    N = [mat_zero(R, r)] + Ys                     # G - I
    Ginv = [ident] + [mat_zero(R, r) for _ in range(m - 1)]
    power = [ident] + [mat_zero(R, r) for _ in range(m - 1)]
    for j in range(1, m):
        power = _series_mul(power, [mat_neg(R, L) for L in N], m, r)
        Ginv = [mat_add(R, a, b) for a, b in zip(Ginv, power)]
    dG = [[[tuple(pderiv(list(e))) for e in row] for row in L] for L in G]
    inner = [mat_add(R, a, b)
             for a, b in zip(_series_mul([A0], G, m, r), dG + [mat_zero(R, r)] * m)]
    return _series_mul(Ginv, inner, m, r)


def _family_spec(layers, ansatz):
    return {
        "base": "QQ", "variable": "x", "derivation": "d/dx",
        "layers": [[[pstr(list(e)) for e in row] for row in L] for L in layers],
        "ansatz_degree": ansatz,
    }


def _build_deform(rng, seed):
    ops = []
    for r, order, ansatz, ydeg in _NORMALIZE_SHAPES:
        A0 = _const_poly_matrix(_distinct_eigenvalue_matrix(rng, r))
        Ys = [[[_rand_poly(rng, ydeg) for _ in range(r)] for _ in range(r)]
              for _ in range(order - 1)]
        layers = _gauged_family(A0, Ys, order, r)
        ops.append(_deform_op(seed, "normalize", _family_spec(layers, ansatz),
                              {"normalized": True, "obstructed_at": None}))

    # obstructed at layer 2: c/x on the diagonal of the second layer
    alpha, beta = rng.sample(range(-3, 4), 2)
    A0 = _const_poly_matrix([[alpha, 0], [0, beta]])
    B1 = [[_rand_poly(rng, 2) for _ in range(2)] for _ in range(2)]
    B2 = [[_rand_poly(rng, 1) for _ in range(2)] for _ in range(2)]
    spec = _family_spec([A0, B1, B2], 4)
    c = frac_str(Fraction(rng.choice([-1, 1]) * rng.randint(1, 5)))
    spec["layers"][2][0][0] = f"{spec['layers'][2][0][0]}+({c})/x"
    ops.append(_deform_op(seed, "normalize", spec,
                          {"normalized": False, "obstructed_at": 2}))

    Ki = NumberFieldQ([1, 0, 1])
    for _ in range(_CONJUGATE_COUNT):
        ops.append(_conjugate_op(rng, seed, Ki))
    n = 3
    ident = mat_identity(Ki, n)
    e12 = mat_zero(Ki, n)
    e12[0][1] = Ki.one
    ops.append(_deform_op(seed, "conjugate", _conjugation_spec(
        Ki, 1, [ident], [[ident, e12]]), {"conjugate": False}))
    return ops


def _gauss_int(rng, K):
    return K.elem([_nonzero(rng, 2), _nonzero(rng, 2)])


def _conjugate_op(rng, seed, K):
    n = 3
    m = rng.choice([1, 2])
    sigma = [[[_gauss_int(rng, K) for _ in range(n)] for _ in range(n)]
             for _ in range(2)]
    M = [[_gauss_int(rng, K) for _ in range(n)] for _ in range(n)]
    tau = []
    for s in sigma:
        delta = mat_sub(K, mat_mul(K, M, s), mat_mul(K, s, M))
        tau.append([s] + [mat_zero(K, n)] * (m - 1) + [delta])
    spec = _conjugation_spec(K, m, sigma, tau)
    return _deform_op(seed, "conjugate", spec, {"conjugate": True})


def _conjugation_spec(K, m, sigma, tau):
    def mat_doc(A):
        return [[K.strs(e) for e in row] for row in A]
    return {
        "field": {"min_poly": ["1", "0", "1"], "name": "i"},
        "m": m,
        "sigma": [mat_doc(s) for s in sigma],
        "tau": [[mat_doc(L) for L in stack] for stack in tau],
    }


def _deform_op(seed, command, spec, expect):
    return {"tool": "deform", "args": [command, "{spec}", "--seed", str(seed)],
            "spec": spec, "expect": expect}


def _check_deform(op, code, results):
    exp = op["expect"]
    if results["kind"] == "normalize":
        if code != (0 if exp["normalized"] else 2):
            return f"exit status {code}"
        if results["normalized"] != exp["normalized"] \
                or results["obstructed_at"] != exp["obstructed_at"]:
            return (f"normalized={results['normalized']} obstructed_at="
                    f"{results['obstructed_at']} != planted {exp}")
        return None
    if code != (0 if exp["conjugate"] else 2):
        return f"exit status {code}"
    if results["conjugate"] != exp["conjugate"]:
        return "conjugation verdict differs from the planted one"
    if exp["conjugate"]:
        return _check_lift(op["spec"], results["M"])
    return None


def _check_lift(spec, M_doc):
    """M * sigma - sigma * M == tau_m for every generator, exactly."""
    K = NumberFieldQ([Fraction(c) for c in spec["field"]["min_poly"]])

    def mat(doc):
        return [[K.elem([Fraction(c) for c in e]) for e in row] for row in doc]

    M = mat(M_doc)
    m = spec["m"]
    for s_doc, stack in zip(spec["sigma"], spec["tau"]):
        s = mat(s_doc)
        if mat_sub(K, mat_mul(K, M, s), mat_mul(K, s, M)) != mat(stack[m]):
            return "returned M does not satisfy M*sigma - sigma*M = tau_m"
    return None


def _deform_answer(results):
    if results["kind"] == "normalize":
        return {"normalized": results["normalized"],
                "obstructed_at": results["obstructed_at"],
                "gauged_layers": [g["layer"] for g in results["gauges"]]}
    return {"conjugate": results["conjugate"]}


_GENERATORS = {"scan": _build_scan, "analyze": _build_analyze,
             "certify": _build_certify, "deform": _build_deform}
_CHECKS = {"scan": _check_scan, "analyze": _check_analyze,
           "certify": _check_certify, "deform": _check_deform}
_ANSWERS = {"scan": _scan_answer, "analyze": _analyze_answer,
            "certify": _certify_answer, "deform": _deform_answer}


def check(workload: str, op: dict, code: int, results: dict | None,
          recorded: dict | None) -> str | None:
    """None when the report is right; otherwise what is wrong with it.

    `recorded` is the answer stored for this operation in expected.json,
    or None for seeds without a record.
    """
    if results is None:
        return f"no report (exit status {code})"
    problem = _CHECKS[workload](op, code, results)
    if problem is None and recorded is not None \
            and answer(workload, results) != recorded:
        problem = "answer differs from the recorded one"
    return problem


def answer(workload: str, results: dict) -> dict:
    """The part of a report that expected.json records."""
    return _ANSWERS[workload](results)
