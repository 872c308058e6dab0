"""JSON spec parsing and report serialization."""

import json
import random
from fractions import Fraction

import pytest

from pcurvkit import GF, QQ
from pcurvkit.exprs import ParseError, parse_expression
from pcurvkit.ratfunc import FunctionField
from pcurvkit.specdoc import (
    SpecError,
    companion_from_spec,
    conjugation_from_spec,
    connection_from_spec,
    dump_report,
    family_from_spec,
    frac_str,
    load_spec,
    make_report,
    number_field_from_spec,
    parse_base,
    parse_derivation,
    parse_expression_matrix,
    parse_field_expression,
    parse_frac,
    parse_nf_element,
    representation_from_spec,
    valuation_str,
)


def test_frac_literals_round_trip():
    assert frac_str(Fraction(3, 4)) == "3/4"
    assert frac_str(5) == "5/1"
    assert parse_frac("3/4") == Fraction(3, 4)
    assert parse_frac("-7") == Fraction(-7)
    assert parse_frac(12) == Fraction(12)
    for bad in ("x", "1/0", True, 1.5, None):
        with pytest.raises(SpecError):
            parse_frac(bad)


def test_valuation_str():
    import math
    assert valuation_str(math.inf) == "inf"
    assert valuation_str(-2) == "-2/1"
    assert valuation_str(Fraction(-1, 2)) == "-1/2"


def test_parse_base():
    assert parse_base("QQ") == QQ
    assert parse_base(None) == QQ
    assert parse_base({"p": 7}) == GF(7)
    for bad in ({"p": 6}, {"p": True}, "GF(7)", 7):
        with pytest.raises(SpecError):
            parse_base(bad)


def test_expression_parsing_on_tower():
    base = FunctionField(QQ, "q")
    K = FunctionField(base, "x")
    q = K(base.gen())
    x = K.gen()
    assert parse_field_expression("q*x^2 - 1/q", K) == q * x * x - K.one / q
    assert parse_field_expression(3, K) == K(3)
    assert parse_field_expression("(x+1)^2/(x-1)", K) == (x + K.one) ** 2 / (x - K.one)


def random_element(rng, K):
    """A seeded element of K = k(x) or k(q)(x): a quotient of two random
    polynomials in the generators of the tower."""
    gens = []
    level = K
    while isinstance(level, FunctionField):
        gens.append(K(level.gen()))
        level = level.base

    def poly():
        acc = K.zero
        for _ in range(rng.randint(1, 4)):
            term = K(rng.randint(-3, 3))
            for g in gens:
                term = term * g ** rng.randint(0, 2)
            acc = acc + term
        return acc

    den = poly()
    while not den:
        den = poly()
    return poly() / den


@pytest.mark.parametrize("base", [QQ, GF(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("tower", [False, True], ids=["flat", "tower"])
def test_printed_elements_parse_back(base, tower):
    """to_str brackets a coefficient that is a sum, so what a report prints
    over k(q)(x) reads back as the same element."""
    K = FunctionField(FunctionField(base, "q"), "x") if tower \
        else FunctionField(base, "x")
    rng = random.Random(28)
    for _ in range(25):
        e = random_element(rng, K)
        assert parse_field_expression(e.to_str(), K) == e, e.to_str()


def test_printed_coefficients():
    T = FunctionField(FunctionField(GF(5), "q"), "x")
    assert parse_field_expression("(q+1)*x + 2/q", T).to_str() == \
        "(q + 1)*x + (2)/(q)"
    # coefficients in QQ and GF(p) print as before
    assert parse_field_expression("x^2/2 - 3*x + 1", FunctionField(QQ, "x")).to_str() \
        == "1/2*x^2 + -3*x + 1"
    assert parse_field_expression("(x^2 + 4)/(2*x - 1)", FunctionField(GF(5), "x")).to_str() \
        == "(3*x^2 + 2)/(x + 2)"


def oracle_entry(text, K):
    """An entry evaluated on K's own arithmetic, one normalised
    RationalFunction per operator: the reference parse_field_expression
    must equal."""
    env = {}
    level = K
    while isinstance(level, FunctionField):
        env.setdefault(level.var, K(level.gen()))
        level = level.base
    return parse_expression(text, env, K.one)


def random_entry(rng, names, depth=3):
    """A seeded entry over the variables names: sums, products, quotients,
    powers (^0 among them) and unary minus of literals and variables."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([str(rng.randint(0, 6))] + names)
    a, b = random_entry(rng, names, depth - 1), random_entry(rng, names, depth - 1)
    form = rng.choice(["({}) + ({})", "({}) - ({})", "({})*({})", "({})/({})",
                       "({})^" + str(rng.randint(0, 3)), "-({})"])
    return form.format(a, b)


ORACLE_ENTRIES = [
    "0", "x - x", "1/(x - x)", "-(x - q)", "(x + q)^0", "(1/x)^0", "(x + q + 1)^3",
    "x/3", "(q*x + 2)/(2*q)", "(x^2 - 1)/(x - 1)", "(q^2 - 1)/(q + 1)*x",
    "1/(1/(x + 1) + q)", "(x + q)/(x + q)", "(3+2*q^1+3*q^2)/(q^1*x)",
    "-(2/(x*q))^2 - x/(x + 1/q)", "(1/(x + 1) - 1/(x + 1))/(x + q)",
    "(x + 1/(q + x))*(q - x)/(2 - q)",
]


@pytest.mark.parametrize("K", [
    FunctionField(QQ, "x"), FunctionField(GF(7), "x"),
    FunctionField(FunctionField(GF(5), "q"), "x"),
    FunctionField(FunctionField(QQ, "q"), "x"),
], ids=["QQ(x)", "GF7(x)", "GF5(q)(x)", "QQ(q)(x)"])
def test_entries_match_the_field_arithmetic_oracle(K):
    """parse_field_expression keeps + - * ^ and division by a constant on
    polynomials and enters K only at a nonconstant division; the value is
    the oracle's, as an element and as printed, and an entry the oracle
    rejects is rejected with the oracle's message."""
    names = ["x", "q"] if isinstance(K.base, FunctionField) else ["x"]
    rng = random.Random(2027)
    entries = [e for e in ORACLE_ENTRIES if "q" in names or "q" not in e]
    entries += [random_entry(rng, names) for _ in range(150)]
    rejected = 0
    for text in entries:
        try:
            want = oracle_entry(text, K)
        except ParseError as exc:
            rejected += 1
            with pytest.raises(SpecError) as info:
                parse_field_expression(text, K)
            assert str(info.value.__cause__) == str(exc), text
            continue
        got = parse_field_expression(text, K)
        assert (got.field, got.num, got.den) == (K, want.num, want.den), text
        assert got.to_str() == want.to_str(), text
    assert 0 < rejected < len(entries) // 4


def test_outer_variable_wins_a_shared_name():
    """A companion spec may name q and x alike; the name then means the
    outer variable, as it did when the entry ran on the field."""
    K = FunctionField(FunctionField(GF(5), "x"), "x")
    for text in ("x^2 + 1/x", "(x + 2)/(3*x)"):
        got = parse_field_expression(text, K)
        assert got == oracle_entry(text, K) and got.den.degree() == 1


T7 = FunctionField(FunctionField(GF(7), "q"), "x")


@pytest.mark.parametrize("text, K, message, at", [
    ("1/(x-x)", FunctionField(QQ, "x"), "'1/(x-x)': division by zero", (1, 2)),
    ("x/(q-q)", T7, "'x/(q-q)': division by zero", (1, 2)),
    ("1/5", FunctionField(GF(5), "x"), "'1/5': division by zero", (1, 2)),
    ("(x+1)/(2-2)", T7, "'(x+1)/(2-2)': division by zero", (1, 6)),
    ("x^-1", T7, "'x^-1': exponent must be a nonnegative integer literal", (1, 2)),
    ("(" * 101 + "x" + ")" * 101, T7,
     "'…" + "(" * 21 + "x" + ")" * 18 + "…': nesting deeper than 100 levels", (1, 101)),
    ("x +\n (q^2 + 1)/(x - z)", T7,
     "'x +\\n (q^2 + 1)/(x - z)': unknown variable 'z'", (2, 17)),
])
def test_entry_errors_name_the_same_fault_and_position(text, K, message, at):
    """Each rejected entry gives the message, line and column it gave when
    every operator ran on the field's arithmetic."""
    with pytest.raises(SpecError) as info:
        parse_field_expression(text, K)
    assert str(info.value) == \
        f"bad expression {message} (line {at[0]}, column {at[1]})"
    assert (info.value.__cause__.line, info.value.__cause__.col) == at


def test_entries_normalise_only_at_a_nonconstant_division(monkeypatch):
    """A polynomial entry, also one divided by a constant, runs no gcd, and
    one division by a nonconstant is one primitive gcd and a handful of
    RationalFunctions."""
    from pcurvkit import ratfunc
    calls = {"primitive_gcd": 0, "poly_gcd": 0, "RationalFunction": 0}

    def counted(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    for name in ("primitive_gcd", "poly_gcd"):
        monkeypatch.setattr(ratfunc, name, counted(name, getattr(ratfunc, name)))
    monkeypatch.setattr(ratfunc.RationalFunction, "__init__", counted(
        "RationalFunction", ratfunc.RationalFunction.__init__))
    tower = FunctionField(FunctionField(GF(13), "q"), "x")
    flat = FunctionField(QQ, "x")
    for text, K in [("(2+3*q^1+3*q^2)*x", tower), ("(2+3*q^1)*x/(6-2)", tower),
                    ("(-10/1)+(-4/1)*x^1+(2/1)*x^2", flat)]:
        calls.update(dict.fromkeys(calls, 0))
        parse_field_expression(text, K)
        assert calls["primitive_gcd"] == calls["poly_gcd"] == 0, text
    calls.update(dict.fromkeys(calls, 0))
    parse_field_expression("(3+2*q^1+3*q^2)/(q^1*x)", tower)
    assert calls["primitive_gcd"] <= 1
    assert calls["RationalFunction"] <= 15


def test_tower_env_is_built_once_per_matrix(monkeypatch):
    """A matrix and a companion column build the env of their tower once,
    not once per entry, and parse each entry as parse_field_expression does."""
    from pcurvkit import specdoc
    calls = []
    real = specdoc._ring_env
    monkeypatch.setattr(specdoc, "_ring_env", lambda field: calls.append(field) or real(field))
    tower = FunctionField(FunctionField(GF(13), "q"), "x")
    rows = [["x", "(3+2*q^1+3*q^2)/(q^1*x)"], ["1", "(q+1)*x^2"]]
    M = parse_expression_matrix(rows, tower)
    assert len(calls) == 1
    assert M.rows == tuple(tuple(parse_field_expression(e, tower) for e in r) for r in rows)
    calls.clear()
    conn, p = companion_from_spec({"kind": "companion", "p": 13,
                                   "last_column": ["q/x", "x + 1", "2"]})
    assert len(calls) == 1 and conn.rank == 3 and p == 13


def test_expression_errors_become_spec_errors():
    K = FunctionField(QQ, "x")
    for bad in ("x +", "y", "1/0", "x^x", 1.5):
        with pytest.raises(SpecError):
            parse_field_expression(bad, K)


def test_expression_error_names_its_position_once():
    K = FunctionField(QQ, "x")
    with pytest.raises(SpecError) as info:
        parse_field_expression("1/(x-x)", K)
    message = str(info.value)
    assert message == "bad expression '1/(x-x)': division by zero (line 1, column 2)"
    assert message.count("line 1, column 2") == 1


def test_expression_errors_quote_a_window_around_the_fault():
    """A long entry is quoted as the 40 characters around the reported
    column, on its own line, with an ellipsis at each cut end."""
    K = FunctionField(QQ, "x")
    text = "x +\n1 +\n" + "x*" * 50 + "y" + "*x" * 50
    with pytest.raises(SpecError) as info:
        parse_field_expression(text, K)
    window = "x*" * 10 + "y" + "*x" * 10
    assert str(info.value) == (f"bad expression '…{window[:-1]}…': "
                               "unknown variable 'y' (line 3, column 101)")
    with pytest.raises(SpecError) as info:
        parse_field_expression("1/(x-x)" + " " * 60, K)
    assert str(info.value) == ("bad expression '1/(x-x)" + " " * 33 + "…': "
                               "division by zero (line 1, column 2)")
    with pytest.raises(SpecError) as info:
        parse_field_expression(list(range(1000)), K)
    assert str(info.value) == ("expected an expression string, got "
                               + repr(list(range(1000)))[:40] + "…")


def test_parse_expression_bounds_nesting():
    """Parenthesised atoms and unary signs share one bound of MAX_DEPTH
    open levels; one more is a ParseError at the offending token."""
    one = Fraction(1)
    for depth, text in [(100, "(" * 100 + "1" + ")" * 100), (100, "-" * 100 + "1"),
                        (100, "-(" * 50 + "1" + ")" * 50), (101, "(" * 101 + "1" + ")" * 101),
                        (101, "+" * 101 + "1"), (101, "(-" * 50 + "(1" + ")" * 51)]:
        if depth == 100:
            assert parse_expression(text, {}, one) == one
        else:
            with pytest.raises(ParseError) as info:
                parse_expression(text, {}, one)
            assert (info.value.line, info.value.col) == (1, 101)
            assert "nesting deeper than 100 levels" in str(info.value)


def test_exponents_are_bounded_before_any_power():
    """An exponent literal above MAX_EXPONENT is a ParseError at the
    literal, raised before any power is taken; MAX_EXPONENT itself is
    evaluated.  Through parse_field_expression it is a SpecError."""
    from pcurvkit.exprs import MAX_EXPONENT

    powers = []

    class Value:
        def __pow__(self, e):
            powers.append(e)
            return self

    for text, at in [(f"x^{MAX_EXPONENT + 1}", (1, 3)), ("x^999999999", (1, 3)),
                     ("x +\n (x ^ 123456789)", (2, 7))]:
        with pytest.raises(ParseError) as info:
            parse_expression(text, {"x": Value()}, Value())
        assert (info.value.line, info.value.col) == at
        exponent = int(text.rsplit("^", 1)[1].strip(" )"))
        assert f"exponent {exponent} exceeds {MAX_EXPONENT}" in str(info.value)
    assert powers == []
    parse_expression(f"x^{MAX_EXPONENT}", {"x": Value()}, Value())
    assert powers == [MAX_EXPONENT]
    for K in (FunctionField(QQ, "x"), T7):
        x = K.gen()
        assert parse_field_expression(f"x^{MAX_EXPONENT}", K) == x ** MAX_EXPONENT
        with pytest.raises(SpecError) as info:
            parse_field_expression("1 + x^999999999", K)
        assert str(info.value) == ("bad expression '1 + x^999999999': exponent "
                                   "999999999 exceeds 1000 (line 1, column 7)")
        assert (info.value.__cause__.line, info.value.__cause__.col) == (1, 7)


def test_parse_expression_digits_are_decimal():
    """Only decimal digits start a number: '²' passes str.isdigit but not
    int(); a non-ASCII decimal digit is a number as int() reads it."""
    K = FunctionField(QQ, "x")
    env = {"x": K.gen()}
    for text in ("2²", "²", "x²"):
        with pytest.raises(ParseError):
            parse_expression(text, env, K.one)
    assert parse_expression("1/٣", env, K.one) == K(Fraction(1, 3))


def test_parse_expression_rejects_negative_power():
    K = FunctionField(QQ, "x")
    env = {"x": K.gen()}
    with pytest.raises(ParseError):
        parse_expression("x^-1", env, K.one)
    # while explicit division is the supported spelling
    assert parse_expression("1/x", env, K.one) == K.one / K.gen()


def test_parse_derivation_forms():
    K = FunctionField(QQ, "x")
    x = K.gen()
    assert parse_derivation(None, K).u == K.one
    assert parse_derivation("d/dx", K).u == K.one
    assert parse_derivation("x*d/dx", K).u == x
    assert parse_derivation({"multiplier": "x^2"}, K).u == x * x
    for bad in ("d/dt", "x*d/dt", {"multiplier": "0"}, 7, {"mult": "x"}):
        with pytest.raises(SpecError):
            parse_derivation(bad, K)


def test_connection_from_spec():
    doc = {
        "base": "QQ",
        "variable": "x",
        "derivation": "x*d/dx",
        "matrix": [["3", "0"], ["0", "x"]],
    }
    A = connection_from_spec(doc)
    assert A.rank == 2
    assert A.derivation.u == A.field.gen()
    with pytest.raises(SpecError):
        connection_from_spec({"base": "QQ", "matrix": [["x", "1"]]})
    with pytest.raises(SpecError):
        connection_from_spec({"base": "QQ"})


def test_companion_from_spec():
    doc = {"kind": "companion", "p": 5, "last_column": ["1/q", "0"]}
    c, p = companion_from_spec(doc)
    assert p == 5 and c.rank == 2
    assert c.derivation.u == c.matrix().field.gen()
    for bad in (
        {"kind": "companion", "p": 4, "last_column": ["0"]},
        {"kind": "companion", "p": 5, "last_column": []},
        {"kind": "matrix", "p": 5, "last_column": ["0"]},
    ):
        with pytest.raises(SpecError):
            companion_from_spec(bad)


def test_family_from_spec():
    doc = {
        "base": "QQ",
        "derivation": "d/dx",
        "layers": [[["0"]], [["x"]]],
        "ansatz_degree": 4,
    }
    fam, ansatz = family_from_spec(doc)
    assert fam.order == 2 and fam.rank == 1 and ansatz == 4
    with pytest.raises(SpecError):
        family_from_spec({"base": "QQ", "layers": []})
    with pytest.raises(SpecError):
        family_from_spec({"base": "QQ", "layers": [[["0"]]], "ansatz_degree": -1})


def test_number_field_from_spec():
    K = number_field_from_spec({"min_poly": ["1", "0", "1"], "name": "i"})
    assert K.degree == 2
    assert K.gen * K.gen == K(-1)
    assert number_field_from_spec("QQ").degree == 1
    assert number_field_from_spec(None).degree == 1
    with pytest.raises(SpecError):
        number_field_from_spec({"min_poly": ["-1", "0", "1"]})  # reducible
    with pytest.raises(SpecError, match="reducible"):
        number_field_from_spec({"min_poly": ["1", "0", "2", "0", "1"]})  # (x^2+1)^2
    with pytest.raises(SpecError, match="nonconstant"):
        number_field_from_spec({"min_poly": ["3"]})
    with pytest.raises(SpecError, match="cannot certify"):
        # (x^2+1)(x^8-x-1): degree 10, no modular certificate
        number_field_from_spec(
            {"min_poly": ["-1", "-1", "-1", "-1", "0", "0", "0", "0", "1", "0", "1"]})
    with pytest.raises(SpecError):
        number_field_from_spec({"name": "w"})


def test_number_field_spec_lets_internal_errors_through(monkeypatch):
    """A ValueError raised inside the irreducibility test is a bug in the
    program, not a bad spec: it must not come back as SpecError."""
    import pcurvkit.poly as poly

    def broken(f):
        raise ValueError("mixed moduli")

    monkeypatch.setattr(poly, "_distinct_degree", broken)
    with pytest.raises(ValueError, match="mixed moduli") as exc:
        number_field_from_spec({"min_poly": ["-1", "0", "-1", "0", "1"]})  # x^4-x^2-1
    assert not isinstance(exc.value, SpecError)


def test_parse_nf_element_forms():
    K = number_field_from_spec({"min_poly": ["1", "0", "1"], "name": "i"})
    assert parse_nf_element("1/2", K) == K(Fraction(1, 2))
    assert parse_nf_element(3, K) == K(3)
    assert parse_nf_element(["0", "1"], K) == K.gen
    with pytest.raises(SpecError):
        parse_nf_element(["1"], K)  # wrong coordinate count
    with pytest.raises(SpecError):
        parse_nf_element(1.5, K)


def test_representation_from_spec_quaternion():
    doc = {
        "field": {"min_poly": ["1", "0", "1"], "name": "i"},
        "surface": {"genus": 1, "punctures": 1},
        "generators": {
            "a1": [[["0", "1"], ["0", "0"]], [["0", "0"], ["0", "-1"]]],
            "b1": [[["0", "0"], ["1", "0"]], [["-1", "0"], ["0", "0"]]],
        },
        "max_elements": 500,
    }
    rho, caps, projective = representation_from_spec(doc)
    assert rho.target == "SL2"
    assert caps == {"max_elements": 500, "max_order": 10000}
    assert projective is False
    i = rho.field.gen
    assert rho.gens["a1"].trace() == i - i  # i + (-i)


def test_representation_spec_errors():
    base = {
        "field": "QQ",
        "surface": {"genus": 1, "punctures": 1},
        "generators": {"a1": [[1, 0], [0, 1]], "b1": [[1, 0], [0, 1]]},
    }
    bad_det = dict(base, generators={"a1": [[2, 0], [0, 1]],
                                     "b1": [[1, 0], [0, 1]]})
    with pytest.raises(SpecError, match="determinant"):
        representation_from_spec(bad_det)
    with pytest.raises(SpecError):
        representation_from_spec(dict(base, surface={"genus": 0, "punctures": 0}))
    with pytest.raises(SpecError):
        representation_from_spec(dict(base, max_order=0))
    with pytest.raises(SpecError):
        representation_from_spec(dict(base, projective="yes"))


def test_conjugation_from_spec():
    doc = {
        "field": "QQ",
        "m": 1,
        "sigma": [[[1, 2], [0, 1]]],
        "tau": [[[[1, 2], [0, 1]], [[0, 4], [0, 0]]]],
    }
    sigma, tau, m = conjugation_from_spec(doc)
    assert m == 1 and len(sigma) == 1 and len(tau[0]) == 2
    with pytest.raises(SpecError):
        conjugation_from_spec(dict(doc, m=0))
    with pytest.raises(SpecError):
        conjugation_from_spec(dict(doc, tau=[]))


def test_load_spec_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(SpecError, match="cannot read"):
        load_spec(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecError, match="line 1"):
        load_spec(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(SpecError, match="object"):
        load_spec(str(arr))


def test_report_assembly_and_round_trip():
    import time
    started = time.monotonic()
    rep = make_report(["pcurv", "scan", "spec.json"], {"kind": "scan"}, started)
    assert rep["schema_version"] == 1
    assert rep["tool"] == "pcurvkit"
    assert rep["command"] == ["pcurv", "scan", "spec.json"]
    assert isinstance(rep["timing_ms"], int)
    text = dump_report(rep)
    assert json.loads(text) == rep
    # keys are sorted at every level for stable diffs
    orders = []
    json.loads(text, object_pairs_hook=lambda pairs: orders.append(
        [k for k, _ in pairs]) or dict(pairs))
    for keys in orders:
        assert keys == sorted(keys)


_REP_DOC = {
    "field": "QQ",
    "surface": {"genus": 1, "punctures": 1},
    "generators": {"a1": [[1, 1], [0, 1]], "b1": [[1, 0], [0, 1]]},
}
_CONJ_DOC = {
    "field": "QQ",
    "m": 1,
    "sigma": [[[1, 2], [0, 1]]],
    "tau": [[[[1, 2], [0, 1]], [[0, 4], [0, 0]]]],
}
_FAM_DOC = {"base": "QQ", "layers": [[["0"]], [["x"]]]}

# field -> (parse of a document holding v in that field, error message)
_INTEGER_FIELDS = {
    "base.p": (lambda v: parse_base({"p": v}),
               lambda v: f"base characteristic must be a prime, got {v!r}"),
    "companion p": (
        lambda v: companion_from_spec(
            {"kind": "companion", "p": v, "last_column": ["1/q", "0"]}),
        lambda v: f"companion spec needs a prime p, got {v!r}"),
    "m": (lambda v: conjugation_from_spec(dict(_CONJ_DOC, m=v)),
          lambda v: "conjugation spec needs an integer m >= 1"),
    "max_elements": (
        lambda v: representation_from_spec(dict(_REP_DOC, max_elements=v)),
        lambda v: "max_elements must be a positive integer"),
    "max_order": (
        lambda v: representation_from_spec(dict(_REP_DOC, max_order=v)),
        lambda v: "max_order must be a positive integer"),
    "ansatz_degree": (lambda v: family_from_spec(dict(_FAM_DOC, ansatz_degree=v)),
                      lambda v: "ansatz_degree must be a nonnegative integer"),
    "genus": (
        lambda v: representation_from_spec(
            dict(_REP_DOC, surface={"genus": v, "punctures": 1})),
        lambda v: "genus and puncture count must be nonnegative"),
    "punctures": (
        lambda v: representation_from_spec(
            dict(_REP_DOC, surface={"genus": 1, "punctures": v})),
        lambda v: "genus and puncture count must be nonnegative"),
}


@pytest.mark.parametrize("field", list(_INTEGER_FIELDS))
@pytest.mark.parametrize("value", [True, 1.5, "2"], ids=["true", "1.5", "'2'"])
def test_integer_fields_reject_booleans_floats_and_strings(field, value):
    """JSON true is not 1, 1.5 is not 1 and "2" is not 2: each integer field
    of a spec takes only a JSON integer."""
    parse, message = _INTEGER_FIELDS[field]
    with pytest.raises(SpecError) as exc:
        parse(value)
    assert str(exc.value) == message(value)
