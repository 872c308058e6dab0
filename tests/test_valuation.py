"""q-adic valuations, Newton polygons, and the nonvanishing predictor."""

import math
import random
from fractions import Fraction

import pytest

from pcurvkit import connection, specdoc
from pcurvkit import (
    GF,
    QQ,
    CompanionConnection,
    Derivation,
    FunctionField,
    NewtonPolygon,
    TruncatedLaurentSeries,
    ValuationProfile,
    newton_polygon,
    predict_nonvanishing,
    q_valuation,
    standard_tower,
    verify_prediction,
)


def test_q_valuation_plain_rational():
    K = FunctionField(QQ, "q")
    q = K.gen()
    assert q_valuation(q ** 3) == 3
    assert q_valuation(K.one / q) == -1
    assert q_valuation((q + K.one) / q ** 2) == -2
    assert q_valuation(K.zero) == math.inf


def test_q_valuation_gauss_on_tower():
    base, tower, _ = standard_tower(None)
    q = tower(base.gen())
    x = tower.gen()
    # min over numerator coefficients minus min over denominator coefficients
    f = (q * x + q ** 3) / (q ** 2 * x)
    assert q_valuation(f) == 1 - 2
    assert q_valuation(x) == 0
    assert q_valuation(tower.one / q) == -1


def test_q_valuation_rejects_junk():
    for junk in (7, TruncatedLaurentSeries(QQ, "q", -4, [1, 2])):
        with pytest.raises(TypeError):
            q_valuation(junk)


def companion(last_vals, p=5):
    """Companion connection over GF(p)(q)(x) with prescribed last column."""
    base, tower, D = standard_tower(p)
    q = tower(base.gen())
    col = []
    for v in last_vals:
        if v is None:
            col.append(tower.zero)
        else:
            col.append(q ** v if v >= 0 else tower.one / q ** (-v))
    return CompanionConnection(col, D)


def test_newton_polygon_frozen_pole_example():
    # rank 2, column (1/q, 0): points (0,-1), (2,0)
    c = companion([-1, None])
    poly = newton_polygon(c)
    assert poly.vertices == ((0, -1), (2, 0))
    assert poly.min_slope == Fraction(-1, 2)
    # the dominance bound s * (r - m) at m = 0 and m = 1
    assert [poly.min_slope * (2 - m) for m in (0, 1)] == [-1, Fraction(-1, 2)]


def test_newton_polygon_keeps_only_hull():
    # (0,0), (1,5), (3,0): the middle point lies above the hull
    c = companion([0, 5, None], p=7)
    poly = newton_polygon(c)
    assert poly.vertices == ((0, 0), (3, 0))
    assert poly.min_slope == 0


def test_newton_polygon_degenerate_single_point():
    base, tower, D = standard_tower(5)
    c = CompanionConnection([tower.zero, tower.zero], D)
    poly = newton_polygon(c)
    assert poly.vertices == ((2, 0),)
    assert poly.min_slope is None


def test_valuation_profile():
    c = companion([-2, 3])
    prof = ValuationProfile.of(c)
    assert prof.valuations == (-2, 3)
    assert prof.min_valuation == -2


def test_dominance_holds_on_random_columns():
    rng = random.Random(2468)
    for _ in range(20):
        r = rng.randint(2, 4)
        vals = [rng.randint(-3, 3) if rng.random() < 0.8 else None for _ in range(r)]
        if all(v is None for v in vals):
            vals[0] = -1
        c = companion(vals, p=7)
        poly = newton_polygon(c)
        if poly.min_slope is None:
            continue
        prof = ValuationProfile.of(c)
        s = poly.min_slope
        hit = False
        for m, v in enumerate(prof.valuations):
            if v == math.inf:
                continue
            bound = s * (r - m)
            assert v >= bound, (vals, m)
            if v == bound:
                hit = True
        assert hit  # the bound is attained somewhere on the hull


def test_predict_and_verify_pole_column():
    c = companion([-1, None])
    pred = predict_nonvanishing(c, 5)
    assert pred.predicted
    assert "negative" in pred.reason
    assert verify_prediction(c, 5)
    with pytest.raises(TypeError):
        verify_prediction(c, 5, 24)  # the ignored precision argument is gone


def test_predict_declines_integral_column():
    c = companion([1, 0])
    pred = predict_nonvanishing(c, 5)
    assert not pred.predicted


def test_predict_requires_large_prime():
    c = companion([-1, None])
    with pytest.raises(ValueError, match="p > rank"):
        predict_nonvanishing(c, 2)


def test_predict_requires_integral_multiplier():
    base, tower, _ = standard_tower(5)
    q = tower(base.gen())
    x = tower.gen()
    D = Derivation(x / q)
    c = CompanionConnection([tower.one / q, tower.zero], D)
    with pytest.raises(ValueError, match="q-pole"):
        predict_nonvanishing(c, 5)


def test_predict_requires_fixed_derivation():
    base, tower, _ = standard_tower(5)
    x = tower.gen()
    D = Derivation(x * x)  # D^p(x) != D(x) mod 5
    c = CompanionConnection([tower.one, tower.zero], D)
    with pytest.raises(ValueError, match="D\\^p"):
        predict_nonvanishing(c, 5)


def test_verify_prediction_flags_bad_prime():
    K = FunctionField(QQ, "x")
    D = Derivation.x_d_dx(K)
    c = CompanionConnection([K(Fraction(1, 5)), K.zero], D)
    with pytest.raises(ValueError, match="bad"):
        verify_prediction(c, 5)
    # psi_7 = (5^-3 - 1) A is nonzero: the constant companion has A^2 = I/5
    assert verify_prediction(c, 7) is True


def test_standard_tower_characteristics():
    base0, tower0, D0 = standard_tower(None)
    assert tower0.characteristic() == 0
    base5, tower5, D5 = standard_tower(5)
    assert tower5.characteristic() == 5
    assert D5.u == tower5.gen()


def test_a_tower_prime_of_the_long_reduction_needs_no_kernel(monkeypatch):
    """The p = 23 companion with planted valuations (-1, 1), whose whole
    psi_p takes about a second in the kernel and its reduction: its first
    specialised value is zero, and values with q kept symbolic decide
    psi_23 != 0 without the kernel."""
    kernel = []
    real = connection._kernel_report

    def spy(field, form, p):
        kernel.append(p)
        return real(field, form, p)

    monkeypatch.setattr(connection, "_kernel_report", spy)
    c, p = specdoc.companion_from_spec({
        "kind": "companion", "p": 23,
        "last_column": ["(15+13*q^1+8*q^2)/(q^1)", "(22+20*q^1+4*q^2)*q^1/(x)"]})
    assert ValuationProfile.of(c).valuations == (-1, 1)
    assert connection.p_curvature_at(c.matrix(), p)[1].is_zero()
    assert verify_prediction(c, p) is True
    assert kernel == []
