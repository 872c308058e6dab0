"""q-adic valuation analysis for companion connections over k(q)(x).

Valuations are taken at q = 0.  Rational functions in q get exact orders;
elements of a tower k(q)(x) get the Gauss valuation (minimum coefficient
valuation, x a unit).  The Newton polygon of a companion column
turns those orders into eigenvalue valuations, and the nonvanishing
predictor pairs the polygon's verdict with an exact p-curvature oracle run
over GF(p)(q)(x): values of psi_p at points, or else the whole psi_p.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .fields import GF, QQ
from .connection import (
    CompanionConnection,
    Derivation,
    frobenius_twist_multiplier,
    scan_primes,
)
from .ratfunc import FunctionField, RationalFunction

INF = math.inf


def q_valuation(f):
    """Order of vanishing at q = 0; +inf for zero; negative at poles.

    Accepts rational functions in q and elements of a tower k(q)(x) (Gauss
    valuation).
    """
    if isinstance(f, RationalFunction):
        if isinstance(f.field.base, FunctionField):
            if f.is_zero():
                return INF
            num = min(q_valuation(c) for c in f.num.coeffs if c)
            den = min(q_valuation(c) for c in f.den.coeffs if c)
            return num - den
        if f.is_zero():
            return INF
        return f.num.order_at_zero() - f.den.order_at_zero()
    raise TypeError(f"no q-adic valuation for {type(f).__name__}")


class NewtonPolygon(NamedTuple):
    """Lower convex hull of (index, valuation) points of a companion column
    together with the point (rank, 0)."""

    vertices: tuple

    def segments(self):
        out = []
        for (x1, y1), (x2, y2) in zip(self.vertices, self.vertices[1:]):
            out.append(((x1, y1), (x2, y2), Fraction(y2 - y1, x2 - x1)))
        return out

    @property
    def min_slope(self):
        """Minimal q-adic valuation among the eigenvalues.

        Eigenvalue valuations are the negatives of the hull's geometric
        slopes, so this is minus the steepest (last) one.  None when every
        column entry vanishes and the polygon degenerates to a point.
        """
        segs = self.segments()
        if not segs:
            return None
        return -segs[-1][2]


def _lower_hull(points):
    points = sorted(points)
    hull = []
    for p in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


class ValuationProfile(NamedTuple):
    valuations: tuple
    min_valuation: object

    @classmethod
    def of(cls, c: CompanionConnection) -> "ValuationProfile":
        vals = tuple(q_valuation(f) for f in c.last_column)
        finite = [v for v in vals if v != INF]
        return cls(vals, min(finite) if finite else INF)


def newton_polygon(c: CompanionConnection) -> NewtonPolygon:
    profile = ValuationProfile.of(c)
    r = c.rank
    points = [(m, v) for m, v in enumerate(profile.valuations) if v != INF]
    points.append((r, 0))
    return NewtonPolygon(tuple(_lower_hull(points)))


class NonvanishingPrediction(NamedTuple):
    predicted: bool
    reason: str
    prime: int
    rank: int
    profile: ValuationProfile


class PredictionNotApplicable(ValueError):
    """predict_nonvanishing does not apply; the message is the obstacle."""


def prediction_obstacle(c: CompanionConnection, p: int) -> str | None:
    """Why ``predict_nonvanishing(c, p)`` does not apply, or None: it needs
    p > rank, a nu-integral derivation, and a derivation fixed by the p-th
    power map."""
    if p <= c.rank:
        return f"prediction requires p > rank, got p={p}, rank={c.rank}"
    D = c.derivation
    if q_valuation(D.u) < 0:
        return "derivation is not nu-integral: its multiplier has a q-pole"
    if D.field.characteristic() == p and frobenius_twist_multiplier(D, p) != D.u:
        return "derivation does not satisfy D^p = D over the prime field"
    return None


def predict_nonvanishing(c: CompanionConnection, p: int) -> NonvanishingPrediction:
    """Negative q-valuation in the companion column predicts nonzero
    p-curvature; raises PredictionNotApplicable when ``prediction_obstacle``
    names a reason the prediction does not apply."""
    obstacle = prediction_obstacle(c, p)
    if obstacle is not None:
        raise PredictionNotApplicable(obstacle)
    r = c.rank
    profile = ValuationProfile.of(c)
    if profile.min_valuation != INF and profile.min_valuation < 0:
        return NonvanishingPrediction(
            True,
            f"entry valuation {profile.min_valuation} is negative",
            p, r, profile)
    return NonvanishingPrediction(
        False, "all entries are q-integral; no claim", p, r, profile)


def verify_prediction(c: CompanionConnection, p: int) -> bool:
    """Exact oracle for nonvanishing of psi_p over GF(p)(q)(x), decided as
    scan_primes decides one prime over a tower: a nonzero value of psi_p
    at one point proves it, at a q-specialisation or with q kept symbolic.
    A zero at a q-specialisation proves nothing, but enough zero values at
    x0 in GF(p) with q kept symbolic prove psi_p = 0, and the whole psi_p
    decides only where GF(p) has too few such points."""
    report, = scan_primes(c.matrix(), p, p)
    if not report.good_prime:
        raise ValueError(f"p = {p} is bad for this companion connection")
    return not report.vanishes


def standard_tower(p: int | None, qvar: str = "q", xvar: str = "x"):
    """(base, tower, D) with base = k(q), tower = k(q)(x), D = x*d/dx;
    k is GF(p) when p is given, else the rationals."""
    base = FunctionField(GF(p) if p is not None else QQ, qvar)
    tower = FunctionField(base, xvar)
    return base, tower, Derivation.x_d_dx(tower)
