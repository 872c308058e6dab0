"""Surface-group words, SL2 trace machinery, and finiteness certification.

Traces do all the heavy lifting: the fundamental identity
tr(xy) + tr(xy^{-1}) = tr(x) tr(y) drives both the Fricke rewriting engine
(closed-form trace polynomials for the rank-2 free group) and the
obstruction checks.  Certification itself never trusts a float: integrality
of traces is decided through minimal polynomials, the archimedean bounds
through Sturm counts on those same polynomials, and the final verdict
through exhaustive closure of the exact matrix image with element-order
tests along the way.

The closure runs on cleared coordinates, the form a number field element
is stored in: a 2x2 matrix is the integer coordinates of its four entries
over one positive denominator, reduced by their gcd, so the pair is
canonical and is its own hash key.  Right multiplication by a generator
is linear over QQ on each row, so by restriction of scalars it is one
integer matrix, built once per generator and inverse
(``NumberField.right_product_map``), and a step of the closure is integer
dot products and one gcd.  An element is stepped by every generator and
inverse but the inverse of the letter that reached it, a step that would
land on its parent.  Inverse letters stay: a finite image needs none,
since each generator's inverse is a positive power of it, but an infinite
one may hold short words of infinite order only with them (a1*b1^-1 for
two upper triangular generators with the same diagonal).  No ``Matrix``
is built: a new element's order comes from its four entries, through
t = a + d and delta = ad - bc, by one rule for SL2, GL2, PSL2 and PGL2
(``_order_rule``) and one cache per closure.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from operator import mul, neg
from typing import NamedTuple

from .linalg import Matrix
from .numberfield import (
    NumberField,
    NumberFieldElement,
    is_root_of_unity,
    minimal_polynomial,
    root_of_unity_candidates,
)
from .poly import count_real_roots_closed


# ---------------------------------------------------------------------------
# words


class Word:
    """Freely reduced word: tuple of (generator name, +1|-1)."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = _free_reduce(tuple(letters))

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse 'a*b^-1*a' (also accepts whitespace separation and ^k).
        The bare token '1' is the identity, matching to_str()."""
        letters = []
        for token in text.replace("*", " ").split():
            if token == "1":
                continue
            if "^" in token:
                name, _, expstr = token.partition("^")
                try:
                    exp = int(expstr)
                except ValueError:
                    raise ValueError(f"bad exponent in {token!r}") from None
            else:
                name, exp = token, 1
            if not name:
                raise ValueError(f"bad word token {token!r}")
            sign = 1 if exp >= 0 else -1
            letters.extend([(name, sign)] * abs(exp))
        return cls(letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def names(self):
        return {g for g, _ in self.letters}

    def to_str(self) -> str:
        if not self.letters:
            return "1"
        return "*".join(g if e == 1 else f"{g}^-1" for g, e in self.letters)

    def __repr__(self):
        return self.to_str()


def _free_reduce(letters):
    out = []
    for g, e in letters:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def reduce_word(w) -> Word:
    return Word(w.letters if isinstance(w, Word) else w)


def _cyclic_reduce(letters):
    letters = _free_reduce(letters)
    while len(letters) >= 2 and letters[0][0] == letters[-1][0] \
            and letters[0][1] == -letters[-1][1]:
        letters = letters[1:-1]
    return letters


# ---------------------------------------------------------------------------
# presentations


class SurfacePresentation:
    """Genus-g surface with n punctures; generators a_i, b_i, c_j.

    The defining relation multiplies the commutators [a_i, d_i] with
    d_i = b_i^{-1} and then the puncture loops c_1..c_n.  With punctures the
    group is free of rank 2g + n - 1 (the relation solves for c_n).
    """

    def __init__(self, genus: int, punctures: int):
        if genus < 0 or punctures < 0:
            raise ValueError("genus and puncture count must be nonnegative")
        if genus == 0 and punctures == 0:
            raise ValueError("the sphere group is trivial; nothing to certify")
        self.genus = genus
        self.punctures = punctures

    def generator_names(self) -> list[str]:
        names = []
        for i in range(1, self.genus + 1):
            names.extend((f"a{i}", f"b{i}"))
        names.extend(f"c{j}" for j in range(1, self.punctures + 1))
        return names

    def free_generator_names(self) -> list[str]:
        names = self.generator_names()
        return names[:-1] if self.punctures >= 1 else names

    def relation_word(self) -> Word:
        letters = []
        for i in range(1, self.genus + 1):
            a, b = f"a{i}", f"b{i}"
            letters.extend([(a, 1), (b, -1), (a, -1), (b, 1)])
        for j in range(1, self.punctures + 1):
            letters.append((f"c{j}", 1))
        return Word(letters)

    def last_puncture_word(self) -> Word:
        """c_n expressed in the other generators via the relation."""
        if self.punctures == 0:
            raise ValueError("closed surface has no puncture loops")
        return Word(self.relation_word().letters[:-1]).inverse()

    def __repr__(self):
        return f"Surface(genus={self.genus}, punctures={self.punctures})"


def simple_loop_products(pres: SurfacePresentation) -> list[Word]:
    """Products of nonempty subsets of the optimal sequence in cyclic order,
    one representative per rotation class."""
    seq = pres.generator_names()
    seen = set()
    out = []
    for size in range(1, len(seq) + 1):
        for subset in itertools.combinations(range(len(seq)), size):
            letters = tuple((seq[i], 1) for i in subset)
            rotations = {letters[k:] + letters[:k] for k in range(len(letters))}
            key = min(rotations)
            if key not in seen:
                seen.add(key)
                out.append(Word(key))
    return out


# ---------------------------------------------------------------------------
# representations


class Representation:
    """Exact generator matrices over a number field, SL2 or GL2 target."""

    def __init__(self, field: NumberField, pres: SurfacePresentation,
                 generators: dict, target: str = "SL2"):
        if target not in ("SL2", "GL2"):
            raise ValueError("target must be SL2 or GL2")
        self.field = field
        self.presentation = pres
        self.target = target
        names = pres.generator_names()
        free_names = pres.free_generator_names()
        self._inverses = {}
        self._trace_min_polys = {}
        gens = {}
        for name, mat in generators.items():
            if name not in names:
                raise ValueError(f"unknown generator {name!r}")
            if not isinstance(mat, Matrix):
                mat = Matrix(field, mat)
            if mat.shape() != (2, 2):
                raise ValueError(f"generator {name} is not 2x2")
            gens[name] = mat
        if set(gens) == set(free_names) and pres.punctures >= 1:
            self.gens = gens
            last = names[-1]
            self.gens[last] = self._evaluate_letters(
                pres.last_puncture_word().letters)
        elif set(gens) == set(names):
            self.gens = gens
        else:
            raise ValueError(
                f"need matrices for {free_names} (free) or {names} (all)")
        for name in names:
            det = _det(field, self.gens[name].rows)
            if target == "SL2" and det != field.one:
                raise ValueError(f"generator {name} has determinant {det}, not 1")
            if target == "GL2" and not det:
                raise ValueError(f"generator {name} is singular")
        if pres.punctures == 0:
            rel = self.evaluate(pres.relation_word())
            if rel != Matrix.identity(field, 2):
                raise ValueError("surface relation does not map to the identity")

    def _inverse(self, name: str) -> Matrix:
        """The inverse of a generator, adj(M) / det(M): the adjugate alone
        when det(M) = 1, as in SL2."""
        if name not in self._inverses:
            K = self.field
            (a, b), (c, d) = rows = self.gens[name].rows
            det = _det(K, rows)
            if not det:
                raise ValueError(f"generator {name} is singular")
            adj = Matrix(K, [[d, -b], [-c, a]])
            self._inverses[name] = adj if det == K.one else adj.scale(det.inverse())
        return self._inverses[name]

    def _trace_min_poly(self, w: Word):
        """Minimal polynomial over Q of the trace of rho(w), memoized by the
        reduced word, so the trace checks compute it once per loop."""
        w = reduce_word(w)
        if w not in self._trace_min_polys:
            self._trace_min_polys[w] = minimal_polynomial(self.evaluate(w).trace())
        return self._trace_min_polys[w]

    def _evaluate_letters(self, letters) -> Matrix:
        """The product of the letters' matrices, starting from the first
        letter's, not from a product with the identity."""
        acc = None
        for g, e in letters:
            if g not in self.gens:
                raise ValueError(f"word uses unknown generator {g!r}")
            m = self.gens[g] if e == 1 else self._inverse(g)
            acc = m if acc is None else acc * m
        return Matrix.identity(self.field, 2) if acc is None else acc

    def evaluate(self, w: Word) -> Matrix:
        return self._evaluate_letters(reduce_word(w).letters)

    def bfs_generator_names(self) -> list[str]:
        if self.presentation.punctures >= 1:
            return self.presentation.free_generator_names()
        return self.presentation.generator_names()


def conjugate_representation(rho: Representation, field_map) -> Representation:
    """Apply a field automorphism entrywise to every generator."""
    gens = {
        name: mat.map_entries(field_map)
        for name, mat in rho.gens.items()
        if name in rho.presentation.free_generator_names()
        or rho.presentation.punctures == 0
    }
    return Representation(rho.field, rho.presentation, gens, rho.target)


# ---------------------------------------------------------------------------
# Fricke trace polynomials


class TracePolynomial:
    """Integer polynomial in X = tr(a), Y = tr(b), Z = tr(ab)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for key, c in (terms or {}).items():
            if c:
                clean[key] = c
        self.terms = clean

    @classmethod
    def const(cls, c: int):
        return cls({(0, 0, 0): c})

    @classmethod
    def var(cls, which: str):
        idx = {"X": (1, 0, 0), "Y": (0, 1, 0), "Z": (0, 0, 1)}[which]
        return cls({idx: 1})

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return TracePolynomial(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) - c
        return TracePolynomial(out)

    def __neg__(self):
        return TracePolynomial({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for (i1, j1, k1), c1 in self.terms.items():
            for (i2, j2, k2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2, k1 + k2)
                out[key] = out.get(key, 0) + c1 * c2
        return TracePolynomial(out)

    def evaluate(self, x, y, z, one):
        acc = one - one
        for (i, j, k), c in self.terms.items():
            acc = acc + (x ** i) * (y ** j) * (z ** k) * c
        return acc

    def __eq__(self, other):
        if not isinstance(other, TracePolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (i, j, k) in sorted(self.terms, reverse=True):
            c = self.terms[(i, j, k)]
            mono = "".join(
                (f"{v}^{e}" if e > 1 else v) for v, e in
                (("X", i), ("Y", j), ("Z", k)) if e)
            if mono:
                lead = {1: "", -1: "-"}.get(c, f"{c}*")
                bits.append(f"{lead}{mono}")
            else:
                bits.append(str(c))
        return " + ".join(bits).replace("+ -", "- ")


_FRICKE_MEMO: dict = {}


def _neg_count(letters) -> int:
    return sum(1 for _, e in letters if e == -1)


def _fricke_key(letters):
    """Canonical form under rotation and inversion, preferring the fewest
    inverse letters (that preference is what makes the rewriting terminate)."""
    letters = _cyclic_reduce(letters)
    if not letters:
        return letters
    inv = tuple((g, -e) for g, e in reversed(letters))
    candidates = [letters[k:] + letters[:k] for k in range(len(letters))]
    candidates += [inv[k:] + inv[:k] for k in range(len(inv))]
    return min(candidates, key=lambda c: (_neg_count(c), c))


def fricke_polynomial(w: Word) -> TracePolynomial:
    """P_w with tr(rho(w)) = P_w(tr a, tr b, tr ab) for every SL2 pair.

    Computed by the trace-identity rewriting: strip inverse letters via
    tr(u g^{-1}) = tr(u) tr(g) - tr(u g), then split repeated letters via
    tr(g u g v) = tr(gu) tr(gv) - tr(u v^{-1}).  Both rules shorten the
    (length, inverse-count) measure, so the recursion grounds out at the
    base words 1, a, b, ab.  Results are memoized on the rotation-and-
    inversion canonical form.
    """
    w = reduce_word(w)
    bad = w.names() - {"a", "b"}
    if bad:
        raise ValueError(f"Fricke polynomials live on letters a, b; got {bad}")
    return _fricke(w.letters)


def _fricke(letters) -> TracePolynomial:
    key = _fricke_key(letters)
    cached = _FRICKE_MEMO.get(key)
    if cached is not None:
        return cached
    result = _fricke_uncached(key)
    _FRICKE_MEMO[key] = result
    return result


def _fricke_uncached(w) -> TracePolynomial:
    X = TracePolynomial.var("X")
    Y = TracePolynomial.var("Y")
    Z = TracePolynomial.var("Z")
    if len(w) == 0:
        return TracePolynomial.const(2)
    if len(w) == 1:
        return X if w[0][0] == "a" else Y
    neg = next((idx for idx, (_, e) in enumerate(w) if e == -1), None)
    if neg is not None:
        # rotate the inverse letter to the end: w ~ u * g^{-1}
        rot = w[neg + 1:] + w[:neg + 1]
        u, (g, _) = rot[:-1], rot[-1]
        tr_g = X if g == "a" else Y
        return _fricke(u) * tr_g - _fricke(u + ((g, 1),))
    # all positive letters now
    if len(w) == 2 and w[0][0] != w[1][0]:
        return Z  # ab or ba, same rotation class
    for g in ("a", "b"):
        positions = [idx for idx, (name, _) in enumerate(w) if name == g]
        if len(positions) >= 2:
            i, j = positions[0], positions[1]
            rot = w[i:] + w[:i]
            jj = j - i
            u = rot[1:jj]
            v = rot[jj + 1:]
            v_inv = tuple((name, -e) for name, e in reversed(v))
            head = ((g, 1),)
            return (_fricke(head + u) * _fricke(head + v)
                    - _fricke(u + v_inv))
    raise AssertionError(f"unreachable word shape {w!r}")


# ---------------------------------------------------------------------------
# element order


class FiniteOrder(NamedTuple):
    n: int


class InfiniteOrder(NamedTuple):
    reason: str


def _power_traces(t, delta):
    """tr M, tr M^2, ... for a 2x2 matrix M over a number field with
    t = tr M and delta = det M, by t_j = t*t_{j-1} - delta*t_{j-2} from
    t_0 = 2 and t_1 = t (Cayley-Hamilton)."""
    K = t.field
    s, prev, minus_delta = t, K(2), -delta
    while True:
        yield s
        s, prev = K.dot((t, minus_delta), (s, prev)), s


def _eigenvalue_power_order(t: NumberFieldElement, bound_degree: int):
    """Order of a root lam of X^2 - t*X + 1 when it is a root of unity.

    lam^k + lam^-k = tr M^k for M of trace t and determinant 1 is 2 exactly
    when lam^k = 1, as it is 2 + (lam^k - 1)^2 / lam^k.  Returns the
    smallest such k, or None past the orders of degree 2 * bound_degree.
    """
    two = t.field(2)
    n_max = root_of_unity_candidates(2 * bound_degree)[-1]
    for k, s in zip(range(1, n_max + 1), _power_traces(t, t.field.one)):
        if s == two:
            return k
    return None


def element_order(M: Matrix):
    """FiniteOrder(n) / InfiniteOrder(reason) for a determinant-1 matrix,
    by the certification closure's rule (``_order_rule``): central elements
    have order 1 or 2; trace = +-2 otherwise means a noncentral parabolic
    (infinite); all remaining cases reduce to whether an eigenvalue is a
    root of unity, decided exactly."""
    K = M.ring
    if _det(K, M.rows) != K.one:
        raise ValueError("element_order requires determinant 1")
    return _closure_orders(K, False, False)(*M.rows[0], *M.rows[1])


def _det(K: NumberField, rows):
    """ad - bc for the rows (a, b), (c, d), as one dot product."""
    (a, b), (c, d) = rows
    return K.dot((a, b), (d, -c))


def _order_rule(t, delta, k, scalar, projective):
    """The order of a 2x2 matrix M over a number field from t = tr M,
    delta = det M and k, the order of delta (1 projectively), with scalar
    telling whether M is scalar.

    Projectively the order is that of the eigenvalue ratio, a root of
    X^2 - sX + 1 with s = t^2/delta - 2.  Otherwise det M^k = 1 and s is
    tr M^k (``_power_traces``); the order of M is k times that of M^k.
    s = +-2 makes M^k, or M projectively, scalar when M is scalar or its
    eigenvalues differ, that is t^2 != 4*delta, and a noncentral parabolic
    (infinite) otherwise.  Any other s is decided by
    ``_eigenvalue_power_order``."""
    two = t.field(2)
    if projective:
        s = t * t / delta - two
    else:
        s = next(itertools.islice(_power_traces(t, delta), k - 1, None))
    if s == two or s == -two:
        if not scalar and t * t == 4 * delta:
            return InfiniteOrder("parabolic noncentral")
        return FiniteOrder(k if s == two else 2 * k)
    n = _eigenvalue_power_order(s, minimal_polynomial(s).degree())
    if n is None:
        return InfiniteOrder("eigenvalue ratio not a root of unity" if projective
                             else "eigenvalue not a root of unity")
    return FiniteOrder(k * n)


# ---------------------------------------------------------------------------
# obstruction checks


class NonarchReport(NamedTuple):
    passed: bool
    witness: Word | None
    witness_trace_min_poly: object | None


def nonarch_check(rho: Representation, words) -> NonarchReport:
    """Every listed trace must be an algebraic integer."""
    for w in words:
        mp = rho._trace_min_poly(w)
        if mp.den != 1:  # some coefficient is not an integer
            return NonarchReport(False, reduce_word(w), mp)
    return NonarchReport(True, None, None)


class ArchReport(NamedTuple):
    passed: bool
    witness: Word | None


def arch_check(rho: Representation, words) -> ArchReport:
    """Every embedding of every listed trace must land in [-2, 2].

    Decided exactly: all conjugates of tr are real and in [-2, 2] iff its
    minimal polynomial, irreducible and so squarefree, has as many roots in
    [-2, 2] as its degree (a Sturm count).  The witness is the first listed
    word that fails.
    """
    for w in words:
        mp = rho._trace_min_poly(w)
        if count_real_roots_closed(mp, Fraction(-2), Fraction(2)) != mp.degree():
            return ArchReport(False, reduce_word(w))
    return ArchReport(True, None)


# ---------------------------------------------------------------------------
# finiteness certification


class Finite(NamedTuple):
    order: int


class Obstructed(NamedTuple):
    witness: str
    reason: str


class Inconclusive(NamedTuple):
    reason: str


class FinitenessCertificate(NamedTuple):
    verdict: object
    element_count: int
    max_order_seen: int
    nonarch_passed: bool | None
    arch_passed: bool | None
    det_orders: dict | None


def _cleared_entries(K: NumberField, coords, den):
    """The four entries, row by row, of the 2x2 matrix whose cleared
    coordinates over K are (coords, den): entry (i, k) is block 2i + k."""
    d = K.degree
    return [NumberFieldElement(K, coords[b * d:(b + 1) * d], den) for b in range(4)]


def _closure_key(K: NumberField, gl2: bool, projective: bool):
    """The key of a closure element (coords, den) in its cleared form.  The
    pair is canonical, so it is its own key.  Projectively an SL2 element is
    identified with its negative only, the one other scalar of determinant
    1: its first nonzero coordinate is made positive.  A GL2 element is
    scaled so that its first nonzero entry is 1, which identifies it with
    every scalar multiple over K."""
    if not projective:
        return lambda coords, den: (coords, den)
    if not gl2:
        def sign_key(coords, den):
            if next(c for c in coords if c) > 0:
                return coords, den
            return tuple(map(neg, coords)), den
        return sign_key

    def scaled_key(coords, den):
        entries = _cleared_entries(K, coords, den)
        inv = next(e for e in entries if e).inverse()
        return tuple(e * inv for e in entries)
    return scaled_key


def _closure_orders(K: NumberField, gl2: bool, projective: bool):
    """order_of(a, b, c, d): the order of the closure element [[a, b], [c,
    d]] over K by ``_order_rule``, with one cache for the closure.  A
    noncentral order depends only on (t, delta), and projectively on (t^2,
    delta), so it is cached by that key; a scalar element is not, since a
    parabolic shares its key.  In GL2 the order of delta is cached too,
    under delta itself; it is finite, since certification gets this far
    only when every generator's determinant is a root of unity.  Words in
    SL2 generators have determinant 1, so that path never computes it."""
    cache = {}

    def order_of(a, b, c, d):
        t = a + d
        delta = _det(K, ((a, b), (c, d))) if gl2 else K.one
        k = 1
        if gl2 and not projective:
            if delta not in cache:
                cache[delta] = is_root_of_unity(delta)
            k = cache[delta]
        if not b and not c and a == d:
            return _order_rule(t, delta, k, True, projective)
        key = (t * t if projective else t, delta)
        if key not in cache:
            cache[key] = _order_rule(t, delta, k, False, projective)
        return cache[key]

    return order_of


# (order, largest element order) of the exceptional finite subgroups:
# binary tetrahedral, octahedral, icosahedral in SL2(C); A4, S4, A5 in PGL2(C)
_KLEIN_SL2 = {(24, 6), (48, 8), (120, 10)}
_KLEIN_PGL2 = {(12, 3), (24, 4), (60, 5)}


def _check_klein(n: int, max_order: int, projective: bool) -> None:
    """Raise unless (n, max_order) fits a finite subgroup of SL2(C) (cyclic,
    binary dihedral of order 4m with m >= 2, binary polyhedral) or of
    PGL2(C) (cyclic, dihedral of order 2m with m >= 2, A4, S4, A5).  A
    mismatch is an internal bug.  Finite subgroups of GL2(C) include every
    scalar extension of these, so GL2 images are left unchecked."""
    m = max_order
    if projective:
        ok = n == m or (n == 2 * m and m >= 2) or (n, m) in _KLEIN_PGL2
    else:
        ok = n == m or (n == 2 * m and m >= 4 and m % 2 == 0) or (n, m) in _KLEIN_SL2
    if not ok:
        group = "PGL2(C)" if projective else "SL2(C)"
        raise AssertionError(
            f"closure of order {n} with largest element order {m} is no finite "
            f"subgroup of {group}")


def certify_finiteness(rho: Representation, max_elements: int = 10000,
                       max_order: int = 10000,
                       projective: bool = False) -> FinitenessCertificate:
    """Decide finiteness of the matrix image by exact closure.

    Trace obstructions (non-integral trace, an embedding outside [-2, 2])
    on the simple-loop products short-circuit to Obstructed.  Otherwise a
    breadth-first closure enumerates the image on cleared integer
    coordinates, over reduced words in the generators and their inverses,
    each step one precomputed integer map (restriction of scalars), with
    the canonical (coords, den) pair as the hash key; no element is
    stepped back by the inverse of its last letter.  Every new element's
    order is taken from its entries' trace and determinant alone, with
    infinite order again giving Obstructed, at the first such word in
    breadth-first order.  Caps turn into Inconclusive, never into a
    Finite verdict.
    A Finite verdict rests solely on the enumerated closure; the
    archimedean pass is recorded as supporting evidence.

    In projective mode matrices are identified up to scalars, +-1 in SL2
    and every scalar over the field in GL2, and the count is the image's
    order in PSL2/PGL2.
    """
    K = rho.field
    det_orders = None
    gl2 = rho.target == "GL2"
    nonarch_passed = None
    arch_passed = None

    if gl2:
        det_orders = {}
        for name in rho.presentation.generator_names():
            det_orders[name] = is_root_of_unity(_det(K, rho.gens[name].rows))
        if any(v is None for v in det_orders.values()) and not projective:
            return FinitenessCertificate(
                Obstructed(
                    next(n for n, v in det_orders.items() if v is None),
                    "determinant is not a root of unity"),
                0, 0, None, None, det_orders)
    else:
        loops = simple_loop_products(rho.presentation)
        na = nonarch_check(rho, loops)
        nonarch_passed = na.passed
        if not na.passed:
            return FinitenessCertificate(
                Obstructed(na.witness.to_str(), "trace is not an algebraic integer"),
                0, 0, False, None, None)
        ar = arch_check(rho, loops)
        arch_passed = ar.passed
        if not ar.passed:
            return FinitenessCertificate(
                Obstructed(ar.witness.to_str(),
                           "an embedding sends a trace outside [-2, 2]"),
                0, 0, True, False, None)

    key_of = _closure_key(K, gl2, projective)
    order_of = _closure_orders(K, gl2, projective)
    maps = []
    for name in rho.bfs_generator_names():
        for exp, mat in ((1, rho.gens[name]), (-1, rho._inverse(name))):
            maps.append(((name, exp), (name, -exp), *K.right_product_map(mat.rows)))

    # an element is (coords, den), row i of it coords[2di:2d(i+1)], and its
    # breadth-first letters are reduced: the step back by the inverse of
    # the last letter would land on the parent, so it is not taken
    half = 2 * K.degree
    ident = tuple(int(t in (0, 3 * K.degree)) for t in range(2 * half))
    seen = {key_of(ident, 1)}
    frontier = [(ident, 1, ())]
    max_order_seen = 1
    while frontier:
        new_frontier = []
        for coords, den, letters in frontier:
            rows = coords[:half], coords[half:]
            last = letters[-1] if letters else None
            for letter, back, R, E in maps:
                if back == last:
                    continue
                prod = [sum(map(mul, r, row)) for row in rows for r in R]
                pden = den * E
                g = gcd(pden, *prod)
                prod = tuple([c // g for c in prod])
                pden //= g
                key = key_of(prod, pden)
                if key in seen:
                    continue
                word = letters + (letter,)
                res = order_of(*_cleared_entries(K, prod, pden))
                if isinstance(res, InfiniteOrder):
                    return FinitenessCertificate(
                        Obstructed(Word(word).to_str(), res.reason),
                        len(seen), max_order_seen,
                        nonarch_passed, arch_passed, det_orders)
                if res.n > max_order:
                    return FinitenessCertificate(
                        Inconclusive(f"element order {res.n} exceeds cap {max_order}"),
                        len(seen), max_order_seen,
                        nonarch_passed, arch_passed, det_orders)
                max_order_seen = max(max_order_seen, res.n)
                seen.add(key)
                if len(seen) > max_elements:
                    return FinitenessCertificate(
                        Inconclusive(f"element count exceeds cap {max_elements}"),
                        len(seen), max_order_seen,
                        nonarch_passed, arch_passed, det_orders)
                new_frontier.append((prod, pden, word))
        frontier = new_frontier
    if not gl2 or projective:
        _check_klein(len(seen), max_order_seen, projective)
    return FinitenessCertificate(
        Finite(len(seen)), len(seen), max_order_seen,
        nonarch_passed, arch_passed, det_orders)
