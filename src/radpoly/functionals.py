"""Linear functionals on polynomials, with exactly computable moments.

A functional is its moments lambda(x^alpha); the base class ``Functional`` holds the
dimension, the degree cap, the checked ``moment``, equality and the hash.  Applying one
is one sum, lambda(p) = sum over the terms of p of p_alpha * lambda(x^alpha), in both:

* ``PointFunctional`` -- a weighted combination of atoms c (D^alpha p)(x),
  alpha = 0 being a point evaluation.  Point evaluations apply to
  polynomials of any degree; ``from_derivative`` keeps its degree cap.
* ``MomentFunctional`` -- a table of literal moments up to a degree cap.
  Applying either past its cap raises, never silently truncates: silent
  truncation would corrupt the exact-identity checks built on top of these
  objects.  ``_require_moment_cap`` is the one guard that raises it, here and
  in the graded elimination, the radial images and V f.

Every atom moment comes from one columnar integer kernel, ``_atom_kernel``,
which gives the moment of x^gamma at all of its atoms as one tuple of C-level
products.  A point combination sums that column and keeps each moment it has
computed as a fraction.  A span of functionals has one integer moment table,
``MomentTable``: the columns V_alpha = (mu_1(x^alpha), ..., mu_n(x^alpha)) of the
moment matrix, each built the first time it is read and then kept, so no reader
builds a column it does not read.  One kernel over the atoms of all its point
functionals gives the point part of a whole column at once; the stored moments of
a moment functional are lifted to the same denominator.  Each column is kept as
integers over one positive scale for its degree, so rational points and rational
moments need no fractions inside the table.  The moments of a combination
sum_j T[i][j] mu_j are a row of T V (``MomentRow``); a capped combination, from
``combine`` or a graded basis, is read off its row up to the cap (``_capped``).

Radial images x |-> lambda ||x - .||_D^(2l), ||x||_D^2 = sum_k D_k x_k^2, come
from the direct expansion sum over |m| = l of l!/m! D^m prod_k (x_k - y_k)^(2 m_k),
in which each monomial x^gamma y^delta occurs once; tensor application applies a
functional to such an image.  The paper's
separated expansion, with p_{a,beta}(x) = ||x||^(2a) x^beta and ||.|| Euclidean,

    ||x - y||^(2k) = sum over a + |beta| + c = k of
        (-2)^|beta| * k! / (a! beta! c!) * p_{a,beta}(x) * p_{c,beta}(y),

is the identity the images are tested against (``radial_power_expansion``).
Radial images and lowest-degree parts of the moment series
need nothing but a lookup of integer moments over one denominator:
``image_from_moments`` and ``least_part_from_moments`` take one and return the
polynomial's integer coefficient sums over one denominator, so the same bodies serve
a row of a graded basis's integer moment table and a functional, whose moments
(its ``_moment``) ``radial_image`` and ``least_part`` read once and lift to integers
over the lcm of their denominators.

The order of a functional is the smallest total degree carrying a nonzero
moment (equivalently, the largest k with lambda vanishing on all polynomials
of degree < k); the zero functional has order -1 by convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress, product
from operator import mul, or_
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DegreeCapError, DimensionMismatchError
from .polynomials import (
    Exponent,
    Polynomial,
    Rational,
    _canonical_terms,
    _checked_exponent,
    as_fraction,
    as_point,
    graded_key,
    monomial_sequence,
    monomials_of_degree,
    multi_factorial,
)
from .rational_linalg import integer_vector

_ZERO = Fraction(0)


def _require_moment_cap(cap: int | None, needed: int, operation: str) -> None:
    """Raise unless moments up to degree ``needed`` exist under ``cap``: the one guard on a moment
    cap, for applying a functional, eliminating a span, radial images and V f."""
    if cap is not None and cap < needed:
        raise DegreeCapError(
            f"{operation} needs moments up to degree {needed}, functional cap is {cap}"
        )


def _apply(functional: "Functional", p: Polynomial) -> Fraction:
    """lambda(p) = sum over the terms of p of p_alpha * lambda(x^alpha)."""
    if p.dimension != functional.dimension:
        raise DimensionMismatchError("functional and polynomial dimensions differ")
    _require_moment_cap(functional.degree_cap, p.degree, "applying a functional")
    moment = functional._moment
    total = _ZERO
    for alpha, coeff in p._terms.items():
        value = moment(alpha)
        if value:
            total += coeff * value
    return total


def _atom_kernel(dimension: int, points, weights, orders) -> tuple[Callable, Callable]:
    """Integer moments of the atoms c_i (D^alpha_i p)(x_i), one tuple over the atoms per monomial.

    With r and q the lcms of the weights' and the coordinates' denominators,
    r q^|gamma| c (D^alpha x^gamma)(x) = r c gamma!/(gamma-alpha)! (q x)^(gamma-alpha) q^|alpha|,
    or 0 unless gamma >= alpha.  Per coordinate j the kernel grows T_j[g], one tuple over the atoms
    of g!/(g-a)! q^a (q x_j)^(g-a), 0 for g < a, with a the atom's order in j.  The column of gamma
    is the weights r c times T_j[gamma_j] for each j in the support of gamma or in S, the coordinates
    in which some atom has a nonzero order (T_j[0] zeroes the atoms differentiated in j): products of
    whole tuples, each T_j grown as far as it is read.  Returns column(gamma) and scale(k) = r q^k.
    """
    r = math.lcm(*(w.denominator for w in weights))
    q = math.lcm(*(c.denominator for x in points for c in x))
    start = tuple(w.numerator * (r // w.denominator) for w in weights)
    bases = [tuple(x[j].numerator * (q // x[j].denominator) for x in points) for j in range(dimension)]
    by_coordinate = [tuple(alpha[j] for alpha in orders) for j in range(dimension)]
    tables = [[tuple(int(not a) for a in orders_j)] for orders_j in by_coordinate]
    s_mask = tuple(map(any, by_coordinate)) if any(map(any, orders)) else None  # None when S is empty

    def column(gamma: Exponent) -> tuple[int, ...]:
        out = start
        for j in compress(range(dimension), gamma if s_mask is None else map(or_, gamma, s_mask)):
            table, base, orders_j = tables[j], bases[j], by_coordinate[j]
            for g in range(len(table), gamma[j] + 1):
                table.append(tuple(map(mul, table[-1], base)) if not any(orders_j) else tuple(
                    t * b * g // (g - a) if g > a else math.factorial(a) * q**a if g == a else 0
                    for t, b, a in zip(table[-1], base, orders_j)))  # an exact division
            out = map(mul, out, table[gamma[j]])
        return tuple(out)

    return column, lambda k: r * q**k


class Functional:
    """A linear functional known by its moments: the protocol both representations share.

    A subclass holds its own data and gives ``is_zero``, ``_moment`` (lambda(x^alpha) for a
    checked key), ``_key`` (what equality of the same type compares)
    and ``__call__ = _apply`` in its own body, where the benchmark tracer wraps it."""

    __slots__ = ("_dimension", "_degree_cap")

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def degree_cap(self) -> int | None:
        """The largest degree the moments reach; None for point evaluations (any degree)."""
        return self._degree_cap

    def moment(self, alpha: Iterable[int]) -> Fraction:
        """lambda(x^alpha); alpha is checked against the dimension and the cap."""
        return self._moment(_checked_exponent(alpha, self._dimension, self._degree_cap))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class PointFunctional(Functional):
    """Weighted combination of atoms c (D^alpha p)(x); alpha = 0 evaluates at x.

    The constructor takes point evaluations at pairwise distinct points,
    which apply to polynomials of any degree.
    """

    # _orders: each atom's derivative order; _kernel and _table: the atom kernel and the
    # computed moments, built on demand and ignored by equality, hash and repr.
    __slots__ = ("_points", "_weights", "_orders", "_kernel", "_table")

    def __init__(self, points: Iterable[Sequence[Rational]], weights: Iterable[Rational],
                 *, dimension: int | None = None):
        pts = [as_point(p) for p in points]
        wts = [as_fraction(w) for w in weights]
        if len(pts) != len(wts):
            raise ValueError("points and weights must have equal length")
        if pts:
            d = len(pts[0])
            if dimension is not None and dimension != d:
                raise DimensionMismatchError(
                    f"declared dimension {dimension} but points have length {d}"
                )
        else:
            if dimension is None:
                raise ValueError("dimension is required for an empty combination")
            d = dimension
        if d < 1:
            raise ValueError("dimension must be >= 1")
        if any(len(p) != d for p in pts):
            raise DimensionMismatchError("points of mixed dimension")
        if len(set(pts)) != len(pts):
            raise ValueError("points must be pairwise distinct")
        kept = [(p, w) for p, w in zip(pts, wts) if w != 0]
        self._dimension = d
        self._points = tuple(p for p, _ in kept)
        self._weights = tuple(w for _, w in kept)
        self._orders = ((0,) * d,) * len(kept)
        self._degree_cap: int | None = None
        self._kernel = None
        self._table: dict[Exponent, Fraction] = {}

    @property
    def points(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._points

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return self._weights

    @property
    def is_zero(self) -> bool:
        return not self._weights

    def _moment(self, key: Exponent) -> Fraction:
        """lambda(x^key) for a checked key, computed once per functional."""
        total = self._table.get(key)
        if total is None:  # the column of the atom kernel, summed
            if self._kernel is None:
                self._kernel = _atom_kernel(self._dimension, self._points, self._weights, self._orders)
            column, scale = self._kernel
            total = self._table[key] = Fraction(sum(column(key)), scale(sum(key)))
        return total

    __call__ = _apply

    def _key(self) -> tuple:
        atoms = frozenset(zip(zip(self._points, self._orders), self._weights))
        return self._dimension, self._degree_cap, atoms

    def __repr__(self) -> str:
        parts = " ".join(
            f"{w}{f'*D{alpha}' if any(alpha) else ''}@{tuple(map(str, x))}"
            for x, w, alpha in zip(self._points, self._weights, self._orders)
        )
        cap = "" if self._degree_cap is None else f", cap={self._degree_cap}"
        return f"PointFunctional({parts or '0'}{cap})"


class MomentFunctional(Functional):
    """Functional given by its moments lambda(x^alpha) up to a degree cap."""

    __slots__ = ("_moments",)

    def __init__(self, dimension: int, degree_cap: int,
                 moments: Mapping | Iterable = ()):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        if degree_cap < 0:
            raise ValueError("degree cap must be >= 0")
        self._dimension = dimension
        self._degree_cap = degree_cap
        self._moments = _canonical_terms(moments, dimension, degree_cap)

    @property
    def is_zero(self) -> bool:
        """True when every stored moment vanishes.

        The object carries no information beyond its moment table, so an
        all-zero table is the zero functional of its domain.
        """
        return not self._moments

    def moments(self) -> list[tuple[Exponent, Fraction]]:
        """Nonzero moments in graded order."""
        return sorted(self._moments.items(), key=lambda item: graded_key(item[0]))

    def _moment(self, key: Exponent) -> Fraction:
        """Table lookup for a checked key."""
        return self._moments.get(key, _ZERO)

    __call__ = _apply

    def _key(self) -> tuple:
        return self._dimension, self._degree_cap, frozenset(self._moments.items())

    def __repr__(self) -> str:
        body = ", ".join(f"{a}:{v}" for a, v in self.moments())
        return f"MomentFunctional(cap={self._degree_cap}, {{{body}}})"


class MomentTable(dict):
    """Integer moment columns of a span: self[alpha] is built the first time it is read, then kept.

    mu_i(x^alpha) = self[alpha][i] / scale(|alpha|).  One atom kernel over the atoms of all point
    functionals gives the point part of a column over r q^k, r and q the lcms of the atoms' weight
    and coordinate denominators; a functional of several atoms sums its segment.  Moment
    functionals add their stored moments, and the scale of degree k is the lcm of r q^k and the
    denominators of the stored moments of degree k.  ``cap`` is the smallest moment cap of the
    span (None when no functional has one); callers never read the table past it.
    """

    def __init__(self, span: Sequence[Functional]):
        super().__init__()
        self.span = tuple(span)
        self.dimension = self.span[0].dimension
        caps = [f.degree_cap for f in self.span if f.degree_cap is not None]
        self.cap = min(caps) if caps else None
        points = [f for f in self.span if isinstance(f, PointFunctional)]
        self._column, self._point_scale = _atom_kernel(
            self.dimension, [x for f in points for x in f.points], [w for f in points for w in f.weights],
            [a for f in points for a in f._orders])
        ends = list(accumulate(len(f.points) for f in points))
        self._segments = None if all(len(f.points) == 1 for f in points) else list(zip([0, *ends], ends))
        self._stored = [(i, f) for i, f in enumerate(self.span) if not isinstance(f, PointFunctional)]
        self._denominators: dict[int, list[int]] = {}  # the stored moments' denominators, by degree
        for alpha, moment in (item for _, f in self._stored for item in f.moments()):
            self._denominators.setdefault(sum(alpha), []).append(moment.denominator)
        self._scales: dict[int, int] = {}

    def scale(self, k: int) -> int:
        """The positive denominator of every column of degree k, computed once per degree."""
        if k not in self._scales:
            self._scales[k] = math.lcm(self._point_scale(k), *self._denominators.get(k, ()))
        return self._scales[k]

    def __missing__(self, alpha: Exponent) -> tuple[int, ...]:
        column = self._column(alpha)
        if self._segments:
            column = tuple(sum(column[a:b]) for a, b in self._segments)
        if self._stored:  # lift the point part to the scale and put each stored moment in its row
            scale = self.scale(sum(alpha))
            lift = scale // self._point_scale(sum(alpha))
            column = [v * lift for v in column]
            for i, f in self._stored:
                column.insert(i, (f._moment(alpha) * scale).numerator)
        self[alpha] = column = tuple(column)
        return column

    def rows(self, transform: Sequence[tuple[Sequence[int], int]], top: int) -> tuple[MomentRow, ...]:
        """The rows of T V up to degree ``top``, for lambda_i = sum_j T[i][j] mu_j with T in integer
        rows (numerators, denominator): the moments of the lambda_i, each over one denominator and
        filled where read."""
        scales = [self.scale(k) for k in range(top + 1)]
        scale = math.lcm(*scales)
        lifts = [scale // s for s in scales]
        return tuple(MomentRow(self, lifts, ints, den * scale) for ints, den in transform)

    def values(self, f: Polynomial) -> tuple[list[int], int]:
        """V f = (mu_i(f)) as integer numerators over one denominator: each term of f's integer
        form lifted by its degree's scale to their lcm.  Only the columns of f's terms are built."""
        _require_moment_cap(self.cap, f.degree, "evaluating the span functionals")
        if f.is_zero:
            return [0] * len(self.span), 1
        form, denominator = f._integer_form()
        scales = [self.scale(sum(alpha)) for alpha, _ in form]
        scale = math.lcm(*set(scales))
        weights = [c * (scale // s) for (_, c), s in zip(form, scales)]
        columns = [self[alpha] for alpha, _ in form]
        return [sum(map(mul, weights, row)) for row in zip(*columns)], denominator * scale


class MomentRow(dict):
    """lambda(x^alpha) = self[alpha] / denominator for every alpha up to the row's top
    degree; an entry is computed from its table column the first time it is read."""

    def __init__(self, table: MomentTable, lifts: list[int], ints: Sequence[int], denominator: int):
        super().__init__()
        self._table, self._lifts, self._ints = table, lifts, ints
        self.denominator = denominator

    def __missing__(self, alpha: Exponent) -> int:
        value = self[alpha] = sum(map(mul, self._ints, self._table[alpha])) * self._lifts[sum(alpha)]
        return value


def _capped(row: MomentRow, dimension: int, cap: int) -> MomentFunctional:
    """The functional whose moments up to ``cap`` are the row's: a capped combination."""
    return MomentFunctional(dimension, cap, {alpha: Fraction(row[alpha], row.denominator)
                                             for alpha in monomial_sequence(dimension, cap) if row[alpha]})


def point_evaluation(point: Sequence[Rational]) -> PointFunctional:
    """The evaluation functional p |-> p(x)."""
    return PointFunctional([point], [1])


def from_derivative(alpha: Iterable[int], at: Sequence[Rational],
                    degree_cap: int) -> PointFunctional:
    """The one-atom combination p |-> (D^alpha p)(x0), applicable up to ``degree_cap``."""
    x0 = as_point(at)
    key = _checked_exponent(alpha, len(x0))
    if degree_cap < sum(key):
        raise ValueError("degree cap must be at least the derivative's total order")
    functional = PointFunctional([x0], [1])
    functional._orders = (key,)
    functional._degree_cap = degree_cap
    return functional


def _order_bound(span: Iterable[Functional]) -> int:
    """D + sum over the atom sites x of (a_x + 1): no nonzero combination of the span has a larger
    order (the README gives the argument).  D is the top degree of a stored nonzero moment (-1 when
    there is none) and a_x the largest total derivative order of an atom at x; a span of n distinct
    points gets n-1, a derivative atom |alpha| and a moment table D, each within its cap."""
    stored, tops = -1, {}
    for f in span:
        if isinstance(f, PointFunctional):
            for x, alpha in zip(f._points, f._orders):
                tops[x] = max(tops.get(x, 0), sum(alpha))
        else:
            stored = max(stored, max(map(sum, f._moments), default=-1))
    return stored + sum(tops.values()) + len(tops)


def order(functional: Functional) -> int:
    """Smallest total degree with a nonzero moment; -1 for the zero functional.

    The search reaches ``_order_bound`` of the functional and always finds it: n-1 for n
    distinct points, which are independent on polynomials of degree <= n-1, |alpha| for a
    derivative atom of order alpha, whose moment there is alpha!, and the top degree of a
    nonzero ``MomentFunctional``'s stored moments.
    """
    if functional.is_zero:
        return -1
    top = _order_bound((functional,))
    moment = functional._moment  # every exponent below is of degree <= top, within the cap
    for k in range(top + 1):
        for alpha in monomials_of_degree(functional.dimension, k):
            if moment(alpha):
                return k
    raise AssertionError(f"order: {functional!r} is nonzero, yet no moment up to degree {top} is")


def combine(functionals: Sequence[Functional], coefficients: Sequence[Rational]) -> Functional:
    """Exact linear combination sum_i c_i lambda_i.

    Point evaluations combine into a point combination; any member with a
    degree cap forces a moment result truncated at the smallest cap involved.
    """
    fs = list(functionals)
    cs = [as_fraction(c) for c in coefficients]
    if not fs or len(fs) != len(cs):
        raise ValueError("need equally many functionals and coefficients, at least one")
    d = fs[0].dimension
    if any(f.dimension != d for f in fs):
        raise DimensionMismatchError("functionals of mixed dimension")
    if all(f.degree_cap is None for f in fs):
        acc: dict[tuple[Fraction, ...], Fraction] = {}
        for f, c in zip(fs, cs):
            if c == 0:
                continue
            for x, w in zip(f.points, f.weights):
                acc[x] = acc.get(x, Fraction(0)) + c * w
        return PointFunctional(list(acc.keys()), list(acc.values()), dimension=d)
    table = MomentTable(fs)
    return _capped(table.rows([integer_vector(cs)], table.cap)[0], d, table.cap)


@dataclass(frozen=True)
class RadialExpansionTerm:
    """One summand of the separated expansion of ||x-y||^(2k).

    Contributes coeff * p_{a,beta}(x) * p_{c,beta}(y) with a + |beta| + c = k
    and coeff = (-2)^|beta| k! / (a! beta! c!).
    """

    a: int
    beta: Exponent
    c: int
    coeff: int


@lru_cache(maxsize=None)
def radial_power_expansion(k: int, d: int) -> tuple[RadialExpansionTerm, ...]:
    """All separated terms of ||x-y||^(2k) in dimension d.

    Cached per (k, d); the returned tuple and its members are immutable.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    k_factorial = math.factorial(k)
    terms = []
    for a in range(k, -1, -1):
        for b in range(k - a, -1, -1):
            c = k - a - b
            for beta in monomials_of_degree(d, b):
                # a multinomial coefficient, so an exact division
                coeff = (-2) ** b * k_factorial // (
                    math.factorial(a) * multi_factorial(beta) * math.factorial(c))
                terms.append(RadialExpansionTerm(a, beta, c, coeff))
    return tuple(terms)


@lru_cache(maxsize=None)
def radial_monomial(d: int, a: int, beta: Exponent) -> Polynomial:
    """p_{a,beta} = ||x||^(2a) x^beta, homogeneous of degree 2a + |beta|."""
    if a:
        return radial_monomial(d, a - 1, beta) * Polynomial.squared_norm(d)
    return Polynomial.monomial(d, beta)


def expansion_polynomial(k: int, d: int) -> Polynomial:
    """The reassembled expansion as one polynomial in 2d variables (x, y).

    Variables 1..d are the x block and d+1..2d the y block; the result must
    equal the direct expansion of (sum_i (x_i - y_i)^2)^k.
    """
    acc: dict[Exponent, int] = {}  # the p_{a,beta} have integer coefficients
    for term in radial_power_expansion(k, d):
        py = [(ay, cy.numerator) for ay, cy in radial_monomial(d, term.c, term.beta)._terms.items()]
        for ax, cx in radial_monomial(d, term.a, term.beta)._terms.items():
            cx = term.coeff * cx.numerator
            for ay, cy in py:
                key = ax + ay
                acc[key] = acc.get(key, 0) + cx * cy
    return _polynomial(2 * d, acc, 1)


def tensor_apply_radial(lam: Functional, mu: Functional, k: int) -> Fraction:
    """(lambda (x) mu) applied to ||x-y||^(2k), lambda in x and mu in y.

    The kernel is symmetric, so this is mu applied to the radial image of
    lambda.  For point combinations it equals the double sum
    sum_i sum_j c_i c'_j ||x_i - x'_j||^(2k).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if lam.dimension != mu.dimension:
        raise DimensionMismatchError("functionals of different dimension")
    _require_moment_cap(mu.degree_cap, 2 * k, "tensor application")
    return mu(radial_image(lam, k))


@lru_cache(maxsize=256)
def _radial_kernel(ell: int, weights: tuple[int, ...]) -> tuple[tuple[Exponent, tuple], ...]:
    """||t - s||_D^(2 ell) in integers, D the weights, grouped by the power s^delta:
    (delta, ((gamma, K), ...)), K = ell!/m! D^m prod_k C(2 m_k, delta_k) (-1)^|delta|
    the coefficient of t^gamma s^delta, where gamma + delta = 2m."""
    grouped: dict[Exponent, list[tuple[Exponent, int]]] = {}
    for m in monomials_of_degree(len(weights), ell):
        scale = math.factorial(ell) // multi_factorial(m) * math.prod(map(pow, weights, m))
        for delta in product(*(range(2 * e + 1) for e in m)):
            gamma = tuple(2 * e - k for e, k in zip(m, delta))
            coeff = (-1) ** sum(delta) * scale * math.prod(map(math.comb, (2 * e for e in m), delta))
            grouped.setdefault(delta, []).append((gamma, coeff))
    return tuple((delta, tuple(terms)) for delta, terms in grouped.items())


def _polynomial(dimension: int, sums: Mapping[Exponent, int], denominator: int) -> Polynomial:
    """The polynomial with coefficients sums[alpha] / denominator, zero sums dropped."""
    return Polynomial._of(dimension, {alpha: Fraction(v, denominator) for alpha, v in sums.items() if v})


def image_from_moments(moment: Callable[[Exponent], int], denominator: int,
                       weights: tuple[int, ...], ell: int) -> tuple[dict[Exponent, int], int]:
    """The radial image t |-> lambda ||t - .||_D^(2 ell) of a functional given by its integer
    moments, as integer coefficient sums over ``denominator`` (some sums may be zero).

    lambda(t^alpha) = moment(alpha) / denominator; the moment of every power s^delta
    of the kernel ``_radial_kernel(ell, weights)`` (|delta| <= 2 ell) may be looked up.
    ||t||_D^2 = sum_k D_k t_k^2 (unit weights: the Euclidean image).
    """
    acc: dict[Exponent, int] = {}
    for delta, terms in _radial_kernel(ell, weights):
        value = moment(delta)
        if value:
            for gamma, coeff in terms:
                acc[gamma] = acc.get(gamma, 0) + coeff * value
    return acc, denominator


def least_part_from_moments(moment: Callable[[Exponent], int], denominator: int,
                            weights: tuple[int, ...], kappa: int) -> tuple[dict[Exponent, int], int]:
    """sum over |alpha| = kappa of D^alpha lambda(t^alpha) t^alpha / alpha!, as the integer sums
    D^alpha moment(alpha) kappa!/alpha! over denominator * kappa! (alpha! divides kappa!).

    lambda(t^alpha) = moment(alpha) / denominator with integer moments, as for
    ``image_from_moments``, and D the weights (unit weights: the least part
    lambda((t . .)^kappa) / kappa!); a zero moment costs no alpha! and no term.
    """
    top = math.factorial(kappa)
    values = ((alpha, moment(alpha)) for alpha in monomials_of_degree(len(weights), kappa))
    return {alpha: value * math.prod(map(pow, weights, alpha)) * (top // multi_factorial(alpha))
            for alpha, value in values if value}, denominator * top


def _lifted_moments(moment: Callable[[Exponent], Fraction],
                    exponents: Iterable[Exponent]) -> tuple[dict[Exponent, int], int]:
    """moment(alpha) for each alpha, read once, as integers over one denominator, the lcm of theirs."""
    values = {alpha: moment(alpha) for alpha in exponents}
    denominator = math.lcm(*(v.denominator for v in values.values()))
    return {alpha: v.numerator * (denominator // v.denominator) for alpha, v in values.items()}, denominator


def radial_image(lam: Functional, ell: int) -> Polynomial:
    """The polynomial x |-> lambda ||x - .||^(2 ell), lambda applied in y, from lambda's moments
    at the kernel's powers of y, read once and lifted to integers over one denominator.

    For a nonzero functional of order kappa the degree is exactly
    2 ell - kappa when kappa <= 2 ell, and the image vanishes identically
    when kappa > 2 ell.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    _require_moment_cap(lam.degree_cap, 2 * ell, "radial image")
    weights = (1,) * lam.dimension
    moments, denominator = _lifted_moments(lam._moment, (delta for delta, _ in _radial_kernel(ell, weights)))
    return _polynomial(lam.dimension, *image_from_moments(moments.__getitem__, denominator, weights, ell))


def least_part(lam: Functional) -> Polynomial:
    """Lowest-degree nonzero homogeneous part of the moment series.

    With kappa the order of the functional, returns
    sum over |alpha| = kappa of lambda(x^alpha) x^alpha / alpha!,
    and the zero polynomial for the zero functional; the moments of degree kappa are lifted as for
    ``radial_image``.
    """
    kappa = order(lam)
    if kappa == -1:
        return Polynomial.zero(lam.dimension)
    moments, denominator = _lifted_moments(lam._moment, monomials_of_degree(lam.dimension, kappa))
    return _polynomial(lam.dimension, *least_part_from_moments(moments.__getitem__, denominator,
                                                               (1,) * lam.dimension, kappa))
