"""Graded bases of finite-dimensional spaces of linear functionals.

Everything is computed from the span's integer moment table (``functionals.MomentTable``).
Gauss elimination with row interchanges on that table (de Boor and Ron's
elimination by segments) turns an independent family mu_1..mu_n into a
basis lambda_i = sum_j T[i][j] mu_j with:

* nondecreasing orders kappa_1 <= ... <= kappa_n,
* for each i a pivot monomial beta_i with |beta_i| = kappa_i such that
  lambda_i annihilates every monomial preceding beta_i in the column order
  and lambda_i(x^beta_i) = 1,
* for each k, the tail {lambda_i : kappa_i >= k} a basis of the subspace of
  span(mu) annihilating all polynomials of degree < k.

The elimination is fraction-free (in the manner of Bareiss): the rows of T
are integer vectors, cross-multiplied on each update and divided by their
gcd, so each is a nonzero multiple of the rational row.  Pivot rows are
chosen as the first remaining row with a nonzero entry; exact arithmetic
needs no magnitude pivoting, and a deterministic, reproducible outcome is
worth more.  Column scales change no pivot choice and no elimination ratio,
only the pivot value, which is divided back out: each row of ``integer_transform``
(the one copy of T) is normalized so that lambda_i(x^beta_i) = 1.

For a span of point combinations the elimination also finds the support's affine
hull, once (``Hull``).  Its dimension r bounds the pivots through degree k by
C(k + r, r), past which the rest of degree k is neither read nor built, and a hull smaller
than R^d is the ``Frame`` of both interpolation bases: the coordinates t = A x of their
polynomials.  The rows of L = T V, the moments of the lambda_i in the frame, are built
once per graded basis (``rows``), up to 2 kappa_max or the span's moment cap when that
is lower: integer numerators over one denominator per row, each entry computed from its
table column the first time it is read, up to degree max(2 kappa_i, kappa_max) for row i.
A capped span's lambda_i are read off the table too, as rows of T V up to the cap.
The product V f with a polynomial f, the span's values on f, is read off the table in
integers too: f's integer form, each term lifted by its degree's scale, and only the
columns of f's terms built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, gcd
from operator import mul
from typing import NamedTuple, Sequence

from .errors import DimensionMismatchError, RankDeficientError
from .functionals import (Functional, MomentRow, MomentTable, PointFunctional, _capped, _order_bound,
                          _require_moment_cap, combine)
from .polynomials import Exponent, monomials_of_degree
from .rational_linalg import integer_vector, rref


class Hull(NamedTuple):
    """The affine hull x0 + span{u_1..u_r} of a point set, in coordinates t.  The u_k are
    orthogonal integer vectors, D_k = u_k . u_k, and x0 is the hull's point nearest 0, so
    u_k . x0 = 0 and t_k(x) = u_k . x / D_k is linear.  With P the orthoprojector onto the
    hull, ||Px - y||^2 = sum_k D_k (t_k(x) - t_k(y))^2 for every y on the hull."""

    directions: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]

    def __call__(self, x: Sequence[Fraction]) -> tuple[Fraction, ...]:
        return tuple(sum(map(mul, u, x)) / w for u, w in zip(self.directions, self.weights))


def _hull(points: Sequence[tuple[Fraction, ...]]) -> Hull:
    """Hull coordinates: rational Gram-Schmidt on the rref rows of the x_i - x_1."""
    rows, _ = rref([[a - b for a, b in zip(p, points[0])] for p in points[1:]])
    directions: list[tuple[int, ...]] = []
    for row in rows:
        for u in directions:
            c = sum(map(mul, row, u)) / sum(map(mul, u, u))
            row = [a - c * b for a, b in zip(row, u)]
        ints, _ = integer_vector(row)
        directions.append(tuple(v // gcd(*ints) for v in ints))
    return Hull(tuple(directions), tuple(sum(map(mul, u, u)) for u in directions))


def _support_hull(support: Sequence[tuple[Fraction, ...]], low_pivots: int, d: int) -> Hull | None:
    """The hull of a point span's support, or None for R^d: no support (a capped span), one point,
    more than d pivots through degree 1 (they separate the affine functions) or r = d."""
    if len(support) < 2 or low_pivots > d:
        return None
    hull = _hull(support)
    return hull if len(hull.weights) < d else None


class Frame(NamedTuple):
    """Where both bases keep their polynomials: x (unit weights, ``linear`` None) or hull
    coordinates t = A x, A_k = u_k / D_k, with the span's moments at the t(x_i) and weights D_k."""

    moments: MomentTable
    weights: tuple[int, ...]
    linear: tuple[tuple[Fraction, ...], ...] | None


@dataclass(frozen=True)
class GradedBasis:
    """Outcome of the elimination: orders, pivots, the transform, and the table.

    ``integer_transform`` is the row-wise matrix T with lambda_i = sum_j T[i][j] mu_j, each
    row as integer numerators over one denominator.  ``moments`` is the span's integer moment
    table and ``hull`` its support's hull (None for R^d); ``lambdas``, T in ``Fraction``s
    (``transform``), the ``frame`` and its moment ``rows`` are derived when first asked for.
    No invariants are enforced here; ``build_graded_basis`` guarantees them (so corrupted
    instances can be constructed in tests as negative controls).
    """

    span: tuple[Functional, ...]
    kappas: tuple[int, ...]
    pivots: tuple[Exponent, ...]
    integer_transform: tuple[tuple[tuple[int, ...], int], ...]
    degree_cap: int
    moments: MomentTable = field(compare=False, repr=False)
    hull: Hull | None = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.kappas)

    @property
    def dimension(self) -> int:
        return self.span[0].dimension

    @cached_property
    def lambdas(self) -> tuple[Functional, ...]:
        """lambda_i = sum_j T[i][j] mu_j as functionals of their own: a point combination, or for a
        span with a moment cap the moments of lambda_i up to the cap, read off the rows of T V."""
        cap = self.moments.cap
        if cap is None:
            return tuple(combine(self.span, row) for row in self.transform)
        return tuple(_capped(row, cap) for row in self.moments.rows(self.integer_transform, cap))

    @cached_property
    def transform(self) -> tuple[tuple[Fraction, ...], ...]:
        """T in ``Fraction``s, for the functionals, the output and the dense oracles."""
        return tuple(tuple(Fraction(t, den) for t in ints) for ints, den in self.integer_transform)

    @cached_property
    def frame(self) -> Frame:
        """The frame of both bases: x, or the coordinates t = A x of ``hull``."""
        if self.hull is None:
            return Frame(self.moments, (1,) * self.dimension, None)
        directions, weights = self.hull
        mapped = [PointFunctional(map(self.hull, f.points), f.weights, dimension=len(weights))
                  for f in self.span]
        linear = tuple(tuple(Fraction(c, w) for c in u) for u, w in zip(directions, weights))
        return Frame(MomentTable(mapped), weights, linear)

    @cached_property
    def rows(self) -> tuple[MomentRow, ...]:
        """The rows of L = T V in the frame, built once, up to 2 kappa_max or the span's moment cap
        when that is lower: radial images read row i up to 2 kappa_i, least parts, Gramians and
        solves up to kappa_max."""
        moments, top = self.frame.moments, 2 * self.kappas[-1]
        return moments.rows(self.integer_transform, top if moments.cap is None else min(top, moments.cap))

    def blocks(self) -> list[list[int]]:
        """Indices grouped by order; contiguous since kappa is nondecreasing."""
        groups: list[list[int]] = []
        for i, kappa in enumerate(self.kappas):
            if groups and self.kappas[i - 1] == kappa:
                groups[-1].append(i)
            else:
                groups.append([i])
        return groups


def build_graded_basis(functionals: Sequence[Functional], degree_cap: int | None = None) -> GradedBasis:
    """Eliminate the moment matrix of the given functionals.

    For a span of point combinations the default cap is n-1, which always
    suffices for independent input.  Spans containing moment functionals
    must pass an explicit cap no larger than any stored moment cap.  Whatever
    the cap, the search stops at ``_order_bound(span)``, past which no nonzero
    combination of the span has its order: m-1 on m distinct support points.

    Raises RankDeficientError when fewer than n pivots exist up to the cap,
    reporting the rank that was achieved.
    """
    span = tuple(functionals)
    n = len(span)
    if n == 0:
        raise ValueError("need at least one functional")
    d = span[0].dimension
    if any(f.dimension != d for f in span):
        raise DimensionMismatchError("functionals of mixed dimension")

    table = MomentTable(span)
    if degree_cap is None:
        if table.cap is not None:
            raise ValueError("spans with moment functionals need an explicit degree cap")
        degree_cap = max(n - 1, 0)
    if degree_cap < 0:
        raise ValueError("degree cap must be >= 0")
    _require_moment_cap(table.cap, degree_cap, "graded elimination")

    search_cap = min(degree_cap, _order_bound(span))
    support = list(dict.fromkeys(x for f in span for x in f.points)) if table.cap is None else ()
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    transform: list[tuple[tuple[int, ...], int]] = []
    pivots: list[Exponent] = []
    kappas: list[int] = []
    hull, r = None, d  # the support's hull, of dimension r: at most C(k + r, r) pivots through degree k
    for k in range(search_cap + 1):
        if k == 2:  # the pivots through degree 1 are known
            hull = _support_hull(support, len(pivots), d)
            r = len(hull.weights) if hull else d
        scale, full = table.scale(k), comb(k + r, r)
        for alpha in monomials_of_degree(d, k):
            rank = len(pivots)
            if rank == full:  # the remaining rows annihilate Pi_k on the hull: the rest of degree k is zero
                break
            column = table[alpha]
            values = [sum(map(mul, row, column)) for row in rows[rank:]]
            pivot = next((i for i, v in enumerate(values) if v), None)
            if pivot is None:
                continue
            rows[rank], rows[rank + pivot] = rows[rank + pivot], rows[rank]
            values[0], values[pivot] = values[pivot], values[0]
            head, pivot_value = rows[rank], values[0]
            for i in range(1, len(values)):
                if values[i]:
                    row = [pivot_value * t - values[i] * h for t, h in zip(rows[rank + i], head)]
                    common = gcd(*row)
                    rows[rank + i] = [t // common for t in row]
            # head (content 1) is c times the rational row and pivot_value is c * scale * lambda(x^alpha):
            # head * scale / pivot_value, in lowest terms with a positive denominator, has lambda(x^alpha) = 1
            common = gcd(scale, pivot_value) * (1 if pivot_value > 0 else -1)
            transform.append((tuple(t * (scale // common) for t in head), pivot_value // common))
            pivots.append(alpha)
            kappas.append(k)
            if len(pivots) == n:
                break
        if len(pivots) == n:
            break
    if len(pivots) < n:
        raise RankDeficientError(achieved_rank=len(pivots), size=n, degree_cap=degree_cap)
    if kappas[-1] < 2:  # the search stopped before degree 2
        hull = _support_hull(support, n, d)

    return GradedBasis(
        span=span,
        kappas=tuple(kappas),
        pivots=tuple(pivots),
        integer_transform=tuple(transform),
        degree_cap=degree_cap,
        moments=table,
        hull=hull,
    )
