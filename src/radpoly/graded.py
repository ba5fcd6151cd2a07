"""Graded bases of finite-dimensional spaces of linear functionals.

Everything is computed from one integer moment table per span: the columns
V_alpha = (mu_1(x^alpha), ..., mu_n(x^alpha)) of the moment matrix, built
once per monomial in graded order and extended one degree at a time.  The
table only tabulates: each functional hands over its moments of one degree
as integers over one denominator, however it computes them, and each column
is kept as integers over one positive scale for its degree, so rational
points and rational moments need no fractions inside the table.

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

The rows of L = T V, the moments of the lambda_i, are integer numerators
over one denominator per row, each entry computed from its table column the
first time it is read: the radial images, the least parts and both
interpolation Gramians read row i only up to degree max(2 kappa_i, kappa_max).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, lcm
from operator import mul
from typing import Sequence

from .errors import DegreeCapError, DimensionMismatchError, RankDeficientError
from .functionals import Functional, combine
from .polynomials import Exponent, monomials_of_degree
from .rational_linalg import integer_vector, pivot_columns


class MomentTable:
    """Integer moment columns of a span, built one degree at a time.

    mu_i(x^alpha) = columns[alpha][i] / scales[|alpha|].  Each functional
    gives its moments of one degree as integers over one denominator of its
    own (``_integer_moments``); the scale of a degree is the lcm of those
    denominators.  ``cap`` is the smallest moment cap of the span (None when
    no functional has one); callers never extend the table past it.
    """

    def __init__(self, span: Sequence[Functional]):
        self.span = tuple(span)
        self.dimension = self.span[0].dimension
        caps = [f.degree_cap for f in self.span if f.degree_cap is not None]
        self.cap = min(caps) if caps else None
        self.columns: dict[Exponent, tuple[int, ...]] = {}
        self.monomials: list[list[Exponent]] = []
        self.scales: list[int] = []
        self._rows: tuple = (None, -1, ())

    def extend(self, degree: int) -> None:
        """Build every column of degree <= ``degree`` not built yet."""
        for k in range(len(self.scales), degree + 1):
            alphas = list(monomials_of_degree(self.dimension, k))
            parts = [f._integer_moments(k, alphas) for f in self.span]
            scale = lcm(*(den for _, den in parts))
            lifted = [[num * (scale // den) for num in nums] for nums, den in parts]
            self.columns.update(zip(alphas, zip(*lifted)))
            self.monomials.append(alphas)
            self.scales.append(scale)

    def rows(self, transform: Sequence[tuple[Sequence[int], int]], top: int) -> tuple[MomentRow, ...]:
        """The rows of T V at least up to degree ``top``, for lambda_i = sum_j T[i][j] mu_j
        with T in integer rows (numerators, denominator): the moments of the
        lambda_i, each over one denominator and filled where read.  Built once for
        the largest ``top`` asked of the same ``transform`` object."""
        held, done, rows = self._rows
        if held is not transform or done < top:
            self.extend(top)
            scale = lcm(*self.scales[: top + 1])
            lifts = [scale // s for s in self.scales[: top + 1]]
            rows = tuple(MomentRow(self.columns, lifts, ints, den * scale) for ints, den in transform)
            self._rows = (transform, top, rows)
        return rows

    def values(self, terms: Sequence[tuple[Exponent, Fraction]]) -> list[Fraction]:
        """mu_i(f) for every span functional, f = sum c x^alpha over ``terms``: V times c."""
        self.extend(max(sum(alpha) for alpha, _ in terms))
        weights, common = integer_vector([c / self.scales[sum(alpha)] for alpha, c in terms])
        return [Fraction(sum(map(mul, weights, row)), common)
                for row in zip(*(self.columns[alpha] for alpha, _ in terms))]


class MomentRow(dict):
    """lambda(x^alpha) = self[alpha] / denominator for every alpha up to the row's top
    degree; an entry is computed from its table column the first time it is read."""

    def __init__(self, columns: dict[Exponent, tuple[int, ...]], lifts: list[int],
                 ints: Sequence[int], denominator: int):
        super().__init__()
        self._columns, self._lifts, self._ints = columns, lifts, ints
        self.denominator = denominator

    def __missing__(self, alpha: Exponent) -> int:
        value = self[alpha] = sum(map(mul, self._ints, self._columns[alpha])) * self._lifts[sum(alpha)]
        return value


@dataclass(frozen=True)
class GradedBasis:
    """Outcome of the elimination: orders, pivots, the transform, and the table.

    ``integer_transform`` is the row-wise matrix T with lambda_i = sum_j T[i][j] mu_j, each
    row as integer numerators over one denominator.  ``moments`` is the span's integer moment
    table; ``lambdas``, their moment rows ``rows`` and T in ``Fraction``s (``transform``) are
    derived from them when first asked for.  No invariants are enforced here;
    ``build_graded_basis`` guarantees them and ``verify_graded`` rechecks
    them on demand (so corrupted instances can be constructed in tests as
    negative controls).
    """

    span: tuple[Functional, ...]
    kappas: tuple[int, ...]
    pivots: tuple[Exponent, ...]
    integer_transform: tuple[tuple[tuple[int, ...], int], ...]
    degree_cap: int
    moments: MomentTable = field(compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.kappas)

    @property
    def dimension(self) -> int:
        return self.span[0].dimension

    @cached_property
    def lambdas(self) -> tuple[Functional, ...]:
        """lambda_i = sum_j T[i][j] mu_j as functionals of their own."""
        return tuple(combine(self.span, row) for row in self.transform)

    @cached_property
    def transform(self) -> tuple[tuple[Fraction, ...], ...]:
        """T in ``Fraction``s, for the functionals, the output and the dense oracles."""
        return tuple(tuple(Fraction(t, den) for t in ints) for ints, den in self.integer_transform)

    def rows(self, top: int) -> tuple[MomentRow, ...]:
        """The rows of L = T V in x, built once for the largest ``top`` asked (``MomentTable.rows``):
        radial images in x read row i up to 2 kappa_i, least parts and Gramians up to kappa_max."""
        return self.moments.rows(self.integer_transform, top)

    def blocks(self) -> list[list[int]]:
        """Indices grouped by order; contiguous since kappa is nondecreasing."""
        groups: list[list[int]] = []
        for i, kappa in enumerate(self.kappas):
            if groups and self.kappas[i - 1] == kappa:
                groups[-1].append(i)
            else:
                groups.append([i])
        return groups

    def pivot_matrix(self) -> list[list[Fraction]]:
        """(lambda_i(x^beta_j))_{i,j}; upper triangular with unit diagonal."""
        return [[lam.moment(beta) for beta in self.pivots] for lam in self.lambdas]


def build_graded_basis(functionals: Sequence[Functional], degree_cap: int | None = None) -> GradedBasis:
    """Eliminate the moment matrix of the given functionals.

    For a span of point combinations the default cap is n-1, which always
    suffices for independent input, and the search stops at degree m-1 for m
    distinct support points whatever the cap.  Spans containing moment functionals
    must pass an explicit cap no larger than any stored moment cap.

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
    if table.cap is not None and degree_cap > table.cap:
        raise DegreeCapError(f"degree cap {degree_cap} exceeds a stored moment cap {table.cap}")

    search_cap, support = degree_cap, ()
    if table.cap is None:  # a nonzero point combination on m distinct points has order <= m - 1
        support = {x for f in span for x in f.points}
        search_cap = min(degree_cap, len(support) - 1)
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    transform: list[tuple[tuple[int, ...], int]] = []
    pivots: list[Exponent] = []
    kappas: list[int] = []
    hull = d  # the support's hull dimension: at most C(k + hull, hull) pivots through degree k
    for k in range(search_cap + 1):
        if k == 2 and support and len(pivots) <= d:  # more pivots through degree 1 mean a hull of R^d
            x0 = next(iter(support))
            hull = len(pivot_columns([[a - b for a, b in zip(x, x0)] for x in support]))
        table.extend(k)
        scale, full = table.scales[k], comb(k + hull, hull)
        for alpha in table.monomials[k]:
            rank = len(pivots)
            if rank == full:  # the remaining rows annihilate Pi_k on the hull: the rest of degree k is zero
                break
            column = table.columns[alpha]
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

    return GradedBasis(
        span=span,
        kappas=tuple(kappas),
        pivots=tuple(pivots),
        integer_transform=tuple(transform),
        degree_cap=degree_cap,
        moments=table,
    )


def verify_graded(basis: GradedBasis, k: int) -> bool:
    """Directly check the degree-k graded property of a basis.

    True iff every lambda_i with kappa_i >= k annihilates all monomials of
    degree < k, and the lambda_i with kappa_i < k show a triangular (hence
    independent) moment pattern on their pivots.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    d = basis.dimension
    for i, lam in enumerate(basis.lambdas):
        if basis.kappas[i] < k:
            continue
        for degree in range(k):
            for alpha in monomials_of_degree(d, degree):
                if lam.moment(alpha) != 0:
                    return False
    head = [i for i in range(basis.size) if basis.kappas[i] < k]
    for row, i in enumerate(head):
        for col, j in enumerate(head):
            value = basis.lambdas[i].moment(basis.pivots[j])
            if row > col and value != 0:
                return False
            if row == col and value == 0:
                return False
    return True
