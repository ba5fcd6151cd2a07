"""Graded bases of finite-dimensional spaces of linear functionals.

Gauss elimination with row interchanges, applied to the formally
n-by-infinite moment matrix (mu_i(x^alpha)) whose columns are generated
lazily in graded monomial order, turns an independent family mu_1..mu_n
into a basis lambda_1..lambda_n with:

* nondecreasing orders kappa_1 <= ... <= kappa_n,
* for each i a pivot monomial beta_i with |beta_i| = kappa_i such that
  lambda_i annihilates every monomial preceding beta_i in the column order
  and lambda_i(x^beta_i) = 1,
* for each k, the tail {lambda_i : kappa_i >= k} a basis of the subspace of
  span(mu) annihilating all polynomials of degree < k.

Pivot rows are chosen as the first remaining row with a nonzero entry, and
pivots are normalized to 1: exact arithmetic needs no magnitude pivoting,
and a deterministic, reproducible outcome is worth more.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DegreeCapError, DimensionMismatchError, RankDeficientError
from .functionals import Functional, MomentFunctional, combine
from .polynomials import Exponent, monomials_of_degree
from .rational_linalg import identity


@dataclass(frozen=True)
class GradedBasis:
    """Outcome of the elimination: basis, orders, pivots, and the transform.

    ``transform`` is the row-wise matrix T with lambda_i = sum_j T[i][j] mu_j.
    No invariants are enforced here; ``build_graded_basis`` guarantees them
    and ``verify_graded`` rechecks them on demand (so corrupted instances can
    be constructed in tests as negative controls).
    """

    span: tuple[Functional, ...]
    lambdas: tuple[Functional, ...]
    kappas: tuple[int, ...]
    pivots: tuple[Exponent, ...]
    transform: tuple[tuple[Fraction, ...], ...]
    degree_cap: int

    @property
    def size(self) -> int:
        return len(self.lambdas)

    @property
    def dimension(self) -> int:
        return self.span[0].dimension

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


def build_graded_basis(functionals: Sequence[Functional], degree_cap: int | None = None,
                       *, ascending_ties: bool = False) -> GradedBasis:
    """Eliminate the moment matrix of the given functionals.

    For a span of point combinations the default cap is n-1, which always
    suffices for independent input.  Spans containing moment functionals
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

    moment_caps = [f.degree_cap for f in span if isinstance(f, MomentFunctional)]
    if degree_cap is None:
        if moment_caps:
            raise ValueError("spans with moment functionals need an explicit degree cap")
        degree_cap = max(n - 1, 0)
    if degree_cap < 0:
        raise ValueError("degree cap must be >= 0")
    if moment_caps and degree_cap > min(moment_caps):
        raise DegreeCapError(
            f"degree cap {degree_cap} exceeds a stored moment cap {min(moment_caps)}"
        )

    transform = identity(n)
    pivots: list[Exponent] = []
    kappas: list[int] = []
    rank = 0
    for k in range(degree_cap + 1):
        for alpha in monomials_of_degree(d, k, ascending_ties=ascending_ties):
            column = [f.moment(alpha) for f in span]
            values = {}
            pivot_row = None
            for i in range(rank, n):
                v = sum(
                    (transform[i][j] * column[j] for j in range(n) if transform[i][j]),
                    Fraction(0),
                )
                values[i] = v
                if v != 0 and pivot_row is None:
                    pivot_row = i
            if pivot_row is None:
                continue
            if pivot_row != rank:
                transform[rank], transform[pivot_row] = transform[pivot_row], transform[rank]
                values[rank], values[pivot_row] = values[pivot_row], values[rank]
            pivot_value = values[rank]
            transform[rank] = [t / pivot_value for t in transform[rank]]
            for i in range(rank + 1, n):
                if values[i]:
                    transform[i] = [
                        t - values[i] * p for t, p in zip(transform[i], transform[rank])
                    ]
            pivots.append(alpha)
            kappas.append(k)
            rank += 1
            if rank == n:
                break
        if rank == n:
            break
    if rank < n:
        raise RankDeficientError(achieved_rank=rank, size=n, degree_cap=degree_cap)

    lambdas = tuple(combine(span, row) for row in transform)
    return GradedBasis(
        span=span,
        lambdas=lambdas,
        kappas=tuple(kappas),
        pivots=tuple(pivots),
        transform=tuple(tuple(row) for row in transform),
        degree_cap=degree_cap,
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
