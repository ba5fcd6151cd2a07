"""Exact linear algebra over the rationals.

Matrices are lists of lists of ``Fraction``.  Pivoting always takes the
first nonzero candidate: with exact arithmetic there is no stability reason
to prefer large pivots, and determinism matters more.

Every general elimination here is a view of one forward elimination, ``_echelon``:
``determinant`` and ``pivot_columns`` read its echelon form off, ``rref`` reduces
upward from it and ``solve`` is the rref of [A | b]; both passes walk a pivot row's nonzero
entries only, into the rows whose entry in its column is nonzero.  ``factor_block_upper`` runs
L D L^T on each symmetric diagonal block's upper triangle instead; each caller
reduces a block's right-hand side by the blocks solved, for ``sweep`` to solve it.
Both run on (numerator, denominator) integer pairs, each step reduced to lowest terms
with a positive denominator by ``_sub_mul``'s gcds: ``Fraction``'s values and heights.

There is no kernel routine: the one annihilator read (of the affine functions on a planar
4-set) is the order-2 member of the graded basis that ``graded``'s elimination finds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import NamedTuple, Sequence

from .errors import SingularMatrixError

Matrix = list[list[Fraction]]
Vector = list[Fraction]

_ZERO = Fraction(0)


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def integer_vector(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values as integer numerators over their least common denominator."""
    denominator = lcm(*{v.denominator for v in values})
    return [v.numerator * (denominator // v.denominator) for v in values], denominator


def transpose(matrix: Sequence[Sequence[Fraction]]) -> Matrix:
    return [list(col) for col in zip(*matrix)]


def mat_vec(matrix: Sequence[Sequence[Fraction]], vector: Sequence[Fraction]) -> Vector:
    return [sum((a * v for a, v in zip(row, vector)), Fraction(0)) for row in matrix]


def _echelon(matrix: Sequence[Sequence[Fraction]]):
    """Row echelon form by forward elimination, on a copy.

    Each pivot is the first nonzero entry at or below the current row; pivot
    rows are not normalized and only the entries below a pivot are cleared.
    Returns the rows U (any zero rows last), the pivot columns and the swap count.
    """
    a = [list(row) for row in matrix]
    n_rows, n_cols = len(a), len(a[0]) if a else 0
    pivots: list[int] = []
    swaps = 0
    for col in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if a[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            a[r], a[pivot] = a[pivot], a[r]
            swaps += 1
        head = a[r]
        support = [(c, v) for c, v in enumerate(head[col:], col) if v]
        for row in a[r + 1:]:
            if row[col]:
                factor = row[col] / head[col]
                for c, v in support:
                    row[c] -= factor * v
        pivots.append(col)
    return a, pivots, swaps


def solve(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vector:
    """Solve a square system exactly: the last column of the rref of [A | b].

    Raises SingularMatrixError when no unique solution exists.
    """
    n = len(rhs)
    if any(len(row) != n for row in matrix) or len(matrix) != n:
        raise ValueError("solve needs a square matrix and a matching vector")
    reduced, pivots = rref([[*row, v] for row, v in zip(matrix, rhs)])
    if pivots != list(range(n)):
        raise SingularMatrixError(f"no pivot in column {min(set(range(n)) - set(pivots))}")
    return [row[n] for row in reduced]


def determinant(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    a, pivots, swaps = _echelon(matrix)
    return prod((a[i][i] for i in range(n)), start=Fraction((-1) ** swaps)) if len(pivots) == n else _ZERO


def pivot_columns(matrix: Sequence[Sequence[Fraction]]) -> list[int]:
    """The pivot columns of a row echelon form; their number is the rank."""
    return _echelon(matrix)[1]


def rref(matrix: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form with zero rows dropped, plus pivot columns.

    The result is a canonical representative of the row space, so two
    matrices have equal row spaces iff their rref outputs are equal.
    """
    a, pivots = _echelon(matrix)[:2]
    del a[len(pivots):]
    for r in range(len(pivots) - 1, -1, -1):
        col = pivots[r]
        scale = a[r][col]
        a[r] = [v and v / scale for v in a[r]]
        support = [(c, v) for c, v in enumerate(a[r][col:], col) if v]
        for row in a[:r]:
            if factor := row[col]:
                for c, v in support:
                    row[c] -= factor * v
    return a, pivots


def _sub_mul(n: int, d: int, a: int, b: int, p: int, q: int) -> tuple[int, int]:
    """n/d - (a/b)(p/q) from lowest-terms operands, in lowest terms with a positive denominator:
    the product cross-cancels by two gcds, the difference by the denominators' gcd, as in ``Fraction``."""
    g, h = gcd(a, q), gcd(p, b)
    a, b = a // g * (p // h), b // h * (q // g)
    g = gcd(d, b)
    t = n * (b // g) - a * (d // g)
    h = gcd(t, g)
    return t // h, d // g * (b // h)


def _quotient(n: int, d: int, p: int, q: int) -> tuple[int, int]:
    """(n/d) / (p/q), p nonzero, in lowest terms with a positive denominator."""
    g, h = gcd(n, p), gcd(q, d)
    n, d = n // g * (q // h), d // h * (p // g)
    return (-n, -d) if d < 0 else (n, d)


class BlockUpperFactors(NamedTuple):
    """The diagonal blocks of a block upper triangular matrix factored for many right-hand
    sides, B = L U per block, in (numerator, positive denominator) pairs in lowest terms, as
    tall as ``Fraction``'s: the rows of L as their nonzero (r, num, den) left of the diagonal,
    the rows of U as their nonzero (c, num, den) right of it, and the pivots U[r][r] as pairs."""

    blocks: tuple[tuple[int, ...], ...]
    diagonal: tuple[tuple[tuple, tuple, tuple], ...]

    def sweep(self, bi: int, values: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
        """Solve block ``bi`` for ``values``, its right-hand side less the later blocks' part, by L
        then U: (numerator, positive denominator) pairs in any terms in, pairs in lowest terms out."""
        lower, upper, pivots = self.diagonal[bi]
        y: list[tuple[int, int]] = []
        for (n, d), row in zip(values, lower):
            n, d = n // (g := gcd(n, d)), d // g
            for r, a, b in row:
                p, q = y[r]
                if p:
                    n, d = _sub_mul(n, d, a, b, p, q)
            y.append((n, d))
        for r in range(len(y) - 1, -1, -1):
            n, d = y[r]
            for c, a, b in upper[r]:
                p, q = y[c]
                if p:
                    n, d = _sub_mul(n, d, a, b, p, q)
            y[r] = _quotient(n, d, *pivots[r])
        return y


def factor_block_upper(matrix: Sequence[Sequence[Fraction]],
                       blocks: Sequence[Sequence[int]]) -> BlockUpperFactors:
    """Factor each diagonal block once, ``blocks`` listing index groups in order.  The
    blocks must be symmetric; only their upper triangles are read.  L D L^T with no row
    swap: row r of U = D L^T is the block's row r after step r, whose multipliers are
    L[i][r] = U[r][i] / U[r][r].  SingularMatrixError when step r of a block meets a zero
    pivot (a zero leading minor): with no row swap, that column has no pivot."""
    blocks = tuple(map(tuple, blocks))
    diagonal = []
    for bi, block in enumerate(blocks):
        m = len(block)
        a = [[(0, 1)] * r + [(v.numerator, v.denominator) for v in (matrix[i][j] for j in block[r:])]
             for r, i in enumerate(block)]
        lower: list[list[tuple[int, int, int]]] = [[] for _ in block]
        for r, head in enumerate(a):
            pn, pd = head[r]
            if not pn:
                raise SingularMatrixError(f"diagonal block {bi}: no pivot in column {block[r]}")
            for i in range(r + 1, m):
                if head[i][0]:
                    fn, fd = _quotient(*head[i], pn, pd)
                    lower[i].append((r, fn, fd))
                    for c in range(i, m):
                        if head[c][0]:
                            a[i][c] = _sub_mul(*a[i][c], fn, fd, *head[c])
        upper = (tuple((c, *v) for c, v in enumerate(row[r + 1:], r + 1) if v[0]) for r, row in enumerate(a))
        diagonal.append((tuple(map(tuple, lower)), tuple(upper), tuple(row[r] for r, row in enumerate(a))))
    return BlockUpperFactors(blocks, tuple(diagonal))


def solve_block_upper(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction],
                      blocks: Sequence[Sequence[int]]) -> Vector:
    """Solve a block upper triangular system by block back-substitution, from the last block."""
    factors, x = factor_block_upper(matrix, blocks), {}
    for bi, block in reversed(list(enumerate(factors.blocks))):
        reduced = [rhs[i] - sum((matrix[i][j] * v for j, v in x.items()), _ZERO) for i in block]
        solved = factors.sweep(bi, [(v.numerator, v.denominator) for v in reduced])
        x.update((i, Fraction(num, den)) for i, (num, den) in zip(block, solved))
    return [x.get(i, _ZERO) for i in range(len(rhs))]
