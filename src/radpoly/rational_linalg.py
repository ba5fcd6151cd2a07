"""Exact linear algebra over the rationals.

Matrices are lists of lists of ``Fraction``.  Pivoting always takes the
first nonzero candidate: with exact arithmetic there is no stability reason
to prefer large pivots, and determinism matters more.

Every elimination here is a view of one forward elimination, ``_echelon``,
which keeps its multipliers, so it is also an exact LU: ``solve`` factors
one block and sweeps, ``factor_block_upper`` factors each diagonal block
once for many right-hand sides, ``determinant`` and ``pivot_columns`` read
the echelon form off, and ``rref`` reduces upward from it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
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
    Returns the reduced rows U (any zero rows last), the pivot columns, the
    number of row swaps, each row's input row (P) and multipliers (L).
    """
    a = [list(row) for row in matrix]
    n_rows, n_cols = len(a), len(a[0]) if a else 0
    order = list(range(n_rows))
    lower: list[list[tuple[int, Fraction]]] = [[] for _ in range(n_rows)]
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
            for rows in (a, order, lower):
                rows[r], rows[pivot] = rows[pivot], rows[r]
            swaps += 1
        head = a[r]
        for i in range(r + 1, n_rows):
            factor = a[i][col] / head[col]
            if factor:
                row = a[i]
                for c in range(col, n_cols):
                    row[c] -= factor * head[c]
                lower[i].append((r, factor))
        pivots.append(col)
    return a, pivots, swaps, order, lower


def solve(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vector:
    """Solve a square system exactly: factor it as one block, then sweep.

    Raises SingularMatrixError when no unique solution exists.
    """
    if any(len(row) != len(rhs) for row in matrix) or len(rhs) != len(matrix):
        raise ValueError("solve needs a square matrix and a matching vector")
    return factor_block_upper(matrix, [range(len(matrix))]).solve(rhs)


def determinant(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    a, pivots, swaps, _, _ = _echelon(matrix)
    if len(pivots) < n:
        return Fraction(0)
    det = Fraction((-1) ** swaps)
    for i in range(n):
        det *= a[i][i]
    return det


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
        a[r] = [v / scale for v in a[r]]
        for i in range(r):
            factor = a[i][col]
            if factor:
                a[i] = [v - factor * w for v, w in zip(a[i], a[r])]
    return a, pivots


def nullspace(matrix: Sequence[Sequence[Fraction]]) -> list[Vector]:
    """Basis of the right nullspace, one vector per free column."""
    if not matrix:
        return []
    reduced, pivots = rref(matrix)
    n_cols = len(matrix[0])
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


class BlockUpperFactors(NamedTuple):
    """A block upper triangular matrix factored for many right-hand sides: per
    block its (row order, multipliers, rows of U) from ``_echelon``; per row,
    (b, entries as integers, denominator) for each later block b it touches."""

    blocks: tuple[tuple[int, ...], ...]
    diagonal: tuple[tuple[tuple, tuple, tuple], ...]
    above: tuple[tuple[tuple[int, tuple[int, ...], int], ...], ...]

    def solve(self, rhs: Sequence[Fraction]) -> Vector:
        """Block back-substitution by two sweeps per block; a solved block is
        kept in integers, so reducing a row by it is one integer product."""
        x: dict[int, Fraction] = {}
        solved: list[tuple[list[int], int]] = [([], 1)] * len(self.blocks)
        for bi in range(len(self.blocks) - 1, -1, -1):
            block, (order, lower, upper) = self.blocks[bi], self.diagonal[bi]
            reduced = [rhs[i] - sum((Fraction(sum(map(mul, nums, solved[b][0])), solved[b][1] * den)
                                     for b, nums, den in self.above[i]), _ZERO) for i in block]
            y: Vector = []
            for k, multipliers in zip(order, lower):
                y.append(reduced[k] - sum((f * y[r] for r, f in multipliers), _ZERO))
            for r in range(len(y) - 1, -1, -1):
                row = upper[r]
                y[r] = (y[r] - sum((v * y[c] for c, v in enumerate(row[r + 1:], r + 1) if v), _ZERO)) / row[r]
            x.update(zip(block, y))
            solved[bi] = integer_vector(y)
        return [x.get(i, _ZERO) for i in range(len(rhs))]


def factor_block_upper(matrix: Sequence[Sequence[Fraction]],
                       blocks: Sequence[Sequence[int]]) -> BlockUpperFactors:
    """Factor each diagonal block once, ``blocks`` listing index groups in order;
    SingularMatrixError when one is singular.  Entries below them are unread."""
    blocks = tuple(map(tuple, blocks))
    above: list[tuple] = [()] * len(matrix)
    diagonal = []
    for bi, block in enumerate(blocks):
        for i in block:
            rows = ((b, integer_vector([matrix[i][j] for j in blocks[b]]))
                    for b in range(bi + 1, len(blocks)))
            above[i] = tuple((b, tuple(nums), den) for b, (nums, den) in rows if any(nums))
        a, pivots, _, order, lower = _echelon([[matrix[i][j] for j in block] for i in block])
        missing = [block[c] for c in range(len(block)) if c not in pivots]
        if missing:
            raise SingularMatrixError(f"no pivot in column {missing[0]}")
        diagonal.append((tuple(order), tuple(map(tuple, lower)), tuple(map(tuple, a))))
    return BlockUpperFactors(blocks, tuple(diagonal), tuple(above))


def solve_block_upper(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction],
                      blocks: Sequence[Sequence[int]]) -> Vector:
    """Solve a block upper triangular system by block back-substitution."""
    return factor_block_upper(matrix, blocks).solve(rhs)
