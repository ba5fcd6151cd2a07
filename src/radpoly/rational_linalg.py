"""Exact linear algebra over the rationals.

Matrices are lists of lists of ``Fraction``.  Pivoting always takes the
first nonzero candidate: with exact arithmetic there is no stability reason
to prefer large pivots, and determinism matters more.

Every elimination here is a view of one forward elimination, ``_echelon``:
``solve`` back-substitutes from the echelon form of ``[A | b]``,
``determinant`` and ``rank`` read it off, and ``rref`` reduces upward from
it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import SingularMatrixError

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def integer_vector(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The values as integer numerators over their least common denominator."""
    denominator = lcm(*(v.denominator for v in values))
    return [v.numerator * (denominator // v.denominator) for v in values], denominator


def transpose(matrix: Sequence[Sequence[Fraction]]) -> Matrix:
    return [list(col) for col in zip(*matrix)]


def mat_vec(matrix: Sequence[Sequence[Fraction]], vector: Sequence[Fraction]) -> Vector:
    return [sum((a * v for a, v in zip(row, vector)), Fraction(0)) for row in matrix]


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Matrix:
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def _echelon(matrix: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int], int]:
    """Row echelon form by forward elimination, on a copy.

    Each pivot is the first nonzero entry at or below the current row; pivot
    rows are not normalized and only the entries below a pivot are cleared.
    Returns the reduced rows (any zero rows last), the pivot columns and the
    number of row swaps.
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
        for i in range(r + 1, n_rows):
            factor = a[i][col] / head[col]
            if factor:
                row = a[i]
                for c in range(col, n_cols):
                    row[c] -= factor * head[c]
        pivots.append(col)
    return a, pivots, swaps


def solve(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> Vector:
    """Solve a square system exactly by Gaussian elimination.

    Raises SingularMatrixError when no unique solution exists.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("solve needs a square matrix and a matching vector")
    a, pivots, _ = _echelon([list(row) + [b] for row, b in zip(matrix, rhs)])
    if pivots[:n] != list(range(n)):
        missing = next((c for c, p in enumerate(pivots) if c != p), len(pivots))
        raise SingularMatrixError(f"no pivot in column {missing}")
    x: Vector = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        row = a[r]
        acc = row[n]
        for c in range(r + 1, n):
            acc -= row[c] * x[c]
        x[r] = acc / row[r]
    return x


def invert(matrix: Sequence[Sequence[Fraction]]) -> Matrix:
    return transpose([solve(matrix, e) for e in identity(len(matrix))])


def determinant(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant needs a square matrix")
    a, pivots, swaps = _echelon(matrix)
    if len(pivots) < n:
        return Fraction(0)
    det = Fraction((-1) ** swaps)
    for i in range(n):
        det *= a[i][i]
    return det


def rank(matrix: Sequence[Sequence[Fraction]]) -> int:
    return len(_echelon(matrix)[1])


def rref(matrix: Sequence[Sequence[Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form with zero rows dropped, plus pivot columns.

    The result is a canonical representative of the row space, so two
    matrices have equal row spaces iff their rref outputs are equal.
    """
    a, pivots, _ = _echelon(matrix)
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


def solve_block_upper(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction],
                      blocks: Sequence[Sequence[int]]) -> Vector:
    """Solve a block upper triangular system by block back-substitution.

    ``blocks`` lists index groups in order; entries of ``matrix`` below the
    block diagonal are assumed zero.  Each diagonal block is solved densely.
    """
    n = len(rhs)
    x: list[Fraction | None] = [None] * n
    for bi in range(len(blocks) - 1, -1, -1):
        idx = list(blocks[bi])
        reduced = []
        for i in idx:
            acc = rhs[i]
            for bj in range(bi + 1, len(blocks)):
                for j in blocks[bj]:
                    if matrix[i][j]:
                        acc -= matrix[i][j] * x[j]
            reduced.append(acc)
        diag = [[matrix[i][j] for j in idx] for i in idx]
        for i, value in zip(idx, solve(diag, reduced)):
            x[i] = value
    return [v if v is not None else Fraction(0) for v in x]
