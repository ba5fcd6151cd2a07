"""Exact linear algebra: every view checked against an independent oracle."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from radpoly import SingularMatrixError
from radpoly.rational_linalg import (
    BlockUpperFactors,
    _echelon,
    _ldl,
    determinant,
    factor_block_upper,
    identity,
    mat_vec,
    pivot_columns,
    rref,
    solve,
    solve_block_upper,
    transpose,
)


def mat_mul(a, b):
    """Oracle: the matrix product by rows and columns."""
    bt = transpose(b)
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in bt] for row in a]


def invert(matrix):
    """Oracle: the inverse, one solve per unit vector."""
    return transpose([solve(matrix, e) for e in identity(len(matrix))])


def to_matrix(rows):
    return [[Fraction(v) for v in row] for row in rows]


def square(max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ).map(to_matrix)


def rectangular(max_rows, max_cols):
    return st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(-3, 3), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0],
        )
    ).map(to_matrix)


def leibniz(matrix):
    """Determinant as the signed sum over permutations."""
    n = len(matrix)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = Fraction(-1) ** inversions
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


def random_symmetric(rng, n):
    """(M^T D M, M, D): M unit upper triangular, D diagonal with nonzero entries of mixed signs."""
    m = identity(n)
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
        for j in range(i + 1, n):
            m[i][j] = Fraction(rng.randint(-2, 2))
    return mat_mul(mat_mul(transpose(m), d), m), m, d


def random_invertible(rng, n):
    """Product of unit lower and unit upper triangular integer matrices."""
    lower = identity(n)
    upper = identity(n)
    for i in range(n):
        for j in range(i):
            lower[i][j] = Fraction(rng.randint(-2, 2))
            upper[j][i] = Fraction(rng.randint(-2, 2))
    return mat_mul(lower, upper)


@settings(max_examples=60, deadline=None)
@given(square(4))
def test_determinant_matches_the_permutation_sum(a):
    assert determinant(a) == leibniz(a)


@settings(max_examples=60, deadline=None)
@given(square(5), st.lists(st.integers(-9, 9), min_size=5, max_size=5))
def test_solve_is_exact_or_reports_singularity(a, values):
    b = [Fraction(v) for v in values[:len(a)]]
    if determinant(a) == 0:
        with pytest.raises(SingularMatrixError):
            solve(a, b)
    else:
        assert mat_vec(a, solve(a, b)) == b


def test_solve_rejects_a_zero_column_and_a_repeated_row():
    with pytest.raises(SingularMatrixError):
        solve(to_matrix([[0, 1], [0, 2]]), to_matrix([[1, 2]])[0])
    with pytest.raises(SingularMatrixError):
        solve(to_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]]), to_matrix([[1, 2, 3]])[0])


def test_solve_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        solve(to_matrix([[1, 2]]), [Fraction(1)])
    with pytest.raises(ValueError):
        solve(to_matrix([[1, 0], [0, 1]]), [Fraction(1)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.randoms(use_true_random=False))
def test_symmetric_blocks_factor_as_l_d_lt(n, rng):
    """B = M^T D M factors without row swaps as B = L U with U = D L^T, L = M^T."""
    b, m, d = random_symmetric(rng, n)
    (multipliers, right, pivots), = factor_block_upper(b, [range(n)]).diagonal
    lower, upper = identity(n), [[Fraction(0)] * n for _ in range(n)]
    for i, row in enumerate(multipliers):
        for r, num, den in row:
            assert r < i and num != 0
            lower[i][r] = Fraction(num, den)
    for r, (row, (num, den)) in enumerate(zip(right, pivots)):
        upper[r][r] = Fraction(num, den)
        for c, num, den in row:
            assert c > r and num != 0
            upper[r][c] = Fraction(num, den)
    assert lower == transpose(m)
    assert mat_mul(lower, upper) == b
    assert upper == mat_mul(d, transpose(lower))


def test_a_block_that_needs_a_row_swap_is_singular():
    a = to_matrix([[0, 1], [1, 0]])
    with pytest.raises(SingularMatrixError):
        factor_block_upper(a, [range(2)])
    assert solve(a, to_matrix([[2, 3]])[0]) == to_matrix([[3, 2]])[0]


@settings(max_examples=40, deadline=None)
@given(square(4))
def test_invert_is_a_left_inverse(a):
    if determinant(a) == 0:
        with pytest.raises(SingularMatrixError):
            invert(a)
    else:
        assert mat_mul(invert(a), a) == identity(len(a))


@settings(max_examples=60, deadline=None)
@given(rectangular(5, 5))
def test_rank_counts_the_rref_rows(a):
    reduced, pivots = rref(a)
    assert pivot_columns(a) == pivots
    assert len(reduced) == len(pivots)


@settings(max_examples=60, deadline=None)
@given(rectangular(5, 5), st.randoms(use_true_random=False))
def test_rref_is_canonical(a, rng):
    reduced, pivots = rref(a)
    assert rref(reduced) == (reduced, pivots)
    for r, p in enumerate(pivots):
        assert [row[p] for row in reduced] == [int(i == r) for i in range(len(reduced))]
    mixed = mat_mul(random_invertible(rng, len(a)), a)
    assert rref(mixed) == (reduced, pivots)


def dense_echelon(matrix):
    """Oracle: forward elimination over every entry of every row below the pivot."""
    a = [list(row) for row in matrix]
    n_rows, n_cols = len(a), len(a[0]) if a else 0
    pivots, swaps = [], 0
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


def dense_rref(matrix):
    """Oracle: the dense upward reduction of ``dense_echelon``'s rows."""
    a, pivots = dense_echelon(matrix)[:2]
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


@st.composite
def sparse_matrices(draw):
    """Rational matrices up to 7 x 8, most entries zero, with some rows and columns all zero."""
    n_rows, n_cols = draw(st.integers(1, 7)), draw(st.integers(1, 8))
    entry = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)))
    a = draw(st.lists(st.lists(entry, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows))
    zero_rows = draw(st.sets(st.integers(0, n_rows - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, n_cols - 1), max_size=2))
    return [[Fraction(0) if i in zero_rows or j in zero_cols else v for j, v in enumerate(row)]
            for i, row in enumerate(a)]


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_sparse_elimination_matches_the_dense_loops(a):
    """Walking only nonzero entries keeps every pivot, swap and value of the dense loops."""
    rows, pivots, swaps = dense_echelon(a)
    assert _echelon(a) == (rows, pivots, swaps)
    assert pivot_columns(a) == pivots
    assert rref(a) == dense_rref(a)
    square_part = [row[:len(a)] for row in a[:len(a[0])]]
    rows, pivots, swaps = dense_echelon(square_part)
    expected = math.prod((rows[i][i] for i in range(len(rows))), start=Fraction((-1) ** swaps))
    assert determinant(square_part) == (expected if len(pivots) == len(rows) else 0)


def test_empty_inputs():
    assert pivot_columns([]) == []
    assert rref([]) == ([], [])
    assert solve([], []) == []
    assert determinant([]) == 1


def block_upper(rng, largest):
    """(matrix, blocks): block upper triangular, zeros below the blocks, and diagonal
    blocks M^T D M of sizes 1..largest, symmetric and factored with no row swap."""
    sizes = [rng.randint(1, largest) for _ in range(rng.randint(1, 4))]
    blocks, start = [], 0
    for size in sizes:
        blocks.append(list(range(start, start + size)))
        start += size
    n = start
    block_of = {i: bi for bi, block in enumerate(blocks) for i in block}
    a = [[Fraction(0)] * n for _ in range(n)]
    for block in blocks:
        diag, _, _ = random_symmetric(rng, len(block))
        for r, i in enumerate(block):
            for c, j in enumerate(block):
                a[i][j] = diag[r][c]
    for i in range(n):
        for j in range(n):
            if block_of[j] > block_of[i]:
                a[i][j] = Fraction(rng.randint(-5, 5))
    return a, blocks


@pytest.mark.parametrize("seed", range(12))
def test_block_upper_solve_agrees_with_solve(seed):
    rng = random.Random(seed)
    a, blocks = block_upper(rng, 3)
    n = len(a)
    for _ in range(3):
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        x = solve_block_upper(a, b, blocks)
        assert x == solve(a, b) == solve_block_upper(a, b, blocks)
        assert mat_vec(a, x) == b


@pytest.mark.parametrize("seed", range(8))
def test_block_factor_reads_only_the_upper_triangle_of_each_block(seed):
    """Entries below the diagonal of a block and below the blocks are never read:
    filled with arbitrary values, they change neither the factors nor the solves."""
    rng = random.Random(seed)
    clean, blocks = block_upper(rng, 4)
    n = len(clean)
    noisy = [list(row) for row in clean]
    for i in range(n):
        for j in range(i):
            noisy[i][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
    factors = factor_block_upper(clean, blocks)
    assert factor_block_upper(noisy, blocks) == factors
    b = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
    assert solve_block_upper(noisy, b, blocks) == solve_block_upper(clean, b, blocks) == solve(clean, b)


def test_block_upper_solve_reports_a_singular_diagonal_block():
    a = to_matrix([[1, 5], [0, 0]])
    with pytest.raises(SingularMatrixError):
        solve_block_upper(a, [Fraction(1), Fraction(1)], [[0], [1]])
    with pytest.raises(SingularMatrixError, match="no pivot in column 1"):
        factor_block_upper(a, [[0], [1]])


def mixed_rationals(nonzero=False):
    """Rationals from one bit up to a few hundred bits in numerator and denominator."""
    numerators = st.one_of(st.integers(-3, 3), st.integers(-2 ** 300, 2 ** 300))
    if nonzero:
        numerators = numerators.filter(bool)
    return st.builds(Fraction, numerators, st.one_of(st.integers(1, 4), st.integers(1, 2 ** 200)))


@st.composite
def symmetric_blocks(draw):
    """(block, sign): M^T D M with M unit upper triangular, of mixed-size rationals and zeros (a
    zero M[0][j] is a zero B[0][j]), and D diagonal: B negative definite (sign -1), positive
    definite (1) or of mixed signs (0)."""
    n, sign = draw(st.integers(1, 5)), draw(st.sampled_from([-1, 0, 1]))
    m = identity(n)
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = draw(st.one_of(st.just(Fraction(0)), mixed_rationals()))
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = abs(draw(mixed_rationals(nonzero=True))) * (sign or draw(st.sampled_from([-1, 1])))
    return mat_mul(mat_mul(transpose(m), d), m), sign


@settings(max_examples=60, deadline=None)
@given(st.lists(symmetric_blocks(), min_size=1, max_size=3), st.data())
def test_pair_factors_and_sweeps_match_the_rref_solve(blocks, data):
    """Factor and sweep on integer pairs give solve's rationals, and every stored and every
    returned pair is in lowest terms with a positive denominator, so no entry is taller than
    ``Fraction``'s."""
    n = sum(len(block) for block, _ in blocks)
    matrix, groups, start = [[Fraction(0)] * n for _ in range(n)], [], 0
    for block, _ in blocks:
        groups.append(list(range(start, start + len(block))))
        for r, row in enumerate(block):
            matrix[start + r][start:start + len(block)] = row
        start += len(block)
    factors = factor_block_upper(matrix, groups)
    for (lower, upper, pivots), (_, sign) in zip(factors.diagonal, blocks):
        stored = [(num, den) for row in lower + upper for _, num, den in row] + list(pivots)
        assert all(den > 0 and math.gcd(num, den) == 1 and num for num, den in stored)
        assert sign == 0 or all(num * sign > 0 for num, _ in pivots)
    rhs = data.draw(st.lists(mixed_rationals(), min_size=n, max_size=n))
    lift = data.draw(st.integers(1, 2 ** 64))  # sweep reduces pairs that are not in lowest terms
    solution = [v for bi, block in enumerate(factors.blocks)
                for v in factors.sweep(bi, [(rhs[i].numerator * lift, rhs[i].denominator * lift) for i in block])]
    assert all(den > 0 and math.gcd(num, den) == 1 for num, den in solution)  # zero as (0, 1)
    assert [Fraction(num, den) for num, den in solution] == solve(matrix, rhs)


@settings(max_examples=60, deadline=None)
@given(symmetric_blocks(), st.data())
def test_sweeps_through_an_outer_factor_match_the_rref_solve(block, data):
    """A block held as C H C^T, C unit upper triangular (the ``outer`` rows) and only H factored,
    sweeps by C^-1, H's two factors and C^-T to solve's rationals on C H C^T, each pair in lowest
    terms with a positive denominator."""
    h, _ = block
    n = len(h)
    c = identity(n)
    for i in range(n):
        for j in range(i + 1, n):
            c[i][j] = data.draw(st.one_of(st.just(Fraction(0)), mixed_rationals()))
    outer = tuple(tuple((j, v.numerator, v.denominator) for j, v in enumerate(row[i + 1:], i + 1) if v)
                  for i, row in enumerate(c))
    factors = BlockUpperFactors((tuple(range(n)),), (_ldl(h, "H", range(n)),), (outer,))
    rhs = data.draw(st.lists(mixed_rationals(), min_size=n, max_size=n))
    lift = data.draw(st.integers(1, 2 ** 64))
    solution = factors.sweep(0, [(v.numerator * lift, v.denominator * lift) for v in rhs])
    assert all(den > 0 and math.gcd(num, den) == 1 for num, den in solution)
    assert [Fraction(num, den) for num, den in solution] == solve(mat_mul(mat_mul(c, h), transpose(c)), rhs)
    assert factors._replace(outer=(None,)).sweep(0, [(v.numerator, v.denominator) for v in rhs]) == [
        (v.numerator, v.denominator) for v in solve(h, rhs)]
