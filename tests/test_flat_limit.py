"""The least interpolant as the flat limit of Gaussian interpolation: an oracle sharing nothing
with the graded basis.

As t = eps^2 -> 0, the interpolant sum_i a_i(t) mu_i^y exp(-t ||x - y||^2) that matches the
data tends to de Boor and Ron's least interpolant (R. Schaback, Constr. Approx. 21 (2005);
E. Larsson and B. Fornberg, Comput. Math. Appl. 49 (2005)).  Here the system A(t) a = b, with
A_ij = sum_k (-t)^k / k! (mu_i (x) mu_j) ||x - y||^(2k), is solved over truncated Laurent series
with exact rational coefficients, and the t^0 coefficient of the interpolant, a polynomial, must
equal ``least_interpolate(...).interpolant``.  The series track their own precision, so an
answer read past what the truncation determines fails instead of passing by accident.
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from radpoly import (Polynomial, build_graded_basis, from_derivative, least_interpolate, point_evaluation,
                     schaback_interpolate)


class Series:
    """sum over m < prec of coeffs[m] t^m, m possibly negative; the terms from t^prec on are unknown."""

    def __init__(self, coeffs, prec):
        self.coeffs = {m: c for m, c in coeffs.items() if c and m < prec}
        self.prec = prec

    def valuation(self):
        """The lowest exponent known to be nonzero, or prec when none is: self = O(t^valuation)."""
        return min(self.coeffs, default=self.prec)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) - c
        return Series(out, min(self.prec, other.prec))

    def __mul__(self, other):
        out = {}
        for m, c in self.coeffs.items():
            for k, e in other.coeffs.items():
                out[m + k] = out.get(m + k, 0) + c * e
        return Series(out, min(self.valuation() + other.prec, other.valuation() + self.prec))

    def __truediv__(self, other):
        """self / other, other with a known leading term c t^v: its inverse is known below prec - 2 v."""
        v = min(other.coeffs)
        c, length = other.coeffs[v], other.prec - v
        inverse = []
        for j in range(length):
            inverse.append((int(j == 0) - sum(other.coeffs.get(v + i, 0) * inverse[j - i]
                                               for i in range(1, j + 1))) / c)
        return self * Series({j - v: value for j, value in enumerate(inverse)}, length - v)


def solve_series(matrix, rhs):
    """Gauss elimination over truncated Laurent series, each pivot the known entry of lowest valuation."""
    a, b, n = [list(row) for row in matrix], list(rhs), len(rhs)
    for c in range(n):
        p = min((r for r in range(c, n) if a[r][c].coeffs), key=lambda r: a[r][c].valuation())
        a[c], a[p], b[c], b[p] = a[p], a[c], b[p], b[c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
            b[r] = b[r] - f * b[c]
    x = [None] * n
    for c in range(n - 1, -1, -1):
        rest = b[c]
        for j in range(c + 1, n):
            rest = rest - a[c][j] * x[j]
        x[c] = rest / a[c][c]
    return x


def pairing(first, second, k):
    """(mu (x) nu) ||x - y||^(2k) for atoms (site, order): a point in any dimension, or a
    derivative of order a in d = 1, where D_x^a D_y^b (x - y)^(2k) = (-1)^b (2k)!/(2k-a-b)! (x - y)^(2k-a-b)."""
    (x, a), (y, b) = first, second
    if a + b > 2 * k:
        return Fraction(0)
    if a + b:
        return (-1) ** b * Fraction(math.factorial(2 * k), math.factorial(2 * k - a - b)) * (x[0] - y[0]) ** (2 * k - a - b)
    return sum((p - q) ** 2 for p, q in zip(x, y)) ** k


def image(atom, k, d):
    """x |-> mu^y ||x - y||^(2k) as a polynomial in x, for the atoms of ``pairing``."""
    y, b = atom
    if b > 2 * k:
        return Polynomial.zero(d)
    shifted = [Polynomial.variable(d, j) - Polynomial.constant(d, c) for j, c in enumerate(y)]
    if b:
        return (-1) ** b * Fraction(math.factorial(2 * k), math.factorial(2 * k - b)) * shifted[0] ** (2 * k - b)
    return sum((s * s for s in shifted[1:]), shifted[0] * shifted[0]) ** k


def flat_limit(atoms, values, terms):
    """The t^0 coefficient of sum_i a_i(t) mu_i^y exp(-t ||x - y||^2) with A(t) a = b, from ``terms``
    terms of each entry's series."""
    d = len(atoms[0][0])
    pairings = [[[pairing(mu, nu, k) for k in range(terms)] for nu in atoms] for mu in atoms]
    matrix = [[Series({k: Fraction((-1) ** k, math.factorial(k)) * p[k] for k in range(terms)}, terms)
               for p in row] for row in pairings]
    coefficients = solve_series(matrix, [Series({0: Fraction(v)}, math.inf) for v in values])
    limit = Polynomial.zero(d)
    for atom, series in zip(atoms, coefficients):
        assert series.prec > 0, "the truncation does not determine the t^0 coefficient"
        for m, c in series.coeffs.items():
            if m <= 0:  # a_i[m] t^m times the t^(-m) term (-1)^k/k! ||x - y||^(2k) of the exponential
                limit = limit + c * Fraction((-1) ** -m, math.factorial(-m)) * image(atom, -m, d)
    return limit


def check_flat_limit(atoms, values):
    """The flat limit, from 2 kappa_max + 2 series terms, is the least interpolant."""
    cap = 2 * len(atoms)
    span = [point_evaluation(x) if not a else from_derivative((a,), x, cap) for x, a in atoms]
    graded = build_graded_basis(span, None if all(a == 0 for _, a in atoms) else len(atoms))
    report = least_interpolate(graded, data=values)
    assert flat_limit(atoms, values, 2 * graded.kappas[-1] + 2) == report.interpolant


def test_the_planar_four_point_set():
    """Four points spanning the plane with a nonzero four-point moment: least and Schaback differ."""
    atoms, values = [((0, 0), 0), ((1, 0), 0), ((0, 1), 0), ((1, 2), 0)], [3, -1, 2, 5]
    check_flat_limit(atoms, values)
    graded = build_graded_basis([point_evaluation(x) for x, _ in atoms])
    assert flat_limit(atoms, values, 6) != schaback_interpolate(graded, data=values).interpolant


def test_values_and_first_derivatives_at_three_sites():
    atoms = [((Fraction(x),), a) for x in (-1, Fraction(1, 2), 2) for a in (0, 1)]
    check_flat_limit(atoms, [1, 0, Fraction(-2, 3), 4, 2, -1])


@st.composite
def point_sets(draw):
    d = draw(st.integers(1, 2))
    coordinate = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    points = draw(st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=5, unique=True))
    values = draw(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=3),
                           min_size=len(points), max_size=len(points)))
    return [(x, 0) for x in points], values


@given(point_sets())
@settings(deadline=None, max_examples=15)
def test_the_flat_limit_of_point_sets_is_the_least_interpolant(case):
    check_flat_limit(*case)
