"""Exact polynomial arithmetic, monomial order, and the power-series pairing."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from radpoly import DimensionMismatchError, Polynomial, monomial_sequence
from radpoly.polynomials import as_fraction, graded_key, monomials_of_degree, substitute_affine
from test_graded import reversed_monomials
from test_interpolation import apolar


def poly(d, terms):
    return Polynomial(d, terms)


X1 = Polynomial.variable(2, 0)
X2 = Polynomial.variable(2, 1)


def recursive_monomials(d, degree, ascending_ties=False):
    """Order oracle: the first exponent in tie order, then the rest recursively (d levels deep)."""
    if d == 1:
        return [(degree,)]
    firsts = range(degree + 1) if ascending_ties else range(degree, -1, -1)
    return [(first,) + rest for first in firsts
            for rest in recursive_monomials(d - 1, degree - first, ascending_ties)]


class TestMonomialSequence:
    def test_univariate(self):
        assert monomial_sequence(1, 2) == [(0,), (1,), (2,)]

    def test_bivariate_degree_one(self):
        assert monomial_sequence(2, 1) == [(0, 0), (1, 0), (0, 1)]

    def test_bivariate_degree_two(self):
        assert monomial_sequence(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    @pytest.mark.parametrize("ascending_ties", [False, True])
    def test_matches_the_recursive_order(self, ascending_ties):
        """The canonical order, and the reversed one the tests eliminate in."""
        enumerate_ties = reversed_monomials if ascending_ties else monomials_of_degree
        for d in range(1, 7):
            for degree in range(8):
                assert list(enumerate_ties(d, degree)) == recursive_monomials(d, degree, ascending_ties)

    def test_counts_match_binomials(self):
        assert len(monomial_sequence(3, 4)) == 35  # C(4+3,3)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            monomial_sequence(1, -1)
        with pytest.raises(ValueError):
            list(monomials_of_degree(0, 2))


class TestArithmetic:
    def test_difference_of_squares(self):
        assert (X1 + X2) * (X1 - X2) == X1 * X1 - X2 * X2

    def test_additive_inverse_gives_zero(self):
        p = poly(2, {(1, 0): 3, (0, 2): Fraction(-1, 2)})
        assert (p + (-1) * p).is_zero
        assert (p - p).degree == -1

    def test_binomial_square(self):
        one_plus_x = Polynomial.constant(1, 1) + Polynomial.variable(1, 0)
        assert one_plus_x**2 == poly(1, {(0,): 1, (1,): 2, (2,): 1})

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            Polynomial.variable(1, 0) + Polynomial.variable(2, 0)

    def test_scalar_multiplication_parses_strings(self):
        assert "1/2" * poly(1, {(1,): 2}) == poly(1, {(1,): 1})


class TestEvaluation:
    def test_monomial_at_point(self):
        p = poly(2, {(2, 1): 1})
        assert p((2, 3)) == 12

    def test_zero_polynomial(self):
        assert Polynomial.zero(3)((1, 2, 3)) == 0

    def test_unit_circle_point(self):
        assert Polynomial.squared_norm(2)((Fraction(3, 5), Fraction(4, 5))) == 1

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            Polynomial.squared_norm(2)((1,))


class TestApolarPairing:
    def test_square_against_itself(self):
        p = poly(1, {(2,): 1})
        assert apolar(p, p) == 2  # 2! * 1 * 1

    def test_disjoint_support(self):
        assert apolar(X1, X2) == 0

    def test_termwise_value(self):
        f = poly(2, {(1, 1): 1, (2, 0): 1})
        g = poly(2, {(1, 1): 3})
        assert apolar(f, g) == 3

    def test_scaled_monomials_are_dual(self):
        for alpha in monomial_sequence(2, 3):
            for beta in monomial_sequence(2, 3):
                f = Polynomial.monomial(2, alpha, Fraction(1, _factorial(alpha)))
                g = Polynomial.monomial(2, beta)
                assert apolar(f, g) == (1 if alpha == beta else 0)


def _factorial(alpha):
    out = 1
    for e in alpha:
        for i in range(2, e + 1):
            out *= i
    return out


class TestAffineSubstitution:
    def test_identity_is_noop(self):
        p = poly(2, {(2, 0): 1})
        assert p.compose_affine([[1, 0], [0, 1]]) == p

    def test_coordinate_swap(self):
        swap = [[0, 1], [1, 0]]
        assert X1.compose_affine(swap) == X2

    def test_shift_expands_binomially(self):
        p = poly(2, {(2, 0): 1})
        shifted = p.compose_affine([[1, 0], [0, 1]], (1, 0))
        assert shifted == poly(2, {(2, 0): 1, (1, 0): 2, (0, 0): 1})

    def test_translate_matches_compose(self):
        p = poly(2, {(1, 1): 2, (0, 2): 1})
        assert p.translate((3, -1)) == p.compose_affine([[1, 0], [0, 1]], (3, -1))

    def test_malformed_shapes_raise(self):
        p = poly(2, {(1, 1): 1})
        for matrix, shift in [
            ([[1, 0]], None),  # one row for two variables
            ([[1, 0], [0, 1], [1, 1]], None),  # three rows
            ([[1, 0], [1]], None),  # ragged rows
            ([[], []], None),  # rows of length zero
            ([[1, 0], [0, 1]], (1,)),  # shift of the wrong length
            ([[1, 0], [0, 1]], (1, 2, 3)),
        ]:
            with pytest.raises(DimensionMismatchError):
                p.compose_affine(matrix, shift)
        with pytest.raises(DimensionMismatchError):  # polynomials of mixed dimension
            substitute_affine([p, poly(1, {(1,): 1})], [[1, 0], [0, 1]])
        with pytest.raises(TypeError):
            p.compose_affine([[1.0, 0], [0, 1]])


# ---------------------------------------------------------------------------
# Randomized algebra laws


@st.composite
def _poly_triple(draw):
    d = draw(st.integers(1, 3))
    out = []
    for _ in range(3):
        size = draw(st.integers(0, 4))
        terms = {}
        for _ in range(size):
            alpha = tuple(draw(st.integers(0, 3)) for _ in range(d))
            terms[alpha] = terms.get(alpha, 0) + draw(
                st.fractions(min_value=-9, max_value=9, max_denominator=5)
            )
        out.append(Polynomial(d, terms))
    return tuple(out)


@given(_poly_triple())
@settings(deadline=None)
def test_ring_axioms(triple):
    p, q, r = triple
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(_poly_triple())
@settings(deadline=None)
def test_degree_is_additive_without_cancellation(triple):
    p, q, _ = triple
    if not p.is_zero and not q.is_zero:
        assert (p * q).degree == p.degree + q.degree
    else:
        assert (p * q).is_zero


@given(_poly_triple(), st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)))
@settings(deadline=None)
def test_evaluation_is_a_ring_homomorphism(triple, raw_point):
    p, q, _ = triple
    point = raw_point[: p.dimension]
    assert (p * q)(point) == p(point) * q(point)
    assert (p + q)(point) == p(point) + q(point)


@given(_poly_triple())
@settings(deadline=None, max_examples=50)
def test_invertible_substitution_round_trips(triple):
    p, _, _ = triple
    d = p.dimension
    # unit upper triangular matrices are exactly invertible over the rationals
    matrix = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            matrix[i][j] = Fraction(1 + i + j)
    inverse = _invert_unit_upper(matrix)
    assert p.compose_affine(matrix).compose_affine(inverse) == p


@st.composite
def _affine_cases(draw):
    """Polynomials in r variables (the zero one included), a rational r-by-m
    matrix, a rational shift or none, and a rational point in m variables."""
    r, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rational = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    alpha = st.tuples(*[st.integers(0, 3)] * r)
    polys = draw(st.lists(
        st.dictionaries(alpha, rational, max_size=4).map(lambda terms: Polynomial(r, terms)),
        min_size=1, max_size=3))
    matrix = draw(st.lists(st.lists(rational, min_size=m, max_size=m), min_size=r, max_size=r))
    shift = draw(st.none() | st.lists(rational, min_size=r, max_size=r))
    point = draw(st.lists(rational, min_size=m, max_size=m))
    return polys, matrix, shift, point


@given(_affine_cases())
@example(([poly(1, {(2,): 1})], [[Fraction(1, 3), 2]], [Fraction(1, 2)], [1, Fraction(-1, 5)]))
@settings(deadline=None, max_examples=80)
def test_affine_substitution_matches_evaluation(case):
    polys, matrix, shift, point = case
    offset = shift or [0] * len(matrix)
    image = [sum(a * x for a, x in zip(row, point)) + b for row, b in zip(matrix, offset)]
    composed = substitute_affine(polys, matrix, shift)
    assert composed == [p.compose_affine(matrix, shift) for p in polys]
    for p, q in zip(polys, composed):
        assert q.dimension == len(point)
        assert q(point) == p(image)
        assert q.is_zero or not p.is_zero


def _invert_unit_upper(matrix):
    from test_rational_linalg import invert

    return invert(matrix)


@given(_poly_triple(), st.fractions(min_value=-5, max_value=5, max_denominator=4))
@settings(deadline=None)
def test_apolar_symmetric_and_bilinear(triple, scale):
    p, q, r = triple
    assert apolar(p, q) == apolar(q, p)
    assert apolar(p + q, r) == apolar(p, r) + apolar(q, r)
    assert apolar(scale * p, r) == scale * apolar(p, r)


def test_terms_listed_in_graded_order():
    p = poly(2, {(0, 2): 1, (1, 0): 2, (0, 0): 3, (1, 1): 4})
    assert [alpha for alpha, _ in p.terms()] == [(0, 0), (1, 0), (1, 1), (0, 2)]
    assert graded_key((1, 1)) < graded_key((0, 2))


def test_as_fraction_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        as_fraction(0.5)
    with pytest.raises(TypeError):
        as_fraction(True)
    assert as_fraction("-3/7") == Fraction(-3, 7)
