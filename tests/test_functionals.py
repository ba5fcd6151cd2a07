"""Functionals, the separated radial expansion, and everything built on it."""

import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import radpoly
from radpoly import (
    DegreeCapError,
    DimensionMismatchError,
    Functional,
    MomentFunctional,
    PointFunctional,
    Polynomial,
    build_graded_basis,
    combine,
    expansion_polynomial,
    from_derivative,
    least_part,
    monomial_sequence,
    monomials_of_degree,
    order,
    point_evaluation,
    radial_image,
    radial_power_expansion,
    schaback_basis,
    tensor_apply_radial,
)
from radpoly.functionals import _lifted_moments, image_from_moments, radial_monomial
from radpoly.rational_linalg import integer_vector
from radpoly.serialization import functional_from_obj, functional_to_obj

SECOND_DIFFERENCE = PointFunctional([[0], [1], [2]], [1, -2, 1])


def separated_image(moment, denominator, weights, ell):
    """Oracle: the radial image from the separated expansion of ||t - s||_D^(2 ell).

    The term t^alpha s^alpha' of a summand coeff p_{a,beta}(t) p_{c,beta}(s)
    gains D^((alpha + alpha')/2), which is D^ceil(alpha/2) D^floor(alpha'/2)
    since alpha and alpha' have the parity of beta.
    """
    d = len(weights)

    def scaled_terms(a, beta, up):
        return [(alpha, int(c) * math.prod(w ** ((e + up) // 2) for w, e in zip(weights, alpha)))
                for alpha, c in radial_monomial(d, a, beta).terms()]

    acc = {}
    for term in radial_power_expansion(ell, d):
        value = sum(c * moment(alpha) for alpha, c in scaled_terms(term.c, term.beta, 0))
        if value:
            for alpha, c in scaled_terms(term.a, term.beta, 1):
                acc[alpha] = acc.get(alpha, 0) + int(term.coeff) * value * c
    return Polynomial(d, {alpha: Fraction(v, denominator) for alpha, v in acc.items()})


def two_set_distance_power(k, d):
    """Oracle: (sum_i (x_i - y_i)^2)^k expanded by repeated multiplication."""
    total = Polynomial(2 * d, {})
    for i in range(d):
        diff = Polynomial.variable(2 * d, i) - Polynomial.variable(2 * d, d + i)
        total = total + diff * diff
    return total**k


@st.composite
def _point_functional_and_polynomial(draw):
    d = draw(st.integers(1, 3))
    coordinate = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    points = draw(st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=5, unique=True))
    weights = draw(st.lists(st.integers(-6, 6), min_size=len(points), max_size=len(points)))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * d),
                                 st.fractions(min_value=-9, max_value=9, max_denominator=4),
                                 max_size=8))
    return PointFunctional(points, weights, dimension=d), Polynomial(d, terms)


class TestFunctionalProtocol:
    def test_every_constructor_gives_a_functional(self):
        point, derivative = point_evaluation((1, 2)), from_derivative((1, 0), (1, 2), 3)
        made = [
            point,
            derivative,
            MomentFunctional(2, 2, {(0, 1): 3}),
            PointFunctional([(0, 0), (1, 1)], [1, -1]),
            combine([point, point_evaluation((0, 0))], [2, -1]),
            combine([point, derivative], [1, 1]),
        ]
        assert [type(f) for f in made[-2:]] == [PointFunctional, MomentFunctional]
        assert all(isinstance(f, Functional) for f in made)

    def test_equality_needs_the_same_type_and_equal_hashes_follow(self):
        point = PointFunctional([(0,)], [1])
        table = MomentFunctional(1, 0, {(0,): 1})
        assert point.moment((0,)) == table.moment((0,)) == 1 and point.degree_cap is None
        same_moments = MomentFunctional(1, 0, {(0,): 1})  # point's one moment up to degree 0
        assert point != table and table != point and point != same_moments
        assert point != "point" and table != (1, 0, {(0,): 1}) and not (table == 1)
        assert table == same_moments and hash(table) == hash(same_moments)
        twin = PointFunctional([(0,)], [Fraction(2, 2)])
        assert point == twin and hash(point) == hash(twin)
        assert len({point, twin, table, same_moments}) == 2

    def test_each_class_keeps_its_own_call(self):
        """The benchmark tracer wraps ``cls.__dict__["__call__"]`` of each class."""
        assert "__call__" in PointFunctional.__dict__
        assert "__call__" in MomentFunctional.__dict__


class TestApply:
    @given(_point_functional_and_polynomial())
    @settings(deadline=None, max_examples=60)
    def test_point_application_is_the_weighted_sum_of_values(self, case):
        lam, p = case
        values = sum((w * p(x) for x, w in zip(lam.points, lam.weights)), Fraction(0))
        assert lam(p) == values
        assert lam(p) == values  # second time from the stored moments

    def test_stored_moments_leave_equality_hash_and_repr_alone(self):
        def build():
            return PointFunctional([(1, 2), (0, -1), (3, 3)], [2, -1, 5])
        lam, fresh = build(), build()
        p = Polynomial(2, {(2, 1): 3, (0, 1): -1, (0, 0): 4})
        before = (hash(lam), repr(lam))
        assert lam(p) == lam(p)
        assert lam == fresh
        assert (hash(lam), repr(lam)) == before == (hash(fresh), repr(fresh))

    def test_corner_functional_on_product(self):
        lam = PointFunctional([(1, 1), (1, 0), (0, 1), (0, 0)], [1, -1, -1, 1])
        assert lam(Polynomial.monomial(2, (1, 1))) == 1

    def test_four_point_annihilator_on_squared_norm(self):
        z = (1, 2)
        lam = PointFunctional(
            [z, (1, 0), (0, 1), (0, 0)],
            [1, -z[0], -z[1], z[0] + z[1] - 1],
        )
        # z(1)(z(1)-1) + z(2)(z(2)-1) = 0 + 2
        assert lam(Polynomial.squared_norm(2)) == 2

    def test_zero_polynomial_maps_to_zero(self):
        lam = MomentFunctional(2, 3, {(1, 0): 5})
        assert lam(Polynomial.zero(2)) == 0
        assert SECOND_DIFFERENCE(Polynomial.zero(1)) == 0

    def test_moment_cap_violation_is_an_error(self):
        lam = MomentFunctional(1, 2, {(1,): 1})
        with pytest.raises(DegreeCapError):
            lam(Polynomial.monomial(1, (3,)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            SECOND_DIFFERENCE(Polynomial.squared_norm(2))

    @pytest.mark.parametrize("lam", [
        point_evaluation((2, 3)),
        from_derivative((1, 0), (2, 3), 4),
        MomentFunctional(2, 4, {(1, 2): 7}),
    ])
    def test_negative_exponent_is_rejected(self, lam):
        for alpha in ((-1, 0), (-1, 2), (2, -1)):
            with pytest.raises(ValueError, match="negative exponent"):
                lam.moment(alpha)


class TestPointFunctionalConstruction:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            PointFunctional([[0], [0]], [1, 1])

    def test_zero_weights_dropped(self):
        lam = PointFunctional([[0], [1]], [0, 2])
        assert lam.points == ((Fraction(1),),)

    def test_empty_needs_dimension(self):
        with pytest.raises(ValueError):
            PointFunctional([], [])
        assert PointFunctional([], [], dimension=2).is_zero


class TestFromDerivative:
    def test_first_derivative_at_origin(self):
        lam = from_derivative((1,), (0,), 3)
        assert [lam.moment((g,)) for g in range(4)] == [0, 1, 0, 0]

    def test_second_derivative_at_origin(self):
        lam = from_derivative((2,), (0,), 4)
        assert lam.moment((2,)) == 2
        assert all(lam.moment((g,)) == 0 for g in range(5) if g != 2)

    def test_partial_at_shifted_point(self):
        lam = from_derivative((1, 0), (1, 1), 2)
        assert lam.moment((1, 1)) == 1
        assert lam.moment((2, 0)) == 2

    def test_cap_below_derivative_order_rejected(self):
        with pytest.raises(ValueError):
            from_derivative((2, 1), (0, 0), 2)


class TestOrder:
    def test_second_difference(self):
        assert order(SECOND_DIFFERENCE) == 2

    def test_point_mass(self):
        assert order(point_evaluation((5, -3))) == 0

    def test_zero_functional(self):
        assert order(PointFunctional([], [], dimension=1)) == -1
        assert order(MomentFunctional(2, 4, {})) == -1

    def test_moment_functional_order_is_its_lowest_stored_degree(self):
        assert order(MomentFunctional(1, 5, {(4,): 1, (5,): 2})) == 4
        assert order(MomentFunctional(2, 3, {(0, 3): 1})) == 3

    def test_derivative_order_is_total_order(self):
        assert order(from_derivative((2, 1), (3, -2), 6)) == 3

    def test_a_nonzero_functional_without_a_moment_breaks_an_invariant(self):
        """order never returns None: a nonzero functional whose moments all vanish up to its search
        top is an internal error that names the functional."""
        lam = point_evaluation((7,))
        with mock.patch.object(PointFunctional, "_moment", lambda self, key: 0):
            with pytest.raises(AssertionError, match=r"order: PointFunctional\(1@\('7',\)\) is nonzero"):
                order(lam)


class TestRadialPowerExpansion:
    def test_univariate_k1(self):
        terms = radial_power_expansion(1, 1)
        seen = [(t.a, t.beta, t.c, t.coeff) for t in terms]
        assert seen == [
            (1, (0,), 0, Fraction(1)),
            (0, (1,), 0, Fraction(-2)),
            (0, (0,), 1, Fraction(1)),
        ]

    def test_k0_is_the_constant_one(self):
        for d in (1, 2, 3):
            terms = radial_power_expansion(0, d)
            assert len(terms) == 1
            assert terms[0].coeff == 1
            assert expansion_polynomial(0, d) == Polynomial.constant(2 * d, 1)

    def test_k2_d2_has_ten_terms_and_matches_oracle(self):
        assert len(radial_power_expansion(2, 2)) == 10
        assert expansion_polynomial(2, 2) == two_set_distance_power(2, 2)

    def test_term_degrees_sum_to_k(self):
        for term in radial_power_expansion(3, 2):
            assert term.a + sum(term.beta) + term.c == 3

    def test_expansion_matches_oracle_through_k4_d3(self):
        for d in (1, 2, 3):
            for k in range(5):
                assert expansion_polynomial(k, d) == two_set_distance_power(k, d)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_integer_expansion_matches_the_fraction_terms(self, d):
        """Images from the direct integer expansion equal those from the separated
        expansion's Fraction terms, for unit and integer weights and integer,
        rational and vanishing moments; rational moments reach the integer expansion
        lifted to one denominator, as ``radial_image`` lifts a functional's."""
        rng = random.Random(d)
        for ell in range(21 if d == 1 else 9):
            assert all(t.coeff.denominator == 1 for t in radial_power_expansion(ell, d))
            monomials = monomial_sequence(d, 2 * ell)
            integers = {a: rng.choice([0, rng.randint(-99, 99)]) for a in monomials}
            rationals = {a: rng.choice([0, Fraction(rng.randint(-9, 9), rng.randint(1, 6))])
                         for a in monomials}
            for weights in ((1,) * d, tuple(rng.randint(1, 7) for _ in range(d))):
                for moments, denominator in ((integers, 1), (integers, 6), (rationals, 5)):
                    lifted, common = _lifted_moments(moments.__getitem__, monomials)
                    assert all(type(v) is int for v in lifted.values())
                    sums, over = image_from_moments(lifted.__getitem__, denominator * common, weights, ell)
                    image = Polynomial(d, {alpha: Fraction(v, over) for alpha, v in sums.items()})
                    assert image == separated_image(moments.__getitem__, denominator, weights, ell)

    def test_basis_images_do_not_build_the_separated_expansion(self):
        """A fresh interpreter builds radial images without the separated expansion."""
        script = textwrap.dedent("""
            import random
            from radpoly import (build_graded_basis, from_derivative, point_evaluation,
                                 radial_image, radial_power_expansion, schaback_basis)
            ts = random.Random(1).sample(range(-40, 41), 12)
            for points in ([(t,) for t in ts], [(t, 2 * t + 1) for t in ts]):
                schaback_basis(build_graded_basis([point_evaluation(x) for x in points]))
            radial_image(point_evaluation((1, -2, 3)), 4)
            radial_image(from_derivative((1, 2), (3, -1), 8), 4)
            print(radial_power_expansion.cache_info().currsize)
        """)
        src = str(Path(radpoly.__file__).resolve().parents[1])
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}, check=True)
        assert result.stdout.split() == ["0"]


class TestTensorApply:
    def test_second_difference_k2(self):
        assert tensor_apply_radial(SECOND_DIFFERENCE, SECOND_DIFFERENCE, 2) == 24

    def test_second_difference_k1_vanishes(self):
        assert tensor_apply_radial(SECOND_DIFFERENCE, SECOND_DIFFERENCE, 1) == 0

    def test_single_point_vanishes_for_positive_k(self):
        lam = point_evaluation((2, 7))
        for k in (1, 2, 3):
            assert tensor_apply_radial(lam, lam, k) == 0

    def test_agrees_with_double_sum_on_random_pairs(self):
        rng = random.Random(42)
        for _ in range(25):
            d = rng.randint(1, 3)
            def draw():
                n = rng.randint(1, 4)
                pts = set()
                while len(pts) < n:
                    pts.add(tuple(Fraction(rng.randint(-5, 5)) for _ in range(d)))
                return PointFunctional(list(pts), [Fraction(rng.randint(-9, 9)) for _ in pts])
            lam, mu = draw(), draw()
            for k in range(4):
                direct = sum(
                    (
                        w * v * sum((a - b) ** 2 for a, b in zip(x, y)) ** k
                        for x, w in zip(lam.points, lam.weights)
                        for y, v in zip(mu.points, mu.weights)
                    ),
                    Fraction(0),
                )
                assert tensor_apply_radial(lam, mu, k) == direct

    @pytest.mark.parametrize("short_slot", ["lambda", "mu"])
    def test_moment_cap_must_cover_2k(self, short_slot):
        short = MomentFunctional(1, 3, {(2,): 1})
        point = point_evaluation((1,))
        lam, mu = (short, point) if short_slot == "lambda" else (point, short)
        with pytest.raises(DegreeCapError):
            tensor_apply_radial(lam, mu, 2)


class TestInnerProduct:
    """The degree-k form (-1)^k (lambda (x) mu) ||x-y||^(2k), read off ``tensor_apply_radial``."""

    def test_sign_adjusted_values(self):
        assert tensor_apply_radial(SECOND_DIFFERENCE, SECOND_DIFFERENCE, 2) == 24
        assert -tensor_apply_radial(SECOND_DIFFERENCE, SECOND_DIFFERENCE, 1) == 0

    def test_first_difference_k1(self):
        lam = PointFunctional([[1], [0]], [1, -1])
        assert -tensor_apply_radial(lam, lam, 1) == 2

    def test_symmetric_and_bilinear(self):
        rng = random.Random(5)
        for _ in range(10):
            d = rng.randint(1, 2)
            pts = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(d)) for _ in range(6)]
            pts = list(dict.fromkeys(pts))
            lam = PointFunctional(pts[:2], [1, -2])
            mu = PointFunctional(pts[2:4] if len(pts) >= 4 else pts[:2], [3, 1])
            nu = point_evaluation(pts[0])
            for k in (1, 2):
                assert tensor_apply_radial(lam, mu, k) == tensor_apply_radial(mu, lam, k)
                combo = combine([mu, nu], [Fraction(2), Fraction(-3)])
                assert tensor_apply_radial(lam, combo, k) == 2 * tensor_apply_radial(
                    lam, mu, k
                ) - 3 * tensor_apply_radial(lam, nu, k)


class TestRadialImage:
    def test_point_mass_is_shifted_squared_norm(self):
        y = (Fraction(2), Fraction(-1))
        image = radial_image(point_evaluation(y), 1)
        expected = Polynomial(
            2, {(2, 0): 1, (0, 2): 1, (1, 0): -2 * y[0], (0, 1): -2 * y[1], (0, 0): 5}
        )
        assert image == expected

    def test_second_difference_at_its_order(self):
        assert radial_image(SECOND_DIFFERENCE, 2) == Polynomial(
            1, {(2,): 12, (1,): -24, (0,): 14}
        )

    def test_zero_functional_has_zero_image(self):
        assert radial_image(PointFunctional([], [], dimension=2), 3).is_zero

    def test_slot_consistency_at_rational_points(self):
        rng = random.Random(11)
        for _ in range(10):
            d = rng.randint(1, 2)
            pts = set()
            while len(pts) < 3:
                pts.add(tuple(Fraction(rng.randint(-4, 4)) for _ in range(d)))
            lam = PointFunctional(list(pts), [Fraction(rng.randint(-5, 5)) for _ in range(3)])
            x = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d))
            for ell in (1, 2):
                in_y = Polynomial(d, {})
                for i in range(d):
                    diff = Polynomial.constant(d, x[i]) - Polynomial.variable(d, i)
                    in_y = in_y + diff * diff
                assert radial_image(lam, ell)(x) == lam(in_y**ell)

    def test_degree_drops_by_the_order(self):
        # order 2, exponent 3: degree 2*3 - 2 = 4
        assert radial_image(SECOND_DIFFERENCE, 3).degree == 4

    def test_vanishes_below_half_the_order(self):
        assert radial_image(SECOND_DIFFERENCE, 0).is_zero


class TestLeastPart:
    def test_second_difference(self):
        assert least_part(SECOND_DIFFERENCE) == Polynomial.monomial(1, (2,))

    def test_point_mass_is_the_constant_one(self):
        assert least_part(point_evaluation((4, 4))) == Polynomial.constant(2, 1)

    def test_corner_functional(self):
        lam = PointFunctional([(1, 1), (1, 0), (0, 1), (0, 0)], [1, -1, -1, 1])
        assert least_part(lam) == Polynomial.monomial(2, (1, 1))

    def test_zero_functional(self):
        assert least_part(PointFunctional([], [], dimension=3)).is_zero

    def test_homogeneous_of_the_order_degree(self):
        rng = random.Random(3)
        for _ in range(10):
            d = rng.randint(1, 3)
            pts = set()
            while len(pts) < 4:
                pts.add(tuple(Fraction(rng.randint(-4, 4)) for _ in range(d)))
            lam = PointFunctional(list(pts), [rng.randint(-5, 5) for _ in range(4)])
            kappa = order(lam)
            part = least_part(lam)
            if kappa == -1:
                assert part.is_zero
            else:
                assert part.is_homogeneous(kappa)
                assert part.degree == kappa


class TestCombine:
    def test_point_combination_merges_support(self):
        lam = combine(
            [point_evaluation((0,)), point_evaluation((1,)), point_evaluation((0,))],
            [1, 2, -1],
        )
        assert lam == PointFunctional([(1,)], [2])

    def test_mixed_combination_truncates_to_smallest_cap(self):
        lam = combine([point_evaluation((1,)), MomentFunctional(1, 2, {(2,): 1})], [1, 3])
        assert isinstance(lam, MomentFunctional)
        assert lam.degree_cap == 2
        assert lam.moment((2,)) == 1 + 3
        assert lam.moment((0,)) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            combine([point_evaluation((0,)), point_evaluation((0, 0))], [1, 1])


@st.composite
def _point_functional_pair(draw):
    d = draw(st.integers(1, 3))
    def one():
        n = draw(st.integers(1, 4))
        points = []
        seen = set()
        while len(points) < n:
            p = tuple(draw(st.integers(-4, 4)) for _ in range(d))
            if p not in seen:
                seen.add(p)
                points.append(p)
        return PointFunctional(points, [draw(st.integers(-6, 6)) for _ in range(n)],
                               dimension=d)
    return one(), one()


@given(_point_functional_pair(), st.integers(0, 3))
@settings(deadline=None, max_examples=60)
def test_tensor_application_symmetric_in_its_arguments(pair, k):
    lam, mu = pair
    assert tensor_apply_radial(lam, mu, k) == tensor_apply_radial(mu, lam, k)


@given(_point_functional_pair(), st.integers(0, 2), st.integers(-4, 4))
@settings(deadline=None, max_examples=60)
def test_tensor_application_linear_in_each_slot(pair, k, scale):
    lam, mu = pair
    stretched = combine([mu], [scale])
    assert tensor_apply_radial(lam, stretched, k) == scale * tensor_apply_radial(lam, mu, k)


@given(_point_functional_pair())
@settings(deadline=None, max_examples=60)
def test_least_part_degree_equals_order(pair):
    lam, _ = pair
    kappa = order(lam)
    part = least_part(lam)
    if kappa == -1:
        assert part.is_zero
    else:
        assert part.degree == kappa
        assert part.is_homogeneous(kappa)


@st.composite
def _functional_of_any_kind(draw):
    """(lambda, ell, x): lambda a point combination at rational points with rational weights, a
    derivative atom, a combination of atoms (a moment table), a moment table with fractional
    moments or a zero functional, with a moment cap of at least 2 ell where it has one, and x a
    rational point.  Unlike denominators make the radial image lift its moments to one."""
    d, ell = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    cap = 2 * ell + draw(st.integers(0, 1))
    coordinate = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    weight = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    point = st.tuples(*[coordinate] * d)
    alpha = st.tuples(*[st.integers(0, 2)] * d).filter(lambda a: sum(a) <= cap)
    kind = draw(st.sampled_from(["points", "derivative", "atoms", "moments", "zero"]))
    if kind == "points":
        points = draw(st.lists(point, min_size=1, max_size=4, unique=True))
        lam = PointFunctional(points, draw(st.lists(weight, min_size=len(points), max_size=len(points))))
    elif kind == "derivative":
        lam = from_derivative(draw(alpha), draw(point), cap)
    elif kind == "atoms":
        members = [from_derivative(draw(alpha), draw(point), cap) for _ in range(draw(st.integers(1, 3)))]
        members += [point_evaluation(x) for x in draw(st.lists(point, max_size=2, unique=True))]
        lam = combine(members, draw(st.lists(weight, min_size=len(members), max_size=len(members))))
    elif kind == "moments":
        lam = MomentFunctional(d, cap, draw(st.dictionaries(
            st.sampled_from(monomial_sequence(d, cap)), weight, min_size=1, max_size=6)))
    else:
        lam = draw(st.sampled_from([PointFunctional([], [], dimension=d), MomentFunctional(d, cap)]))
    return lam, ell, draw(point)


# order 1, with the moments 1/2 and 1/3 of x1 and x2: unlike denominators in one degree
UNLIKE = PointFunctional([(Fraction(1, 2), Fraction(1, 3)), (0, 0)], [1, -1])


@given(_functional_of_any_kind())
@example((UNLIKE, 1, (Fraction(1, 5), 2)))
@settings(deadline=None, max_examples=100)
def test_radial_image_is_the_functional_applied_in_y(case):
    """radial_image(lambda, ell)(x) = lambda((sum_i (x_i - y_i)^2)^ell), lambda applied in y."""
    lam, ell, x = case
    d = lam.dimension
    in_y = Polynomial(d, {})
    for i in range(d):
        diff = Polynomial.constant(d, x[i]) - Polynomial.variable(d, i)
        in_y = in_y + diff * diff
    assert radial_image(lam, ell)(x) == lam(in_y**ell)


@given(_functional_of_any_kind())
@example((UNLIKE, 0, (0, 0)))
@settings(deadline=None, max_examples=100)
def test_least_part_is_the_lowest_part_of_the_moment_series(case):
    """least_part(lambda) = sum over |alpha| = kappa of lambda(x^alpha) x^alpha / alpha!, kappa the
    order, built here in Fractions; zero for the zero functional."""
    lam, _, _ = case
    kappa = order(lam)
    assert kappa is not None
    expected = Polynomial(lam.dimension, {
        alpha: Fraction(lam.moment(alpha), math.prod(map(math.factorial, alpha)))
        for alpha in monomials_of_degree(lam.dimension, kappa)})
    assert least_part(lam) == expected


class TestQuadraticFormCharacterization:
    """Sign and vanishing of the diagonal form, driven by the order."""

    def test_sign_and_equality_for_seeded_functionals(self):
        rng = random.Random(17)
        from radpoly import build_graded_basis

        for _ in range(15):
            d = rng.randint(1, 3)
            pts = set()
            while len(pts) < rng.randint(2, 6):
                pts.add(tuple(Fraction(rng.randint(-5, 5)) for _ in range(d)))
            graded = build_graded_basis([point_evaluation(p) for p in pts])
            for lam, kappa in zip(graded.lambdas, graded.kappas):
                for k in (1, 2, 3):
                    if kappa < k:
                        continue
                    q = tensor_apply_radial(lam, lam, k)
                    assert (-1) ** k * q >= 0
                    assert (q == 0) == (kappa >= k + 1)
                for k in (0, 1, 2):
                    vanish = all(
                        tensor_apply_radial(lam, lam, r) == 0 for r in range(k + 1)
                    )
                    assert vanish == (kappa >= k + 1)


def _derivative_moment(alpha, x0, gamma):
    """Oracle: (D^alpha x^gamma)(x0) = gamma!/(gamma-alpha)! x0^(gamma-alpha) if gamma >= alpha."""
    value = Fraction(1)
    for g, a, c in zip(gamma, alpha, x0):
        if g < a:
            return Fraction(0)
        value *= Fraction(math.factorial(g), math.factorial(g - a)) * c ** (g - a)
    return value


@st.composite
def _atom_combinations(draw):
    """Derivative functionals and weighted point evaluations at rational sites.

    Returns (cap, members, coefficients, atoms) with atoms[i] the list of
    (weight, alpha, site) making up members[i]; coefficients may be zero.
    """
    d = draw(st.integers(1, 3))
    cap = draw(st.integers(1, 5))
    coordinate = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    weight = st.just(Fraction(0)) | st.fractions(min_value=-4, max_value=4, max_denominator=4)
    sites = draw(st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=3, unique=True))
    alphas = st.tuples(*[st.integers(0, 2)] * d).filter(lambda a: sum(a) <= cap)
    members, atoms = [], []
    for site in sites:
        for alpha in draw(st.lists(alphas, min_size=1, max_size=3, unique=True)):
            members.append(from_derivative(alpha, site, cap))
            atoms.append([(1, alpha, site)])
    if draw(st.booleans()):
        weights = draw(st.lists(weight, min_size=len(sites), max_size=len(sites)))
        members.append(PointFunctional(sites, weights))
        atoms.append([(w, (0,) * d, x) for x, w in zip(sites, weights)])
    coefficients = draw(st.lists(weight, min_size=len(members), max_size=len(members)))
    return cap, members, coefficients, atoms


def _oracle_moment(atoms, gamma):
    return sum((w * _derivative_moment(alpha, x, gamma) for w, alpha, x in atoms), Fraction(0))


@given(_atom_combinations())
@settings(deadline=None, max_examples=80)
def test_atom_moments_match_the_derivative_formula(case):
    """from_derivative, combine and a serialization round trip against the Fraction formula."""
    cap, members, coefficients, atoms = case
    d = members[0].dimension
    lam = combine(members, coefficients)
    assert lam.degree_cap == cap
    combined = [(c * w, alpha, x) for c, part in zip(coefficients, atoms) for w, alpha, x in part]
    for f, part in [*zip(members, atoms), (lam, combined)]:
        for gamma in monomial_sequence(d, cap):
            assert f.moment(gamma) == _oracle_moment(part, gamma)
        again = functional_from_obj(functional_to_obj(f))
        assert again.degree_cap == f.degree_cap
        assert all(again.moment(g) == f.moment(g) for g in monomial_sequence(d, cap))
    with pytest.raises(DegreeCapError):
        members[0].moment((cap + 1,) + (0,) * (d - 1))
    if all(lam.moment(gamma) == 0 for gamma in monomial_sequence(d, cap)):
        assert lam.is_zero
        assert order(lam) == -1


@given(_atom_combinations())
@settings(deadline=None, max_examples=60)
def test_integer_moments_match_the_derivative_formula(case):
    """Each point combination's moments of one degree, lifted to integers over one positive denominator,
    are the Fraction formula; degrees are asked highest first, so lower ones read tables already grown."""
    cap, members, _, atoms = case
    for k in range(cap, -1, -1):
        gammas = list(monomials_of_degree(members[0].dimension, k))
        for f, part in zip(members, atoms):
            numerators, denominator = integer_vector([f.moment(g) for g in gammas])
            assert all(type(v) is int for v in numerators) and type(denominator) is int and denominator > 0
            assert [Fraction(v, denominator) for v in numerators] == [_oracle_moment(part, g) for g in gammas]


@given(st.integers(1, 3), st.data())
@settings(deadline=None, max_examples=40)
def test_capped_combination_with_vanishing_moments_is_zero(d, data):
    """h D_i p(x) - p(x + h e_i) + p(x) vanishes on degree <= 1, its cap."""
    coordinate = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    x = data.draw(st.tuples(*[coordinate] * d))
    h = data.draw(coordinate.filter(bool))
    i = data.draw(st.integers(0, d - 1))
    unit = tuple(int(j == i) for j in range(d))
    moved = tuple(c + h * e for c, e in zip(x, unit))
    lam = combine([from_derivative(unit, x, 1), point_evaluation(moved), point_evaluation(x)],
                  [h, -1, 1])
    assert lam.degree_cap == 1
    assert lam.is_zero
    assert order(lam) == -1


def fraction_combination(functionals, coefficients):
    """Oracle: sum_i c_i lambda_i accumulated moment by moment in Fractions over every member
    and monomial up to the smallest cap, as ``combine`` once built a capped combination."""
    d = functionals[0].dimension
    cap = min(f.degree_cap for f in functionals if f.degree_cap is not None)
    moments = {}
    for f, c in zip(functionals, coefficients):
        for alpha in monomial_sequence(d, cap):
            moments[alpha] = moments.get(alpha, Fraction(0)) + Fraction(c) * f.moment(alpha)
    return MomentFunctional(d, cap, moments)


@st.composite
def _capped_members(draw):
    """Point evaluations, point combinations, derivative atoms and moment tables of different caps,
    at least one of them capped, with coefficients that may be zero or fractional."""
    d = draw(st.integers(1, 2))
    coordinate = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    value = st.just(Fraction(0)) | st.fractions(min_value=-4, max_value=4, max_denominator=5)
    site = st.tuples(*[coordinate] * d)
    kinds = {
        "evaluation": site.map(point_evaluation),
        "combination": st.lists(site, min_size=1, max_size=3, unique=True).flatmap(
            lambda xs: st.lists(value, min_size=len(xs), max_size=len(xs)).map(
                lambda ws: PointFunctional(xs, ws))),
        "derivative": st.integers(1, 6).flatmap(lambda cap: st.builds(
            from_derivative, st.tuples(*[st.integers(0, 2)] * d).filter(lambda a: sum(a) <= cap),
            site, st.just(cap))),
        "moments": st.integers(0, 6).flatmap(lambda cap: st.builds(
            MomentFunctional, st.just(d), st.just(cap),
            st.dictionaries(st.tuples(*[st.integers(0, cap)] * d).filter(lambda a: sum(a) <= cap),
                            value, max_size=4))),
    }
    members = draw(st.lists(st.sampled_from(sorted(kinds)).flatmap(kinds.get), min_size=1, max_size=5))
    capped = draw(st.sampled_from(["derivative", "moments"]).flatmap(kinds.get))
    members.insert(draw(st.integers(0, len(members))), capped)
    return members, draw(st.lists(value, min_size=len(members), max_size=len(members)))


@given(_capped_members())
@settings(deadline=None, max_examples=80)
def test_capped_combination_matches_the_fraction_accumulation(case):
    """A capped combine reads its row of the span's moment table: the Fraction accumulation's moments."""
    members, coefficients = case
    lam = combine(members, coefficients)
    assert isinstance(lam, MomentFunctional)
    assert lam == fraction_combination(members, coefficients)


# Each entry point that takes exponents from outside, and the type a degree past its cap
# raises there (None: no cap); the types are the ones each raised before the check was shared.
CHECKED_ENTRY_POINTS = {
    "Polynomial": (lambda alpha: Polynomial(2, [(alpha, 1)]), None),
    "MomentFunctional": (lambda alpha: MomentFunctional(2, 2, [(alpha, 1), (alpha, 2)]), DegreeCapError),
    "moment of a MomentFunctional": (lambda alpha: MomentFunctional(2, 2).moment(alpha), DegreeCapError),
    "moment of a point evaluation": (lambda alpha: point_evaluation((2, 3)).moment(alpha), None),
    "moment of a derivative": (lambda alpha: from_derivative((1, 0), (2, 3), 2).moment(alpha),
                               DegreeCapError),
    "from_derivative": (lambda alpha: from_derivative(alpha, (2, 3), 2), ValueError),
}


@pytest.mark.parametrize("name", CHECKED_ENTRY_POINTS)
def test_every_exponent_from_outside_passes_one_check(name):
    """A wrong length, a negative entry and a degree past the cap raise exactly
    DimensionMismatchError, ValueError and the entry point's cap error."""
    make, past_cap = CHECKED_ENTRY_POINTS[name]
    cases = [((1, 0, 0), DimensionMismatchError), ((1,), DimensionMismatchError),
             ((-1, 0), ValueError), ((0, -2), ValueError)]
    for alpha, error in cases + ([((2, 1), past_cap)] if past_cap else []):
        with pytest.raises(error) as info:
            make(alpha)
        assert type(info.value) is error, alpha
    make((1, 1))
    make([True, 1])  # exponents are taken as ints


# Each entry point past a moment cap of 3: the degree it needed and the operation it names.
CAPPED = from_derivative((2, 0), (0, 0), 3)
CAP_GUARDS = {
    "lam(p)": (lambda: CAPPED(Polynomial.monomial(2, (4, 0))), 4, "applying a functional"),
    "build_graded_basis": (lambda: build_graded_basis([point_evaluation((0, 0)), CAPPED], 4), 4,
                           "graded elimination"),
    "schaback_basis": (lambda: schaback_basis(build_graded_basis([point_evaluation((0, 0)), CAPPED], 3)), 4,
                       "radial image"),
}


@pytest.mark.parametrize("name", CAP_GUARDS)
def test_every_moment_cap_guard_raises_the_shared_message(name):
    call, needed, operation = CAP_GUARDS[name]
    with pytest.raises(DegreeCapError) as info:
        call()
    assert str(info.value) == f"{operation} needs moments up to degree {needed}, functional cap is 3"
