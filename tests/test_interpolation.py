"""Both interpolants: structure, projector laws, comparison, invariances."""

import math
import random
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from radpoly import (
    DegreeCapError,
    DimensionMismatchError,
    Polynomial,
    RankDeficientError,
    build_graded_basis,
    compare_interpolants,
    flat_projector,
    from_derivative,
    least_basis,
    least_part,
    least_interpolate,
    monomial_sequence,
    monomials_of_degree,
    multi_factorial,
    point_evaluation,
    polynomial_span_equal,
    radial_image,
    schaback_basis,
    schaback_interpolate,
)
from radpoly.functionals import _radial_kernel
from radpoly.interpolation import LeastBasis, SchabackBasis, _four_point_moment, _middle_factors, _pivot_degrees
from radpoly.rational_linalg import (BlockUpperFactors, determinant, factor_block_upper, identity, mat_vec, rref,
                                     solve, transpose)
from test_graded import RATIONALS, SPAN_KINDS, build_with_ties, spans
from test_rational_linalg import invert, mat_mul

GRID = [(0, 0), (1, 0), (0, 1), (1, 1)]
SKEW = [(0, 0), (1, 0), (0, 1), (1, 2)]
SKEWED = [(0, 0), (2, 1), (1, 1), (-1, 3)]  # its full block of order 1 has U = [[1, 1/2], [0, 1]]
PARTIAL = [(0, 0), (1, 0), (0, 1), (1, 2), (2, 1)]  # kappas 0, 1, 1, 2, 2: 2 of the 3 monomials of order 2
METHODS = [
    ("schaback", schaback_basis, schaback_interpolate),
    ("least", least_basis, least_interpolate),
]


def graded_on(points, **kwargs):
    return build_graded_basis([point_evaluation(p) for p in points], **kwargs)


def monomial(d, alpha):
    return Polynomial.monomial(d, alpha)


def in_x(basis):
    """The basis polynomials in x: the w_j of a Schaback basis, the g_j of a least one."""
    return basis.w if isinstance(basis, SchabackBasis) else basis.g


def lambda_gramian(basis, polys=None):
    """(lambda_i p_j) in full, from graded.lambdas, for p_j the basis polynomials or
    ``polys``; the basis must store exactly its diagonal blocks and zeros elsewhere."""
    graded = basis.source
    dense = tuple(tuple(lam(p) for p in polys or in_x(basis)) for lam in graded.lambdas)
    kappas = graded.kappas
    assert basis.gramian == tuple(tuple(v if kappas[i] == kappas[j] else 0 for j, v in enumerate(row))
                                  for i, row in enumerate(dense))
    return dense


def corrupt_gramian_blocks(monkeypatch, change):
    """Every Gramian block a basis builds passes through ``change(block, gramian)`` first."""
    import radpoly.interpolation as interpolation

    build = interpolation._gramian_block

    def corrupted(graded, forms, block):
        gramian = build(graded, forms, block)
        change(block, gramian)
        return gramian

    monkeypatch.setattr(interpolation, "_gramian_block", corrupted)


def apolar(f, g):
    """The power-series pairing sum_alpha alpha! f[alpha] g[alpha].

    Written on coefficients this is the pairing of iterated derivatives at
    the origin, since D^alpha f(0) = alpha! f[alpha].
    """
    assert f.dimension == g.dimension
    return sum((multi_factorial(alpha) * c * g.coefficient(alpha) for alpha, c in f.terms()), Fraction(0))


def gram_projector(points):
    """(Q, shift) of x |-> x0 + V^T (V V^T)^-1 V (x - x0), V the rref rows of the x_i - x0.

    The Gram-inverse construction, kept here as an oracle independent of the
    orthogonal hull coordinates the library uses.
    """
    pts = [tuple(Fraction(c) for c in p) for p in points]
    d, base = len(pts[0]), pts[0]
    directions, _ = rref([[a - b for a, b in zip(p, base)] for p in pts[1:]])
    if not directions:
        q = [[Fraction(0)] * d for _ in range(d)]
    else:
        v_cols = transpose(directions)
        q = mat_mul(mat_mul(v_cols, invert(mat_mul(directions, v_cols))), directions)
    return q, [b - s for b, s in zip(base, mat_vec(q, list(base)))]


def composed_images(graded):
    """The raw radial images in x, composed with the Gram projector for all-point spans."""
    images = [radial_image(lam, kappa) for lam, kappa in zip(graded.lambdas, graded.kappas)]
    if any(f.degree_cap is not None for f in graded.span):
        return images
    q, shift = gram_projector([x for f in graded.span for x in f.points])
    return [w.compose_affine(q, shift) for w in images]


class TestSchabackBasis:
    def test_two_point_line(self):
        sb = schaback_basis(graded_on([(0,), (1,)]))
        assert sb.w[0] == Polynomial.constant(1, 1)
        assert sb.w[1] == Polynomial(1, {(1,): -2, (0,): 1})
        assert [list(row) for row in sb.gramian] == [[1, 0], [0, -2]]
        assert [list(row) for row in lambda_gramian(sb)] == [[1, 1], [0, -2]]

    def test_second_difference_basis_polynomial(self):
        sb = schaback_basis(graded_on([(0,), (1,), (2,)]))
        assert sb.w[2] == Polynomial(1, {(2,): 6, (1,): -12, (0,): 7})

    def test_gridded_degrees_and_top_diagonal(self):
        graded = graded_on(GRID)
        sb = schaback_basis(graded)
        assert tuple(w.degree for w in sb.w) == (0, 1, 1, 2)
        assert sb.gramian[3][3] != 0

    def test_block_triangular_gramian(self):
        """lambda_i p_j vanishes below the blocks; the basis stores exact zeros there."""
        graded = graded_on(SKEW)
        for basis in (schaback_basis(graded), least_basis(graded)):
            polys = in_x(basis)
            for i in range(4):
                for j in range(4):
                    if graded.kappas[i] > graded.kappas[j]:
                        assert graded.lambdas[i](polys[j]) == 0
                        assert basis.gramian[i][j] == Fraction(0)
            for block in graded.blocks():
                diag = [[basis.gramian[i][j] for j in block] for i in block]
                assert determinant(diag) != 0


class TestSchabackInterpolation:
    def test_linear_data_on_two_points(self):
        report = schaback_interpolate(graded_on([(0,), (1,)]), data=[0, 1])
        assert report.interpolant == Polynomial.variable(1, 0)
        assert report.residuals == (0, 0)

    def test_bilinear_reproduction_on_the_grid(self):
        report = schaback_interpolate(graded_on(GRID), data=[0, 0, 0, 1])
        assert report.interpolant == monomial(2, (1, 1))

    def test_quadratic_reproduction_on_three_points(self):
        report = schaback_interpolate(graded_on([(0,), (1,), (2,)]), data=[0, 1, 4])
        assert report.interpolant == monomial(1, (2,))

    def test_target_path_equals_data_path(self):
        graded = graded_on(SKEW)
        target = Polynomial(2, {(2, 0): 1, (1, 1): -3, (0, 0): 2})
        by_target = schaback_interpolate(graded, target=target)
        by_data = schaback_interpolate(graded, data=[target(p) for p in SKEW])
        assert by_target.interpolant == by_data.interpolant
        assert by_target.coefficients == by_data.coefficients

    def test_block_solve_matches_dense_solve(self):
        graded = graded_on([(0, 0), (2, 1), (1, 1), (-1, 3), (0, 5)])
        target = Polynomial(2, {(3, 0): 1, (0, 2): -2})
        for _, make_basis, interpolate in METHODS:
            basis = make_basis(graded)
            block = interpolate(basis, target=target)
            dense = solve(lambda_gramian(basis), mat_vec(graded.transform, block.data))
            assert block.coefficients == tuple(dense)

    def test_needs_exactly_one_input(self):
        graded = graded_on([(0,), (1,)])
        with pytest.raises(ValueError):
            schaback_interpolate(graded)
        with pytest.raises(ValueError):
            schaback_interpolate(graded, data=[0, 1], target=Polynomial.zero(1))
        with pytest.raises(ValueError):
            schaback_interpolate(graded, data=[0, 1, 2])

    @pytest.mark.parametrize("method, make_basis, interpolate", METHODS, ids=["schaback", "least"])
    def test_singular_gramian_is_reported(self, method, make_basis, interpolate, monkeypatch):
        broken = make_basis(graded_on([(0, 0), (1, 1)]))  # a hull frame: each block is factored as G

        def zero(block, gramian):
            gramian[0][0] = Fraction(0)

        corrupt_gramian_blocks(monkeypatch, zero)
        # the blocks are definite: a zero pivot has no sign and breaks the sign law
        with pytest.raises(AssertionError, match=f"^{method} Gramian diagonal block 0: no pivot in column 0"):
            interpolate(broken, data=[0, 1])

    @pytest.mark.parametrize("method, make_basis, interpolate", METHODS, ids=["schaback", "least"])
    def test_corrupted_gramian_names_the_failing_residual(self, method, make_basis, interpolate):
        broken = make_basis(graded_on([(0,), (1,), (3,)]))  # 1 x 1 blocks of orders 0, 1, 2
        # lambda_1(x^2): the Gramian entry (1, 2) above the blocks is read off it, and
        # the solve reads it to reduce row 1 by lambda_1(c_2 p_2); the factors are untouched
        rows = broken.source.rows
        rows[1][(2,)] += 1
        with pytest.raises(AssertionError, match=rf"^{method}_interpolate: residual mu_1\(f\)"):
            interpolate(broken, data=[0, 0, 1])

    @pytest.mark.parametrize("method, make_basis, interpolate", METHODS, ids=["schaback", "least"])
    def test_singular_diagonal_block_raises_on_every_call(self, method, make_basis, interpolate, monkeypatch):
        basis = make_basis(graded_on(PARTIAL))  # blocks [0], [1, 2], [3, 4]; the last is 2 of the 3 of order 2

        def rank_one(block, gramian):  # block [3, 4] becomes [[a, b], [b, b^2 / a]], symmetric of rank one
            if block == [3, 4]:
                (a, b), _ = gramian
                gramian[1][:] = [b, b * b / a]

        corrupt_gramian_blocks(monkeypatch, rank_one)
        for _ in range(2):
            with pytest.raises(AssertionError, match=f"^{method} Gramian diagonal block 2: no pivot in column 4: "
                                                     "a zero pivot breaks the sign law"):
                interpolate(basis, data=[0, 0, 0, 1, 2])
        assert "factors" not in vars(basis)  # a failed factorization is not cached

    @pytest.mark.parametrize("method, make_basis, interpolate", METHODS, ids=["schaback", "least"])
    def test_corrupted_factors_fail_the_residual_certificate(self, method, make_basis, interpolate):
        """A Gramian block of a hull frame, factored as G: its pivot plus 1 is caught by V f - b."""
        basis = make_basis(graded_on([(0, 0), (1, 1), (3, 3)]))
        interpolate(basis, data=[0, 0, 1])  # factors the Gramian and caches the factors
        factors = basis.factors
        assert factors.outer == (None,) * 3
        lower, upper, ((num, den),) = factors.diagonal[-1]  # the top block is 1 x 1
        patched = (lower, upper, ((num + den, den),))
        vars(basis)["factors"] = factors._replace(diagonal=factors.diagonal[:-1] + (patched,))
        with pytest.raises(AssertionError, match=rf"^{method}_interpolate: residual mu_\d\(f\)"):
            interpolate(basis, data=[0, 0, 1])

    @pytest.mark.parametrize("method, make_basis, interpolate", METHODS, ids=["schaback", "least"])
    def test_wrong_sign_pivot_is_named(self, method, make_basis, interpolate, monkeypatch):
        broken = make_basis(graded_on([(0, 0), (1, 1), (3, 3)]))  # a hull frame, 1 x 1 blocks of orders 0, 1, 2

        def flip(block, gramian):  # still nonsingular, but against the sign law
            if block == [1]:
                gramian[0][0] = -gramian[0][0]

        corrupt_gramian_blocks(monkeypatch, flip)
        message = rf"^{method} Gramian diagonal block 1 \(order 1\): the pivot at index 1 breaks the sign law"
        with pytest.raises(AssertionError, match=message):
            interpolate(broken, data=[0, 0, 1])

    @pytest.mark.parametrize("method, make_basis, interpolate", METHODS, ids=["schaback", "least"])
    @pytest.mark.parametrize("i, alpha", [(2, (1, 0)), (1, (1, 0))], ids=["below", "diagonal"])
    def test_a_full_block_checks_that_u_is_unit_upper_triangular(self, method, make_basis, interpolate, i, alpha):
        """Block [1, 2] of order 1 is full, U H U^T with U = (lambda_i(x^beta_j)): a nonzero moment
        below U's diagonal, or a diagonal moment other than 1, is named."""
        basis = make_basis(graded_on(SKEWED))
        basis.source.rows[i][alpha] += 1
        message = rf"^{method} Gramian diagonal block 1 \(order 1\): U is not unit upper triangular at index {i}$"
        with pytest.raises(AssertionError, match=message):
            interpolate(basis, data=[0, 0, 0, 1])

    @pytest.mark.parametrize("method, make_basis, interpolate", METHODS, ids=["schaback", "least"])
    @pytest.mark.parametrize("part", ["outer", "pivot"])
    def test_corrupted_full_block_factors_fail_the_residual_certificate(self, method, make_basis, interpolate,
                                                                        part):
        """A full block's cached U entry or H pivot plus 1 is caught by V f - b: the factors of
        a full block are never checked against G, which is not built."""
        basis = make_basis(graded_on(SKEWED))
        interpolate(basis, data=[0, 0, 1, 1])
        factors = basis.factors
        (((c, num, den),), ()), (lower, upper, pivots) = factors.outer[1], factors.diagonal[1]  # U[0][1] = 1/2
        if part == "outer":
            factors = factors._replace(outer=(*factors.outer[:1], (((c, num + den, den),), ()), *factors.outer[2:]))
        else:
            (pn, pd), rest = pivots[0], pivots[1:]
            factors = factors._replace(diagonal=(*factors.diagonal[:1], (lower, upper, ((pn + pd, pd), *rest)),
                                                 *factors.diagonal[2:]))
        vars(basis)["factors"] = factors
        assert "gramian" not in vars(basis)
        with pytest.raises(AssertionError, match=rf"^{method}_interpolate: residual mu_\d\(f\)"):
            interpolate(basis, data=[0, 0, 1, 1])

    @pytest.mark.parametrize("make_basis, image, message", [
        (schaback_basis, "image_from_moments", r"^schaback_basis: radial image w_0 has degree 1"),
        (least_basis, "least_part_from_moments", r"^least_basis: least part g_0 is not homogeneous"),
    ], ids=["schaback", "least"])
    def test_basis_invariant_failures_name_the_index(self, monkeypatch, make_basis, image, message):
        import radpoly.interpolation as interpolation

        monkeypatch.setattr(interpolation, image, lambda *args: ({(1,): 1}, 1))  # the sums of x
        with pytest.raises(AssertionError, match=message):
            make_basis(graded_on([(0,), (1,)]))


class TestLeastInterpolation:
    def test_coincides_on_two_points(self):
        report = least_interpolate(graded_on([(0,), (1,)]), data=[0, 1])
        assert report.interpolant == Polynomial.variable(1, 0)

    def test_gridded_product_data(self):
        report = least_interpolate(graded_on(GRID), data=[0, 0, 0, 1])
        assert report.interpolant == monomial(2, (1, 1))

    def test_skew_four_points_differ_but_both_match(self):
        graded = graded_on(SKEW)
        # x1^2 and x1 share the same values on these points, so both methods
        # return x1 for that data; x1*x2 is a probe on which they differ.
        squared = monomial(2, (2, 0))
        assert schaback_interpolate(graded, target=squared).interpolant == monomial(2, (1, 0))
        assert least_interpolate(graded, target=squared).interpolant == monomial(2, (1, 0))
        target = monomial(2, (1, 1))
        left = schaback_interpolate(graded, target=target).interpolant
        right = least_interpolate(graded, target=target).interpolant
        assert left != right
        for p in SKEW:
            assert left(p) == target(p)
            assert right(p) == target(p)

    def test_least_basis_homogeneous(self):
        lb = least_basis(graded_on(SKEW))
        for g, kappa in zip(lb.g, lb.source.kappas):
            assert g.is_homogeneous(kappa)

    def test_derivative_span_reproduces_taylor_data(self):
        from radpoly import from_derivative

        span = [
            from_derivative((0,), (0,), 6),
            from_derivative((1,), (0,), 6),
            from_derivative((2,), (0,), 6),
        ]
        graded = build_graded_basis(span, degree_cap=6)
        target = Polynomial(1, {(2,): 3, (0,): 1})
        for interpolate in (schaback_interpolate, least_interpolate):
            assert interpolate(graded, target=target).interpolant == target

    def test_moment_cap_too_small_for_radial_images(self):
        from radpoly import DegreeCapError, MomentFunctional

        span = [
            MomentFunctional(1, 3, {(0,): 1}),
            MomentFunctional(1, 3, {(1,): 1}),
            MomentFunctional(1, 3, {(2,): 2}),
        ]
        graded = build_graded_basis(span, degree_cap=3)
        # the order-2 member needs moments up to degree 4 for its image
        with pytest.raises(DegreeCapError):
            schaback_basis(graded)

    def test_target_above_the_span_cap_raises(self):
        from radpoly import from_derivative

        graded = build_graded_basis([from_derivative((0,), (0,), 2), from_derivative((1,), (0,), 2)], 1)
        target = Polynomial(1, {(3,): 1})
        for interpolate in (schaback_interpolate, least_interpolate):
            with pytest.raises(DegreeCapError, match="up to degree 3, functional cap is 2"):
                interpolate(graded, target=target)

    def test_least_span_depends_only_on_the_functional_space(self):
        points = [(0, 0), (1, 2), (2, 1), (-1, 1), (3, 0)]
        one = least_basis(graded_on(points))
        other = least_basis(build_with_ties(
            [point_evaluation(p) for p in reversed(points)], ascending_ties=True
        ))
        assert polynomial_span_equal(one.g, other.g)


class TestRangeBasis:
    def test_gridded_range_is_quadratic_extension(self):
        sb = schaback_basis(graded_on(GRID))
        lb = least_basis(sb.source)
        expected = [
            Polynomial.constant(2, 1),
            Polynomial.variable(2, 0),
            Polynomial.variable(2, 1),
            monomial(2, (1, 1)),
        ]
        assert polynomial_span_equal(sb.w, expected)
        assert polynomial_span_equal(lb.g, expected)

    def test_two_points_span_linears(self):
        sb = schaback_basis(graded_on([(0,), (1,)]))
        assert polynomial_span_equal(
            sb.w, [Polynomial.constant(1, 1), Polynomial.variable(1, 0)]
        )

    def test_single_point_span_is_constants(self):
        sb = schaback_basis(graded_on([(7, -2)]))
        assert sb.w == (Polynomial.constant(2, 1),)


def test_span_equality_of_empty_and_zero_spans():
    """With no monomial at all both row reductions are empty: the empty and the all-zero
    spans are equal to each other and unequal to a nonzero span."""
    zero, x = Polynomial.zero(2), Polynomial.variable(2, 0)
    assert polynomial_span_equal([], []) and polynomial_span_equal([], [zero])
    assert polynomial_span_equal([zero, zero], [zero])
    assert not polynomial_span_equal([zero], [x]) and not polynomial_span_equal([], [x])


class TestFlatProjector:
    """P is a function of the point: checked by its values, against the hull it projects onto."""

    def test_spanning_points_give_identity(self):
        proj = flat_projector([(0, 0), (1, 0), (0, 1)])
        for x in [(3, -2), (Fraction(1, 3), 7), (0, 0)]:
            assert proj(x) == x

    def test_diagonal_line(self):
        proj = flat_projector([(0, 0), (1, 1)])
        assert proj((1, 0)) == proj((0, 1)) == (Fraction(1, 2), Fraction(1, 2))
        assert proj((3, 5)) == (4, 4)

    def test_coordinate_plane(self):
        proj = flat_projector([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
        assert proj((2, -3, 5)) == (2, -3, 0)
        assert proj((Fraction(1, 2), 0, -1)) == (Fraction(1, 2), 0, 0)

    def test_matches_the_gram_inverse_projector(self):
        rng = random.Random(5)
        for _ in range(10):
            d = rng.randint(1, 3)
            pts = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d))
                   for _ in range(rng.randint(1, d + 1))]
            proj = flat_projector(pts)
            q, shift = gram_projector(pts)
            for _ in range(3):
                x = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(d))
                assert list(proj(x)) == [v + s for v, s in zip(mat_vec(q, list(x)), shift)]

    def test_idempotent_and_symmetric(self):
        """P fixes the points and P(P x) = P x; x - P x is orthogonal to the hull's directions,
        the differences of the points, which makes P the orthogonal projector."""
        rng = random.Random(13)
        for _ in range(10):
            d = rng.randint(2, 3)
            n = rng.randint(1, d)
            pts = set()
            while len(pts) < n:
                pts.add(tuple(Fraction(rng.randint(-4, 4)) for _ in range(d)))
            pts = list(pts)
            proj = flat_projector(pts)
            for p in pts:
                assert proj(p) == p
            x = tuple(Fraction(rng.randint(-6, 6)) for _ in range(d))
            assert proj(proj(x)) == proj(x)
            normal = [a - b for a, b in zip(x, proj(x))]
            for p in pts[1:]:
                assert sum(c * (a - b) for c, a, b in zip(normal, p, pts[0])) == 0

    def test_input_checks(self):
        with pytest.raises(ValueError):
            flat_projector([])
        with pytest.raises(DimensionMismatchError):
            flat_projector([(0, 0), (1, 0, 0)])
        with pytest.raises(DimensionMismatchError):
            flat_projector([(0, 0), (1, 1)])((1, 2, 3))


def four_point_radial_moment(points):
    """The diagnostic ``compare`` reports: lambda ||.||^2 for the graded basis's order-2 member on
    four distinct planar points, None for any other configuration."""
    if len(points) != 4 or any(len(p) != 2 for p in points) or len(set(map(tuple, points))) != 4:
        return None
    return _four_point_moment(graded_on(points))


def four_point_kernel_moment(points):
    """Oracle: the kernel of [[1, 1, 1, 1], xs, ys] read off its rref; when it is one-dimensional,
    its vector weighted so that the last nonzero weight is 1, and sum_j w_j ||x_j||^2 (else None)."""
    points = [tuple(map(Fraction, p)) for p in points]
    reduced, pivots = rref([[Fraction(1)] * 4, [x for x, _ in points], [y for _, y in points]])
    free = [c for c in range(4) if c not in pivots]
    if len(free) != 1:
        return None
    weights = [Fraction(int(c == free[0])) for c in range(4)]
    for row, p in zip(reduced, pivots):
        weights[p] = -row[free[0]]
    last = next(w for w in reversed(weights) if w)
    return sum(w / last * (x * x + y * y) for w, (x, y) in zip(weights, points))


class TestComparison:
    def test_gridded_case(self):
        report = compare_interpolants(GRID, probe_degree=3)
        assert report.ranges_equal
        assert report.interpolants_agree
        assert report.four_point_radial_moment == 0

    def test_skew_case(self):
        report = compare_interpolants(SKEW, probe_degree=3)
        assert report.four_point_radial_moment == 2
        assert not report.ranges_equal
        assert not report.interpolants_agree

    def test_collinear_case(self):
        report = compare_interpolants([(0, 0), (1, 1), (2, 2)], probe_degree=3)
        assert report.ranges_equal
        assert report.interpolants_agree

    def test_four_point_diagnostic_guard(self):
        assert four_point_radial_moment([(0, 0), (1, 1)]) is None
        assert four_point_radial_moment([(0, 0), (1, 0), (0, 1)]) is None
        assert four_point_radial_moment([*SKEW, (2, 3)]) is None
        assert four_point_radial_moment([(0, 0), (1, 1), (2, 2), (3, 3)]) is None
        assert four_point_radial_moment([(0, 0, 0)]) is None
        assert four_point_radial_moment([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]) is None
        assert four_point_radial_moment([(0, 0), (0, 0), (1, 0), (0, 1)]) is None

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(
        st.lists(st.tuples(RATIONALS, RATIONALS), min_size=4, max_size=4, unique=True),
        st.builds(lambda base, direction, ts: [tuple(b + t * v for b, v in zip(base, direction)) for t in ts],
                  st.tuples(RATIONALS, RATIONALS), st.tuples(RATIONALS, RATIONALS).filter(any),
                  st.lists(RATIONALS, min_size=4, max_size=4, unique=True))))
    def test_four_point_moment_matches_the_kernel_oracle(self, points):
        expected = four_point_kernel_moment(points)
        assert four_point_radial_moment(points) == expected
        assert compare_interpolants(points, probe_degree=0).four_point_radial_moment == expected


class TestProjectorLaws:
    def test_idempotence_interpolation_degree_reduction(self):
        rng = random.Random(23)
        from radpoly import monomial_sequence

        for _ in range(8):
            d = rng.randint(1, 3)
            n = rng.randint(2, 7)
            pts = set()
            while len(pts) < n:
                pts.add(tuple(Fraction(rng.randint(-5, 5)) for _ in range(d)))
            graded = graded_on(list(pts))
            sb = schaback_basis(graded)
            lb = least_basis(graded)
            pool = monomial_sequence(d, 6)
            terms = {alpha: Fraction(rng.randint(-9, 9)) for alpha in rng.sample(pool, 4)}
            target = Polynomial(d, terms)
            for interpolate in (
                lambda t: schaback_interpolate(sb, target=t),
                lambda t: least_interpolate(lb, target=t),
            ):
                report = interpolate(target)
                f = report.interpolant
                assert all(r == 0 for r in report.residuals)
                assert f.degree <= target.degree
                assert interpolate(f).interpolant == f

    def test_minimal_degree_dimension_equality(self):
        rng = random.Random(29)
        for _ in range(8):
            d = rng.randint(1, 3)
            n = rng.randint(2, 7)
            pts = set()
            while len(pts) < n:
                pts.add(tuple(Fraction(rng.randint(-5, 5)) for _ in range(d)))
            graded = graded_on(list(pts))
            # dim(span ∩ deg < k) is the number of pivot degrees below k
            degrees = [_pivot_degrees(schaback_basis(graded).w), _pivot_degrees(least_basis(graded).g)]
            for k in range(max(graded.kappas) + 3):
                tail = sum(1 for kappa in graded.kappas if kappa >= k)
                for pivots in degrees:
                    assert sum(degree < k for degree in pivots) + tail == n

    @given(st.integers(1, 2).flatmap(lambda d: st.lists(
        st.dictionaries(st.tuples(*[st.integers(0, 3)] * d), st.integers(-2, 2), max_size=4)
        .map(lambda terms: Polynomial(d, terms)), max_size=5)), st.integers(0, 7))
    @settings(deadline=None, max_examples=60)
    def test_span_dimension_below_is_the_rank_drop_past_degree_k(self, polys, k):
        """dim(span(polys) ∩ deg < k), the pivot degrees below k, against an oracle: the rank of all
        coefficients less that of the degree >= k ones."""
        monomials = sorted({alpha for p in polys for alpha, _ in p.terms()})

        def rank(columns):
            return len(rref([[p.coefficient(alpha) for alpha in columns] for p in polys])[1])

        high = [alpha for alpha in monomials if sum(alpha) >= k]
        assert sum(degree < k for degree in _pivot_degrees(polys)) == rank(monomials) - rank(high)


class TestGeneralLinearBehaviour:
    def test_least_range_transforms_by_the_transpose(self):
        shear = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
        moved = [tuple(sum(row[j] * Fraction(p[j]) for j in range(2)) for row in shear)
                 for p in SKEW]
        lb_moved = least_basis(graded_on(moved))
        lb = least_basis(graded_on(SKEW))
        composed = [g.compose_affine(transpose(shear)) for g in lb.g]
        assert polynomial_span_equal(lb_moved.g, composed)

    def test_radial_method_violates_the_transformation_law(self):
        from test_verification import schaback_general_linear_counterexample

        witness = schaback_general_linear_counterexample()
        assert witness is not None
        points, matrix = witness
        assert determinant(matrix) != 0
        assert matrix != transpose([list(r) for r in matrix]) or any(
            sum(Fraction(v) ** 2 for v in row) != 1 for row in matrix
        )


@given(spans())
@settings(deadline=None, max_examples=60)
def test_table_built_bases_match_the_functional_path(case):
    """w_j, g_j and both Gramians from the rows of L equal those from the lambda_j."""
    span, degree_cap, ascending_ties = case
    try:
        graded = build_with_ties(span, degree_cap, ascending_ties)
    except RankDeficientError:
        return
    lambdas = graded.lambdas
    try:
        images = composed_images(graded)
    except DegreeCapError:
        with pytest.raises(DegreeCapError):
            schaback_basis(graded)
    else:
        sb = schaback_basis(graded)
        assert sb.w == tuple(images)
        lambda_gramian(sb, images)
    parts = [least_part(lam) for lam in lambdas]
    lb = least_basis(graded)
    assert lb.g == tuple(parts)
    lambda_gramian(lb, parts)


@given(spans(kinds=("points", "collinear", "coplanar", "derivatives")))
@settings(deadline=None, max_examples=60)
def test_each_basis_polynomial_is_held_once_as_its_integer_form(case):
    """Each form is the integer form of its polynomial in the frame, in lowest terms with nonzero
    numerators; on full-dimensional spans that polynomial is the Fraction path's radial image
    lambda_j ||x - .||^(2 kappa_j) or least part of lambda_j."""
    span, degree_cap, ascending_ties = case
    try:
        graded = build_with_ties(span, degree_cap, ascending_ties)
    except RankDeficientError:
        return
    for method, make_basis, _ in METHODS:
        try:
            basis = make_basis(graded)
        except DegreeCapError:  # a moment cap below 2 kappa: no radial images
            continue
        assert "polys" not in vars(basis) and len(basis.forms) == graded.size
        for (nums, den), p in zip(basis.forms, basis.polys):
            assert (list(nums), den) == p._integer_form()
            assert all(type(v) is int and v for _, v in nums) and type(den) is int and den > 0
            assert math.gcd(den, *(v for _, v in nums)) == 1
        if graded.frame.linear is None:
            expected = [radial_image(lam, kappa) if method == "schaback" else least_part(lam)
                        for lam, kappa in zip(graded.lambdas, graded.kappas)]
            assert basis.polys == tuple(expected)


@pytest.mark.parametrize("points", [
    [(0, 0), (1, 0), (0, 1), (2, 3), (-1, 2), (3, -2), (1, 1)],
    [(t, 2 * t + 1) for t in (-3, -1, 0, 2, 5, 6)],
], ids=["generic", "collinear"])
def test_solves_build_no_basis_polynomial(points):
    """Both solves read only the forms: neither basis builds its polynomials, in the frame or in x."""
    graded = graded_on(points)
    for _, make_basis, interpolate in METHODS:
        basis = make_basis(graded)
        interpolate(basis, data=list(range(len(points))))
        assert not {"polys", "w", "g"} & vars(basis).keys()


def plane_points(n, denominator=1):
    """n distinct points of the plane, integer numerators in [-5, 5] from ``random.Random(1)``."""
    rng, points = random.Random(1), []
    while len(points) < n:
        p = (Fraction(rng.randint(-5, 5), denominator), Fraction(rng.randint(-5, 5), denominator))
        if p not in points:
            points.append(p)
    return points


def test_rows_of_l_are_filled_only_where_read():
    """After both bases, row i holds no degree above max(2 kappa_i, kappa_max),
    and some row holds fewer entries than a table up to 2 kappa_max."""
    from radpoly import monomial_sequence

    graded = graded_on(plane_points(15))
    schaback_basis(graded)
    least_basis(graded)
    kappa_max = max(graded.kappas)
    rows = graded.rows
    for i, (row, kappa) in enumerate(zip(rows, graded.kappas)):
        assert max(map(sum, row)) <= max(2 * kappa, kappa_max), i
    assert min(map(len, rows)) < len(monomial_sequence(2, 2 * kappa_max))


@pytest.mark.parametrize("denominator", [1, 3])
def test_bases_do_not_depend_on_which_is_built_first(denominator, monkeypatch):
    """The rows of L are built once per graded basis, up to 2 kappa_max, whichever basis
    reads them first: one object, with the same denominators either way, and w, g and both
    Gramians those of the other order.  Rational points give each degree its own table scale."""
    import radpoly.graded as graded_module

    built, build = [], graded_module.MomentTable.rows
    monkeypatch.setattr(graded_module.MomentTable, "rows",
                        lambda table, transform, top: built.append(top) or build(table, transform, top))
    points = plane_points(12, denominator)
    least_first, schaback_first = graded_on(points), graded_on(points)
    lb = least_basis(least_first)
    rows = least_first.rows
    sb = schaback_basis(least_first)
    assert least_first.rows is rows
    other_sb = schaback_basis(schaback_first)
    rows = schaback_first.rows
    other_lb = least_basis(schaback_first)
    assert schaback_first.rows is rows
    assert built == [2 * max(least_first.kappas)] * 2
    assert [row.denominator for row in least_first.rows] == [row.denominator for row in rows]
    assert (sb.w, sb.gramian) == (other_sb.w, other_sb.gramian)
    assert (lb.g, lb.gramian) == (other_lb.g, other_lb.gramian)


@given(spans())
@settings(deadline=None, max_examples=60)
def test_least_gramian_blocks_are_the_apolar_pairing(case):
    """On each diagonal block lambda_i g_j = sum_alpha alpha! g_i[alpha] g_j[alpha]
    (de Boor-Ron): g_j is homogeneous of degree kappa, and there
    g_i[alpha] = lambda_i(x^alpha) / alpha!."""
    span, degree_cap, ascending_ties = case
    try:
        graded = build_with_ties(span, degree_cap, ascending_ties)
    except RankDeficientError:
        return
    lb = least_basis(graded)
    for block in graded.blocks():
        for i in block:
            for j in block:
                assert lb.gramian[i][j] == apolar(lb.g[i], lb.g[j])


def kernel_block(kappa, weights):
    """The degree-kappa monomials and K_kappa, the coefficients of t^gamma s^delta with
    |gamma| = |delta| = kappa in ||t - s||_D^(2 kappa), D the weights."""
    monomials = list(monomials_of_degree(len(weights), kappa))
    index = {alpha: k for k, alpha in enumerate(monomials)}
    block = [[0] * len(monomials) for _ in monomials]
    for delta, terms in _radial_kernel(kappa, weights):
        if sum(delta) == kappa:  # then |gamma| = kappa too
            for gamma, coeff in terms:
                block[index[gamma]][index[delta]] = coeff
    return monomials, block


@st.composite
def values_and_gradients(draw):
    """Values and gradients at one to four sites of the plane, moment cap 8, degree cap 4."""
    sites = draw(st.lists(st.tuples(RATIONALS, RATIONALS), min_size=1, max_size=4, unique=True))
    span = [from_derivative(alpha, site, 8) for site in sites for alpha in ((0, 0), (1, 0), (0, 1))]
    return span, 4, draw(st.booleans())


@given(st.one_of(spans(kinds=("points", "collinear", "coplanar", "derivatives")), values_and_gradients()))
@settings(deadline=None, max_examples=80)
def test_diagonal_gramian_blocks_are_products_with_the_rows_of_l(case):
    """On the block of order kappa, with M the block's degree-kappa moments in the frame (integers
    over the row denominators D) and w the frame's weights, G_S = D^-1 M K_kappa M^T D^-1 and
    G_L = D^-1 M diag(w^alpha / alpha!) M^T D^-1: no image and no form is read."""
    span, degree_cap, ascending_ties = case
    try:
        graded = build_with_ties(span, degree_cap, ascending_ties)
    except RankDeficientError:
        return
    weights, kappa_max, cap = graded.frame.weights, graded.kappas[-1], graded.moments.cap
    rows = graded.frame.moments.rows(graded.integer_transform, kappa_max)  # a second build, of its own
    sb = schaback_basis(graded) if cap is None or cap >= 2 * kappa_max else None
    lb = least_basis(graded)
    for block in graded.blocks():
        monomials, kernel = kernel_block(graded.kappas[block[0]], weights)
        pairing = [[Fraction(math.prod(map(pow, weights, alpha)), multi_factorial(alpha)) * (alpha == beta)
                    for beta in monomials] for alpha in monomials]
        m = [[rows[i][alpha] for alpha in monomials] for i in block]
        for basis, middle in [(lb, pairing)] + [(sb, kernel)] * (sb is not None):
            product = mat_mul(mat_mul(m, middle), transpose(m))
            for (r, i), (c, j) in ((x, y) for x in enumerate(block) for y in enumerate(block)):
                scale = rows[i].denominator * rows[j].denominator
                assert basis.gramian[i][j] == Fraction(product[r][c], scale), (basis._method, i, j)


def held_matrices(factors, bi):
    """The outer factor U (the identity when there is none) and H = L U of block ``bi``, from the pairs
    ``factors`` holds."""
    lower, upper, pivots = factors.diagonal[bi]
    m = len(pivots)
    u, h_lower, h_upper = identity(m), identity(m), [[Fraction(0)] * m for _ in range(m)]
    for matrix, rows in ((u, factors.outer[bi] or ()), (h_lower, lower), (h_upper, upper)):
        for r, row in enumerate(rows):
            for c, num, den in row:
                matrix[r][c] = Fraction(num, den)
    for r, (num, den) in enumerate(pivots):
        h_upper[r][r] = Fraction(num, den)
    return u, mat_mul(h_lower, h_upper)


@given(st.one_of(spans(kinds=("points", "collinear", "coplanar", "derivatives")), values_and_gradients()))
@settings(deadline=None, max_examples=80)
def test_full_gramian_blocks_are_u_h_ut_and_every_block_keeps_the_sign_law(case):
    """A block is full when the frame is x and its pivots are all the monomials of its order kappa.
    There the factors hold U = (lambda_i(x^beta_j)), read here off the rows of L at the block's
    pivots beta and unit upper triangular, and H = K_kappa (Schaback) or diag(1 / alpha!) (least),
    and G = U H U^T.  Other blocks hold G's own factors and no U.  G's own L D L^T pivots, which
    the solves no longer compute on a full block, have the sign (-1)^kappa (Schaback) or are
    positive (least) on every block."""
    span, degree_cap, ascending_ties = case
    try:
        graded = build_with_ties(span, degree_cap, ascending_ties)
    except RankDeficientError:
        return
    d, rows, cap = graded.dimension, graded.rows, graded.moments.cap
    blocks = graded.blocks()
    bases = [least_basis(graded)] + ([schaback_basis(graded)] if cap is None or cap >= 2 * graded.kappas[-1] else [])
    for basis in bases:
        own = factor_block_upper(basis.gramian, blocks)
        for bi, block in enumerate(blocks):
            kappa = graded.kappas[block[0]]
            assert all(num * basis._sign ** kappa > 0 for _, _, pivots in [own.diagonal[bi]] for num, _ in pivots)
            u, h = held_matrices(basis.factors, bi)
            gramian = [[basis.gramian[i][j] for j in block] for i in block]
            monomials, kernel = kernel_block(kappa, (1,) * d)
            pivots = [graded.pivots[i] for i in block]
            if graded.frame.linear is None and sorted(pivots) == sorted(monomials):  # in pivot order:
                kernel = [[kernel[monomials.index(a)][monomials.index(b)] for b in pivots] for a in pivots]
                assert u == [[Fraction(rows[i][beta], rows[i].denominator) for beta in pivots] for i in block]
                assert all(u[r][r] == 1 and not any(u[r][:r]) for r in range(len(block)))
                assert h == (kernel if basis._method == "schaback" else
                             [[Fraction(int(a == b), multi_factorial(a)) for b in pivots] for a in pivots])
                assert mat_mul(mat_mul(u, h), transpose(u)) == gramian, (basis._method, bi)
            else:
                assert basis.factors.outer[bi] is None and h == gramian, (basis._method, bi)


@pytest.mark.parametrize("basis", [SchabackBasis, LeastBasis], ids=["schaback", "least"])
def test_the_cached_middle_factors_keep_the_sign_law(basis):
    """H's pivots, checked once when H is factored, have the sign (-1)^kappa (Schaback) or are
    positive (least) for d <= 3 and kappa <= 8, and L U is H."""
    for d in (1, 2, 3):
        for kappa in range(9):
            monomials = tuple(monomials_of_degree(d, kappa))
            lower, upper, pivots = factors = _middle_factors(basis, monomials)
            assert len(pivots) == math.comb(kappa + d - 1, d - 1)
            assert all(num * basis._sign ** kappa > 0 for num, _ in pivots), (d, kappa)
            if kappa <= 4:
                held = held_matrices(BlockUpperFactors((), (factors,), (None,)), 0)[1]
                assert held == [[Fraction(v) for v in row] for row in basis._middle(kappa, monomials)]


def test_a_middle_block_against_the_sign_law_is_named():
    """Factoring H checks its pivots: -K_1 in d=2, against the law of order 1, names its first pivot."""

    class Flipped(SchabackBasis):
        @staticmethod
        def _middle(kappa, monomials):
            return [[-v for v in row] for row in SchabackBasis._middle(kappa, monomials)]

    message = r"^schaback full-block H in dimension 2 \(order 1\): the pivot at index 0 breaks the sign law$"
    with pytest.raises(AssertionError, match=message):
        _middle_factors.__wrapped__(Flipped, ((1, 0), (0, 1)))


@given(st.one_of(spans(kinds=("points", "collinear", "coplanar", "derivatives")), values_and_gradients()))
@settings(deadline=None, max_examples=60)
def test_no_basis_reads_the_moments_below_a_rows_order(case):
    """lambda_i annihilates every degree below kappa_i, in the frame too, so the radial images, both
    Gramians and both solves skip those moments of the rows of L: none of them is filled, and each
    of them, read afterwards, is zero."""
    span, degree_cap, ascending_ties = case
    try:
        graded = build_with_ties(span, degree_cap, ascending_ties)
    except RankDeficientError:
        return
    kappa_max, cap = graded.kappas[-1], graded.moments.cap
    data = list(range(1, graded.size + 1))
    least_interpolate(graded, data=data)
    if cap is None or cap >= 2 * kappa_max:
        schaback_interpolate(graded, data=data)
    rows, r = graded.rows, len(graded.frame.weights)
    assert all(sum(alpha) >= kappa for row, kappa in zip(rows, graded.kappas) for alpha in row)
    for row, kappa in zip(rows, graded.kappas):
        assert all(row[alpha] == 0 for k in range(kappa) for alpha in monomials_of_degree(r, k))


@pytest.mark.parametrize("weights", [(1,), (3,), (1, 1), (2, 5), (1, 1, 1), (1, 2, 3)])
def test_the_signed_kernel_blocks_are_positive_definite(weights):
    """(-1)^kappa K_kappa has positive L D L^T pivots for kappa <= 5, the ratios of its leading
    minors, so all of those are positive: with the Gramian blocks M K_kappa M^T (above), the
    source of the sign law each factored block checks."""
    for kappa in range(6):
        _, block = kernel_block(kappa, weights)
        signed = [[Fraction((-1) ** kappa * v) for v in row] for row in block]
        minors = [determinant([row[:r] for row in signed[:r]]) for r in range(1, len(signed) + 1)]
        assert all(minor > 0 for minor in minors), (kappa, minors)


@pytest.mark.parametrize("points, calls", [
    ([(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 3)], 0),  # d + 1 orders <= 1: the hull is R^2
    ([(0, 1), (1, 3), (2, 5)], 1),
])
def test_full_dimensional_spans_skip_the_hull(monkeypatch, points, calls):
    import radpoly.graded as graded_module

    seen, hull = [], graded_module._hull

    def counted(pts):
        seen.append(pts)
        return hull(pts)

    monkeypatch.setattr(graded_module, "_hull", counted)
    schaback_basis(graded_on(points))
    assert len(seen) == calls


def test_collinear_rational_basis_matches_the_composed_images():
    """d=2, n=12 on a line with rational coordinates, against the Gram projector path."""
    base, direction = (Fraction(1, 3), Fraction(-2, 5)), (Fraction(3, 2), Fraction(1, 4))
    steps = [Fraction(t, 2) for t in (-7, -5, -4, -1, 0, 1, 2, 3, 6, 8, 9, 11)]
    graded = graded_on([[b + t * v for b, v in zip(base, direction)] for t in steps])
    assert graded.kappas == tuple(range(12))
    images = composed_images(graded)
    sb = schaback_basis(graded)
    assert sb.w == tuple(images)
    lambda_gramian(sb, images)
    report = least_interpolate(graded, data=[t * t - 1 for t in steps])
    assert schaback_interpolate(sb, data=report.data).interpolant == report.interpolant


def dense_oracle(basis, b):
    """The solve path before factoring: a dense solve of the whole Gramian (lambda_i p_j)
    on T b, assembly by Polynomial.__add__, and residuals mu(f) - b."""
    graded = basis.source
    coefficients = solve(lambda_gramian(basis), mat_vec(graded.transform, b))
    f = Polynomial.zero(graded.dimension)
    for a, p in zip(coefficients, in_x(basis)):
        f = f + a * p
    return tuple(coefficients), f, tuple(mu(f) - value for mu, value in zip(graded.span, b))


@st.composite
def solve_cases(draw, kinds=SPAN_KINDS):
    """A span from ``spans(kinds)``, two data vectors and a target of degree <= 3."""
    span, degree_cap, ascending_ties = draw(spans(kinds))
    d, n = span[0].dimension, len(span)
    datas = draw(st.lists(st.lists(RATIONALS, min_size=n, max_size=n), min_size=2, max_size=2))
    alpha = st.tuples(*[st.integers(0, 3)] * d).filter(lambda a: sum(a) <= 3)
    target = Polynomial(d, draw(st.lists(st.tuples(alpha, RATIONALS), max_size=4)))
    return span, degree_cap, ascending_ties, datas, target


@given(solve_cases())
@settings(deadline=None, max_examples=60)
def test_factored_solves_match_the_dense_oracle(case):
    """Cached factors, integer assembly and the V f - b certificate against the
    old path; solves repeated on one basis equal solves on fresh bases."""
    span, degree_cap, ascending_ties, datas, target = case

    def fresh_graded():
        return build_with_ties(span, degree_cap, ascending_ties)

    try:
        graded = fresh_graded()
    except RankDeficientError:
        return
    for _, make_basis, interpolate in METHODS:
        try:
            basis = make_basis(graded)
        except DegreeCapError:  # a moment cap below 2 kappa: no radial images
            continue
        inputs = [({"data": data}, [Fraction(v) for v in data]) for data in datas]
        inputs.append(({"target": target}, [mu(target) for mu in span]))
        for kwargs, b in inputs:
            report = interpolate(basis, **kwargs)
            coefficients, f, residuals = dense_oracle(basis, b)
            assert report.data == tuple(b)
            assert report.coefficients == coefficients
            assert report.interpolant == f
            assert report.residuals == residuals == (0,) * len(span)
            fresh = interpolate(make_basis(fresh_graded()), **kwargs)
            assert fresh.coefficients == report.coefficients
            assert fresh.interpolant == report.interpolant
        assert basis == make_basis(fresh_graded())  # the cached factors stay out of ==


@given(st.sampled_from(["collinear", "coplanar", "derivatives"]).flatmap(
    lambda kind: st.tuples(st.just(kind), solve_cases(kinds=(kind,)))))
@settings(deadline=None, max_examples=60)
def test_solves_in_hull_coordinates_match_the_dense_oracle(case):
    """On collinear and coplanar rational sets both solves reduce and sum F in hull
    coordinates and map it to x by one substitution; on derivative spans they work
    in x.  Both methods agree with the dense lambda_i(p_j) solve."""
    kind, (span, degree_cap, ascending_ties, datas, target) = case
    try:
        graded = build_with_ties(span, degree_cap, ascending_ties)
    except RankDeficientError:
        return
    for method, make_basis, interpolate in METHODS:
        try:
            basis = make_basis(graded)
        except DegreeCapError:  # a moment cap below 2 kappa: no radial images
            continue
        if kind != "derivatives":
            assert graded.frame.linear is not None  # A, t = A x, for either method
        for data in datas:
            b = [Fraction(v) for v in data]
            report = interpolate(basis, data=data)
            coefficients, f, residuals = dense_oracle(basis, b)
            assert (report.coefficients, report.interpolant) == (coefficients, f)
            assert report.residuals == residuals == (0,) * len(span)


DEGENERATE = pytest.mark.parametrize("points", [
    [(t, 2 * t + 1) for t in (-3, -1, 0, 2, 5, 6)],
    [(a, b, a + b) for a, b in ((0, 0), (1, 0), (0, 1), (2, -1), (-1, 2), (1, 1), (-2, -1))],
], ids=["collinear", "coplanar"])


@DEGENERATE
def test_only_f_and_a_read_of_w_are_mapped_to_x(monkeypatch, points):
    """Neither builder substitutes: both keep their polynomials in hull coordinates,
    with the same A.  Each solve of either method substitutes its F once, and w and g
    are each mapped to x when first read."""
    import radpoly.interpolation as interpolation

    calls, substitute = [], interpolation.substitute_affine

    def counted(polys, *affine):
        calls.append(len(polys))
        return substitute(polys, *affine)

    monkeypatch.setattr(interpolation, "substitute_affine", counted)
    graded = graded_on(points)
    sb, lb = schaback_basis(graded), least_basis(graded)
    assert calls == [] and graded.frame.linear is not None and lb.source.frame is sb.source.frame
    for value in (1, -2):
        data = [value * (i % 3) for i in range(len(points))]
        schaback_interpolate(sb, data=data)
        least_interpolate(lb, data=data)
    assert calls == [1] * 4
    assert sb.w is sb.w and calls == [1] * 4 + [len(points)]
    assert lb.g is lb.g and calls == [1] * 4 + [len(points)] * 2
    assert sb.w == tuple(substitute(sb.polys, graded.frame.linear))
    assert lb.g == tuple(substitute(lb.polys, graded.frame.linear))


@DEGENERATE
def test_both_bases_share_one_hull_frame(monkeypatch, points):
    """The hull is computed once per graded basis, by the elimination; least_basis alone
    reads its rows of L in hull coordinates and its graded basis carries the map to x;
    building least then Schaback, or the reverse, gives the same Gramians, w, g and solves."""
    import radpoly.graded as graded_module

    seen, hull = [], graded_module._hull
    monkeypatch.setattr(graded_module, "_hull", lambda pts: seen.append(pts) or hull(pts))
    alone = least_basis(graded_on(points))
    rows, linear = alone.source.rows, alone.source.frame.linear
    assert len(seen) == 1 and linear is not None
    assert {len(alpha) for row in rows for alpha in row} == {len(linear)}  # no row of L in x
    least_first, schaback_first = graded_on(points), graded_on(points)
    lb = least_basis(least_first)
    sb = schaback_basis(least_first)
    other_sb = schaback_basis(schaback_first)
    other_lb = least_basis(schaback_first)
    assert len(seen) == 3
    assert lb.source.frame is sb.source.frame and other_lb.source.frame is other_sb.source.frame
    assert (sb.gramian, sb.w) == (other_sb.gramian, other_sb.w)
    assert (lb.gramian, lb.g) == (other_lb.gramian, other_lb.g) == (alone.gramian, alone.g)
    data = [(i * i) % 5 - 2 for i in range(len(points))]
    for interpolate, bases in ((schaback_interpolate, (sb, other_sb)),
                               (least_interpolate, (lb, other_lb, alone))):
        reports = [interpolate(basis, data=data) for basis in bases]
        assert len({(r.coefficients, r.interpolant) for r in reports}) == 1


@pytest.mark.parametrize("points", [
    [(t, 2 * t + 1) for t in (-3, -1, 0, 2, 5, 6)],
    [(a, b, a + b) for a, b in ((0, 0), (1, 0), (0, 1), (2, -1), (-1, 2), (1, 1), (-2, -1))],
    [(1, -2, 3), (4, 0, -1)],  # the search stops at degree 1
], ids=["collinear", "coplanar", "two-points"])
def test_the_elimination_finds_the_hull_once(monkeypatch, points):
    """The build, both bases and one solve of each compute the support's hull once, in the
    elimination, which takes no separate rank of the point differences."""
    import radpoly.graded as graded_module
    import radpoly.rational_linalg as linalg_module

    seen, hull = [], graded_module._hull
    monkeypatch.setattr(graded_module, "_hull", lambda pts: seen.append(pts) or hull(pts))
    rank = mock.Mock(side_effect=AssertionError("rank taken"))
    monkeypatch.setattr(graded_module, "pivot_columns", rank, raising=False)
    monkeypatch.setattr(linalg_module, "pivot_columns", rank)
    graded = graded_on(points)
    assert len(seen) == 1 and graded.hull is not None
    data = [i % 3 for i in range(len(points))]
    schaback_interpolate(schaback_basis(graded), data=data)
    least_interpolate(least_basis(graded), data=data)
    assert len(seen) == 1 and len(graded.frame.linear) == len(graded.hull.weights)


@pytest.mark.parametrize("points, equal", [
    ([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 2, 1)], False),  # the skew four-set on a plane
    ([(a, b, a + b) for a, b in ((0, 0), (1, 0), (0, 1), (2, -1), (-1, 2), (1, 1), (-2, -1))], False),
    ([(t, 2 * t + 1) for t in (-3, -1, 0, 2, 5, 6)], True),
    ([(0, 0), (2, 1), (-1, 3), (1, -2), (3, 3), (-2, -1), (0, 2)], False),
], ids=["skew-plane", "coplanar", "collinear", "generic"])
def test_compare_decides_range_equality_in_the_shared_frame(points, equal):
    """p -> p(A x) is injective for A onto R^r, so the ranges in hull coordinates are equal
    exactly when the ranges in x are."""
    graded = graded_on(points)
    assert polynomial_span_equal(schaback_basis(graded).w, least_basis(graded).g) is equal
    assert compare_interpolants(points, probe_degree=1).ranges_equal is equal


@DEGENERATE
def test_compare_maps_no_basis_polynomial_to_x(monkeypatch, points):
    """On a degenerate set compare reads neither w nor g: the only substitutions are the
    interpolants, one polynomial per solve, two solves per probe (the two agree here).  Equal
    ranges decide the comparison with no probe, so the line, whose ranges are equal, maps none."""
    import radpoly.interpolation as interpolation

    calls, substitute = [], interpolation.substitute_affine
    monkeypatch.setattr(interpolation, "substitute_affine",
                        lambda polys, *affine: calls.append(len(polys)) or substitute(polys, *affine))
    report = compare_interpolants(points, probe_degree=2)
    assert report.interpolants_agree and report.ranges_equal is (len(points[0]) == 2)
    probes = 0 if report.ranges_equal else len(monomial_sequence(len(points[0]), 2))
    assert calls == [1] * 2 * probes


def unbounded_first_difference(points, probe_degree):
    """The probe loop with no bound: the first monomial in graded order up to ``probe_degree``
    on which the two interpolants differ, or None."""
    graded = graded_on(points)
    sb, lb = schaback_basis(graded), least_basis(graded)
    for alpha in monomial_sequence(graded.dimension, probe_degree):
        probe = monomial(graded.dimension, alpha)
        if schaback_interpolate(sb, target=probe).interpolant != least_interpolate(lb, target=probe).interpolant:
            return alpha
    return None


@st.composite
def comparison_sets(draw):
    """Distinct integer point sets with d <= 3 and n <= 7, about a quarter of them on a line."""
    d = draw(st.integers(1, 3))
    coordinate = st.integers(-3, 3)
    if d > 1 and draw(st.integers(0, 3)) == 0:
        base = draw(st.tuples(*[coordinate] * d))
        direction = draw(st.tuples(*[coordinate] * d).filter(any))
        steps = draw(st.lists(coordinate, min_size=1, max_size=7, unique=True))
        return [tuple(b + t * v for b, v in zip(base, direction)) for t in steps]
    return draw(st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=7, unique=True))


@given(comparison_sets())
@settings(deadline=None, max_examples=60)
def test_compare_probes_only_where_the_projectors_can_differ(points):
    """Both projectors have the kernel of the mu_i, so they are equal exactly when their ranges
    are, and otherwise first differ on a monomial of degree <= kappa_max: at every probe degree
    the bounded probe reports what the unbounded loop finds up to kappa_max + 1."""
    kappa_max = graded_on(points).kappas[-1]
    first = unbounded_first_difference(points, kappa_max + 1)
    assert first is None or sum(first) <= kappa_max
    for probe_degree in range(kappa_max + 2):
        report = compare_interpolants(points, probe_degree=probe_degree)
        expected = first if first is not None and sum(first) <= probe_degree else None
        assert report.first_difference == expected
        assert report.interpolants_agree is (expected is None)
        assert report.ranges_equal is (first is None)


@pytest.mark.parametrize("points", [
    [(0, 0), (1, 1)],
    GRID,
    [(t, 2 * t + 1) for t in (-3, -1, 0, 2, 5, 6)],
    SKEW,
    [(a, b, a + b) for a, b in ((0, 0), (1, 0), (0, 1), (2, -1), (-1, 2), (1, 1), (-2, -1))],
], ids=["two-points", "grid", "collinear", "skew", "coplanar"])
def test_compare_solves_nothing_on_equal_ranges_and_nothing_past_kappa_max(monkeypatch, points):
    """A probe degree of 10^5 costs no more than kappa_max: no solve at all when the ranges are
    equal, and otherwise two solves per probe, every probe of degree <= kappa_max."""
    import radpoly.interpolation as interpolation

    degrees = []
    for name in ("schaback_interpolate", "least_interpolate"):
        monkeypatch.setattr(interpolation, name, lambda basis, target, solve=getattr(interpolation, name):
                            degrees.append(target.degree) or solve(basis, target=target))
    report = compare_interpolants(points, probe_degree=10**5)
    kappa_max = report.kappas[-1]
    assert report.probe_degree == 10**5
    if report.ranges_equal:
        assert degrees == [] and report.interpolants_agree
    else:
        assert degrees and max(degrees) <= kappa_max and report.first_difference is not None
        assert len(degrees) == 2 * monomial_sequence(len(points[0]), kappa_max).index(report.first_difference) + 2


def test_f_is_renormalized_on_a_line_of_one_point_blocks(monkeypatch):
    """Twelve rational points on a line give twelve 1 x 1 blocks, and the scale of F
    outgrows twice its length plus 64 bits: the gcd pass runs for both methods, and
    the solves still equal the dense solve."""
    import radpoly.interpolation as interpolation

    bits, renormalize = [], interpolation._renormalize

    def counted(sums, scale):
        bits.append(scale.bit_length())
        return renormalize(sums, scale)

    monkeypatch.setattr(interpolation, "_renormalize", counted)
    points = [(Fraction(t, 2),) for t in random.Random(3).sample(range(-40, 41), 12)]
    graded = graded_on(points)
    assert graded.blocks() == [[i] for i in range(12)]
    for _, make_basis, interpolate in METHODS:
        basis = make_basis(graded)
        bits.clear()
        for seed in range(3):
            rng = random.Random(seed)
            b = [Fraction(rng.randint(-9, 9), 7) for _ in range(12)]
            report = interpolate(basis, data=b)
            coefficients, f, residuals = dense_oracle(basis, b)
            assert (report.coefficients, report.interpolant) == (coefficients, f)
            assert report.residuals == residuals == (0,) * 12
        assert bits and min(bits) > 66


SQUARE = [point_evaluation(p) for p in [(1, 0), (0, 1), (-1, 0), (0, -1)]]


@given(solve_cases())
@example((SQUARE, None, False, [[1, 2, 3, 4]] * 2, Polynomial.zero(2)))  # images with cancelling terms
@settings(deadline=None, max_examples=60)
def test_polynomials_built_unchecked_are_canonical(case):
    """Every w_j and g_j, both interpolants, their difference, scalar multiples,
    products and powers are built from terms radpoly made, without the constructor's
    checks: each equals its re-validated copy, with the same degree and no zero
    coefficient."""
    span, degree_cap, ascending_ties, datas, _ = case
    try:
        graded = build_with_ties(span, degree_cap, ascending_ties)
    except RankDeficientError:
        return
    polys, interpolants = [], []
    for _, make_basis, interpolate in METHODS:
        try:
            basis = make_basis(graded)
        except DegreeCapError:  # a moment cap below 2 kappa: no radial images
            continue
        polys.extend(in_x(basis))
        interpolants.append(interpolate(basis, data=datas[0]).interpolant)
    polys.extend(interpolants)
    polys.extend(c * f for f in interpolants for c in (Fraction(-2, 3), 0))
    if len(interpolants) == 2:
        polys.append(interpolants[0] - interpolants[1])
        polys.append(interpolants[0] * interpolants[1])
    polys.extend(f ** k for f in interpolants for k in (0, 2))
    for p in polys:
        copy = Polynomial(graded.dimension, p.terms())
        assert p == copy and p.degree == copy.degree
        assert all(c != 0 and type(c) is Fraction for _, c in p.terms())
        assert all(len(alpha) == p.dimension and all(type(e) is int for e in alpha) for alpha, _ in p.terms())


def newton_interpolant(ts, values):
    """The interpolant of degree < n in one variable t, in Newton form from the divided
    differences f[t_1..t_{i+1}]: sum_i f[t_1..t_{i+1}] prod_{l <= i} (t - t_l)."""
    differences = [Fraction(v) for v in values]
    for level in range(1, len(ts)):
        for i in range(len(ts) - 1, level - 1, -1):
            differences[i] = (differences[i] - differences[i - 1]) / (ts[i] - ts[i - level])
    t, newton = Polynomial.variable(1, 0), Polynomial.zero(1)
    for s, c in reversed(list(zip(ts, differences))):
        newton = newton * (t - Polynomial.constant(1, s)) + Polynomial.constant(1, c)
    return newton


@given(st.integers(1, 3), st.data())
@settings(deadline=None, max_examples=60)
def test_both_interpolants_are_the_newton_interpolant_on_a_line(d, data):
    """At d=1 both interpolants are the Newton interpolant N; on a collinear set in d=2 or
    d=3 both are N(t(x)), N in the frame's line coordinate t = A x.  No elimination of
    the oracle's own: the divided differences."""
    sites = data.draw(st.lists(st.fractions(-6, 6, max_denominator=3), min_size=1 if d == 1 else 2,
                               max_size=7, unique=True))
    base = data.draw(st.tuples(*[RATIONALS] * d))
    direction = (1,) if d == 1 else data.draw(st.tuples(*[RATIONALS] * d).filter(any))
    values = data.draw(st.lists(st.integers(-9, 9), min_size=len(sites), max_size=len(sites)))
    points = [tuple(b + s * v for b, v in zip(base, direction)) for s in sites]
    graded = graded_on(points)
    linear = graded.frame.linear
    if d == 1:
        assert linear is None
        ts, to_x = [p[0] for p in points], [[1]]
    else:
        assert len(linear) == 1
        ts, to_x = [sum(a * c for a, c in zip(linear[0], p)) for p in points], linear
    expected = newton_interpolant(ts, values).compose_affine(to_x)
    for interpolate in (schaback_interpolate, least_interpolate):
        assert interpolate(graded, data=values).interpolant == expected
