"""Interpolation projectors of minimal degree: radial-polynomial and least.

Both constructions start from a graded basis lambda_1..lambda_n (orders
kappa_1 <= ... <= kappa_n) of the span M of the input functionals.

* The Schaback construction interpolates from the span of the radial images
  w_j : x |-> lambda_j ||x - .||^(2 kappa_j).  When every input functional
  is a combination of point evaluations, the w_j are composed with the
  orthogonal projection onto the affine hull of the support points.  For
  points that affinely span the whole space this changes nothing; for
  degenerate point sets it is what makes the interpolant constant
  perpendicular to the hull and equal to the least interpolant on
  one-dimensional hulls.  (The raw images provably lack those properties:
  three collinear points with quadratic data already give a
  counterexample.)

* The least construction interpolates from the span of the lowest-degree
  homogeneous parts g_j of the lambda_j moment series.  That span depends
  only on M, not on the graded basis chosen.

Everything is read off the rows of L = T V, the moments of the lambda_i
kept by the graded basis as integer numerators over one denominator per
row: w_j from the moments of lambda_j up to degree 2 kappa_j, g_j from
their degree-kappa_j slice, and each Gramian entry as the integer sum
sum_alpha p_j[alpha] L_i[alpha].  Both Gramians (lambda_i w_j) and
(lambda_i g_j) are block upper triangular with invertible diagonal blocks:
lambda_i annihilates degrees below kappa_i, while w_j has degree kappa_j
and g_j is homogeneous of degree kappa_j.  Both coefficient solves are
therefore the same block back-substitution.

Either interpolant matches every functional in M exactly and never raises
the degree of its argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import rational_linalg as linalg
from .errors import DimensionMismatchError, SingularGramianError, SingularMatrixError
from .functionals import (
    Functional,
    PointFunctional,
    _require_moment_cap,
    image_from_moments,
    least_part_from_moments,
    point_evaluation,
)
from .graded import GradedBasis, MomentRow, build_graded_basis
from .polynomials import (
    Exponent,
    Polynomial,
    Rational,
    as_fraction,
    as_point,
    graded_key,
    monomial_sequence,
)


# ---------------------------------------------------------------------------
# Flats


@dataclass(frozen=True)
class AffineProjection:
    """Orthogonal projection onto an affine subspace: x |-> Q x + shift."""

    linear: tuple[tuple[Fraction, ...], ...]
    shift: tuple[Fraction, ...]

    @property
    def dimension(self) -> int:
        return len(self.shift)

    @property
    def is_identity(self) -> bool:
        d = self.dimension
        return all(v == 0 for v in self.shift) and all(
            self.linear[i][j] == (1 if i == j else 0) for i in range(d) for j in range(d)
        )

    def __call__(self, point: Sequence[Rational]) -> tuple[Fraction, ...]:
        x = as_point(point)
        if len(x) != self.dimension:
            raise DimensionMismatchError("point has wrong length for this projection")
        image = linalg.mat_vec([list(row) for row in self.linear], list(x))
        return tuple(v + s for v, s in zip(image, self.shift))


def flat_projector(points: Sequence[Sequence[Rational]]) -> AffineProjection:
    """Exact orthoprojector onto the affine hull of the given points.

    With base point x0 and Q the Gram-based projector onto
    span{x_i - x0}, the map is x |-> x0 + Q (x - x0); Q is symmetric and
    idempotent.
    """
    pts = [as_point(p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise DimensionMismatchError("points of mixed dimension")
    base = pts[0]
    directions, _ = linalg.rref([[a - b for a, b in zip(p, base)] for p in pts[1:]])
    if not directions:
        q = [[Fraction(0)] * d for _ in range(d)]
    else:
        v_cols = linalg.transpose(directions)  # d x r
        gram = linalg.mat_mul(directions, v_cols)  # r x r, invertible
        q = linalg.mat_mul(linalg.mat_mul(v_cols, linalg.invert(gram)), directions)
    shift = [b - s for b, s in zip(base, linalg.mat_vec(q, list(base)))]
    return AffineProjection(
        linear=tuple(tuple(row) for row in q),
        shift=tuple(shift),
    )


# ---------------------------------------------------------------------------
# Bases


@dataclass(frozen=True)
class SchabackBasis:
    """Radial-polynomial basis w_j with its block-triangular Gramian."""

    source: GradedBasis
    w: tuple[Polynomial, ...]
    gramian: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class LeastBasis:
    """Homogeneous least-part basis g_j with its block-triangular Gramian."""

    source: GradedBasis
    g: tuple[Polynomial, ...]
    gramian: tuple[tuple[Fraction, ...], ...]


def _support_points(span: Sequence[Functional]) -> list[tuple[Fraction, ...]] | None:
    """Union of support points when every functional is a combination of point evaluations."""
    points: list[tuple[Fraction, ...]] = []
    seen = set()
    for f in span:
        if f.degree_cap is not None:
            return None
        for x in f.points:
            if x not in seen:
                seen.add(x)
                points.append(x)
    return points


def _gramian(rows: Sequence[MomentRow], polys: Sequence[Polynomial]):
    """(lambda_i p_j) = sum_alpha p_j[alpha] L_i[alpha], one integer sum per entry."""
    forms = []
    for p in polys:
        alphas, coefficients = zip(*p.terms())
        numerators, denominator = linalg.integer_vector(coefficients)
        forms.append((list(zip(alphas, numerators)), denominator))
    return tuple(
        tuple(
            Fraction(sum(c * row[alpha] for alpha, c in numerators), denominator * row_denominator)
            for numerators, denominator in forms
        )
        for row, row_denominator in rows
    )


def schaback_basis(graded: GradedBasis) -> SchabackBasis:
    """Radial images w_j = lambda_j ||x - .||^(2 kappa_j) and their Gramian.

    For all-point spans the images are composed with the orthoprojector onto
    the affine hull of the support (a no-op when the support spans R^d); the
    Gramian is unaffected because the functionals live on that hull.
    """
    for kappa in graded.kappas:
        _require_moment_cap(graded.moments.cap, 2 * kappa, "radial image")
    d = graded.dimension
    images = [
        image_from_moments(row.numerators.__getitem__, row.denominator, d, kappa)
        for row, kappa in zip(graded.rows, graded.kappas)
    ]
    support = _support_points(graded.span)
    if support is not None:
        projection = flat_projector(support)
        if not projection.is_identity:
            images = [w.compose_affine(projection.linear, projection.shift) for w in images]
    for j, (w, kappa) in enumerate(zip(images, graded.kappas)):
        if w.degree != kappa:
            raise AssertionError(
                f"schaback_basis: radial image w_{j} has degree {w.degree}, not its order {kappa}"
            )
    return SchabackBasis(source=graded, w=tuple(images), gramian=_gramian(graded.rows, images))


def least_basis(graded: GradedBasis) -> LeastBasis:
    """Lowest-degree homogeneous parts g_j and the Gramian (lambda_i g_j)."""
    d = graded.dimension
    parts = [
        least_part_from_moments(row.numerators.__getitem__, row.denominator, d, kappa)
        for row, kappa in zip(graded.rows, graded.kappas)
    ]
    for j, (g, kappa) in enumerate(zip(parts, graded.kappas)):
        if g.degree != kappa or not g.is_homogeneous(kappa):
            raise AssertionError(
                f"least_basis: least part g_{j} is not homogeneous of degree {kappa}"
            )
    return LeastBasis(source=graded, g=tuple(parts), gramian=_gramian(graded.rows, parts))


def range_basis(basis: SchabackBasis | LeastBasis) -> tuple[Polynomial, ...]:
    """The polynomials spanning the interpolation space."""
    return basis.w if isinstance(basis, SchabackBasis) else basis.g


# ---------------------------------------------------------------------------
# Interpolation


@dataclass(frozen=True)
class InterpolantReport:
    """An interpolant with the data, coefficients, and residuals behind it.

    ``data`` holds the values of the original span functionals mu_i on the
    target; ``residuals`` are mu_i(interpolant) - data_i and are identically
    zero by construction.
    """

    method: str
    interpolant: Polynomial
    coefficients: tuple[Fraction, ...]
    data: tuple[Fraction, ...]
    residuals: tuple[Fraction, ...]
    basis: SchabackBasis | LeastBasis


def _data_vector(graded: GradedBasis, data, target) -> list[Fraction]:
    if (data is None) == (target is None):
        raise ValueError("supply exactly one of data or target")
    if target is not None:
        if target.dimension != graded.dimension:
            raise DimensionMismatchError("target dimension differs from the span's")
        return [mu(target) for mu in graded.span]
    values = [as_fraction(v) for v in data]
    if len(values) != graded.size:
        raise ValueError(f"expected {graded.size} data values, got {len(values)}")
    return values


def _interpolate(method: str, basis: SchabackBasis | LeastBasis, data, target) -> InterpolantReport:
    """Solve the block upper triangular Gramian and check the residuals."""
    graded = basis.source
    b = _data_vector(graded, data, target)
    lam_values = [
        sum((t * v for t, v in zip(row, b) if t), Fraction(0))
        for row in graded.transform
    ]
    try:
        coeffs = linalg.solve_block_upper(basis.gramian, lam_values, graded.blocks())
    except SingularMatrixError as exc:
        raise SingularGramianError(f"{method} Gramian is singular") from exc
    interpolant = Polynomial.zero(graded.dimension)
    for a, p in zip(coeffs, range_basis(basis)):
        if a:
            interpolant = interpolant + a * p
    residuals = tuple(mu(interpolant) - value for mu, value in zip(graded.span, b))
    j = next((j for j, r in enumerate(residuals) if r), None)
    if j is not None:
        raise AssertionError(
            f"{method}_interpolate: residual mu_{j}(f) - data_{j} = {residuals[j]} is not zero"
        )
    return InterpolantReport(
        method=method,
        interpolant=interpolant,
        coefficients=tuple(coeffs),
        data=tuple(b),
        residuals=residuals,
        basis=basis,
    )


def schaback_interpolate(basis: GradedBasis | SchabackBasis, data=None,
                         target=None) -> InterpolantReport:
    """Interpolant from the radial-polynomial space matching all functionals.

    ``data`` gives the values of the original span functionals (for point
    spans: the point values); alternatively a ``target`` polynomial is
    measured exactly and fed through the same path.  The coefficients come
    from block back-substitution on the block upper triangular Gramian.
    """
    sb = basis if isinstance(basis, SchabackBasis) else schaback_basis(basis)
    return _interpolate("schaback", sb, data, target)


def least_interpolate(basis: GradedBasis | LeastBasis, data=None, target=None) -> InterpolantReport:
    """Interpolant from the least space matching all functionals."""
    lb = basis if isinstance(basis, LeastBasis) else least_basis(basis)
    return _interpolate("least", lb, data, target)


# ---------------------------------------------------------------------------
# Span comparison utilities


def _coefficient_rows(polys: Sequence[Polynomial], monomials: Sequence[Exponent]) -> list[list[Fraction]]:
    return [[p.coefficient(alpha) for alpha in monomials] for p in polys]


def _union_monomials(*poly_sets: Sequence[Polynomial]) -> list[Exponent]:
    support = {alpha for polys in poly_sets for p in polys for alpha, _ in p.terms()}
    return sorted(support, key=graded_key)


def polynomial_span_equal(first: Sequence[Polynomial], second: Sequence[Polynomial]) -> bool:
    """Exact span equality via canonical row reduction in graded order."""
    monomials = _union_monomials(first, second)
    if not monomials:
        return True
    rows_a, _ = linalg.rref(_coefficient_rows(first, monomials))
    rows_b, _ = linalg.rref(_coefficient_rows(second, monomials))
    return rows_a == rows_b


def span_dimension_below(polys: Sequence[Polynomial], k: int) -> int:
    """dim(span(polys) intersected with polynomials of degree < k)."""
    monomials = _union_monomials(polys)
    if not monomials:
        return 0
    full = linalg.rank(_coefficient_rows(polys, monomials))
    high = [alpha for alpha in monomials if sum(alpha) >= k]
    if not high:
        return full
    high_rank = linalg.rank(_coefficient_rows(polys, high))
    return full - high_rank


# ---------------------------------------------------------------------------
# The four-point diagnostic and interpolant comparison


def four_point_radial_moment(points: Sequence[Sequence[Rational]]) -> Fraction | None:
    """lambda ||.||^2 for the essentially unique annihilator of a planar 4-set.

    For four points in the plane spanning it, the conditions
    sum_j a_j = 0 and sum_j a_j x_j = 0 determine a one-dimensional space of
    weight vectors; the representative is normalized so the last point with
    a nonzero weight gets weight 1 (for points ordered 0, i1, i2, z this is
    the weight of z, forcing weight z(1)+z(2)-1 at the origin).  Returns
    None when the configuration is not of this kind.
    """
    pts = [as_point(p) for p in points]
    if len(pts) != 4 or any(len(p) != 2 for p in pts) or len(set(pts)) != 4:
        return None
    rows = [[Fraction(1)] * 4, [p[0] for p in pts], [p[1] for p in pts]]
    kernel = linalg.nullspace(rows)
    if len(kernel) != 1:
        return None
    weights = kernel[0]
    last_nonzero = max(i for i, w in enumerate(weights) if w != 0)
    scale = weights[last_nonzero]
    weights = [w / scale for w in weights]
    lam = PointFunctional(pts, weights)
    return lam(Polynomial.squared_norm(2))


@dataclass(frozen=True)
class ComparisonReport:
    """Exact comparison of the two interpolants on one point set."""

    dimension: int
    kappas: tuple[int, ...]
    pivots: tuple[Exponent, ...]
    ranges_equal: bool
    probe_degree: int
    interpolants_agree: bool
    first_difference: Exponent | None
    four_point_radial_moment: Fraction | None


def compare_interpolants(points: Sequence[Sequence[Rational]], probe_degree: int = 3,
                         degree_cap: int | None = None) -> ComparisonReport:
    """Compare the two interpolants built on evaluations at the given points.

    Checks exact equality of the ranges, exact agreement of the interpolants
    on every monomial up to ``probe_degree``, and reports the radial moment
    diagnostic for planar 4-sets (nonzero exactly when the ranges can
    differ).
    """
    pts = [as_point(p) for p in points]
    graded = build_graded_basis([point_evaluation(p) for p in pts], degree_cap)
    sb = schaback_basis(graded)
    lb = least_basis(graded)
    ranges_equal = polynomial_span_equal(sb.w, lb.g)
    first_difference: Exponent | None = None
    for alpha in monomial_sequence(graded.dimension, probe_degree):
        probe = Polynomial.monomial(graded.dimension, alpha)
        left = schaback_interpolate(sb, target=probe).interpolant
        right = least_interpolate(lb, target=probe).interpolant
        if left != right:
            first_difference = alpha
            break
    return ComparisonReport(
        dimension=graded.dimension,
        kappas=graded.kappas,
        pivots=graded.pivots,
        ranges_equal=ranges_equal,
        probe_degree=probe_degree,
        interpolants_agree=first_difference is None,
        first_difference=first_difference,
        four_point_radial_moment=four_point_radial_moment(pts),
    )
