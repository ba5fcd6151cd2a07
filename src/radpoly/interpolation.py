"""Interpolation projectors of minimal degree: radial-polynomial and least.

Both constructions start from a graded basis lambda_1..lambda_n (orders
kappa_1 <= ... <= kappa_n) of the span M of the input functionals.

* The Schaback construction interpolates from the span of the radial images
  w_j : x |-> lambda_j ||Px - .||^(2 kappa_j), P the orthogonal projection
  onto the affine hull of the support when every input functional is a
  combination of point evaluations (else P = I).  That makes the
  interpolant constant perpendicular to the hull and equal to the least
  interpolant on one-dimensional hulls, which the raw images are not (three
  collinear points with quadratic data are a counterexample).

* The least construction interpolates from the span of the lowest-degree
  homogeneous parts g_j(x) = lambda_j((x . .)^kappa_j) / kappa_j! of the
  lambda_j moment series.  That span depends only on M, not on the graded
  basis chosen.

Both bases keep each polynomial once, as its integer form in lowest terms, in their graded
basis's ``frame``: x, or for a degenerate point set the coordinates t = A x of the hull the
elimination found, where w_j = W_j(t(x)), W_j the D-weighted radial image in r = dim(hull)
variables, and, as lambda_j annihilates degrees below kappa_j, g_j = G_j(t(x)) with G_j = sum
over |e| = kappa_j of D^e lambda_j(t^e) t^e / e!.  ``polys`` builds them as polynomials in the
frame and ``w`` and ``g`` map them to x, each when first read: no solve reads either, and the
range comparison reads only ``polys``.  Everything is read off the frame's rows of L = T V,
which the graded basis builds once, whichever basis reads them first (``GradedBasis.rows``):
W_j from degree kappa_j up to 2 kappa_j, G_j at kappa_j, and lambda_i p as sum_alpha p[alpha]
L_i[alpha] over the terms of p's integer form of degree at least kappa_i (L_i is zero below).
Both Gramians (lambda_i w_j) and (lambda_i g_j) are block upper triangular, as
lambda_i annihilates degrees below kappa_i, and only their diagonal blocks are
computed.  The block of order kappa is symmetric, (-1)^kappa-definite for w
(Micchelli) and positive definite for g (de Boor-Ron); factoring reads only its
upper triangle and checks every pivot's sign.  Both solves are the same block
back-substitution from the highest order down: row i's entries above the blocks
times the solved c_j sum to lambda_i(F), F = sum c_j p_j so far, and after the
last block F is the interpolant (in hull coordinates for a degenerate point set,
mapped to x by one ``substitute_affine``); the sweeps' integer pairs build F with no
``Fraction``.  The data of a target p are V p, and the certificate mu_i(f) - b_i = V f - b
reads only V; both are integer numerators over one denominator, and ``Fraction``s are
built only for the report.

Either interpolant matches every functional in M exactly and never raises
the degree of its argument.

The four-point diagnostic of ``compare_interpolants`` is read off the same graded basis, with
no second elimination: for evaluations at four points affinely spanning the plane, its order-2
member lambda_4 spans the annihilator of the affine functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from operator import mul
from typing import Callable, Sequence

from . import rational_linalg as linalg
from .errors import DimensionMismatchError, SingularMatrixError
from .functionals import (
    _polynomial,
    _require_moment_cap,
    image_from_moments,
    least_part_from_moments,
    point_evaluation,
)
from .graded import GradedBasis, _hull, build_graded_basis
from .polynomials import (
    Exponent,
    Polynomial,
    Rational,
    as_fraction,
    as_point,
    graded_key,
    monomial_sequence,
    substitute_affine,
)


# ---------------------------------------------------------------------------
# Flats


def flat_projector(points: Sequence[Sequence[Rational]]) -> Callable[[Sequence[Rational]], tuple[Fraction, ...]]:
    """Exact orthoprojector onto the affine hull of the given points, in the hull's own coordinates:
    P x = x_1 + sum_k (t_k(x) - t_k(x_1)) u_k, t_k(x) = u_k . x / D_k (see ``graded.Hull``)."""
    pts = [as_point(p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise DimensionMismatchError("points of mixed dimension")
    hull = _hull(pts)
    base = hull(pts[0])

    def project(point: Sequence[Rational]) -> tuple[Fraction, ...]:
        x = as_point(point)
        if len(x) != d:
            raise DimensionMismatchError("point has wrong length for this projection")
        shifts = [t - s for t, s in zip(hull(x), base)]
        return tuple(c + sum(s * u[i] for s, u in zip(shifts, hull.directions)) for i, c in enumerate(pts[0]))

    return project


# ---------------------------------------------------------------------------
# Bases


@dataclass(frozen=True)
class _Basis:
    """Basis polynomials in their graded basis's ``frame``, each held once as its lowest-terms
    integer form ((alpha, numerator) pairs over a denominator), and their Gramian's diagonal blocks
    (zeros outside them).  The Gramian's factors and the polynomials (``polys`` in the frame, the
    basis in x) are built when first read and cached outside the fields (``==`` ignores them)."""

    source: GradedBasis
    forms: tuple[tuple[tuple[tuple[Exponent, int], ...], int], ...]
    gramian: tuple[tuple[Fraction, ...], ...]

    @cached_property
    def polys(self) -> tuple[Polynomial, ...]:
        """The basis polynomials in the frame, built from their forms."""
        r = len(self.source.frame.weights)
        return tuple(_polynomial(r, dict(nums), den) for nums, den in self.forms)

    @cached_property
    def factors(self) -> linalg.BlockUpperFactors:
        """The Gramian factored one diagonal block at a time; each pivot of a block
        of order kappa must have the sign ``_sign ** kappa``.  The blocks are definite,
        so a zero pivot, which has no sign, breaks the law too."""
        try:
            factors = linalg.factor_block_upper(self.gramian, self.source.blocks())
        except SingularMatrixError as exc:
            raise AssertionError(f"{self._method} Gramian {exc}: a zero pivot breaks the sign law") from exc
        for bi, (block, (_, _, pivots)) in enumerate(zip(factors.blocks, factors.diagonal)):
            kappa = self.source.kappas[block[0]]
            wrong = [i for i, (num, _) in zip(block, pivots) if num * self._sign ** kappa < 0]
            if wrong:
                raise AssertionError(f"{self._method} Gramian block {bi} (order {kappa}): "
                                     f"the pivot at index {wrong[0]} breaks the sign law")
        return factors

    def _in_x(self) -> tuple[Polynomial, ...]:
        """The basis polynomials in x, mapped there by one substitution when first read."""
        linear = self.source.frame.linear
        return tuple(substitute_affine(self.polys, linear)) if linear else self.polys


class SchabackBasis(_Basis):
    """Radial images: ``polys`` are the W_j and ``w`` the w_j = W_j(A x), both built when first read."""

    _method, _sign = "schaback", -1  # not fields: they carry no annotation
    w = cached_property(_Basis._in_x)


class LeastBasis(_Basis):
    """Least parts: ``polys`` are the G_j and ``g`` the g_j = G_j(A x), both built when first read."""

    _method, _sign = "least", 1
    g = cached_property(_Basis._in_x)


def _gramian(graded: GradedBasis, forms):
    """The diagonal blocks of (lambda_i p_j), sum_alpha p_j[alpha] L_i[alpha] on each upper triangle,
    mirrored, over the terms of p_j of degree at least the block's kappa: lambda_i annihilates the
    lower ones.  Zeros elsewhere: lambda_i p_j vanishes below the blocks, and no solve reads above."""
    rows = graded.rows
    gramian = [[Fraction(0)] * len(rows) for _ in rows]
    for block in graded.blocks():
        kappa = graded.kappas[block[0]]
        high = {j: [(a, c) for a, c in forms[j][0] if sum(a) >= kappa] for j in block}
        for i, j in combinations_with_replacement(block, 2):
            row = rows[i]
            gramian[i][j] = gramian[j][i] = Fraction(sum(c * row[a] for a, c in high[j]),
                                                     forms[j][1] * row.denominator)
    return tuple(map(tuple, gramian))


def schaback_basis(graded: GradedBasis) -> SchabackBasis:
    """Radial images w_j = lambda_j ||Px - .||^(2 kappa_j) and their Gramian.

    P projects onto the affine hull of an all-point span's support (else P = I).
    The basis keeps the integer forms of the W_j, read off the rows of L in the
    frame from degree kappa_j up to 2 kappa_j (lambda_j annihilates the lower
    degrees, so those moments are 0 and not read), and its Gramian (lambda_i W_j)
    is taken there too.
    """
    _require_moment_cap(graded.moments.cap, 2 * graded.kappas[-1], "radial image")
    rows, weights = graded.rows, graded.frame.weights
    forms = tuple(_renormalize(*image_from_moments(  # lambda_j annihilates degrees below kappa_j
        lambda delta, row=row, kappa=kappa: row[delta] if sum(delta) >= kappa else 0,
        row.denominator, weights, kappa)) for row, kappa in zip(rows, graded.kappas))
    for j, ((nums, _), kappa) in enumerate(zip(forms, graded.kappas)):
        degree = max((sum(alpha) for alpha, _ in nums), default=-1)
        if degree != kappa:  # t(x) is onto the hull, so w_j = W_j(t(x)) has W_j's degree
            raise AssertionError(
                f"schaback_basis: radial image w_{j} has degree {degree}, not its order {kappa}")
    return SchabackBasis(graded, forms, _gramian(graded, forms))


def least_basis(graded: GradedBasis) -> LeastBasis:
    """Lowest-degree homogeneous parts g_j and the Gramian (lambda_i g_j), both
    as the integer forms of the G_j and (lambda_i G_j) in the frame, read off the
    rows of L at degree kappa_j."""
    rows, weights = graded.rows, graded.frame.weights
    forms = tuple(_renormalize(*least_part_from_moments(row.__getitem__, row.denominator, weights, kappa))
                  for row, kappa in zip(rows, graded.kappas))
    for j, ((nums, _), kappa) in enumerate(zip(forms, graded.kappas)):
        if {sum(alpha) for alpha, _ in nums} != {kappa}:  # A is onto R^r: g_j = G_j(A x) is too
            raise AssertionError(f"least_basis: least part g_{j} is not homogeneous of degree {kappa}")
    return LeastBasis(graded, forms, _gramian(graded, forms))


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


def _data_vector(graded: GradedBasis, data, target) -> tuple[list[int], int]:
    """The data b as integer numerators over one denominator: V times the target, or the values."""
    if (data is None) == (target is None):
        raise ValueError("supply exactly one of data or target")
    if target is not None:
        if target.dimension != graded.dimension:
            raise DimensionMismatchError("target dimension differs from the span's")
        return graded.moments.values(target)
    values = [as_fraction(v) for v in data]
    if len(values) != graded.size:
        raise ValueError(f"expected {graded.size} data values, got {len(values)}")
    return linalg.integer_vector(values)


def _renormalize(sums: dict[Exponent, int], scale: int) -> tuple[tuple[tuple[Exponent, int], ...], int]:
    """sums / scale in lowest terms, as the (alpha, numerator) pairs of the nonzero sums: with g the
    gcd of scale and the sums, scale / g is the lcm of the reduced denominators of the sums / scale."""
    common = math.gcd(scale, *sums.values())
    return tuple((alpha, v // common) for alpha, v in sums.items() if v), scale // common


def _interpolate(method: str, basis: SchabackBasis | LeastBasis, data, target) -> InterpolantReport:
    """Block back-substitution from the highest order down, then the certificate V f - b.  F =
    sums / scale, f so far in the frame, reduces row i by lambda_i(F) and takes c_j / den_j by a
    gcd and an lcm.  A gcd pass per block costs more than it saves; one runs past 2 * bits + 64."""
    graded = basis.source
    values, common = _data_vector(graded, data, target)
    lam_values = [(sum(map(mul, row, values)), denominator * common)  # lambda_i(f), unreduced
                  for row, denominator in graded.integer_transform]
    factors, rows, forms, linear = basis.factors, graded.rows, basis.forms, graded.frame.linear
    sums: dict[Exponent, int] = {}
    coeffs, scale, bits = [(0, 1)] * graded.size, 1, 1
    for bi, block in reversed(list(enumerate(factors.blocks))):
        high = [(alpha, v) for alpha, v in sums.items() if sum(alpha) >= graded.kappas[block[0]]]
        coeffs[block[0]:block[-1] + 1] = y = factors.sweep(bi, [  # lambda_i(f) - lambda_i(F), unreduced
            (num * below - den * sum(v * rows[i][alpha] for alpha, v in high), den * below)
            for i in block for (num, den), below in [(lam_values[i], scale * rows[i].denominator)]])
        parts = [(num // g, den * (forms[j][1] // g))  # c_j / den_j in lowest terms
                 for j, (num, den) in zip(block, y) for g in [math.gcd(num, forms[j][1])]]
        lifted = math.lcm(scale, *(den for _, den in parts))
        sums = {alpha: v * (lifted // scale) for alpha, v in sums.items()}
        for j, (num, den) in zip(block, parts):
            weight = num * (lifted // den)
            for alpha, v in forms[j][0] if weight else ():
                sums[alpha] = sums.get(alpha, 0) + weight * v
        scale = lifted
        if scale.bit_length() > 2 * bits + 64:
            form, scale = _renormalize(sums, scale)
            sums, bits = dict(form), scale.bit_length()
    interpolant = _polynomial(len(linear) if linear else graded.dimension, sums, scale)
    if linear:
        interpolant = substitute_affine([interpolant], linear)[0]
    measured, vf_den = graded.moments.values(interpolant)
    residuals = [v * common - b * vf_den for v, b in zip(measured, values)]  # V f - b over vf_den * common
    j = next((j for j, r in enumerate(residuals) if r), None)
    if j is not None:
        raise AssertionError(f"{method}_interpolate: residual mu_{j}(f) - data_{j} = "
                             f"{Fraction(residuals[j], vf_den * common)} is not zero")
    return InterpolantReport(
        method=method,
        interpolant=interpolant,
        coefficients=tuple(Fraction(num, den) for num, den in coeffs),
        data=tuple(Fraction(v, common) for v in values),
        residuals=tuple(Fraction(r, vf_den * common) for r in residuals),
        basis=basis,
    )


def schaback_interpolate(basis: GradedBasis | SchabackBasis, data=None,
                         target=None) -> InterpolantReport:
    """Interpolant from the radial-polynomial space matching all functionals.

    ``data`` gives the values of the original span functionals (for point
    spans: the point values); alternatively a ``target`` polynomial is
    measured exactly and fed through the same path.  The coefficients come
    from block back-substitution on the diagonal blocks of the Gramian.
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
    rows_a, _ = linalg.rref(_coefficient_rows(first, monomials))
    rows_b, _ = linalg.rref(_coefficient_rows(second, monomials))
    return rows_a == rows_b


def _pivot_degrees(polys: Sequence[Polynomial]) -> list[int]:
    """The pivot degrees of an echelon form of the coefficients, monomials in
    descending graded order: the rows in degree < k are those whose pivot is,
    so dim(span(polys) ∩ deg < k) of the degrees lie below k."""
    monomials = _union_monomials(polys)[::-1]
    return [sum(monomials[col]) for col in linalg.pivot_columns(_coefficient_rows(polys, monomials))]


# ---------------------------------------------------------------------------
# The four-point diagnostic and interpolant comparison


def _four_point_moment(graded: GradedBasis) -> Fraction | None:
    """lambda_4 ||.||^2 for evaluations at four planar points with kappas (0, 1, 1, 2), lambda_4
    weighted so that its last nonzero weight is 1: the tail {lambda_i : kappa_i >= 2} is a basis of
    the annihilator of the affine functions, one-dimensional exactly then.  Else None."""
    if graded.dimension != 2 or graded.kappas != (0, 1, 1, 2):
        return None
    weights = graded.integer_transform[3][0]
    norms = [sum(c * c for c in f.points[0]) for f in graded.span]
    return sum(map(mul, weights, norms)) / next(w for w in reversed(weights) if w)


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
    ranges_equal = polynomial_span_equal(sb.polys, lb.polys)  # one frame: p -> p(A x) is injective
    first_difference: Exponent | None = None
    # Both projectors have the kernel of the mu_i: equal iff their ranges are, else some
    # P_S w_j = w_j != P_L w_j, so the first differing monomial has degree <= kappa_max.
    probes = monomial_sequence(graded.dimension, min(probe_degree, graded.kappas[-1]))
    for alpha in () if ranges_equal else probes:
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
        four_point_radial_moment=_four_point_moment(graded),
    )
