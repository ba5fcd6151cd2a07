"""Seeded randomized verification suites.

Each suite draws integer points in [-5, 5]^d and integer weights in [-9, 9]
from a ``random.Random(seed)`` (the stdlib Mersenne Twister), so a given
(suite, seed, trials) triple always runs the same cases.  Failures carry the
offending functional, the degree parameters, and the exact discrepancy.

A trial builds the graded, Schaback and least bases of each point set it
draws once, and evaluates each quadratic form of a functional once; every
check reads from these.

The ``corrupt`` flag deliberately breaks one comparison per suite; it exists
only to demonstrate that the harness reports failures and exits nonzero.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cache
from typing import Callable
from . import rational_linalg as linalg
from .functionals import (
    Functional,
    PointFunctional,
    from_derivative,
    order,
    point_evaluation,
    radial_image,
    tensor_apply_radial,
)
from .graded import GradedBasis, build_graded_basis
from .interpolation import (
    LeastBasis,
    SchabackBasis,
    _pivot_degrees,
    flat_projector,
    least_basis,
    least_interpolate,
    polynomial_span_equal,
    schaback_basis,
    schaback_interpolate,
)
from .polynomials import Polynomial, monomial_sequence

SUITE_NAMES = ("micchelli", "schaback-lemma", "projector", "invariance")


@dataclass
class VerificationFailure:
    suite: str
    case: str
    functional: str
    k: int | None
    ell: int | None
    discrepancy: str


@dataclass
class VerificationReport:
    suite: str
    seed: int
    trials: int
    cases: int
    failures: list[VerificationFailure] = field(default_factory=list)
    wall_time_ms: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_obj(self) -> dict:
        return asdict(self)


class _Recorder:
    """Counts the checks of one suite run, keeps its failures and times it."""

    def __init__(self, suite: str):
        self.suite = suite
        self.cases = 0
        self.failures: list[VerificationFailure] = []
        self.start = time.perf_counter()

    def check(self, condition: bool, case: str, functional: Callable[[], str] = str,
              k: int | None = None, ell: int | None = None, discrepancy: Callable[[], str] = str) -> None:
        """Count one check; ``functional`` and ``discrepancy`` build its text, only if it fails."""
        self.cases += 1
        if not condition:
            self.failures.append(
                VerificationFailure(self.suite, case, functional(), k, ell, discrepancy())
            )

    def report(self, seed: int, trials: int) -> VerificationReport:
        wall_time_ms = int((time.perf_counter() - self.start) * 1000)
        return VerificationReport(self.suite, seed, trials, self.cases, self.failures, wall_time_ms)


# ---------------------------------------------------------------------------
# Random generators


def _random_point(rng: random.Random, d: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(-5, 5)) for _ in range(d))


def _random_points(rng: random.Random, d: int, n: int) -> list[tuple[Fraction, ...]]:
    points: list[tuple[Fraction, ...]] = []
    seen = set()
    while len(points) < n:
        p = _random_point(rng, d)
        if p not in seen:
            seen.add(p)
            points.append(p)
    return points


def _random_point_functional(rng: random.Random, d: int, max_points: int = 6) -> PointFunctional:
    n = rng.randint(1, max_points)
    weights = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
    return PointFunctional(_random_points(rng, d, n), weights, dimension=d)


def _random_polynomial(rng: random.Random, d: int, max_degree: int) -> Polynomial:
    pool = monomial_sequence(d, max_degree)
    count = rng.randint(1, min(6, len(pool)))
    chosen = rng.sample(pool, count)
    return Polynomial(d, {alpha: Fraction(rng.randint(-9, 9)) for alpha in chosen})


def _random_graded_basis(rng: random.Random, d: int, max_points: int = 8) -> GradedBasis:
    n = rng.randint(2, max_points)
    points = _random_points(rng, d, n)
    return build_graded_basis([point_evaluation(p) for p in points])


def _random_derivative_functional(rng: random.Random, d: int, total_order: int, cap: int):
    alpha = [0] * d
    for _ in range(total_order):
        alpha[rng.randrange(d)] += 1
    return from_derivative(alpha, _random_point(rng, d), cap)


def _double_sum(lam: PointFunctional, mu: PointFunctional, k: int) -> Fraction:
    total = Fraction(0)
    for x, w in zip(lam.points, lam.weights):
        for y, v in zip(mu.points, mu.weights):
            dist2 = sum((a - b) ** 2 for a, b in zip(x, y))
            total += w * v * dist2**k
    return total


# ---------------------------------------------------------------------------
# Suite: quadratic-form sign and vanishing characterization


def _check_order_characterization(rec: _Recorder, lam: Functional, kappa: int,
                                  corrupt: bool) -> None:
    """Sign and vanishing of the diagonal quadratic form, via the order."""
    form = cache(lambda r: tensor_apply_radial(lam, lam, r))
    for k in (1, 2, 3):
        if kappa < k:
            continue
        if lam.degree_cap is None or lam.degree_cap >= 2 * k:
            q = form(k)
            if corrupt:
                q = q + 1
            signed = (-1) ** k * q
            rec.check(
                signed >= 0,
                "signed quadratic form is nonnegative on functionals of order >= k",
                functional=lambda: repr(lam), k=k,
                discrepancy=lambda: f"(-1)^{k} * Q = {signed}",
            )
            rec.check(
                (q == 0) == (kappa >= k + 1),
                "quadratic form vanishes exactly on functionals of order >= k+1",
                functional=lambda: repr(lam), k=k,
                discrepancy=lambda: f"Q = {q}, order = {kappa}",
            )
    for k in (0, 1, 2):
        if lam.degree_cap is None or lam.degree_cap >= 2 * (k + 1):
            all_vanish = all(form(r) == 0 for r in range(k + 1))
            rec.check(
                all_vanish == (kappa >= k + 1),
                "order >= k+1 iff the form vanishes for every exponent r <= k",
                functional=lambda: repr(lam), k=k,
                discrepancy=lambda: f"vanish through {k}: {all_vanish}, order = {kappa}",
            )


def run_micchelli(seed: int, trials: int, corrupt: bool = False) -> VerificationReport:
    rng = random.Random(seed)
    rec = _Recorder("micchelli")
    for _ in range(trials):
        d = rng.randint(1, 3)

        lam = _random_point_functional(rng, d)
        mu = _random_point_functional(rng, d)
        for k in range(4):
            tensor = tensor_apply_radial(lam, mu, k)
            if corrupt:
                tensor = tensor + 1
            direct = _double_sum(lam, mu, k)
            rec.check(
                tensor == direct,
                "tensor application equals the point double sum",
                functional=lambda: f"{lam!r}, {mu!r}", k=k,
                discrepancy=lambda: f"expansion {tensor} vs double sum {direct}",
            )

        graded = _random_graded_basis(rng, d)
        for lam, kappa in zip(graded.lambdas, graded.kappas):
            found = order(lam)
            rec.check(
                found == kappa,
                "pivot degree of a graded member equals its order",
                functional=lambda: repr(lam),
                discrepancy=lambda: f"order {found} vs pivot degree {kappa}",
            )
            _check_order_characterization(rec, lam, kappa, corrupt)

        total_order = rng.randint(1, 3)
        deriv = _random_derivative_functional(rng, d, total_order, cap=8)
        rec.check(
            order(deriv) == total_order,
            "a derivative functional has order equal to its total order",
            functional=lambda: repr(deriv),
            discrepancy=lambda: f"order {order(deriv)} vs {total_order}",
        )
        _check_order_characterization(rec, deriv, total_order, corrupt)
    return rec.report(seed, trials)


# ---------------------------------------------------------------------------
# Suite: radial image degrees, both directions


def _check_image_degrees(rec: _Recorder, lam: Functional, kappa: int, max_ell: int,
                         corrupt: bool) -> None:
    """Degree laws of the radial image of a functional of order kappa.

    Forward, for any k: annihilating all degrees <= k forces image degree
    below 2*ell - k; in particular the degree is at most 2*ell - kappa, and
    the image vanishes for 2*ell < kappa.  The converse only binds for
    k <= ell (monomials of degree above ell never appear with an empty
    radial factor), so equality deg = 2*ell - kappa is guaranteed exactly
    when ell >= kappa; between kappa and 2*kappa the degree may drop
    further (the gridded four-point annihilator at ell=1 is an example).
    """
    for ell in range(max_ell + 1):
        degree = radial_image(lam, ell).degree
        if corrupt:
            degree = degree + 1
        rec.check(
            degree <= 2 * ell - kappa if 2 * ell >= kappa else degree == -1,
            "image degree bound for functionals annihilating low degrees",
            functional=lambda: repr(lam), k=kappa - 1, ell=ell,
            discrepancy=lambda: f"degree {degree} not below {2 * ell - kappa + 1}",
        )
        if ell >= kappa:
            rec.check(
                degree == 2 * ell - kappa,
                "image degree is exactly 2*ell - order once ell reaches the order",
                functional=lambda: repr(lam), ell=ell,
                discrepancy=lambda: f"degree {degree}, expected {2 * ell - kappa}",
            )
        strongest = min(ell, 2 * ell - degree - 1)
        if strongest >= 0:
            rec.check(
                kappa >= strongest + 1,
                "a low image degree forces a high order",
                functional=lambda: repr(lam), k=strongest, ell=ell,
                discrepancy=lambda: f"degree {degree} but order {kappa} <= {strongest}",
            )


def run_schaback_lemma(seed: int, trials: int, corrupt: bool = False) -> VerificationReport:
    rng = random.Random(seed)
    rec = _Recorder("schaback-lemma")
    for _ in range(trials):
        d = rng.randint(1, 3)
        graded = _random_graded_basis(rng, d, max_points=7)
        for lam, kappa in zip(graded.lambdas, graded.kappas):
            _check_image_degrees(rec, lam, kappa, max_ell=kappa + 2, corrupt=corrupt)
        total_order = rng.randint(1, 3)
        cap = 2 * (total_order + 2)
        deriv = _random_derivative_functional(rng, d, total_order, cap=cap)
        _check_image_degrees(rec, deriv, total_order, max_ell=total_order + 2, corrupt=corrupt)
    return rec.report(seed, trials)


# ---------------------------------------------------------------------------
# Suite: projector structure and laws


def run_projector(seed: int, trials: int, corrupt: bool = False) -> VerificationReport:
    rng = random.Random(seed)
    rec = _Recorder("projector")
    for _ in range(trials):
        d = rng.randint(1, 3)
        graded = _random_graded_basis(rng, d)
        n = graded.size
        sb = schaback_basis(graded)
        lb = least_basis(graded)

        for j, (w, kappa) in enumerate(zip(sb.w, graded.kappas)):
            rec.check(
                w.degree == kappa,
                "radial basis polynomial degree equals the order",
                functional=lambda: repr(graded.lambdas[j]),
                discrepancy=lambda: f"deg w = {w.degree}, order = {kappa}",
            )
        lambdas, kappas = graded.lambdas, graded.kappas  # sb stores the diagonal blocks alone
        dense = [[sb.gramian[i][j] if kappas[i] == kappas[j] else lambdas[i](sb.w[j]) for j in range(n)]
                 for i in range(n)]
        for i, j in ((i, j) for i in range(n) for j in range(n) if kappas[i] > kappas[j]):
            rec.check(
                dense[i][j] == 0,
                "Gramian vanishes below the block diagonal",
                functional=lambda: repr(graded.lambdas[i]),
                discrepancy=lambda: f"entry ({i},{j}) = {dense[i][j]}",
            )
        for block in graded.blocks():
            diag = [[sb.gramian[i][j] for j in block] for i in block]
            rec.check(
                linalg.determinant(diag) != 0,
                "diagonal Gramian block is invertible",
                k=graded.kappas[block[0]],
                discrepancy=lambda: f"block {block} is singular",
            )

        for _ in range(2):
            target = _random_polynomial(rng, d, max_degree=6)
            for method, interpolate in (
                ("schaback", lambda t: schaback_interpolate(sb, target=t)),
                ("least", lambda t: least_interpolate(lb, target=t)),
            ):
                result = interpolate(target)
                f = result.interpolant
                residuals = result.residuals
                if corrupt:
                    residuals = tuple(r + 1 for r in residuals)
                rec.check(
                    all(r == 0 for r in residuals),
                    f"{method}: interpolation residuals vanish",
                    discrepancy=lambda: f"residuals {residuals}",
                )
                rec.check(
                    f.degree <= target.degree,
                    f"{method}: interpolation does not raise the degree",
                    discrepancy=lambda: f"deg in {target.degree}, deg out {f.degree}",
                )
                again = interpolate(f)
                rec.check(
                    again.interpolant == f,
                    f"{method}: interpolating the interpolant changes nothing",
                    discrepancy=lambda: "projector is not idempotent here",
                )

        coeff_block = schaback_interpolate(sb, target=_random_polynomial(rng, d, 4))
        coeff_dense = linalg.solve(dense, linalg.mat_vec(graded.transform, coeff_block.data))
        rec.check(
            coeff_block.coefficients == tuple(coeff_dense),
            "block back-substitution matches the dense solve",
            discrepancy=lambda: "solver disagreement",
        )

        degrees = {"schaback": _pivot_degrees(sb.w), "least": _pivot_degrees(lb.g)}
        for k in range(graded.kappas[-1] + 3):
            tail = sum(1 for kappa in graded.kappas if kappa >= k)
            for name, found in degrees.items():
                low = sum(1 for degree in found if degree < k)
                rec.check(
                    low + tail == n,
                    f"{name}: range and annihilator dimensions add up",
                    k=k,
                    discrepancy=lambda: f"dim(range ∩ deg<{k}) = {low}, tail = {tail}, n = {n}",
                )
    return rec.report(seed, trials)


# ---------------------------------------------------------------------------
# Suite: geometric invariance


def _bases(points) -> dict[str, SchabackBasis | LeastBasis]:
    """Both bases on the evaluations at ``points``, keyed by method."""
    graded = build_graded_basis([point_evaluation(p) for p in points])
    return {"schaback": schaback_basis(graded), "least": least_basis(graded)}


def _interpolant(basis: SchabackBasis | LeastBasis, target: Polynomial) -> Polynomial:
    interpolate = schaback_interpolate if isinstance(basis, SchabackBasis) else least_interpolate
    return interpolate(basis, target=target).interpolant


def _rotation_matrix(d: int, axes: tuple[int, int]) -> list[list[Fraction]]:
    """Exact orthogonal map: the 3-4-5 rotation embedded in two coordinates."""
    a = linalg.identity(d)
    i, j = axes
    a[i][i] = Fraction(3, 5)
    a[i][j] = Fraction(4, 5)
    a[j][i] = Fraction(-4, 5)
    a[j][j] = Fraction(3, 5)
    return a


def _collinear_points(rng: random.Random, d: int, n: int):
    base = _random_point(rng, d)
    direction = [Fraction(0)] * d
    while not any(direction):
        direction = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
    steps = rng.sample(range(-5, 6), n)
    return [tuple(b + t * v for b, v in zip(base, direction)) for t in steps]


def run_invariance(seed: int, trials: int, corrupt: bool = False) -> VerificationReport:
    rng = random.Random(seed)
    rec = _Recorder("invariance")
    for _ in range(trials):
        d = rng.randint(2, 3)
        points = _random_points(rng, d, rng.randint(3, 6))
        target = _random_polynomial(rng, d, max_degree=3)
        original = _bases(points)

        shift = _random_point(rng, d)
        moved = _bases([tuple(x + s for x, s in zip(p, shift)) for p in points])
        for method, basis in original.items():
            left = _interpolant(moved[method], target)
            if corrupt:
                left = left + Polynomial.constant(d, 1)
            right = _interpolant(basis, target.translate(shift)).translate([-s for s in shift])
            rec.check(
                left == right,
                f"{method}: interpolation commutes with translation",
                discrepancy=lambda: f"difference {left - right}",
            )

        axes = (0, 1) if d == 2 else tuple(sorted(rng.sample(range(3), 2)))
        rotation = _rotation_matrix(d, axes)
        rotated = _bases([linalg.mat_vec(linalg.transpose(rotation), p) for p in points])
        for method, basis in original.items():
            left = _interpolant(rotated[method], target.compose_affine(rotation))
            right = _interpolant(basis, target).compose_affine(rotation)
            rec.check(
                left == right,
                f"{method}: interpolation commutes with an exact rotation",
                discrepancy=lambda: f"difference {left - right}",
            )

        shear = linalg.identity(d)
        shear[0][1] = Fraction(rng.randint(1, 3))
        shear[0][0] = Fraction(rng.choice((1, 2)))
        sheared = least_basis(build_graded_basis([point_evaluation(linalg.mat_vec(shear, p)) for p in points]))
        composed_range = [g.compose_affine(linalg.transpose(shear)) for g in original["least"].g]
        rec.check(
            polynomial_span_equal(sheared.g, composed_range),
            "least: the range transforms by the transpose under any invertible map",
            discrepancy=lambda: f"shear {shear}",
        )
        rec.check(
            _interpolant(sheared, composed_range[-1]) == composed_range[-1],
            "least: transformed range elements are reproduced at the moved sites",
            discrepancy=lambda: f"shear {shear}",
        )

        line = _collinear_points(rng, d, rng.randint(2, 4))
        projection = flat_projector(line)
        off_flat = _random_point(rng, d)
        flat_target = _random_polynomial(rng, d, max_degree=3)
        on_line = {m: _interpolant(b, flat_target) for m, b in _bases(line).items()}
        for method, f in on_line.items():
            rec.check(
                f(off_flat) == f(projection(off_flat)),
                f"{method}: interpolant is constant perpendicular to the affine hull",
                discrepancy=lambda: f"at {off_flat}: {f(off_flat)} vs {f(projection(off_flat))}",
            )
        one, other = on_line.values()
        rec.check(
            one == other,
            "both interpolants coincide on collinear points",
            discrepancy=lambda: f"difference {one - other}",
        )

        # points confined to a tilted plane inside R^3
        slope = (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
        base = _random_points(rng, 2, rng.randint(3, 5))
        plane = [
            (p[0], p[1], slope[0] * p[0] + slope[1] * p[1] + 1) for p in base
        ]
        plane_projection = flat_projector(plane)
        plane_target = _random_polynomial(rng, 3, max_degree=2)
        off_plane = _random_point(rng, 3)
        for method, basis in _bases(plane).items():
            f = _interpolant(basis, plane_target)
            rec.check(
                f(off_plane) == f(plane_projection(off_plane)),
                f"{method}: interpolant is constant perpendicular to a planar hull",
                discrepancy=lambda: f"at {off_plane}",
            )
    return rec.report(seed, trials)


# ---------------------------------------------------------------------------
# Dispatch


_RUNNERS = {
    "micchelli": run_micchelli,
    "schaback-lemma": run_schaback_lemma,
    "projector": run_projector,
    "invariance": run_invariance,
}


def run_suite(name: str, seed: int, trials: int, corrupt: bool = False) -> VerificationReport:
    """Run one named suite, or all of them under the same seed and trials."""
    if name == "all":
        rec = _Recorder("all")
        for sub in SUITE_NAMES:
            report = _RUNNERS[sub](seed, trials, corrupt)
            rec.cases += report.cases
            rec.failures.extend(report.failures)
        return rec.report(seed, trials)
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}")
    return _RUNNERS[name](seed, trials, corrupt)
