"""Acceptance suite: one test per criterion, every check exact.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion (each test also prints an ACCEPTANCE line, visible with -s).
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from radpoly import (
    PointFunctional,
    Polynomial,
    build_graded_basis,
    compare_interpolants,
    expansion_polynomial,
    flat_projector,
    from_derivative,
    least_basis,
    least_interpolate,
    monomial_sequence,
    order,
    point_evaluation,
    polynomial_span_equal,
    radial_image,
    schaback_basis,
    schaback_interpolate,
    tensor_apply_radial,
)
from radpoly.cli import main
from radpoly.rational_linalg import determinant, transpose
from radpoly.verification import run_suite
from test_graded import build_with_ties, verify_graded
from test_interpolation import four_point_radial_moment

GOLDEN = Path(__file__).parent / "golden"


def _passed(number, name, detail=""):
    suffix = f" -- {detail}" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): PASS{suffix}")


def _random_distinct_points(rng, d, n):
    points = set()
    while len(points) < n:
        points.add(tuple(Fraction(rng.randint(-5, 5)) for _ in range(d)))
    return list(points)


def _random_point_functional(rng, d, max_points=6):
    n = rng.randint(1, max_points)
    return PointFunctional(
        _random_distinct_points(rng, d, n),
        [Fraction(rng.randint(-9, 9)) for _ in range(n)],
        dimension=d,
    )


def _population_with_order_at_least(rng, k, count):
    """Functionals of order >= k: graded-basis tails plus derivatives."""
    population = []
    while len(population) < count - 20:
        d = rng.randint(1, 3)
        n = rng.randint(2, 10)
        graded = build_graded_basis(
            [point_evaluation(p) for p in _random_distinct_points(rng, d, n)]
        )
        for lam, kappa in zip(graded.lambdas, graded.kappas):
            if kappa >= k:
                population.append((lam, kappa))
    while len(population) < count:
        d = rng.randint(1, 3)
        total = rng.randint(k, 3)
        alpha = [0] * d
        for _ in range(total):
            alpha[rng.randrange(d)] += 1
        deriv = from_derivative(alpha, _random_distinct_points(rng, d, 1)[0], 8)
        population.append((deriv, total))
    return population[:count]


def test_criterion_01_expansion_identity():
    start = time.perf_counter()
    for d in (1, 2, 3):
        for k in range(5):
            squared = Polynomial(2 * d, {})
            for i in range(d):
                diff = Polynomial.variable(2 * d, i) - Polynomial.variable(2 * d, d + i)
                squared = squared + diff * diff
            assert expansion_polynomial(k, d) == squared**k
    elapsed = time.perf_counter() - start
    assert elapsed < 10
    _passed(1, "expansion identity", f"k<=4, d<=3 exact in {elapsed:.2f}s")


def test_criterion_02_double_sum_oracle():
    start = time.perf_counter()
    rng = random.Random(20)
    for _ in range(200):
        d = rng.randint(1, 3)
        lam = _random_point_functional(rng, d)
        mu = _random_point_functional(rng, d)
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
    elapsed = time.perf_counter() - start
    assert elapsed < 30
    _passed(2, "double-sum oracle", f"200 pairs, k<=3, exact in {elapsed:.2f}s")


def test_criterion_03_sign_and_equality_characterization():
    for k in (1, 2, 3):
        rng = random.Random(300 + k)
        for lam, kappa in _population_with_order_at_least(rng, k, 100):
            assert order(lam) == kappa
            q = tensor_apply_radial(lam, lam, k)
            assert (-1) ** k * q >= 0
            assert (q == 0) == (kappa >= k + 1)
    _passed(3, "quadratic form sign and vanishing", "100 functionals per k in {1,2,3}")


def test_criterion_04_vanishing_chain_and_image_degrees():
    second_difference = PointFunctional([[0], [1], [2]], [1, -2, 1])
    assert tensor_apply_radial(second_difference, second_difference, 2) == 24

    for k in (1, 2, 3):
        rng = random.Random(400 + k)
        for lam, kappa in _population_with_order_at_least(rng, k, 40):
            vanish = all(tensor_apply_radial(lam, lam, r) == 0 for r in range(k + 1))
            assert vanish == (kappa >= k + 1)
            for ell in range(kappa + 2):
                if lam.degree_cap is not None and lam.degree_cap < 2 * ell:
                    continue
                degree = radial_image(lam, ell).degree
                # forward: annihilating degrees <= kappa-1 bounds the degree
                if 2 * ell >= kappa:
                    assert degree <= 2 * ell - kappa
                else:
                    assert degree == -1
                # equality once ell reaches the order
                if ell >= kappa:
                    assert degree == 2 * ell - kappa
                # converse on its valid domain k' <= ell
                strongest = min(ell, 2 * ell - degree - 1)
                if strongest >= 0:
                    assert kappa >= strongest + 1
    _passed(4, "vanishing chain and radial image degrees", "includes Q = 24 hand value")


def test_criterion_05_graded_basis_invariants():
    rng = random.Random(50)
    for _ in range(50):
        d = rng.randint(1, 3)
        n = rng.randint(1, 10)
        points = _random_distinct_points(rng, d, n)
        span = [point_evaluation(p) for p in points]
        graded = build_graded_basis(span)
        assert graded.kappas == tuple(sorted(graded.kappas))
        assert all(sum(b) == k for b, k in zip(graded.pivots, graded.kappas))
        assert determinant([list(r) for r in graded.transform]) != 0
        pivot_matrix = [[lam.moment(beta) for beta in graded.pivots] for lam in graded.lambdas]
        for i in range(n):
            assert pivot_matrix[i][i] == 1
            for j in range(i):
                assert pivot_matrix[i][j] == 0
        for k in range(max(graded.kappas) + 2):
            assert verify_graded(graded, k)
        other = build_with_ties(span, ascending_ties=True)
        assert other.kappas == graded.kappas
    _passed(5, "graded basis invariants", "50 point sets, both tie-breaks")


def test_criterion_06_radial_basis_structure():
    rng = random.Random(60)
    for _ in range(25):
        d = rng.randint(1, 3)
        n = rng.randint(1, 9)
        graded = build_graded_basis(
            [point_evaluation(p) for p in _random_distinct_points(rng, d, n)]
        )
        sb = schaback_basis(graded)
        assert all(w.degree == k for w, k in zip(sb.w, graded.kappas))
        for i in range(n):
            for j in range(n):
                if graded.kappas[i] > graded.kappas[j]:
                    assert graded.lambdas[i](sb.w[j]) == 0
                    assert sb.gramian[i][j] == Fraction(0)
        for block in graded.blocks():
            diag = [[sb.gramian[i][j] for j in block] for i in block]
            assert determinant(diag) != 0
    _passed(6, "radial basis structure", "deg w_j = kappa_j, block triangular Gramian")


def test_criterion_07_projector_suite():
    start = time.perf_counter()
    report = run_suite("projector", seed=7, trials=40)
    elapsed = time.perf_counter() - start
    assert report.ok, report.failures[:3]
    assert elapsed < 60
    _passed(7, "projector laws", f"{report.cases} checks in {elapsed:.2f}s")


def test_criterion_08_four_point_example():
    grid = [(0, 0), (1, 0), (0, 1), (1, 1)]
    graded = build_graded_basis([point_evaluation(p) for p in grid])
    sb, lb = schaback_basis(graded), least_basis(graded)
    assert four_point_radial_moment(grid) == 0
    quadratic_extension = [
        Polynomial.constant(2, 1),
        Polynomial.variable(2, 0),
        Polynomial.variable(2, 1),
        Polynomial.monomial(2, (1, 1)),
    ]
    assert polynomial_span_equal(sb.w, quadratic_extension)
    assert polynomial_span_equal(lb.g, quadratic_extension)
    for alpha in monomial_sequence(2, 3):
        probe = Polynomial.monomial(2, alpha)
        assert (
            schaback_interpolate(sb, target=probe).interpolant
            == least_interpolate(lb, target=probe).interpolant
        )
    product_data = schaback_interpolate(sb, data=[0, 0, 0, 1])
    assert product_data.interpolant == Polynomial.monomial(2, (1, 1))
    assert least_interpolate(lb, data=[0, 0, 0, 1]).interpolant == Polynomial.monomial(2, (1, 1))

    skew = [(0, 0), (1, 0), (0, 1), (1, 2)]
    assert four_point_radial_moment(skew) == 2
    graded_skew = build_graded_basis([point_evaluation(p) for p in skew])
    assert not polynomial_span_equal(
        schaback_basis(graded_skew).w, least_basis(graded_skew).g
    )
    _passed(8, "planar four-point example", "gridded coincidence and z=(1,2) divergence")


def test_criterion_09_invariances():
    rotation = [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]]
    shear = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    stretch = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]]

    def interpolate(points, target, method):
        graded = build_graded_basis([point_evaluation(p) for p in points])
        if method == "schaback":
            return schaback_interpolate(graded, target=target).interpolant
        return least_interpolate(graded, target=target).interpolant

    def apply_matrix(matrix, point):
        return tuple(
            sum((row[j] * point[j] for j in range(len(point))), Fraction(0))
            for row in matrix
        )

    rng = random.Random(90)
    point_sets = [
        [(0, 0), (1, 0), (0, 1), (1, 2)],
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        _random_distinct_points(rng, 2, 5),
        _random_distinct_points(rng, 2, 6),
    ]
    probes = [Polynomial.monomial(2, a) for a in monomial_sequence(2, 3)]

    for points in point_sets:
        points = [tuple(map(Fraction, p)) for p in points]
        shift = (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
        for probe in probes[:6]:
            for method in ("schaback", "least"):
                moved = [tuple(x + s for x, s in zip(p, shift)) for p in points]
                left = interpolate(moved, probe, method)
                right = interpolate(points, probe.translate(shift), method)
                assert left == right.translate([-s for s in shift])

                mapped = [apply_matrix(transpose(rotation), p) for p in points]
                left = interpolate(mapped, probe.compose_affine(rotation), method)
                right = interpolate(points, probe, method).compose_affine(rotation)
                assert left == right

    # general invertible maps: the least range transforms by the transpose
    for matrix in (shear, stretch):
        for points in point_sets:
            points = [tuple(map(Fraction, p)) for p in points]
            moved = [apply_matrix(matrix, p) for p in points]
            lb_moved = least_basis(build_graded_basis([point_evaluation(p) for p in moved]))
            lb = least_basis(build_graded_basis([point_evaluation(p) for p in points]))
            composed = [g.compose_affine(transpose(matrix)) for g in lb.g]
            assert polynomial_span_equal(lb_moved.g, composed)
            reproduced = least_interpolate(lb_moved, target=composed[-1]).interpolant
            assert reproduced == composed[-1]

    # flat invariance and one-flat coincidence, d = 2 and 3
    collinear_sets = [
        [(0, 0), (1, 1), (2, 2)],
        [(1, 0), (3, 1), (5, 2), (7, 3)],
        [(0, 0, 0), (1, 1, 0), (2, 2, 0)],
        [(0, 1, 2), (2, 2, 2), (4, 3, 2), (6, 4, 2)],
    ]
    for points in collinear_sets:
        d = len(points[0])
        projection = flat_projector(points)
        targets = [Polynomial.monomial(d, a) for a in monomial_sequence(d, 3)]
        for target in targets:
            one = interpolate(points, target, "schaback")
            other = interpolate(points, target, "least")
            assert one == other
            off = tuple(Fraction(v) for v in ([3, -2], [1, 5], [3, -2, 4], [0, 0, 7])[
                collinear_sets.index(points)
            ])
            assert one(off) == one(projection(off))

    # a planar hull in R^3: both methods flat-invariant, yet still different
    plane = [(Fraction(p[0]), Fraction(p[1]), Fraction(p[0]) + 1)
             for p in [(0, 0), (1, 0), (0, 1), (1, 2)]]
    projection = flat_projector(plane)
    off = (Fraction(2), Fraction(3), Fraction(-1))
    target = Polynomial.monomial(3, (1, 1, 0))
    one = interpolate(plane, target, "schaback")
    other = interpolate(plane, target, "least")
    assert one(off) == one(projection(off))
    assert other(off) == other(projection(off))
    assert one != other
    _passed(9, "invariances", "translation, rotation, transform law, flats, coincidence")


def test_criterion_10_cli_golden_files(tmp_path):
    cases = [
        (["basis", "--input", str(GOLDEN / "collinear1d.problem.json")],
         "basis_collinear1d.json"),
        (["interp", "--input", str(GOLDEN / "grid.problem.json"), "--method", "both"],
         "interp_grid_both.json"),
        (["interp", "--input", str(GOLDEN / "skew.problem.json"), "--method", "both"],
         "interp_skew_both.json"),
        (["expand", "--k", "2", "--d", "1"], "expand_k2_d1.json"),
        (["compare", "--input", str(GOLDEN / "grid.problem.json")], "compare_grid.json"),
        (["compare", "--input", str(GOLDEN / "skew.problem.json")], "compare_skew.json"),
        (["interp", "--input", str(GOLDEN / "mixed.problem.json"), "--method", "both"],
         "interp_mixed_both.json"),
        (["basis", "--input", str(GOLDEN / "mixed.problem.json")], "basis_mixed.json"),
    ]
    for i, (argv, expected) in enumerate(cases):
        first = tmp_path / f"{i}_a.json"
        second = tmp_path / f"{i}_b.json"
        assert main([*argv, "--output", str(first)]) == 0
        assert main([*argv, "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes() == (GOLDEN / expected).read_bytes()

    basis_obj = json.loads((GOLDEN / "basis_collinear1d.json").read_text())
    assert basis_obj["kappas"] == [0, 1, 2]
    grid_obj = json.loads((GOLDEN / "interp_grid_both.json").read_text())
    assert grid_obj["difference"]["terms"] == []
    skew_obj = json.loads((GOLDEN / "interp_skew_both.json").read_text())
    assert skew_obj["difference"]["terms"] != []
    # points of unlike denominators, a three-atom combination, derivatives and stored moments in one span
    assert json.loads((GOLDEN / "basis_mixed.json").read_text())["kappas"] == [0, 1, 1, 2, 2, 2, 3]
    assert len(json.loads((GOLDEN / "interp_mixed_both.json").read_text())["difference"]["terms"]) == 10

    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({"dimension": 2, "points": [[0, 0], [0, 0], [1, 1]]}))
    assert main(["basis", "--input", str(dup)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["basis", "--input", str(bad)]) == 1
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", "micchelli", "--seed", "1", "--trials", "2",
                 "--corrupt", "--output", str(out)]) == 3
    _passed(10, "CLI golden files", "byte-identical reruns, exit contract honored")
