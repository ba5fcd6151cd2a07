"""Graded basis construction by exact elimination, and its invariants."""

import math
import random
import time
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from radpoly import (
    DegreeCapError,
    MomentFunctional,
    PointFunctional,
    Polynomial,
    RankDeficientError,
    build_graded_basis,
    combine,
    from_derivative,
    monomial_sequence,
    monomials_of_degree,
    order,
    point_evaluation,
)
import radpoly.graded as graded_module
from radpoly.functionals import _order_bound
from radpoly.functionals import MomentTable
from radpoly.rational_linalg import determinant, integer_vector
from test_functionals import _atom_combinations, _oracle_moment


def evaluations(points):
    return [point_evaluation(p) for p in points]


def reversed_monomials(d, degree):
    """The monomials of one degree in the reversed tie order (smaller first coordinate first)."""
    return reversed(list(monomials_of_degree(d, degree)))


def verify_graded(basis, k):
    """The degree-k graded property, checked directly on the moments of the lambda_i.

    True iff every lambda_i with kappa_i >= k annihilates all monomials of degree < k, and the
    lambda_i with kappa_i < k show a triangular (hence independent) moment pattern on their pivots.
    """
    below = monomial_sequence(basis.dimension, k - 1) if k else []
    for lam, kappa in zip(basis.lambdas, basis.kappas):
        if kappa >= k and any(lam.moment(alpha) for alpha in below):
            return False
    head = [i for i in range(basis.size) if basis.kappas[i] < k]
    for row, i in enumerate(head):
        for col, j in enumerate(head):
            value = basis.lambdas[i].moment(basis.pivots[j])
            if row > col and value != 0:
                return False
            if row == col and value == 0:
                return False
    return True


def build_with_ties(span, degree_cap=None, ascending_ties=False):
    """``build_graded_basis``, eliminating each degree's monomials in reversed tie
    order when ``ascending_ties``: pivot-dependent results must not depend on it."""
    if not ascending_ties:
        return build_graded_basis(span, degree_cap)
    with mock.patch("radpoly.graded.monomials_of_degree", reversed_monomials):
        return build_graded_basis(span, degree_cap)


class TestHandWorkedExamples:
    def test_two_points(self):
        graded = build_graded_basis(evaluations([(0,), (1,)]))
        assert graded.kappas == (0, 1)
        assert graded.pivots == ((0,), (1,))
        assert graded.lambdas[0] == point_evaluation((0,))
        assert graded.lambdas[1] == PointFunctional([(1,), (0,)], [1, -1])

    def test_three_points_gives_normalized_second_difference(self):
        graded = build_graded_basis(evaluations([(0,), (1,), (2,)]))
        assert graded.kappas == (0, 1, 2)
        assert graded.lambdas[2] == PointFunctional(
            [(0,), (1,), (2,)], [Fraction(1, 2), -1, Fraction(1, 2)]
        )

    def test_gridded_four_points(self):
        graded = build_graded_basis(evaluations([(0, 0), (1, 0), (0, 1), (1, 1)]))
        assert graded.kappas == (0, 1, 1, 2)
        assert graded.pivots[3] == (1, 1)
        assert graded.lambdas[3] == PointFunctional(
            [(1, 1), (1, 0), (0, 1), (0, 0)], [1, -1, -1, 1]
        )


class TestVerifyGraded:
    def test_gridded_basis_passes_at_two(self):
        graded = build_graded_basis(evaluations([(0, 0), (1, 0), (0, 1), (1, 1)]))
        assert verify_graded(graded, 2)

    def test_everything_passes_at_zero(self):
        graded = build_graded_basis(evaluations([(3,), (1,), (4,)]))
        assert verify_graded(graded, 0)

    def test_corrupted_basis_fails(self):
        graded = build_graded_basis(evaluations([(0, 0), (1, 0), (0, 1), (1, 1)]))
        swapped = list(graded.integer_transform)
        swapped[3], swapped[1] = swapped[1], swapped[3]
        corrupt = replace(graded, integer_transform=tuple(swapped))
        assert corrupt.lambdas[1] == graded.lambdas[3]
        assert not verify_graded(corrupt, 2)

    def test_holds_for_every_k_up_to_max(self):
        graded = build_graded_basis(evaluations([(0, 0), (2, 1), (1, 1), (-1, 3), (0, 5)]))
        for k in range(max(graded.kappas) + 2):
            assert verify_graded(graded, k)

    def test_holds_on_a_derivative_span_for_every_k(self):
        span = [from_derivative(alpha, site, 5) for site in ((0, 0), (1, 2))
                for alpha in ((0, 0), (1, 0), (0, 1))]
        graded = build_graded_basis(span, degree_cap=4)
        assert graded.lambdas[0].degree_cap == 5
        for k in range(max(graded.kappas) + 2):
            assert verify_graded(graded, k)

    def test_corrupted_capped_span_fails(self):
        span = [from_derivative(alpha, (0, 0), 4) for alpha in ((0, 0), (1, 0), (0, 1), (2, 0))]
        graded = build_graded_basis(span, degree_cap=4)
        assert graded.kappas == (0, 1, 1, 2)
        swapped = list(graded.integer_transform)
        swapped[3], swapped[0] = swapped[0], swapped[3]
        corrupt = replace(graded, integer_transform=tuple(swapped))
        assert verify_graded(graded, 2) and not verify_graded(corrupt, 2)


    @pytest.mark.parametrize("order, expected, row, col", [
        ((0, 2, 1, 3, 4, 5), [True, True, False, False], 1, 1),
        ((0, 1, 1, 3, 4, 5), [True, True, False, False], 2, 2),
        ((0, 1, 2, 4, 3, 5), [True, True, True, False], 4, 3),
    ], ids=["swapped-in-block", "repeated-pivot", "swapped-below-diagonal"])
    def test_broken_pivot_pattern_fails(self, order, expected, row, col):
        """Pivots that break the triangular pattern fail from the degree past their block on.  The
        first broken entry (row, col) is a zero on the diagonal or a nonzero below it."""
        graded = build_graded_basis(evaluations([(0, 0), (1, 0), (0, 1), (1, 2), (2, 1), (3, 3)]))
        assert graded.kappas == (0, 1, 1, 2, 2, 2)
        assert [verify_graded(graded, k) for k in range(4)] == [True] * 4
        corrupt = replace(graded, pivots=tuple(graded.pivots[i] for i in order))
        assert [verify_graded(corrupt, k) for k in range(4)] == expected
        value = corrupt.lambdas[row].moment(corrupt.pivots[col])
        assert value == 0 if row == col else value != 0

class TestErrors:
    def test_duplicate_functionals_are_rank_deficient(self):
        with pytest.raises(RankDeficientError) as info:
            build_graded_basis(evaluations([(0, 0), (0, 0), (1, 1)]))
        assert info.value.achieved_rank == 2

    def test_insufficient_cap_is_rank_deficient(self):
        with pytest.raises(RankDeficientError):
            build_graded_basis(evaluations([(0,), (1,), (2,)]), degree_cap=1)

    def test_point_spans_search_no_degree_past_their_support(self, monkeypatch):
        """m distinct support points: no column of degree above m - 1 is built, whatever the cap."""
        built = []
        missing = MomentTable.__missing__
        monkeypatch.setattr(MomentTable, "__missing__",
                            lambda table, alpha: (built.append(sum(alpha)), missing(table, alpha))[1])
        with pytest.raises(RankDeficientError, match="searching degrees up to 6"):
            build_graded_basis(evaluations([(1, 2), (1, 2), (3, 1)]), degree_cap=6)
        assert max(built) <= 1
        built.clear()
        graded = build_graded_basis(evaluations([(0,), (1,)]), degree_cap=6)
        assert graded.kappas == (0, 1) and graded.degree_cap == 6
        assert max(built) <= 1

    def test_a_mixed_span_searches_no_degree_past_its_order_bound(self, monkeypatch):
        """Two equal D p(5) and the table {x^0: 1}, caps 10^6: the bound is 0 + (1 + 1) = 2, so no
        column past degree 2 is built (searching to the cap took 0.8 s and 260 MB at a cap of 20,000)."""
        missing = MomentTable.__missing__

        def guarded(table, alpha):
            assert sum(alpha) <= 2, f"column {alpha} lies past the order bound"
            return missing(table, alpha)

        monkeypatch.setattr(MomentTable, "__missing__", guarded)
        span = [from_derivative((1,), (5,), 10**6), from_derivative((1,), (5,), 10**6),
                MomentFunctional(1, 10**6, {(0,): 1})]
        assert _order_bound(span) == 2
        start = time.perf_counter()
        with pytest.raises(RankDeficientError) as info:
            build_graded_basis(span, degree_cap=10**6)
        assert time.perf_counter() - start < 1
        assert str(info.value) == "rank deficient: found 2 pivots for 3 functionals searching degrees up to 1000000"

    def test_moment_span_requires_explicit_cap(self):
        span = [MomentFunctional(1, 4, {(0,): 1}), MomentFunctional(1, 4, {(1,): 1})]
        with pytest.raises(ValueError):
            build_graded_basis(span)
        graded = build_graded_basis(span, degree_cap=3)
        assert graded.kappas == (0, 1)

    def test_cap_beyond_moment_storage_rejected(self):
        span = [MomentFunctional(1, 2, {(0,): 1}), MomentFunctional(1, 2, {(1,): 1})]
        with pytest.raises(DegreeCapError):
            build_graded_basis(span, degree_cap=5)

    def test_empty_span_rejected(self):
        with pytest.raises(ValueError):
            build_graded_basis([])


class TestMixedAndMomentSpans:
    def test_derivative_span(self):
        span = [
            from_derivative((0, 0), (0, 0), 4),
            from_derivative((1, 0), (0, 0), 4),
            from_derivative((0, 2), (0, 0), 4),
        ]
        graded = build_graded_basis(span, degree_cap=4)
        assert graded.kappas == (0, 1, 2)
        assert graded.pivots == ((0, 0), (1, 0), (0, 2))

    def test_mixed_point_and_moment_span(self):
        span = [point_evaluation((0,)), from_derivative((1,), (0,), 5)]
        graded = build_graded_basis(span, degree_cap=5)
        assert graded.kappas == (0, 1)
        assert all(order(lam) == kappa for lam, kappa in zip(graded.lambdas, graded.kappas))

    def test_the_order_bound_is_tight_on_a_mixed_span(self):
        """delta_1 minus the table {1: 1, x: 1} has order 2 = D + (0 + 1): one degree short, the
        search would miss its pivot."""
        span = [point_evaluation((1,)), MomentFunctional(1, 5, {(0,): 1, (1,): 1})]
        assert _order_bound(span) == 2
        assert build_graded_basis(span, degree_cap=5).kappas == (0, 2)


class TestRandomizedInvariants:
    def test_structure_on_random_point_sets(self):
        rng = random.Random(99)
        for _ in range(25):
            d = rng.randint(1, 3)
            n = rng.randint(1, 10)
            points = set()
            while len(points) < n:
                points.add(tuple(Fraction(rng.randint(-5, 5)) for _ in range(d)))
            graded = build_graded_basis(evaluations(list(points)))

            assert graded.kappas == tuple(sorted(graded.kappas))
            assert all(sum(beta) == kappa for beta, kappa in zip(graded.pivots, graded.kappas))
            assert determinant([list(row) for row in graded.transform]) != 0

            pivot_matrix = [[lam.moment(beta) for beta in graded.pivots] for lam in graded.lambdas]
            for i in range(n):
                for j in range(n):
                    if i == j:
                        assert pivot_matrix[i][j] == 1
                    elif i > j:
                        assert pivot_matrix[i][j] == 0

            # each row annihilates every monomial preceding its pivot
            from radpoly import monomial_sequence

            columns = monomial_sequence(d, graded.degree_cap)
            for lam, pivot in zip(graded.lambdas, graded.pivots):
                for alpha in columns:
                    if alpha == pivot:
                        break
                    assert lam.moment(alpha) == 0

            for k in range(max(graded.kappas) + 2):
                assert verify_graded(graded, k)

    def test_kappa_profile_independent_of_tie_break(self):
        rng = random.Random(7)
        for _ in range(15):
            d = rng.randint(2, 3)
            n = rng.randint(2, 8)
            points = set()
            while len(points) < n:
                points.add(tuple(Fraction(rng.randint(-4, 4)) for _ in range(d)))
            span = evaluations(list(points))
            one = build_graded_basis(span)
            other = build_with_ties(span, ascending_ties=True)
            assert one.kappas == other.kappas

    def test_point_spans_always_complete_at_default_cap(self):
        rng = random.Random(31)
        for _ in range(20):
            d = rng.randint(1, 3)
            n = rng.randint(1, 9)
            points = set()
            while len(points) < n:
                points.add(tuple(Fraction(rng.randint(-5, 5)) for _ in range(d)))
            graded = build_graded_basis(evaluations(list(points)))
            assert graded.size == n


RATIONALS = st.sampled_from([Fraction(v) for v in ("0", "1", "-1", "2", "1/2", "-2/3", "3/2", "-5/4")])


SPAN_KINDS = ("points", "weighted", "derivatives", "collinear", "coplanar", "collinear weighted",
              "single point")


@st.composite
def spans(draw, kinds=SPAN_KINDS):
    """(span, degree_cap, ascending_ties) over the span kinds the moment table must handle.

    Rational point sets, weighted point combinations, derivative functionals
    at rational sites (mixed with point evaluations, and with moment caps
    that may lie below 2 kappa), collinear and coplanar point sets, weighted
    combinations on a collinear support, and single-point supports; ``kinds``
    narrows the draw.
    """
    kind = draw(st.sampled_from(kinds))
    degree_cap = None
    if kind == "points":
        d = draw(st.integers(1, 3))
        points = draw(st.lists(st.tuples(*[RATIONALS] * d), min_size=1, max_size=6, unique=True))
        span = [point_evaluation(p) for p in points]
    elif kind == "weighted":
        d = draw(st.integers(1, 2))
        span = []
        for _ in range(draw(st.integers(1, 4))):
            points = draw(st.lists(st.tuples(*[RATIONALS] * d), min_size=1, max_size=3, unique=True))
            weights = draw(st.lists(RATIONALS, min_size=len(points), max_size=len(points)))
            span.append(PointFunctional(points, weights, dimension=d))
    elif kind == "derivatives":
        d = draw(st.integers(1, 2))
        cap = draw(st.sampled_from([4, 6]))
        span = []
        for _ in range(draw(st.integers(1, 5))):
            site = draw(st.tuples(*[RATIONALS] * d))
            if draw(st.booleans()):
                span.append(point_evaluation(site))
            else:
                alpha = draw(st.tuples(*[st.integers(0, 2)] * d).filter(lambda a: sum(a) <= 2))
                span.append(from_derivative(alpha, site, cap))
        degree_cap = 3
    elif kind.startswith("collinear"):
        d = draw(st.integers(2, 3))
        base = draw(st.tuples(*[RATIONALS] * d))
        direction = draw(st.tuples(*[RATIONALS] * d).filter(any))
        steps = draw(st.lists(RATIONALS, min_size=2, max_size=5, unique=True))
        line = [[b + t * v for b, v in zip(base, direction)] for t in steps]
        if kind == "collinear":
            span = [point_evaluation(x) for x in line]
        else:
            span = []
            for _ in range(draw(st.integers(1, 4))):
                weights = draw(st.lists(RATIONALS, min_size=len(line), max_size=len(line)))
                span.append(PointFunctional(line, weights, dimension=d))
    elif kind == "single point":
        d = draw(st.integers(2, 3))
        site = draw(st.tuples(*[RATIONALS] * d))
        span = [PointFunctional([site], [draw(RATIONALS.filter(bool))])]
    else:
        a, b, c = draw(st.tuples(RATIONALS, RATIONALS, RATIONALS))
        feet = draw(st.lists(st.tuples(RATIONALS, RATIONALS), min_size=3, max_size=6, unique=True))
        span = [point_evaluation((x, y, a * x + b * y + c)) for x, y in feet]
    return span, degree_cap, draw(st.booleans())


def fraction_elimination(span, degree_cap, ascending_ties):
    """The graded elimination done directly in Fractions on f.moment(alpha).

    Returns the pivot rows of T normalized to a unit pivot, the orders and
    the pivots; fewer than len(span) rows means rank deficiency at the cap.
    """
    n, d = len(span), span[0].dimension
    transform = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    kappas, pivots = [], []
    for k in range((n - 1 if degree_cap is None else degree_cap) + 1):
        monomials = list(monomials_of_degree(d, k))
        for alpha in monomials[::-1] if ascending_ties else monomials:
            rank = len(pivots)
            if rank == n:
                break
            column = [f.moment(alpha) for f in span]
            values = [sum(t * c for t, c in zip(row, column)) for row in transform[rank:]]
            pivot = next((i for i, v in enumerate(values) if v), None)
            if pivot is None:
                continue
            transform[rank], transform[rank + pivot] = transform[rank + pivot], transform[rank]
            values[0], values[pivot] = values[pivot], values[0]
            transform[rank] = [t / values[0] for t in transform[rank]]
            for i in range(1, len(values)):
                transform[rank + i] = [
                    t - values[i] * p for t, p in zip(transform[rank + i], transform[rank])
                ]
            kappas.append(k)
            pivots.append(alpha)
    return transform[:len(pivots)], kappas, pivots


@given(spans())
@settings(deadline=None, max_examples=80)
def test_integer_elimination_matches_the_fraction_elimination(case):
    span, degree_cap, ascending_ties = case
    transform, kappas, pivots = fraction_elimination(span, degree_cap, ascending_ties)
    if len(pivots) < len(span):
        with pytest.raises(RankDeficientError) as info:
            build_with_ties(span, degree_cap, ascending_ties)
        assert info.value.achieved_rank == len(pivots)
        return
    graded = build_with_ties(span, degree_cap, ascending_ties)
    assert graded.transform == tuple(tuple(row) for row in transform)
    # the integer rows the elimination keeps are the rows of T in lowest terms
    assert graded.integer_transform == tuple((tuple(ints), den) for ints, den in map(integer_vector, transform))
    assert graded.kappas == tuple(kappas)
    assert graded.pivots == tuple(pivots)
    assert graded.lambdas == tuple(combine(span, row) for row in transform)
    assert graded.lambdas is graded.lambdas  # built once, then cached
    top = 2 * max(graded.kappas)
    if graded.moments.cap is not None:
        top = min(top, graded.moments.cap)
    monomials = monomial_sequence(graded.dimension, top)  # rows fill where read: look each one up
    rows = graded.moments.rows(graded.integer_transform, top)  # the rows in x, whatever the frame
    for lam, row in zip(graded.lambdas, rows):
        assert all(lam.moment(alpha) == Fraction(row[alpha], row.denominator) for alpha in monomials)
    assert graded.rows is graded.rows  # the rows of L in the frame: built once, then cached
    if graded.hull is None:  # the frame is x: the rows of L reach the same top degree as these
        assert [row.denominator for row in graded.rows] == [row.denominator for row in rows]


@st.composite
def atom_spans(draw):
    """(span, bound): values and gradients at distinct integer sites in d <= 2, each (site, order) at
    most once, so the span is independent; bound is sum over the sites x of (a_x + 1) - 1, a_x the
    largest total order at x.  A value is a point evaluation or a capped derivative of order 0."""
    d = draw(st.integers(1, 2))
    sites = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=4, unique=True))
    orders = [(0,) * d, *(tuple(int(i == j) for j in range(d)) for i in range(d))]
    span, bound = [], -1
    for site in sites:
        alphas = draw(st.lists(st.sampled_from(orders), min_size=1, max_size=d + 1, unique=True))
        span += [point_evaluation(site) if not any(alpha) and draw(st.booleans())
                 else from_derivative(alpha, site, 12) for alpha in alphas]
        bound += max(map(sum, alphas)) + 1
    return draw(st.permutations(span)), bound


@given(atom_spans())
@settings(deadline=None, max_examples=60)
def test_orders_of_an_atom_span_stay_within_its_search_bound(case):
    """The elimination stops an all-atom span's search at the bound; the Fraction elimination, which
    searches to the whole cap of 12, finds every order at or below it, and the same orders."""
    span, bound = case
    _, kappas, _ = fraction_elimination(span, 12, False)
    assert len(kappas) == len(span) and kappas[-1] <= bound
    assert build_graded_basis(span, 12).kappas == tuple(kappas)


BOUND_CAP = 9


@st.composite
def bound_spans(draw):
    """Mixed spans in d <= 2 under a moment cap of 9: point evaluations and derivative atoms of order
    <= 2 at a few shared sites, moment tables of degree <= 3 (the zero table among them) and copies
    of an atom's moments cut at degree D <= 3, whose difference from the atom has order D + 1."""
    d = draw(st.integers(1, 2))
    coordinate = st.fractions(min_value=-2, max_value=2, max_denominator=2)
    sites = draw(st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=3, unique=True))
    alphas = st.tuples(*[st.integers(0, 2)] * d).filter(lambda a: sum(a) <= 2)
    atoms = [point_evaluation(x) if not any(a) and draw(st.booleans()) else from_derivative(a, x, BOUND_CAP)
             for x, a in draw(st.lists(st.tuples(st.sampled_from(sites), alphas), max_size=4))]
    exponent = st.tuples(*[st.integers(0, 3)] * d).filter(lambda a: sum(a) <= 3)
    tables = [MomentFunctional(d, BOUND_CAP, draw(st.dictionaries(exponent, RATIONALS, max_size=3)))
              for _ in range(draw(st.integers(0, 2)))]
    for f in draw(st.lists(st.sampled_from(atoms), max_size=2)) if atoms else ():
        top = draw(st.integers(0, 3))
        tables.append(MomentFunctional(d, BOUND_CAP, {a: f.moment(a) for a in monomial_sequence(d, top)}))
    return draw(st.permutations(atoms + tables or [MomentFunctional(d, BOUND_CAP)]))


@given(bound_spans())
@settings(deadline=None, max_examples=150)
def test_the_order_bound_cuts_no_order_and_no_pivot(span):
    """A reference elimination that searches to the whole cap (``_order_bound`` patched away) finds
    the same orders, all within the bound, or for a rank-deficient span the same rank."""
    with mock.patch.object(graded_module, "_order_bound", lambda _: 10**9):
        try:
            reference = build_graded_basis(span, BOUND_CAP)
        except RankDeficientError as deficient:
            reference = deficient
    if isinstance(reference, RankDeficientError):
        with pytest.raises(RankDeficientError) as info:
            build_graded_basis(span, BOUND_CAP)
        assert info.value.achieved_rank == reference.achieved_rank
    else:
        assert build_graded_basis(span, BOUND_CAP).kappas == reference.kappas
        assert reference.kappas[-1] <= _order_bound(span)


@pytest.mark.parametrize("points, hull", [
    ([(t, 2 * t + 1) for t in (-3, -1, 0, 2, 5, 7, 9)], 1),
    ([(a, b, a + b) for a, b in ((0, 0), (1, 0), (0, 1), (2, 1), (1, 3), (-2, 2), (3, -1), (-1, -3), (4, 4))], 2),
], ids=["collinear", "coplanar"])
def test_elimination_skips_the_rest_of_a_degree_once_the_hull_is_full(points, hull, monkeypatch):
    """Once the pivots through degree k number C(k + r, r), r the support's hull dimension, every
    remaining column of degree k is zero on the remaining rows: the elimination reads none of them,
    the table builds only the columns read, and the result is what the elimination that reads every
    column (hull dimension taken as d) returns."""
    reads = []
    getitem = MomentTable.__getitem__
    monkeypatch.setattr(MomentTable, "__getitem__",
                        lambda table, alpha: (reads.append(alpha), getitem(table, alpha))[1])
    skipped = build_graded_basis(evaluations(points))
    skipped_reads = reads[:]
    reads.clear()
    with monkeypatch.context() as patch:
        patch.setattr("radpoly.graded._support_hull", lambda support, low_pivots, d: None)
        unskipped = build_graded_basis(evaluations(points))
    assert (skipped.kappas, skipped.pivots, skipped.integer_transform) == (
        unskipped.kappas, unskipped.pivots, unskipped.integer_transform)

    def full(k):  # C(k + r, r) pivots through degree k fill Pi_k on the hull; r is known from degree 2 on, d before
        r = hull if k > 1 else len(points[0])
        return math.comb(k + r, r)

    pivots = set(unskipped.pivots)  # read alpha when fewer than full(|alpha|) columns before it gave a pivot
    expected = [alpha for i, alpha in enumerate(reads) if sum(beta in pivots for beta in reads[:i]) < full(sum(alpha))]
    assert skipped_reads == expected != reads
    assert list(skipped.moments) == skipped_reads  # each column read once, and no other column built


def test_spans_with_a_full_hull_or_a_cap_do_not_compute_the_hull(monkeypatch):
    """More than d pivots through degree 1 mean the hull is R^d, and a capped span has no support
    to take it from: neither pays for the hull of its points, and neither keeps one (None, as
    for a single point)."""
    monkeypatch.setattr("radpoly.graded._hull", mock.Mock(side_effect=AssertionError("hull computed")))
    generic = build_graded_basis(evaluations([(0, 0), (1, 0), (0, 1), (1, 1), (2, 3), (3, 1)]))
    assert generic.kappas[-1] == 2 and generic.hull is None
    hermite = [from_derivative(alpha, (0, 0), 6) for alpha in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1))]
    capped = build_graded_basis(hermite + [point_evaluation((1, 2))], degree_cap=3)
    assert capped.kappas[-1] == 2 and capped.hull is None
    assert build_graded_basis(hermite, degree_cap=3).hull is None
    assert build_graded_basis(evaluations([(1, 2, 3)])).hull is None


def test_only_a_hull_smaller_than_r_d_is_kept(monkeypatch):
    """Point differences with no more than d orders <= 1 get their hull computed; it spans R^2
    here, so the graded basis keeps None.  A line keeps its one direction and its weight."""
    calls, hull = [], graded_module._hull
    monkeypatch.setattr(graded_module, "_hull", lambda points: calls.append(points) or hull(points))
    differences = [PointFunctional([(0, 0), p], [1, -1]) for p in ((1, 0), (0, 1))]
    assert build_graded_basis(differences).hull is None and len(calls) == 1
    line = build_graded_basis(evaluations([(0, 1), (1, 3), (2, 5)]))
    assert line.hull == (((1, 2),), (5,)) and len(calls) == 2


def complete_homogeneous(k, xs):
    """h_k(xs), the sum of every monomial of degree k in xs (0 for k < 0), by
    h_j(x_1..x_m) = h_j(x_1..x_{m-1}) + x_m h_{j-1}(x_1..x_m)."""
    if k < 0:
        return 0
    h = [Fraction(1)] + [Fraction(0)] * k
    for x in xs:
        for j in range(1, k + 1):
            h[j] += x * h[j - 1]
    return h[k]


LINE_SITES = st.fractions(min_value=-6, max_value=6, max_denominator=3)


@given(st.lists(LINE_SITES, min_size=1, max_size=7, unique=True))
@settings(deadline=None, max_examples=60)
def test_d1_transform_and_rows_of_l_have_closed_forms(xs):
    """At d=1, with distinct points and no row swap, row i of T is the divided-difference
    weights on x_1..x_{i+1} in input order, T[i][j] = 1 / prod_{l <= i, l != j} (x_j - x_l),
    and lambda_i(x^m) is the complete homogeneous sum h_{m-i}(x_1..x_{i+1}) up to 2 kappa_i."""
    n = len(xs)
    graded = build_graded_basis(evaluations([(x,) for x in xs]))
    assert graded.kappas == tuple(range(n))
    assert graded.transform == tuple(
        tuple(1 / Fraction(math.prod(xs[j] - xs[l] for l in range(i + 1) if l != j)) if j <= i else 0
              for j in range(n))
        for i in range(n))
    for i, row in enumerate(graded.rows):
        for m in range(2 * i + 1):
            assert Fraction(row[(m,)], row.denominator) == complete_homogeneous(m - i, xs[:i + 1])


@given(spans(kinds=("points", "weighted", "derivatives", "collinear")), st.data())
@settings(deadline=None, max_examples=60)
def test_moment_table_values_match_each_functional(case, data):
    """V f, integer numerators over one positive denominator, is mu_i(f) for every span
    functional: f zero, or with terms of mixed degrees up to the table's cap; past the
    cap it raises."""
    span, _, _ = case
    d, table = span[0].dimension, MomentTable(span)
    top = 3 if table.cap is None else min(3, table.cap)
    alpha = st.tuples(*[st.integers(0, top)] * d).filter(lambda a: sum(a) <= top)
    f = Polynomial(d, data.draw(st.lists(st.tuples(alpha, RATIONALS), max_size=5)))
    for p in (f, Polynomial.zero(d)):
        numerators, denominator = table.values(p)
        assert all(type(v) is int for v in numerators) and type(denominator) is int and denominator > 0
        assert [Fraction(v, denominator) for v in numerators] == [mu(p) for mu in span]
    assert table.values(Polynomial.zero(d)) == ([0] * len(span), 1)
    if table.cap is not None:
        with pytest.raises(DegreeCapError):
            table.values(Polynomial.monomial(d, (table.cap + 1,) + (0,) * (d - 1)))


@st.composite
def mixed_spans(draw):
    """(span, each member's moment oracle, cap): derivatives at rational sites, whose orders are
    nonzero where gamma may be zero, a weighted combination of several atoms, point evaluations at
    points of unlike denominators and stored moments, in drawn order."""
    cap, members, _, atoms = draw(_atom_combinations())
    d = members[0].dimension
    coordinate = st.fractions(min_value=-3, max_value=3, max_denominator=7)
    for x in draw(st.lists(st.tuples(*[coordinate] * d), max_size=3)):
        members.append(point_evaluation(x))
        atoms.append([(1, (0,) * d, x)])
    oracles = [lambda gamma, part=part: _oracle_moment(part, gamma) for part in atoms]
    exponent = st.tuples(*[st.integers(0, cap)] * d).filter(lambda a: sum(a) <= cap)
    for _ in range(draw(st.integers(0, 2))):
        moments = draw(st.dictionaries(exponent, RATIONALS, max_size=4))
        members.append(MomentFunctional(d, cap, moments))
        oracles.append(lambda gamma, moments=moments: Fraction(moments.get(gamma, 0)))
    shuffled = draw(st.permutations(range(len(members))))
    return [members[i] for i in shuffled], [oracles[i] for i in shuffled], cap


@given(mixed_spans(), st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=80)
def test_moment_table_columns_match_a_fraction_oracle(case, rng):
    """table[alpha][i] / scale(|alpha|) is mu_i(x^alpha) through the cap, for every member of a
    span mixing one-atom, several-atom and zero point combinations with stored moments, read in
    any order: each coordinate's power table grows step by step as far as it is read."""
    span, oracles, cap = case
    table = MomentTable(span)
    monomials = monomial_sequence(span[0].dimension, cap)
    for alpha in rng.sample(monomials, len(monomials)):
        column, scale = table[alpha], table.scale(sum(alpha))
        assert type(scale) is int and scale > 0 and all(type(v) is int for v in column)
        assert [Fraction(v, scale) for v in column] == [oracle(alpha) for oracle in oracles]
    assert sorted(table) == sorted(monomials)


def test_two_points_in_dimension_200_through_degree_2():
    """Each of the 20301 columns of two rational points in d=200 is x^alpha at both."""
    rng = random.Random(5)
    points = [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(200)) for _ in range(2)]
    table = MomentTable(evaluations(points))
    monomials = monomial_sequence(200, 2)
    assert len(monomials) == math.comb(202, 2)
    for alpha in monomials:
        support = [(j, e) for j, e in enumerate(alpha) if e]
        expected = [math.prod((x[j] ** e for j, e in support), start=Fraction(1)) for x in points]
        assert [Fraction(v, table.scale(sum(alpha))) for v in table[alpha]] == expected


def test_moment_table_values_builds_only_the_degrees_of_f():
    """V f of one term of degree 40 builds that term's column and no other."""
    span = evaluations([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, 0, 1)])
    table = MomentTable(span)
    f = Polynomial.monomial(3, (40, 0, 0))
    numerators, denominator = table.values(f)
    assert [Fraction(v, denominator) for v in numerators] == [mu(f) for mu in span]
    assert list(table) == [(40, 0, 0)]
