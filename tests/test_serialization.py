"""JSON round trips and input validation."""

from fractions import Fraction

import pytest

from radpoly import (
    MomentFunctional,
    PointFunctional,
    Polynomial,
    build_graded_basis,
    from_derivative,
    point_evaluation,
    schaback_interpolate,
)
from radpoly.serialization import (
    dumps,
    format_rational,
    functional_from_obj,
    functional_to_obj,
    graded_basis_to_obj,
    parse_rational,
    polynomial_from_obj,
    polynomial_to_obj,
    problem_from_obj,
    report_to_obj,
)


class TestRationals:
    def test_integers_stay_integers(self):
        assert format_rational(Fraction(-7)) == -7
        assert parse_rational(-7) == Fraction(-7)

    def test_fractions_become_strings(self):
        assert format_rational(Fraction(1, 3)) == "1/3"
        assert parse_rational("1/3") == Fraction(1, 3)
        assert parse_rational("-10") == Fraction(-10)

    def test_floats_and_bools_rejected(self):
        with pytest.raises(ValueError):
            parse_rational(0.5)
        with pytest.raises(ValueError):
            parse_rational(True)
        with pytest.raises(ValueError):
            parse_rational("0.5")


class TestPolynomialRoundTrip:
    def test_round_trip(self):
        p = Polynomial(2, {(2, 0): Fraction(1, 2), (0, 0): -3, (1, 1): 4})
        assert polynomial_from_obj(polynomial_to_obj(p)) == p

    def test_terms_emitted_in_graded_order(self):
        p = Polynomial(2, {(0, 2): 1, (0, 0): 1, (1, 1): 1})
        alphas = [tuple(t["alpha"]) for t in polynomial_to_obj(p)["terms"]]
        assert alphas == [(0, 0), (1, 1), (0, 2)]

    def test_bad_documents_rejected(self):
        with pytest.raises(ValueError):
            polynomial_from_obj({"terms": []})
        with pytest.raises(ValueError):
            polynomial_from_obj({"dimension": 0, "terms": []})


class TestFunctionalRoundTrip:
    def test_point_functional(self):
        lam = PointFunctional([(0, 1), (2, -3)], [Fraction(1, 2), -2])
        assert functional_from_obj(functional_to_obj(lam)) == lam

    def test_zero_point_combination_carries_its_dimension(self):
        lam = PointFunctional([(0, 0), (1, 0)], [0, 0])
        obj = functional_to_obj(lam)
        assert obj == {"type": "points", "points": [], "weights": [], "d": 2}
        assert functional_from_obj(obj) == lam
        assert "d" not in functional_to_obj(point_evaluation((1, 2)))

    @pytest.mark.parametrize("d", [True, "2", 3, 0])
    def test_bad_point_dimension_rejected(self, d):
        with pytest.raises(ValueError):
            functional_from_obj({"type": "points", "points": [[0, 1]], "weights": [1], "d": d})
        if d != 3:
            with pytest.raises(ValueError):
                functional_from_obj({"type": "points", "points": [], "weights": [], "d": d})

    def test_moment_functional(self):
        lam = MomentFunctional(2, 3, {(1, 1): Fraction(2, 5), (0, 0): 1})
        assert functional_from_obj(functional_to_obj(lam)) == lam

    def test_derivative_form_parses_to_moments(self):
        obj = {"type": "derivative", "alpha": [1, 0], "at": [1, 1], "cap": 2}
        assert functional_from_obj(obj) == from_derivative((1, 0), (1, 1), 2)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            functional_from_obj({"type": "mystery"})


class TestProblemFiles:
    def test_points_problem(self):
        problem = problem_from_obj(
            {"dimension": 1, "points": [[0], [1]], "values": [0, "1/2"]}
        )
        assert problem.functionals == (point_evaluation((0,)), point_evaluation((1,)))
        assert problem.values == (0, Fraction(1, 2))

    def test_functional_problem_with_target(self):
        problem = problem_from_obj(
            {
                "dimension": 1,
                "functionals": [
                    {"type": "points", "points": [[0]], "weights": [1]},
                    {"type": "derivative", "alpha": [1], "at": [0], "cap": 4},
                ],
                "target": {"dimension": 1, "terms": [{"alpha": [2], "coeff": 1}]},
            }
        )
        assert len(problem.functionals) == 2
        assert problem.target == Polynomial.monomial(1, (2,))

    def test_values_length_checked(self):
        with pytest.raises(ValueError):
            problem_from_obj({"dimension": 1, "points": [[0], [1]], "values": [1]})

    def test_values_and_target_mutually_exclusive(self):
        with pytest.raises(ValueError):
            problem_from_obj(
                {
                    "dimension": 1,
                    "points": [[0]],
                    "values": [1],
                    "target": {"dimension": 1, "terms": []},
                }
            )

    def test_dimension_consistency_enforced(self):
        with pytest.raises(ValueError):
            problem_from_obj({"dimension": 2, "points": [[0], [1]]})


class TestResultObjects:
    def test_graded_basis_serialization_carries_everything(self):
        graded = build_graded_basis([point_evaluation((0,)), point_evaluation((1,))])
        obj = graded_basis_to_obj(graded)
        assert obj["kappas"] == [0, 1]
        assert obj["pivots"] == [[0], [1]]
        assert obj["transform"] == [[1, 0], [-1, 1]]
        assert [f["type"] for f in obj["span"]] == ["points", "points"]

    def test_report_serialization(self):
        graded = build_graded_basis([point_evaluation((0,)), point_evaluation((1,))])
        report = schaback_interpolate(graded, data=[0, 1])
        obj = report_to_obj(report)
        assert obj["method"] == "schaback"
        assert obj["residuals"] == [0, 0]
        assert obj["interpolant"]["terms"] == [{"alpha": [1], "coeff": 1}]

    def test_dumps_is_stable(self):
        p = Polynomial(1, {(0,): Fraction(1, 2)})
        assert dumps(polynomial_to_obj(p)) == dumps(polynomial_to_obj(p))
        assert dumps(polynomial_to_obj(p)).endswith("\n")
