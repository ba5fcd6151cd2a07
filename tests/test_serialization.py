"""JSON round trips, input validation and the output writer."""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

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


# Trees of what radpoly writes: str-keyed dicts, lists, tuples, big ints, "p/q" strings, any text
# (non-ASCII, quotes, control characters), None, bools and empty containers; lists of ints with
# bools among them probe the one-join path for plain ints.
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**60, max_value=10**60),
    st.builds("{}/{}".format, st.integers(-10**30, 10**30), st.integers(2, 10**30)),
    st.text(max_size=12),
    st.lists(st.integers(min_value=-10**60, max_value=10**60) | st.booleans(), max_size=6),
)
_TREES = st.recursive(_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=5),
    st.lists(children, max_size=5).map(tuple),
    st.dictionaries(st.text(max_size=8), children, max_size=5),
), max_leaves=40)


class TestWriter:
    """``dumps`` writes the bytes of ``json.dumps(obj, indent=2)`` and a newline."""

    @settings(deadline=None, max_examples=400)
    @given(_TREES)
    def test_bytes_equal_indented_json_dumps(self, obj):
        assert dumps(obj) == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize("path", sorted((Path(__file__).parent / "golden").iterdir()),
                             ids=lambda path: path.name)
    def test_golden_files_are_fixed_points(self, path):
        """Every output golden is rewritten byte for byte; the hand-written problem files, which
        are not indented that way, as ``json.dumps`` would write them."""
        text = path.read_text(encoding="utf-8")
        obj = json.loads(text)
        assert dumps(obj) == json.dumps(obj, indent=2) + "\n"
        if not path.name.endswith(".problem.json"):
            assert dumps(obj) == text

    def test_an_int_past_the_digit_limit_raises_as_in_json(self):
        """While the interpreter's limit on int-to-str conversion holds, an int of more than 4300
        digits raises ``ValueError`` wherever it sits; ``cli._emit`` lifts the limit to write it."""
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for big in (10**4300, -(10**4300)):
                for obj in (big, [big], [1, big], [big, "1/2"], {"value": big}):
                    with pytest.raises(ValueError):
                        json.dumps(obj, indent=2)
                    with pytest.raises(ValueError):
                        dumps(obj)
            assert dumps([10**4299]) == "[\n  1" + "0" * 4299 + "\n]\n"
        finally:
            sys.set_int_max_str_digits(previous)

    @pytest.mark.parametrize("obj", [0.5, [1, 2.0], {"x": {1, 2}}, {1: 2}, object()],
                             ids=["float", "float_in_list", "set", "int_key", "object"])
    def test_other_types_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            dumps(obj)
