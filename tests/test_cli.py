"""Golden-file tests for the command-line tool, plus the exit-status contract."""

import contextlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from radpoly import cli
from radpoly.cli import main

GOLDEN = Path(__file__).parent / "golden"


def run(tmp_path, *argv):
    tmp_path.mkdir(parents=True, exist_ok=True)
    out = tmp_path / "out.json"
    code = main([*argv, "--output", str(out)])
    return code, out.read_bytes() if out.exists() else b""


class TestGoldenFiles:
    CASES = [
        (("basis", "--input", str(GOLDEN / "collinear1d.problem.json")),
         "basis_collinear1d.json"),
        (("interp", "--input", str(GOLDEN / "grid.problem.json"), "--method", "both"),
         "interp_grid_both.json"),
        (("interp", "--input", str(GOLDEN / "skew.problem.json"), "--method", "both"),
         "interp_skew_both.json"),
        (("expand", "--k", "2", "--d", "1"), "expand_k2_d1.json"),
        (("compare", "--input", str(GOLDEN / "grid.problem.json")), "compare_grid.json"),
        (("compare", "--input", str(GOLDEN / "skew.problem.json")), "compare_skew.json"),
        (("basis", "--input", str(GOLDEN / "hermite.problem.json")), "basis_hermite.json"),
        (("interp", "--input", str(GOLDEN / "hermite.problem.json"), "--method", "both"),
         "interp_hermite_both.json"),
        (("interp", "--input", str(GOLDEN / "collinear2d.problem.json"), "--method", "both"),
         "interp_collinear_both.json"),
        (("interp", "--input", str(GOLDEN / "coplanar3d.problem.json"), "--method", "both"),
         "interp_coplanar_both.json"),
        # compare is the one command that reads the radial images w_j in x
        (("compare", "--input", str(GOLDEN / "collinear2d.problem.json")), "compare_collinear.json"),
        (("compare", "--input", str(GOLDEN / "coplanar3d.problem.json")), "compare_coplanar.json"),
        (("interp", "--input", str(GOLDEN / "collinear3d.problem.json"), "--method", "both"),
         "interp_collinear3d_both.json"),
    ]

    @pytest.mark.parametrize("argv,expected", CASES)
    def test_output_matches_golden(self, tmp_path, argv, expected):
        code, body = run(tmp_path, *argv)
        assert code == 0
        assert body == (GOLDEN / expected).read_bytes()

    @pytest.mark.parametrize("argv,expected", CASES)
    def test_reruns_are_byte_identical(self, tmp_path, argv, expected):
        _, first = run(tmp_path / "a", *argv)
        _, second = run(tmp_path / "b", *argv)
        assert first == second


class TestExitStatusContract:
    def test_success_is_zero(self, tmp_path):
        code, _ = run(tmp_path, "basis", "--input", str(GOLDEN / "grid.problem.json"))
        assert code == 0

    def test_parse_error_is_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["basis", "--input", str(bad)]) == 1

    def test_usage_error_is_one(self):
        assert main(["basis"]) == 1
        assert main(["expand", "--k", "9", "--d", "1"]) == 1

    def test_usage_error_is_one_line_on_every_call(self, capsys):
        for _ in range(2):
            assert main(["verify", "--trials", "x"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("radpoly: ") and err.count("\n") == 1
        assert main(["expand", "--k", "1", "--d", "1"]) == 0
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize("argv, expected", [
        (["--help"], ["basis", "interp", "eval", "expand", "verify", "compare", "Exit status"]),
        (["verify", "--help"], ["--suite", "--seed", "--trials", "--corrupt", "--output"]),
        (["interp", "--help"], ["--input", "--method", "--output"]),
    ])
    def test_help_exits_zero(self, capsys, argv, expected):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert all(word in out for word in expected)

    def test_rank_deficiency_is_two(self, tmp_path):
        dup = tmp_path / "dup.json"
        dup.write_text(json.dumps({"dimension": 2, "points": [[0, 0], [0, 0], [1, 1]]}))
        assert main(["basis", "--input", str(dup)]) == 2

    def test_high_dimensional_problem_is_zero(self, tmp_path):
        """Two points in dimension 1200: the monomial enumeration must not recurse d levels."""
        d = 1200
        problem = tmp_path / "wide.json"
        problem.write_text(json.dumps({"dimension": d, "points": [[0] * d, [1] + [0] * (d - 1)],
                                       "values": [1, 2]}))
        code, body = run(tmp_path, "interp", "--input", str(problem), "--method", "both")
        assert code == 0
        expected = [{"alpha": [0] * d, "coeff": 1}, {"alpha": [1] + [0] * (d - 1), "coeff": 1}]
        for method in ("schaback", "least"):
            assert json.loads(body)[method]["interpolant"]["terms"] == expected

    def test_cap_exceeded_is_two(self, tmp_path):
        problem = tmp_path / "moments.json"
        problem.write_text(json.dumps({
            "dimension": 1,
            "functionals": [
                {"type": "moments", "d": 1, "cap": 1, "moments": [{"alpha": [0], "value": 1}]},
                {"type": "moments", "d": 1, "cap": 1, "moments": [{"alpha": [1], "value": 1}]},
            ],
            "degree_cap": 4,
        }))
        assert main(["basis", "--input", str(problem)]) == 2

    def test_verification_failures_are_three(self, tmp_path):
        code, body = run(
            tmp_path, "verify", "--suite", "micchelli", "--seed", "1", "--trials", "2",
            "--corrupt",
        )
        assert code == 3
        assert json.loads(body)["failures"]

    def test_clean_verify_is_zero_and_deterministic(self, tmp_path):
        code_a, body_a = run(tmp_path / "a", "verify", "--suite", "projector",
                             "--seed", "4", "--trials", "2")
        code_b, body_b = run(tmp_path / "b", "verify", "--suite", "projector",
                             "--seed", "4", "--trials", "2")
        assert code_a == code_b == 0
        one, two = json.loads(body_a), json.loads(body_b)
        one.pop("wall_time_ms")
        two.pop("wall_time_ms")
        assert one == two


class TestMalformedProblems:
    POINTS = [[0, 0], [1, 0], [0, 1]]
    DOCUMENTS = {
        "points_functional_without_points": {
            "dimension": 2, "functionals": [{"type": "points"}], "values": [1]},
        "values_not_a_list": {"dimension": 2, "points": POINTS, "values": 5},
        "points_not_a_list": {"dimension": 2, "points": 5, "values": [1]},
        "target_term_without_alpha": {
            "dimension": 2, "points": POINTS,
            "target": {"dimension": 2, "terms": [{"coeff": 1}]}},
        "moment_without_value": {
            "dimension": 1, "degree_cap": 0, "values": [1],
            "functionals": [{"type": "moments", "d": 1, "cap": 2, "moments": [{"alpha": [0]}]}]},
        "degree_cap_true": {
            "dimension": 2, "points": POINTS, "values": [1, 2, 3], "degree_cap": True},
        "dimension_true": {"dimension": True, "points": [[0], [1]], "values": [1, 2]},
        "moments_d_true": {
            "dimension": 1, "degree_cap": 0, "values": [1],
            "functionals": [{"type": "moments", "d": True, "cap": 2,
                             "moments": [{"alpha": [0], "value": 1}]}]},
        "derivative_cap_true": {
            "dimension": 1, "degree_cap": 0, "values": [1],
            "functionals": [{"type": "derivative", "alpha": [0], "at": [0], "cap": True}]},
        "not_an_object": [POINTS, [1, 2, 3]],
        "points_and_functionals": {
            "dimension": 2, "points": POINTS, "values": [1, 2, 3],
            "functionals": [{"type": "points", "points": POINTS, "weights": [1, 2, 3]}]},
        "neither_points_nor_functionals": {"dimension": 2, "values": [1, 2, 3]},
        "no_functionals": {"dimension": 2, "functionals": [], "values": []},
        "functional_of_another_dimension": {
            "dimension": 2, "values": [1],
            "functionals": [{"type": "points", "points": [[0, 0, 0]], "weights": [1]}]},
        "target_of_another_dimension": {
            "dimension": 2, "points": POINTS,
            "target": {"dimension": 1, "terms": [{"alpha": [1], "coeff": 1}]}},
        "zero_denominator": {"dimension": 2, "points": POINTS, "values": [1, "1/0", 3]},
        "alpha_of_strings": {
            "dimension": 2, "points": POINTS,
            "target": {"dimension": 2, "terms": [{"alpha": ["1", "0"], "coeff": 1}]}},
        # shape errors inside the file are parse errors too, wherever they sit
        "target_alpha_of_another_length": {
            "dimension": 2, "points": POINTS,
            "target": {"dimension": 2, "terms": [{"alpha": [1, 0, 0], "coeff": 1}]}},
        "moment_past_its_cap": {
            "dimension": 1, "degree_cap": 0, "values": [1],
            "functionals": [{"type": "moments", "d": 1, "cap": 1,
                             "moments": [{"alpha": [2], "value": 1}]}]},
        "moment_alpha_of_another_length": {
            "dimension": 1, "degree_cap": 0, "values": [1],
            "functionals": [{"type": "moments", "d": 1, "cap": 2,
                             "moments": [{"alpha": [0, 1], "value": 1}]}]},
        "derivative_alpha_of_another_length": {
            "dimension": 2, "degree_cap": 0, "values": [1],
            "functionals": [{"type": "derivative", "alpha": [1], "at": [0, 0], "cap": 2}]},
        "points_of_mixed_dimension": {
            "dimension": 2, "values": [1],
            "functionals": [{"type": "points", "points": [[0, 0], [1, 0, 0]], "weights": [1, 1]}]},
        "two_points_and_one_weight": {
            "dimension": 2, "values": [1],
            "functionals": [{"type": "points", "points": [[0, 0], [1, 0]], "weights": [1]}]},
        "empty_point": {"dimension": 2, "points": [[]], "values": [1]},
        "moments_d_zero": {
            "dimension": 1, "degree_cap": 0, "values": [1],
            "functionals": [{"type": "moments", "d": 0, "cap": 2, "moments": []}]},
        "moments_cap_negative": {
            "dimension": 1, "degree_cap": 0, "values": [1],
            "functionals": [{"type": "moments", "d": 1, "cap": -1, "moments": []}]},
    }

    @pytest.mark.parametrize("name", DOCUMENTS)
    def test_exit_one_with_one_line(self, tmp_path, capsys, name):
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps(self.DOCUMENTS[name]))
        assert main(["interp", "--input", str(problem), "--method", "both",
                     "--output", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("radpoly: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--trials", "0"],
    ["compare", "--input", str(GOLDEN / "grid.problem.json"), "--probe-degree", "-1"],
    ["expand", "--k", "-1", "--d", "1"],
    ["eval", "--input", str(GOLDEN / "interp_grid_both.json"), "--method", "least", "--at", "1,,2"],
    ["basis", "--input", str(GOLDEN / "no-such-problem.json")],
], ids=["no-trials", "negative-probe-degree", "negative-k", "empty-coordinate", "unreadable-input"])
def test_guards_exit_one_with_one_line(tmp_path, capsys, argv):
    assert main([*argv, "--output", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("radpoly: ") and err.count("\n") == 1
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("argv", [
    ["interp", "--input", str(GOLDEN / "grid.problem.json"), "--method", "both"],
    ["basis", "--input", str(GOLDEN / "grid.problem.json")],
    ["verify", "--suite", "micchelli", "--trials", "1"],
], ids=["interp", "basis", "verify"])
def test_unwritable_output_exits_one_with_one_line(tmp_path, capsys, argv):
    """An --output in a missing directory fails after all the work: one line, no traceback."""
    output = tmp_path / "missing" / "out.json"
    assert main([*argv, "--output", str(output)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"radpoly: cannot write {output}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["interp"], ["eval", "--at", "0"]], ids=["interp", "eval"])
def test_deeply_nested_input_exits_one_with_one_line(tmp_path, capsys, argv):
    """A document nested past the decoder's recursion limit is not valid JSON."""
    document = tmp_path / "deep.json"
    document.write_text("[" * 100000 + "]" * 100000)
    code = main([*argv, "--input", str(document), "--output", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert code == 1 and "is not valid JSON" in err
    assert_one_line_exit(code, err)


class TestMalformedReports:
    DOCUMENTS = {
        "side_not_an_object": ({"schaback": 5, "least": {}}, "schaback"),
        "side_without_interpolant": ({"schaback": {}, "least": {}}, "least"),
    }

    @pytest.mark.parametrize("name", DOCUMENTS)
    def test_eval_exits_one_with_one_line(self, tmp_path, capsys, name):
        document, method = self.DOCUMENTS[name]
        report = tmp_path / "report.json"
        report.write_text(json.dumps(document))
        assert main(["eval", "--input", str(report), "--at", "0", "--method", method,
                     "--output", str(tmp_path / "out.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("radpoly: ") and err.count("\n") == 1


@st.composite
def problem_documents(draw):
    """Problem files with the edge cases mixed in, one in five also holding junk.

    Mixed point and moment spans, moment caps that may lie below 2 kappa,
    zero weights and duplicate points; junk is a wrong type or a bad value
    where a rational, a dimension, a point or a functional belongs.
    """
    broken = draw(st.integers(0, 4)) == 0
    junk = ["x", 1.5, True, None] if broken else []
    scalar = st.sampled_from([0, 1, -1, 2, 3, "1/2", "-2/3"] + junk)
    d = draw(st.sampled_from([1, 2] + ([0, True, "2"] if broken else [])))
    size = d if d in (1, 2) and d is not True else 1
    point = st.lists(st.sampled_from([0, 1, -1, 2, "1/2", "-2/3"]), min_size=size, max_size=size)
    if broken:
        point = point | st.lists(scalar, max_size=3)
    exponent = st.lists(st.integers(0, 2), min_size=size, max_size=size)

    def functional():
        kind = draw(st.sampled_from(["points", "moments", "derivative"] + junk))
        if kind == "points":
            points = draw(st.lists(point, min_size=1, max_size=3))
            weights = [draw(st.sampled_from([0, 1, -2, "1/3"])) for _ in points]
            return {"type": "points", "points": points, "weights": weights}
        if kind == "moments":
            return {"type": "moments", "d": d, "cap": draw(st.integers(0, 4)),
                    "moments": [{"alpha": draw(exponent), "value": draw(scalar)}
                                for _ in range(draw(st.integers(0, 4)))]}
        if kind == "derivative":
            return {"type": "derivative", "alpha": draw(exponent), "at": draw(point),
                    "cap": draw(st.integers(0, 6))}
        return kind

    doc = {"dimension": d}
    if draw(st.booleans()):
        doc["points"] = draw(st.lists(point, min_size=1, max_size=5))
        if draw(st.booleans()):
            doc["points"].append(doc["points"][0])
        n = len(doc["points"])
    else:
        doc["functionals"] = [functional() for _ in range(draw(st.integers(1, 4)))]
        n = len(doc["functionals"])
    data = draw(st.sampled_from(["values", "values", "target", "none"]))
    if data == "values":
        doc["values"] = [draw(scalar) for _ in range(n if not broken else draw(st.integers(0, 3)))]
    elif data == "target":
        doc["target"] = {"dimension": d, "terms": [{"alpha": draw(exponent), "coeff": draw(scalar)}]}
    if draw(st.integers(0, 3)):
        doc["degree_cap"] = draw(st.sampled_from([0, 1, 2, 3, 4] + ([-1] + junk if broken else [])))
    return doc


@given(problem_documents(), st.sampled_from([
    ["interp", "--method", "both"], ["interp", "--method", "least"], ["basis"], ["compare"],
]))
@settings(deadline=None, max_examples=150)
def test_any_document_ends_in_a_documented_exit_status(document, command):
    with tempfile.TemporaryDirectory() as directory, contextlib.redirect_stderr(io.StringIO()) as err:
        problem = Path(directory) / "problem.json"
        problem.write_text(json.dumps(document))
        code = main([*command, "--input", str(problem), "--output", str(Path(directory) / "out.json")])
    assert_one_line_exit(code, err.getvalue())


def assert_one_line_exit(code, err):
    """A documented exit status: 0 with nothing on stderr, or else one ``radpoly: `` line."""
    assert code in (0, 1, 2, 3)
    if code:
        assert err.startswith("radpoly: ") and err.count("\n") == 1
    else:
        assert err == ""


@st.composite
def eval_documents(draw):
    """Polynomial files, single and both-method reports, and junk where any of them belongs."""
    d = draw(st.integers(1, 2))
    coeff = st.sampled_from([0, 1, -3, "1/2", "-2/3"])
    polynomial = st.builds(lambda terms: {"dimension": d, "terms": terms}, st.lists(st.builds(
        lambda alpha, c: {"alpha": alpha, "coeff": c},
        st.lists(st.integers(0, 3), min_size=d, max_size=d), coeff), max_size=3))
    junk = st.sampled_from([5, "x", None, [], {}, {"dimension": 0, "terms": []},
                            {"dimension": d, "terms": [{"alpha": [1] * (d + 1), "coeff": 1}]},
                            {"dimension": d, "terms": [{"alpha": [-1] * d, "coeff": 1}]},
                            {"dimension": d, "terms": [{"alpha": [0] * d, "coeff": 1.5}]},
                            {"interpolant": 5}])
    side = polynomial.map(lambda p: {"interpolant": p}) | junk
    return draw(st.one_of(polynomial, side, st.builds(lambda a, b: {"schaback": a, "least": b}, side, side),
                          junk))


@given(eval_documents(),
       st.lists(st.lists(st.sampled_from(["0", "2", "-1", "3/4", "", "1/0", "1.5", "x", "1/-2"]),
                         min_size=1, max_size=3).map(",".join), min_size=1, max_size=2),
       st.sampled_from([None, "schaback", "least"]), st.sampled_from([None, -1, 0, 3, 1001]))
@settings(deadline=None, max_examples=150)
def test_any_eval_ends_in_a_documented_exit_status(document, at, method, precision):
    argv = ["eval", *(f"--at={text}" for text in at)]
    argv += [f"--method={method}"] * (method is not None)
    argv += [f"--precision={precision}"] * (precision is not None)
    with tempfile.TemporaryDirectory() as directory, contextlib.redirect_stderr(io.StringIO()) as err:
        report = Path(directory) / "report.json"
        report.write_text(json.dumps(document))
        code = main([*argv, "--input", str(report), "--output", str(Path(directory) / "out.json")])
    assert_one_line_exit(code, err.getvalue())


class TestEval:
    def test_round_trip_reproduces_data(self, tmp_path):
        report = tmp_path / "report.json"
        assert main(["interp", "--input", str(GOLDEN / "grid.problem.json"),
                     "--method", "schaback", "--output", str(report)]) == 0
        code, body = run(tmp_path, "eval", "--input", str(report),
                         "--at", "0,0", "--at", "1,0", "--at", "0,1", "--at", "1,1")
        assert code == 0
        values = json.loads(body)["values"]
        problem = json.loads((GOLDEN / "grid.problem.json").read_text())
        assert values == problem["values"]

    def test_rational_points_and_decimals(self, tmp_path):
        poly_file = tmp_path / "poly.json"
        poly_file.write_text(json.dumps({
            "dimension": 2,
            "terms": [{"alpha": [1, 1], "coeff": 1}],
        }))
        code, body = run(tmp_path, "eval", "--input", str(poly_file),
                         "--at", "1/2,1/2", "--precision", "3")
        assert code == 0
        out = json.loads(body)
        assert out["values"] == ["1/4"]
        assert out["decimals"] == ["0.250"]

    def test_precision_guard_exits_one_before_evaluating(self, tmp_path, capsys):
        """A precision past the guard ends with one line and no output before the input is
        read, so a missing file is not reported; the guard's own bound still renders."""
        missing = str(tmp_path / "missing.json")
        for precision in (-1, cli.MAX_PRECISION + 1, 10**8):
            code, body = run(tmp_path, "eval", "--input", missing, "--at", "1/3,1/2",
                             "--precision", str(precision))
            err = capsys.readouterr().err
            assert (code, body) == (1, b"")
            assert err == f"radpoly: precision guard: 0 <= precision <= {cli.MAX_PRECISION}\n"
        poly_file = tmp_path / "poly.json"
        poly_file.write_text(json.dumps({"dimension": 2, "terms": [{"alpha": [1, 1], "coeff": 1}]}))
        code, body = run(tmp_path, "eval", "--input", str(poly_file), "--at", "1/3,1/2",
                         "--precision", str(cli.MAX_PRECISION))
        assert code == 0
        assert json.loads(body)["decimals"] == ["0.1" + "6" * (cli.MAX_PRECISION - 2) + "7"]  # 1/6

    def test_exact_values_past_the_digit_limit_are_written_but_not_read(self, tmp_path, capsys):
        """x^2 at 10^2200 is 10^4400, past Python's 4300-digit limit on int-to-str conversion:
        the output lifts the limit and puts it back, so input past it still exits 1."""
        limit = sys.get_int_max_str_digits()
        poly_file = tmp_path / "poly.json"
        poly_file.write_text(json.dumps({"dimension": 1, "terms": [{"alpha": [2], "coeff": 1}]}))
        code, body = run(tmp_path, "eval", "--input", str(poly_file), "--at", "1" + "0" * 2200)
        assert code == 0
        assert body.decode() == ('{\n  "points": [\n    [\n      1' + "0" * 2200 + '\n    ]\n  ],\n'
                                 '  "values": [\n    1' + "0" * 4400 + "\n  ]\n}\n")
        code, body = run(tmp_path, "eval", "--input", str(poly_file), "--at", "1" + "0" * 2200,
                         "--precision", "2")
        assert code == 0 and b'"1' + b"0" * 4400 + b'.00"' in body
        assert sys.get_int_max_str_digits() == limit
        problem = tmp_path / "problem.json"
        problem.write_text('{"dimension": 1, "points": [[0], [1]], "values": [1, ' + "9" * 5000 + "]}")
        capsys.readouterr()
        code, body = run(tmp_path / "input", "interp", "--input", str(problem))
        err = capsys.readouterr().err
        assert (code, body) == (1, b"")
        assert err.startswith("radpoly: ") and err.count("\n") == 1

    def test_basis_polynomial_value(self, tmp_path):
        poly_file = tmp_path / "poly.json"
        poly_file.write_text(json.dumps({
            "dimension": 1,
            "terms": [
                {"alpha": [0], "coeff": 7},
                {"alpha": [1], "coeff": -12},
                {"alpha": [2], "coeff": 6},
            ],
        }))
        code, body = run(tmp_path, "eval", "--input", str(poly_file), "--at", "1")
        assert code == 0
        assert json.loads(body)["values"] == [1]

    def test_both_report_needs_method(self, tmp_path):
        both = tmp_path / "both.json"
        assert main(["interp", "--input", str(GOLDEN / "grid.problem.json"),
                     "--method", "both", "--output", str(both)]) == 0
        assert main(["eval", "--input", str(both), "--at", "0,0"]) == 1
        code, body = run(tmp_path, "eval", "--input", str(both), "--at", "1,1",
                         "--method", "least")
        assert code == 0
        assert json.loads(body)["values"] == [1]

    def test_dimension_mismatch_is_two(self, tmp_path):
        poly_file = tmp_path / "poly.json"
        poly_file.write_text(json.dumps({
            "dimension": 2,
            "terms": [{"alpha": [1, 0], "coeff": 1}],
        }))
        assert main(["eval", "--input", str(poly_file), "--at", "1"]) == 2

    def test_exponent_of_another_length_in_the_file_is_one(self, tmp_path, capsys):
        """A shape error inside the polynomial file is a parse error; a query point that
        does not fit a well-formed polynomial stays a mathematical failure (above)."""
        poly_file = tmp_path / "poly.json"
        poly_file.write_text(json.dumps({
            "dimension": 2,
            "terms": [{"alpha": [1, 0, 0], "coeff": 1}],
        }))
        assert main(["eval", "--input", str(poly_file), "--at", "1,2"]) == 1
        assert capsys.readouterr().err == "radpoly: exponent (1, 0, 0) does not have length 2\n"


class TestSizeGuard:
    """A value that may pass ``cli.MAX_VALUE_BITS`` exits 1 with one line before any arithmetic.
    The estimate is the max over terms and points of bits(c) + sum_k alpha_k bits(x_k), with
    bits(p/q) = bit_length(|p|) + bit_length(q): 2 for 1, 3 for 2 and 3."""

    @staticmethod
    def _argv(tmp_path, command: str, exponent: int, coords) -> list[str]:
        """``eval`` of x1^exponent at the first of ``coords``, or ``interp --method both`` with
        target x1^exponent on all of them."""
        target = {"dimension": 2, "terms": [{"alpha": [exponent, 0], "coeff": 1}]}
        path = tmp_path / f"{command}{exponent}.json"
        if command == "eval":
            path.write_text(json.dumps(target))
            return ["eval", "--input", str(path), "--at", ",".join(map(str, coords[0]))]
        path.write_text(json.dumps({"dimension": 2, "points": coords, "target": target}))
        return ["interp", "--input", str(path), "--method", "both"]

    @pytest.mark.parametrize("command,exponent,coords,estimate", [
        ("eval", 99_999_999_999, [[2, 1]], 2 + 3 * 99_999_999_999),
        ("interp", 9_999_999, [[1, 2], [3, 4]], 2 + 3 * 9_999_999),
    ])
    def test_oversized_values_exit_one_with_one_line(self, tmp_path, capsys, command, exponent,
                                                     coords, estimate):
        """Both inputs ran until they were killed before the guard, with no output."""
        code, body = run(tmp_path, *self._argv(tmp_path, command, exponent, coords))
        assert (code, body) == (1, b"")
        assert capsys.readouterr().err == (f"radpoly: size guard: values may need up to {estimate} "
                                           f"bits, the limit is {cli.MAX_VALUE_BITS}\n")

    @pytest.mark.parametrize("command", ["eval", "interp"])
    def test_values_at_the_limit_are_computed(self, tmp_path, capsys, command):
        """x1^e at points with coordinates 0 and 1 is estimated at 2 + 2e bits, 2^20 for
        e = 2^19 - 1: it still runs, and the next exponent is refused."""
        coords = [[1, 1], [0, 0], [0, 1]]
        assert 2 + 2 * (2**19 - 1) == cli.MAX_VALUE_BITS
        code, body = run(tmp_path / "at", *self._argv(tmp_path, command, 2**19 - 1, coords))
        assert code == 0 and capsys.readouterr().err == ""
        out = json.loads(body)
        assert (out["values"] if command == "eval" else out["schaback"]["data"]) == (
            [1] if command == "eval" else [1, 0, 0])
        code, body = run(tmp_path / "past", *self._argv(tmp_path, command, 2**19, coords))
        assert (code, body) == (1, b"")
        err = capsys.readouterr().err
        assert err.startswith("radpoly: size guard: ") and err.count("\n") == 1

    @pytest.mark.parametrize("exponent,estimate", [(40_000, 800_020_000 * 7), (20_000, 200_010_000 * 7)])
    def test_oversized_power_tables_exit_one_with_one_line(self, tmp_path, capsys, exponent, estimate):
        """A target x1^e on (5, 5) and (3, 4) passes the value guard (2 + 4e bits), but the atom
        kernel's table of the powers of 5 and 3 up to e is estimated at e (e + 1) / 2 * (4 + 3)
        bits: x1^40000 peaked at 421 MB before this guard."""
        code, body = run(tmp_path, *self._argv(tmp_path, "interp", exponent, [[5, 5], [3, 4]]))
        assert (code, body) == (1, b"")
        assert capsys.readouterr().err == (f"radpoly: size guard: power tables may need up to "
                                           f"{estimate} bits, the limit is {cli.MAX_TABLE_BITS}\n")

    def test_a_degree_4000_target_on_six_points_is_computed(self, tmp_path, capsys):
        """x1^4000 - x2 x3^2999 on six points with coordinates 0, 1 and 2: only the 2 adds to
        the power tables' estimate (8002000 * 3 bits), so the target is measured as before."""
        points = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [2, 0, 1]]
        target = {"dimension": 3, "terms": [{"alpha": [4000, 0, 0], "coeff": 1},
                                            {"alpha": [0, 1, 2999], "coeff": -1}]}
        path = tmp_path / "sparse4000.json"
        path.write_text(json.dumps({"dimension": 3, "points": points, "target": target}))
        code, body = run(tmp_path, "interp", "--input", str(path), "--method", "both")
        assert code == 0 and capsys.readouterr().err == ""
        assert json.loads(body)["schaback"]["data"] == [x**4000 - y * z**2999 for x, y, z in points]

    @staticmethod
    def _value_and_derivative(tmp_path, cap):
        """A value and a first derivative at 5, every cap ``cap``: basis writes both members and
        both lambda_i as moment records up to the cap."""
        path = tmp_path / f"records{cap}.json"
        functionals = [{"type": "derivative", "alpha": [a], "at": [5], "cap": cap} for a in (0, 1)]
        path.write_text(json.dumps({"dimension": 1, "degree_cap": cap, "functionals": functionals}))
        return ["basis", "--input", str(path)]

    @pytest.mark.parametrize("cap,estimate", [(20_000, 32_001_840_012), (10**6, 100_000_112_000_012)])
    def test_oversized_basis_records_exit_one_with_one_line(self, tmp_path, capsys, cap, estimate):
        """Four sets of cap + 1 records, each estimated at cap (bits(5) + bits(1) + bits(cap)) bits
        plus the weights' 2 and, for the lambda_i, T's 2: at 20,000 basis ran until killed, at
        10^6 it ended in a MemoryError traceback."""
        code, body = run(tmp_path, *self._value_and_derivative(tmp_path, cap))
        assert (code, body) == (1, b"")
        assert capsys.readouterr().err == (f"radpoly: size guard: the moment records may need up to "
                                           f"{estimate} bits, the limit is {cli.MAX_TABLE_BITS}\n")

    def test_basis_records_within_the_limit_are_written(self, tmp_path, capsys):
        """At cap 2,000 the estimate is about 2.6 * 10^8 bits: all 4 x 2,000 nonzero moments are written."""
        code, body = run(tmp_path, *self._value_and_derivative(tmp_path, 2000))
        assert code == 0 and capsys.readouterr().err == ""
        out = json.loads(body)
        assert [len(f["moments"]) for f in out["span"] + out["lambdas"]] == [2001, 2000, 2001, 2000]
        assert out["lambdas"][1]["moments"][-1] == {"alpha": [2000], "value": 2000 * 5**1999}

    def test_a_moment_table_alone_is_counted_by_its_records(self, tmp_path, capsys):
        """{x^0: 1} in d=2 at cap 10^5 writes one record for its member and one for its lambda: the
        guard counts the stored monomials, where C(10^5 + 2, 2) records once refused 616 bytes."""
        path = tmp_path / "one.json"
        moments = [{"alpha": [0, 0], "value": 1}]
        path.write_text(json.dumps({"dimension": 2, "degree_cap": 10**5, "functionals": [
            {"type": "moments", "d": 2, "cap": 10**5, "moments": moments}]}))
        code, body = run(tmp_path, "basis", "--input", str(path))
        assert code == 0 and capsys.readouterr().err == ""
        out = json.loads(body)
        assert [f["moments"] for f in out["span"] + out["lambdas"]] == [moments, moments]


class TestDegreeCap:
    def test_explicit_cap_sets_the_elimination_cap(self, tmp_path):
        problem = tmp_path / "p.json"
        doc = {"dimension": 1, "points": [[0], [1], [2]]}
        problem.write_text(json.dumps({**doc, "degree_cap": 1}))
        assert main(["basis", "--input", str(problem)]) == 2  # the order-2 member is past it
        problem.write_text(json.dumps({**doc, "degree_cap": 4}))
        code, body = run(tmp_path, "basis", "--input", str(problem))
        assert code == 0
        assert json.loads(body)["degree_cap"] == 4

    def test_target_above_the_span_cap_is_two(self, tmp_path):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "dimension": 1,
            "degree_cap": 1,
            "functionals": [
                {"type": "derivative", "alpha": [0], "at": [0], "cap": 2},
                {"type": "derivative", "alpha": [1], "at": [0], "cap": 2},
            ],
            "target": {"dimension": 1, "terms": [{"alpha": [3], "coeff": 1}]},
        }))
        for method in ("schaback", "least", "both"):
            assert main(["interp", "--input", str(problem), "--method", method]) == 2

    def test_cap_past_a_derivatives_cap_is_two_with_one_line(self, tmp_path, capsys):
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({
            "dimension": 1,
            "degree_cap": 3,
            "functionals": [
                {"type": "derivative", "alpha": [0], "at": [0], "cap": 4},
                {"type": "derivative", "alpha": [1], "at": [0], "cap": 2},
            ],
            "values": [1, 2],
        }))
        capsys.readouterr()
        assert main(["interp", "--input", str(problem)]) == 2
        assert capsys.readouterr().err == (
            "radpoly: graded elimination needs moments up to degree 3, functional cap is 2\n")

    @pytest.mark.parametrize("argv", [("basis",), ("interp", "--method", "both")])
    def test_rank_deficient_derivative_span_stops_at_its_search_bound(self, tmp_path, capsys, argv):
        """Two equal derivatives D p(5) have order <= 1, so the elimination stops at degree 1 whatever
        the cap: searching to a cap of 30,000 took 1.6 s and about 560 MB, and the atom kernel's power
        tables grow with the square of the cap."""
        cap = 10**6
        atom = {"type": "derivative", "alpha": [1], "at": [5], "cap": cap}
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps({"dimension": 1, "degree_cap": cap, "functionals": [atom, atom],
                                       "values": [1, 2]}))
        capsys.readouterr()
        start = time.perf_counter()
        code, body = run(tmp_path, *argv, "--input", str(problem))
        assert time.perf_counter() - start < 10
        assert (code, body) == (2, b"")
        assert capsys.readouterr().err == (
            f"radpoly: rank deficient: found 1 pivots for 2 functionals searching degrees up to {cap}\n")


class TestExpand:
    @pytest.mark.parametrize("k,d", [(k, d) for d in (1, 2) for k in range(9)]
                             + [(k, d) for d in (3, 4) for k in range(5)])
    def test_separated_expansion_matches_the_direct_kernel(self, tmp_path, k, d):
        code, body = run(tmp_path, "expand", "--k", str(k), "--d", str(d))
        assert code == 0
        assert json.loads(body)["oracle_match"] is True

    def test_a_wrong_kernel_coefficient_exits_two(self, tmp_path, monkeypatch):
        kernel = cli._radial_kernel

        def off_by_one(ell, weights):
            (delta, ((gamma, coeff), *rest)), *groups = kernel(ell, weights)
            return ((delta, ((gamma, coeff + 1), *rest)), *groups)

        monkeypatch.setattr(cli, "_radial_kernel", off_by_one)
        code, body = run(tmp_path, "expand", "--k", "2", "--d", "2")
        assert code == 2
        assert json.loads(body)["oracle_match"] is False


class TestStdout:
    def test_default_output_goes_to_stdout(self, capsys):
        assert main(["expand", "--k", "1", "--d", "1"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["oracle_match"] is True
