"""The seeded suites: clean runs, determinism, and the corrupt self-test."""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from radpoly import build_graded_basis, point_evaluation, polynomial_span_equal, schaback_basis, verification
from radpoly.rational_linalg import mat_vec, transpose
from radpoly.verification import SUITE_NAMES, run_suite


def schaback_general_linear_counterexample():
    """Search small non-orthogonal invertible maps for an equivariance witness.

    Under an invertible map A of the sites, the least space transforms
    exactly by composition with A transposed; the radial-polynomial space is
    only guaranteed to do so for orthogonal A.  Returns (points, matrix) for
    the first violation of that transformation law found for the radial
    method, or None if the search space is exhausted.
    """
    def radial_range(points):
        return schaback_basis(build_graded_basis([point_evaluation(p) for p in points])).w

    points = [(0, 0), (1, 0), (0, 1), (1, 2)]
    candidates = [
        [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]],
        [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]],
        [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]],
        [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]],
    ]
    unmapped = radial_range(points)
    for matrix in candidates:
        moved = radial_range([mat_vec(matrix, p) for p in points])
        composed = [w.compose_affine(transpose(matrix)) for w in unmapped]
        if not polynomial_span_equal(moved, composed):
            return points, matrix
    return None


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suites_pass_clean(name):
    report = run_suite(name, seed=1, trials=6)
    assert report.ok, report.failures[:3]
    assert report.cases > 0


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_corrupt_mode_reports_failures(name):
    report = run_suite(name, seed=1, trials=3, corrupt=True)
    assert not report.ok
    failure = report.failures[0]
    assert failure.case
    assert failure.discrepancy


def test_reports_are_deterministic_per_seed():
    one = run_suite("micchelli", seed=9, trials=4).to_obj()
    two = run_suite("micchelli", seed=9, trials=4).to_obj()
    one.pop("wall_time_ms")
    two.pop("wall_time_ms")
    assert one == two


def test_different_seeds_draw_different_cases():
    one = run_suite("projector", seed=1, trials=4)
    two = run_suite("projector", seed=2, trials=4)
    assert one.ok and two.ok
    assert one.cases != two.cases or one.seed != two.seed


def test_all_suite_merges_everything():
    merged = run_suite("all", seed=3, trials=2)
    total = sum(run_suite(name, seed=3, trials=2).cases for name in SUITE_NAMES)
    assert merged.cases == total
    assert merged.ok


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense", seed=0, trials=1)


def test_general_linear_witness_exists():
    witness = schaback_general_linear_counterexample()
    assert witness is not None
    points, matrix = witness
    assert len(points) == 4


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("seed", [0, 1])
def test_all_suite_report_matches_golden(seed, corrupt):
    """The full report, failures of the corrupt run included, apart from wall time."""
    name = f"verify_all_seed{seed}{'_corrupt' if corrupt else ''}.json"
    report = run_suite("all", seed=seed, trials=2, corrupt=corrupt).to_obj()
    report.pop("wall_time_ms")
    assert report == json.loads((GOLDEN / name).read_text(encoding="utf-8"))


def _count_calls(monkeypatch, name):
    """Replace ``verification.<name>`` by a wrapper counting calls by their arguments."""
    calls = Counter()
    original = getattr(verification, name)

    def counted(*args):
        calls[repr(args)] += 1
        return original(*args)

    monkeypatch.setattr(verification, name, counted)
    return calls


@pytest.mark.parametrize("seed", range(6))
def test_invariance_trial_builds_each_point_set_once(monkeypatch, seed):
    # points, translated, rotated, sheared, collinear and planar sets
    builds = _count_calls(monkeypatch, "build_graded_basis")
    assert verification.run_invariance(seed, trials=1).ok
    assert sum(builds.values()) <= 6


@pytest.mark.parametrize("seed", range(6))
def test_micchelli_evaluates_each_form_once(monkeypatch, seed):
    forms = _count_calls(monkeypatch, "tensor_apply_radial")
    assert verification.run_micchelli(seed, trials=1).ok
    assert forms and max(forms.values()) == 1


def test_a_faulty_form_is_reported(monkeypatch):
    monkeypatch.setattr(verification, "tensor_apply_radial", lambda lam, mu, k: 1)
    report = verification.run_micchelli(0, trials=2)
    assert not report.ok
    assert {f.case for f in report.failures} >= {
        "tensor application equals the point double sum",
        "quadratic form vanishes exactly on functionals of order >= k+1",
    }
