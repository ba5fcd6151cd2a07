"""The public surface: ``radpoly`` exports what the CLI, ``verify`` and the benchmark call."""

import inspect

import pytest

import radpoly

# oracles that only the tests read: they live in the tests (verify_graded in test_graded,
# four_point_radial_moment in test_interpolation)
TEST_ONLY = ("four_point_radial_moment", "inner_product", "range_basis", "span_dimension_below", "verify_graded")


def test_all_is_sorted_and_every_name_resolves():
    assert radpoly.__all__ == sorted(radpoly.__all__)
    assert all(hasattr(radpoly, name) for name in radpoly.__all__)


@pytest.mark.parametrize("name", TEST_ONLY)
def test_a_test_only_oracle_is_not_exported(name):
    assert name not in radpoly.__all__
    assert not hasattr(radpoly, name)


@pytest.mark.parametrize("function", [radpoly.order, radpoly.least_part])
def test_the_order_search_takes_no_cap(function):
    assert len(inspect.signature(function).parameters) == 1


@pytest.mark.parametrize("name", ["AffineProjection", "SingularGramianError"])
def test_a_removed_second_path_is_not_exported(name):
    """flat_projector returns a function, and a zero Gramian pivot fails the sign law."""
    assert name not in radpoly.__all__
    assert not hasattr(radpoly, name)
