"""Exact multivariate polynomial interpolation at scattered linear functionals.

Everything is computed over the rationals, so the structural identities the
package is built on (separated radial power expansions, block triangular
Gramians, projector laws, geometric invariances) hold as exact equalities
and are tested as such.
"""

from .errors import (
    DegreeCapError,
    DimensionMismatchError,
    RadpolyError,
    RankDeficientError,
    SingularMatrixError,
)
from .functionals import (
    Functional,
    MomentFunctional,
    PointFunctional,
    RadialExpansionTerm,
    combine,
    expansion_polynomial,
    from_derivative,
    least_part,
    order,
    point_evaluation,
    radial_image,
    radial_monomial,
    radial_power_expansion,
    tensor_apply_radial,
)
from .graded import GradedBasis, build_graded_basis
from .interpolation import (
    ComparisonReport,
    InterpolantReport,
    LeastBasis,
    SchabackBasis,
    compare_interpolants,
    flat_projector,
    least_basis,
    least_interpolate,
    polynomial_span_equal,
    schaback_basis,
    schaback_interpolate,
)
from .polynomials import (
    Polynomial,
    as_fraction,
    graded_key,
    monomial_sequence,
    monomials_of_degree,
    multi_factorial,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "DegreeCapError",
    "DimensionMismatchError",
    "Functional",
    "GradedBasis",
    "InterpolantReport",
    "LeastBasis",
    "MomentFunctional",
    "PointFunctional",
    "Polynomial",
    "RadialExpansionTerm",
    "RadpolyError",
    "RankDeficientError",
    "SchabackBasis",
    "SingularMatrixError",
    "as_fraction",
    "build_graded_basis",
    "combine",
    "compare_interpolants",
    "expansion_polynomial",
    "flat_projector",
    "from_derivative",
    "graded_key",
    "least_basis",
    "least_interpolate",
    "least_part",
    "monomial_sequence",
    "monomials_of_degree",
    "multi_factorial",
    "order",
    "point_evaluation",
    "polynomial_span_equal",
    "radial_image",
    "radial_monomial",
    "radial_power_expansion",
    "schaback_basis",
    "schaback_interpolate",
    "tensor_apply_radial",
]
