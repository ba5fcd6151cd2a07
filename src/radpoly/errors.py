"""Exception types shared across the package."""


class RadpolyError(Exception):
    """Base class for all library-specific failures."""


class DimensionMismatchError(RadpolyError):
    """Operands live in different coordinate dimensions."""


class DegreeCapError(RadpolyError):
    """A moment-limited functional was asked about degrees past its cap."""


class RankDeficientError(RadpolyError):
    """Gauss elimination found fewer pivots than input functionals.

    Signals linearly dependent input functionals, or a degree cap too small
    to separate them.
    """

    def __init__(self, achieved_rank: int, size: int, degree_cap: int):
        self.achieved_rank = achieved_rank
        self.size = size
        self.degree_cap = degree_cap
        super().__init__(
            f"rank deficient: found {achieved_rank} pivots for {size} "
            f"functionals searching degrees up to {degree_cap}"
        )


class SingularMatrixError(RadpolyError):
    """An exact linear solve met a singular matrix."""
