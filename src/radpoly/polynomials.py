"""Exact sparse multivariate polynomials over the rationals.

A polynomial in ``d`` variables is a finite map from exponent vectors
(length-``d`` tuples of nonnegative ints) to nonzero ``Fraction``
coefficients.  The zero polynomial is the empty map; its degree is -1 by
convention, matching the order convention for the zero functional used
elsewhere in the package.

Monomials are enumerated in graded order: total degree first, ties within a
degree broken lexicographically with the first coordinate most significant
and the larger exponent first.  For d=2 through degree 2:

    (0,0) | (1,0), (0,1) | (2,0), (1,1), (0,2)

The tie-break itself is arbitrary, but it must stay fixed and documented:
pivot choices in the graded-basis construction depend on the column order.

``substitute_affine`` is the one affine substitution p |-> p(A x + b): it
serves ``Polynomial.compose_affine`` and ``translate`` and maps both bases
and the interpolants of degenerate point sets from hull coordinates to x.

Exponents from outside pass one check, ``_checked_exponent``, shared with the
functionals' moments and derivative orders; terms radpoly's own arithmetic made
are taken as they are (``Polynomial._of``), since re-checking every length-d
exponent made wide problems quadratic in d.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import DegreeCapError, DimensionMismatchError
from .rational_linalg import identity, integer_vector

Exponent = tuple[int, ...]
Rational = Union[int, str, Fraction]


def as_fraction(value: Rational) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact Fraction.

    Floats are rejected on purpose: everything in this package is exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def as_point(coords: Iterable[Rational]) -> tuple[Fraction, ...]:
    """Coerce an iterable of rationals to an exact point."""
    return tuple(as_fraction(c) for c in coords)


def multi_factorial(alpha: Exponent) -> int:
    """alpha! = alpha(1)! * ... * alpha(d)!"""
    return math.prod(map(math.factorial, alpha))


def graded_key(alpha: Exponent):
    """Sort key realizing the canonical graded monomial order."""
    return (sum(alpha), tuple(-e for e in alpha))


def monomials_of_degree(d: int, degree: int) -> Iterator[Exponent]:
    """Yield all exponent vectors of the given total degree, in order.

    The order within a degree is the canonical one (larger first coordinate
    first).  One vector is edited in place, with no recursion, so any d
    works.  With u = a[r] the last nonzero entry before the final one t, the
    successor of (.., u, 0..0, t) is (.., u - 1, t + 1, 0..0), whose r is r + 1
    unless t + 1 is the final entry; only then does r step back over zeros.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    if degree < 0:
        return
    a = [0] * d
    a[0] = degree
    r = 0 if degree and d > 1 else -1
    while True:
        yield tuple(a)
        if r < 0:  # the last vector: (0..0, degree)
            return
        tail, a[-1] = a[-1], 0
        a[r] -= 1
        a[r + 1] = tail + 1
        r += 1
        while r == d - 1 or r >= 0 and not a[r]:  # t + 1 is the final entry: step back
            r -= 1


def monomial_sequence(d: int, max_degree: int) -> list[Exponent]:
    """All alpha with |alpha| <= max_degree in graded order."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    out: list[Exponent] = []
    for k in range(max_degree + 1):
        out.extend(monomials_of_degree(d, k))
    return out


def _checked_exponent(alpha: Iterable[int], dimension: int, cap: int | None = None) -> Exponent:
    """alpha as an int tuple of length ``dimension``, with no negative entry and, given a
    ``cap``, total degree at most the cap: the one check of every exponent from outside."""
    key = tuple(map(int, alpha))
    if len(key) != dimension:
        raise DimensionMismatchError(f"exponent {key} does not have length {dimension}")
    if any(e < 0 for e in key):
        raise ValueError(f"negative exponent in {key}")
    if cap is not None and sum(key) > cap:
        raise DegreeCapError(f"exponent {key} has degree {sum(key)}, past the cap {cap}")
    return key


def _canonical_terms(terms: Mapping | Iterable, dimension: int,
                     cap: int | None = None) -> dict[Exponent, Fraction]:
    """(alpha, value) pairs, or a mapping, as checked exponents to exact nonzero values:
    repeated exponents summed, zero sums dropped."""
    clean: dict[Exponent, Fraction] = {}
    for alpha, value in terms.items() if isinstance(terms, Mapping) else terms:
        key, value = _checked_exponent(alpha, dimension, cap), as_fraction(value)
        clean[key] = clean[key] + value if key in clean else value
    return {key: value for key, value in clean.items() if value}


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("_dimension", "_terms", "_degree")

    def __init__(self, dimension: int, terms: Mapping | Iterable = ()):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self._dimension = dimension
        self._terms = _canonical_terms(terms, dimension)
        self._degree = max(map(sum, self._terms), default=-1)

    # -- constructors -------------------------------------------------

    @classmethod
    def _of(cls, dimension: int, terms: dict[Exponent, Fraction]) -> "Polynomial":
        """A polynomial on terms already canonical (int exponent tuples of length
        ``dimension``, nonzero ``Fraction`` coefficients), taken as they are: for
        terms radpoly's own arithmetic made, never for outside input."""
        p = object.__new__(cls)
        p._dimension, p._terms, p._degree = dimension, terms, max(map(sum, terms), default=-1)
        return p

    @classmethod
    def zero(cls, dimension: int) -> "Polynomial":
        return cls(dimension)

    @classmethod
    def constant(cls, dimension: int, value: Rational) -> "Polynomial":
        return cls(dimension, {(0,) * dimension: as_fraction(value)})

    @classmethod
    def monomial(cls, dimension: int, alpha: Iterable[int], coeff: Rational = 1) -> "Polynomial":
        return cls(dimension, {tuple(alpha): as_fraction(coeff)})

    @classmethod
    def variable(cls, dimension: int, index: int) -> "Polynomial":
        if not 0 <= index < dimension:
            raise ValueError(f"variable index {index} out of range for dimension {dimension}")
        alpha = [0] * dimension
        alpha[index] = 1
        return cls(dimension, {tuple(alpha): Fraction(1)})

    @classmethod
    def squared_norm(cls, dimension: int) -> "Polynomial":
        """x(1)^2 + ... + x(d)^2."""
        terms = {}
        for i in range(dimension):
            alpha = [0] * dimension
            alpha[i] = 2
            terms[tuple(alpha)] = Fraction(1)
        return cls(dimension, terms)

    # -- inspection ---------------------------------------------------

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return self._degree

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, alpha: Iterable[int]) -> Fraction:
        return self._terms.get(tuple(alpha), Fraction(0))

    def terms(self) -> list[tuple[Exponent, Fraction]]:
        """Term list in graded monomial order."""
        return sorted(self._terms.items(), key=lambda item: graded_key(item[0]))

    def _integer_form(self) -> tuple[list[tuple[Exponent, int]], int]:
        """The terms as (alpha, integer numerator) pairs over their least common denominator."""
        numerators, denominator = integer_vector(list(self._terms.values()))
        return list(zip(self._terms, numerators)), denominator

    def is_homogeneous(self, degree: int | None = None) -> bool:
        if self.is_zero:
            return True
        degrees = {sum(a) for a in self._terms}
        if len(degrees) != 1:
            return False
        return degree is None or degrees == {degree}

    # -- arithmetic ---------------------------------------------------

    def _require_same_dimension(self, other: "Polynomial") -> None:
        if self._dimension != other._dimension:
            raise DimensionMismatchError(
                f"polynomial dimensions differ: {self._dimension} vs {other._dimension}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_dimension(other)
        out = dict(self._terms)
        for alpha, coeff in other._terms.items():
            value = out.get(alpha, Fraction(0)) + coeff
            if value == 0:
                out.pop(alpha, None)
            else:
                out[alpha] = value
        return Polynomial._of(self._dimension, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial._of(self._dimension, {a: -c for a, c in self._terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            self._require_same_dimension(other)
            out: dict[Exponent, Fraction] = {}
            for a1, c1 in self._terms.items():
                for a2, c2 in other._terms.items():
                    key = tuple(e1 + e2 for e1, e2 in zip(a1, a2))
                    value = out.get(key, Fraction(0)) + c1 * c2
                    if value == 0:
                        out.pop(key, None)
                    else:
                        out[key] = value
            return Polynomial._of(self._dimension, out)
        scalar = as_fraction(other)
        return Polynomial._of(self._dimension, {a: scalar * c for a, c in self._terms.items() if scalar})

    def __rmul__(self, other) -> "Polynomial":
        return self.__mul__(other)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be nonnegative integers")
        result = Polynomial.constant(self._dimension, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._dimension == other._dimension and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._dimension, frozenset(self._terms.items())))

    # -- evaluation ---------------------------------------------------

    def __call__(self, point: Sequence[Rational]) -> Fraction:
        """Exact value at a rational point."""
        coords = as_point(point)
        if len(coords) != self._dimension:
            raise DimensionMismatchError(
                f"point has length {len(coords)}, polynomial dimension is {self._dimension}"
            )
        total = Fraction(0)
        for alpha, coeff in self._terms.items():
            term = coeff
            for x, e in zip(coords, alpha):
                if e:
                    term *= x**e
            total += term
        return total

    def compose_affine(self, matrix: Sequence[Sequence[Rational]],
                       shift: Sequence[Rational] | None = None) -> "Polynomial":
        """Exact expansion of x |-> p(A x + b), A with one row per variable of p.

        The rows share one length m, the dimension of the result, so A may be
        rectangular; b defaults to zero.  See ``substitute_affine``.
        """
        return substitute_affine([self], matrix, shift)[0]

    def translate(self, shift: Sequence[Rational]) -> "Polynomial":
        """x |-> p(x + shift)."""
        return self.compose_affine(identity(self._dimension), shift)

    # -- display --------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        pieces = []
        for alpha, coeff in reversed(self.terms()):
            factors = []
            for i, e in enumerate(alpha):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = f"{abs(coeff)}*" + "*".join(factors)
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Polynomial(d={self._dimension}: {self})"


def substitute_affine(polys: Sequence[Polynomial], matrix: Sequence[Sequence[Rational]],
                      shift: Sequence[Rational] | None = None) -> list[Polynomial]:
    """x |-> p(A x + b) for every p, from one integer table of powers.

    A has one row per variable of the polynomials and every row has the same
    length m, the dimension of the results; b defaults to zero.  Row k of
    (A, b) is l_k / m_k, l_k an integer affine form and m_k the lcm of the
    row's denominators.  The table, shared by every p, holds M l^gamma / m^gamma
    with M = prod_k m_k^(e_k), e_k the largest exponent of variable k; each
    result is one integer sum over its coefficients' common denominator.
    """
    rows = [[as_fraction(v) for v in row] for row in matrix]
    r, m = len(rows), len(rows[0]) if rows else 0
    if m < 1 or any(len(row) != m for row in rows):
        raise DimensionMismatchError("substitution matrix needs rows of one nonzero length")
    offset = [Fraction(0)] * r if shift is None else list(as_point(shift))
    if len(offset) != r:
        raise DimensionMismatchError(f"shift must have length {r}, one entry per row")
    if any(p.dimension != r for p in polys):
        raise DimensionMismatchError(f"substitution matrix has {r} rows, not one per variable")

    forms, scales = [], []
    for row, b in zip(rows, offset):
        scale = math.lcm(b.denominator, *(c.denominator for c in row))
        form = {(0,) * j + (1,) + (0,) * (m - j - 1): c.numerator * (scale // c.denominator)
                for j, c in enumerate(row) if c}
        if b:
            form[(0,) * m] = b.numerator * (scale // b.denominator)
        forms.append(form)
        scales.append(scale)
    tops = [max((alpha[k] for p in polys for alpha in p._terms), default=0) for k in range(r)]
    big = math.prod(s**e for s, e in zip(scales, tops))
    powers = {(0,) * r: {(0,) * m: big}}

    def power(gamma: Exponent) -> dict[Exponent, int]:
        """M l^gamma / m^gamma, each missing step from the power one below."""
        chain, below = [], gamma
        while below not in powers:
            k = next(i for i, g in enumerate(below) if g)
            chain.append((below, k))
            below = below[:k] + (below[k] - 1,) + below[k + 1:]
        for step, k in reversed(chain):
            product: dict[Exponent, int] = {}
            for alpha, c in powers[below].items():
                for beta, f in forms[k].items():
                    key = tuple(map(add, alpha, beta))
                    product[key] = product.get(key, 0) + c * f
            powers[step] = {alpha: v // scales[k] for alpha, v in product.items()}
            below = step
        return powers[gamma]

    out = []
    for p in polys:
        form, common = p._integer_form()
        acc: dict[Exponent, int] = {}
        for gamma, c in form:
            for alpha, v in power(gamma).items():
                acc[alpha] = acc.get(alpha, 0) + c * v
        out.append(Polynomial._of(m, {alpha: Fraction(v, common * big) for alpha, v in acc.items() if v}))
    return out
