"""JSON encoding of the package's values.

One data format for everything: rationals as JSON integers when the
denominator is 1 and as "p/q" strings otherwise (integer strings are also
accepted on input; floats never are).  Term and moment lists are emitted in
graded monomial order, so serialization is deterministic and re-serializing
a parsed document is byte-stable.  One writer, ``dumps``, renders every
output: the bytes of ``json.dumps(obj, indent=2)``, with each list of plain
ints joined in C.  No float is ever written.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape
from typing import Any

from .functionals import (
    Functional,
    MomentFunctional,
    PointFunctional,
    from_derivative,
    point_evaluation,
)
from .graded import GradedBasis
from .interpolation import ComparisonReport, InterpolantReport
from .polynomials import Polynomial, as_fraction, monomial_sequence


def format_rational(value: Fraction) -> int | str:
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


_RATIONAL_PATTERN = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(obj: Any) -> Fraction:
    if isinstance(obj, bool) or isinstance(obj, float):
        raise ValueError(f"rationals must be integers or 'p/q' strings, got {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    if isinstance(obj, str) and _RATIONAL_PATTERN.match(obj):
        try:
            return as_fraction(obj)
        except ZeroDivisionError as exc:
            raise ValueError(f"bad rational {obj!r}") from exc
    raise ValueError(f"rationals must be integers or 'p/q' strings, got {obj!r}")


def _is_int(obj: Any) -> bool:
    """JSON integers only: ``true`` and ``false`` are not 1 and 0 here."""
    return isinstance(obj, int) and not isinstance(obj, bool)


def _field(obj: Any, key: str, what: str) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise ValueError(f"{what} must be an object with the field {key!r}")
    return obj[key]


def _list_field(obj: Any, key: str, what: str) -> list:
    value = _field(obj, key, what)
    if not isinstance(value, list):
        raise ValueError(f"{what}: {key!r} must be a list, got {value!r}")
    return value


def _parse_point(obj: Any) -> tuple[Fraction, ...]:
    if not isinstance(obj, list) or not obj:
        raise ValueError(f"a point must be a nonempty list of rationals, got {obj!r}")
    return tuple(parse_rational(c) for c in obj)


def _parse_alpha(obj: Any) -> tuple[int, ...]:
    if not isinstance(obj, list) or not all(_is_int(e) for e in obj):
        raise ValueError(f"an exponent vector must be a list of integers, got {obj!r}")
    return tuple(obj)


# ---------------------------------------------------------------------------
# Polynomials


def polynomial_to_obj(p: Polynomial) -> dict:
    return {
        "dimension": p.dimension,
        "terms": [
            {"alpha": list(alpha), "coeff": format_rational(coeff)}
            for alpha, coeff in p.terms()
        ],
    }


def polynomial_from_obj(obj: Any) -> Polynomial:
    dimension = _field(obj, "dimension", "a polynomial")
    if not _is_int(dimension) or dimension < 1:
        raise ValueError(f"bad polynomial dimension {dimension!r}")
    terms = []
    for record in _list_field(obj, "terms", "a polynomial"):
        terms.append((_parse_alpha(_field(record, "alpha", "a term")),
                      parse_rational(_field(record, "coeff", "a term"))))
    return Polynomial(dimension, terms)


# ---------------------------------------------------------------------------
# Functionals


def functional_to_obj(f: Functional) -> dict:
    if f.degree_cap is None:
        obj = {
            "type": "points",
            "points": [[format_rational(c) for c in x] for x in f.points],
            "weights": [format_rational(w) for w in f.weights],
        }
        return obj if f.points else {**obj, "d": f.dimension}
    return {
        "type": "moments",
        "d": f.dimension,
        "cap": f.degree_cap,
        "moments": [
            {"alpha": list(alpha), "value": format_rational(value)}
            for alpha in monomial_sequence(f.dimension, f.degree_cap)
            if (value := f._moment(alpha))  # each alpha is a checked exponent already
        ],
    }


def functional_from_obj(obj: Any) -> Functional:
    kind = _field(obj, "type", "a functional")
    what = f"a {kind!r} functional"
    if kind == "points":
        points = [_parse_point(p) for p in _list_field(obj, "points", what)]
        weights = [parse_rational(w) for w in _list_field(obj, "weights", what)]
        d = obj.get("d")
        if d is not None and (not _is_int(d) or any(len(p) != d for p in points)):
            raise ValueError("'d' must be an integer equal to the points' length")
        return PointFunctional(points, weights, dimension=d)
    if kind == "moments":
        d = _field(obj, "d", what)
        cap = _field(obj, "cap", what)
        if not _is_int(d) or not _is_int(cap):
            raise ValueError("'d' and 'cap' must be integers")
        moments = []
        for record in _list_field(obj, "moments", what) if "moments" in obj else []:
            moments.append((_parse_alpha(_field(record, "alpha", "a moment")),
                            parse_rational(_field(record, "value", "a moment"))))
        return MomentFunctional(d, cap, moments)
    if kind == "derivative":
        alpha = _parse_alpha(_field(obj, "alpha", what))
        at = _parse_point(_field(obj, "at", what))
        cap = _field(obj, "cap", what)
        if not _is_int(cap):
            raise ValueError("'cap' must be an integer")
        return from_derivative(alpha, at, cap)
    raise ValueError(f"unknown functional type {kind!r}")


# ---------------------------------------------------------------------------
# Problem files


@dataclass(frozen=True)
class ProblemFile:
    """Parsed CLI input: a span plus optional data or target."""

    functionals: tuple[Functional, ...]
    points: tuple[tuple[Fraction, ...], ...] | None
    values: tuple[Fraction, ...] | None
    target: Polynomial | None
    degree_cap: int | None


def problem_from_obj(obj: Any) -> ProblemFile:
    if not isinstance(obj, dict):
        raise ValueError("a problem file must be a JSON object")
    dimension = obj.get("dimension")
    if not _is_int(dimension) or dimension < 1:
        raise ValueError("'dimension' must be a positive integer")

    points = None
    if "points" in obj and "functionals" in obj:
        raise ValueError("give either 'points' or 'functionals', not both")
    if "points" in obj:
        points = tuple(_parse_point(p) for p in _list_field(obj, "points", "a problem file"))
        if any(len(p) != dimension for p in points):
            raise ValueError("points do not match the declared dimension")
        functionals = tuple(point_evaluation(p) for p in points)
    elif "functionals" in obj:
        functionals = tuple(
            functional_from_obj(f) for f in _list_field(obj, "functionals", "a problem file")
        )
        if any(f.dimension != dimension for f in functionals):
            raise ValueError("functionals do not match the declared dimension")
    else:
        raise ValueError("a problem file needs 'points' or 'functionals'")
    if not functionals:
        raise ValueError("need at least one functional")

    values = None
    if "values" in obj:
        values = tuple(parse_rational(v) for v in _list_field(obj, "values", "a problem file"))
        if len(values) != len(functionals):
            raise ValueError(
                f"{len(values)} values for {len(functionals)} functionals"
            )
    target = None
    if "target" in obj:
        target = polynomial_from_obj(obj["target"])
        if target.dimension != dimension:
            raise ValueError("target dimension differs from the problem dimension")
    if values is not None and target is not None:
        raise ValueError("give either 'values' or 'target', not both")

    degree_cap = obj.get("degree_cap")
    if degree_cap is not None and (not _is_int(degree_cap) or degree_cap < 0):
        raise ValueError("'degree_cap' must be a nonnegative integer")

    return ProblemFile(
        functionals=functionals,
        points=points,
        values=values,
        target=target,
        degree_cap=degree_cap,
    )


# ---------------------------------------------------------------------------
# Results


def graded_basis_to_obj(basis: GradedBasis) -> dict:
    return {
        "dimension": basis.dimension,
        "size": basis.size,
        "kappas": list(basis.kappas),
        "pivots": [list(beta) for beta in basis.pivots],
        "transform": [[format_rational(t) for t in row] for row in basis.transform],
        "degree_cap": basis.degree_cap,
        "span": [functional_to_obj(f) for f in basis.span],
        "lambdas": [functional_to_obj(f) for f in basis.lambdas],
    }


def report_to_obj(report: InterpolantReport) -> dict:
    graded = report.basis.source
    return {
        "method": report.method,
        "dimension": graded.dimension,
        "kappas": list(graded.kappas),
        "pivots": [list(beta) for beta in graded.pivots],
        "coefficients": [format_rational(c) for c in report.coefficients],
        "interpolant": polynomial_to_obj(report.interpolant),
        "data": [format_rational(v) for v in report.data],
        "residuals": [format_rational(r) for r in report.residuals],
    }


def comparison_to_obj(report: ComparisonReport) -> dict:
    return {
        "dimension": report.dimension,
        "kappas": list(report.kappas),
        "pivots": [list(beta) for beta in report.pivots],
        "ranges_equal": report.ranges_equal,
        "probe_degree": report.probe_degree,
        "interpolants_agree": report.interpolants_agree,
        "first_difference": (
            None if report.first_difference is None else list(report.first_difference)
        ),
        "four_point_radial_moment": (
            None
            if report.four_point_radial_moment is None
            else format_rational(report.four_point_radial_moment)
        ),
    }


def dumps(obj: Any) -> str:
    """Canonical JSON rendering: the bytes of ``json.dumps(obj, indent=2)`` and a newline.

    ``obj`` is a tree of dicts with string keys, lists, tuples, ints, strings, None and bools,
    each of exactly that type; anything else raises ``TypeError``, a float too: radpoly writes
    every rational as an int or a "p/q" string.  Ints obey the interpreter's limit on int-to-str
    conversion, as in ``json``."""
    return _render(obj, "") + "\n"


def _render(obj: Any, pad: str) -> str:
    """One value, its nested lines indented by ``pad``.  A list of plain ints, the bulk of every
    output, is one join in C; ``type`` rather than ``isinstance`` keeps a bool out of it."""
    kind = type(obj)
    if kind is str:
        return _escape(obj)
    if kind is int:
        return int.__repr__(obj)
    inner = pad + "  "
    sep = ",\n" + inner
    if kind is dict:
        if not obj:
            return "{}"
        body = sep.join([f"{_escape(key)}: {_render(value, inner)}" for key, value in obj.items()])
        return f"{{\n{inner}{body}\n{pad}}}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        if set(map(type, obj)) == {int}:
            body = sep.join(map(int.__repr__, obj))
        else:
            body = sep.join([_render(item, inner) for item in obj])
        return f"[\n{inner}{body}\n{pad}]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
