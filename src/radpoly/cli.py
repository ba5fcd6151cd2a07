"""Command-line front end.

Subcommands: ``basis``, ``interp``, ``eval``, ``expand``, ``verify``,
``compare``.  All data crosses the boundary as JSON with exact rationals
(integers or "p/q" strings); decimal output is presentation-only and opt-in
via ``--precision``.

Exit status: 0 success, 1 usage or parse error (whatever parsing an input
file raises), 2 mathematical failure of a well-formed input (rank deficiency,
moment cap exceeded, dimension mismatch), 3 verification failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import cache
from operator import mul
from typing import Callable, Sequence

from .errors import RadpolyError
from .functionals import PointFunctional, _radial_kernel, expansion_polynomial, radial_power_expansion
from .graded import GradedBasis, build_graded_basis
from .interpolation import compare_interpolants, least_interpolate, schaback_interpolate
from .polynomials import Polynomial
from .serialization import (
    comparison_to_obj,
    dumps,
    format_rational,
    graded_basis_to_obj,
    parse_rational,
    polynomial_from_obj,
    polynomial_to_obj,
    problem_from_obj,
    report_to_obj,
)
from .verification import SUITE_NAMES, run_suite

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1 here
        raise _UsageError(message)


@cache  # built once per process; every main() call reuses it
def _build_parser() -> _Parser:
    parser = _Parser(prog="radpoly", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    basis = sub.add_parser("basis", help="graded basis of the input functionals")
    basis.add_argument("--input", required=True, help="problem file (JSON)")
    basis.add_argument("--output", help="write the result here instead of stdout")

    interp = sub.add_parser("interp", help="build an interpolant")
    interp.add_argument("--input", required=True, help="problem file with values or target")
    interp.add_argument("--method", choices=("schaback", "least", "both"), default="schaback")
    interp.add_argument("--output", help="write the result here instead of stdout")

    evaluate = sub.add_parser("eval", help="evaluate an interpolant or polynomial")
    evaluate.add_argument("--input", required=True,
                          help="interpolant report or polynomial file (JSON)")
    evaluate.add_argument("--at", action="append", required=True, metavar="COORDS",
                          help="query point as comma-separated rationals; repeatable")
    evaluate.add_argument("--method", choices=("schaback", "least"),
                          help="pick a side of a --method both report")
    evaluate.add_argument("--precision", type=int, help="additionally render values with "
                          f"this many decimals (at most {MAX_PRECISION})")
    evaluate.add_argument("--output", help="write the result here instead of stdout")

    expand = sub.add_parser("expand", help="list the separated radial power expansion")
    expand.add_argument("--k", type=int, required=True)
    expand.add_argument("--d", type=int, required=True)
    expand.add_argument("--output", help="write the result here instead of stdout")

    verify = sub.add_parser("verify", help="run a seeded verification suite")
    verify.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=int, default=25)
    verify.add_argument("--corrupt", action="store_true",
                        help="deliberately break one check per suite (harness self-test)")
    verify.add_argument("--output", help="write the report here instead of stdout")

    compare = sub.add_parser("compare", help="compare the two interpolants on a point set")
    compare.add_argument("--input", required=True, help="problem file with points")
    compare.add_argument("--probe-degree", type=int, default=3)
    compare.add_argument("--output", help="write the result here instead of stdout")

    return parser


def _load(path: str, parse: Callable):
    """``parse`` of the JSON document at ``path``.  Whatever reading or parsing raises exits 1, a
    shape error inside the file (an exponent of the wrong length, a moment past its cap) included:
    exit 2 is left for the mathematics of a well-formed input."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep to decode
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return parse(obj)
    except RadpolyError as exc:
        raise ValueError(str(exc)) from exc


def _emit(build: Callable[[], object], output: str | None) -> None:
    """Write ``build()`` as canonical JSON; a file that cannot be written exits 1.  Exact values may
    pass Python's limit on int-to-str conversion (4300 digits), so it is lifted while the output is
    built and written, and only then: input keeps it, and the rest of the process gets the previous
    limit back."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        text = dumps(build())
        if output:
            try:
                with open(output, "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as exc:
                raise _UsageError(f"cannot write {output}: {exc}") from exc
        else:
            sys.stdout.write(text)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _parse_query_point(text: str) -> tuple[Fraction, ...]:
    pieces = [piece.strip() for piece in text.split(",")]
    if not pieces or any(not piece for piece in pieces):
        raise ValueError(f"bad query point {text!r}")
    return tuple(parse_rational(piece) for piece in pieces)


# The most decimals ``eval --precision`` renders: past Python's 4300-digit int-to-str limit a
# rendering would fail only after all its arithmetic, and 10^7 decimals run for seconds.
MAX_PRECISION = 1000

# The largest value, in bits, that ``eval`` or an ``interp`` target may reach at its points:
# int-to-str is quadratic, so a 4 * 10^6-bit value takes about 26 s to write on a 2-core Xeon,
# and x1^(10^11) at 2 would run until killed.
MAX_VALUE_BITS = 2**20

# The most bits the atom kernel's power tables may hold for the moment columns of an ``interp``
# target, and the moment records of a ``basis`` output: both grow quadratically in the degree or
# cap; x1^40000 at (5, 5) and (3, 4) peaked at 421 MB, and a value and a derivative at 5 with cap
# 2,000 wrote 6.3 MB.
MAX_TABLE_BITS = 2**30


def _bits(value: Fraction) -> int:
    return abs(value.numerator).bit_length() + value.denominator.bit_length()


def _require_value_size(polynomial: Polynomial, points, tables: bool = False) -> None:
    """Exit 1 before any arithmetic if ``polynomial`` at ``points`` may pass ``MAX_VALUE_BITS``.
    The estimate, the max over terms c x^alpha and points x of bits(c) + sum_k alpha_k bits(x_k),
    bounds each term's size and is never below the degree.  With ``tables`` (a target), also exit 1
    if the atom kernel's power tables, the powers of the q x_j up to e_j (q the lcm of the points'
    denominators, e_j the largest exponent of x_j in the terms), may pass ``MAX_TABLE_BITS``, by
    sum_j e_j (e_j + 1) / 2 * sum_x bits(q x_j) over the q x_j other than 0 and +-1."""
    sizes = {tuple(map(_bits, x)) for x in points}
    estimate = max((_bits(c) + sum(map(mul, alpha, size))
                    for alpha, c in polynomial.terms() for size in sizes), default=0)
    if estimate > MAX_VALUE_BITS:
        raise _UsageError(f"size guard: values may need up to {estimate} bits, "
                          f"the limit is {MAX_VALUE_BITS}")
    if tables:
        q = math.lcm(*(c.denominator for x in points for c in x))
        tops = [max(column, default=0) for column in zip(*(alpha for alpha, _ in polynomial.terms()))]
        estimate = sum(e * (e + 1) // 2 * sum(_bits(x[j] * q) for x in points if abs(x[j] * q) > 1)
                       for j, e in enumerate(tops))
        if estimate > MAX_TABLE_BITS:
            raise _UsageError(f"size guard: power tables may need up to {estimate} bits, "
                              f"the limit is {MAX_TABLE_BITS}")


def _require_output_size(graded: GradedBasis) -> None:
    """Exit 1 before any moment record is built if the ``basis`` output of a capped span may pass
    ``MAX_TABLE_BITS``: each capped member is written as moment records up to its cap c, and each
    lambda_i up to the span's, one record per monomial of the table's ``support`` up to c: C(c + d, d)
    when the span has atoms, so the output grows with the square of the cap.  A record up to degree
    c is estimated at c (b + bits(c)) bits when the span has atoms, b the bits of q x_j and q (q the
    lcm of the coordinates' denominators), plus the largest weight or stored moment and, for a
    lambda_i, the largest entry of T."""
    cap, span, d = graded.moments.cap, graded.span, graded.dimension
    if cap is None:  # a point span writes points and weights, no moment records
        return
    points = [x for f in span if isinstance(f, PointFunctional) for x in f.points]
    q = math.lcm(*(c.denominator for x in points for c in x))
    b = max((_bits(c * q) for x in points for c in x), default=0) + q.bit_length()
    values = max((_bits(v) for f in span for v in (
        f.weights if isinstance(f, PointFunctional) else (v for _, v in f.moments()))), default=0)
    transform = max(_bits(t) for row in graded.transform for t in row)

    def records(top: int, extra: int) -> int:
        count = math.comb(top + d, d) if points else len(graded.moments.support(top))
        return count * ((top * (b + top.bit_length()) if points else 0) + values + extra)

    estimate = (sum(records(f.degree_cap, 0) for f in span if f.degree_cap is not None)
                + len(span) * records(cap, transform))
    if estimate > MAX_TABLE_BITS:
        raise _UsageError(f"size guard: the moment records may need up to {estimate} bits, "
                          f"the limit is {MAX_TABLE_BITS}")


def _render_decimal(value: Fraction, digits: int) -> str:
    """Fixed-point rendering, round half away from zero.  Presentation only."""
    sign = "-" if value < 0 else ""
    scaled = abs(value.numerator) * 10**digits
    quotient, remainder = divmod(scaled, value.denominator)
    if 2 * remainder >= value.denominator:
        quotient += 1
    text = str(quotient).rjust(digits + 1, "0")
    if digits:
        return f"{sign}{text[:-digits]}.{text[-digits:]}"
    return sign + text


# ---------------------------------------------------------------------------
# Commands


def _cmd_basis(args) -> int:
    problem = _load(args.input, problem_from_obj)
    graded = build_graded_basis(problem.functionals, problem.degree_cap)
    _require_output_size(graded)
    _emit(lambda: graded_basis_to_obj(graded), args.output)
    return 0


def _cmd_interp(args) -> int:
    problem = _load(args.input, problem_from_obj)
    if (problem.values is None) == (problem.target is None):
        raise ValueError("interpolation needs exactly one of 'values' or 'target'")
    if problem.target is not None:  # a capped member bounds the target's degree by its cap
        _require_value_size(problem.target, [x for f in problem.functionals
                                             if f.degree_cap is None for x in f.points], tables=True)
    graded = build_graded_basis(problem.functionals, problem.degree_cap)
    kwargs = (
        {"data": list(problem.values)} if problem.values is not None
        else {"target": problem.target}
    )
    if args.method != "both":
        interpolate = schaback_interpolate if args.method == "schaback" else least_interpolate
        report = interpolate(graded, **kwargs)
        _emit(lambda: report_to_obj(report), args.output)
        return 0
    left = schaback_interpolate(graded, **kwargs)
    right = least_interpolate(graded, **kwargs)
    _emit(lambda: {
        "schaback": report_to_obj(left),
        "least": report_to_obj(right),
        "difference": polynomial_to_obj(left.interpolant - right.interpolant),
    }, args.output)
    return 0


def _extract_polynomial(obj, method: str | None) -> Polynomial:
    if isinstance(obj, dict) and "schaback" in obj and "least" in obj:
        if method is None:
            raise ValueError("this report holds both methods; pick one with --method")
        side = obj[method]
        if not isinstance(side, dict) or "interpolant" not in side:
            raise ValueError(f"the {method!r} part of the report has no 'interpolant'")
        return polynomial_from_obj(side["interpolant"])
    if isinstance(obj, dict) and "interpolant" in obj:
        return polynomial_from_obj(obj["interpolant"])
    return polynomial_from_obj(obj)


def _cmd_eval(args) -> int:
    if args.precision is not None and not 0 <= args.precision <= MAX_PRECISION:
        raise _UsageError(f"precision guard: 0 <= precision <= {MAX_PRECISION}")
    polynomial = _load(args.input, lambda obj: _extract_polynomial(obj, args.method))
    points = [_parse_query_point(text) for text in args.at]
    _require_value_size(polynomial, points)
    values = [polynomial(p) for p in points]

    def build() -> dict:
        out = {
            "points": [[format_rational(c) for c in p] for p in points],
            "values": [format_rational(v) for v in values],
        }
        if args.precision is not None:
            out["decimals"] = [_render_decimal(v, args.precision) for v in values]
        return out

    _emit(build, args.output)
    return 0


def _cmd_expand(args) -> int:
    if args.k < 0 or args.d < 1:
        raise _UsageError("need k >= 0 and d >= 1")
    if args.k > 8 or args.d > 4:
        raise _UsageError("listing guard: k <= 8 and d <= 4")
    reassembled = expansion_polynomial(args.k, args.d)
    # the direct expansion every radial image is built from, K t^gamma s^delta read as K x^gamma y^delta
    kernel = _radial_kernel(args.k, (1,) * args.d)
    direct = Polynomial(2 * args.d, {gamma + delta: c for delta, terms in kernel for gamma, c in terms})
    match = reassembled == direct
    _emit(lambda: {
        "k": args.k,
        "d": args.d,
        "terms": [
            {
                "a": term.a,
                "beta": list(term.beta),
                "c": term.c,
                "coeff": format_rational(term.coeff),
            }
            for term in radial_power_expansion(args.k, args.d)
        ],
        "reassembled": polynomial_to_obj(reassembled),
        "oracle_match": match,
    }, args.output)
    return 0 if match else 2


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise _UsageError("need at least one trial")
    report = run_suite(args.suite, args.seed, args.trials, corrupt=args.corrupt)
    _emit(report.to_obj, args.output)
    return 0 if report.ok else 3


def _cmd_compare(args) -> int:
    problem = _load(args.input, problem_from_obj)
    if problem.points is None:
        raise ValueError("compare needs a problem file with 'points'")
    if args.probe_degree < 0:
        raise _UsageError("probe degree must be >= 0")
    report = compare_interpolants(
        list(problem.points), args.probe_degree, problem.degree_cap
    )
    _emit(lambda: comparison_to_obj(report), args.output)
    return 0


_COMMANDS = {
    "basis": _cmd_basis,
    "interp": _cmd_interp,
    "eval": _cmd_eval,
    "expand": _cmd_expand,
    "verify": _cmd_verify,
    "compare": _cmd_compare,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (_UsageError, ValueError) as exc:
        print(f"radpoly: {exc}", file=sys.stderr)
        return 1
    except RadpolyError as exc:
        print(f"radpoly: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
