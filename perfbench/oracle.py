"""Independent correctness checks for the benchmark's outputs.

Polynomials are parsed from the JSON documents the program writes and
evaluated with this file's own ``Fraction`` code; nothing here imports
radpoly.  Each ``check_*`` function returns a list of problems found, empty
when the output is correct.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

Poly = dict  # exponent tuple -> Fraction, zero coefficients dropped


def rational(obj) -> Fraction:
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise ValueError(f"not an exact rational: {obj!r}")
    if isinstance(obj, int):
        return Fraction(obj)
    num, _, den = obj.partition("/")
    return Fraction(int(num), int(den) if den else 1)


def parse_poly(obj) -> tuple[int, Poly]:
    """(dimension, terms) of a serialized polynomial."""
    d = obj["dimension"]
    terms: Poly = {}
    for record in obj["terms"]:
        alpha = tuple(record["alpha"])
        if len(alpha) != d or alpha in terms:
            raise ValueError(f"bad or repeated exponent {alpha}")
        coeff = rational(record["coeff"])
        if coeff == 0:
            raise ValueError(f"zero coefficient stored for {alpha}")
        terms[alpha] = coeff
    return d, terms


def evaluate(terms: Poly, point) -> Fraction:
    total = Fraction(0)
    for alpha, coeff in terms.items():
        term = coeff
        for x, e in zip(point, alpha):
            if e:
                term *= Fraction(x) ** e
        total += term
    return total


def derivative(terms: Poly, alpha) -> Poly:
    """D^alpha of a polynomial."""
    out: Poly = {}
    for gamma, coeff in terms.items():
        if any(g < a for g, a in zip(gamma, alpha)):
            continue
        factor = 1
        for g, a in zip(gamma, alpha):
            for k in range(a):
                factor *= g - k
        out[tuple(g - a for g, a in zip(gamma, alpha))] = coeff * factor
    return out


def degree(terms: Poly) -> int:
    return max((sum(alpha) for alpha in terms), default=-1)


def subtract(left: Poly, right: Poly) -> Poly:
    out = dict(left)
    for alpha, coeff in right.items():
        value = out.get(alpha, Fraction(0)) - coeff
        if value:
            out[alpha] = value
        else:
            out.pop(alpha, None)
    return out


def _check_report(report: dict, method: str, functionals, expected) -> tuple[list[str], Poly]:
    """Shared checks of one interpolant report.

    ``functionals`` is a list of (site, derivative order) pairs and
    ``expected`` the value each must take on the interpolant.  Returns the
    errors found and the interpolant's terms.
    """
    errors = []
    if report.get("method") != method:
        errors.append(f"{method}: method field is {report.get('method')!r}")
    residuals = [rational(r) for r in report["residuals"]]
    if len(residuals) != len(expected) or any(residuals):
        errors.append(f"{method}: residuals are not all 0")
    data = [rational(v) for v in report["data"]]
    if data != [Fraction(v) for v in expected]:
        errors.append(f"{method}: data differ from the problem's values")
    if len(report["coefficients"]) != len(expected):
        errors.append(f"{method}: {len(report['coefficients'])} coefficients for {len(expected)} functionals")
    _, terms = parse_poly(report["interpolant"])
    if degree(terms) > max(report["kappas"]):
        errors.append(f"{method}: degree {degree(terms)} exceeds the largest order {max(report['kappas'])}")
    derivatives: dict = {}
    for i, ((site, alpha), want) in enumerate(zip(functionals, expected)):
        if alpha not in derivatives:
            derivatives[alpha] = derivative(terms, alpha)
        got = evaluate(derivatives[alpha], site)
        if got != want:
            errors.append(f"{method}: functional {i} gives {got}, expected {want}")
            break
    return errors, terms


def _functionals_of(problem: dict):
    d = problem["dimension"]
    if "points" in problem:
        return [(tuple(p), (0,) * d) for p in problem["points"]]
    return [(tuple(f["at"]), tuple(f["alpha"])) for f in problem["functionals"]]


def check_interp_both(problem: dict, output: dict) -> list[str]:
    """Output of ``interp --method both`` on a point or derivative problem.

    Both interpolants must reproduce every value (and every partial
    derivative, for derivative functionals), carry zero residuals, and the
    ``difference`` must equal Schaback minus least.
    """
    functionals = _functionals_of(problem)
    expected = [Fraction(v) for v in problem["values"]]
    errors = []
    terms = {}
    for method in ("schaback", "least"):
        found, terms[method] = _check_report(output[method], method, functionals, expected)
        errors += found
    _, difference = parse_poly(output["difference"])
    if difference != subtract(terms["schaback"], terms["least"]):
        errors.append("difference is not schaback minus least")
    return errors


def check_resolve(sites, problem: dict, interpolants: dict, residuals: dict) -> list[str]:
    """Library solves on a prebuilt basis: both interpolants match the data.

    ``interpolants`` maps method to its terms, ``residuals`` method to the
    report's residual tuple.
    """
    if "values" in problem:
        expected = [Fraction(v) for v in problem["values"]]
    else:
        target = {tuple(alpha): Fraction(c) for alpha, c in problem["target"]}
        expected = [evaluate(target, x) for x in sites]
    errors = []
    for method, terms in interpolants.items():
        if any(residuals[method]):
            errors.append(f"{method}: residuals are not all 0")
        for i, (x, want) in enumerate(zip(sites, expected)):
            if evaluate(terms, x) != want:
                errors.append(f"{method}: site {i} gives {evaluate(terms, x)}, expected {want}")
                break
    return errors


def check_verify(status: int, output: dict | None, verify_seed: int) -> list[str]:
    """``verify --suite all --trials 1``: exit 0, no failures, cases run."""
    errors = []
    if status != 0:
        errors.append(f"verify exited with status {status}")
    if output is None:
        return errors + ["verify wrote no report"]
    if output.get("failures"):
        errors.append(f"{len(output['failures'])} verification failures")
    if output.get("suite") != "all" or output.get("seed") != verify_seed or output.get("trials") != 1:
        errors.append("report does not describe the requested run")
    if not output.get("cases"):
        errors.append("no cases checked")
    return errors


def verify_digest_bytes(output: dict) -> bytes:
    """A verify report without its one non-deterministic field."""
    stable = {k: v for k, v in output.items() if k != "wall_time_ms"}
    return json.dumps(stable, sort_keys=True).encode("utf-8")


def render_terms(terms: Poly) -> list:
    """Canonical, JSON-ready form of a polynomial for digests."""
    return [[list(alpha), str(coeff)] for alpha, coeff in sorted(terms.items())]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
