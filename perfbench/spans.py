"""In-memory span tracer wrapped around radpoly's public calls.

The tracer replaces public functions and methods of the radpoly modules with
wrappers that record one span per call: name, start, end, parent span and
problem id.  Spans sit in flat arrays while the run is traced and are
written out when it ends.  A span's self time is its duration minus the
durations of its direct children; since calls nest on one thread, the self
times of all spans add up to the time spent inside root spans.

Nothing in radpoly changes on disk: ``install`` swaps module attributes in
this process only, and the returned ``restore`` puts the originals back.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "serialization", "graded", "functionals", "interpolation",
          "polynomials", "rational_linalg", "verification")

# Span names whose self time counts as the benchmark's own work.
BENCH_SPAN = "bench.observe"

# Gramian entries are functional applications made directly by the two
# basis constructions; applications elsewhere are not spanned.
GRAMIAN_PARENTS = ("interpolation.schaback_basis", "interpolation.least_basis")


def bits(value) -> int:
    """Height of a rational: the larger bit length of numerator and denominator."""
    return max(abs(value.numerator).bit_length(), value.denominator.bit_length())


def max_bits(rows) -> int:
    return max((bits(v) for row in rows for v in row), default=0)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.problem = array("i")
        self.stack: list[int] = []
        self.problem_id = -1
        self.errors: Counter = Counter()
        self.totals: Counter = Counter()
        self.maxima: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.problem.append(self.problem_id)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self.stack.pop()

    def observe(self, fn, *args) -> None:
        """Run a statistic collector inside a span of the benchmark's own."""
        index = self.open(self.name_id(BENCH_SPAN))
        try:
            fn(self, *args)
        finally:
            self.close(index)

    def self_times(self) -> tuple[Counter, Counter, float]:
        """Self time and call count per span name, and the root spans' total."""
        n = len(self.name)
        child = [0.0] * n
        root_total = 0.0
        for i in range(n):
            duration = self.end[i] - self.start[i]
            p = self.parent[i]
            if p >= 0:
                child[p] += duration
            else:
                root_total += duration
        seconds: Counter = Counter()
        calls: Counter = Counter()
        for i in range(n):
            key = self.names[self.name[i]]
            seconds[key] += self.end[i] - self.start[i] - child[i]
            calls[key] += 1
        return seconds, calls, root_total

    def write(self, path: str) -> None:
        """All spans as gzip-compressed CSV, one row per span."""
        with gzip.open(path, "wt", compresslevel=1, newline="", encoding="utf-8") as handle:
            out = csv.writer(handle)
            out.writerow(["span", "name", "start", "end", "parent", "problem"])
            for i in range(len(self.name)):
                out.writerow([i, self.names[self.name[i]], f"{self.start[i]:.9f}",
                              f"{self.end[i]:.9f}", self.parent[i], self.problem[i]])


def _wrap(tracer: Tracer, name: str, fn, collect=None, only_under=None):
    name_id = tracer.name_id(name)
    layer = name.split(".", 1)[0]
    parents = None if only_under is None else {tracer.name_id(p) for p in only_under}

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if parents is not None and (not tracer.stack or tracer.name[tracer.stack[-1]] not in parents):
            return fn(*args, **kwargs)
        index = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.errors[layer] += 1
            raise
        finally:
            tracer.close(index)
        if collect is not None:
            tracer.observe(collect, result)
        return result

    return traced


# -- statistics taken from results -------------------------------------------


def _graded_stats(tracer: Tracer, graded) -> None:
    tracer.maxima["graded.kappa_max"] = max(tracer.maxima["graded.kappa_max"], max(graded.kappas))
    tracer.maxima["graded.transform_bits_max"] = max(
        tracer.maxima["graded.transform_bits_max"], max_bits(graded.transform))


def _basis_stats(key: str, polys_attr: str):
    def collect(tracer: Tracer, basis) -> None:
        tracer.maxima["interpolation.gramian_bits_max"] = max(
            tracer.maxima["interpolation.gramian_bits_max"], max_bits(basis.gramian))
        polys = getattr(basis, polys_attr)
        tracer.totals[key] += sum(len(p.terms()) for p in polys)
        tracer.totals[key + "_count"] += len(polys)
    return collect


def _report_stats(tracer: Tracer, report) -> None:
    tracer.maxima["interpolation.coef_bits_max"] = max(
        tracer.maxima["interpolation.coef_bits_max"], max_bits([report.coefficients]))


def _cases_stats(tracer: Tracer, report) -> None:
    tracer.totals["verification.cases"] += report.cases


# (module, function, span name, statistic collector)
FUNCTIONS = (
    ("cli", "main", "cli.main", None),
    ("serialization", "problem_from_obj", "serialization.parse", None),
    ("serialization", "report_to_obj", "serialization.emit", None),
    ("serialization", "polynomial_to_obj", "serialization.emit", None),
    ("serialization", "dumps", "serialization.emit", None),
    ("graded", "build_graded_basis", "graded.build", _graded_stats),
    ("functionals", "combine", "functionals.combine", None),
    ("functionals", "radial_image", "functionals.radial_image", None),
    ("functionals", "least_part", "functionals.least_part", None),
    ("interpolation", "schaback_basis", "interpolation.schaback_basis", _basis_stats("polynomials.w_terms", "w")),
    ("interpolation", "least_basis", "interpolation.least_basis", _basis_stats("polynomials.g_terms", "g")),
    ("interpolation", "flat_projector", "interpolation.flat_projector", None),
    ("interpolation", "schaback_interpolate", "interpolation.schaback_solve", _report_stats),
    ("interpolation", "least_interpolate", "interpolation.least_solve", _report_stats),
    ("rational_linalg", "solve", "rational_linalg.solve", None),
    ("rational_linalg", "solve_block_upper", "rational_linalg.solve_block_upper", None),
    ("verification", "run_micchelli", "verification.micchelli", _cases_stats),
    ("verification", "run_schaback_lemma", "verification.schaback-lemma", _cases_stats),
    ("verification", "run_projector", "verification.projector", _cases_stats),
    ("verification", "run_invariance", "verification.invariance", _cases_stats),
)
# (module, class, method, span name, parents the span is recorded under)
METHODS = (
    ("polynomials", "Polynomial", "__call__", "polynomials.eval", None),
    ("polynomials", "Polynomial", "compose_affine", "polynomials.compose_affine", None),
    ("functionals", "PointFunctional", "__call__", "functionals.apply", GRAMIAN_PARENTS),
    ("functionals", "MomentFunctional", "__call__", "functionals.apply", GRAMIAN_PARENTS),
)
SPAN_NAMES = tuple(dict.fromkeys([f[2] for f in FUNCTIONS] + [m[3] for m in METHODS]))


def install(tracer: Tracer):
    """Wrap radpoly's public calls; returns a function that undoes it."""
    import importlib

    radpoly_modules = [m for key, m in sys.modules.items() if key == "radpoly" or key.startswith("radpoly.")]
    runners = importlib.import_module("radpoly.verification")._RUNNERS
    undo = []
    for module_name, attr, name, collect in FUNCTIONS:
        original = getattr(importlib.import_module(f"radpoly.{module_name}"), attr)
        wrapper = _wrap(tracer, name, original, collect)
        # Every module that imported the function by name gets the wrapper.
        for module in radpoly_modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, original))
                    setattr(module, key, wrapper)
        # run_suite dispatches through its table of suite runners.
        for key, value in list(runners.items()):
            if value is original:
                undo.append((runners, key, original))
                runners[key] = wrapper
    for module_name, class_name, attr, name, only_under in METHODS:
        cls = getattr(importlib.import_module(f"radpoly.{module_name}"), class_name)
        original = cls.__dict__[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, _wrap(tracer, name, original, only_under=only_under))

    def restore() -> None:
        for owner, key, original in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    return restore
