"""Negative controls and unit checks for the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of a checkout.  Each control shows that a wrong output is
counted as a failure, so that ``failed_frac`` = 0 means something.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import generate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _interp_output(runner: run.Runner, item) -> tuple[int, dict]:
    path = os.path.join(run.WORKDIR, "control.problem.json")
    out = os.path.join(run.WORKDIR, "control.out.json")
    with open(path, "wb") as handle:
        handle.write(generate.problem_bytes(item["problem"]))
    try:
        status = runner.cli.main(["interp", "--input", path, "--method", "both", "--output", out])
        with open(out, encoding="utf-8") as handle:
            return status, json.load(handle)
    finally:
        for name in (path, out):
            if os.path.exists(name):
                os.remove(name)


class NegativeControls(unittest.TestCase):
    def test_changed_coefficient_counts_as_failure(self):
        runner = run.Runner("points_both")
        for item in (generate.warmup_problems("points_both")[0],
                     generate.warmup_problems("hermite_moments")[0]):
            status, output = _interp_output(runner, item)
            self.assertEqual(status, 0)
            self.assertEqual(oracle.check_interp_both(item["problem"], output), [])
            for method in ("schaback", "least"):
                broken = copy.deepcopy(output)
                term = broken[method]["interpolant"]["terms"][0]
                term["coeff"] = str(oracle.rational(term["coeff"]) + 1)
                errors = oracle.check_interp_both(item["problem"], broken)
                self.assertTrue(errors, f"{method}: a changed coefficient went unnoticed")
                counted = run.Pass()
                counted.check(item, errors)
                self.assertEqual(counted.failed, 1)

    def test_corrupt_verify_run_counts_as_failure(self):
        runner = run.Runner("verify_all")
        out = os.path.join(run.WORKDIR, "control.verify.json")
        status = runner.cli.main(["verify", "--suite", "all", "--seed", "0", "--trials", "1",
                                  "--corrupt", "--output", out])
        with open(out, encoding="utf-8") as handle:
            output = json.load(handle)
        os.remove(out)
        self.assertEqual(status, 3)
        self.assertTrue(oracle.check_verify(status, output, 0))

    def test_digest_mismatch_counts_as_failure(self):
        runner = run.Runner("resolve_many")
        warm, found = run.warm_up(runner, {})
        self.assertEqual(warm.failed, len(found))
        warm, _ = run.warm_up(runner, found)
        self.assertEqual(warm.failed, 0)

    def test_generator_is_byte_identical_for_a_seed(self):
        for workload in generate.WORKLOADS:
            first = [generate.problem_bytes(item) for item in generate.round_problems(workload, 7, 2)]
            again = [generate.problem_bytes(item) for item in generate.round_problems(workload, 7, 2)]
            other = [generate.problem_bytes(item) for item in generate.round_problems(workload, 8, 2)]
            self.assertEqual(first, again, workload)
            self.assertNotEqual(first, other, workload)


class Statistics(unittest.TestCase):
    def test_tail_leaves_ten_samples_beyond(self):
        times = [float(i) for i in range(1, 101)]
        percentile, value = run.tail(times)
        self.assertEqual(value, 90.0)
        self.assertEqual(sum(t > value for t in times), 10)
        self.assertAlmostEqual(percentile, 90.0)

    def test_self_times_add_up_to_root_spans(self):
        tracer = spans.Tracer()
        outer = tracer.open(tracer.name_id("cli.main"))
        inner = tracer.open(tracer.name_id("graded.build"))
        tracer.close(inner)
        tracer.close(outer)
        seconds, calls, root_total = tracer.self_times()
        self.assertAlmostEqual(sum(seconds.values()), root_total)
        self.assertEqual(calls["graded.build"], 1)

    def test_tracing_wraps_and_restores(self):
        import radpoly
        import radpoly.cli

        original = radpoly.build_graded_basis
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            self.assertIsNot(radpoly.build_graded_basis, original)
            radpoly.build_graded_basis([radpoly.point_evaluation((0, 0))])
        finally:
            restore()
        self.assertIs(radpoly.build_graded_basis, original)
        self.assertIs(radpoly.cli.build_graded_basis, original)
        self.assertEqual(tracer.self_times()[1]["graded.build"], 1)


if __name__ == "__main__":
    unittest.main()
