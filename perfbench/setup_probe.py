"""One set-up sample for ``setup_s``, taken in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD

``run.py`` starts this with ``src/`` on PYTHONPATH.  It times the cold
import of ``radpoly.cli`` (what every CLI call pays) and then the workload's
warm-up problems, which still pay every first-call cost, each calibrated by
the reference kernel run in this same process.  Prints one JSON object.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import speed


def main() -> int:
    workload = sys.argv[1]
    before = speed.reference_s()
    start = perf_counter()
    import radpoly.cli  # noqa: F401  (the import is what is timed)
    import_raw = perf_counter() - start
    import_s = import_raw * speed.scale(before, speed.reference_s())

    import run

    warm, _ = run.warm_up(run.Runner(workload), None)
    print(json.dumps({"import_s": import_s, "warmup_s": warm.program_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
