"""Record the sha256 digests of the warm-up outputs into digests.json.

    python3 perfbench/record_digests.py

Run from the root of a checkout.  Only outputs that pass the oracle are
recorded; the benchmark compares every later run against these digests.
Re-record only for a change that is meant to alter the outputs.
"""

from __future__ import annotations

import json
import sys

import generate
import run


def main() -> int:
    sys.path.insert(0, run.SRC)
    recorded = {}
    for workload in generate.WORKLOADS:
        warm, found = run.warm_up(run.Runner(workload), None)
        if warm.failed:
            print("\n".join(warm.messages), file=sys.stderr)
            return 1
        recorded[workload] = found
    with open(run.DIGESTS, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
