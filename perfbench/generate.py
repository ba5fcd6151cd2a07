"""Seeded input generator for the radpoly benchmark (standard library only).

Every problem is derived from ``(seed, round, slot)`` alone, so the same seed
always yields byte-identical problem files, and rounds are independent of how
many rounds a run manages to finish.  Data follow the conventions of
``radpoly.verification``: integer points in [-5, 5]^d, integer values in
[-9, 9].

A round is a fixed list of problem shapes.  The benchmark runs whole rounds
only, so every run measures the same mix of shapes whatever its length.

Usage (writes one round of problem files for inspection):

    python3 perfbench/generate.py --workload points_both --seed 3 --round 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
from itertools import combinations_with_replacement

BOX = 5
VALUE_RANGE = 9
DEFAULT_SEED = 0

# points_both: (d, n, degenerate).  d = 1 allows at most 11 integer points in
# the box.  Four slots in twenty are degenerate sets: collinear in d = 2,
# coplanar in d = 3.  Shapes of similar cost are repeated around the middle
# and the top of the cost range, so that the median and the tail fall inside
# a group of like problems and do not jump between groups from run to run.
POINT_SHAPES = (
    (1, 10, False), (1, 11, False), (2, 10, False), (3, 10, False), (2, 8, True), (2, 12, False),
    (2, 13, False), (2, 13, False), (2, 13, False), (3, 12, False), (3, 12, False), (3, 12, False),
    (3, 10, True), (2, 10, True),
    (2, 16, False), (3, 12, True), (3, 16, False), (3, 16, False), (3, 16, False), (3, 16, False),
)

# hermite_moments: (d, m, degree cap) with n = m (d + 1) value-and-gradient
# functionals, n from 12 to 28; repeated shapes as for points_both.  Each cap
# is the smallest at which at least nine in ten random site sets give
# independent functionals; sites are redrawn until they do at that cap.
HERMITE_SHAPES = (
    (2, 4, 4), (3, 3, 3), (2, 5, 5), (3, 4, 3), (2, 6, 5),
    (3, 5, 3), (3, 5, 3), (2, 7, 5), (2, 7, 5), (2, 7, 5),
    (2, 8, 6), (3, 6, 4), (3, 6, 4), (3, 6, 4), (3, 7, 4),
)

# resolve_many: the site sets whose bases are built once per run, and how
# many solves (problems) one round holds per site set.
RESOLVE_SITES = ((2, 20), (3, 20))
RESOLVE_PER_ROUND = 4

# verify_all: consecutive verification seeds per round.
VERIFY_PER_ROUND = 4

# Small fixed problems run before timing with the default seed; their
# outputs are checked against recorded sha256 digests on every run.
WARMUP_POINT_SHAPES = ((2, 6, False), (3, 8, False), (2, 5, True))
WARMUP_HERMITE_SHAPES = ((2, 3, 3),)
WARMUP_RESOLVE_SITES = ((2, 8),)
WARMUP_VERIFY_SEEDS = 2

WORKLOADS = ("points_both", "hermite_moments", "resolve_many", "verify_all")

_PRIME = (1 << 61) - 1


def rng_for(seed: int, *labels) -> random.Random:
    """An independent stream for one problem, keyed by seed and labels."""
    return random.Random(":".join(str(x) for x in (seed,) + labels))


def _value(rng: random.Random) -> int:
    return rng.randint(-VALUE_RANGE, VALUE_RANGE)


def _distinct_points(rng: random.Random, d: int, n: int) -> list[tuple[int, ...]]:
    if n > (2 * BOX + 1) ** d:
        raise ValueError(f"the box holds fewer than {n} integer points in dimension {d}")
    seen: set[tuple[int, ...]] = set()
    points = []
    while len(points) < n:
        p = tuple(rng.randint(-BOX, BOX) for _ in range(d))
        if p not in seen:
            seen.add(p)
            points.append(p)
    return points


def _in_box(p) -> bool:
    return all(-BOX <= c <= BOX for c in p)


def _collinear_points(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """n distinct integer points on one line through the box in the plane."""
    while True:
        direction = rng.choice(((1, 0), (0, 1), (1, 1), (1, -1)))
        base = (rng.randint(-BOX, BOX), rng.randint(-BOX, BOX))
        line = [(base[0] + t * direction[0], base[1] + t * direction[1])
                for t in range(-2 * BOX, 2 * BOX + 1)]
        line = [p for p in line if _in_box(p)]
        if len(line) >= n:
            rng.shuffle(line)
            return line[:n]


def _coplanar_points(rng: random.Random, n: int) -> list[tuple[int, int, int]]:
    """n distinct integer points on a tilted plane z = a x + b y + c."""
    while True:
        a, b = rng.choice(((1, 0), (0, 1), (1, 1), (1, -1)))
        c = rng.randint(-2, 2)
        plane = [(x, y, a * x + b * y + c)
                 for x in range(-BOX, BOX + 1) for y in range(-BOX, BOX + 1)]
        plane = [p for p in plane if _in_box(p)]
        if len(plane) >= n:
            rng.shuffle(plane)
            return plane[:n]


def points_problem(rng: random.Random, d: int, n: int, degenerate: bool) -> dict:
    if degenerate:
        points = _collinear_points(rng, n) if d == 2 else _coplanar_points(rng, n)
    else:
        points = _distinct_points(rng, d, n)
    return {
        "dimension": d,
        "points": [list(p) for p in points],
        "values": [_value(rng) for _ in points],
    }


# ---------------------------------------------------------------------------
# Hermite problems


def _monomials(d: int, max_degree: int) -> list[tuple[int, ...]]:
    out = []
    for k in range(max_degree + 1):
        for combo in combinations_with_replacement(range(d), k):
            alpha = [0] * d
            for i in combo:
                alpha[i] += 1
            out.append(tuple(alpha))
    return out


def _derivative_moment(alpha, site, gamma) -> int:
    """(D^alpha x^gamma)(site) as an integer."""
    value = 1
    for a, g, x in zip(alpha, gamma, site):
        if g < a:
            return 0
        value *= math.factorial(g) // math.factorial(g - a) * x ** (g - a)
    return value


def _rank_mod_prime(rows: list[list[int]]) -> int:
    """Rank over GF(p); a lower bound for the rank over the rationals."""
    a = [[v % _PRIME for v in row] for row in rows]
    rank = 0
    n_cols = len(a[0]) if a else 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, len(a)) if a[r][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inverse = pow(a[rank][col], _PRIME - 2, _PRIME)
        for r in range(rank + 1, len(a)):
            if a[r][col]:
                factor = a[r][col] * inverse % _PRIME
                a[r] = [(v - factor * w) % _PRIME for v, w in zip(a[r], a[rank])]
        rank += 1
    return rank


def independent_at(cap: int, d: int, orders) -> bool:
    """Whether the functionals are independent on polynomials of degree <= cap.

    Certified by a full rank modulo a prime, which implies full rank over
    the rationals, so the graded elimination finds every pivot by ``cap``.
    """
    columns = _monomials(d, cap)
    rows = [[_derivative_moment(alpha, site, gamma) for gamma in columns] for site, alpha in orders]
    return _rank_mod_prime(rows) == len(orders)


def hermite_problem(rng: random.Random, d: int, m: int, cap: int) -> dict:
    """Value and first partial derivatives at m sites, solvable at ``cap``."""
    unit = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    while True:
        sites = _distinct_points(rng, d, m)
        orders = [(site, alpha) for site in sites for alpha in [(0,) * d] + unit]
        if independent_at(cap, d, orders):
            break
    return {
        "dimension": d,
        "degree_cap": cap,
        "functionals": [
            {"type": "derivative", "alpha": list(alpha), "at": list(site), "cap": 2 * cap}
            for site, alpha in orders
        ],
        "values": [_value(rng) for _ in orders],
    }


# ---------------------------------------------------------------------------
# resolve_many


def resolve_sites(seed: int, shapes=RESOLVE_SITES) -> list[list[tuple[int, ...]]]:
    return [_distinct_points(rng_for(seed, "sites", i), d, n) for i, (d, n) in enumerate(shapes)]


def resolve_problem(rng: random.Random, d: int, n: int, kind: str) -> dict:
    """One data set: a value vector, or a target polynomial of degree <= 3."""
    if kind == "data":
        return {"values": [_value(rng) for _ in range(n)]}
    monomials = _monomials(d, 3)
    chosen = sorted(rng.sample(range(len(monomials)), 4))
    return {"target": [[list(monomials[i]), rng.choice([-3, -2, -1, 1, 2, 3])] for i in chosen]}


# ---------------------------------------------------------------------------
# Rounds


def round_problems(workload: str, seed: int, round_index: int) -> list[dict]:
    """The problems of one round, each a dict with an ``id`` and its input."""
    if workload == "points_both":
        return [
            {"id": f"r{round_index}s{i}", "shape": [d, n, degenerate],
             "problem": points_problem(rng_for(seed, workload, round_index, i), d, n, degenerate)}
            for i, (d, n, degenerate) in enumerate(POINT_SHAPES)
        ]
    if workload == "hermite_moments":
        return [
            {"id": f"r{round_index}s{i}", "shape": [d, m, cap],
             "problem": hermite_problem(rng_for(seed, workload, round_index, i), d, m, cap)}
            for i, (d, m, cap) in enumerate(HERMITE_SHAPES)
        ]
    if workload == "resolve_many":
        out = []
        for j in range(RESOLVE_PER_ROUND):
            for s, (d, n) in enumerate(RESOLVE_SITES):
                i = j * len(RESOLVE_SITES) + s
                kind = "data" if j % 2 == 0 else "target"
                problem = resolve_problem(rng_for(seed, workload, round_index, i), d, n, kind)
                out.append({"id": f"r{round_index}s{i}", "site_set": s, "problem": problem})
        return out
    if workload == "verify_all":
        first = seed * 1_000_000 + round_index * VERIFY_PER_ROUND
        return [{"id": f"r{round_index}s{i}", "verify_seed": first + i} for i in range(VERIFY_PER_ROUND)]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_problems(workload: str) -> list[dict]:
    """Fixed small problems of the default seed, checked against digests."""
    seed = DEFAULT_SEED
    if workload == "points_both":
        return [
            {"id": f"w{i}", "problem": points_problem(rng_for(seed, "warmup", workload, i), d, n, deg)}
            for i, (d, n, deg) in enumerate(WARMUP_POINT_SHAPES)
        ]
    if workload == "hermite_moments":
        return [
            {"id": f"w{i}", "problem": hermite_problem(rng_for(seed, "warmup", workload, i), d, m, cap)}
            for i, (d, m, cap) in enumerate(WARMUP_HERMITE_SHAPES)
        ]
    if workload == "resolve_many":
        (d, n), = WARMUP_RESOLVE_SITES
        return [
            {"id": f"w{i}", "site_set": 0,
             "problem": resolve_problem(rng_for(seed, "warmup", workload, i), d, n, kind)}
            for i, kind in enumerate(("data", "target"))
        ]
    if workload == "verify_all":
        return [{"id": f"w{i}", "verify_seed": i} for i in range(WARMUP_VERIFY_SEEDS)]
    raise ValueError(f"unknown workload {workload!r}")


def problem_bytes(problem: dict) -> bytes:
    """The exact bytes of a problem file."""
    return (json.dumps(problem, indent=2, sort_keys=True) + "\n").encode("utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--out", required=True, help="directory for the problem files")
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for item in round_problems(args.workload, args.seed, args.round):
        with open(os.path.join(args.out, item["id"] + ".json"), "wb") as handle:
            handle.write(problem_bytes(item))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
