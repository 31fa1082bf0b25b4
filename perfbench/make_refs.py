"""Generate refs.json: exact walk-census tables of every benchmark kernel.

Run from the repository root at the commit whose outputs become the
reference:

    python3 perfbench/make_refs.py

For each kernel instance of the census and small_kernels workloads it takes
the program's ``walk_census`` and cross-checks it against an independent
oracle before writing it: every walk from ``enumerate_walks`` is classified
with ``classify`` and bucketed by its squared displacement, and the buckets
must match exactly; the resolved kernel's partition total must equal the
``math.fsum`` of ``path_amplitude`` over the same walks (criterion 2 of the
acceptance suite).  The tables do not depend on theta, mass, hbar or dt, so
the benchmark derives every seed's expected kernel outputs from them.
"""

from __future__ import annotations

import json
import math
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from anyonsim import (  # noqa: E402
    EndpointPair,
    LatticeSpec,
    PhysicsParams,
    classify,
    enumerate_walks,
    path_amplitude,
    resolved_kernel,
)
from anyonsim.config_space import walk_census  # noqa: E402

import jobs  # noqa: E402

PARTITION_PARAMS = PhysicsParams(mass=1.3, hbar=0.9)
PARTITION_DT = 0.7


def _squared_displacement(walk) -> int:
    total = 0.0
    for a, b in zip(walk.configs, walk.configs[1:]):
        for p, q in ((a.p1, b.p1), (a.p2, b.p2)):
            total += (q.x - p.x) ** 2 + (q.y - p.y) ** 2
    return int(total)


def reference(extent: int, start, end, n_steps: int) -> dict:
    lattice = LatticeSpec(extent=extent)
    endpoints = EndpointPair(lattice.config(*start), lattice.config(*end))
    census = walk_census(lattice, endpoints, n_steps)

    oracle: dict[tuple[int, int], int] = {}
    amplitudes = []
    for walk in enumerate_walks(lattice, endpoints, n_steps, dt=PARTITION_DT):
        key = (round(2 * classify(walk).winding), _squared_displacement(walk))
        oracle[key] = oracle.get(key, 0) + 1
        amplitudes.append(path_amplitude(walk, PARTITION_PARAMS))
    if oracle != census:
        raise SystemExit(f"walk_census disagrees with enumerate_walks on {extent} {start} {end} {n_steps}")

    unclassified = complex(math.fsum(a.real for a in amplitudes), math.fsum(a.imag for a in amplitudes))
    kernel = resolved_kernel(
        lattice, endpoints, n_steps, PARTITION_PARAMS, dt=PARTITION_DT, budget=jobs.RAISED_BUDGET
    )
    if not abs(kernel.total() - unclassified) <= jobs.REL_TOL * abs(unclassified):
        raise SystemExit(f"partition identity fails on {extent} {start} {end} {n_steps}")

    return {
        "extent": extent,
        "start": start,
        "end": end,
        "n_steps": n_steps,
        "walks": sum(census.values()),
        "buckets": len(census),
        "census": [[w2, ssq, count] for (w2, ssq), count in sorted(census.items())],
    }


def main() -> None:
    instances = [(e, s, t, n) for e, s, t, n in jobs.CRITERION_2]
    instances += [(e, s, t, n) for e, s, t, n, _, _ in jobs.CENSUS]
    kernels = {}
    for extent, start, end, n_steps in instances:
        key = jobs.census_key(extent, start, end, n_steps)
        if key not in kernels:
            kernels[key] = reference(extent, start, end, n_steps)
            print(f"{key}: {kernels[key]['walks']} walks in {kernels[key]['buckets']} buckets")
    doc = {
        "about": "walk counts per [doubled winding, total squared site displacement], "
        "from walk_census at the seed commit, checked against enumerate_walks + classify",
        "kernels": kernels,
    }
    with open(os.path.join(BENCH_DIR, "refs.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
