"""Seeded job lists for the benchmark workloads, with their output checks.

A job is one ``anyonsim`` CLI invocation.  Instance geometry (lattice extent,
step counts, endpoints, grid sizes, walk length) is fixed per workload; the
seed chooses only the physical parameters (theta, mass, hbar, dt) and the
walk file, so the cost of a pass is comparable across seeds.

Expected outputs come from sources independent of the program under test:

* lattice kernels: census tables (walk counts per doubled winding and total
  squared displacement) generated once from the seed commit by make_refs.py,
  which cross-checks them against ``enumerate_walks`` + ``classify`` and the
  partition identity; the phases are summed here with ``math.fsum`` at the
  job's parameters;
* exchange and sweep: the closed form phi = theta/2 (+pi) and the closed-form
  action of the semicircular exchange;
* dephase: slope within 1% of m D^2/hbar, and the closed-form step actions;
* winding: the winding the walk generator built in, re-counted exactly by
  integer half-plane crossings.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import re
import statistics
from dataclasses import dataclass
from typing import Callable

# Tolerances are the acceptance suite's (tests/test_acceptance.py), never looser.
REL_TOL = 1e-12  # kernel amplitudes and fits: PARTITION_REL_TOL
AMP_TOL = 1e-10  # unit-modulus amplitudes printed to 12 digits: ORACLE_REL_TOL
ANGLE_TOL = 1e-9  # angles, radians mod 2*pi: INTERPOLATION_TOL
DEPHASING_REL_TOL = 0.01  # slope against m D^2 / hbar

TAU = 2.0 * math.pi
RAISED_BUDGET = 300_000_000  # above 25**6, the brute-force bound of an n=6 kernel

WORKLOADS = ("census", "paths", "small_kernels")

# (extent, start sites, end sites, n_steps): criterion 2 of the acceptance suite
CRITERION_2 = [
    (1, ((0, 0), (1, 0)), ((0, 0), (1, 0)), 3),
    (2, ((0, 0), (2, 0)), ((0, 0), (2, 0)), 3),
    (2, ((0, 0), (2, 0)), ((0, 0), (2, 0)), 4),
    (3, ((0, 0), (2, 0)), ((0, 0), (2, 0)), 4),
    (2, ((1, 0), (0, 0)), ((1, 0), (0, 0)), 4),
    (2, ((1, 1), (0, 0)), ((1, 1), (0, 0)), 4),
    (2, ((1, 0), (0, 0)), ((1, 0), (0, 0)), 5),
    (1, ((-1, 0), (1, 0)), ((1, 0), (-1, 0)), 4),
    (2, ((-1, 0), (1, 0)), ((1, 0), (-1, 0)), 4),
    (2, ((-1, 0), (1, 0)), ((1, 0), (-1, 0)), 5),
    (3, ((1, 1), (-1, -1)), ((-1, -1), (1, 1)), 5),
]

# (extent, start sites, end sites, n_steps, budget, workers)
CENSUS = [
    (2, ((1, 0), (0, 0)), ((1, 0), (0, 0)), 5, None, 1),
    (1, ((0, 0), (1, 0)), ((0, 0), (1, 0)), 6, RAISED_BUDGET, 1),
    (2, ((-1, 0), (1, 0)), ((1, 0), (-1, 0)), 6, RAISED_BUDGET, 1),
    (2, ((-1, 0), (1, 0)), ((1, 0), (-1, 0)), 6, RAISED_BUDGET, 2),
    (3, ((1, 1), (-1, -1)), ((-1, -1), (1, 1)), 6, RAISED_BUDGET, 1),
]

EXCHANGE_STEPS = 100_000
WALK_CONFIGS = 100_000
WALK_RING = 3  # particle 1 stays on the square ring max(|x|, |y|) = 3
DEPHASE_STEPS = (2_000, 4_000, 7_000, 12_000, 20_000)  # dt from ~1e-3 to ~1e-4
SWEEP_POINTS = 20_000
SWEEP_STEPS = 1_000


def census_key(extent: int, start, end, n_steps: int) -> str:
    """Name of a kernel instance in refs.json."""
    (a, b), (c, d) = start
    (e, f), (g, h) = end
    return f"e{extent}_n{n_steps}_{a},{b},{c},{d}_to_{e},{f},{g},{h}"


def load_refs(bench_dir: str) -> dict:
    with open(os.path.join(bench_dir, "refs.json"), encoding="utf-8") as fh:
        return json.load(fh)["kernels"]


Verdict = tuple[str, str] | None  # None, ("error", why) or ("wrong", why)


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]  # arguments after ``python -m anyonsim.cli``
    geometry: tuple  # the seed-independent shape of the instance
    check: Callable[[str, str, int], Verdict]
    census_key: str | None = None  # refs.json key when the job runs a walk census


# --- output checks -----------------------------------------------------------
#
# A verdict of "wrong" is an answer that disagrees with the reference (the
# run is then not correct); "error" is a broken CLI contract without a wrong
# answer: a traceback, an unexpected exit code, or a timeout.  Both count as
# failed jobs.


def _succeeds(compare: Callable[[str], str | None]) -> Callable[[str, str, int], Verdict]:
    def check(out: str, err: str, rc: int) -> Verdict:
        if rc != 0 or err:
            return ("error", f"exit {rc}: {err.strip().splitlines()[-1] if err.strip() else ''}")
        try:
            problem = compare(out)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            problem = f"unreadable output: {exc!r}"
        return ("wrong", problem) if problem else None

    return check


_ERROR_LINE = re.compile(r"anyonsim: (\w+): .+")


def _refused(error_name: str | None) -> Callable[[str, str, int], Verdict]:
    """One ``anyonsim: <Error>: ...`` line on stderr, exit 2, no stdout."""

    def check(out: str, err: str, rc: int) -> Verdict:
        if rc == 0:
            return ("wrong", "accepted a request that must be refused")
        lines = err.splitlines()
        match = _ERROR_LINE.fullmatch(lines[0]) if len(lines) == 1 else None
        if rc != 2 or match is None or out:
            return ("error", f"exit {rc}: {err.strip().splitlines()[-1] if err.strip() else ''}")
        if error_name is not None and match[1] != error_name:
            return ("wrong", f"refused with {match[1]}, expected {error_name}")
        return None

    return check


def _close(got: complex, want: complex, tol: float) -> bool:
    return abs(got - want) <= tol * abs(want)


def _angle_close(got: float, want: float) -> bool:
    return abs(math.remainder(got - want, TAU)) <= ANGLE_TOL


def _fsum_complex(values) -> complex:
    values = list(values)
    return complex(math.fsum(v.real for v in values), math.fsum(v.imag for v in values))


def _cplx(doc: dict) -> complex:
    return complex(doc["re"], doc["im"])


def _is_int(value, want: int) -> bool:
    return type(value) is int and value == want


# --- kernels -------------------------------------------------------------------


def kernel_job(name, ref, extent, start, end, n_steps, rng, budget=None, workers=1) -> Job:
    theta = rng.uniform(-TAU, TAU)
    mass = rng.uniform(0.8, 1.5)
    hbar = rng.uniform(0.8, 1.2)
    dt = rng.uniform(0.6, 1.2)
    argv = ["kernel", "--extent", str(extent), "--steps", str(n_steps)]
    argv += ["--start", *map(str, start[0] + start[1]), "--end", *map(str, end[0] + end[1])]
    argv += ["--dt", repr(dt), "--mass", repr(mass), "--hbar", repr(hbar)]
    argv += ["--theta", repr(theta), "--resolve"]
    if budget is not None:
        argv += ["--budget", str(budget)]
    if workers != 1:
        argv += ["--workers", str(workers)]

    kind = "Direct" if start == end else "Exchange"
    unit = mass / (2.0 * dt * hbar)
    partials = {}
    for w2 in sorted({w2 for w2, _, _ in ref["census"]}):
        partials[w2] = _fsum_complex(
            count * cmath.exp(1j * unit * ssq) for w, ssq, count in ref["census"] if w == w2
        )
    total = _fsum_complex(partials.values())
    weighted = _fsum_complex(cmath.exp(0.5j * theta * w2) * amp for w2, amp in partials.items())
    endpoints = {
        "start": [[float(v) for v in site] for site in start],
        "end": [[float(v) for v in site] for site in end],
    }

    def compare(out: str) -> str | None:
        doc = json.loads(out)
        keys = {"endpoints", "n_steps", "partition_total", "theta", "weighted_total", "partials"}
        if set(doc) != keys:
            return f"keys {sorted(doc)}"
        if doc["endpoints"] != endpoints or not _is_int(doc["n_steps"], n_steps):
            return "endpoints or n_steps differ"
        if doc["theta"] != theta:
            return f"theta {doc['theta']!r} != {theta!r}"
        got = [(p["kind"], p["winding"]) for p in doc["partials"]]
        want = [(kind, w2 / 2.0) for w2 in partials]
        if got != want:
            return f"classes {got} != {want}"
        for p, amp in zip(doc["partials"], partials.values()):
            if not _close(_cplx(p), amp, REL_TOL):
                return f"partial w={p['winding']}: {_cplx(p)} != {amp}"
        if not _close(_cplx(doc["partition_total"]), total, REL_TOL):
            return f"partition_total {_cplx(doc['partition_total'])} != {total}"
        if not _close(_cplx(doc["weighted_total"]), weighted, REL_TOL):
            return f"weighted_total {_cplx(doc['weighted_total'])} != {weighted}"
        return None

    geometry = ("kernel", extent, start, end, n_steps, budget, workers)
    return Job(name, tuple(argv), geometry, _succeeds(compare), census_key(extent, start, end, n_steps))


# --- the semicircular exchange: closed forms -------------------------------------


def _exchange_action(n_steps: int, dt: float, mass: float, radius: float = 1.0) -> float:
    """Kinetic action of the n-step semicircle: each particle moves a chord
    of squared length 4 r^2 sin^2(pi / 2n) per step."""
    chord_sq = 4.0 * radius**2 * math.sin(math.pi / (2 * n_steps)) ** 2
    return mass * n_steps * 2.0 * chord_sq / (2.0 * dt)


def _exchange_phi(theta: float, op_class: str) -> float:
    return theta / 2.0 + (math.pi if op_class == "fermion" else 0.0)


def _exchange_amplitude(theta, op_class, n_steps, dt, mass, hbar) -> complex:
    sign = 1.0 if op_class == "boson" else -1.0
    return sign * cmath.exp(1j * (theta / 2.0 + _exchange_action(n_steps, dt, mass) / hbar))


def exchange_job(rng) -> Job:
    theta = rng.uniform(-TAU, TAU)
    op_class = rng.choice(["boson", "fermion"])
    dt = rng.uniform(0.02, 0.1)
    mass = rng.uniform(0.5, 2.0)
    hbar = rng.uniform(0.5, 2.0)
    argv = ["exchange", "--steps", str(EXCHANGE_STEPS), "--dt", repr(dt), "--theta", repr(theta)]
    argv += ["--op-class", op_class, "--mass", repr(mass), "--hbar", repr(hbar)]
    amplitude = _exchange_amplitude(theta, op_class, EXCHANGE_STEPS, dt, mass, hbar)

    def compare(out: str) -> str | None:
        doc = json.loads(out)
        keys = {"kind", "winding", "total_angle", "n_flipped", "theta", "op_class", "phi", "amplitude"}
        if set(doc) != keys:
            return f"keys {sorted(doc)}"
        if (doc["kind"], doc["winding"], doc["op_class"]) != ("Exchange", 0.5, op_class):
            return f"class {doc['kind']} {doc['winding']} {doc['op_class']}"
        if not _is_int(doc["n_flipped"], 1) or doc["theta"] != theta:
            return f"n_flipped {doc['n_flipped']!r}, theta {doc['theta']!r}"
        if not abs(doc["total_angle"] - math.pi) <= ANGLE_TOL:
            return f"total_angle {doc['total_angle']!r} != pi"
        if not (0.0 <= doc["phi"] < TAU and _angle_close(doc["phi"], _exchange_phi(theta, op_class))):
            return f"phi {doc['phi']!r} for theta {theta!r} ({op_class})"
        if not _close(_cplx(doc["amplitude"]), amplitude, AMP_TOL):
            return f"amplitude {_cplx(doc['amplitude'])} != {amplitude}"
        return None

    return Job("exchange", tuple(argv), ("exchange", EXCHANGE_STEPS), _succeeds(compare))


def sweep_job(rng) -> Job:
    theta_min = rng.uniform(-TAU, 0.0)
    theta_max = theta_min + rng.uniform(TAU, 2.0 * TAU)
    dt = rng.uniform(0.02, 0.1)
    mass = rng.uniform(0.5, 2.0)
    hbar = rng.uniform(0.5, 2.0)
    argv = ["sweep", "--theta-min", repr(theta_min), "--theta-max", repr(theta_max)]
    argv += ["--points", str(SWEEP_POINTS), "--steps", str(SWEEP_STEPS), "--op-class", "both"]
    argv += ["--dt", repr(dt), "--mass", repr(mass), "--hbar", repr(hbar)]
    span = theta_max - theta_min
    thetas = [theta_min + i * span / (SWEEP_POINTS - 1) for i in range(SWEEP_POINTS)]

    def compare(out: str) -> str | None:
        lines = out.split("\n")
        if lines[0] != "theta,op_class,phi,re_amp,im_amp" or lines[-1] != "":
            return "CSV header or trailing newline"
        rows = lines[1:-1]
        if len(rows) != 2 * SWEEP_POINTS:
            return f"{len(rows)} rows, expected {2 * SWEEP_POINTS}"
        for i, row in enumerate(rows):
            theta, op_class = thetas[i // 2], ("boson", "fermion")[i % 2]
            t, cls, phi, re_amp, im_amp = row.split(",")
            if cls != op_class or not abs(float(t) - theta) <= ANGLE_TOL:
                return f"row {i}: theta {t} {cls}, expected {theta!r} {op_class}"
            if not _angle_close(float(phi), _exchange_phi(theta, op_class)):
                return f"row {i}: phi {phi} for theta {theta!r} ({op_class})"
            amplitude = _exchange_amplitude(theta, op_class, SWEEP_STEPS, dt, mass, hbar)
            if not _close(complex(float(re_amp), float(im_amp)), amplitude, AMP_TOL):
                return f"row {i}: amplitude {re_amp},{im_amp} != {amplitude}"
        return None

    return Job("sweep", tuple(argv), ("sweep", SWEEP_POINTS, SWEEP_STEPS), _succeeds(compare))


def dephase_job(rng) -> Job:
    duration = rng.uniform(1.8, 2.2)
    mass = rng.uniform(0.5, 2.0)
    hbar = rng.uniform(0.5, 2.0)
    dts = [duration / n for n in DEPHASE_STEPS]
    argv = ["dephase", "--dt-grid", ",".join(map(repr, dts)), "--duration", repr(duration)]
    argv += ["--mass", repr(mass), "--hbar", repr(hbar)]

    # first step of the n-step semicircle of radius 1: opposite chords 4 cos^2(pi/2n),
    # direct chords 4 sin^2(pi/2n), for each of the two particles
    samples = []
    for dt, n in zip(dts, DEPHASE_STEPS):
        half = math.pi / (2 * n)
        scale = mass / (2.0 * dt * hbar)
        samples.append((dt, n, scale * 8.0 * math.cos(half) ** 2, scale * 8.0 * math.sin(half) ** 2))
    predicted = mass * 2.0**2 / hbar
    xs, ys = [1.0 / s[0] for s in samples], [s[2] for s in samples]
    slope, intercept = statistics.linear_regression(xs, ys)
    residual = math.sqrt(math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)) / len(xs))
    scale = max(ys)  # intercept and residual are small differences of phases this large

    def compare(out: str) -> str | None:
        doc = json.loads(out)
        if set(doc) != {"slope", "predicted", "rel_error", "intercept", "residual", "samples"}:
            return f"keys {sorted(doc)}"
        got = [(s["dt"], s["n_steps"]) for s in doc["samples"]]
        if got != [(dt, n) for dt, n, _, _ in samples] or not all(type(n) is int for _, n in got):
            return f"samples {got}"
        for s, (_, _, phase_op, phase_dir) in zip(doc["samples"], samples):
            if not (_close(s["phase_op"], phase_op, REL_TOL) and _close(s["phase_dir"], phase_dir, REL_TOL)):
                return f"sample dt={s['dt']!r}: phases {s['phase_op']!r} {s['phase_dir']!r}"
        if not _close(doc["predicted"], predicted, REL_TOL):
            return f"predicted {doc['predicted']!r} != {predicted!r}"
        if not abs(doc["slope"] - predicted) <= DEPHASING_REL_TOL * predicted:
            return f"slope {doc['slope']!r} not within 1% of m D^2/hbar = {predicted!r}"
        if not _close(doc["slope"], slope, REL_TOL):
            return f"slope {doc['slope']!r} != fit {slope!r}"
        if not abs(doc["rel_error"] - abs(slope - predicted) / predicted) <= REL_TOL:
            return f"rel_error {doc['rel_error']!r}"
        if not (abs(doc["intercept"] - intercept) <= REL_TOL * scale and abs(doc["residual"] - residual) <= REL_TOL * scale):
            return f"intercept {doc['intercept']!r} or residual {doc['residual']!r}"
        return None

    return Job("dephase", tuple(argv), ("dephase", DEPHASE_STEPS), _succeeds(compare))


# --- the closed lattice walk for ``winding`` -----------------------------------


def _ring_sites(radius: int) -> list[tuple[int, int]]:
    """Sites with max(|x|, |y|) == radius in counter-clockwise order from (radius, 0)."""
    sites, x, y = [], radius, 0
    for dx, dy, n in ((0, 1, radius), (-1, 0, 2 * radius), (0, -1, 2 * radius), (1, 0, 2 * radius), (0, 1, radius)):
        for _ in range(n):
            sites.append((x, y))
            x, y = x + dx, y + dy
    return sites


def _upper(rx: int, ry: int) -> bool:
    return ry > 0 or (ry == 0 and rx > 0)


def closed_walk(rng: random.Random, n_configs: int) -> tuple[list, int]:
    """A valid closed lattice walk of n_configs configurations and its winding.

    Particle 1 runs a random bridge around the square ring of radius
    WALK_RING with a net of ``winding`` laps; particle 2 wanders inside the
    box max(|x|, |y|) <= 1 and returns to its start.  The pair is always at
    least 2 apart and the relative vector moves by at most 2 per step, so no
    configuration is coincident and no step turns by pi or more.  The winding
    is re-derived exactly by counting signed crossings between the half-planes
    of the relative vector (two per full turn).
    """
    ring = _ring_sites(WALK_RING)
    laps = rng.choice([-3, -2, -1, 1, 2, 3])
    steps = n_configs - 1
    back = (steps - len(ring) * abs(laps)) // 3
    forward = back + len(ring) * abs(laps)
    p1_moves = [1] * forward + [-1] * back + [0] * (steps - forward - back)
    rng.shuffle(p1_moves)
    if laps < 0:
        p1_moves = [-m for m in p1_moves]

    box_moves = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))
    k, (x2, y2) = 0, (0, 0)
    configs = [[list(ring[0]), [x2, y2]]]
    for i, m in enumerate(p1_moves):
        k += m
        if i < steps - 4:
            x2, y2 = rng.choice([(x2 + dx, y2 + dy) for dx, dy in box_moves if abs(x2 + dx) <= 1 and abs(y2 + dy) <= 1])
        elif x2:  # the last steps walk particle 2 home, one axis at a time
            x2 -= 1 if x2 > 0 else -1
        elif y2:
            y2 -= 1 if y2 > 0 else -1
        configs.append([list(ring[k % len(ring)]), [x2, y2]])
    if configs[-1] != configs[0] or k != laps * len(ring):
        raise AssertionError("walk generator did not close the walk")

    half_turns = 0
    rx, ry = configs[0][0][0] - configs[0][1][0], configs[0][0][1] - configs[0][1][1]
    for (a, b), (c, d) in configs[1:]:
        nrx, nry = a - c, b - d
        cross, dot = rx * nry - ry * nrx, rx * nrx + ry * nry
        if (nrx, nry) == (0, 0) or (cross == 0 and dot < 0):
            raise AssertionError("walk generator made an invalid step")
        if _upper(rx, ry) != _upper(nrx, nry):
            half_turns += 1 if cross > 0 else -1
        rx, ry = nrx, nry
    if half_turns != 2 * laps:
        raise AssertionError(f"walk winding {half_turns / 2} != {laps} laps")
    return configs, laps


def _winding_check(winding: int) -> Callable[[str, str, int], Verdict]:
    def compare(out: str) -> str | None:
        doc = json.loads(out)
        if set(doc) != {"kind", "winding", "total_angle"}:
            return f"keys {sorted(doc)}"
        if doc["kind"] != "Direct" or doc["winding"] != float(winding):
            return f"class {doc['kind']} {doc['winding']!r}, expected Direct {winding}"
        if not abs(doc["total_angle"] - TAU * winding) <= ANGLE_TOL:
            return f"total_angle {doc['total_angle']!r} != {TAU * winding!r}"
        return None

    return _succeeds(compare)


def write_path(file_name: str, dt: float, configs: list) -> None:
    with open(file_name, "w", encoding="utf-8") as fh:
        json.dump({"dt": dt, "configs": configs}, fh, separators=(",", ":"))


def winding_job(rng, work_dir: str) -> Job:
    configs, laps = closed_walk(rng, WALK_CONFIGS)
    file_name = os.path.join(work_dir, "walk.json")
    write_path(file_name, rng.uniform(0.01, 1.0), configs)
    return Job("winding", ("winding", file_name), ("winding", WALK_CONFIGS), _winding_check(laps))


def setup_probe(work_dir: str) -> Job:
    """The no-work invocation: ``winding`` on a 2-config path (start-up, import, argparse)."""
    file_name = os.path.join(work_dir, "probe.json")
    write_path(file_name, 1.0, [[[1, 0], [0, 0]], [[1, 0], [0, 0]]])
    return Job("setup_probe", ("winding", file_name), ("winding", 2), _winding_check(0))


# --- workloads -----------------------------------------------------------------


def make_jobs(workload: str, seed: int, refs: dict, work_dir: str) -> list[Job]:
    """The fixed job list of one pass; the same seed gives the same argv and files."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census":
        return [
            kernel_job(f"census{i}", refs[census_key(e, s, t, n)], e, s, t, n, rng, budget, workers)
            for i, (e, s, t, n, budget, workers) in enumerate(CENSUS)
        ]
    if workload == "paths":
        return [exchange_job(rng), winding_job(rng, work_dir), dephase_job(rng), sweep_job(rng)]
    if workload == "small_kernels":
        jobs = [
            kernel_job(f"criterion2_{i}", refs[census_key(e, s, t, n)], e, s, t, n, rng)
            for i, (e, s, t, n) in enumerate(CRITERION_2)
        ]
        # error paths: the default budget refuses 25**6 sequences; a half-integer
        # coordinate is off the lattice; a NaN time step must be refused too
        budget = ["kernel", "--extent", "2", "--steps", "6", "--start", "-1", "0", "1", "0"]
        budget += ["--end", "1", "0", "-1", "0", "--theta", repr(rng.uniform(-TAU, TAU)), "--resolve"]
        off = ["kernel", "--extent", "2", "--steps", "4", "--start", "0.5", "0", "1", "0"]
        off += ["--end", "0.5", "0", "1", "0", "--theta", repr(rng.uniform(-TAU, TAU))]
        nan = ["dephase", "--dt-grid", "nan,0.1,0.05", "--mass", repr(rng.uniform(0.5, 2.0))]
        jobs += [
            Job("budget_refusal", tuple(budget), ("kernel", 2, 6, "default budget"), _refused("BudgetExceeded")),
            Job("off_lattice", tuple(off), ("kernel", 2, 4, "off lattice"), _refused("EndpointOffLattice")),
            Job("nan_dt_grid", tuple(nan), ("dephase", "nan,0.1,0.05"), _refused(None)),
        ]
        return jobs
    raise ValueError(f"unknown workload {workload!r}")
