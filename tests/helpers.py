"""Shared test utilities: independent oracles, random walk generation, and
the checks of the declared surface of the package's record types.

The oracles here deliberately avoid the library's own code paths: walk
validity is re-derived from complex ratios, the permanent comes from Laplace
expansion, and winding checks go through the public path objects.
"""

from __future__ import annotations

import cmath
import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest

from anyonsim import DiscretePath, TwoParticleConfig

#: copy, deepcopy and a pickle round trip at every protocol, by name
CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{
        f"pickle{p}": lambda obj, p=p: pickle.loads(pickle.dumps(obj, protocol=p))
        for p in range(pickle.HIGHEST_PROTOCOL + 1)
    },
}


def check_record(cls, args, text):
    """The declared surface of a record type, on one tuple args of valid,
    already normalized field values: positional and keyword construction
    give the same record, which equals (and hashes like) the tuple args; its
    repr is text; copies and pickles round-trip; no field can be set."""
    record = cls(*args)
    assert type(record) is cls
    assert record == cls(**dict(zip(cls._fields, args))) == tuple(args)
    if not any(isinstance(v, dict) for v in args):
        assert hash(record) == hash(tuple(args))
    assert repr(record) == text
    for name, clone in CLONES.items():
        twin = clone(record)
        assert type(twin) is cls and twin == record, name
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def check_refusal(cls, args, bad, error, message):
    """The fields bad, put over the valid field values args, are refused
    with exactly error(message) by positional and keyword construction and
    by ``_replace`` on the valid record."""
    fields = {**dict(zip(cls._fields, args)), **bad}
    record = cls(*args)
    builds = {
        "positional": lambda: cls(*fields.values()),
        "keyword": lambda: cls(**fields),
        "_replace": lambda: record._replace(**bad),
    }
    for name, build in builds.items():
        with pytest.raises(error) as caught:
            build()
        assert type(caught.value) is error and str(caught.value) == message, name

MOVES = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))


def json_path(sites, dt=1.0):
    """lattice_path(sites, dt) in the JSON form of winding's file, built anew on each call."""
    return {"dt": dt, "configs": [[[a, b], [c, d]] for a, b, c, d in sites]}


def lattice_path(sites, dt=1.0, spacing=1.0):
    """Build a DiscretePath from (x1, y1, x2, y2) integer site tuples."""
    configs = tuple(
        TwoParticleConfig(a * spacing, b * spacing, c * spacing, d * spacing)
        for a, b, c, d in sites
    )
    return DiscretePath(dt=dt, configs=configs)


def relative_path(rel_points, dt=1.0, origin=(0.0, 0.0)):
    """Path with particle 2 pinned at origin and particle 1 at origin + r."""
    ox, oy = origin
    configs = tuple(
        TwoParticleConfig(ox + rx, oy + ry, ox, oy) for rx, ry in rel_points
    )
    return DiscretePath(dt=dt, configs=configs)


def antipodal_path(rel_points, dt=1.0):
    """Path with the particles at +/- r/2, so reversing r swaps the pair."""
    configs = tuple(
        TwoParticleConfig(rx / 2, ry / 2, -rx / 2, -ry / 2)
        for rx, ry in rel_points
    )
    return DiscretePath(dt=dt, configs=configs)


def brute_force_walks(extent, start, end, n_steps, moves=MOVES):
    """All valid walks by exhaustive product over joint move sequences.

    Validity is checked through an independent formulation: the per-step turn
    of the relative coordinate is the phase of the ratio of the relative
    positions as complex numbers, and a phase of exactly +/- pi is rejected.
    """
    joint = tuple(itertools.product(moves, moves))
    walks = []
    for seq in itertools.product(range(len(joint)), repeat=n_steps):
        sites = [start]
        ok = True
        for idx in seq:
            (dx1, dy1), (dx2, dy2) = joint[idx]
            x1, y1, x2, y2 = sites[-1]
            nxt = (x1 + dx1, y1 + dy1, x2 + dx2, y2 + dy2)
            if any(abs(v) > extent for v in nxt):
                ok = False
                break
            r_prev = complex(x1 - x2, y1 - y2)
            r_next = complex(nxt[0] - nxt[2], nxt[1] - nxt[3])
            if r_next == 0:
                ok = False
                break
            turn = cmath.phase(r_next / r_prev)
            if abs(turn) >= math.pi:
                ok = False
                break
            sites.append(nxt)
        if ok and sites[-1] == end:
            walks.append(tuple(sites))
    return walks


def direct_successors(extent, moves, end, sites, left):
    """(next_sites, ssq, dh) for each joint move, in (move of particle 1,
    move of particle 2) order, that the lattice step rule keeps, by one
    direct filter over all |moves|^2 joint moves.

    A joint move is kept when both particles stay within extent, each is
    within (left - 1) * reach Manhattan distance of its end site (reach the
    longest Manhattan length of a move), the particles do not coincide, and
    the relative vector does not turn by exactly pi.  ssq is the squared
    displacement of both particles; dh is 0 unless the relative vector
    changes half plane (polar angle in [0, pi) or not), and then the sign of
    the turn, read from the complex product r' * conj(r).
    """
    reach = max(abs(dx) + abs(dy) for dx, dy in moves)
    slack = (left - 1) * reach
    x1, y1, x2, y2 = sites
    r = complex(x1 - x2, y1 - y2)

    def upper(z):
        return z.imag > 0 or (z.imag == 0 and z.real > 0)

    kept = []
    for (dx1, dy1), (dx2, dy2) in itertools.product(moves, moves):
        nxt = (x1 + dx1, y1 + dy1, x2 + dx2, y2 + dy2)
        if any(abs(v) > extent for v in nxt):
            continue
        if any(abs(nxt[i] - end[i]) + abs(nxt[i + 1] - end[i + 1]) > slack for i in (0, 2)):
            continue
        nr = complex(nxt[0] - nxt[2], nxt[1] - nxt[3])
        turn = nr * r.conjugate()
        if nr == 0 or (turn.imag == 0 and turn.real < 0):
            continue
        dh = 0 if upper(nr) == upper(r) else (1 if turn.imag > 0 else -1)
        kept.append((nxt, dx1 * dx1 + dy1 * dy1 + dx2 * dx2 + dy2 * dy2, dh))
    return kept


def random_valid_walk(rng: random.Random, extent=3, n_steps=8, dt=1.0):
    """Uniformly random-ish valid lattice walk: random start, then a random
    valid joint move per step (stay-stay is always valid, so never stuck)."""
    while True:
        x1, y1, x2, y2 = (rng.randint(-extent, extent) for _ in range(4))
        if (x1, y1) != (x2, y2):
            break
    sites = [(x1, y1, x2, y2)]
    for _ in range(n_steps):
        x1, y1, x2, y2 = sites[-1]
        rx, ry = x1 - x2, y1 - y2
        candidates = []
        for dx1, dy1 in MOVES:
            nx1, ny1 = x1 + dx1, y1 + dy1
            if abs(nx1) > extent or abs(ny1) > extent:
                continue
            for dx2, dy2 in MOVES:
                nx2, ny2 = x2 + dx2, y2 + dy2
                if abs(nx2) > extent or abs(ny2) > extent:
                    continue
                nrx, nry = nx1 - nx2, ny1 - ny2
                if nrx == 0 and nry == 0:
                    continue
                if rx * nry - ry * nrx == 0 and rx * nrx + ry * nry < 0:
                    continue
                candidates.append((nx1, ny1, nx2, ny2))
        sites.append(rng.choice(candidates))
    return lattice_path(sites, dt=dt)


#: the float winding rule's allowance for rounding, in turns
WINDING_TOL = 1e-9


def turning(path):
    """Total signed turning of the relative vector, in radians, summed as
    the phases of the ratios of successive relative positions."""
    rs = [complex(c.p1.x - c.p2.x, c.p1.y - c.p2.y) for c in path.configs]
    return math.fsum(cmath.phase(b / a) for a, b in zip(rs, rs[1:]))


def relatives(path):
    """The relative vectors (x1 - x2, y1 - y2) of the path's configurations."""
    return [(x1 - x2, y1 - y2) for x1, y1, x2, y2 in path.configs]


def signed_angle(rx, ry, nrx, nry):
    """Signed rotation in (-pi, pi) carrying the direction of r = (rx, ry) to
    nr = (nrx, nry), counter-clockwise positive: atan2 of their cross and dot
    products.  Exactly antiparallel vectors raise ValueError, since the sign
    of a half-turn is not determined by its endpoints."""
    cross = rx * nry - ry * nrx
    dot = rx * nrx + ry * nry
    if cross == 0.0 and dot < 0.0:
        raise ValueError("vectors are exactly antiparallel")
    return math.atan2(cross, dot)


def summed_turns(rs):
    """The per-step oracle of the total angle of relative vectors rs: each
    step's :func:`signed_angle`, summed by fsum."""
    return math.fsum(signed_angle(*a, *b) for a, b in zip(rs, rs[1:]))


def turn_tolerance(n_steps, angle):
    """How far total_angle of an n_steps path may lie from its summed_turns
    angle: one ulp of pi per step, for each step's rounded products and
    atan2 and for the rounding of pi * w2, plus a few ulps of the angle for
    the final sums."""
    return n_steps * math.ulp(math.pi) + 4 * math.ulp(abs(angle) + math.pi)


def half_plane_crossings(path):
    """(k, sign) for each step k (config k -> k+1) whose two relative
    vectors, read per config from its four coordinates, lie in different
    halves of the plane (polar angle in [0, pi) or not); sign is that of the
    exact rational cross product of the two vectors."""
    rs = relatives(path)
    upper = [ry > 0 or (ry == 0 and rx > 0) for rx, ry in rs]
    out = []
    for k, ((ax, ay), (bx, by)) in enumerate(zip(rs, rs[1:])):
        if upper[k] != upper[k + 1]:
            cross = Fraction(ax) * Fraction(by) - Fraction(ay) * Fraction(bx)
            out.append((k, 1 if cross > 0 else -1))
    return out


def rounded_turns(turns, unit):
    """The float winding rule: turns rounded to a multiple of unit, refused
    (AssertionError) when more than WINDING_TOL turns away from one."""
    n = round(turns / unit)
    if abs(turns - n * unit) > WINDING_TOL:
        raise AssertionError(f"{turns} turns is not near a multiple of {unit}")
    return n * unit


def kinetic_sum(configs, dt):
    """The m = 1 kinetic action of the configurations, step by step in path
    order: the loop that ``amplitudes.action`` ran over a path's
    configurations before the validating pass took the sum over, kept as the
    oracle of that pass's sum."""
    total = 0.0
    for (ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2) in zip(configs, configs[1:]):
        d1x = bx1 - ax1
        d1y = by1 - ay1
        d2x = bx2 - ax2
        d2y = by2 - ay2
        try:
            total += (d1x * d1x + d1y * d1y + d2x * d2x + d2y * d2y) / (2.0 * dt)
        except OverflowError:  # an int sum of squares that no float holds, inf as a float sum
            total = math.inf
    return total


def vec2_action(path, mass=1.0):
    """Kinetic action summed step by step from the displacement vectors of
    the two particles, the formula that the float arithmetic of
    ``amplitudes.action`` replaces."""
    return mass * kinetic_sum(path.configs, path.dt)


def laplace_permanent(matrix):
    """Permanent by Laplace expansion along the first row."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = 0j
    for col in range(n):
        minor = [row[:col] + row[col + 1 :] for row in matrix[1:]]
        total += matrix[0][col] * laplace_permanent(minor)
    return total


def fsum_complex(values):
    """Exactly rounded complex sum (independent accumulation for oracles)."""
    values = list(values)
    return complex(
        math.fsum(v.real for v in values), math.fsum(v.imag for v in values)
    )
