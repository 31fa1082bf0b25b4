"""Configuration space of two labeled particles in the plane.

Coincidence of the two particles is forbidden: removing the diagonal from the
two-particle space punctures the plane of the relative coordinate r = p1 - p2,
and it is that puncture which gives discrete paths a well-defined winding.
This module holds the value types (vectors, configurations, paths, lattices),
path validation, the one crossing rule that every winding count uses
(:func:`_crossing_sign`), and the two lattice walk counts that the propagator
machinery is built on: the walk-by-walk enumeration kept as an oracle, and
the transfer-matrix census bucketed by winding.  Both step by one rule,
:func:`_successors`: each particle's moves are filtered on their own, by the
lattice bounds and the reach to that particle's end site, once per state,
and only the pairs of moves that both keep are tested together, for
coincidence and, where r changes half, an exact antiparallel flip.

A configuration is the tuple of its four coordinates (x1, y1, x2, y2), with
Vec2 views of the two positions built on demand: a path is up to 10^5
configurations, every path computation reads only those floats, and a plain
tuple costs a fraction of the time and memory of two nested objects.  Every
configuration is built through a check that its coordinates are finite.

Every record reads its own fields, where they enter the package, with one
rule per kind of value.  A number is held as an int or a float
(:func:`_read_number`): an integer of another type, such as numpy's, whose
arithmetic wraps at 2^63, as the int it holds, and any other number, such as
numpy's float32, a 0-d array, a Fraction or a Decimal, as its float, so
every computation runs in Python's exact ints and correctly rounded floats;
one test, :func:`_is_finite`, says whether it is finite, and a refusal
quotes a value that is not a number (:func:`_shown`).  A count is read by
:func:`check_count`, and a choice, such as a statistics class or the sense
of an exchange, as the member of its enum that it is or whose value it is
(:func:`_read_choice`).  A path holds every configuration as a tuple, so no
caller's list is held.

A path is valid when no configuration is coincident and the relative vector
turns by strictly less than pi radians per step.  A step that keeps r in its
:func:`upper_half_plane` half turns by less than pi and needs no product at
all.  A step that changes half is signed by :func:`_crossing_sign`: the exact
sign of its cross product, taken in integers wherever the float product is 0
or NaN and may have lost it to overflow or underflow, so a path's class does
not depend on its scale.  An exactly antiparallel step always changes half,
and it is the only one there whose cross product is 0: it is rejected rather
than assigned a sign, since its winding would be ambiguous.  Every path is
built through that check, so every path object is valid and can be
classified.

The check is one pass, :func:`_walk`, over any iterable of configurations,
read once: it also records the crossings, the endpoints and, given dt, the
kinetic sum of the action.  It takes no angle: the total turning of a path is
fixed by its crossings and the directions of its first and last relative
vectors (:func:`~anyonsim.homotopy.total_angle`), so it is exact for closed
and exchange paths.  :class:`DiscretePath` runs the pass on its tuple and
holds its record; the CLI's ``exchange`` and ``winding`` run it on
configurations as they are made or decoded, and hold none of them
(:func:`_walk_from_json`).
"""

from __future__ import annotations

import math
import operator
from collections import defaultdict, namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import repeat

from .errors import (
    CoincidenceAtStep,
    EndpointOffLattice,
    TurnTooLargeAtStep,
    ValidationError,
)

#: stay + 4-neighborhood; 25 joint moves for the pair
DEFAULT_MOVES: tuple[tuple[int, int], ...] = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))

#: default cap on the joint-move sequence count (moves**2)**n_steps of a
#: lattice propagator (:func:`~anyonsim.amplitudes.resolved_kernel`)
DEFAULT_BUDGET = 10_000_000

_SNAP_TOL = 1e-9


def _record(name: str, fields: str) -> type:
    """The named tuple type of the record name with fields, the base of
    every record type of the package.

    A record unpacks, indexes, orders, compares, hashes and reprs as the
    named tuple; ``_make``, and so ``_replace``, build it through the
    subclass's own constructor, so they run its checks.  A record subclass
    sets ``__slots__ = ()`` and holds no instance dict; only a
    :class:`DiscretePath` has one, which holds its pass record.
    """
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, it: cls(*it))
    return base


#: the types that the package holds a number as, and that json gives a JSON
#: number as; bool, an int subclass, is not one
_NUMBERS = frozenset((int, float))


def _read_number(value):
    """value as the package holds a number: an int or a float as it is; any
    other integer, which has ``__index__`` (numpy's, a bool), as the int it
    holds, and a numpy bool, a scalar or a 0-d array, which has none, as the
    int that its bool holds; any other number, which has ``__float__``
    (numpy's floats, a Fraction, a Decimal, a 0-d numpy array, whose
    ``__index__`` refuses), as its float, a signaling NaN, which float()
    refuses, as a NaN.  Anything else, and a value that refuses its read (a
    Fraction past the float range, a 0-d numpy string array that does not
    parse), is returned as it is, for the caller's check to refuse and
    quote."""
    if type(value) in _NUMBERS:
        return value
    try:
        if hasattr(value, "__index__"):
            try:
                return operator.index(value)
            except TypeError:  # a 0-d numpy float or bool array
                pass
        kind = getattr(getattr(value, "dtype", None), "kind", None)
        if kind == "b" and getattr(value, "ndim", None) == 0:  # a numpy bool
            return operator.index(bool(value))
        return float(value) if hasattr(value, "__float__") else value
    except (TypeError, OverflowError):
        return value
    except ValueError:
        # float() refuses a signaling NaN, and a string that does not parse
        is_snan = getattr(value, "is_snan", None)
        return math.nan if is_snan is not None and is_snan() else value


def _is_finite(read) -> bool:
    """True when read, a value as :func:`_read_number` reads it, is an int
    or a float and finite; an int past the float range is not: the one
    finiteness test of a read number."""
    try:
        return type(read) in _NUMBERS and math.isfinite(read)
    except OverflowError:  # an int past the float range
        return False


def _shown(value) -> str:
    """value as a refusal names it: as it prints when it reads as a number
    (a signaling NaN as sNaN, a numpy float as its digits), else its repr,
    so that the string "1" is shown as '1'."""
    return f"{value}" if type(_read_number(value)) in _NUMBERS else repr(value)


def _check_number(name: str, value, rule: str, above: float) -> int | float:
    """value as :func:`_read_number` reads it; ValidationError, which names
    the rule, unless that is finite (:func:`_is_finite`) and > above."""
    read = _read_number(value)
    if _is_finite(read) and read > above:
        return read
    raise ValidationError(f"{name} must be {rule}, got {_shown(value)}")


def check_finite(name: str, value) -> int | float:
    """value as :func:`_read_number` reads it; ValidationError unless it is finite."""
    return _check_number(name, value, "finite", -math.inf)


def check_finite_positive(name: str, value) -> int | float:
    """value as :func:`_read_number` reads it; ValidationError unless it is finite and > 0."""
    return _check_number(name, value, "finite and > 0", 0)


def _read_choice(name: str, choices: type, value):
    """value as a member of the enum choices, as ``choices(value)`` reads
    it: a member as it is, and a member's value (such as "boson" or "ccw")
    as that member.  Anything else, a member of another enum too, is refused
    with ValidationError, which names the allowed values."""
    try:
        return choices(value)
    except ValueError:
        raise ValidationError(f"{name} must be {' or '.join(repr(m.value) for m in choices)}, got {value!r}") from None


def _iterate(value, what: str) -> Iterator:
    """iter(value); a value that is not iterable is refused with ValidationError."""
    try:
        return iter(value)
    except TypeError:
        raise ValidationError(f"{what}, got {value!r}") from None


def _check_pair(x, y) -> tuple:
    """(x, y) as :func:`_read_number` reads them; ValidationError unless
    both are finite (:func:`_is_finite`), what is not a number included."""
    x, y = _read_number(x), _read_number(y)
    if _is_finite(x) and _is_finite(y):
        return x, y
    raise ValidationError(f"non-finite vector component ({_shown(x)}, {_shown(y)})")


def check_count(name: str, value) -> int:
    """value as an int; anything that operator.index refuses is refused with ValidationError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def _count_at_least(name: str, value, least: int) -> int:
    """value as :func:`check_count` reads it; ValidationError unless it is >= least."""
    count = check_count(name, value)
    if count < least:
        raise ValidationError(f"{name} must be >= {least}, got {count}")
    return count


def _read_config(values):
    """The configuration that a path holds for values, an iterable of
    numbers: a tuple of ints and floats (a TwoParticleConfig among them) as
    it is, a list of them, the common case after it, copied into a tuple,
    and any other iterable, such as a numpy array row or a one-shot
    iterator, read into a tuple of :func:`_read_number`'s ints and floats.
    Values that are not iterable or include an item that is not a number
    (such as a string) are returned as they are, for the path's pass to
    refuse."""
    try:
        if isinstance(values, (tuple, list)) and {*map(type, values)} <= _NUMBERS:
            return values if isinstance(values, tuple) else tuple(values)
        read = tuple(map(_read_number, values))
    except TypeError:  # not iterable
        return values
    return read if {*map(type, read)} <= _NUMBERS else values


class Vec2(_record("Vec2", "x y")):
    """A point or displacement in the plane. Components must be finite
    numbers, held as :func:`_read_number` reads them."""

    __slots__ = ()

    def __new__(cls, x: float, y: float) -> Vec2:
        return tuple.__new__(cls, _check_pair(x, y))


class TwoParticleConfig(_record("TwoParticleConfig", "x1 y1 x2 y2")):
    """Positions of the two labeled particles, the coordinates (x1, y1, x2, y2).

    Unpacks, indexes, orders and compares equal like the plain 4-tuple of its
    coordinates; ``p1`` and ``p2`` are read back as Vec2.  Built, also by
    ``_replace``, through the check that its coordinates are finite, p1's
    pair first, with the message Vec2 gives, and holds them as
    :func:`_read_number` reads them.  Coincidence is refused by the path that
    holds the configuration, with the index of the configuration in it
    (:func:`validate_path`).
    """

    __slots__ = ()

    def __new__(cls, x1: float, y1: float, x2: float, y2: float) -> TwoParticleConfig:
        return tuple.__new__(cls, _check_pair(x1, y1) + _check_pair(x2, y2))

    @property
    def p1(self) -> Vec2:
        return Vec2(self[0], self[1])

    @property
    def p2(self) -> Vec2:
        return Vec2(self[2], self[3])


def swap(config: TwoParticleConfig) -> TwoParticleConfig:
    """Exchange the two particle labels. Involutive."""
    x1, y1, x2, y2 = config
    return TwoParticleConfig(x2, y2, x1, y1)


def _check_dt_and_length(dt: float, n_configs: int) -> int | float:
    """The checks of a path before its validating pass: dt, then its
    length; returns dt as :func:`check_finite_positive` reads it."""
    dt = check_finite_positive("dt", dt)
    if n_configs < 2:
        raise ValidationError("a path needs at least two configurations")
    return dt


class DiscretePath(_record("DiscretePath", "dt configs")):
    """A uniformly time-stepped sequence of two-particle configurations.

    Unpacks, orders, compares and hashes as the tuple (dt, configs); built,
    also by ``_replace``, copy and pickle, through the checks below and then
    :func:`validate_path`, so every path is valid.  Each configuration is
    held as :func:`_read_config` reads it, as a tuple, so no caller's list is
    held and a path hashes; a TwoParticleConfig as its constructor has read
    it.  The instance dict holds only what that pass records, as
    :class:`_Walk` names it: ``crossings``, the steps whose relative vector
    changes :func:`upper_half_plane` half, as (k, sign) for
    step k (config k -> k+1) in path order, sign that step's
    :func:`_crossing_sign` (+1 counter-clockwise, -1 clockwise, so the signs
    sum to twice the winding), which :func:`~anyonsim.homotopy.classify` and
    :func:`~anyonsim.homotopy.total_angle` read; ``start`` and ``end``, the
    first and last configuration; ``n_steps``; and the kinetic sum that
    :func:`~anyonsim.amplitudes.action` reads.
    """


    def __new__(cls, dt: float, configs: Sequence[TwoParticleConfig]) -> DiscretePath:
        configs = tuple(_iterate(configs, "configs must be an iterable of configurations"))
        if set(map(type, configs)) != {TwoParticleConfig}:  # whose constructor has read them
            configs = tuple(map(_read_config, configs))
        path = tuple.__new__(cls, (_check_dt_and_length(dt, len(configs)), configs))
        validate_path(path)
        return path

    def __reduce__(self):
        # a copy or a pickle is built anew, through the validating pass
        return type(self), tuple(self)


class EndpointPair(_record("EndpointPair", "start end")):
    """Initial and final configuration of a propagator."""

    __slots__ = ()


def _check_move(move) -> tuple[int, int]:
    """move, made a tuple, as a pair of counts (dx, dy); anything but an
    iterable of two, or a component that is not an integer, is refused with
    ValidationError."""
    move = tuple(_iterate(move, "a move must be a pair (dx, dy)"))
    if len(move) != 2:
        raise ValidationError(f"a move must be a pair (dx, dy), got {move!r}")
    return check_count("move dx", move[0]), check_count("move dy", move[1])


class LatticeSpec(_record("LatticeSpec", "extent spacing moves")):
    """Square lattice of sites (i, j) * spacing with |i|, |j| <= extent."""

    __slots__ = ()

    def __new__(
        cls, extent: int, spacing: float = 1.0, moves: Sequence[tuple[int, int]] = DEFAULT_MOVES
    ) -> LatticeSpec:
        extent = _count_at_least("extent", extent, 1)
        spacing = check_finite_positive("spacing", spacing)
        moves = _iterate(moves, "moves must be an iterable of (dx, dy) pairs")
        return tuple.__new__(cls, (extent, spacing, tuple(_check_move(m) for m in moves)))

    def config(self, site1: tuple[int, int], site2: tuple[int, int]) -> TwoParticleConfig:
        (i1, j1), (i2, j2) = site1, site2
        sp = self.spacing
        return TwoParticleConfig(i1 * sp, j1 * sp, i2 * sp, j2 * sp)


def upper_half_plane(rx: float, ry: float) -> bool:
    """True when the polar angle of (rx, ry) lies in [0, pi).

    Exactly one of r and -r satisfies this for r != 0, so an exactly
    antiparallel step always changes half, and a positive multiple of r
    never does.  The comparisons are exact, with no trigonometry.  The
    fundamental domain: a step is signed by :func:`_crossing_sign` only
    where it changes this half, a test that :func:`_walk` and
    :func:`_successors` write inline, each reading a state's half once.
    """
    return ry > 0 or (ry == 0 and rx > 0)


def _crossing_sign(rx: float, ry: float, nrx: float, nry: float) -> int:
    """The exact sign (+1, 0 or -1) of the cross product of r = (rx, ry) and
    nr = (nrx, nry), the one crossing rule: taken only where r steps to nr
    across the boundary of the :func:`upper_half_plane` halves, where it is
    the change of the half-turn sheet index (sheet h holds the lifted polar
    angles in [h*pi, (h+1)*pi)), and where it is 0 only for an exactly
    antiparallel step, which has no sign and is refused.

    Rounding is monotone, so a float cross product that is neither 0 nor NaN
    has that sign; any other is built in integers from the exact ratios of
    the four components, so nothing rounds, overflows or underflows.  Int
    components give an int product, exact already.
    """
    cross = rx * nry - ry * nrx
    if not cross or cross != cross:
        (a, b), (c, d), (e, f), (g, h) = (v.as_integer_ratio() for v in (rx, ry, nrx, nry))
        # the cross product times the positive b * d * f * h
        cross = a * g * d * f - c * e * b * h
    return 1 if cross > 0 else -1 if cross < 0 else 0


class _Walk:
    """What the one validating pass, :func:`_walk`, records of a path, and
    what a :class:`DiscretePath`, on which the pass records it, holds.

    ``crossings`` and the kinetic sum (when the pass was given dt);
    ``start`` and ``end``, the first and last configuration; and
    ``n_steps``, the index of the last configuration read.
    :func:`~anyonsim.homotopy.classify`,
    :func:`~anyonsim.homotopy.total_angle` and
    :func:`~anyonsim.amplitudes.action` read it as they read a path.
    """

    __slots__ = ("crossings", "_kinetic", "start", "end", "n_steps")


def _walk(configs: Iterable, dt: float | None, walked: _Walk | DiscretePath) -> _Walk | DiscretePath:
    """The one validating pass over configs, any iterable of configurations,
    read once and never held: the checks of :func:`validate_path`, in its
    order, with its errors.  Records on walked, a :class:`_Walk` or the path
    of configs, and returns it, what :class:`_Walk` holds, ``n_steps`` also
    when it raises: ``crossings``, the steps that change
    :func:`upper_half_plane` half, as (k, sign), and, given dt (else None),
    the kinetic sum that :func:`~anyonsim.amplitudes.action` reads.  An
    error raised by configs itself is not caught.  A path of fewer than two
    configurations, or a dt, is not refused here.

    Only a step that changes half is signed, by :func:`_crossing_sign`, so
    every crossing of a valid path has its exact sign; a zero sign there is
    an exactly antiparallel step, the only one refused.  A step that stays
    in its half takes no product.  Coordinates are taken as they are: every
    number was read once, as an int or a float, where its configuration or
    path was built (:func:`_read_number`), not here.

    Given dt, each step's m = 1 kinetic term (|dp1|^2 + |dp2|^2) / (2 dt) is
    added up with ``+=`` in path order; a term whose int sum of squares no
    float holds is inf, as the float sum of those squares would be.
    """
    isfinite = math.isfinite
    two_dt, kinetic = (None, None) if dt is None else (2.0 * dt, 0.0)
    k, item, flips = -1, None, []
    try:
        for k, item in enumerate(configs):
            try:
                x1, y1, x2, y2 = item
                if x1 == x2 and y1 == y2:
                    raise CoincidenceAtStep(k)
                nrx, nry = x1 - x2, y1 - y2
                try:
                    finite = isfinite(nrx) and isfinite(nry)
                except OverflowError:  # an int past the float range
                    finite = False
                if not finite:
                    _check_pair(nrx, nry)  # raises its ValidationError
                nupper = nry > 0 or (nry == 0 and nrx > 0)
                if k:  # rx, ry, upper and ax1 .. ay2 are configuration k - 1's, set below
                    if nupper != upper:
                        sign = _crossing_sign(rx, ry, nrx, nry)
                        if not sign:
                            raise TurnTooLargeAtStep(k - 1)
                        flips.append((k - 1, sign))
                    if two_dt is not None:
                        d1x, d1y = x1 - ax1, y1 - ay1
                        d2x, d2y = x2 - ax2, y2 - ay2
                        try:
                            kinetic += (d1x * d1x + d1y * d1y + d2x * d2x + d2y * d2y) / two_dt
                        except OverflowError:  # an int sum of squares that no float holds
                            kinetic = math.inf
                else:
                    walked.start = item
            except (TypeError, ValueError):
                raise ValidationError(f"configuration {k} is not four coordinates: {item!r}") from None
            rx, ry, upper = nrx, nry, nupper
            ax1, ay1 = x1, y1
            ax2, ay2 = x2, y2
    finally:
        walked.n_steps = k
    walked.end, walked._kinetic, walked.crossings = item, kinetic, tuple(flips)
    return walked


def validate_path(path: DiscretePath) -> None:
    """The one validating pass over a path, which :class:`DiscretePath` runs
    on every path it builds; raises on the first invariant violation.

    Checks, in path order for each configuration: four real coordinates
    (ValidationError with the config index and the item, from the unpacking
    or the arithmetic that fails on anything else), no coincidence
    (CoincidenceAtStep with the config index), a finite relative vector
    r = p1 - p2 (ValidationError), a turn of strictly less than pi from the
    previous r (TurnTooLargeAtStep with the step index, config k -> k+1;
    only an exactly antiparallel step, the zero sign of
    :func:`_crossing_sign` at a change of half).  Every crossing of a path
    that passes has the exact sign of :func:`_crossing_sign`, so a valid
    path can always be classified, at any scale.  :func:`_walk` records on
    the path what :class:`_Walk` holds: its ``crossings``, ``start``,
    ``end``, ``n_steps`` and kinetic sum.
    """
    _walk(path.configs, path.dt, path)


def reverse_path(path: DiscretePath) -> DiscretePath:
    return DiscretePath(path.dt, path.configs[::-1])


def concat_paths(first: DiscretePath, second: DiscretePath) -> DiscretePath:
    """Join two paths sharing a junction configuration (and time step)."""
    if first.dt != second.dt:
        raise ValidationError("cannot concatenate paths with different dt")
    if first.configs[-1] != second.configs[0]:
        raise ValidationError("paths do not share a junction configuration")
    return DiscretePath(first.dt, first.configs + second.configs[1:])


# --- JSON form used by the CLI: {"dt": ..., "configs": [[[x1,y1],[x2,y2]], ...]}


def _configs_from_json(pairs) -> Iterator[tuple[float, float, float, float]]:
    """The coordinates (x1, y1, x2, y2) of JSON position pairs [[x1, y1], [x2, y2]],
    as floats that TwoParticleConfig admits, in plain tuples (a
    TwoParticleConfig where their sum overflows).

    A generator: the pairs are read once, in order, as the configurations are
    asked for, so they may come from a generator too.  A position that is not
    a pair, or a coordinate that is not a JSON number (a string, a boolean),
    is refused with TypeError or ValueError, and one that is not finite with
    TwoParticleConfig's ValidationError.
    """
    isfinite = math.isfinite
    number = _NUMBERS
    for (x1, y1), (x2, y2) in pairs:
        if not (type(x1) in number and type(y1) in number
                and type(x2) in number and type(y2) in number):
            raise TypeError(f"coordinates must be numbers, got {[[x1, y1], [x2, y2]]!r}")
        x1, y1, x2, y2 = float(x1), float(y1), float(x2), float(y2)
        # finite coordinates have a finite sum unless it overflows; then the constructor checks them
        if isfinite(x1 + y1 + x2 + y2):
            yield x1, y1, x2, y2
        else:
            yield TwoParticleConfig(x1, y1, x2, y2)


def _as_configs(coords: Iterable[tuple]) -> Iterator[TwoParticleConfig]:
    """TwoParticleConfig views of tuples of four finite coordinates, made
    without the finiteness check that they have passed."""
    return map(tuple.__new__, repeat(TwoParticleConfig), coords)


def _dt_from_json(data: dict) -> float:
    dt = data["dt"]
    if type(dt) not in _NUMBERS:
        raise TypeError(f"dt must be a number, got {dt!r}")
    return float(dt)


#: what reading the JSON form raises where the form is malformed
_MALFORMED = (KeyError, TypeError, ValueError, IndexError, OverflowError)


def path_from_json_dict(data: dict) -> DiscretePath:
    """The path of the JSON form {"dt": ..., "configs": [[[x1, y1], [x2, y2]], ...]}.

    Anything else, down to a coordinate or dt that is not a JSON number or a
    position that is not a pair, is refused with ValidationError.

    ``configs`` is converted before ``dt`` is read, so it may be a generator
    that puts ``dt`` into data as it goes, and a bad pair is reported before
    a bad ``dt``.
    """
    try:
        configs = tuple(_as_configs(_configs_from_json(data["configs"])))
        dt = _dt_from_json(data)
    except _MALFORMED as exc:
        raise ValidationError(f"malformed path JSON: {exc}") from exc
    return DiscretePath(dt=dt, configs=configs)


def _walk_from_json(data: dict) -> _Walk:
    """The :func:`_walk` of the path of the JSON form, with no configuration
    held, and with :func:`path_from_json_dict`'s outcome: the same record of
    the same path, or the same error.

    So its refusals come in that function's order: a malformed form or pair
    anywhere in ``configs``; then a missing or bad ``dt``; then fewer than
    two configurations; and only then the first defect of the path.  A defect
    that the pass meets therefore waits while the rest of ``configs`` is
    converted and ``dt`` is read.
    """
    defect, walked = None, _Walk()
    try:
        configs = _configs_from_json(data["configs"])
        try:
            _walk(configs, None, walked)
        except ValidationError as exc:
            if configs.gi_frame is None:  # raised by a pair, which comes first
                raise
            defect = exc
            walked.n_steps += sum(1 for _ in configs)
        dt = _dt_from_json(data)
    except _MALFORMED as exc:
        raise ValidationError(f"malformed path JSON: {exc}") from exc
    _check_dt_and_length(dt, walked.n_steps + 1)
    if defect is not None:
        raise defect
    return walked


# --- lattice walks -----------------------------------------------------------


def _snap_to_sites(lattice: LatticeSpec, config: TwoParticleConfig) -> tuple[int, int, int, int]:
    """Map a lattice endpoint, a configuration, to integer site coordinates,
    or fail: anything but four numbers with ValidationError, which names the
    endpoint, and a coordinate off the lattice, as :func:`_read_number`
    reads it, with EndpointOffLattice."""
    sites = []
    try:
        x1, y1, x2, y2 = config
        for v in map(_read_number, (x1, y1, x2, y2)):
            try:
                scaled = v / lattice.spacing
                # a huge v or a tiny spacing overflows the quotient to inf, which round() refuses
                i = round(scaled) if math.isfinite(scaled) else None
            except OverflowError:  # an int past the float range
                i = None
            if i is None or abs(scaled - i) > _SNAP_TOL or abs(i) > lattice.extent:
                raise EndpointOffLattice(
                    f"coordinate {v} is not a lattice site (spacing {lattice.spacing}, extent {lattice.extent})"
                )
            sites.append(i)
    except (TypeError, ValueError):
        raise ValidationError(f"a lattice endpoint must be four numbers, got {config!r}") from None
    return tuple(sites)


def _walk_setup(lattice: LatticeSpec, endpoints: EndpointPair, n_steps: int):
    """The setup of both lattice walk counts: the start and end snapped to
    sites (:func:`_snap_to_sites`, start first), then n_steps an integer
    >= 1 and neither end coincident (ValidationError, in that order);
    returns the start sites, the end sites and the step rule
    :func:`_successors` to them.
    """
    start4 = _snap_to_sites(lattice, endpoints.start)
    end4 = _snap_to_sites(lattice, endpoints.end)
    _count_at_least("n_steps", n_steps, 1)
    if start4[0] == start4[2] and start4[1] == start4[3]:
        raise ValidationError("start configuration is coincident")
    if end4[0] == end4[2] and end4[1] == end4[3]:
        raise ValidationError("end configuration is coincident")
    return start4, end4, _successors(lattice, end4)


def _successors(lattice: LatticeSpec, end4: tuple[int, int, int, int]):
    """The step rule of every lattice walk, as a generator function.

    The returned ``step(sites, left)`` yields ``(next_sites, ssq, dh)`` for
    each joint move, in (move of particle 1, move of particle 2) order, that
    keeps both particles on the lattice, leaves each within reach of its end
    site in the remaining ``left - 1`` steps, avoids coincidence and does not
    flip the relative vector exactly antiparallel.  The first two tests are
    each particle's own: its moves are filtered by them once per state, and
    only the pairs of moves that both keep are tested together.  ``ssq`` is
    the squared site displacement of the joint move.  ``dh`` is the change of
    the half-turn sheet index: 0 for a move that keeps r in its
    :func:`upper_half_plane` half, which the state's own half is read once
    for, and else :func:`_crossing_sign`, whose zero is the antiparallel
    flip that is skipped.
    """
    extent = lattice.extent
    moves = tuple((dx, dy, dx * dx + dy * dy) for dx, dy in lattice.moves)
    # one move shortens a particle's Manhattan distance to its end site by at most reach
    reach = max((abs(dx) + abs(dy) for dx, dy, _ in moves), default=0)
    e1x, e1y, e2x, e2y = end4

    def kept(x, y, ex, ey, slack):
        # the sites, with their squared displacements, that one particle's moves may reach
        out = []
        for dx, dy, cost in moves:
            nx = x + dx
            ny = y + dy
            if -extent <= nx <= extent and -extent <= ny <= extent and abs(nx - ex) + abs(ny - ey) <= slack:
                out.append((nx, ny, cost))
        return out

    def step(sites, left):
        x1, y1, x2, y2 = sites
        rx = x1 - x2
        ry = y1 - y2
        upper = ry > 0 or (ry == 0 and rx > 0)
        slack = (left - 1) * reach
        second = kept(x2, y2, e2x, e2y, slack)
        for nx1, ny1, cost1 in kept(x1, y1, e1x, e1y, slack):
            for nx2, ny2, cost2 in second:
                nrx = nx1 - nx2
                nry = ny1 - ny2
                if nrx == 0 and nry == 0:
                    continue
                dh = 0
                if (nry > 0 or (nry == 0 and nrx > 0)) != upper:
                    dh = _crossing_sign(rx, ry, nrx, nry)
                    if not dh:
                        continue
                yield (nx1, ny1, nx2, ny2), cost1 + cost2, dh

    return step


def enumerate_walks(
    lattice: LatticeSpec,
    endpoints: EndpointPair,
    n_steps: int,
    dt: float = 1.0,
) -> Iterator[DiscretePath]:
    """Yield every valid n_steps-walk between the endpoints.

    Each particle makes one lattice move per step; no configuration along a
    yielded walk is coincident and every step turns the relative vector by
    less than pi.  Walks are produced in lexicographic order of joint move
    indices, so the stream is deterministic.  This walk-by-walk enumeration
    is the reference that :func:`walk_census` is tested against.
    """
    start4, _, step = _walk_setup(lattice, endpoints, n_steps)
    sp = lattice.spacing

    def rec(sites, left, trail):
        # reachability leaves only the end sites once no step is left
        if left == 0:
            yield trail
            return
        for nxt, _cost, _dh in step(sites, left):
            yield from rec(nxt, left - 1, trail + (nxt,))

    for trail in rec(start4, n_steps, (start4,)):
        configs = tuple(TwoParticleConfig(a * sp, b * sp, c * sp, d * sp) for a, b, c, d in trail)
        yield DiscretePath(dt=dt, configs=configs)


def walk_census(
    lattice: LatticeSpec,
    endpoints: EndpointPair,
    n_steps: int,
) -> dict[tuple[int, int], int]:
    """Count valid walks, bucketed by (doubled winding, squared displacement).

    Keys are (w2, ssq) where w2 = 2 * winding in full turns (an integer for
    any closed-or-swapped endpoint pair) and ssq is the sum over steps of the
    squared site displacement of both particles.  Values are exact walk
    counts.

    One transfer-matrix pass over the steps carries exact integer counts per
    (sites, h, ssq).  h indexes the half-turn sheet [h*pi, (h+1)*pi) of the
    lifted polar angle of r, counted from the start's sheet, so the final h
    is w2 itself: no angles and no rounding.  The endpoints are snapped to
    lattice sites (EndpointOffLattice when one is not a site); whether they
    are closed or swapped is for the caller to decide.
    """
    start4, end4, step = _walk_setup(lattice, endpoints, n_steps)

    frontier = {start4: {(0, 0): 1}}
    for left in range(n_steps, 0, -1):
        following = defaultdict(dict)
        for sites, buckets in frontier.items():
            for nxt, cost, dh in step(sites, left):
                target = following[nxt]
                for (h, ssq), n in buckets.items():
                    key = (h + dh, ssq + cost)
                    target[key] = target.get(key, 0) + n
        frontier = following
    # reachability leaves only the end sites after the last step
    return frontier.get(end4, {})
