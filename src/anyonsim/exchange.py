"""The designated-exchange-path experiment.

Both particles traverse antipodal semicircular arcs about the origin, so the
pair ends in the swapped configuration after half a rotation of the relative
vector.  Treating each time step operationally gives a product of
per-step factors (direct amplitude +/- opposite amplitude).  Three things are
measured here:

* the opposite-step action phase grows like m D^2 / (hbar dt) as the step
  time shrinks (D the inter-particle distance), which dephases every term
  containing an opposite transition, while the direct-step phase vanishes
  linearly in dt;
* the fundamental domain, relative polar angle in [0, pi), makes the
  direct/opposite labels unambiguous; a simple exchange path crosses its
  boundary once (:attr:`DiscretePath.crossings`), where the factors swap roles;
* combining the surviving all-direct product with the winding weight
  exp(i theta w) of the path's own class w and the single operational sign
  yields the exchange phase phi = theta w (bosons) or theta w + pi (fermions):
  theta/2 for the counter-clockwise exchange (w = +1/2), -theta/2 for the
  clockwise one (w = -1/2).  :func:`exchange_phase` is that rule; it reads
  only the class w and the path's amplitude.

The CLI's ``exchange`` and :func:`theta_sweep` take the class and amplitude
from one validating pass over the configurations as they are made
(:func:`_designated_exchange`), so no path of up to MAX_SIZE steps is held.
That pass takes no per-step angle: the exchange's total turning is pi * 2w
exactly, from its one crossing (:func:`~anyonsim.homotopy.total_angle`).
The phase rule computes all the classes of one theta at once, as flat
values (:func:`_phase_rule`), which the CLI's sweep formats with one ``%``
per theta.  :func:`dephasing_exponent` reads only the two configurations of
each grid point's first step, as they are made (:func:`_exchange_configs`),
and builds no geometry, configuration or path for them.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from collections.abc import Callable, Iterable, Iterator

from .amplitudes import (
    OpClass,
    PhysicsParams,
    StatisticsSpec,
    anyonic_weight,
    path_amplitude,
    phase_factor,
)
from .config_space import (
    DiscretePath,
    _as_configs,
    _walk,
    _record,
    _NUMBERS,
    _Walk,
    _count_at_least,
    _read_choice,
    _read_number,
    check_finite,
    check_finite_positive,
)
from .errors import BudgetExceeded, DegenerateGrid, NotExchangeKernel
from .homotopy import HomotopyClass, Kind, classify

TAU = 2.0 * math.pi

#: cap on the steps of a built exchange path and on the points of a CLI sweep,
#: checked before anything of that size is allocated
MAX_SIZE = 1_000_000


class Direction(enum.Enum):
    CCW = "ccw"
    CW = "cw"


class ExchangeGeometry(_record("ExchangeGeometry", "radius n_steps dt direction")):
    """Semicircular exchange of a pair at distance 2*radius about the origin,
    in n_steps uniform angular increments of duration dt each.

    Unpacks, orders, compares and hashes as the tuple (radius, n_steps, dt,
    direction); built, also by ``_replace``, through the checks below.
    direction is a Direction or its value ("ccw", "cw"), held as the member
    (:func:`~anyonsim.config_space._read_choice`), and read after the
    numbers.  n_steps is capped by :func:`build_exchange_path`, not here,
    and only an exchange built as a path or walked as one needs a geometry:
    :func:`dephasing_exponent` reads the first step's two configurations
    from :func:`_exchange_configs` alone.
    """

    __slots__ = ()

    def __new__(
        cls, radius: float, n_steps: int, dt: float, direction: Direction | str = Direction.CCW
    ) -> ExchangeGeometry:
        radius = check_finite_positive("radius", radius)
        n_steps = _count_at_least("n_steps", n_steps, 2)
        return tuple.__new__(cls, (radius, n_steps, check_finite_positive("dt", dt), _read_choice("direction", Direction, direction)))


def _exchange_configs(radius: float, n: int, sign: int, count: int) -> Iterator[tuple[float, float, float, float]]:
    """The coordinates (x1, y1, x2, y2), in plain tuples, of the first count
    configurations of the exchange of the pair at distance 2*radius about the
    origin in n steps, configuration k the pair rotated by pi * sign * k / n,
    each made as it is asked for: sign is 1 counter-clockwise and -1
    clockwise, an int, so the angle pi * (sign * k) / n is that of the float
    sign, save that the first is 0.0 in both directions, never -0.0.  A
    finite radius gives finite coordinates."""
    pi, cos, sin = math.pi, math.cos, math.sin
    for k in range(0, sign * count, sign):
        phi = pi * k / n
        x, y = radius * cos(phi), radius * sin(phi)
        yield x, y, -x, -y


def _exchange_path_configs(geom: ExchangeGeometry) -> Iterator[tuple[float, float, float, float]]:
    """The coordinates of the exchange path of geom, the last configuration
    snapped to the first with the two particles swapped; more than MAX_SIZE
    steps are refused with BudgetExceeded before any is made."""
    if geom.n_steps > MAX_SIZE:
        raise BudgetExceeded(f"{geom.n_steps} exchange steps exceed the cap {MAX_SIZE}")
    sign = 1 if geom.direction is Direction.CCW else -1
    configs = _exchange_configs(geom.radius, geom.n_steps, sign, geom.n_steps)
    x1, y1, x2, y2 = first = next(configs)
    return itertools.chain((first,), configs, ((x2, y2, x1, y1),))


def build_exchange_path(geom: ExchangeGeometry) -> DiscretePath:
    """Discretized exchange: antipodal arcs ending exactly in the swapped
    configuration (the last configuration is snapped so the endpoints compare
    equal under exact coordinate equality).  More than MAX_SIZE steps are
    refused with BudgetExceeded before any configuration is built; the path
    is validated as it is built, as every DiscretePath is."""
    return DiscretePath(geom.dt, _as_configs(_exchange_path_configs(geom)))


def _designated_exchange(geom: ExchangeGeometry, params: PhysicsParams) -> tuple[_Walk, HomotopyClass, complex]:
    """The validating pass over the exchange path of geom, its class and its
    amplitude, as :func:`build_exchange_path`'s path gives them; the pass
    reads each configuration as it is made, and no path is built or held."""
    walked = _walk(_exchange_path_configs(geom), geom.dt, _Walk())
    return walked, classify(walked), path_amplitude(walked, params)


class StepFactor(_record("StepFactor", "alpha_dir alpha_op flipped action_dir action_op")):
    """One step's operational pair of one-step amplitudes.

    alpha_dir propagates to the next configuration as-is, alpha_op to its
    swap; flipped marks the path's :attr:`DiscretePath.crossings`, the steps
    where the two labels exchange roles.  The raw action increments are kept
    for a caller's phases without mod-2*pi wrapping.
    """

    __slots__ = ()


def _step_actions(configs: Iterable, dt: float, params: PhysicsParams) -> Iterator[tuple[float, float]]:
    """Each step's direct and opposite actions (s_dir, s_op), in the order of
    configs, any iterable of configurations, steps of duration dt."""
    scale = params.mass / (2.0 * dt)
    for (ax1, ay1, ax2, ay2), (bx1, by1, bx2, by2) in itertools.pairwise(configs):
        # squared displacements p1 -> p1, p2 -> p2 (direct) and p1 -> p2, p2 -> p1 (opposite)
        d11x, d11y, d22x, d22y = bx1 - ax1, by1 - ay1, bx2 - ax2, by2 - ay2
        d12x, d12y, d21x, d21y = bx2 - ax1, by2 - ay1, bx1 - ax2, by1 - ay2
        yield (
            scale * ((d11x * d11x + d11y * d11y) + (d22x * d22x + d22y * d22y)),
            scale * ((d12x * d12x + d12y * d12y) + (d21x * d21x + d21y * d21y)),
        )


def step_factors(
    path: DiscretePath,
    params: PhysicsParams = PhysicsParams(),
) -> tuple[StepFactor, ...]:
    """Per-step direct and opposite one-step amplitudes along a path.

    A step is flipped when it is one of :attr:`DiscretePath.crossings`.
    """
    flips = {k for k, _ in path.crossings}
    hbar = params.hbar
    return tuple(
        StepFactor(
            alpha_dir=phase_factor(s_dir / hbar),
            alpha_op=phase_factor(s_op / hbar),
            flipped=k in flips,
            action_dir=s_dir,
            action_op=s_op,
        )
        for k, (s_dir, s_op) in enumerate(_step_actions(path.configs, path.dt, params))
    )


class DephasingSample(_record("DephasingSample", "dt n_steps phase_op phase_dir")):
    __slots__ = ()


class DephasingFit(_record("DephasingFit", "slope intercept residual predicted rel_error samples")):
    """Least-squares fit of the opposite-step phase against 1/dt."""

    __slots__ = ()


def dephasing_exponent(
    radius: float,
    duration: float,
    params: PhysicsParams,
    dt_grid: Iterable[float],
) -> DephasingFit:
    """Fit the unwrapped opposite-step action phase against 1/dt.

    The exchange of the given radius (particles at distance D = 2 * radius)
    and duration T is held fixed while the grid refines the time step
    (n = round(T / dt) steps), mirroring how the discretization is meant to
    be taken to its limit.  The slope approaches m D^2 / hbar; the
    direct-step phase shrinks linearly in dt.  Phases come from exact
    per-step actions, never from arg of the amplitude, which is blind to
    multiples of 2*pi.  Every step of the semicircle is congruent, and its
    squared displacements are the same in either direction, so only the two
    configurations of the first step of the counter-clockwise exchange are
    read, as :func:`_exchange_configs` makes them, and no geometry or path
    is built: radius, duration and each dt are read, as ints or floats,
    and checked once, here, and a grid value that is not a number is no
    positive dt (DegenerateGrid).  No pass could refuse them: the predicted slope is checked finite and > 0 first, so 2R
    is finite and nonzero, the two configurations are finite and never
    coincident (max(|cos|, |sin|) >= 1/sqrt(2)), and the step turns by
    pi/n <= pi/2, never pi.
    """
    radius = check_finite_positive("radius", radius)
    duration = check_finite_positive("duration", duration)
    grid = {_read_number(v) for v in dt_grid}
    if len(grid) < 3 or any(type(v) not in _NUMBERS or v <= 0 for v in grid):
        raise DegenerateGrid("need at least 3 distinct positive dt values")
    dts = [check_finite_positive("dt", dt) for dt in sorted(grid, reverse=True)]
    try:
        predicted = params.mass * (2.0 * radius) ** 2 / params.hbar
    except OverflowError:  # float ** raises where * would give inf
        predicted = math.inf
    check_finite_positive("predicted slope m*D^2/hbar", predicted)
    samples = []
    for dt in dts:
        steps = duration / dt
        if not math.isfinite(steps):
            raise DegenerateGrid(
                f"dt {dt} gives a non-finite step count for the exchange of duration {duration}"
            )
        n = round(steps)
        if n < 2:
            raise DegenerateGrid(
                f"dt {dt} leaves fewer than 2 steps of the exchange of duration {duration}"
            )
        # the phases alone: no exp(i * phase), which phase_factor refuses past 2^53
        ((action_dir, action_op),) = _step_actions(_exchange_configs(radius, n, 1, 2), dt, params)
        phase_dir = check_finite("phase S/hbar", action_dir / params.hbar)
        phase_op = check_finite("phase S/hbar", action_op / params.hbar)
        samples.append(DephasingSample(dt=dt, n_steps=n, phase_op=phase_op, phase_dir=phase_dir))
    xs = [1.0 / s.dt for s in samples]
    ys = [s.phase_op for s in samples]
    import statistics  # here, not at the top: it costs every CLI start-up ~5 ms
    try:
        slope, intercept = statistics.linear_regression(xs, ys)
        residual = math.sqrt(
            math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)) / len(xs)
        )
        finite = math.isfinite(slope) and math.isfinite(intercept) and math.isfinite(residual)
    except OverflowError:  # float ** raises where * would give inf
        finite = False
    if not finite:
        raise DegenerateGrid(
            f"dt grid {dts} gives a fit with a non-finite slope, intercept or residual"
        )
    return DephasingFit(
        slope=slope,
        intercept=intercept,
        residual=residual,
        predicted=predicted,
        rel_error=abs(slope - predicted) / predicted,
        samples=tuple(samples),
    )


class ExchangePhase(_record("ExchangePhase", "phi amplitude theta op_class")):
    """Total exchange phase phi in [0, 2*pi) with its diagnostic amplitude."""

    __slots__ = ()


def _phase_rule(
    cls: HomotopyClass, amp: complex, op_classes: Iterable[OpClass | str]
) -> Callable[[float], tuple[float, ...]]:
    """values(theta): the :func:`exchange_phase` rows of class cls (kind
    Exchange, winding w) and amplitude amp at theta, one per class of
    op_classes (each an OpClass or its value) in turn, as one flat tuple
    (theta, phi, re, im, theta, phi, ...), re and im the parts of the row's
    amplitude.  The kind and the classes are checked once, here; each call
    takes exp(i theta w) and its product with amp once, for all classes.
    """
    if cls.kind is not Kind.EXCHANGE:
        raise NotExchangeKernel("exchange phase requires swapped endpoints")
    signs = [1.0 if _read_choice("op_class", OpClass, c) is OpClass.BOSON else -1.0 for c in op_classes]
    phase, tau = cmath.phase, TAU

    def values(theta: float) -> tuple[float, ...]:
        weight = anyonic_weight(cls, theta)
        scaled = 0j + weight * amp  # 0j + turns -0.0 parts to 0.0, as a class sum does
        out = ()
        for sign in signs:
            phi = phase(weight * sign) % tau
            z = sign * scaled
            # a tiny negative phase rounds up to TAU itself, which is 0.0
            out += (theta, phi if phi < tau else 0.0, z.real, z.imag)
        return out

    return values


def _rows(values: tuple[float, ...], op_classes: tuple[OpClass, ...]) -> list[ExchangePhase]:
    """The ExchangePhase rows of the flat values of :func:`_phase_rule`."""
    return [
        ExchangePhase(phi, complex(re, im), theta, op_class)
        for op_class, (theta, phi, re, im) in zip(op_classes, zip(*[iter(values)] * 4))
    ]


def exchange_phase(cls: HomotopyClass, amp: complex, stats: StatisticsSpec) -> ExchangePhase:
    """Exchange phase of the winding class w of an exchange path, with the
    path's amplitude K^w = exp(i S / hbar).

    phi = arg(s exp(i theta w)) mod 2*pi with s = +1 for operational bosons
    and -1 for operational fermions: theta/2 (+ pi) for a counter-clockwise
    exchange (w = +1/2), -theta/2 (+ pi) for a clockwise one (w = -1/2).  The
    amplitude s exp(i theta w) K^w is reported alongside for diagnostics.  A
    class that is not of exchange kind is refused with NotExchangeKernel.
    """
    op_classes = (stats.op_class,)
    return _rows(_phase_rule(cls, amp, op_classes)(stats.theta), op_classes)[0]


def theta_sweep(
    geom: ExchangeGeometry,
    params: PhysicsParams,
    thetas: Iterable[float],
    op_classes: Iterable[OpClass | str],
) -> Iterator[ExchangePhase]:
    """Exchange phase across statistics angles and classes, one row per
    theta and class, theta by theta with the classes in the order given,
    yielded as it is computed.  Each class is an OpClass or its value
    ("boson", "fermion"), and its rows hold the member; anything else is
    refused with ValidationError when the first row is asked for.

    The path is the designated exchange built from geom (the experiment is
    about that path, not a path sum).  One validating pass over its
    configurations, held by no path, classifies it and sums its action once,
    when the first row is asked for, and not at all for no thetas; each row is what :func:`exchange_phase` gives for its theta
    and class, bit for bit.  A theta that is not finite is refused with
    ValidationError when its rows are asked for.  phi is affine in theta
    with slope w = +-1/2, the sign set by the direction of geom.
    """
    thetas = iter(thetas)
    for theta in thetas:  # the first theta only: the rule built for it takes the rest
        op_classes = tuple(_read_choice("op_class", OpClass, c) for c in op_classes)
        values = _phase_rule(*_designated_exchange(geom, params)[1:], op_classes)
        for theta in itertools.chain((theta,), thetas):
            yield from _rows(values(theta), op_classes)
