import math
import random
import re
import statistics
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anyonsim import (
    DephasingFit,
    DephasingSample,
    DiscretePath,
    Direction,
    ExchangeGeometry,
    ExchangePhase,
    HomotopyClass,
    Kind,
    OpClass,
    PhysicsParams,
    StatisticsSpec,
    StepFactor,
    TwoParticleConfig,
    Vec2,
    build_exchange_path,
    classify,
    concat_paths,
    dephasing_exponent,
    exchange_phase,
    noninteracting_alpha,
    operational_combine,
    path_amplitude,
    step_factors,
    swap,
    theta_sweep,
    total_angle,
)
from anyonsim import config_space, exchange
from anyonsim.config_space import upper_half_plane
from anyonsim.errors import BudgetExceeded, DegenerateGrid, NotExchangeKernel, ValidationError
from anyonsim.exchange import MAX_SIZE
from helpers import check_record, check_refusal

TAU = 2 * math.pi


def angle_close(a, b, tol=1e-9):
    return abs(math.remainder(a - b, TAU)) <= tol


class TestBuildExchangePath:
    def test_two_step_ccw_geometry(self):
        geom = ExchangeGeometry(radius=1.0, n_steps=2, dt=1.0)
        path = build_exchange_path(geom)
        p1 = [c.p1 for c in path.configs]
        assert p1[0] == Vec2(1.0, 0.0)
        assert p1[1].x == pytest.approx(0.0, abs=1e-15)
        assert p1[1].y == pytest.approx(1.0)
        assert p1[2] == Vec2(-1.0, 0.0)
        for c in path.configs:
            assert c.p2.x == pytest.approx(-c.p1.x) and c.p2.y == pytest.approx(-c.p1.y)
        assert classify(path) == HomotopyClass(Kind.EXCHANGE, 0.5)

    def test_cw_mirrors(self):
        geom = ExchangeGeometry(radius=1.0, n_steps=6, dt=0.5, direction=Direction.CW)
        assert classify(build_exchange_path(geom)) == HomotopyClass(Kind.EXCHANGE, -0.5)

    @pytest.mark.parametrize("n_steps", [2, 3, 5, 16, 64, 1000, 10**5])
    @pytest.mark.parametrize("direction, half_turn", [(Direction.CCW, math.pi), (Direction.CW, -math.pi)])
    def test_total_angle_is_half_turn(self, n_steps, direction, half_turn):
        # pi per signed crossing, exactly, however many steps turn r
        geom = ExchangeGeometry(radius=0.7, n_steps=n_steps, dt=0.1, direction=direction)
        assert total_angle(build_exchange_path(geom)) == half_turn

    def test_ends_exactly_swapped(self):
        geom = ExchangeGeometry(radius=1.3, n_steps=7, dt=0.2)
        path = build_exchange_path(geom)
        assert path.end == swap(path.start)

    def test_double_exchange_is_full_rotation(self):
        geom = ExchangeGeometry(radius=1.0, n_steps=8, dt=0.25)
        first = build_exchange_path(geom)
        second = DiscretePath(first.dt, tuple(swap(c) for c in first.configs))
        loop = concat_paths(first, second)
        assert classify(loop) == HomotopyClass(Kind.DIRECT, 1.0)

    def test_geometry_validation(self):
        with pytest.raises(ValidationError):
            ExchangeGeometry(radius=0.0, n_steps=4, dt=0.1)
        with pytest.raises(ValidationError):
            ExchangeGeometry(radius=1.0, n_steps=1, dt=0.1)


def in_domain(config):
    """The fundamental domain: relative polar angle in [0, pi)."""
    x1, y1, x2, y2 = config
    return upper_half_plane(x1 - x2, y1 - y2)


class TestFundamentalDomain:
    def test_exactly_one_of_config_and_swap(self):
        rng = random.Random(19)
        for _ in range(500):
            c = TwoParticleConfig(*(rng.uniform(-3, 3) for _ in range(4)))
            if c.p1 == c.p2:
                continue
            assert in_domain(c) != in_domain(swap(c))

    def test_boundary_rays(self):
        assert in_domain(TwoParticleConfig(1, 0, -1, 0))
        assert not in_domain(TwoParticleConfig(-1, 0, 1, 0))


class TestStepFactors:
    def test_stationary_step_at_separation_two(self):
        c = TwoParticleConfig(1.0, 0.0, -1.0, 0.0)
        path = DiscretePath(dt=1.0, configs=(c, c))
        (factor,) = step_factors(path)
        assert factor.alpha_dir == 1 + 0j
        assert factor.action_dir == 0.0
        # opposite transition carries each particle across distance D = 2
        assert factor.action_op == pytest.approx(4.0)
        assert factor.alpha_op == pytest.approx(complex(math.cos(4), math.sin(4)))
        assert not factor.flipped

    def test_halving_dt_doubles_opposite_phase(self):
        c = TwoParticleConfig(1.0, 0.0, -1.0, 0.0)
        coarse = step_factors(DiscretePath(dt=1.0, configs=(c, c)))[0]
        fine = step_factors(DiscretePath(dt=0.5, configs=(c, c)))[0]
        assert fine.action_op == pytest.approx(2 * coarse.action_op)

    def test_unit_modulus_along_exchange(self):
        geom = ExchangeGeometry(radius=1.0, n_steps=12, dt=0.05)
        for factor in step_factors(build_exchange_path(geom), PhysicsParams(mass=2.0)):
            assert abs(factor.alpha_dir) == pytest.approx(1.0)
            assert abs(factor.alpha_op) == pytest.approx(1.0)

    @pytest.mark.parametrize("n_steps", [2, 3, 8, 33])
    @pytest.mark.parametrize("direction", [Direction.CCW, Direction.CW])
    def test_simple_exchange_flips_once(self, n_steps, direction):
        geom = ExchangeGeometry(radius=1.0, n_steps=n_steps, dt=0.1, direction=direction)
        path = build_exchange_path(geom)
        factors = step_factors(path)
        # independent oracle: evaluate the [0, pi) rule per config via atan2
        angles = [math.atan2(y1 - y2, x1 - x2) % TAU for x1, y1, x2, y2 in path.configs]
        inside = [0.0 <= a < math.pi for a in angles]
        expected = [k for k in range(len(inside) - 1) if inside[k] != inside[k + 1]]
        assert len(expected) == 1
        assert [k for k, f in enumerate(factors) if f.flipped] == expected
        assert [k for k, _ in path.crossings] == expected
        assert sum(1 for f in factors if f.flipped) == 1


class TestDephasing:
    def test_slope_matches_m_d_squared(self):
        fit = dephasing_exponent(1.0, 2.0, PhysicsParams(), [0.1, 0.05, 0.025, 0.0125])
        assert fit.predicted == 4.0
        assert fit.rel_error < 0.01

    def test_doubling_distance_quadruples_slope(self):
        params = PhysicsParams()
        grid = [0.1, 0.05, 0.025, 0.0125]
        small = dephasing_exponent(1.0, 2.0, params, grid)
        large = dephasing_exponent(2.0, 2.0, params, grid)
        assert large.slope == pytest.approx(4 * small.slope, rel=1e-3)

    def test_direct_phase_vanishes_linearly(self):
        fit = dephasing_exponent(1.0, 2.0, PhysicsParams(), [0.2, 0.1, 0.05, 0.02])
        ratios = [s.phase_dir / s.dt for s in fit.samples]
        assert max(ratios) - min(ratios) < 0.02 * max(ratios)

    def test_degenerate_grid(self):
        with pytest.raises(DegenerateGrid):
            dephasing_exponent(1.0, 2.0, PhysicsParams(), [0.1, 0.05])
        with pytest.raises(DegenerateGrid):
            dephasing_exponent(1.0, 2.0, PhysicsParams(), [0.1, 0.1, 0.1])
        with pytest.raises(DegenerateGrid):
            dephasing_exponent(1.0, 2.0, PhysicsParams(), [0.1, -0.2, 0.05])

    def test_infinite_step_count_rejected(self):
        with pytest.raises(DegenerateGrid, match="dt 1e-310 "):
            dephasing_exponent(1.0, 2.0, PhysicsParams(), [1e-310, 1e-311, 1e-312])

    @pytest.mark.parametrize(
        "grid, hbar",
        [
            ([1e-300, 1e-301, 1e-302], 1.0),  # 1/dt ~ 1e302 overflows the regression's sums
            ([0.2, 0.1, 0.05], 1e-200),  # finite slope ~ 4e200, squared residuals overflow
        ],
        ids=["regression-overflow", "residual-overflow"],
    )
    def test_non_finite_fit_rejected(self, grid, hbar):
        message = f"dt grid {grid} gives a fit with a non-finite slope, intercept or residual"
        with pytest.raises(DegenerateGrid, match=f"^{re.escape(message)}$"):
            dephasing_exponent(1.0, 2.0, PhysicsParams(hbar=hbar), grid)

    @pytest.mark.parametrize(
        "radius, duration, mass, hbar, grid",
        [
            # 1/dt ~ 1e-180 and its centred values ~ 1e-196, whose squares underflow to 0
            (1.0, 1e200, 1.0, 1.0, [1e180, 9.999999999999999e179, 9.999999999999998e179]),
            # the centred products overflow to both +inf and -inf
            (
                2.4261874159018766, 2.0, 2.3761022301708716, 1.5,
                [1e-300, 9.999999999999999e-301, 9.999999999999997e-301, 9.999999999999995e-301],
            ),
        ],
        ids=["no-spread", "both-infinities"],
    )
    def test_fit_of_no_line_rejected(self, radius, duration, mass, hbar, grid):
        # statistics.linear_regression raised a bare StatisticsError ("x is
        # constant"), and fsum a bare ValueError ("-inf + inf in fsum")
        message = f"dt grid {grid} gives a fit with a non-finite slope, intercept or residual"
        with pytest.raises(DegenerateGrid, match=f"^{re.escape(message)}$"):
            dephasing_exponent(radius, duration, PhysicsParams(mass=mass, hbar=hbar), grid)

    def test_overflowing_phase_refused(self):
        # the opposite-step action ~ 2e300 is finite, its phase S/hbar is not
        with pytest.raises(ValidationError, match=r"^phase S/hbar must be finite, got inf$"):
            dephasing_exponent(1.0, 2.0, PhysicsParams(hbar=1e-10), [1e-300, 1e-301, 1e-302])

    def test_dt_larger_than_half_duration_rejected(self):
        with pytest.raises(DegenerateGrid):
            dephasing_exponent(1.0, 2.0, PhysicsParams(), [2.0, 0.1, 0.05])


def _one_path_kernel(direction=Direction.CCW):
    """The class w of a built exchange path and its amplitude K^w."""
    geom = ExchangeGeometry(radius=1.0, n_steps=8, dt=0.125, direction=direction)
    path = build_exchange_path(geom)
    return classify(path), path_amplitude(path)


class TestExchangePhase:
    def test_theta_zero_boson(self):
        result = exchange_phase(*_one_path_kernel(), StatisticsSpec(0.0, OpClass.BOSON))
        assert angle_close(result.phi, 0.0)

    def test_theta_zero_fermion(self):
        result = exchange_phase(*_one_path_kernel(), StatisticsSpec(0.0, OpClass.FERMION))
        assert angle_close(result.phi, math.pi)

    def test_theta_pi_boson(self):
        result = exchange_phase(*_one_path_kernel(), StatisticsSpec(math.pi, OpClass.BOSON))
        assert angle_close(result.phi, math.pi / 2)

    def test_boson_fermion_differ_by_pi(self):
        for theta in (0.0, 0.7, math.pi, 5.0, 11.3):
            b = exchange_phase(*_one_path_kernel(), StatisticsSpec(theta, OpClass.BOSON))
            f = exchange_phase(*_one_path_kernel(), StatisticsSpec(theta, OpClass.FERMION))
            assert angle_close(f.phi - b.phi, math.pi)

    def test_amplitude_diagnostic(self):
        cls, amp = _one_path_kernel()
        result = exchange_phase(cls, amp, StatisticsSpec(0.0, OpClass.FERMION))
        assert result.amplitude == pytest.approx(-amp)

    def test_direct_kernel_rejected(self):
        with pytest.raises(NotExchangeKernel):
            exchange_phase(HomotopyClass(Kind.DIRECT, 0.0), 1 + 0j, StatisticsSpec(0.0, OpClass.BOSON))

    def test_cw_kernel_gives_minus_half_theta(self):
        cls, amp = _one_path_kernel(Direction.CW)
        for op_class, shift in ((OpClass.BOSON, 0.0), (OpClass.FERMION, math.pi)):
            for theta in (0.0, 0.7, math.pi, 5.0, -11.3):
                result = exchange_phase(cls, amp, StatisticsSpec(theta, op_class))
                assert 0.0 <= result.phi < TAU
                assert angle_close(result.phi, -theta / 2 + shift)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    theta=st.floats(allow_nan=False, allow_infinity=False),
    op_class=st.sampled_from(OpClass),
    direction=st.sampled_from(Direction),
    n_steps=st.integers(2, 64),
)
def test_phase_is_theta_times_path_winding(theta, op_class, direction, n_steps):
    geom = ExchangeGeometry(radius=1.0, n_steps=n_steps, dt=0.125, direction=direction)
    path = build_exchange_path(geom)
    result = exchange_phase(
        classify(path), path_amplitude(path, PhysicsParams()), StatisticsSpec(theta, op_class)
    )
    w = 0.5 if direction is Direction.CCW else -0.5
    # phi against theta*w (+ pi) as points on the unit circle: at large theta,
    # remainder(theta*w, TAU) drifts with the rounding of TAU, cos and sin do not
    unit = complex(math.cos(theta * w), math.sin(theta * w))
    if op_class is OpClass.FERMION:
        unit = -unit
    assert 0.0 <= result.phi < TAU
    assert abs(complex(math.cos(result.phi), math.sin(result.phi)) - unit) <= 1e-9


class TestThetaSweep:
    def test_boson_phi_values(self):
        geom = ExchangeGeometry(radius=1.0, n_steps=8, dt=0.125)
        rows = list(theta_sweep(geom, PhysicsParams(), (0.0, math.pi, TAU), (OpClass.BOSON,)))
        assert [r.phi for r in rows] == pytest.approx([0.0, math.pi / 2, math.pi], abs=1e-9)

    def test_fermion_wraps(self):
        geom = ExchangeGeometry(radius=1.0, n_steps=8, dt=0.125)
        rows = list(theta_sweep(geom, PhysicsParams(), (0.0, TAU), (OpClass.FERMION,)))
        assert angle_close(rows[0].phi, math.pi)
        assert angle_close(rows[1].phi, 0.0)

    def test_slope_is_half(self):
        geom = ExchangeGeometry(radius=1.0, n_steps=8, dt=0.125)
        thetas = [0.3 + 0.4 * k for k in range(8)]
        rows = theta_sweep(geom, PhysicsParams(), thetas, (OpClass.BOSON,))
        for row in rows:
            assert angle_close(row.phi, row.theta / 2)

    def test_rows_equal_exchange_phase(self):
        grid = [StatisticsSpec(t, c) for t in (-1.0, 0.0, 2.5) for c in OpClass]
        for direction in Direction:
            geom = ExchangeGeometry(radius=1.0, n_steps=8, dt=0.125, direction=direction)
            cls, amp = _one_path_kernel(direction)
            rows = list(theta_sweep(geom, PhysicsParams(), (-1.0, 0.0, 2.5), OpClass))
            assert len(rows) == len(grid)
            for row, stats in zip(rows, grid):
                result = exchange_phase(cls, amp, stats)
                assert (row.phi, row.amplitude) == (result.phi, result.amplitude)
                assert (row.theta, row.op_class) == (stats.theta, stats.op_class)

    def test_cw_rows_are_minus_half_theta(self):
        geom = ExchangeGeometry(radius=1.0, n_steps=8, dt=0.125, direction=Direction.CW)
        thetas = [-3.0 + 0.9 * k for k in range(10)]
        for row in theta_sweep(geom, PhysicsParams(), thetas, OpClass):
            shift = math.pi if row.op_class is OpClass.FERMION else 0.0
            assert angle_close(row.phi, -row.theta / 2 + shift)

    def test_empty_grid(self):
        geom = ExchangeGeometry(radius=1.0, n_steps=8, dt=0.125)
        assert list(theta_sweep(geom, PhysicsParams(), [], OpClass)) == []

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(
        thetas=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-320, 1e300, -1e300]),
                st.floats(-1e3, 1e3),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            max_size=12,
        ),
        direction=st.sampled_from(Direction),
        op_classes=st.sampled_from(
            [(OpClass.BOSON,), (OpClass.FERMION,), (OpClass.BOSON, OpClass.FERMION),
             (OpClass.FERMION, OpClass.BOSON)]
        ),
        non_finite=st.sampled_from([None, math.inf, -math.inf, math.nan]),
    )
    # signed zeros and extremes first in the sweep, where the path is built
    @example(
        thetas=[-0.0, 0.0, -5e-324, 1e300, -1e300], direction=Direction.CW,
        op_classes=(OpClass.FERMION, OpClass.BOSON), non_finite=None,
    )
    @example(
        thetas=[-5e-324, -0.0], direction=Direction.CCW,
        op_classes=(OpClass.BOSON, OpClass.FERMION), non_finite=math.nan,
    )
    def test_rows_are_exchange_phase_bit_for_bit(self, thetas, direction, op_classes, non_finite):
        # each row is the rule of exchange_phase for its theta and class, to the
        # last bit; a non-finite theta is refused when its rows are reached
        cls, amp = _one_path_kernel(direction)
        geom = ExchangeGeometry(radius=1.0, n_steps=8, dt=0.125, direction=direction)
        tail = [] if non_finite is None else [non_finite]
        rows = theta_sweep(geom, PhysicsParams(), thetas + tail, op_classes)

        def bits(row):
            return (
                row.phi.hex(), row.amplitude.real.hex(), row.amplitude.imag.hex(),
                row.theta.hex(), row.op_class,
            )

        for theta in thetas:
            for op_class in op_classes:
                assert bits(next(rows)) == bits(exchange_phase(cls, amp, StatisticsSpec(theta, op_class)))
        if non_finite is not None:
            with pytest.raises(ValidationError):
                next(rows)
        assert list(rows) == []

    def test_rows_are_computed_as_they_are_asked_for(self):
        # nothing is built before the first row, so an empty grid never meets
        # the step cap, and each row draws its theta from the thetas then
        capped = ExchangeGeometry(1.0, MAX_SIZE + 1, 0.125)
        assert list(theta_sweep(capped, PhysicsParams(), [], (OpClass.BOSON,))) == []
        thetas = iter([0.0, TAU])
        rows = theta_sweep(ExchangeGeometry(1.0, 8, 0.125), PhysicsParams(), thetas, (OpClass.BOSON,))
        assert angle_close(next(rows).phi, 0.0)
        assert next(thetas) == TAU and list(rows) == []


# --- size caps: refused before anything of that size is built ----------------


@pytest.mark.parametrize("n_steps", [10**18, MAX_SIZE + 1])
def test_exchange_steps_capped(n_steps):
    geom = ExchangeGeometry(radius=1.0, n_steps=n_steps, dt=0.05)
    message = f"{n_steps} exchange steps exceed the cap 1000000"
    with pytest.raises(BudgetExceeded, match=f"^{message}$"):
        build_exchange_path(geom)
    with pytest.raises(BudgetExceeded, match=f"^{message}$"):
        next(theta_sweep(geom, PhysicsParams(), [1.0], (OpClass.BOSON,)))


def test_dephasing_builds_one_step_of_any_length():
    # the geometry type has no cap: dephase builds only the first step
    fit = dephasing_exponent(1.0, 2.0, PhysicsParams(), [4e-7, 2e-7, 1e-7])
    assert [s.n_steps for s in fit.samples] == [5_000_000, 10_000_000, 20_000_000]
    assert fit.rel_error < 1e-6


POSITIVE = st.floats(1e-3, 1e3)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    radius=POSITIVE,
    duration=POSITIVE,
    mass=POSITIVE,
    hbar=POSITIVE,
    steps=st.lists(st.integers(2, 10**7), min_size=3, max_size=6, unique=True),
)
def test_dephasing_samples_match_the_closed_form(radius, duration, mass, hbar, steps):
    # the first step turns the pair by pi/n: each particle's opposite chord is
    # 2r cos(pi/2n), its direct chord 2r sin(pi/2n), so summed over both particles
    # the squared chords are 8r^2 cos^2(pi/2n) and 8r^2 sin^2(pi/2n)
    dts = [duration / n for n in steps]
    fit = dephasing_exponent(radius, duration, PhysicsParams(mass=mass, hbar=hbar), dts)
    assert sorted(s.dt for s in fit.samples) == sorted(dts)
    for s in fit.samples:
        assert s.n_steps == round(duration / s.dt)
        half = math.pi / (2 * s.n_steps)
        scale = mass * 8.0 * radius**2 / (2.0 * s.dt * hbar)
        assert math.isclose(s.phase_op, scale * math.cos(half) ** 2, rel_tol=1e-12)
        assert math.isclose(s.phase_dir, scale * math.sin(half) ** 2, rel_tol=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    radius=POSITIVE,
    duration=POSITIVE,
    mass=POSITIVE,
    hbar=POSITIVE,
    steps=st.lists(st.integers(2, 10**7), min_size=3, max_size=6, unique=True),
)
def test_dephasing_fit_is_the_least_squares_line(radius, duration, mass, hbar, steps):
    # within a few ulps of the exact least-squares line through the samples, and,
    # on Python 3.11, whose statistics.linear_regression takes the fsum of the
    # centred products (3.12 on take math.sumprod), that line bit for bit
    fit = dephasing_exponent(radius, duration, PhysicsParams(mass=mass, hbar=hbar),
                             [duration / n for n in steps])
    xs = [1.0 / s.dt for s in fit.samples]
    ys = [s.phase_op for s in fit.samples]
    exact_x, exact_y = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    xbar, ybar = sum(exact_x) / len(xs), sum(exact_y) / len(ys)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(exact_x, exact_y)) / sum(
        (x - xbar) ** 2 for x in exact_x
    )
    assert math.isclose(fit.slope, slope, rel_tol=1e-9)
    assert math.isclose(fit.intercept, ybar - slope * xbar, rel_tol=1e-9, abs_tol=1e-9 * abs(ybar))
    if sys.version_info[:2] == (3, 11):
        line = statistics.linear_regression(xs, ys)
        assert (fit.slope.hex(), fit.intercept.hex()) == (line.slope.hex(), line.intercept.hex())


#: the range in which the first step's phases stay below 2^53, where phase_factor refuses
MODERATE = st.floats(1e-2, 1e2)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    radius=MODERATE,
    duration=MODERATE,
    mass=MODERATE,
    hbar=MODERATE,
    steps=st.lists(st.integers(2, 500), min_size=3, max_size=5, unique=True),
)
def test_dephasing_reads_the_exchanges_own_first_step(radius, duration, mass, hbar, steps):
    # each sample's phases are, bit for bit, those of the first step factor of the
    # exchange path of its step count and dt, built and walked as a path
    params = PhysicsParams(mass=mass, hbar=hbar)
    fit = dephasing_exponent(radius, duration, params, [duration / n for n in steps])
    assert len(fit.samples) == len(steps)
    for s in fit.samples:
        first = step_factors(build_exchange_path(ExchangeGeometry(radius, s.n_steps, s.dt)), params)[0]
        assert s.phase_dir.hex() == (first.action_dir / hbar).hex()
        assert s.phase_op.hex() == (first.action_op / hbar).hex()


def test_dephasing_walks_no_path(monkeypatch):
    # the fit reads the first step's two configurations, and builds no path to walk
    calls = []
    walk = config_space._walk
    monkeypatch.setattr(config_space, "_walk", lambda *args: calls.append(args) or walk(*args))
    fit = dephasing_exponent(1.0, 1.0, PhysicsParams(), [0.1, 0.05, 0.02])
    assert len(fit.samples) == 3 and calls == []
    # the patched pass is the one a path runs
    build_exchange_path(ExchangeGeometry(1.0, 4, 0.1))
    assert len(calls) == 1


# --- the record types: named tuples built through their checks ---------------

GEOMETRY = (1.0, 4, 0.05, Direction.CCW)
SAMPLE = DephasingSample(0.1, 20, 40.0, 0.1)
SAMPLE_TEXT = "DephasingSample(dt=0.1, n_steps=20, phase_op=40.0, phase_dir=0.1)"


@pytest.mark.parametrize(
    "cls, args, text",
    [
        (
            ExchangeGeometry,
            GEOMETRY,
            "ExchangeGeometry(radius=1.0, n_steps=4, dt=0.05, "
            "direction=<Direction.CCW: 'ccw'>)",
        ),
        (
            StepFactor,
            (1 + 0j, 1j, True, 0.25, 1.5),
            "StepFactor(alpha_dir=(1+0j), alpha_op=1j, flipped=True, action_dir=0.25, action_op=1.5)",
        ),
        (DephasingSample, (0.1, 20, 40.0, 0.1), SAMPLE_TEXT),
        (
            DephasingFit,
            (4.0, 0.0, 0.0, 4.0, 0.0, (SAMPLE,)),
            "DephasingFit(slope=4.0, intercept=0.0, residual=0.0, predicted=4.0, rel_error=0.0, "
            f"samples=({SAMPLE_TEXT},))",
        ),
        (
            ExchangePhase,
            (1.5, -1j, 3.0, OpClass.BOSON),
            "ExchangePhase(phi=1.5, amplitude=(-0-1j), theta=3.0, op_class=<OpClass.BOSON: 'boson'>)",
        ),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else "",
)
def test_record_is_the_tuple_of_its_fields(cls, args, text):
    check_record(cls, args, text)


def test_geometry_defaults():
    assert ExchangeGeometry(1.0, 4, 0.05) == ExchangeGeometry(radius=1.0, n_steps=4, dt=0.05) == GEOMETRY


@pytest.mark.parametrize(
    "bad, error, message",
    [
        ({"n_steps": 1}, ValidationError, "n_steps must be >= 2, got 1"),
        ({"radius": 0.0}, ValidationError, "radius must be finite and > 0, got 0.0"),
        ({"dt": math.inf}, ValidationError, "dt must be finite and > 0, got inf"),
        # radius, then n_steps, then dt
        ({"radius": math.nan, "n_steps": 1, "dt": 0.0}, ValidationError, "radius must be finite and > 0, got nan"),
        ({"n_steps": 1, "dt": 0.0}, ValidationError, "n_steps must be >= 2, got 1"),
        # build_exchange_path used to meet a fractional n_steps as a bare TypeError
        ({"n_steps": 2.5}, ValidationError, "n_steps must be an integer, got 2.5"),
        ({"n_steps": math.nan}, ValidationError, "n_steps must be an integer, got nan"),
        ({"n_steps": 4.0, "dt": 0.0}, ValidationError, "n_steps must be an integer, got 4.0"),
        ({"radius": 0.0, "n_steps": 2.5}, ValidationError, "radius must be finite and > 0, got 0.0"),
        # direction, a member or its value, is read after the numbers
        ({"direction": "up"}, ValidationError, "direction must be 'ccw' or 'cw', got 'up'"),
        ({"direction": None}, ValidationError, "direction must be 'ccw' or 'cw', got None"),
        ({"direction": OpClass.BOSON}, ValidationError, "direction must be 'ccw' or 'cw', got <OpClass.BOSON: 'boson'>"),
        ({"dt": 0.0, "direction": 3}, ValidationError, "dt must be finite and > 0, got 0.0"),
    ],
)
def test_invalid_geometry_refused(bad, error, message):
    check_refusal(ExchangeGeometry, GEOMETRY, bad, error, message)


def test_dephasing_reads_each_number_once():
    # an int dt past the float range raised a bare OverflowError from float()
    with pytest.raises(ValidationError, match=f"^dt must be finite and > 0, got {10**400}$"):
        dephasing_exponent(1.0, 2.0, PhysicsParams(), [10**400, 0.1, 0.05])
    # a grid value that is not a number is no positive dt
    with pytest.raises(DegenerateGrid, match="^need at least 3 distinct positive dt values$"):
        dephasing_exponent(1.0, 2.0, PhysicsParams(), ["0.1", 0.05, 0.02])
    # foreign numbers are read as the floats they hold, and give the fit of those floats
    grid = [np.float32(0.1), Fraction(1, 20), Decimal("0.02")]
    fit = dephasing_exponent(np.int64(1), Decimal("2"), PhysicsParams(Fraction(1), np.float64(1)), grid)
    twin = dephasing_exponent(1, 2.0, PhysicsParams(1.0, 1.0), [float(np.float32(0.1)), 0.05, 0.02])
    assert fit == twin
    assert [type(s.dt) for s in fit.samples] == [float] * 3


# --- choices: a member or its value, read where the field enters -------------


def test_value_strings_are_read_as_their_members():
    # each was held as the string, which every test of a member took for the other one
    cls, amp = _one_path_kernel()
    stats = StatisticsSpec(0.0, "boson")
    assert stats.op_class is OpClass.BOSON and exchange_phase(cls, amp, stats).phi == 0.0
    for direction, winding in (("ccw", 0.5), ("cw", -0.5)):
        geom = ExchangeGeometry(1.0, 4, 0.1, direction)
        assert geom.direction is Direction(direction)
        assert classify(build_exchange_path(geom)) == HomotopyClass(Kind.EXCHANGE, winding)
    perms = noninteracting_alpha([[1, 2], [3, 4]])
    assert operational_combine(perms, "fermion") == -2 and operational_combine(perms, "boson") == 10
    geom, thetas = ExchangeGeometry(*GEOMETRY), (0.0, 1.5, -4.0)
    rows = list(theta_sweep(geom, PhysicsParams(), thetas, ("boson", "fermion")))
    assert rows == list(theta_sweep(geom, PhysicsParams(), thetas, tuple(OpClass)))
    assert [row.op_class for row in rows] == [OpClass.BOSON, OpClass.FERMION] * 3
    for name, choices, make in CHOICE_FIELDS.values():
        allowed = " or ".join(repr(m.value) for m in choices)
        for bad in (None, "up", 3):
            with pytest.raises(ValidationError, match=f"^{re.escape(f'{name} must be {allowed}, got {bad!r}')}$"):
                make(bad)


#: each field that reads a choice: its name, its enum and what it makes of a choice
CHOICE_FIELDS = {
    "StatisticsSpec": ("op_class", OpClass, lambda c: StatisticsSpec(0.5, c)),
    "ExchangeGeometry": ("direction", Direction, lambda c: _exchange_of(ExchangeGeometry(1.0, 4, 0.1, c))),
    "operational_combine": ("op_class", OpClass, lambda c: operational_combine(noninteracting_alpha([[1, 2], [3, 4]]), c)),
    "_phase_rule": ("op_class", OpClass, lambda c: exchange._phase_rule(HomotopyClass(Kind.EXCHANGE, 0.5), 1j, [c])(0.5)),
    "theta_sweep": ("op_class", OpClass, lambda c: list(theta_sweep(ExchangeGeometry(*GEOMETRY), PhysicsParams(), [0.5], [c]))),
}


def _exchange_of(geom):
    """geom, with the class and the amplitude of its exchange."""
    return geom, *exchange._designated_exchange(geom, PhysicsParams())[1:]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(CHOICE_FIELDS)), st.data())
def test_a_choice_is_a_member_or_its_value(field, data):
    # a member and its value give one result; anything else is refused, naming the values
    name, choices, make = CHOICE_FIELDS[field]
    member = data.draw(st.sampled_from(list(choices)), label="member")
    assert make(member.value) == make(member)
    other = Direction if choices is OpClass else OpClass
    values = [m.value for m in choices]
    bad = data.draw(
        st.one_of(
            st.none(),
            st.integers(),
            st.sampled_from([m.value for m in other]),
            st.text().filter(lambda text: text not in values),
        ),
        label="bad",
    )
    allowed = " or ".join(map(repr, values))
    with pytest.raises(ValidationError, match=f"^{re.escape(f'{name} must be {allowed}, got {bad!r}')}$"):
        make(bad)
