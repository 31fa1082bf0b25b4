import itertools
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyonsim import amplitudes
from anyonsim import (
    EndpointPair,
    HomotopyClass,
    Kind,
    LatticeSpec,
    OpClass,
    PermutationAmplitudes,
    PhysicsParams,
    ResolvedKernel,
    StatisticsSpec,
    TwoParticleConfig,
    action,
    anyonic_kernel,
    anyonic_weight,
    classify,
    endpoint_kind,
    enumerate_walks,
    feynman_product,
    feynman_sum,
    noninteracting_alpha,
    operational_combine,
    path_amplitude,
    permutation_sign,
    probability,
    resolved_kernel,
    swap,
)
from anyonsim.errors import (
    AnyonSimError,
    BudgetExceeded,
    EndpointsNotClosedOrExchanged,
    IncompleteMap,
    NonSquare,
    ValidationError,
)
from helpers import check_record, check_refusal, fsum_complex, lattice_path


class TestAction:
    def test_stationary_is_zero(self):
        path = lattice_path([(0, 0, 2, 0), (0, 0, 2, 0)])
        assert action(path) == 0.0

    def test_both_particles_move_unit_distance(self):
        path = lattice_path([(0, 0, 2, 0), (0, 1, 2, 1)])
        assert action(path) == pytest.approx(1.0)

    def test_distance_two_in_half_time(self):
        path = lattice_path([(0, 0, 3, 0), (2, 0, 3, 0)], dt=0.5)
        assert action(path) == pytest.approx(4.0)

    def test_overflowing_action_refused(self):
        path = lattice_path([(0, 0, 2, 0), (1, 0, 2, 0)], dt=1e-10)
        with pytest.raises(ValidationError, match="action must be finite"):
            action(path, PhysicsParams(mass=1e308))

    def test_mass_scales_linearly(self):
        path = lattice_path([(0, 0, 2, 0), (1, 0, 2, 0)])
        assert action(path, PhysicsParams(mass=3.0)) == pytest.approx(
            3.0 * action(path)
        )


class TestPathAmplitude:
    def test_stationary(self):
        path = lattice_path([(0, 0, 2, 0), (0, 0, 2, 0)])
        assert path_amplitude(path) == 1 + 0j

    def test_phase_pi(self):
        # S = 1/(2 dt); dt = 1/(2 pi) makes S/hbar = pi
        path = lattice_path([(0, 0, 2, 0), (1, 0, 2, 0)], dt=1 / (2 * math.pi))
        assert path_amplitude(path) == pytest.approx(-1 + 0j, abs=1e-12)

    def test_phase_half_pi(self):
        path = lattice_path([(0, 0, 2, 0), (1, 0, 2, 0)], dt=1 / math.pi)
        assert path_amplitude(path) == pytest.approx(1j, abs=1e-12)

    def test_unit_modulus(self):
        path = lattice_path([(0, 0, 2, 0), (1, 0, 2, 1), (1, 1, 2, 0)], dt=0.3)
        assert abs(path_amplitude(path, PhysicsParams(mass=1.7, hbar=0.4))) == pytest.approx(1.0)

    def test_overflowing_phase_refused(self):
        # S = 0.5 is finite; S/hbar overflows for a subnormal hbar
        path = lattice_path([(0, 0, 2, 0), (1, 0, 2, 0)])
        with pytest.raises(ValidationError, match=r"^phase S/hbar must be finite, got inf$"):
            path_amplitude(path, PhysicsParams(hbar=1e-310))

    def test_phase_past_2_53_refused(self):
        # one ulp of a phase past 2^53 is >= 2, so exp(i * phase) has no significant digit
        assert amplitudes.phase_factor(-(2.0**53)) == amplitudes.phase_factor(2.0**53).conjugate()
        for phase in (2.0**53 + 2, -(2.0**53) - 2, 1e300):
            message = f"phase S/hbar must be at most 2^53 in magnitude, got {phase}"
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                amplitudes.phase_factor(phase)
        path = lattice_path([(0, 0, 2, 0), (1, 0, 2, 0)])
        message = r"^phase S/hbar must be at most 2\^53 in magnitude, got \S+e\+299$"
        with pytest.raises(ValidationError, match=message):
            path_amplitude(path, PhysicsParams(hbar=1e-300))


def _direct_class_sums(lattice, ep, n_steps, params, dt):
    """Independent route: enumerate, classify each walk, fsum per class."""
    sums = {}
    for walk in enumerate_walks(lattice, ep, n_steps, dt=dt):
        cls = classify(walk)
        sums.setdefault(cls, []).append(path_amplitude(walk, params))
    return {cls: fsum_complex(vals) for cls, vals in sums.items()}


class TestResolvedKernel:
    def test_one_step_closed(self):
        lattice = LatticeSpec(extent=2)
        ep = EndpointPair(lattice.config((0, 0), (2, 0)), lattice.config((0, 0), (2, 0)))
        kernel = resolved_kernel(lattice, ep, 1)
        assert kernel.partials == {HomotopyClass(Kind.DIRECT, 0.0): 1 + 0j}

    def test_exchange_kernel_has_both_half_windings(self):
        lattice = LatticeSpec(extent=2)
        ep = EndpointPair(lattice.config((-1, 0), (1, 0)), lattice.config((1, 0), (-1, 0)))
        kernel = resolved_kernel(lattice, ep, 4)
        windings = sorted(c.winding for c in kernel.partials)
        assert windings == [-0.5, 0.5]
        assert all(c.kind is Kind.EXCHANGE for c in kernel.partials)

    def test_unreachable_endpoints_give_empty_map(self):
        lattice = LatticeSpec(extent=2)
        ep = EndpointPair(lattice.config((-1, 0), (1, 0)), lattice.config((1, 0), (-1, 0)))
        kernel = resolved_kernel(lattice, ep, 1)
        assert kernel.partials == {}
        assert anyonic_kernel(kernel, 0.7) == 0j

    @pytest.mark.parametrize(
        "start,end,n_steps",
        [
            ((0, 0, 2, 0), (0, 0, 2, 0), 3),
            ((1, 0, 0, 0), (1, 0, 0, 0), 4),
            ((-1, 0, 1, 0), (1, 0, -1, 0), 4),
        ],
    )
    def test_partials_match_per_walk_summation(self, start, end, n_steps):
        lattice = LatticeSpec(extent=2)
        params = PhysicsParams(mass=1.3, hbar=0.9)
        dt = 0.7
        ep = EndpointPair(lattice.config(start[:2], start[2:]), lattice.config(end[:2], end[2:]))
        kernel = resolved_kernel(lattice, ep, n_steps, params, dt=dt)
        oracle = _direct_class_sums(lattice, ep, n_steps, params, dt)
        assert set(kernel.partials) == set(oracle)
        for cls, val in oracle.items():
            assert kernel.partials[cls] == pytest.approx(val, rel=1e-12, abs=1e-12)

    def test_generic_endpoints_rejected(self):
        lattice = LatticeSpec(extent=2)
        ep = EndpointPair(lattice.config((0, 0), (2, 0)), lattice.config((0, 1), (2, 0)))
        with pytest.raises(EndpointsNotClosedOrExchanged):
            resolved_kernel(lattice, ep, 2)
        with pytest.raises(EndpointsNotClosedOrExchanged):
            endpoint_kind(ep.start, ep.end)

    def test_budget_exceeded(self):
        lattice = LatticeSpec(extent=3)
        ep = EndpointPair(lattice.config((0, 0), (2, 0)), lattice.config((0, 0), (2, 0)))
        with pytest.raises(BudgetExceeded, match="9765625"):
            resolved_kernel(lattice, ep, 5, budget=10**6)

    def test_budget_bound_past_the_budget_named_as_power(self):
        lattice = LatticeSpec(extent=1)
        ep = EndpointPair(lattice.config((0, 0), (1, 0)), lattice.config((0, 0), (1, 0)))
        with pytest.raises(
            BudgetExceeded,
            match=r"^estimated 25\^4000 joint-move sequences exceed budget 10000000$",
        ):
            resolved_kernel(lattice, ep, 4000)

    @pytest.mark.parametrize("n_steps", [2.5, 1e9, math.nan, "2"], ids=repr)
    def test_steps_that_are_not_an_integer_refused(self, n_steps):
        # refused before the budget, which they used to reach as a bare
        # TypeError or a bound of 25^1000000000.0
        lattice = LatticeSpec(extent=2)
        ep = EndpointPair(lattice.config((0, 0), (2, 0)), lattice.config((0, 0), (2, 0)))
        with pytest.raises(ValidationError) as caught:
            resolved_kernel(lattice, ep, n_steps)
        assert str(caught.value) == f"n_steps must be an integer, got {n_steps!r}"

    @pytest.mark.parametrize(
        "params,dt",
        [(PhysicsParams(mass=1e308), 1e-10), (PhysicsParams(hbar=1e-200), 1e-200)],
    )
    def test_non_finite_action_unit_refused_before_census(self, monkeypatch, params, dt):
        def no_census(*args, **kwargs):
            raise AssertionError("the census ran")

        monkeypatch.setattr(amplitudes, "walk_census", no_census)
        lattice = LatticeSpec(extent=2)
        ep = EndpointPair(lattice.config((0, 0), (2, 0)), lattice.config((0, 0), (2, 0)))
        with pytest.raises(ValidationError, match="action unit"):
            resolved_kernel(lattice, ep, 3, params, dt=dt)

    def test_json_shape(self):
        lattice = LatticeSpec(extent=2)
        ep = EndpointPair(lattice.config((-1, 0), (1, 0)), lattice.config((1, 0), (-1, 0)))
        doc = resolved_kernel(lattice, ep, 4).to_json_dict()
        assert doc["endpoints"]["start"] == [[-1.0, 0.0], [1.0, 0.0]]
        assert doc["n_steps"] == 4
        assert [p["winding"] for p in doc["partials"]] == [-0.5, 0.5]
        assert doc["partials"][0]["kind"] == "Exchange"
        assert {"re", "im"} <= set(doc["partials"][0])


@st.composite
def jittered_requests(draw):
    """A kernel request on exact sites (closed, swapped or generic) and the
    same request with every endpoint coordinate moved by < 1e-10 spacings."""
    extent = draw(st.integers(1, 2))
    spacing = draw(st.sampled_from([1.0, 0.5, 2.5]))
    site = st.tuples(st.integers(-extent, extent), st.integers(-extent, extent))
    p1 = draw(site)
    p2 = draw(site.filter(lambda s: s != p1))
    start4 = p1 + p2
    pair = draw(st.sampled_from(["closed", "swapped", "generic"]))
    if pair == "closed":
        end4 = start4
    elif pair == "swapped":
        end4 = p2 + p1
    else:
        q1 = draw(site)
        end4 = q1 + draw(site.filter(lambda s: s != q1))
    jitter = st.floats(-1e-10, 1e-10, exclude_min=True, exclude_max=True)

    def config(sites, jittered):
        x1, y1, x2, y2 = (
            i * spacing + (draw(jitter) * spacing if jittered else 0.0) for i in sites
        )
        return TwoParticleConfig(x1, y1, x2, y2)

    lattice = LatticeSpec(extent=extent, spacing=spacing)
    exact = EndpointPair(config(start4, False), config(end4, False))
    jittered = EndpointPair(config(start4, True), config(end4, True))
    return lattice, start4, end4, exact, jittered, draw(st.integers(1, 4))


def _kernel_or_error(lattice, endpoints, n_steps):
    try:
        kernel = resolved_kernel(lattice, endpoints, n_steps, dt=0.7)
    except AnyonSimError as exc:
        return type(exc), str(exc)
    return kernel.partials, kernel.to_json_dict()


def _kind_or_error(thunk):
    try:
        return thunk()
    except EndpointsNotClosedOrExchanged as exc:
        return str(exc)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(jittered_requests())
def test_kernel_kind_decided_on_snapped_sites(request):
    lattice, start4, end4, exact, jittered, n_steps = request
    assert _kernel_or_error(lattice, jittered, n_steps) == _kernel_or_error(
        lattice, exact, n_steps
    )
    kind = _kind_or_error(lambda: endpoint_kind(start4, end4))
    for walk in enumerate_walks(lattice, exact, n_steps):
        assert _kind_or_error(lambda: classify(walk).kind) == kind


class TestParams:
    def test_physics_params_positive(self):
        from anyonsim.errors import ValidationError

        with pytest.raises(ValidationError):
            PhysicsParams(mass=0.0)
        with pytest.raises(ValidationError):
            PhysicsParams(hbar=-1.0)

    def test_kernel_rejects_nonpositive_dt(self):
        from anyonsim.errors import ValidationError

        lattice = LatticeSpec(extent=1)
        ep = EndpointPair(lattice.config((0, 0), (1, 0)), lattice.config((0, 0), (1, 0)))
        with pytest.raises(ValidationError):
            resolved_kernel(lattice, ep, 1, dt=0.0)


class TestAnyonicWeight:
    def test_full_turn_at_theta_pi(self):
        cls = HomotopyClass(Kind.DIRECT, 1.0)
        assert anyonic_weight(cls, math.pi) == pytest.approx(-1 + 0j, abs=1e-15)

    def test_exchange_gets_half_angle(self):
        cls = HomotopyClass(Kind.EXCHANGE, 0.5)
        assert anyonic_weight(cls, math.pi) == pytest.approx(1j, abs=1e-15)

    def test_zero_winding(self):
        cls = HomotopyClass(Kind.DIRECT, 0.0)
        assert anyonic_weight(cls, 2.34) == 1 + 0j

    def test_unit_modulus(self):
        rng = random.Random(3)
        for _ in range(100):
            w2 = rng.randint(-6, 6)
            kind = Kind.DIRECT if w2 % 2 == 0 else Kind.EXCHANGE
            theta = rng.uniform(-20, 20)
            assert abs(anyonic_weight(HomotopyClass(kind, w2 / 2), theta)) == pytest.approx(1.0)

    @pytest.mark.parametrize("theta, winding", [(1e308, -2.0), (-1e308, 2.0), (math.inf, 0.5), (10**400, 0.5)])
    def test_non_finite_angle_refused(self, theta, winding):
        kind = Kind.DIRECT if winding.is_integer() else Kind.EXCHANGE
        with pytest.raises(ValidationError, match=r"^theta\*w must be finite, got -?inf "):
            anyonic_weight(HomotopyClass(kind, winding), theta)


def _exchange_kernel(a, b):
    start = TwoParticleConfig(-1, 0, 1, 0)
    return ResolvedKernel(
        endpoints=EndpointPair(start, swap(start)),
        n_steps=2,
        partials={
            HomotopyClass(Kind.EXCHANGE, -0.5): a,
            HomotopyClass(Kind.EXCHANGE, 0.5): b,
        },
    )


class TestAnyonicKernel:
    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("partials", [{}, {HomotopyClass(Kind.EXCHANGE, 0.5): 1j}])
    def test_non_finite_theta_refused(self, theta, partials):
        # with no classes there is no theta*w to refuse, and theta alone was printed
        ends = TwoParticleConfig(1.0, 0.0, -1.0, 0.0)
        kernel = ResolvedKernel(EndpointPair(ends, swap(ends)), 3, partials)
        with pytest.raises(ValidationError, match=f"^theta must be finite, got {theta}$"):
            anyonic_kernel(kernel, theta)

    def test_half_classes_at_theta_pi(self):
        a, b = 0.3 + 0.4j, -0.2 + 0.9j
        expected = -1j * a + 1j * b
        assert anyonic_kernel(_exchange_kernel(a, b), math.pi) == pytest.approx(
            expected, abs=1e-15
        )

    def test_theta_zero_is_plain_sum(self):
        a, b = 0.3 + 0.4j, -0.2 + 0.9j
        kernel = _exchange_kernel(a, b)
        assert anyonic_kernel(kernel, 0.0) == a + b
        assert kernel.total() == a + b

    def test_two_pi_shift_negates_exchange_kernel(self):
        kernel = _exchange_kernel(0.3 + 0.4j, -0.2 + 0.9j)
        theta = 1.1
        assert anyonic_kernel(kernel, theta + 2 * math.pi) == pytest.approx(
            -anyonic_kernel(kernel, theta), abs=1e-12
        )

    def test_four_pi_periodic(self):
        kernel = _exchange_kernel(0.3 + 0.4j, -0.2 + 0.9j)
        theta = 2.6
        assert anyonic_kernel(kernel, theta + 4 * math.pi) == pytest.approx(
            anyonic_kernel(kernel, theta), abs=1e-12
        )

    def test_two_pi_shift_leaves_direct_kernel_alone(self):
        start = TwoParticleConfig(-1, 0, 1, 0)
        kernel = ResolvedKernel(
            endpoints=EndpointPair(start, start),
            n_steps=4,
            partials={
                HomotopyClass(Kind.DIRECT, -1.0): 0.1 - 0.7j,
                HomotopyClass(Kind.DIRECT, 0.0): 1.5 + 0.2j,
                HomotopyClass(Kind.DIRECT, 1.0): -0.4 + 0.3j,
            },
        )
        theta = 0.9
        assert anyonic_kernel(kernel, theta + 2 * math.pi) == pytest.approx(
            anyonic_kernel(kernel, theta), abs=1e-12
        )


class TestFeynmanRules:
    def test_product_examples(self):
        assert feynman_product(1j, 1j) == -1 + 0j
        assert feynman_product(0.3 - 2j, 1 + 0j) == 0.3 - 2j
        assert feynman_product(1 + 1j, 1 - 1j) == 2 + 0j

    def test_sum_examples(self):
        assert feynman_sum(1 + 0j, -1 + 0j) == 0j
        assert feynman_sum(1j, 1j) == 2j
        assert feynman_sum(0.5 - 0.25j, 0j) == 0.5 - 0.25j

    def test_probability_examples(self):
        s = 1 / math.sqrt(2)
        assert probability(complex(s, s)) == pytest.approx(1.0)
        assert probability(0j) == 0.0
        assert probability(0.5 + 0.5j) == pytest.approx(0.5)


class TestPermutationSign:
    def test_matches_inversion_count(self):
        for n in (1, 2, 3, 4, 5):
            for sigma in itertools.permutations(range(n)):
                inversions = sum(
                    1
                    for i in range(n)
                    for j in range(i + 1, n)
                    if sigma[i] > sigma[j]
                )
                assert permutation_sign(sigma) == (-1) ** inversions


class TestOperationalCombine:
    def test_all_ones_fermion_cancels(self):
        alpha = {s: 1 + 0j for s in itertools.permutations(range(3))}
        perms = PermutationAmplitudes(n=3, alpha=alpha)
        assert operational_combine(perms, OpClass.FERMION) == 0j
        assert operational_combine(perms, OpClass.BOSON) == 6 + 0j

    def test_two_particle_specialization(self):
        perms = PermutationAmplitudes(n=2, alpha={(0, 1): 1 + 0j, (1, 0): 1j})
        assert operational_combine(perms, OpClass.FERMION) == 1 - 1j
        assert operational_combine(perms, OpClass.BOSON) == 1 + 1j

    def test_incomplete_map(self):
        perms = PermutationAmplitudes(n=3, alpha={(0, 1, 2): 1 + 0j})
        with pytest.raises(IncompleteMap):
            operational_combine(perms, OpClass.BOSON)

    def test_transposition_relabeling(self):
        # relabeling which transition counts as direct (pre-composing every
        # permutation with a transposition): bosons unchanged, fermions flip
        # overall sign, probabilities identical
        rng = random.Random(41)
        tau = (1, 0, 2)
        for _ in range(20):
            alpha = {
                s: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for s in itertools.permutations(range(3))
            }
            relabeled = {
                s: alpha[tuple(s[tau[j]] for j in range(3))]
                for s in itertools.permutations(range(3))
            }
            base = PermutationAmplitudes(n=3, alpha=alpha)
            moved = PermutationAmplitudes(n=3, alpha=relabeled)
            b0 = operational_combine(base, OpClass.BOSON)
            b1 = operational_combine(moved, OpClass.BOSON)
            f0 = operational_combine(base, OpClass.FERMION)
            f1 = operational_combine(moved, OpClass.FERMION)
            assert b1 == pytest.approx(b0, abs=1e-14)
            assert f1 == pytest.approx(-f0, abs=1e-14)
            assert probability(f1) == pytest.approx(probability(f0), abs=1e-14)


class TestNoninteractingAlpha:
    def test_identity_matrix(self):
        perms = noninteracting_alpha([[1, 0], [0, 1]])
        assert perms.alpha[(0, 1)] == 1 + 0j
        assert perms.alpha[(1, 0)] == 0j

    def test_two_by_two_permanent_and_determinant(self):
        a, b, c, d = 2 + 1j, -0.5j, 3.0, 1 - 1j
        perms = noninteracting_alpha([[a, b], [c, d]])
        assert operational_combine(perms, OpClass.BOSON) == pytest.approx(a * d + b * c)
        assert operational_combine(perms, OpClass.FERMION) == pytest.approx(a * d - b * c)

    def test_three_by_three_matches_oracles(self):
        from helpers import laplace_permanent

        rng = random.Random(97)
        m = [
            [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3)]
            for _ in range(3)
        ]
        perms = noninteracting_alpha(m)
        boson = operational_combine(perms, OpClass.BOSON)
        fermion = operational_combine(perms, OpClass.FERMION)
        assert boson == pytest.approx(laplace_permanent(m), rel=1e-12)
        assert fermion == pytest.approx(complex(np.linalg.det(np.array(m))), rel=1e-12)

    def test_non_square(self):
        with pytest.raises(NonSquare):
            noninteracting_alpha([[1, 2, 3], [4, 5, 6]])


# --- the record types: named tuples built through their checks ---------------

A = TwoParticleConfig(1.0, 0.0, 0.0, 0.0)
A_TEXT = "TwoParticleConfig(x1=1.0, y1=0.0, x2=0.0, y2=0.0)"
CLOSED = EndpointPair(A, A)
DIRECT_0 = HomotopyClass(Kind.DIRECT, 0.0)


@pytest.mark.parametrize(
    "cls, args, text",
    [
        (PhysicsParams, (1.0, 1.0), "PhysicsParams(mass=1.0, hbar=1.0)"),
        (
            StatisticsSpec,
            (0.5, OpClass.FERMION),
            "StatisticsSpec(theta=0.5, op_class=<OpClass.FERMION: 'fermion'>)",
        ),
        (
            ResolvedKernel,
            (CLOSED, 3, {DIRECT_0: 1 + 2j}),
            f"ResolvedKernel(endpoints=EndpointPair(start={A_TEXT}, end={A_TEXT}), n_steps=3, "
            "partials={HomotopyClass(kind=<Kind.DIRECT: 'Direct'>, winding=0.0): (1+2j)})",
        ),
        (
            PermutationAmplitudes,
            (2, {(0, 1): 1 + 0j, (1, 0): 0.5j}),
            "PermutationAmplitudes(n=2, alpha={(0, 1): (1+0j), (1, 0): 0.5j})",
        ),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else "",
)
def test_record_is_the_tuple_of_its_fields(cls, args, text):
    check_record(cls, args, text)


def test_record_defaults_and_normalized_maps():
    assert PhysicsParams() == PhysicsParams(hbar=1.0) == (1.0, 1.0)
    pairs = [(DIRECT_0, 1j)]
    assert ResolvedKernel(CLOSED, 1, pairs).partials == {DIRECT_0: 1j}
    assert PermutationAmplitudes(1, [((0,), 2j)])._replace(n=2).alpha == {(0,): 2j}


def test_kernel_classes_stored_in_winding_order():
    classes = [HomotopyClass(Kind.DIRECT, w) for w in (1.0, -2.0, 0.0, -1.0)]
    kernel = ResolvedKernel(CLOSED, 2, {c: 1j * c.winding for c in classes})
    assert [c.winding for c in kernel.partials] == [-2.0, -1.0, 0.0, 1.0]
    assert list(kernel.partials.values()) == [-2j, -1j, 0j, 1j]


# valid field values that each refusal below spoils
VALID = {
    PhysicsParams: (1.0, 1.0),
    StatisticsSpec: (0.5, OpClass.BOSON),
    ResolvedKernel: (CLOSED, 3, {DIRECT_0: 1j}),
    PermutationAmplitudes: (2, {(0, 1): 1j, (1, 0): 1j}),
}
SWAPPED_HALF = {HomotopyClass(Kind.EXCHANGE, 0.5): 1j}


@pytest.mark.parametrize(
    "cls, bad, error, message",
    [
        (PhysicsParams, {"mass": 0.0}, ValidationError, "mass must be finite and > 0, got 0.0"),
        (PhysicsParams, {"hbar": math.nan}, ValidationError, "hbar must be finite and > 0, got nan"),
        (PhysicsParams, {"mass": "1"}, ValidationError, "mass must be finite and > 0, got '1'"),
        # mass is checked before hbar
        (PhysicsParams, {"mass": -1.0, "hbar": 0.0}, ValidationError, "mass must be finite and > 0, got -1.0"),
        (StatisticsSpec, {"theta": math.inf}, ValidationError, "theta must be finite, got inf"),
        (StatisticsSpec, {"theta": math.nan}, ValidationError, "theta must be finite, got nan"),
        (
            ResolvedKernel,
            {"partials": SWAPPED_HALF},
            ValidationError,
            "partial of kind Exchange in a Direct kernel",
        ),
        (
            ResolvedKernel,
            {"endpoints": EndpointPair(A, TwoParticleConfig(0.0, 1.0, 0.0, 0.0))},
            EndpointsNotClosedOrExchanged,
            "endpoints must be equal (Direct) or swapped (Exchange) to resolve winding classes",
        ),
        (
            ResolvedKernel,
            {"partials": 5},
            ValidationError,
            "partials must be a mapping of winding classes to amplitudes, got 5",
        ),
        (PermutationAmplitudes, {"n": 0}, ValidationError, "n must be >= 1, got 0"),
        # a count that is not an integer raised a bare TypeError from the comparison
        (PermutationAmplitudes, {"n": "2"}, ValidationError, "n must be an integer, got '2'"),
        (PermutationAmplitudes, {"n": 2.5}, ValidationError, "n must be an integer, got 2.5"),
        (PermutationAmplitudes, {"n": None}, ValidationError, "n must be an integer, got None"),
        (StatisticsSpec, {"theta": 10**400}, ValidationError, f"theta must be finite, got {10**400}"),
        (StatisticsSpec, {"theta": Decimal("sNaN")}, ValidationError, "theta must be finite, got sNaN"),
        (PhysicsParams, {"hbar": 10**400}, ValidationError, f"hbar must be finite and > 0, got {10**400}"),
        # n is checked before alpha is made a dict
        (PermutationAmplitudes, {"n": 0, "alpha": 5}, ValidationError, "n must be >= 1, got 0"),
        (
            PermutationAmplitudes,
            {"alpha": 5},
            ValidationError,
            "alpha must be a mapping of permutations to amplitudes, got 5",
        ),
        (PhysicsParams, {"hbar": None}, ValidationError, "hbar must be finite and > 0, got None"),
        (StatisticsSpec, {"theta": "0.5"}, ValidationError, "theta must be finite, got '0.5'"),
        # op_class is read after theta, as a member or its value
        (StatisticsSpec, {"op_class": None}, ValidationError, "op_class must be 'boson' or 'fermion', got None"),
        (StatisticsSpec, {"op_class": "Boson"}, ValidationError, "op_class must be 'boson' or 'fermion', got 'Boson'"),
        (StatisticsSpec, {"theta": math.inf, "op_class": 3}, ValidationError, "theta must be finite, got inf"),
        # n_steps was held as given, so a kernel's JSON form could hold "n_steps": "2"
        (ResolvedKernel, {"n_steps": "2"}, ValidationError, "n_steps must be an integer, got '2'"),
        (ResolvedKernel, {"n_steps": 2.5}, ValidationError, "n_steps must be an integer, got 2.5"),
        # a 0-d string array that float() cannot parse was read as a NaN, and shown unquoted
        (PhysicsParams, {"mass": np.array("x")}, ValidationError, "mass must be finite and > 0, got array('x', dtype='<U1')"),
        (StatisticsSpec, {"theta": np.array("x")}, ValidationError, "theta must be finite, got array('x', dtype='<U1')"),
    ],
)
def test_invalid_record_refused(cls, bad, error, message):
    check_refusal(cls, VALID[cls], bad, error, message)


def test_noninteracting_entries_that_are_not_numbers_refused():
    # complex("a") raised a bare ValueError, complex(None) a bare TypeError
    for matrix in ([[1, "a"], [1, 1]], [[1, None], [1, 1]], [[1, 1], 5]):
        with pytest.raises(ValidationError, match="^the single-particle amplitudes must be rows of numbers, got "):
            noninteracting_alpha(matrix)


@pytest.mark.parametrize(
    "budget, message",
    [
        (math.nan, "budget must be an integer, got nan"),
        ("10", "budget must be an integer, got '10'"),
        (1e7, "budget must be an integer, got 10000000.0"),
        (0, "budget must be >= 1, got 0"),
        (-5, "budget must be >= 1, got -5"),
    ],
)
def test_budget_that_is_not_a_count_refused(budget, message):
    # a NaN budget compared false with every estimate, so any request was
    # computed; a string raised a bare TypeError
    lattice = LatticeSpec(extent=2)
    ep = EndpointPair(lattice.config((0, 0), (2, 0)), lattice.config((0, 0), (2, 0)))
    with pytest.raises(ValidationError) as caught:
        resolved_kernel(lattice, ep, 9, budget=budget)
    assert str(caught.value) == message
    assert resolved_kernel(lattice, ep, 2, budget=np.int64(625)).n_steps == 2


@pytest.mark.parametrize(
    "number, held",
    [
        (np.int64(2), 2),
        (np.float32(0.5), 0.5),
        (Fraction(1, 2), 0.5),
        (Decimal("0.5"), 0.5),
        (True, 1),
        (np.array(0.5), 0.5),
        (np.float64(0.5), 0.5),
        (np.array(True), 1),
        (np.True_, 1),
    ],
    ids=["numpy-int64", "numpy-float32", "fraction", "decimal", "bool", "numpy-0d", "numpy-float64",
         "numpy-0d-bool", "numpy-bool"],
)
def test_foreign_scalars_are_held_as_ints_or_floats(number, held):
    # they were refused as "must be finite and > 0", and a bool was held as itself;
    # a winding was held as given, and a 0-d array theta was refused; a numpy bool
    # was held as the float 1.0
    kind = Kind.EXCHANGE if held == 0.5 else Kind.DIRECT
    held_values = [
        *PhysicsParams(number, number),
        StatisticsSpec(number, OpClass.BOSON).theta,
        HomotopyClass(kind, number).winding,
    ]
    assert held_values == [held] * 4 and {type(v) for v in held_values} == {type(held)}
    ends = TwoParticleConfig(1, 0, -1, 0)
    kernel = resolved_kernel(LatticeSpec(2), EndpointPair(ends, ends), 2, dt=number)
    twin = resolved_kernel(LatticeSpec(2), EndpointPair(ends, ends), 2, dt=held)
    assert kernel == twin and anyonic_kernel(kernel, number) == anyonic_kernel(twin, held)


def test_numbers_past_the_float_range_refused():
    # each raised a bare OverflowError
    ends = TwoParticleConfig(1.0, 0.0, -1.0, 0.0)
    kernel = ResolvedKernel(EndpointPair(ends, swap(ends)), 3, {HomotopyClass(Kind.EXCHANGE, 0.5): 1j})
    with pytest.raises(ValidationError, match=f"^theta must be finite, got {10**400}$"):
        anyonic_kernel(kernel, 10**400)
    with pytest.raises(ValidationError, match=f"^phase S/hbar must be finite, got {10**400}$"):
        amplitudes.phase_factor(10**400)
    # a Fraction whose float() overflows is no number the package holds: it is
    # refused, and quoted
    huge = Fraction(10**400, 3)
    with pytest.raises(ValidationError, match=f"^theta must be finite, got {re.escape(repr(huge))}$"):
        anyonic_kernel(kernel, huge)
