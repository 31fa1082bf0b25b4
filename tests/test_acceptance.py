"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines as they
complete.  Tolerances are pinned in the constants below; the two timed
criteria assert their wall-clock budgets.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np

from anyonsim import (
    EndpointPair,
    ExchangeGeometry,
    Kind,
    LatticeSpec,
    OpClass,
    PermutationAmplitudes,
    PhysicsParams,
    StatisticsSpec,
    anyonic_kernel,
    build_exchange_path,
    classify,
    concat_paths,
    dephasing_exponent,
    enumerate_walks,
    exchange_phase,
    feynman_product,
    feynman_sum,
    noninteracting_alpha,
    operational_combine,
    path_amplitude,
    probability,
    resolved_kernel,
    reverse_path,
    step_factors,
    theta_sweep,
    total_angle,
)
from anyonsim import DiscretePath
from helpers import fsum_complex, laplace_permanent, random_valid_walk

TAU = 2 * math.pi

ADDITIVITY_TOL = 1e-12          # criterion 1, radians
PARTITION_REL_TOL = 1e-12       # criterion 2
STATISTICS_TOL = 1e-12          # criterion 3
INTERPOLATION_TOL = 1e-9        # criterion 4, radians mod 2*pi
ORACLE_REL_TOL = 1e-10          # criterion 5
DEPHASING_REL_TOL = 0.01        # criterion 6
WINDING_SUITE_BUDGET_S = 5.0    # criterion 1
PARTITION_BUDGET_S = 60.0       # criterion 2


@contextmanager
def criterion(num, title):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} [{title}]: FAIL")
        raise
    print(f"ACCEPTANCE {num} [{title}]: PASS")


def angle_diff(a, b):
    return abs(math.remainder(a - b, TAU))


def test_criterion_1_winding_algebra_suite():
    with criterion(1, "winding algebra on random lattice walks"):
        started = time.perf_counter()
        rng = random.Random(2024)
        lattice = LatticeSpec(extent=2)
        checked = 0

        # free-endpoint walks: additivity under concatenation and reversal
        for _ in range(600):
            walk = random_valid_walk(rng, extent=3, n_steps=rng.randint(6, 12))
            k = rng.randint(1, walk.n_steps - 1)
            head = DiscretePath(walk.dt, walk.configs[: k + 1])
            tail = DiscretePath(walk.dt, walk.configs[k:])
            joined = concat_paths(head, tail)
            assert abs(
                total_angle(joined) - (total_angle(head) + total_angle(tail))
            ) <= ADDITIVITY_TOL
            assert abs(total_angle(reverse_path(walk)) + total_angle(walk)) <= ADDITIVITY_TOL
            checked += 1

        # closed-endpoint walks classify to integer windings
        closed_pool = list(
            enumerate_walks(lattice, EndpointPair(lattice.config((1, 0), (0, 0)),
                                                  lattice.config((1, 0), (0, 0))), 4)
        )
        for walk in rng.sample(closed_pool, 300):
            cls = classify(walk)
            assert cls.kind is Kind.DIRECT
            assert cls.winding == round(cls.winding)
            checked += 1

        # swapped-endpoint walks classify to half-odd-integer windings
        exchange_pool = list(
            enumerate_walks(lattice, EndpointPair(lattice.config((-1, 0), (1, 0)),
                                                  lattice.config((1, 0), (-1, 0))), 5)
        )
        for walk in rng.sample(exchange_pool, 150):
            cls = classify(walk)
            assert cls.kind is Kind.EXCHANGE
            assert round(2 * cls.winding) % 2 == 1
            checked += 1

        elapsed = time.perf_counter() - started
        assert checked >= 1000, f"only {checked} walks exercised"
        assert elapsed < WINDING_SUITE_BUDGET_S, f"took {elapsed:.2f}s"


PARTITION_INSTANCES = [
    # (extent, start sites, end sites, n_steps)
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


def test_criterion_2_partition_identity():
    with criterion(2, "partition identity over winding classes"):
        started = time.perf_counter()
        seen_kinds = set()
        for i, (extent, s, e, n_steps) in enumerate(PARTITION_INSTANCES):
            lattice = LatticeSpec(extent=extent)
            ep = EndpointPair(lattice.config(*s), lattice.config(*e))
            params = PhysicsParams(mass=1.3, hbar=0.9) if i % 2 else PhysicsParams()
            dt = 0.7 if i % 2 else 1.0
            kernel = resolved_kernel(lattice, ep, n_steps, params, dt=dt)
            seen_kinds.add(kernel.kind)
            classified_total = kernel.total()
            unclassified = fsum_complex(
                path_amplitude(w, params) for w in enumerate_walks(lattice, ep, n_steps, dt=dt)
            )
            rel = abs(classified_total - unclassified) / abs(unclassified)
            assert rel <= PARTITION_REL_TOL, f"instance {i}: rel error {rel}"
        elapsed = time.perf_counter() - started
        assert len(PARTITION_INSTANCES) >= 10
        assert seen_kinds == {Kind.DIRECT, Kind.EXCHANGE}
        assert elapsed < PARTITION_BUDGET_S, f"took {elapsed:.2f}s"


def test_criterion_3_statistics_limits():
    with criterion(3, "theta=0 limit and operational two-particle combination"):
        lattice = LatticeSpec(extent=2)
        a = lattice.config((-1, 0), (1, 0))
        ep_id = EndpointPair(a, a)
        ep_sw = EndpointPair(a, lattice.config((1, 0), (-1, 0)))
        n_steps = 4

        kernel_id = resolved_kernel(lattice, ep_id, n_steps)
        kernel_sw = resolved_kernel(lattice, ep_sw, n_steps)

        # theta = 0 reproduces the partition total
        for kernel in (kernel_id, kernel_sw):
            assert abs(anyonic_kernel(kernel, 0.0) - kernel.total()) <= STATISTICS_TOL

        # independent direct summation of both unclassified walk sets
        direct_id = fsum_complex(
            path_amplitude(w) for w in enumerate_walks(lattice, ep_id, n_steps)
        )
        direct_sw = fsum_complex(
            path_amplitude(w) for w in enumerate_walks(lattice, ep_sw, n_steps)
        )

        perms = PermutationAmplitudes(
            n=2,
            alpha={
                (0, 1): anyonic_kernel(kernel_id, 0.0),
                (1, 0): anyonic_kernel(kernel_sw, 0.0),
            },
        )
        boson = operational_combine(perms, OpClass.BOSON)
        fermion = operational_combine(perms, OpClass.FERMION)
        assert abs(boson - (direct_id + direct_sw)) <= STATISTICS_TOL * abs(boson)
        assert abs(fermion - (direct_id - direct_sw)) <= STATISTICS_TOL * max(1.0, abs(fermion))


def test_criterion_4_anyonic_interpolation():
    with criterion(4, "phi affine in theta, 4*pi periodic, 2*pi swap"):
        geom = ExchangeGeometry(radius=1.0, n_steps=16, dt=0.125)
        params = PhysicsParams()
        thetas = [4 * math.pi * k / 81 for k in range(81)]

        def sweep(cls, offset=0.0):
            rows = theta_sweep(geom, params, [t + offset for t in thetas], (cls,))
            return [row.phi for row in rows]

        boson = sweep(OpClass.BOSON)
        fermion = sweep(OpClass.FERMION)
        for t, phi_b, phi_f in zip(thetas, boson, fermion):
            assert angle_diff(phi_b, t / 2) <= INTERPOLATION_TOL
            assert angle_diff(phi_f, t / 2 + math.pi) <= INTERPOLATION_TOL

        # 4*pi periodicity of both classes
        for shifted, base in zip(sweep(OpClass.BOSON, offset=4 * math.pi), boson):
            assert angle_diff(shifted, base) <= INTERPOLATION_TOL

        # a 2*pi shift exchanges the boson and fermion outputs
        for shifted, base in zip(sweep(OpClass.BOSON, offset=2 * math.pi), fermion):
            assert angle_diff(shifted, base) <= 1e-12
        for shifted, base in zip(sweep(OpClass.FERMION, offset=2 * math.pi), boson):
            assert angle_diff(shifted, base) <= 1e-12


def test_criterion_5_permanent_determinant_oracle():
    with criterion(5, "operational combine vs permanent/determinant"):
        rng = random.Random(777)
        cases = [2] * 34 + [3] * 33 + [4] * 33
        for n in cases:
            matrix = [
                [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
                for _ in range(n)
            ]
            perms = noninteracting_alpha(matrix)
            boson = operational_combine(perms, OpClass.BOSON)
            fermion = operational_combine(perms, OpClass.FERMION)
            perm_oracle = laplace_permanent(matrix)
            det_oracle = complex(np.linalg.det(np.array(matrix)))
            assert abs(boson - perm_oracle) <= ORACLE_REL_TOL * max(1.0, abs(perm_oracle))
            assert abs(fermion - det_oracle) <= ORACLE_REL_TOL * max(1.0, abs(det_oracle))


def test_criterion_6_dephasing_scaling():
    with criterion(6, "opposite-step phase slope m D^2 / hbar over a dt decade"):
        params = PhysicsParams()
        radius = 1.0
        fit = dephasing_exponent(radius, 2.0, params, [0.2, 0.1, 0.05, 0.02])
        assert fit.predicted == params.mass * (2.0 * radius) ** 2 / params.hbar
        assert fit.rel_error < DEPHASING_REL_TOL, f"rel error {fit.rel_error}"

        # direct-step phase vanishes linearly in dt
        ratios = [s.phase_dir / s.dt for s in fit.samples]
        assert max(ratios) - min(ratios) <= 0.02 * max(ratios)
        by_dt = sorted(fit.samples, key=lambda s: s.dt)
        assert by_dt[0].phase_dir < by_dt[-1].phase_dir
        assert by_dt[0].phase_dir < 0.06


def test_criterion_7_fundamental_domain_flip():
    with criterion(7, "single boundary flip composing into the exchange phase"):
        geom = ExchangeGeometry(radius=1.0, n_steps=16, dt=0.125)
        flips = None
        for n_steps in range(2, 257):
            path = build_exchange_path(
                ExchangeGeometry(radius=1.0, n_steps=n_steps, dt=2.0 / n_steps)
            )
            factors = step_factors(path)
            flips = sum(1 for f in factors if f.flipped)
            assert flips == 1, f"n_steps {n_steps}: {flips} flips"

        # the single flip is the operational sign: fermion phase leads the
        # boson phase by exactly pi * (number of flips), consistent with the
        # interpolation law phi = theta/2 (+ pi)
        path = build_exchange_path(geom)
        cls, amp = classify(path), path_amplitude(path)
        for theta in (0.0, 1.0, math.pi, 2 * math.pi, 9.5):
            phi_b = exchange_phase(cls, amp, StatisticsSpec(theta, OpClass.BOSON)).phi
            phi_f = exchange_phase(cls, amp, StatisticsSpec(theta, OpClass.FERMION)).phi
            assert angle_diff(phi_f, phi_b + math.pi * flips) <= INTERPOLATION_TOL
            assert angle_diff(phi_b, theta / 2) <= INTERPOLATION_TOL
            assert angle_diff(phi_f, theta / 2 + math.pi) <= INTERPOLATION_TOL


def test_criterion_8_feynman_rule_algebra():
    with criterion(8, "product/sum/probability algebra on dyadic amplitudes"):
        rng = random.Random(4096)

        def dyadic_amplitude():
            return complex(rng.randint(-128, 128) / 64, rng.randint(-128, 128) / 64)

        for _ in range(10_000):
            a, b, c = dyadic_amplitude(), dyadic_amplitude(), dyadic_amplitude()
            # dyadic components keep every product exactly representable, so
            # the algebraic identities must hold bit-for-bit
            assert feynman_product(feynman_product(a, b), c) == feynman_product(
                a, feynman_product(b, c)
            )
            assert feynman_sum(a, b) == feynman_sum(b, a)
            assert feynman_sum(feynman_sum(a, b), c) == feynman_sum(a, feynman_sum(b, c))
            assert probability(feynman_product(a, b)) == probability(a) * probability(b)
