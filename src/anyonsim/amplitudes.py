"""Amplitudes: discretized actions, winding-resolved propagators, and the
operational combination rules.

A propagator between two lattice configurations is a sum over walks: every
valid walk contributes exp(i S / hbar) with S the free kinetic action, and
contributions are grouped by the winding class of the walk.  The walks are
not visited one by one; the exact walk census counts them per (winding,
squared displacement), and the action depends on nothing else.  The total
over classes reproduces the unrestricted walk sum exactly; reweighting class
w by exp(i theta w) before summing turns the pair into anyons of statistics
angle theta.

Amplitudes are plain Python complex numbers throughout.
"""

from __future__ import annotations

import cmath
import enum
import itertools
import math
from collections.abc import Mapping, Sequence

from .config_space import (
    DEFAULT_BUDGET,
    DiscretePath,
    EndpointPair,
    LatticeSpec,
    _count_at_least,
    _iterate,
    _read_choice,
    _record,
    _snap_to_sites,
    check_count,
    check_finite,
    check_finite_positive,
    walk_census,
)
from .errors import (
    BudgetExceeded,
    IncompleteMap,
    NonSquare,
    ValidationError,
)
from .homotopy import HomotopyClass, Kind, endpoint_kind


def _as_dict(value, what: str) -> dict:
    """dict(value); a value that is neither a mapping nor iterable is refused with ValidationError."""
    return dict(value if hasattr(value, "keys") else _iterate(value, what))


class PhysicsParams(_record("PhysicsParams", "mass hbar")):
    """Particle mass and hbar; natural units by default."""

    __slots__ = ()

    def __new__(cls, mass: float = 1.0, hbar: float = 1.0) -> PhysicsParams:
        return tuple.__new__(cls, (check_finite_positive("mass", mass), check_finite_positive("hbar", hbar)))


class OpClass(enum.Enum):
    """The two operational symmetrization rules."""

    BOSON = "boson"
    FERMION = "fermion"


class StatisticsSpec(_record("StatisticsSpec", "theta op_class")):
    """Statistics angle theta (phase of one full CCW rotation) plus the
    operational class. theta is 4*pi-periodic in every observable here.

    theta is read by :func:`check_finite`, and op_class, an OpClass or its
    value ("boson", "fermion"), is held as the member
    (:func:`~anyonsim.config_space._read_choice`), theta first."""

    __slots__ = ()

    def __new__(cls, theta: float, op_class: OpClass | str) -> StatisticsSpec:
        return tuple.__new__(cls, (check_finite("theta", theta), _read_choice("op_class", OpClass, op_class)))


class ResolvedKernel(_record("ResolvedKernel", "endpoints n_steps partials")):
    """Propagator split into per-winding-class partial amplitudes, stored in
    rising winding order, the order every sum over them and the JSON form take."""

    __slots__ = ()

    def __new__(
        cls, endpoints: EndpointPair, n_steps: int, partials: Mapping[HomotopyClass, complex]
    ) -> ResolvedKernel:
        partials = _as_dict(partials, "partials must be a mapping of winding classes to amplitudes")
        partials = {c: partials[c] for c in sorted(partials, key=lambda c: c.winding)}
        self = tuple.__new__(cls, (endpoints, check_count("n_steps", n_steps), partials))
        kind = self.kind
        for c in self.partials:
            if c.kind is not kind:
                raise ValidationError(f"partial of kind {c.kind.value} in a {kind.value} kernel")
        return self

    @property
    def kind(self) -> Kind:
        """Direct or Exchange, read from the endpoints each time it is asked for."""
        return endpoint_kind(self.endpoints.start, self.endpoints.end)

    def total(self) -> complex:
        """Partition total: the unrestricted walk sum, recovered from the classes."""
        return sum(self.partials.values(), 0j)

    def to_json_dict(self) -> dict:
        (sx1, sy1, sx2, sy2), (ex1, ey1, ex2, ey2) = self.endpoints.start, self.endpoints.end
        return {
            "endpoints": {
                "start": [[sx1, sy1], [sx2, sy2]],
                "end": [[ex1, ey1], [ex2, ey2]],
            },
            "n_steps": self.n_steps,
            "partials": [
                {"kind": c.kind.value, "winding": c.winding, "re": amp.real, "im": amp.imag}
                for c, amp in self.partials.items()
            ],
        }


def action(path: DiscretePath, params: PhysicsParams = PhysicsParams()) -> float:
    """Free-particle kinetic action of the discretized two-particle path:
    sum over steps of m (|dp1|^2 + |dp2|^2) / (2 dt), the mass times the
    kinetic sum that the path's validating pass added up in path order
    (:func:`~anyonsim.config_space.validate_path`).  An action that
    overflows is refused with ValidationError."""
    return check_finite("action", params.mass * path._kinetic)


def phase_factor(phase: float) -> complex:
    """exp(i * phase) for an action phase S/hbar.  A phase that is not finite
    (S/hbar overflowing although S is finite), or past 2^53 in magnitude,
    where one ulp is >= 2 and exp(i * phase) has no significant digit, is
    refused with ValidationError."""
    phase = check_finite("phase S/hbar", phase)
    if abs(phase) > 2.0**53:
        raise ValidationError(f"phase S/hbar must be at most 2^53 in magnitude, got {phase}")
    return cmath.exp(1j * phase)


def path_amplitude(path: DiscretePath, params: PhysicsParams = PhysicsParams()) -> complex:
    """exp(i S / hbar); always unit modulus."""
    return phase_factor(action(path, params) / params.hbar)


def resolved_kernel(
    lattice: LatticeSpec,
    endpoints: EndpointPair,
    n_steps: int,
    params: PhysicsParams = PhysicsParams(),
    *,
    dt: float = 1.0,
    budget: int = DEFAULT_BUDGET,
) -> ResolvedKernel:
    """Lattice propagator resolved by winding class.

    partials[w] sums exp(i S / hbar) over every valid walk of winding w;
    classes without walks are absent.  Both endpoints are first snapped to
    lattice sites (ValidationError if one is not four numbers,
    EndpointOffLattice if one is not within 1e-9 spacings of a site), and the endpoint kind is decided on those sites: they must be
    closed or swapped, otherwise winding has no absolute half-integer value.
    The returned kernel's endpoints are the lattice configurations of the
    sites.  The request is refused up front when the joint-move sequence
    bound (moves**2)**n_steps, 25**n_steps for the default moves, exceeds
    the budget, an integer >= 1 (ValidationError otherwise).
    """
    start4 = _snap_to_sites(lattice, endpoints.start)
    end4 = _snap_to_sites(lattice, endpoints.end)
    kind = endpoint_kind(start4, end4)
    dt = check_finite_positive("dt", dt)
    n_steps = check_count("n_steps", n_steps)
    budget = _count_at_least("budget", budget, 1)
    base = len(lattice.moves) ** 2
    # the power is built only while it is within the budget, since at n_steps
    # in the thousands it has thousands of digits; one built in full is
    # printed in decimal, any other as base^n_steps
    estimate, built = 1, 0
    while built < n_steps and estimate <= budget:
        estimate *= base
        built += 1
    if estimate > budget:
        bound = estimate if built == n_steps else f"{base}^{n_steps}"
        raise BudgetExceeded(f"estimated {bound} joint-move sequences exceed budget {budget}")
    try:
        action_unit = params.mass * lattice.spacing**2 / (2.0 * dt * params.hbar)
    except (OverflowError, ZeroDivisionError):  # ** overflow, or 2*dt*hbar underflow to 0
        action_unit = math.inf
    action_unit = check_finite("action unit m*spacing^2/(2*dt*hbar)", action_unit)
    sites = EndpointPair(
        lattice.config(start4[:2], start4[2:]), lattice.config(end4[:2], end4[2:])
    )
    counts = walk_census(lattice, sites, n_steps)

    # one pass over the census in (w2, ssq) order: each class sums its
    # buckets in ascending ssq, and the classes come in ascending w2
    phases: dict[int, complex] = {}
    amps: dict[int, complex] = {}
    for (w2, ssq), count in sorted(counts.items()):
        phase = phases.get(ssq)
        if phase is None:
            phase = phases[ssq] = phase_factor(action_unit * ssq)
        amps[w2] = amps.get(w2, 0j) + count * phase
    partials = {HomotopyClass(kind, w2 / 2.0): amp for w2, amp in amps.items()}
    return ResolvedKernel(endpoints=sites, n_steps=n_steps, partials=partials)


def anyonic_weight(cls: HomotopyClass, theta: float) -> complex:
    """Topological phase exp(i theta w) of winding class w.

    One full CCW rotation of the pair accrues exp(i theta); an exchange is
    half a rotation, so a +1/2 class accrues exp(i theta / 2).  An angle
    theta*w that is not finite is refused with ValidationError.
    """
    try:
        angle = theta * cls.winding
    except OverflowError:  # an int theta past the float range
        angle = math.inf
    if not math.isfinite(angle):
        raise ValidationError(
            f"theta*w must be finite, got {angle} (theta {theta}, w {cls.winding})"
        )
    return cmath.exp(1j * angle)


def anyonic_kernel(resolved: ResolvedKernel, theta: float) -> complex:
    """Winding-weighted propagator: sum over classes of exp(i theta w) K^w.
    A theta that is not finite is refused with ValidationError, also when
    the kernel has no classes."""
    theta = check_finite("theta", theta)
    return sum((anyonic_weight(c, theta) * amp for c, amp in resolved.partials.items()), 0j)


# --- the three composition rules for outcome-sequence amplitudes -------------


def feynman_product(ab: complex, bc: complex) -> complex:
    """Amplitude of a two-leg sequence: the product of the leg amplitudes."""
    return ab * bc


def feynman_sum(abd: complex, acd: complex) -> complex:
    """Amplitude through unmeasured alternatives: the sum over them."""
    return abd + acd


def probability(a: complex) -> float:
    """Squared modulus of an amplitude."""
    return a.real * a.real + a.imag * a.imag


# --- operational combination of distinguishable-particle amplitudes ----------


class PermutationAmplitudes(_record("PermutationAmplitudes", "n alpha")):
    """Transition amplitude for each permutation of the final configuration.

    Permutations of range(n) are represented as tuples: sigma maps slot j to
    sigma[j].  A complete map holds all n! of them.
    """

    __slots__ = ()

    def __new__(cls, n: int, alpha: Mapping[tuple[int, ...], complex]) -> PermutationAmplitudes:
        n = _count_at_least("n", n, 1)
        alpha = _as_dict(alpha, "alpha must be a mapping of permutations to amplitudes")
        return tuple.__new__(cls, (n, alpha))


def permutation_sign(sigma: tuple[int, ...]) -> int:
    """+1 for even permutations, -1 for odd, by counting transpositions
    through the cycle decomposition."""
    seen = [False] * len(sigma)
    transpositions = 0
    for start in range(len(sigma)):
        if seen[start]:
            continue
        cycle_len = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            cycle_len += 1
        transpositions += cycle_len - 1
    return -1 if transpositions % 2 else 1


def operational_combine(perms: PermutationAmplitudes, op_class: OpClass | str) -> complex:
    """Combine distinguishable-particle amplitudes over all permutations:
    a plain sum for bosons, a sign-weighted sum for fermions.

    For n = 2 this is alpha_direct + alpha_opposite (boson) or
    alpha_direct - alpha_opposite (fermion).  op_class is an OpClass or its
    value, read first (:func:`~anyonsim.config_space._read_choice`), so
    "fermion" gives the determinant and anything else is refused with
    ValidationError.
    """
    op_class = _read_choice("op_class", OpClass, op_class)
    total = 0j
    for sigma in itertools.permutations(range(perms.n)):
        try:
            amp = perms.alpha[sigma]
        except KeyError:
            raise IncompleteMap(f"missing amplitude for permutation {sigma}") from None
        if op_class is OpClass.FERMION:
            total += permutation_sign(sigma) * amp
        else:
            total += amp
    return total


def noninteracting_alpha(single_kernel: Sequence[Sequence[complex]]) -> PermutationAmplitudes:
    """Permutation amplitudes of n non-interacting particles.

    Entry (j, k) of the matrix is the single-particle amplitude from start j
    to end k; the amplitude of permutation sigma is the product over j of
    M[j][sigma(j)].  Combining these gives the permanent (boson) or the
    determinant (fermion) of the matrix.  An entry that is not a number is
    refused with ValidationError.
    """
    try:
        rows = [tuple(complex(v) for v in row) for row in single_kernel]
    except (TypeError, ValueError):
        raise ValidationError(f"the single-particle amplitudes must be rows of numbers, got {single_kernel!r}") from None
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise NonSquare(f"expected a square matrix, got rows of lengths {[len(r) for r in rows]}")
    # the product over the rows j of entry sigma[j], taken in row order
    alpha = {s: math.prod(map(tuple.__getitem__, rows, s), start=1 + 0j) for s in itertools.permutations(range(n))}
    return PermutationAmplitudes(n=n, alpha=alpha)
