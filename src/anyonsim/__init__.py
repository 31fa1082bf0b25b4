"""anyonsim: two-particle exchange statistics in the punctured plane.

Desk-scale machinery for winding-number classification of two-particle paths,
exact winding-resolved lattice propagators, anyonic phase weights, the
operational boson/fermion combination rules, and the discretized exchange
experiment that ties them together into a total exchange phase exp(i phi).
"""

from .amplitudes import (
    DEFAULT_BUDGET,
    OpClass,
    PermutationAmplitudes,
    PhysicsParams,
    ResolvedKernel,
    StatisticsSpec,
    action,
    anyonic_kernel,
    anyonic_weight,
    feynman_product,
    feynman_sum,
    noninteracting_alpha,
    operational_combine,
    path_amplitude,
    permutation_sign,
    probability,
    resolved_kernel,
)
from .config_space import (
    DEFAULT_MOVES,
    DiscretePath,
    EndpointPair,
    LatticeSpec,
    TwoParticleConfig,
    Vec2,
    concat_paths,
    enumerate_walks,
    path_from_json_dict,
    reverse_path,
    swap,
    validate_path,
    walk_census,
)
from .exchange import (
    DephasingFit,
    DephasingSample,
    Direction,
    ExchangeGeometry,
    ExchangePhase,
    StepFactor,
    build_exchange_path,
    dephasing_exponent,
    exchange_phase,
    step_factors,
    theta_sweep,
)
from .homotopy import (
    HomotopyClass,
    Kind,
    classify,
    endpoint_kind,
    total_angle,
)

__version__ = "0.1.0"
