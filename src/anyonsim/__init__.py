"""anyonsim: two-particle exchange statistics in the punctured plane.

Desk-scale machinery for winding-number classification of two-particle paths,
exact winding-resolved lattice propagators, anyonic phase weights, the
operational boson/fermion combination rules, and the discretized exchange
experiment that ties them together into a total exchange phase exp(i phi).

The names below are exported lazily (PEP 562): each is imported from its
module when it is first read, so importing the package, or one subcommand
of the CLI, loads only the modules that are used.
"""

#: each exported name, with the module that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "OpClass",
            "PermutationAmplitudes",
            "PhysicsParams",
            "ResolvedKernel",
            "StatisticsSpec",
            "action",
            "anyonic_kernel",
            "anyonic_weight",
            "feynman_product",
            "feynman_sum",
            "noninteracting_alpha",
            "operational_combine",
            "path_amplitude",
            "permutation_sign",
            "probability",
            "resolved_kernel",
        ),
        "amplitudes",
    ),
    **dict.fromkeys(
        (
            "DEFAULT_BUDGET",
            "DEFAULT_MOVES",
            "DiscretePath",
            "EndpointPair",
            "LatticeSpec",
            "TwoParticleConfig",
            "Vec2",
            "concat_paths",
            "enumerate_walks",
            "path_from_json_dict",
            "reverse_path",
            "swap",
            "validate_path",
            "walk_census",
        ),
        "config_space",
    ),
    **dict.fromkeys(
        (
            "DephasingFit",
            "DephasingSample",
            "Direction",
            "ExchangeGeometry",
            "ExchangePhase",
            "StepFactor",
            "build_exchange_path",
            "dephasing_exponent",
            "exchange_phase",
            "step_factors",
            "theta_sweep",
        ),
        "exchange",
    ),
    **dict.fromkeys(
        ("HomotopyClass", "Kind", "classify", "endpoint_kind", "total_angle"),
        "homotopy",
    ),
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # read once; later reads find it here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
