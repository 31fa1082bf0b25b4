"""Exception types shared across the package.

The class name of each error doubles as the machine-parsable prefix the CLI
prints on stderr, so these names are part of the public surface.
"""


class AnyonSimError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(AnyonSimError):
    """A configuration or path violates a structural invariant."""


class CoincidenceAtStep(ValidationError):
    """Both particles occupy the same point at config index ``step``."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"particles coincide at config {step}")


class TurnTooLargeAtStep(ValidationError):
    """The relative vector turns by exactly pi (or more) during step ``step``."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"relative vector turns by >= pi during step {step}")


class EndpointsNotClosedOrExchanged(AnyonSimError):
    """Endpoints are neither equal nor swapped, so no absolute winding exists."""


class EndpointOffLattice(AnyonSimError):
    """An endpoint configuration does not sit on a lattice site."""


class BudgetExceeded(AnyonSimError):
    """Walk enumeration would exceed the configured budget."""


class IncompleteMap(AnyonSimError):
    """A permutation-amplitude map is missing at least one permutation."""


class NonSquare(AnyonSimError):
    """A single-particle amplitude matrix is not square."""


class NotExchangeKernel(AnyonSimError):
    """An exchange phase was requested for a winding class that is not of
    exchange kind."""


class DegenerateGrid(AnyonSimError):
    """A time-step grid is too small or too clustered to fit a slope."""


class BadRange(AnyonSimError):
    """A sweep range or point count is invalid."""


class ParseError(AnyonSimError):
    """Input (JSON file or CLI value) could not be parsed."""
