"""Homotopy classification of discrete paths in the punctured relative plane.

For two non-coincident particles in 2D the loops of the relative coordinate
around the puncture form the group of integers under addition: the class of a
path is its winding number.  We count it exactly: each signed crossing of the
relative vector between the two half-planes (the fundamental-domain boundary)
moves its lifted polar angle by one half-turn sheet, so the signs of the
path's :attr:`~anyonsim.config_space.DiscretePath.crossings` sum to twice the
winding, an integer, with no angles and no tolerance.  A path that ends in the
swapped configuration reverses the relative vector, so it crosses an odd
number of times: that is what makes half-integer windings possible.

Windings are reported in full counter-clockwise turns: integers for closed
paths (kind Direct), odd multiples of 1/2 for exchange paths.

The total turning angle is read off the same crossings, with no per-step
angle: pi per signed crossing, plus the change of the relative vector's
angle on its sheet between the path's two ends, two atan2 calls.  So it is
exactly 2*pi*w for a closed path and pi*2w for an exchange path.
"""

from __future__ import annotations

import enum
import math

from .config_space import DiscretePath, _is_finite, _read_number, _record, _shown, upper_half_plane
from .errors import EndpointsNotClosedOrExchanged


class Kind(enum.Enum):
    """Endpoint relation of a classifiable path."""

    DIRECT = "Direct"
    EXCHANGE = "Exchange"


class HomotopyClass(_record("HomotopyClass", "kind winding")):
    """Winding number plus the direct/exchange endpoint tag.

    Direct classes carry integer windings, exchange classes half-odd-integer
    ones.  The constructor reads kind with ``Kind(kind)``, so a member or its
    value ("Direct"), and the winding as :func:`_read_number` reads it, and
    holds what it read: a Fraction, a Decimal or a numpy winding is held as
    its float.  Anything else, a winding that is not a finite half-integer
    (:func:`_is_finite`) and a winding that does not pair with the kind are
    refused, each with ValueError.
    """

    __slots__ = ()

    def __new__(cls, kind: Kind, winding: float) -> HomotopyClass:
        kind, read = Kind(kind), _read_number(winding)
        if not (_is_finite(read) and read % 0.5 == 0):
            raise ValueError(f"winding must be a half-integer, got {_shown(winding)}")
        if (read % 1 == 0) != (kind is Kind.DIRECT):
            raise ValueError(f"{kind.value} class cannot have winding {winding}")
        return tuple.__new__(cls, (kind, read))


def endpoint_kind(start: tuple, end: tuple) -> Kind:
    """Direct when end equals start, Exchange when end is start with the two
    particles swapped.

    start and end are (x1, y1, x2, y2) tuples: configurations, or the integer
    sites a lattice snaps them to.  Any other pair has no absolute
    half-integer winding and raises EndpointsNotClosedOrExchanged.
    """
    x1, y1, x2, y2 = start
    if end == start:
        return Kind.DIRECT
    if end == (x2, y2, x1, y1):
        return Kind.EXCHANGE
    raise EndpointsNotClosedOrExchanged(
        "endpoints must be equal (Direct) or swapped (Exchange) to resolve winding classes"
    )


def _sheet_angle(config: tuple) -> float:
    """The polar angle, in [0, pi], of the relative vector r = p1 - p2 of
    config on its half-turn sheet: atan2 of r in its :func:`upper_half_plane`
    half, of -r in the other."""
    x1, y1, x2, y2 = config
    rx, ry = x1 - x2, y1 - y2
    return math.atan2(ry, rx) if upper_half_plane(rx, ry) else math.atan2(-ry, -rx)


def total_angle(path: DiscretePath) -> float:
    """Accumulated signed turning of the relative vector, in radians.

    The lifted polar angle of r lies on sheet h in [h*pi, (h+1)*pi), and
    each of the path's crossings moves h by its sign, so the turning is
    pi times the signed crossings plus the change of the angle on its sheet
    from the first configuration to the last: no per-step angle is taken.
    A closed path's two ends have the same angle on their sheets, so its
    turning is exactly 2*pi*w; an exchange path's ends have opposite
    relative vectors, with the same angle too, so its turning is exactly
    pi*2w.  Negated by reversal; additive under concatenation and unchanged
    when both particles are translated together, up to rounding.
    """
    w2 = sum(sign for _, sign in path.crossings)
    return math.pi * w2 + (_sheet_angle(path.end) - _sheet_angle(path.start))


def classify(path: DiscretePath) -> HomotopyClass:
    """Homotopy class of a closed (Direct) or swapped-endpoint (Exchange) path.

    The winding is half the signed count of half-plane crossings of the
    relative vector, so it is exact.
    """
    w2 = sum(sign for _, sign in path.crossings)
    return HomotopyClass(endpoint_kind(path.start, path.end), w2 / 2.0)

