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
"""

from __future__ import annotations

import enum
from collections import namedtuple

from .config_space import DiscretePath
from .errors import EndpointsNotClosedOrExchanged


class Kind(enum.Enum):
    """Endpoint relation of a classifiable path."""

    DIRECT = "Direct"
    EXCHANGE = "Exchange"


class HomotopyClass(namedtuple("HomotopyClass", "kind winding")):
    """Winding number plus the direct/exchange endpoint tag.

    Direct classes carry integer windings, exchange classes half-odd-integer
    ones; the constructor enforces that pairing.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, it: cls(*it))

    def __new__(cls, kind: Kind, winding: float) -> HomotopyClass:
        w2 = 2.0 * winding
        if w2 != round(w2):
            raise ValueError(f"winding must be a half-integer, got {winding}")
        is_integer = round(w2) % 2 == 0
        if is_integer != (kind is Kind.DIRECT):
            raise ValueError(f"{kind.value} class cannot have winding {winding}")
        return tuple.__new__(cls, (kind, winding))


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


def total_angle(path: DiscretePath) -> float:
    """Accumulated signed turning of the relative vector, in radians.

    Additive under concatenation and negated by reversal.  Depends only on
    the relative coordinate, so translating both particles together changes
    nothing.  Each step turns by atan2(cross, dot) of its two relative
    vectors, and the turns are summed by the validating pass that built the
    path (:func:`~anyonsim.config_space.validate_path`).
    """
    return path._turning


def classify(path: DiscretePath) -> HomotopyClass:
    """Homotopy class of a closed (Direct) or swapped-endpoint (Exchange) path.

    The winding is half the signed count of half-plane crossings of the
    relative vector, so it is exact.
    """
    w2 = sum(sign for _, sign in path.crossings)
    return HomotopyClass(endpoint_kind(path.start, path.end), w2 / 2.0)

