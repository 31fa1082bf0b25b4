import copy
import itertools
import json
import math
import random
import re
import warnings
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from anyonsim import (
    DEFAULT_MOVES,
    DiscretePath,
    EndpointPair,
    ExchangeGeometry,
    LatticeSpec,
    TwoParticleConfig,
    Vec2,
    build_exchange_path,
    classify,
    concat_paths,
    enumerate_walks,
    path_from_json_dict,
    resolved_kernel,
    reverse_path,
    swap,
    total_angle,
    validate_path,
    walk_census,
)
from anyonsim import config_space
from anyonsim.config_space import _as_configs, _configs_from_json
from anyonsim.errors import (
    AnyonSimError,
    CoincidenceAtStep,
    EndpointOffLattice,
    TurnTooLargeAtStep,
    ValidationError,
)
from helpers import (
    CLONES,
    MOVES,
    brute_force_walks,
    check_record,
    check_refusal,
    direct_successors,
    half_plane_crossings,
    json_path,
    kinetic_sum,
    lattice_path,
    random_valid_walk,
)

KING_MOVES = MOVES + ((1, 1), (-1, -1), (1, -1), (-1, 1))
#: moves of Manhattan length 2 and 3, whose reach prunes less than a unit move's
LONG_MOVES = ((2, 0), (0, -2), (1, 2), (-2, -1))


def cfg(x1, y1, x2, y2):
    return TwoParticleConfig(x1, y1, x2, y2)


class TestVec2:
    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            Vec2(float("nan"), 0.0)

    def test_rejects_infinity(self):
        with pytest.raises(ValidationError):
            Vec2(0.0, float("inf"))

    def test_arithmetic(self):
        # a Vec2 is a plain named tuple: + concatenates, and there is no -
        assert Vec2(1, 2) + Vec2(3, -1) == (1, 2, 3, -1)
        with pytest.raises(TypeError):
            Vec2(1, 2) - Vec2(3, -1)


class TestSwap:
    def test_example(self):
        assert swap(cfg(0, 0, 1, 0)) == cfg(1, 0, 0, 0)

    def test_negative_coordinates(self):
        assert swap(cfg(-1, 2, 3, 0)) == cfg(3, 0, -1, 2)

    def test_involution(self):
        rng = random.Random(7)
        for _ in range(50):
            c = cfg(*(rng.uniform(-5, 5) for _ in range(4)))
            assert swap(swap(c)) == c


finite_coords = st.floats(allow_nan=False, allow_infinity=False)


class TestTwoParticleConfig:
    def test_is_the_tuple_of_its_coordinates(self):
        # declared surface: unpacks, indexes, orders and equals the plain 4-tuple
        c = cfg(1.0, 2.0, 3.0, 4.0)
        assert c == (1.0, 2.0, 3.0, 4.0) and hash(c) == hash((1.0, 2.0, 3.0, 4.0))
        x1, y1, x2, y2 = c
        assert (x1, y1, x2, y2) == (c[0], c[1], c[2], c[3]) == (1.0, 2.0, 3.0, 4.0)
        assert c < swap(c)
        assert repr(c) == "TwoParticleConfig(x1=1.0, y1=2.0, x2=3.0, y2=4.0)"
        assert TwoParticleConfig(x1=1.0, y1=2.0, x2=3.0, y2=4.0) == c

    @pytest.mark.parametrize("clone", list(CLONES.values()), ids=list(CLONES))
    def test_copy_and_pickle_round_trip(self, clone):
        path = lattice_path([(1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 0, 0)])
        for obj in (path.configs[1], path):
            twin = clone(obj)
            assert type(twin) is type(obj) and twin == obj
        assert all(type(c) is TwoParticleConfig for c in clone(path).configs)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(finite_coords, finite_coords, finite_coords, finite_coords)
    def test_coordinate_and_vec2_construction_agree(self, x1, y1, x2, y2):
        # the JSON loader's unchecked fast path, its coordinates made
        # configurations by _as_configs as path_from_json_dict makes them,
        # builds what the constructor builds, a configuration that no path
        # admits (coincident, or with an overflowing relative vector) included
        built = TwoParticleConfig(x1, y1, x2, y2)
        (coords,) = _configs_from_json([[[x1, y1], [x2, y2]]])
        assert list(map(float.hex, coords)) == list(map(float.hex, built))
        (loaded,) = _as_configs([coords])
        assert type(loaded) is type(built) is TwoParticleConfig
        assert loaded == built and hash(loaded) == hash(built)
        assert loaded.p1 == built.p1 == Vec2(x1, y1)
        assert loaded.p2 == built.p2 == Vec2(x2, y2)
        assert repr(loaded) == repr(built)
        assert swap(swap(loaded)) == loaded and swap(loaded).p1 == built.p2


class TestDiscretePath:
    def test_needs_two_configs(self):
        with pytest.raises(ValidationError):
            DiscretePath(dt=1.0, configs=(cfg(0, 0, 1, 0),))

    def test_needs_positive_dt(self):
        with pytest.raises(ValidationError):
            DiscretePath(dt=0.0, configs=(cfg(0, 0, 1, 0), cfg(0, 0, 1, 0)))


#: the ways to build a path from its configurations: each runs the validating pass
BUILDS = {
    "constructor": lambda configs: DiscretePath(1.0, configs),
    "_make": lambda configs: DiscretePath._make((1.0, configs)),
    "_replace": lambda configs: DiscretePath(1.0, (cfg(0, 0, 1, 0),) * 2)._replace(configs=configs),
}


class TestValidatePath:
    # a path is validated when it is built, so each refusal comes from building it

    def test_quarter_turn_ok(self):
        path = DiscretePath(dt=1.0, configs=(cfg(0, 0, 1, 0), cfg(0, 0, 0, 1)))
        validate_path(path)

    def test_coincidence_reported_with_index(self):
        with pytest.raises(CoincidenceAtStep) as err:
            DiscretePath(dt=1.0, configs=(cfg(0, 0, 1, 0), cfg(1, 1, 1, 1), cfg(0, 0, 1, 0)))
        assert err.value.step == 1

    def test_exact_pi_turn_rejected(self):
        # relative vector flips (1,0) -> (-1,0) in one step
        with pytest.raises(TurnTooLargeAtStep) as err:
            lattice_path([(1, 0, 0, 0), (-1, 0, 0, 0)])
        assert err.value.step == 0

    def test_antiparallel_with_different_lengths_rejected(self):
        with pytest.raises(TurnTooLargeAtStep):
            lattice_path([(2, 0, 0, 0), (-1, 0, 0, 0)])

    @pytest.mark.parametrize("build", list(BUILDS.values()), ids=list(BUILDS))
    def test_overflowing_relative_vector_refused(self, build):
        # both positions are finite, but r = p1 - p2 overflows to (inf, 0)
        with pytest.raises(ValidationError, match=r"^non-finite vector component \(inf, 0\.0\)$"):
            build((cfg(1e308, 0.0, -1e308, 0.0),) * 2)

    @pytest.mark.parametrize("build", list(BUILDS.values()), ids=list(BUILDS))
    @pytest.mark.parametrize(
        "configs, message",
        [
            ([(1.0, 0.0, 0.0), (1.0, 0.0, 0.0)], "configuration 0 is not four coordinates: (1.0, 0.0, 0.0)"),
            ([cfg(0, 0, 1, 0), (0.0, 1.0, 0.0, 0.0, 0.0)], "configuration 1 is not four coordinates: (0.0, 1.0, 0.0, 0.0, 0.0)"),
            ([cfg(0, 0, 1, 0), cfg(0, 1, 1, 0), 5], "configuration 2 is not four coordinates: 5"),
            ([cfg(0, 0, 1, 0), "abcd"], "configuration 1 is not four coordinates: 'abcd'"),
        ],
        ids=["three", "five", "not-iterable", "string"],
    )
    def test_configuration_that_is_not_four_coordinates_refused(self, build, configs, message):
        # refused by the one validating pass, which names the configuration
        with pytest.raises(ValidationError) as err:
            build(configs)
        assert type(err.value) is ValidationError and str(err.value) == message

    @pytest.mark.parametrize("build", list(BUILDS.values()), ids=list(BUILDS))
    def test_invalid_path_is_refused_by_every_build(self, build):
        with pytest.raises(CoincidenceAtStep, match="^particles coincide at config 1$"):
            build((cfg(0, 0, 1, 0), cfg(1, 1, 1, 1)))


#: coordinates at the edges of the float range: their cross and dot products
#: overflow to inf or NaN, or the cross product alone underflows
EDGE_COORDS = (1e200, -1e200, 1e199, -5e199, 1e-300, -1e-300, 5e-324, -5e-324, 1e308, -1e308)
#: items of a path that are not four coordinates
NOT_CONFIGS = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0, 0.0), 5, "abcd")


@st.composite
def pass_paths(draw):
    """Configurations of a path, at least two, most of them valid, with
    coordinates of lattice, assorted and edge scales; and sometimes a
    coincidence, an exact pi turn, an item that is not four coordinates or a
    relative vector that overflows."""
    coord = st.one_of(
        st.integers(-3, 3).map(float),
        st.floats(-1e3, 1e3, allow_subnormal=False),
        st.sampled_from(EDGE_COORDS),
    )
    configs = [draw(st.tuples(coord, coord, coord, coord)) for _ in range(draw(st.integers(2, 12)))]
    defects = st.sampled_from(("coincident", "pi turn", "not four", "overflow"))
    # the items that are not four coordinates go in last, so that no other defect reads one
    for defect in sorted(draw(st.lists(defects, max_size=2)), key=lambda d: d == "not four"):
        k = draw(st.integers(0, len(configs) - 1))
        if defect == "coincident":
            configs[k] = configs[k][:2] * 2
        elif defect == "pi turn" and k:  # the swap of the configuration before: r turns by exactly pi
            configs[k] = configs[k - 1][2:] + configs[k - 1][:2]
        elif defect == "not four":
            configs[k] = draw(st.sampled_from(NOT_CONFIGS))
        elif defect == "overflow":
            configs[k] = (1e308, 0.0, -1e308, 0.0)
    return configs


def _first_defect(build):
    """build(), or the type and message of the ValidationError it raises."""
    try:
        return build()
    except ValidationError as exc:
        return type(exc), str(exc)


def _rel(x, y):
    return [x, y, 0.0, 0.0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pass_paths(), st.sampled_from((1.0, 0.05, 3e-7, 2.5e5)))
# the turns past the float range of winding's CLI tests, relative vectors with particle 2 at the origin
@example([_rel(1e200, 1e200), _rel(-1e200, 1e200), _rel(1e200, 1e200)], 1.0)
@example([_rel(1e200, 0), _rel(1e200, 1e199), _rel(1e199, 1e200), _rel(-1e200, 0), _rel(0, -1e200), _rel(1e200, 0)], 1.0)
@example([_rel(1e-300, 0), _rel(3, -1e-300), _rel(0, -3), _rel(-3, 0), _rel(0, 3), _rel(1e-300, 0)], 1.0)
@example([_rel(1e-300, 0), _rel(0, 3), _rel(-3, 0), _rel(0, -3), _rel(3, -1e-300), _rel(1e-300, 0)], 1.0)
# crossings signed exactly: both products underflow, the cross product is inf - inf, the least subnormal cross product
@example([_rel(5e-324, 0.0), _rel(-5e-324, -5e-324)], 1.0)
@example([_rel(-1e200, 1e200), _rel(1e200, -5e199)], 1.0)
@example([_rel(1.0, 5e-324), _rel(1.0, -5e-324)], 1.0)
# steps that stay in their half, accepted with no crossing although the float cross product
# is 0 (it underflows) or NaN (inf - inf); and the exactly antiparallel steps at those scales, refused
@example([_rel(5e-324, 5e-324), _rel(1e-323, 5e-324)], 1.0)
@example([_rel(1e200, 1e200), _rel(1e200, 2e200)], 1.0)
@example([_rel(5e-324, 5e-324), _rel(-5e-324, -5e-324)], 1.0)
@example([_rel(1e200, 1e200), _rel(-1e200, -1e200)], 1.0)
# int coordinates: products past the float range, exact as ints (one crossing each way, and
# an int kinetic sum that no float holds), and relative vectors that no float holds, one of
# them with a component sum of 0
@example([(10**200, 0, 0, 0), (0, 10**200, 0, 0)], 1.0)
@example([(10**200, 10**200, 0, 0), (10**200, -10**200, 0, 0), (10**200, 10**200, 0, 0)], 1.0)
@example([(1, 0, 0, 0), (10**400, 0, 0, 0)], 1.0)
@example([(1, 0, 0, 0), (10**400, 0, 0, 10**400)], 1.0)
# a path whose kinetic sum rounds differently if its four squares are added in another order
@example([(2.736, 2.687, -2.661, -2.491), (2.013, 1.416, 1.018, -1.151), (0.636, 0.641, 0.487, -2.05),
          (-0.416, -0.639, 1.338, 2.969)], 0.05)
def test_pass_over_an_iterator_is_the_paths_pass(configs, dt):
    # the one validating pass over a one-shot iterator gives what DiscretePath
    # gives, and its kinetic sum is the step-by-step loop's, bit for bit
    want = _first_defect(lambda: DiscretePath(dt, configs))
    got = _first_defect(lambda: config_space._walk(iter(configs), dt, config_space._Walk()))
    if type(want) is tuple:
        assert got == want
        return
    assert got.crossings == want.crossings == tuple(half_plane_crossings(want))
    assert total_angle(got).hex() == total_angle(want).hex()
    assert got._kinetic.hex() == want._kinetic.hex() == kinetic_sum(configs, dt).hex()
    # the path holds a list configuration as the tuple of its values
    assert (tuple(got.start), tuple(got.end), got.n_steps) == (want.start, want.end, want.n_steps)
    assert type(want.start) is tuple and type(want.end) is tuple
    assert got.start is configs[0] and got.end is configs[-1]


def _exchange_path():
    return build_exchange_path(ExchangeGeometry(radius=1.0, n_steps=4, dt=0.1))


def _lattice_walks():
    lattice = LatticeSpec(extent=1)
    start = lattice.config((-1, 0), (1, 0))
    return list(enumerate_walks(lattice, EndpointPair(start, swap(start)), 4))


#: every way to make a path: (what it needs made first, the build from that)
PATH_MAKERS = {
    "constructor": (lambda: [A, B], BUILDS["constructor"]),
    "_make": (lambda: [A, B], BUILDS["_make"]),
    "_replace": (lambda: DiscretePath(0.1, [A, B]), lambda path: path._replace(configs=[B, A])),
    **{name: (lambda: DiscretePath(0.1, [A, B]), clone) for name, clone in CLONES.items()},
    "reverse_path": (lambda: DiscretePath(0.1, [A, B]), reverse_path),
    "concat_paths": (
        lambda: (DiscretePath(0.1, [A, B]), DiscretePath(0.1, [B, A])),
        lambda pair: concat_paths(*pair),
    ),
    "path_from_json_dict": (lambda: json_path([(1, 0, 0, 0), (0, 1, 0, 0)]), path_from_json_dict),
    "build_exchange_path": (lambda: None, lambda _: _exchange_path()),
    "enumerate_walks": (lambda: None, lambda _: _lattice_walks()),
}


@pytest.mark.parametrize("maker", list(PATH_MAKERS.values()), ids=list(PATH_MAKERS))
def test_every_built_path_is_validated_once(monkeypatch, maker):
    # the benchmark wraps config_space.validate_path by name, so its span sees
    # each path that any of them makes, once
    prepare, build = maker
    given_value = prepare()
    seen = []
    validate = config_space.validate_path

    def counting(path):
        seen.append(path)
        validate(path)

    monkeypatch.setattr(config_space, "validate_path", counting)
    built = build(given_value)
    paths = built if isinstance(built, list) else [built]
    assert paths and all(type(p) is DiscretePath for p in paths)
    assert [id(p) for p in seen] == [id(p) for p in paths]
    # each path holds its pass's record of its own configurations
    for p in paths:
        assert p.start is p.configs[0] and p.end is p.configs[-1]
        assert p.n_steps == len(p.configs) - 1


@pytest.mark.parametrize(
    "r, nr, crossings",
    [
        ((1.0, 0.0), (0.0, 1.0), ()),
        ((1.0, 0.0), (0.0, -1.0), ((0, -1),)),
        ((0.0, -1.0), (1.0, 0.0), ((0, 1),)),
        # the cross and dot products underflow to 0, so the exact products give the sign
        ((5e-324, 0.0), (-5e-324, -5e-324), ((0, -1),)),
        # the dot product is normal and the cross product alone underflows to -0.0
        ((1e-300, 0.0), (3.0, -1e-300), ((0, -1),)),
        # the float cross product is inf - inf = NaN
        ((-1e200, 1e200), (1e200, -5e199), ((0, -1),)),
        # the cross product is subnormal; halving it would underflow to 0
        ((1.0, 5e-324), (1.0, -5e-324), ((0, -1),)),
    ],
    ids=["same-half", "clockwise", "counter-clockwise", "subnormal", "cross-underflow",
         "cross-overflow", "least-subnormal-cross"],
)
def test_a_step_is_signed_only_at_a_crossing(r, nr, crossings):
    path = DiscretePath(1.0, [_rel(*r), _rel(*nr)])
    assert path.crossings == crossings == tuple(half_plane_crossings(path))


@pytest.mark.parametrize(
    "number",
    [int, float, np.int64, np.float64, np.float32],
    ids=["int", "float", "numpy-int64", "numpy-float64", "numpy-float32"],
)
def test_a_half_turn_is_refused(number):
    one, zero = number(1), number(0)
    for config in (TwoParticleConfig, lambda *coords: coords):
        with pytest.raises(TurnTooLargeAtStep, match="during step 0$"):
            DiscretePath(1.0, [config(one, zero, zero, zero), config(-one, zero, zero, zero)])


def test_numpy_int_coordinates_are_read_as_ints():
    # products of these coordinates pass 2^63, where numpy's int64 arithmetic wraps: the
    # path reads them as the ints they hold, so its crossings and kinetic sum are its int twin's
    a, zero = np.int64(3 * 2**31), np.int64(0)
    path = DiscretePath(1.0, [(a, a, zero, zero), (a, -a, zero, zero), (a, a, zero, zero)])
    b = 3 * 2**31
    twin = DiscretePath(1.0, [(b, b, 0, 0), (b, -b, 0, 0), (b, b, 0, 0)])
    for p in (path, twin):
        assert p.crossings == ((0, -1), (1, 1)) == tuple(half_plane_crossings(p))
        assert classify(p).winding == 0
        assert p._kinetic == 1.6602069666338596e20 == 2 * (2 * b) ** 2 / 2.0
    assert path == twin
    assert {type(v) for c in path.configs for v in c} == {int}
    # a configuration reads them in its constructor, and a path holds it as it is
    config = TwoParticleConfig(a, -a, zero, zero)
    assert config == (b, -b, 0, 0) and {type(v) for v in config} == {int}
    assert DiscretePath(1.0, [config, (b, b, 0, 0)]).configs[0] is config


def test_a_path_holds_a_list_configuration_as_a_tuple():
    # a path held the caller's lists themselves: a later write to one made the
    # path coincident behind its record, and the path did not hash, nor equal
    # or join its twin of tuples
    lists = [[1, 0, 0, 0], [0, 1, 0, 0], [-1, 0, 0, 0], [0, -1, 0, 0], [1, 0, 0, 0]]
    path = DiscretePath(1.0, lists)
    twin = DiscretePath(1.0, [tuple(c) for c in lists])
    assert path.configs == twin.configs and {type(c) for c in path.configs} == {tuple}
    with pytest.raises(TypeError):
        path.configs[2][0] = 0
    lists[2][0] = 0  # the caller's list is not the path's
    assert classify(path).winding == 1 and reverse_path(path).configs == path.configs[::-1]
    assert path == twin and hash(path) == hash(twin)
    assert concat_paths(path, DiscretePath(1.0, [(1, 0, 0, 0), (0, 1, 0, 0)])).n_steps == 5
    assert concat_paths(DiscretePath(1.0, [(0, -1, 0, 0), (1, 0, 0, 0)]), path).n_steps == 5
    # a numeric list of the wrong length is named as the tuple it was read into; a
    # string and a number are refused as they are, and a one-shot iterator is read
    for item, shown in (([1, 0, 0], "(1, 0, 0)"), ("abcd", "'abcd'"), (5, "5")):
        with pytest.raises(ValidationError, match=re.escape(f"configuration 1 is not four coordinates: {shown}")):
            DiscretePath(1.0, [(1, 0, 0, 0), item])
    once = iter([0, 1, 0, 0])
    assert DiscretePath(1.0, [(1, 0, 0, 0), once]).configs == ((1, 0, 0, 0), (0, 1, 0, 0))


#: one counter-clockwise lap of particle 1 about particle 2
LAP = ((1, 0, 0, 0), (0, 1, 0, 0), (-1, 0, 0, 0), (0, -1, 0, 0), (1, 0, 0, 0))


@pytest.mark.parametrize(
    "number", [np.float64, np.float32, Fraction, Decimal], ids=["numpy-float64", "numpy-float32", "fraction", "decimal"]
)
def test_numpy_float_coordinates_make_the_path_of_their_floats(number):
    # numpy's comparisons give numpy.bool_, which has no subtraction: the sign of
    # the first crossing raised TypeError, and the path was refused as "not four
    # coordinates"; rows of a float32 array were held as the arrays themselves
    twin = DiscretePath(1.0, [tuple(map(float, c)) for c in LAP])
    builds = {
        "tuples": [tuple(map(number, c)) for c in LAP],
        "configurations": [TwoParticleConfig(*map(number, c)) for c in LAP],
        "array rows": np.array(LAP, dtype=number),
    }
    for name, configs in builds.items():
        path = DiscretePath(1.0, configs)
        assert path.crossings == ((1, 1), (3, 1)) == twin.crossings, name
        assert classify(path).winding == 1.0 == classify(twin).winding
        assert total_angle(path) == 2 * math.pi == total_angle(twin)
        assert path._kinetic == 4.0 == twin._kinetic
        assert {type(c) for c in path.configs} <= {tuple, TwoParticleConfig}
        assert path == twin and hash(path) == hash(twin)


def test_numpy_float_spacing_walks_tally_to_the_census():
    # every walk with a crossing was refused by enumerate_walks, which walk_census counted
    lattice = LatticeSpec(2, spacing=np.float64(1.0))
    start = lattice.config((-1, 0), (1, 0))
    endpoints = EndpointPair(start, swap(start))
    census = walk_census(lattice, endpoints, 4)
    assert sum(census.values()) == 126
    assert _census_by_enumeration(lattice, endpoints, 4) == census


def test_a_list_of_fractions_is_held_as_a_tuple():
    # a list with an item that is a number but neither a float nor an integer
    # was held as the caller's list, and the path did not hash
    lists = [[x1, y1, Fraction(0), y2] for x1, y1, _, y2 in LAP]
    path = DiscretePath(1.0, lists)
    assert {type(c) for c in path.configs} == {tuple}
    assert path.configs[0][2] == 0 and type(path.configs[0][2]) is float
    assert classify(path).winding == 1 and hash(path) == hash(DiscretePath(1.0, LAP))


@pytest.mark.parametrize("side", [0.1, 1e30])
def test_a_float32_path_sums_its_kinetic_term_in_float64(side):
    # numpy's float32 coordinates kept float32 arithmetic: a lap of side 0.1 summed
    # to float32(0.040000003), and the squares of a lap of side 1e30 overflowed
    lap = np.array(LAP, dtype=np.float32) * np.float32(side)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        path = DiscretePath(1.0, lap)
    twin = DiscretePath(1.0, [tuple(map(float, c)) for c in lap])
    assert type(path._kinetic) is float and path._kinetic == twin._kinetic
    assert path.configs == twin.configs and {type(v) for c in path.configs for v in c} == {float}
    if side == 0.1:
        assert path._kinetic == 0.040000001192092904


def test_decimal_paths_and_lattice_endpoints_are_read_as_floats():
    # a Decimal path was refused as "not four coordinates", a Decimal endpoint as
    # "not four numbers", since a Decimal takes no arithmetic with a float
    path = DiscretePath(Decimal("0.5"), [tuple(map(Decimal, c)) for c in LAP])
    twin = DiscretePath(0.5, [tuple(map(float, c)) for c in LAP])
    assert path == twin and path.crossings == twin.crossings and path._kinetic == twin._kinetic == 8.0
    assert type(path.dt) is float and {type(v) for c in path.configs for v in c} == {float}
    start = (Decimal("-0.5"), Decimal(0), Decimal("0.5"), Decimal(0))
    census = walk_census(LatticeSpec(2, Decimal("0.5")), EndpointPair(start, start[2:] + start[:2]), 4)
    floats = tuple(map(float, start))
    assert census and census == walk_census(LatticeSpec(2, 0.5), EndpointPair(floats, floats[2:] + floats[:2]), 4)


@pytest.mark.parametrize(
    "number, held",
    [
        (np.int64(2), 2),
        (np.float32(0.5), 0.5),
        (Fraction(1, 2), 0.5),
        (Decimal("0.5"), 0.5),
        (True, 1),
        (np.array(0.5), 0.5),
        (np.array(True), 1),
        (np.True_, 1),
    ],
    ids=["numpy-int64", "numpy-float32", "fraction", "decimal", "bool", "numpy-0d", "numpy-0d-bool",
         "numpy-bool"],
)
def test_foreign_scalars_are_held_as_ints_or_floats(number, held):
    # these were refused as "must be finite and > 0, got 2", and a bool was held as
    # itself; a 0-d array coordinate was held as the array; a numpy bool, which has
    # no __index__, was held as the float 1.0
    held_values = [
        DiscretePath(number, LAP).dt,
        LatticeSpec(2, number).spacing,
        *Vec2(number, number),
        *TwoParticleConfig(number, number, 0, 0)[:2],
        ExchangeGeometry(number, 4, number).radius,
        ExchangeGeometry(number, 4, number).dt,
    ]
    assert held_values == [held] * len(held_values)
    assert {type(v) for v in held_values} == {type(held)}


def test_an_int_endpoint_past_the_float_range_is_off_the_lattice():
    # it raised a bare OverflowError from the division by the spacing
    huge = (10**400, 0, 0, 0)
    endpoints = EndpointPair(huge, huge)
    for count in (walk_census, lambda *args: list(enumerate_walks(*args)), resolved_kernel):
        with pytest.raises(EndpointOffLattice, match=f"^coordinate {10**400} is not a lattice site "):
            count(LatticeSpec(2), endpoints, 2)


def test_a_signaling_nan_is_refused_as_not_finite():
    # it raised a bare ValueError from the configuration, and a bare
    # decimal.InvalidOperation from the path's first comparison
    with pytest.raises(ValidationError, match=re.escape("non-finite vector component (nan, 0)")):
        TwoParticleConfig(Decimal("sNaN"), 0, 1, 0)
    with pytest.raises(ValidationError, match=re.escape("non-finite vector component (nan, 0)")):
        DiscretePath(1.0, [(Decimal("sNaN"), 0, 1, 0), (1, 0, 0, 0)])
    with pytest.raises(ValidationError, match="^dt must be finite and > 0, got sNaN$"):
        DiscretePath(Decimal("sNaN"), LAP)


#: each foreign number type, and its twin of an exact rational q
FOREIGN_TWINS = {
    "numpy-int64": lambda q: np.int64(q),
    "numpy-float64": lambda q: np.float64(float(q)),
    "numpy-float32": lambda q: np.float32(float(q)),
    "fraction": lambda q: q,
    "decimal": lambda q: Decimal(q.numerator) / Decimal(q.denominator),
    "numpy-0d": lambda q: np.array(float(q)),
}


def _path_outcome(dt, configs):
    """The dt, configurations, crossings, total angle and kinetic sum of the
    path, with the class and total angle of it and its reverse joined, or
    the type and message of the error that refuses it, as one repr."""
    try:
        path = DiscretePath(dt, configs)
        closed = concat_paths(path, reverse_path(path))
        return repr((path.dt, path.configs, path.crossings, total_angle(path), path._kinetic,
                     classify(closed), total_angle(closed)))
    except AnyonSimError as exc:
        return repr((type(exc), str(exc)))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from(sorted(FOREIGN_TWINS)),
    st.sampled_from((Fraction(1), Fraction(10**6), Fraction(1, 10), Fraction(3, 7), Fraction(1, 2**40), Fraction(10**30))),
)
def test_foreign_number_twins_make_the_path_of_their_floats(seed, kind, scale):
    # each coordinate and dt of a twin is read once, into the int or float it
    # holds, so the twin is bit for bit the path of those ints and floats
    if kind == "numpy-int64":
        scale = Fraction(scale.numerator % 10**6 or 1)
    twin_of = FOREIGN_TWINS[kind]
    sites = random_valid_walk(random.Random(seed), extent=3, n_steps=8).configs
    configs = [tuple(twin_of(Fraction(v) * scale) for v in c) for c in sites]
    dt = twin_of(Fraction(1, 2))
    if kind == "numpy-int64":
        dt = np.int64(1)
    def held(v):
        return int(v) if isinstance(v, np.integer) else float(v)
    floats = [tuple(map(held, c)) for c in configs]
    assert _path_outcome(dt, configs) == _path_outcome(held(dt), floats)
    assert _path_outcome(dt, np.array(configs, dtype=object)) == _path_outcome(held(dt), floats)


class TestPathHelpers:
    def test_reverse(self):
        p = lattice_path([(0, 0, 2, 0), (0, 1, 2, 0), (1, 1, 2, 0)])
        assert reverse_path(p).configs == p.configs[::-1]

    @pytest.mark.parametrize(
        "q, message",
        [
            (lattice_path([(1, 1, 2, 0), (1, 0, 2, 0)]), "paths do not share a junction configuration"),
            (
                lattice_path([(0, 1, 2, 0), (1, 1, 2, 0)], dt=0.5),
                "cannot concatenate paths with different dt",
            ),
        ],
        ids=["no-junction", "different-dt"],
    )
    def test_concat_refused(self, q, message):
        p = lattice_path([(0, 0, 2, 0), (0, 1, 2, 0)])
        with pytest.raises(ValidationError, match=f"^{message}$"):
            concat_paths(p, q)

    def test_concat(self):
        p = lattice_path([(0, 0, 2, 0), (0, 1, 2, 0)])
        q = lattice_path([(0, 1, 2, 0), (1, 1, 2, 0)])
        joined = concat_paths(p, q)
        assert joined.n_steps == 2
        assert joined.configs[0] == p.configs[0]
        assert joined.configs[-1] == q.configs[-1]

    def test_json_round_trip(self):
        sites = [(0, 0, 2, 0), (0, 1, 2, 0)]
        assert path_from_json_dict(json_path(sites, dt=0.25)) == lattice_path(sites, dt=0.25)

    def test_malformed_json(self):
        with pytest.raises(ValidationError):
            path_from_json_dict({"dt": 1.0, "configs": [[[0, 0]]]})

    def test_configs_list_is_read_unchanged(self):
        sites = [(0, 0, 2, 0), (0, 1, 2, 0), (1, 1, 2, 0)]
        data = json_path(sites, dt=0.25)
        assert path_from_json_dict(data) == lattice_path(sites, dt=0.25)
        assert data == json_path(sites, dt=0.25)

    def test_configs_tuple_is_read_unchanged(self):
        sites = [(0, 0, 2, 0), (0, 1, 2, 0), (1, 1, 2, 0)]
        pairs = tuple(json_path(sites)["configs"])
        before = copy.deepcopy(pairs)
        loaded = path_from_json_dict({"dt": 0.25, "configs": pairs})
        assert loaded == lattice_path(sites, dt=0.25) and type(loaded.start) is TwoParticleConfig
        assert pairs == before

    def test_configs_are_converted_before_dt_is_read(self):
        # a generator of pairs may put dt into the dict as it goes, and a bad
        # pair is reported before a bad or missing dt
        sites = [(0, 0, 2, 0), (0, 1, 2, 0), (1, 1, 2, 0)]
        data = {}

        def pairs():
            yield from json_path(sites)["configs"]
            data["dt"] = 0.25

        data["configs"] = pairs()
        assert path_from_json_dict(data) == lattice_path(sites, dt=0.25)
        with pytest.raises(ValidationError, match=r"^malformed path JSON: coordinates must be numbers"):
            path_from_json_dict({"dt": "1", "configs": [[[0, "1"], [0, 0]]]})
        with pytest.raises(ValidationError, match=r"^malformed path JSON: 'configs'$"):
            path_from_json_dict({})


class TestEnumerateWalks:
    def test_one_step_closed_has_single_walk(self):
        # separation of two sites; the only way both particles return in one
        # step is for both to stay (25 joint moves hand-checked by the oracle)
        lattice = LatticeSpec(extent=2)
        ep = EndpointPair(lattice.config((0, 0), (2, 0)), lattice.config((0, 0), (2, 0)))
        walks = list(enumerate_walks(lattice, ep, 1))
        assert len(walks) == 1
        assert walks[0].configs[0] == walks[0].configs[1]
        oracle = brute_force_walks(2, (0, 0, 2, 0), (0, 0, 2, 0), 1)
        assert len(oracle) == 1

    @pytest.mark.parametrize(
        "extent,start,end,n_steps",
        [
            (2, (0, 0, 2, 0), (0, 0, 2, 0), 2),
            (2, (0, 0, 2, 0), (0, 0, 2, 0), 3),
            (1, (0, 0, 1, 0), (0, 0, 1, 0), 3),
            (2, (-1, 0, 1, 0), (1, 0, -1, 0), 2),
            (2, (0, 0, 1, 1), (1, 1, 0, 0), 3),
        ],
    )
    def test_matches_brute_force_oracle(self, extent, start, end, n_steps):
        lattice = LatticeSpec(extent=extent)
        ep = EndpointPair(
            lattice.config(start[:2], start[2:]), lattice.config(end[:2], end[2:])
        )
        walks = [
            tuple(
                (round(c.p1.x), round(c.p1.y), round(c.p2.x), round(c.p2.y))
                for c in w.configs
            )
            for w in enumerate_walks(lattice, ep, n_steps)
        ]
        oracle = brute_force_walks(extent, start, end, n_steps)
        assert sorted(walks) == sorted(oracle)

    def test_every_walk_validates(self):
        lattice = LatticeSpec(extent=2)
        ep = EndpointPair(lattice.config((0, 0), (2, 0)), lattice.config((0, 0), (2, 0)))
        count = 0
        for walk in enumerate_walks(lattice, ep, 3):
            validate_path(walk)
            assert walk.configs[0] == ep.start and walk.configs[-1] == ep.end
            count += 1
        assert count > 0

    def test_off_lattice_endpoint(self):
        lattice = LatticeSpec(extent=2)
        ep = EndpointPair(cfg(0.5, 0, 2, 0), cfg(0, 0, 2, 0))
        with pytest.raises(EndpointOffLattice):
            next(enumerate_walks(lattice, ep, 1))

    def test_beyond_extent_endpoint(self):
        lattice = LatticeSpec(extent=1)
        ep = EndpointPair(cfg(0, 0, 2, 0), cfg(0, 0, 2, 0))
        with pytest.raises(EndpointOffLattice):
            next(enumerate_walks(lattice, ep, 1))

    @pytest.mark.parametrize("spacing, x", [(1e-10, 1e308), (5e-324, 1.0)])
    def test_endpoint_overflowing_to_infinite_site_index(self, spacing, x):
        lattice = LatticeSpec(extent=2, spacing=spacing)
        ep = EndpointPair(cfg(x, 0, 0, 0), cfg(x, 0, 0, 0))
        with pytest.raises(EndpointOffLattice, match="is not a lattice site"):
            walk_census(lattice, ep, 2)

    def test_diagonal_moves_match_brute_force_oracle(self):
        # particle 1 needs three diagonal moves: Manhattan distance 6 in 3 steps
        moves = ((0, 0), (1, 1), (-1, -1), (1, 0))
        start, end = (-2, -2, 0, 1), (1, 1, 0, 1)
        lattice = LatticeSpec(extent=2, moves=moves)
        ep = EndpointPair(
            lattice.config(start[:2], start[2:]), lattice.config(end[:2], end[2:])
        )
        walks = [
            tuple(
                (round(c.p1.x), round(c.p1.y), round(c.p2.x), round(c.p2.y))
                for c in w.configs
            )
            for w in enumerate_walks(lattice, ep, 3)
        ]
        oracle = brute_force_walks(2, start, end, 3, moves=moves)
        assert oracle
        assert sorted(walks) == sorted(oracle)

    def test_deterministic_order(self):
        lattice = LatticeSpec(extent=1)
        ep = EndpointPair(lattice.config((0, 0), (1, 0)), lattice.config((0, 0), (1, 0)))
        first = [w.configs for w in enumerate_walks(lattice, ep, 3)]
        second = [w.configs for w in enumerate_walks(lattice, ep, 3)]
        assert first == second

    def test_concatenation_counting(self):
        # walks a->b in n1+n2 steps grouped by their midpoint config factor
        # into (a->mid in n1) x (mid->b in n2)
        lattice = LatticeSpec(extent=1)
        a = lattice.config((0, 0), (1, 0))
        n1, n2 = 2, 1
        through = {}
        for walk in enumerate_walks(lattice, EndpointPair(a, a), n1 + n2):
            mid = walk.configs[n1]
            through[mid] = through.get(mid, 0) + 1
        assert through
        for mid, count in through.items():
            first = sum(1 for _ in enumerate_walks(lattice, EndpointPair(a, mid), n1))
            second = sum(1 for _ in enumerate_walks(lattice, EndpointPair(mid, a), n2))
            assert count == first * second

    def test_spacing_scales_coordinates(self):
        lattice = LatticeSpec(extent=2, spacing=0.5)
        ep = EndpointPair(lattice.config((0, 0), (2, 0)), lattice.config((0, 0), (2, 0)))
        walk = next(enumerate_walks(lattice, ep, 1))
        assert walk.configs[0].p2 == Vec2(1.0, 0.0)


@pytest.mark.parametrize(
    "count",
    [walk_census, lambda *args: list(enumerate_walks(*args)), resolved_kernel],
    ids=["walk_census", "enumerate_walks", "resolved_kernel"],
)
@pytest.mark.parametrize(
    "start, end, named",
    [
        ("ab", "cd", "'ab'"),
        ((0, 0, 1, 0), (0, 0, 1), "(0, 0, 1)"),
        (None, None, "None"),
        (("a", 0, 1, 0), (0, 0, 1, 0), "('a', 0, 1, 0)"),
        ((0, 0, 1, 0), (1j, 0, 0, 0), "(1j, 0, 0, 0)"),
    ],
    ids=["strings", "three-numbers", "none", "a-string-coordinate", "complex"],
)
def test_a_lattice_endpoint_that_is_not_four_numbers_is_refused(count, start, end, named):
    # these raised the bare TypeError or ValueError of the arithmetic or unpacking
    message = f"a lattice endpoint must be four numbers, got {named}"
    with pytest.raises(ValidationError) as err:
        count(LatticeSpec(2), EndpointPair(start, end), 2)
    assert type(err.value) is ValidationError and str(err.value) == message


class TestLatticeSpec:
    def test_rejects_zero_extent(self):
        with pytest.raises(ValidationError):
            LatticeSpec(extent=0)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValidationError):
            LatticeSpec(extent=2, spacing=0.0)

    def test_moves_are_pairs_of_ints(self):
        lattice = LatticeSpec(2, moves=[[np.int64(1), True], (0, 0)])
        assert lattice.moves == ((1, 1), (0, 0))
        assert all(type(d) is int for move in lattice.moves for d in move)

    def test_rejects_zero_steps(self):
        lattice = LatticeSpec(extent=1)
        ep = EndpointPair(lattice.config((0, 0), (1, 0)), lattice.config((0, 0), (1, 0)))
        with pytest.raises(ValidationError):
            next(enumerate_walks(lattice, ep, 0))

    @pytest.mark.parametrize(
        "count",
        [walk_census, lambda *a: next(enumerate_walks(*a))],
        ids=["walk_census", "enumerate_walks"],
    )
    @pytest.mark.parametrize("which", ["start", "end"])
    def test_rejects_coincident_endpoint(self, count, which):
        lattice = LatticeSpec(extent=1)
        ends = [cfg(0, 0, 0, 0), lattice.config((0, 0), (1, 0))]
        ep = EndpointPair(*(ends if which == "start" else ends[::-1]))
        with pytest.raises(ValidationError, match=f"^{which} configuration is coincident$"):
            count(lattice, ep, 1)


class TestWalkCensus:
    def test_matches_enumeration_counts(self):
        lattice = LatticeSpec(extent=2)
        ep = EndpointPair(lattice.config((-1, 0), (1, 0)), lattice.config((1, 0), (-1, 0)))
        census = walk_census(lattice, ep, 4)
        by_class = {}
        for walk in enumerate_walks(lattice, ep, 4):
            w2 = round(2 * classify(walk).winding)
            by_class[w2] = by_class.get(w2, 0) + 1
        grouped = {}
        for (w2, _ssq), n in census.items():
            grouped[w2] = grouped.get(w2, 0) + n
        assert grouped == by_class
        # particle 1 ends exactly n_steps moves away, so every walk uses its
        # full slack at every step; enumerate_walks prunes with the same step
        # rule as the census, so these walks are counted by brute force
        far = EndpointPair(lattice.config((-2, 0), (0, 1)), lattice.config((1, 0), (0, 1)))
        oracle = brute_force_walks(2, (-2, 0, 0, 1), (1, 0, 0, 1), 3)
        assert sum(walk_census(lattice, far, 3).values()) == len(oracle) > 0

    def test_random_walks_always_validate(self):
        rng = random.Random(123)
        for _ in range(25):
            validate_path(random_valid_walk(rng, extent=2, n_steps=6))

    @pytest.mark.parametrize(
        "count",
        [walk_census, lambda *a: list(enumerate_walks(*a))],
        ids=["walk_census", "enumerate_walks"],
    )
    @pytest.mark.parametrize("n_steps", [2.5, 2.0, math.nan, "2"], ids=repr)
    def test_steps_that_are_not_an_integer_refused(self, count, n_steps):
        # they used to reach range() and raise a bare TypeError
        lattice = LatticeSpec(extent=2)
        ep = EndpointPair(lattice.config((0, 0), (2, 0)), lattice.config((0, 0), (2, 0)))
        with pytest.raises(ValidationError) as caught:
            count(lattice, ep, n_steps)
        assert str(caught.value) == f"n_steps must be an integer, got {n_steps!r}"


#: one move of each pair {m, -m} that a census move set may hold: unit, diagonal and long moves
HALF_MOVES = ((1, 0), (0, 1), (1, 1), (1, -1), *LONG_MOVES)


@st.composite
def census_instances(draw, max_extent=2, move_sets=None, max_steps=4):
    """A lattice of extent 1 to max_extent, a start whose two sites are one
    move apart where a move allows, the start or its swap as the end, and 1
    to max_steps steps.

    The moves are drawn from move_sets, or else they are the stay move and
    two moves of HALF_MOVES with their negations, in a drawn order: closed
    under negation, so that closed and swapped walks exist.  The choices are
    made by a random.Random seeded from hypothesis: its derandomized draws
    of each choice gave mostly one-step closed instances, and few walks
    (:func:`test_census_instances_have_walks` pins that they have).
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    extent = rng.randint(1, max_extent)
    spacing = rng.choice([1.0, 0.5, 2.5])
    if move_sets is None:
        halves = rng.sample(HALF_MOVES, 2)
        moves = [(0, 0), *halves, *((-dx, -dy) for dx, dy in halves)]
        rng.shuffle(moves)
    else:
        moves = draw(move_sets)
    sites = [(i, j) for i in range(-extent, extent + 1) for j in range(-extent, extent + 1)]
    p1 = rng.choice(sites)
    # one move away: with moves a and b, r = a -> a + b -> b - a -> -a swaps the pair in three steps
    near = [s for s in sites if s != p1 and (p1[0] - s[0], p1[1] - s[1]) in moves]
    p2 = rng.choice(near or [s for s in sites if s != p1])
    lattice = LatticeSpec(extent=extent, spacing=spacing, moves=moves)
    start = lattice.config(p1, p2)
    end = swap(start) if rng.random() < 0.5 else start
    return lattice, EndpointPair(start, end), rng.randint(1, max_steps)


def test_census_instances_have_walks():
    # the oracle tests below compare tables worth comparing: of 60 instances
    # drawn as test_census_equals_enumeration_oracle draws its own, at least
    # half have a walk, closed and swapped ones among them
    totals = []

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(census_instances())
    def tally(instance):
        totals.append((instance[1].start != instance[1].end, sum(walk_census(*instance).values())))

    tally()
    assert len(totals) == 60 and sum(n > 0 for _, n in totals) >= 30
    assert {swapped for swapped, n in totals if n} == {False, True}


def _census_by_enumeration(lattice, endpoints, n_steps):
    sp = lattice.spacing
    counts = {}
    for walk in enumerate_walks(lattice, endpoints, n_steps):
        w2 = round(2 * classify(walk).winding)
        ssq = 0
        for a, b in zip(walk.configs, walk.configs[1:]):
            for p, q in zip(a, b):
                ssq += round((q - p) / sp) ** 2
        counts[(w2, ssq)] = counts.get((w2, ssq), 0) + 1
    return counts


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(census_instances())
def test_census_equals_enumeration_oracle(instance):
    lattice, endpoints, n_steps = instance
    assert walk_census(lattice, endpoints, n_steps) == _census_by_enumeration(
        lattice, endpoints, n_steps
    )


def _census_by_brute_force(lattice, endpoints, n_steps):
    # every joint move sequence, each walk classified through DiscretePath:
    # no step rule of the library is read
    sp = lattice.spacing
    start, end = (tuple(round(v / sp) for v in config) for config in endpoints)
    counts = {}
    for sites in brute_force_walks(lattice.extent, start, end, n_steps, moves=lattice.moves):
        w2 = round(2 * classify(lattice_path(sites, spacing=sp)).winding)
        ssq = sum((q - p) ** 2 for a, b in zip(sites, sites[1:]) for p, q in zip(a, b))
        counts[(w2, ssq)] = counts.get((w2, ssq), 0) + 1
    return counts


def _long_move_instance(moves, p1, p2, swapped, spacing=1.0):
    lattice = LatticeSpec(extent=2, spacing=spacing, moves=moves)
    start = lattice.config(p1, p2)
    return lattice, EndpointPair(start, swap(start) if swapped else start), 3


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(census_instances(max_steps=3))
# drawn instances seldom have many walks; these have 11-49 in 1-3 classes
@example(_long_move_instance(((0, 0), *LONG_MOVES), (2, 0), (-1, 0), True))
@example(_long_move_instance(((1, 0), (-1, 0), (0, 1), (1, 2), (-2, -1)), (0, 1), (0, 0), True, 0.5))
@example(_long_move_instance(((0, 1), (0, -1), (2, 0), (-2, -1), (1, 2)), (0, 1), (0, 0), False))
@example(_long_move_instance(((0, 0), (1, 1), (-1, -1), (2, 0), (0, -2)), (1, 1), (1, 0), False, 2.5))
def test_census_equals_brute_force_oracle(instance):
    assert walk_census(*instance) == _census_by_brute_force(*instance)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(census_instances(max_steps=3))
def test_step_rule_keeps_the_direct_filters_joint_moves_in_order(instance):
    # every state of the lattice, with 1-3 steps left: the yields are the
    # joint moves a direct filter keeps, in (move 1, move 2) order
    lattice, endpoints, _ = instance
    extent, sp = lattice.extent, lattice.spacing
    end = tuple(round(v / sp) for v in endpoints.end)
    step = config_space._successors(lattice, end)
    sites = range(-extent, extent + 1)
    for state in itertools.product(sites, repeat=4):
        if state[:2] == state[2:]:
            continue
        for left in (1, 2, 3):
            assert list(step(state, left)) == direct_successors(extent, lattice.moves, end, state, left)


def _step_matrix(extent):
    """Valid single steps between ordered pairs of distinct sites; its
    powers count walks with no winding and no pruning."""
    sites = [(x, y) for x in range(-extent, extent + 1) for y in range(-extent, extent + 1)]
    pairs = [(a, b) for a in sites for b in sites if a != b]
    index = {pair: i for i, pair in enumerate(pairs)}
    matrix = np.zeros((len(pairs), len(pairs)), dtype=np.int64)
    for (a, b), i in index.items():
        r = complex(a[0] - b[0], a[1] - b[1])
        for da in MOVES:
            for db in MOVES:
                na = (a[0] + da[0], a[1] + da[1])
                nb = (b[0] + db[0], b[1] + db[1])
                j = index.get((na, nb))
                if j is None:
                    continue  # off the lattice or coincident
                turn = complex(na[0] - nb[0], na[1] - nb[1]) * r.conjugate()
                if turn.imag == 0 and turn.real < 0:
                    continue  # exactly antiparallel
                matrix[i, j] += 1
    return matrix, index


def test_census_exact_beyond_enumeration():
    # 8.7e12 walks: far past enumeration, still exact integer counts
    extent, n_steps = 2, 12
    lattice = LatticeSpec(extent=extent)
    start, end = ((-1, 0), (1, 0)), ((1, 0), (-1, 0))
    census = walk_census(lattice, EndpointPair(lattice.config(*start), lattice.config(*end)), n_steps)
    matrix, index = _step_matrix(extent)
    row = np.zeros(len(index), dtype=np.int64)
    row[index[start]] = 1
    for _ in range(n_steps):
        row = row @ matrix
    assert sum(census.values()) == int(row[index[end]]) > 10**12
    # reflection y -> -y fixes both endpoints and negates every winding
    assert all(census.get((-w2, ssq)) == n for (w2, ssq), n in census.items())


def _reversal_symmetric(census):
    return all(census.get((-w2, ssq), 0) == n for (w2, ssq), n in census.items())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    census_instances(
        max_extent=3,
        move_sets=st.sampled_from([MOVES, KING_MOVES, ((0, 0), (1, 0), (-1, 0))]),
        max_steps=5,
    )
)
def test_census_reversal_symmetry(instance):
    # with a move set closed under negation, reversing a walk (and swapping
    # the labels when the endpoints are swapped) is a walk between the same
    # endpoints with the same ssq and the opposite winding
    assert _reversal_symmetric(walk_census(*instance))


def test_census_reversal_symmetry_needs_negation_closed_moves():
    lattice = LatticeSpec(extent=2, moves=((0, 0), (1, 0), (0, 1), (-1, -1)))
    start = lattice.config((0, 1), (1, -1))
    assert not _reversal_symmetric(walk_census(lattice, EndpointPair(start, start), 6))


@st.composite
def composition_instances(draw):
    """A lattice of extent 1-2 with the default or the diagonal moves, two
    configurations a and c that are neither equal nor swapped, and step
    counts n, m >= 1 with n + m <= 6.  The sum is capped lower where the
    censuses to every midpoint cost most.  Past the caps, the costliest of
    150 drawn examples with 5 diagonal steps on extent 1 took 0.10 s, and of
    80 with 3 on extent 2, 0.03 s (2 vCPUs, Python 3.11.7)."""
    extent, moves, most = draw(
        st.sampled_from([(1, MOVES, 6), (1, KING_MOVES, 4), (2, MOVES, 4), (2, KING_MOVES, 2)])
    )
    lattice = LatticeSpec(extent=extent, moves=moves)
    site = st.tuples(st.integers(-extent, extent), st.integers(-extent, extent))

    def config():
        p1 = draw(site)
        return lattice.config(p1, draw(site.filter(lambda s: s != p1)))

    a, c = config(), config()
    assume(c != a and c != swap(a))
    total = draw(st.integers(2, most))
    n = draw(st.integers(1, total - 1))
    return lattice, a, c, n, total - n


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(composition_instances())
def test_census_composes_over_midpoints(instance):
    # Feynman's composition law on the census: sheets and ssq add along a
    # concatenation, so the census a -> c in n + m steps is the sum over
    # non-coincident midpoints b of the convolution of a -> b in n steps
    # with b -> c in m steps
    lattice, a, c, n, m = instance
    sites = range(-lattice.extent, lattice.extent + 1)
    composed = {}
    for b1 in itertools.product(sites, sites):
        for b2 in itertools.product(sites, sites):
            if b1 == b2:
                continue
            b = lattice.config(b1, b2)
            first = walk_census(lattice, EndpointPair(a, b), n)
            if not first:
                continue
            second = walk_census(lattice, EndpointPair(b, c), m)
            for (h1, s1), k1 in first.items():
                for (h2, s2), k2 in second.items():
                    key = (h1 + h2, s1 + s2)
                    composed[key] = composed.get(key, 0) + k1 * k2
    assert walk_census(lattice, EndpointPair(a, c), n + m) == composed


# --- the record types: named tuples built through their checks ---------------

A = TwoParticleConfig(1.0, 0.0, 0.0, 0.0)
B = TwoParticleConfig(0.0, 1.0, 0.0, 0.0)
A_TEXT = "TwoParticleConfig(x1=1.0, y1=0.0, x2=0.0, y2=0.0)"
B_TEXT = "TwoParticleConfig(x1=0.0, y1=1.0, x2=0.0, y2=0.0)"


@pytest.mark.parametrize(
    "cls, args, text",
    [
        (Vec2, (1.0, -2.5), "Vec2(x=1.0, y=-2.5)"),
        (TwoParticleConfig, (1.0, 0.0, 0.0, 0.0), A_TEXT),
        (DiscretePath, (0.1, (A, B)), f"DiscretePath(dt=0.1, configs=({A_TEXT}, {B_TEXT}))"),
        (EndpointPair, (A, B), f"EndpointPair(start={A_TEXT}, end={B_TEXT})"),
        (
            LatticeSpec,
            (2, 1.0, DEFAULT_MOVES),
            "LatticeSpec(extent=2, spacing=1.0, moves=((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)))",
        ),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else "",
)
def test_record_is_the_tuple_of_its_fields(cls, args, text):
    check_record(cls, args, text)


def test_path_caches_survive_copy_and_replace():
    path = DiscretePath(0.1, [A, B])
    assert path.configs == (A, B) and total_angle(path) == math.pi / 2
    twin = copy.deepcopy(path)
    assert twin.crossings == path.crossings == () and total_angle(twin) == total_angle(path)
    moved = path._replace(configs=[B, A])
    assert moved.configs == (B, A) and total_angle(moved) == -math.pi / 2
    assert moved.crossings == () and moved.crossings is moved.crossings
    assert LatticeSpec(2)._replace(moves=[[1, 0]]).moves == ((1, 0),)


# valid field values that each refusal below spoils
VALID = {
    Vec2: (0, 0),
    TwoParticleConfig: tuple(A),
    DiscretePath: (0.1, (A, B)),
    LatticeSpec: (2, 1.0, DEFAULT_MOVES),
}


@pytest.mark.parametrize(
    "cls, bad, error, message",
    [
        (Vec2, {"x": math.nan}, ValidationError, "non-finite vector component (nan, 0)"),
        (Vec2, {"y": -math.inf}, ValidationError, "non-finite vector component (0, -inf)"),
        (Vec2, {"x": "1"}, ValidationError, "non-finite vector component ('1', 0)"),
        # an int that no float holds is refused as an infinite float
        (Vec2, {"x": 10**400}, ValidationError, f"non-finite vector component ({10**400}, 0)"),
        (DiscretePath, {"dt": 10**400}, ValidationError, f"dt must be finite and > 0, got {10**400}"),
        (DiscretePath, {"dt": 0.0}, ValidationError, "dt must be finite and > 0, got 0.0"),
        (DiscretePath, {"dt": math.nan}, ValidationError, "dt must be finite and > 0, got nan"),
        (DiscretePath, {"configs": (A,)}, ValidationError, "a path needs at least two configurations"),
        # dt is checked before the length, after configs is made a tuple
        (DiscretePath, {"dt": -1.0, "configs": ()}, ValidationError, "dt must be finite and > 0, got -1.0"),
        (DiscretePath, {"dt": -1.0, "configs": 5}, ValidationError, "configs must be an iterable of configurations, got 5"),
        (LatticeSpec, {"extent": 0}, ValidationError, "extent must be >= 1, got 0"),
        (LatticeSpec, {"spacing": 0.0}, ValidationError, "spacing must be finite and > 0, got 0.0"),
        (LatticeSpec, {"spacing": math.inf}, ValidationError, "spacing must be finite and > 0, got inf"),
        # extent, then spacing, then the moves are made tuples
        (LatticeSpec, {"extent": 0, "spacing": math.nan}, ValidationError, "extent must be >= 1, got 0"),
        (LatticeSpec, {"spacing": -1.0, "moves": (5,)}, ValidationError, "spacing must be finite and > 0, got -1.0"),
        (LatticeSpec, {"moves": (5,)}, ValidationError, "a move must be a pair (dx, dy), got 5"),
        # a NaN extent would leave every bound test false, so the lattice unbounded
        (LatticeSpec, {"extent": math.nan}, ValidationError, "extent must be an integer, got nan"),
        (LatticeSpec, {"extent": 2.5}, ValidationError, "extent must be an integer, got 2.5"),
        (LatticeSpec, {"extent": 2.0}, ValidationError, "extent must be an integer, got 2.0"),
        (LatticeSpec, {"extent": "2"}, ValidationError, "extent must be an integer, got '2'"),
        (TwoParticleConfig, {"x1": math.nan}, ValidationError, "non-finite vector component (nan, 0.0)"),
        (TwoParticleConfig, {"y1": math.inf}, ValidationError, "non-finite vector component (1.0, inf)"),
        (TwoParticleConfig, {"x2": -math.inf}, ValidationError, "non-finite vector component (-inf, 0.0)"),
        (TwoParticleConfig, {"y2": math.nan}, ValidationError, "non-finite vector component (0.0, nan)"),
        # p1's pair is checked before p2's
        (TwoParticleConfig, {"y1": math.nan, "x2": math.inf}, ValidationError, "non-finite vector component (1.0, nan)"),
        (TwoParticleConfig, {"x2": "0"}, ValidationError, "non-finite vector component ('0', 0.0)"),
        (TwoParticleConfig, {"x1": 10**400}, ValidationError, f"non-finite vector component ({10**400}, 0.0)"),
        (TwoParticleConfig, {"y2": -(10**400)}, ValidationError, f"non-finite vector component (0.0, {-(10**400)})"),
        (LatticeSpec, {"spacing": 10**400}, ValidationError, f"spacing must be finite and > 0, got {10**400}"),
        # each move is a pair of counts, so walk_census never meets a move it cannot
        # unpack, nor counts a half-site move under a float ssq
        (LatticeSpec, {"moves": ((1, 0, 0),)}, ValidationError, "a move must be a pair (dx, dy), got (1, 0, 0)"),
        (LatticeSpec, {"moves": ((0.5, 0), (0, 0))}, ValidationError, "move dx must be an integer, got 0.5"),
        (LatticeSpec, {"moves": ((0, 0), (1, math.nan))}, ValidationError, "move dy must be an integer, got nan"),
        (LatticeSpec, {"moves": 5}, ValidationError, "moves must be an iterable of (dx, dy) pairs, got 5"),
        # a 0-d string array that float() cannot parse is no number, not a NaN
        (Vec2, {"x": np.array("x")}, ValidationError, "non-finite vector component (array('x', dtype='<U1'), 0)"),
        (
            TwoParticleConfig,
            {"y2": np.array("x")},
            ValidationError,
            "non-finite vector component (0.0, array('x', dtype='<U1'))",
        ),
        (DiscretePath, {"dt": np.array("x")}, ValidationError, "dt must be finite and > 0, got array('x', dtype='<U1')"),
    ],
)
def test_invalid_record_refused(cls, bad, error, message):
    check_refusal(cls, VALID[cls], bad, error, message)
