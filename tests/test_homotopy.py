import cmath
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anyonsim import (
    DiscretePath,
    HomotopyClass,
    Kind,
    PhysicsParams,
    TwoParticleConfig,
    Vec2,
    action,
    classify,
    concat_paths,
    path_from_json_dict,
    reverse_path,
    step_factors,
    swap,
    total_angle,
)
from anyonsim.errors import (
    CoincidenceAtStep,
    EndpointsNotClosedOrExchanged,
    TurnTooLargeAtStep,
    ValidationError,
)
from helpers import (
    antipodal_path,
    check_record,
    check_refusal,
    half_plane_crossings,
    lattice_path,
    random_valid_walk,
    relative_path,
    relatives,
    rounded_turns,
    signed_angle,
    summed_turns,
    turn_tolerance,
    turning,
    vec2_action,
)

TAU = 2 * math.pi


class TestTotalAngle:
    def test_full_ccw_square_loop(self):
        path = relative_path([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0)])
        assert total_angle(path) == pytest.approx(TAU, abs=1e-12)

    def test_constant_path(self):
        path = relative_path([(1, 0), (1, 0), (1, 0)])
        assert total_angle(path) == 0.0

    def test_half_turn(self):
        path = relative_path([(1, 0), (0, 1), (-1, 0)])
        assert total_angle(path) == pytest.approx(math.pi, abs=1e-12)

    def test_additive_under_concatenation(self):
        rng = random.Random(11)
        for _ in range(50):
            walk = random_valid_walk(rng, extent=3, n_steps=10)
            k = rng.randint(1, walk.n_steps - 1)
            head = DiscretePath(walk.dt, walk.configs[: k + 1])
            tail = DiscretePath(walk.dt, walk.configs[k:])
            joined = concat_paths(head, tail)
            assert total_angle(joined) == pytest.approx(
                total_angle(head) + total_angle(tail), abs=1e-12
            )

    def test_negated_by_reversal(self):
        rng = random.Random(13)
        for _ in range(50):
            walk = random_valid_walk(rng, extent=3, n_steps=10)
            assert total_angle(reverse_path(walk)) == -total_angle(walk)

    def test_translation_invariance(self):
        rng = random.Random(17)
        walk = random_valid_walk(rng, extent=2, n_steps=8)
        sx, sy = 3.25, -1.5
        shifted = DiscretePath(
            walk.dt,
            tuple(
                TwoParticleConfig(x1 + sx, y1 + sy, x2 + sx, y2 + sy)
                for x1, y1, x2, y2 in walk.configs
            ),
        )
        assert total_angle(shifted) == pytest.approx(total_angle(walk), abs=1e-12)


class TestHomotopyClass:
    def test_direct_requires_integer_winding(self):
        with pytest.raises(ValueError):
            HomotopyClass(Kind.DIRECT, 0.5)

    def test_exchange_requires_half_odd_winding(self):
        with pytest.raises(ValueError):
            HomotopyClass(Kind.EXCHANGE, 1.0)

    def test_rejects_non_half_integer(self):
        with pytest.raises(ValueError):
            HomotopyClass(Kind.DIRECT, 0.25)

    def test_kind_value_is_its_member(self):
        # a value string was held as given, so HomotopyClass("Direct", 0.5) was built
        cls = HomotopyClass("Direct", 1)
        assert cls == HomotopyClass(Kind.DIRECT, 1) and cls.kind is Kind.DIRECT
        with pytest.raises(ValueError, match="^Direct class cannot have winding 0.5$"):
            HomotopyClass("Direct", 0.5)


class TestClassify:
    def test_ccw_square_loop_is_direct_plus_one(self):
        path = relative_path([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 0)])
        cls = classify(path)
        assert cls == HomotopyClass(Kind.DIRECT, 1.0)

    def test_half_turn_is_exchange_plus_half(self):
        path = antipodal_path([(2, 0), (0, 2), (-2, 0)])
        assert classify(path) == HomotopyClass(Kind.EXCHANGE, 0.5)

    def test_cw_loop_negates(self):
        path = relative_path([(1, 0), (0, -1), (-1, 0), (0, 1), (1, 0)])
        assert classify(path) == HomotopyClass(Kind.DIRECT, -1.0)

    def test_generic_endpoints_rejected(self):
        path = relative_path([(1, 0), (1, 1)])
        with pytest.raises(EndpointsNotClosedOrExchanged):
            classify(path)

    def test_underflowing_turn_sign_is_rescaled(self):
        # a CCW square loop whose float cross and dot products all underflow
        # to 0; the exact products are taken instead, so the crossings keep
        # their signs and the turns their angles
        tiny = 1e-200
        corners = [(tiny, tiny), (-tiny, tiny), (-tiny, -tiny), (tiny, -tiny), (tiny, tiny)]
        path = relative_path(corners)
        assert classify(path) == HomotopyClass(Kind.DIRECT, 1.0)
        assert path.crossings == ((1, 1), (3, 1))
        assert total_angle(path) == TAU
        # an exactly antiparallel step of such tiny vectors is a half-turn, not an underflow
        with pytest.raises(TurnTooLargeAtStep, match="during step 0$"):
            relative_path([(tiny, 0.0), (-tiny, 0.0)])

    def test_overflowing_turn_keeps_its_sign(self):
        # a closed loop of turns below pi whose first step crosses the
        # half-planes with a float cross product inf - inf = NaN; the exact
        # products sign that crossing and give every turn its angle
        huge = 1e200
        corners = [(-huge, huge), (huge, -huge / 2), (huge, huge), (-huge, huge)]
        valid = relative_path([(1.0, 0.0), (0.0, 1.0)])
        configs = [TwoParticleConfig(rx, ry, 0.0, 0.0) for rx, ry in corners]
        builds = {
            "constructor": lambda: relative_path(corners),
            "_replace": lambda: valid._replace(configs=configs),
            "path_from_json_dict": lambda: path_from_json_dict(
                {"dt": 1.0, "configs": [[[rx, ry], [0.0, 0.0]] for rx, ry in corners]}
            ),
        }
        for name, build in builds.items():
            path = build()
            assert classify(path) == HomotopyClass(Kind.DIRECT, 0.0), name
            assert path.crossings == ((0, -1), (1, 1)), name
            assert abs(total_angle(path)) <= 1e-15, name

    def test_first_defect_in_path_order_is_reported(self):
        huge = 1e200
        # the half-turn of step 1 comes before the coincident config 3, and
        # the overflowing products of step 0 are no defect
        with pytest.raises(TurnTooLargeAtStep, match="during step 1$"):
            relative_path([(-huge, huge), (huge, -huge / 2), (-huge, huge / 2), (0.0, 0.0)])
        # and a coincident config 0 comes before that half-turn
        with pytest.raises(CoincidenceAtStep, match="^particles coincide at config 0$"):
            relative_path([(0.0, 0.0), (-huge, huge), (huge, -huge / 2), (-huge, huge / 2)])

    def test_turn_just_short_of_pi_is_not_a_half_turn(self):
        # this step turns by pi - 2e-310: its float cross product underflows
        # to 0 next to a negative dot product, but the exact one is positive
        path = relative_path([(1e-10, 1e-320), (-1e-10, 1e-320)])
        assert total_angle(path) == math.pi
        assert path.crossings == ()

    def test_swapped_endpoints_need_both_particles_swapped(self):
        # end is p1's swap only if both coordinates exchange
        path = lattice_path([(0, 0, 2, 0), (0, 1, 2, 0), (0, 0, 2, 1)])
        with pytest.raises(EndpointsNotClosedOrExchanged):
            classify(path)


class TestWindingParity:
    def test_closed_walks_have_integer_winding(self):
        rng = random.Random(29)
        found = 0
        for _ in range(1500):
            walk = random_valid_walk(rng, extent=2, n_steps=4)
            if walk.configs[-1] != walk.configs[0]:
                continue
            cls = classify(walk)
            assert cls.kind is Kind.DIRECT
            assert cls.winding == int(cls.winding)
            found += 1
        assert found > 10


@st.composite
def float_path_pairs(draw):
    """Two valid float paths from one start to one end, closed or swapped.

    Relative vectors have magnitudes within a factor 2 of a scale in
    [1e-3, 1e3] and turn by less than 3.1 radians per step; the particles sit
    at +/- r/2, so the swapped end is exact.
    """
    scale = 10.0 ** draw(st.floats(-3, 3))
    magnitude = st.floats(0.5, 2.0).map(lambda m: m * scale)
    turn = st.floats(-3.1, 3.1)
    start_angle = draw(st.floats(-math.pi, math.pi))
    r0 = cmath.rect(draw(magnitude), start_angle)
    swapped = draw(st.booleans())
    end_angle = start_angle + (math.pi if swapped else 0.0)
    paths = []
    for _ in range(2):
        rs, angle = [r0], start_angle
        for step in draw(st.lists(turn, min_size=0, max_size=12)):
            angle += step
            rs.append(cmath.rect(draw(magnitude), angle))
        assume(abs(math.remainder(end_angle - angle, TAU)) < 3.1)
        configs = [
            TwoParticleConfig(r.real / 2, r.imag / 2, -r.real / 2, -r.imag / 2)
            for r in rs
        ]
        configs.append(swap(configs[0]) if swapped else configs[0])
        paths.append(DiscretePath(1.0, configs))
    return paths


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(float_path_pairs())
def test_exact_winding_matches_float_rule(pair):
    a, b = pair
    for path in pair:
        assert classify(path).winding == rounded_turns(turning(path) / TAU, 0.5)
    relative = classify(a).winding - classify(b).winding
    assert relative == rounded_turns((turning(a) - turning(b)) / TAU, 1)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(float_path_pairs(), st.floats(0.25, 4.0), st.floats(0.1, 10.0))
def test_relatives_pass_matches_vec2_formulas(pair, mass, dt):
    for path in pair:
        path = DiscretePath(dt, path.configs)
        expected = summed_turns(relatives(path))
        assert abs(total_angle(path) - expected) <= turn_tolerance(path.n_steps, expected)
        assert action(path, PhysicsParams(mass=mass)) == vec2_action(path, mass)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(float_path_pairs())
def test_crossings_are_the_one_crossing_rule(pair):
    for path in pair:
        crossings = path.crossings
        assert path.crossings is crossings
        assert list(crossings) == half_plane_crossings(path)
        assert 2 * classify(path).winding == sum(sign for _, sign in crossings)
        flipped = [k for k, factor in enumerate(step_factors(path)) if factor.flipped]
        assert flipped == [k for k, _ in crossings]


@st.composite
def integer_loops(draw):
    """A valid path, closed or swapped, of 1-8 relative vectors with
    components in [-3, 3], the particles at +/- r/2."""
    rel = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda r: r != (0, 0))
    rs = draw(st.lists(rel, min_size=1, max_size=8))
    configs = [TwoParticleConfig(rx / 2, ry / 2, -rx / 2, -ry / 2) for rx, ry in rs]
    configs.append(swap(configs[0]) if draw(st.booleans()) else configs[0])
    try:
        return DiscretePath(1.0, configs)
    except ValidationError:
        assume(False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(integer_loops(), st.integers(-1070, 1019))
def test_exact_under_scaling_by_powers_of_two(path, k):
    # scaling every coordinate by 2**k is exact, and it scales both products
    # of every step by 4**k, so the signs and angles of the turns stay; the
    # products leave the float range at both ends of k
    for e in (k, -1070, 1019):
        scaled = DiscretePath(1.0, [TwoParticleConfig(*(math.ldexp(v, e) for v in c)) for c in path.configs])
        assert scaled.crossings == path.crossings
        assert classify(scaled) == classify(path)
        assert abs(total_angle(scaled) - total_angle(path)) <= 1e-12


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        float_path_pairs().map(lambda pair: pair[0]),
        st.tuples(integer_loops(), st.integers(-1070, 1019)).map(
            lambda loop: DiscretePath(
                1.0, [TwoParticleConfig(*(math.ldexp(v, loop[1]) for v in c)) for c in loop[0].configs]
            )
        ),
    )
)
def test_total_angle_is_exact_for_closed_and_exchange_paths(path):
    # the turning is pi per signed crossing: 2*pi*w for a closed path and
    # pi*2w for an exchange path, with no rounding, at any scale
    cls = classify(path)
    if cls.kind is Kind.DIRECT:
        assert total_angle(path) == TAU * cls.winding
    else:
        assert total_angle(path) == math.pi * (2 * cls.winding)
    assert total_angle(reverse_path(path)) == -total_angle(path)


@st.composite
def float_path_configs(draw):
    """The 2-12 configurations of a float path, valid, or broken at one of them.

    The relative vectors have magnitudes within a factor 2 of a scale in
    [1e-100, 1e100], so their products stay in the normal range, and turn by
    less than 3.1 radians per step.  A broken path has, at one configuration,
    coincident particles, a relative vector exactly antiparallel to the one
    before (the previous one negated and doubled), or positions whose
    relative vector overflows.
    """
    scale = 10.0 ** draw(st.integers(-100, 100))
    cx, cy = (draw(st.floats(-3.0, 3.0)) * scale for _ in range(2))
    angle = draw(st.floats(-math.pi, math.pi))
    configs = []
    for _ in range(draw(st.integers(2, 12))):
        angle += draw(st.floats(-3.1, 3.1))
        r = cmath.rect(draw(st.floats(0.5, 2.0)) * scale, angle)
        half = Vec2(r.real / 2, r.imag / 2)
        configs.append(
            TwoParticleConfig(cx + half.x, cy + half.y, cx - half.x, cy - half.y)
        )
    defect = draw(st.sampled_from([None, "coincident", "antiparallel", "overflow"]))
    k = draw(st.integers(1 if defect == "antiparallel" else 0, len(configs) - 1))
    if defect == "coincident":
        configs[k] = TwoParticleConfig(*configs[k].p1, *configs[k].p1)
    elif defect == "antiparallel":
        x1, y1, x2, y2 = configs[k - 1]
        rx, ry = x1 - x2, y1 - y2
        configs[k] = TwoParticleConfig(-rx, -ry, rx, ry)
    elif defect == "overflow":
        configs[k] = TwoParticleConfig(1e308, cy, -1e308, cy)
    return configs


def _per_step_rules(configs):
    """The first failure as (error type, message), or the total angle, from
    the separate per-step rules: coincidence, the finiteness of the relative
    vector and :func:`signed_angle`."""
    rs = []
    for k, (x1, y1, x2, y2) in enumerate(configs):
        if x1 == x2 and y1 == y2:
            return CoincidenceAtStep, str(CoincidenceAtStep(k))
        try:
            r = Vec2(x1 - x2, y1 - y2)
        except ValidationError as exc:
            return ValidationError, str(exc)
        if rs:
            try:
                signed_angle(*rs[-1], *r)
            except ValueError:
                return TurnTooLargeAtStep, str(TurnTooLargeAtStep(k - 1))
        rs.append(r)
    return summed_turns(rs)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(float_path_configs())
def test_one_pass_equals_the_per_step_rules(configs):
    # the pass that builds the path refuses what the per-step rules refuse,
    # and records the exact half_plane_crossings; the total angle is the
    # rules' sum of turns, to within one ulp of pi per step
    expected = _per_step_rules(configs)
    try:
        path = DiscretePath(1.0, configs)
    except ValidationError as exc:
        assert (type(exc), str(exc)) == expected
        return
    assert path.crossings == tuple(half_plane_crossings(path))
    assert abs(total_angle(path) - expected) <= turn_tolerance(path.n_steps, expected)


# --- the record type: a named tuple built through its checks -----------------


def test_class_is_the_tuple_of_its_fields():
    text = "HomotopyClass(kind=<Kind.EXCHANGE: 'Exchange'>, winding=0.5)"
    check_record(HomotopyClass, (Kind.EXCHANGE, 0.5), text)


@pytest.mark.parametrize(
    "bad, error, message",
    [
        ({"winding": 0.25}, ValueError, "winding must be a half-integer, got 0.25"),
        ({"winding": 1.0}, ValueError, "Exchange class cannot have winding 1.0"),
        ({"kind": Kind.DIRECT}, ValueError, "Direct class cannot have winding 0.5"),
        ({"kind": Kind.DIRECT, "winding": -0.25}, ValueError, "winding must be a half-integer, got -0.25"),
        ({"winding": math.nan}, ValueError, "winding must be a half-integer, got nan"),
        ({"winding": math.inf}, ValueError, "winding must be a half-integer, got inf"),
        pytest.param(
            {"kind": Kind.DIRECT, "winding": 10**400},
            ValueError,
            f"winding must be a half-integer, got {10**400}",
            id="int-past-the-float-range",
        ),
        # kind is read as Kind(kind), so a value string is its member and anything
        # else is refused; a winding that is not a number raised a bare TypeError
        ({"kind": "Direct"}, ValueError, "Direct class cannot have winding 0.5"),
        ({"kind": "direct"}, ValueError, "'direct' is not a valid Kind"),
        ({"kind": None}, ValueError, "None is not a valid Kind"),
        ({"winding": "0.5"}, ValueError, "winding must be a half-integer, got '0.5'"),
        ({"winding": None}, ValueError, "winding must be a half-integer, got None"),
        ({"winding": 1e308}, ValueError, "Exchange class cannot have winding 1e+308"),
    ],
)
def test_invalid_class_refused(bad, error, message):
    check_refusal(HomotopyClass, (Kind.EXCHANGE, 0.5), bad, error, message)
