import random
import re
from fractions import Fraction as F
from math import floor, gcd, lcm
from time import perf_counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cutstrength import (
    BodyClass,
    QuadBody,
    SplitBody,
    Type1Body,
    Type2Body,
    Type3Body,
    UnimodularMap,
    area,
    bound_for,
    canonicalize,
    classify,
    corner_rays,
    lattice_width,
    monte_carlo_lower,
    point,
    region_of,
    strength_report,
    strength_single_split,
)
from cutstrength.geometry import (
    _edge_lattice,
    _holds_interior_point,
    _width_basis,
    over_common_denominator,
    primitive_directions,
)

from conftest import (
    IDENTITY,
    _rat,
    any_body,
    box_grid,
    ccw,
    corner_rays_oracle,
    cross,
    directional_width,
    dot,
    facets,
    from_frame,
    gauge,
    interior_oracle,
    is_strictly_convex,
    lattice_points_oracle,
    lattice_width_enumerated,
    minus,
    plus,
    polygon_area,
    quad_oracle,
    quad_params,
    random_interior_point,
    root_vertex,
    shoelace_area,
    t3_oracle,
    t3_params,
    times,
    vertex_oracle,
)


def grid_bodies():
    bodies = [Type1Body()]
    for a1, a2 in [(F(1, 2), F(3, 2)), (F(1, 3), F(5, 3)), (F(2, 5), F(5, 2)), (F(1, 5), F(2))]:
        bodies.append(Type2Body(a1, a2))
    for params in [(F(2, 5), F(3, 2), F(3, 5), F(-3, 10)), (F(1, 4), F(3, 2), F(1, 2), F(-1, 4)),
                   (F(1, 3), F(6, 5), F(2, 3), F(-1, 10)), (F(1, 2), F(7, 4), F(1, 2), F(-1, 8))]:
        bodies.append(QuadBody(*params))
    for params in [(F(3), F(3, 10), F(1, 10)), (F(5, 2), F(1, 2), F(1, 5)),
                   (F(4), F(2, 3), F(1, 20)), (F(2), F(3, 4), F(1, 4))]:
        bodies.append(Type3Body(*params))
    return bodies


class TestRational2:
    def test_arithmetic(self):
        # the package keeps no arithmetic on points; the tests' helpers add,
        # subtract, scale, dot and cross
        p = point(F(1, 2), F(3, 4))
        q = point(1, -2)
        assert plus(p, q) == point(F(3, 2), F(-5, 4))
        assert minus(p, q) == point(F(-1, 2), F(11, 4))
        assert times(p, 2) == point(1, F(3, 2))
        assert times(q, -1) == point(-1, 2)
        assert dot(p, q) == F(1, 2) - F(3, 2)
        assert cross(p, q) == -1 - F(3, 4)

    def test_rejects_floats(self):
        with pytest.raises((TypeError, ValueError)):
            point(0.5, 1)


def assert_same_as_oracle(cls, oracle, params, cycle):
    """``cls(*params)`` raises the oracle's ValueError message, or has the
    oracle's fields, repr, vertices and counter-clockwise ``cycle``."""
    try:
        want = oracle(*params)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            cls(*params)
        assert str(raised.value) == str(error)
        return
    body = cls(*params)
    assert {name: getattr(body, name) for name in want} == want
    assert all(type(getattr(body, name)) is F for name in want)
    args = ", ".join(f"{name}={want[name]}" for name in cls._params)
    assert repr(body) == f"{cls.__name__}({args})"
    vertex = {v: point(want[v + "1"], want[v + "2"]) for v in cycle}
    assert body.vertices() == tuple(vertex[v] for v in sorted(cycle))
    assert body.polygon() == [vertex[v] for v in cycle]


class TestConstruction:
    def test_type2_parameter_range(self):
        with pytest.raises(ValueError):
            Type2Body(F(3, 2), F(3, 2))  # a1 must be below 1
        with pytest.raises(ValueError):
            Type2Body(F(1, 2), F(1, 2))  # a2 must exceed 1

    def test_type2_derived_base(self, t2_body):
        left, right, apex = t2_body.vertices()
        assert left == point(-1, 0)
        assert right == point(2, 0)
        assert apex == point(F(1, 2), F(3, 2))

    def test_type3_derived_vertices(self, t3_body):
        assert t3_body.b2 == F(-27, 200)
        assert t3_body.c1 == F(-60, 67)
        assert t3_body.c2 == F(81, 67)

    def test_type3_requires_negative_b_sum(self):
        with pytest.raises(ValueError):
            Type3Body(F(7, 2), F(1, 4), F(1, 8))

    def test_type3_requires_vertical_width_minimal(self):
        # a1 - c1 drops below c2 - b2 here
        with pytest.raises(ValueError):
            Type3Body(F(11, 10), F(3, 10), F(1, 2))

    def test_quad_derived_vertices(self, quad_body):
        assert quad_body.c1 == F(-4, 7)
        assert quad_body.d1 == F(31, 19)
        assert quad_body.c2 == F(2, 7)
        assert quad_body.d2 == F(9, 19)

    def test_quad_sign_invariants(self):
        for body in grid_bodies():
            if isinstance(body, QuadBody):
                assert body.c1 < 0
                assert 0 < body.c2 < 1
                assert body.d1 > 1
                assert 0 < body.d2 < 1
                assert body.c2 <= body.d2

    def test_quad_parameter_violations(self):
        with pytest.raises(ValueError):
            QuadBody(F(3, 5), F(3, 2), F(2, 5), F(-3, 10))  # needs a1 <= b1
        with pytest.raises(ValueError):
            QuadBody(F(3, 10), F(13, 10), F(7, 10), F(-3, 5))  # -b2 > a2 - 1
        with pytest.raises(ValueError):
            QuadBody(F(1, 4), F(7, 4), F(1, 2), F(-1, 2))  # width not vertical

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_constructors_raise_only_value_error(self, data):
        # every denominator in the constructors is positive once the range
        # checks before it pass, so a bad tuple can only raise ValueError
        cls, arity = data.draw(st.sampled_from([(Type2Body, 2), (Type3Body, 3), (QuadBody, 4)]))
        args = data.draw(st.lists(st.fractions(min_value=-3, max_value=4), min_size=arity, max_size=arity))
        try:
            cls(*args)
        except ValueError:
            pass

    @settings(max_examples=600, deadline=None)
    @given(quad_params())
    @example((F(1, 2), F(3, 2), F(1, 2), F(-1, 2)))  # a1 = b1, -b2 = a2 - 1 and a width tie
    @example((F(1, 3), F(5, 3), F(14, 15), F(-2, 15)))  # width ties off both families drawn
    @example((F(1, 4), F(3, 2), F(17, 20), F(-3, 10)))
    def test_quad_matches_fraction_oracle(self, params):
        assert_same_as_oracle(QuadBody, quad_oracle, params, cycle="cbda")

    @settings(max_examples=600, deadline=None)
    @given(t3_params())
    @example((F(4, 3), F(1, 3), F(1, 3)))  # all three width candidates tie
    def test_t3_matches_fraction_oracle(self, params):
        assert_same_as_oracle(Type3Body, t3_oracle, params, cycle="cba")

    def test_split_normal_must_be_primitive(self):
        with pytest.raises(ValueError):
            SplitBody((2, 4), 0)


@st.composite
def body_frames(draw):
    """``(cls, D, numerators)``: type 2, quad or type 3 parameters over and
    around the family's domain as integers over ``D``, often a multiple of
    their least denominator, so that the frame is not reduced."""
    cls = draw(st.sampled_from((Type2Body, QuadBody, Type3Body)))
    if draw(st.booleans()):
        params = {Type2Body: st.tuples(_rat(F(-1, 4), F(5, 4)), _rat(F(1, 2), 60)), QuadBody: quad_params(),
                  Type3Body: t3_params()}[cls]
        D, nums = over_common_denominator(draw(params))
    else:
        D = draw(st.integers(1, 12))
        arity = len(cls._params)
        nums = draw(st.lists(st.integers(-2 * D, 4 * D), min_size=arity, max_size=arity))
    k = draw(st.integers(1, 3))
    return cls, k * D, [k * n for n in nums]


# the public names each family derives from its frame
DERIVED = {
    Type2Body: ("a1", "a2", "left", "right", "apex"),
    Type3Body: ("a1", "a2", "b1", "b2", "c1", "c2"),
    QuadBody: ("a1", "a2", "b1", "b2", "c1", "c2", "d1", "d2"),
}


def derived(body):
    """Those names' values, the vertices in both orders, the integer vertices and the facets."""
    return [getattr(body, name) for name in DERIVED[type(body)]] + [
        body.vertices(), body.polygon(), body._integer_vertices, body._facets
    ]


class TestFromFrame:
    """``_from_frame_or_reason(D, *numerators)`` against the constructor on
    the Fractions ``numerator / D``."""

    @settings(max_examples=400, deadline=None)
    @given(body_frames(), st.data())
    @example((QuadBody, 10, [4, 16, 6, -2]), None)  # every numerator even over D = 10
    @example((Type3Body, 10, [30, 6, 2]), None)
    @example((Type2Body, 6, [3, 9]), None)
    @example((QuadBody, 10, [6, 16, 4, -2]), None)  # a1 > b1
    @example((QuadBody, 4, [1, 7, 2, -2]), None)  # width not vertical
    @example((Type3Body, 20, [70, 5, 10]), None)  # b1 + b2 >= 0
    @example((Type3Body, 10, [11, 3, 5]), None)  # width not vertical
    @example((Type2Body, 4, [4, 6]), None)  # a1 = 1
    @example((Type2Body, 4, [2, 4]), None)  # a2 = 1
    def test_same_as_constructor(self, frame, data):
        cls, D, nums = frame
        try:
            built = cls(*(F(n, D) for n in nums))
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                from_frame(cls, D, *nums)
            assert str(caught.value) == str(exc)
            return
        # both ways a new body holds only its frame, and the width and the
        # bounds read the frame, so they derive nothing
        assert set(vars(built)) == {"_frame"}
        framed = from_frame(cls, D, *nums)
        assert framed._frame == built._frame
        assert lattice_width(framed) == lattice_width(built)
        assert [bound_for(framed, z) for z in (F(3, 2), F(2), F(7, 2))] == [
            bound_for(built, z) for z in (F(3, 2), F(2), F(7, 2))
        ]
        assert set(vars(framed)) == {"_frame"}
        assert framed == built and repr(framed) == repr(built)
        assert derived(framed) == derived(built)
        # reading any one name first derives everything alike
        lazy = from_frame(cls, D, *nums)
        if data is not None:
            getattr(lazy, data.draw(st.sampled_from(DERIVED[cls])))
            assert set(vars(lazy)) == {"_frame", "_integer_vertices", "_vertices"}
        assert repr(lazy) == repr(built) and lazy == built
        assert derived(lazy) == derived(built)


def _message(make, *args):
    """The message of the ValueError that ``make(*args)`` raises, or None."""
    try:
        make(*args)
    except ValueError as exc:
        return str(exc)
    return None


class TestRejectionPath:
    """``_from_frame_or_reason``, the sweep's way to build a body, rejects
    exactly what the constructor rejects, and hands back the constructor's
    message unwritten."""

    @settings(max_examples=400, deadline=None)
    @given(body_frames())
    @example((QuadBody, 10, [4, 16, 6, -2]))  # every numerator even over D = 10
    @example((QuadBody, 4, [1, 7, 2, -2]))  # width not vertical
    @example((Type3Body, 10, [11, 3, 5]))  # width not vertical
    @example((Type2Body, 4, [2, 4]))  # a2 = 1
    def test_rejects_what_the_constructor_rejects(self, frame):
        cls, D, nums = frame
        params = [F(n, D) for n in nums]
        got = cls._from_frame_or_reason(D, *nums)
        want = _message(cls, *params)
        if want is None:
            assert type(got) is cls and got == cls(*params) and set(vars(got)) == {"_frame"}
            return
        assert callable(got) and got() == want == _message(from_frame, cls, D, *nums)
        # the constructor's message, byte for byte, as the Fraction oracles write it
        oracle = {QuadBody: quad_oracle, Type3Body: t3_oracle}.get(cls)
        if oracle is not None:
            assert want == _message(oracle, *params)

    @pytest.mark.parametrize(
        "cls, D, nums, message",
        [
            (QuadBody, 10, [6, 16, 4, -2], "need 0 < a1 <= b1 < 1, got a1=3/5, b1=2/5"),
            (QuadBody, 10, [4, 8, 6, -2], "need a2 > 1, got a2=4/5"),
            (QuadBody, 10, [4, 16, 6, 2], "need b2 < 0, got b2=1/5"),
            (QuadBody, 10, [4, 16, 6, -8], "need -b2 <= a2 - 1, got b2=-4/5, a2=8/5"),
            (QuadBody, 4, [1, 7, 2, -2],
             "lattice width must be attained by the vertical direction (a2-b2=9/4 > d1-c1=7/4)"),
            (Type3Body, 10, [5, 6, 2], "need a1 > 1, got a1=1/2"),
            (Type3Body, 10, [30, 12, 2], "need 0 < a2 < 1, got a2=6/5"),
            (Type3Body, 10, [30, 6, 0], "need 0 < b1 < 1, got b1=0"),
            (Type3Body, 20, [70, 5, 10], "need b1 + b2 < 0, got 9/20"),
            (Type3Body, 10, [11, 3, 5], "lattice width must be attained by the vertical direction "
             "(c2-b2=36/13, a1-c1=99/65, a1+a2-b1-b2=12/5)"),
            (Type2Body, 4, [4, 6], "need 0 < a1 < 1, got a1=1"),
            (Type2Body, 4, [2, 4], "need a2 > 1, got a2=1"),
        ],
    )
    def test_messages_keep_their_bytes(self, cls, D, nums, message):
        # one case per check of each family
        assert cls._from_frame_or_reason(D, *nums)() == message
        assert _message(cls, *(F(n, D) for n in nums)) == _message(from_frame, cls, D, *nums) == message


class TestIntegerVertices:
    """Each family's integer vertex formula, read off the frame, against
    the vertices found as meeting points of its boundary lines."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(any_body(), body_frames()), st.integers(1, 4))
    @example(Type1Body(), 1)
    @example((QuadBody, 2, [1, 3, 1, -1]), 3)  # a1 = b1, -b2 = a2 - 1 and a width tie
    @example((Type3Body, 3, [4, 1, 1]), 2)  # all three width candidates tie
    def test_match_line_oracle(self, drawn, k):
        if isinstance(drawn, tuple):
            cls, D, nums = drawn
        else:
            cls = type(drawn)
            D, *nums = drawn._frame[: 1 + len(cls._params)] or (1,)
        params = [F(n, D) for n in nums]
        try:
            bodies = [cls(*params)]
        except ValueError:
            assume(False)
        if nums:
            bodies.append(from_frame(cls, k * D, *(k * n for n in nums)))  # a frame not reduced
        want = vertex_oracle(cls, params)
        v = lcm(*(c.denominator for p in want for c in (p.x1, p.x2)))
        for body in bodies:
            assert body._integer_vertices == (v, tuple((p.x1 * v, p.x2 * v) for p in want))
            assert body.vertices() == want

    @pytest.mark.parametrize("query", ["strength_report", "region_of", "monte_carlo_lower", "corner_rays"])
    def test_queries_build_no_vertex_fraction(self, query):
        # the queries read the integer vertices only, so a fresh body never
        # holds the Fraction view
        f = point(F(1, 2), F(1, 3))
        run = {
            "strength_report": lambda body: strength_report(body, f, 5),
            "region_of": lambda body: region_of(body, f),
            "monte_carlo_lower": lambda body: monte_carlo_lower(body, 2, 100, 0),
            "corner_rays": lambda body: corner_rays(body, f),
        }[query]
        for body in (Type1Body(), Type2Body(F(1, 2), F(3, 2)), QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10)),
                     Type3Body(3, F(3, 10), F(1, 10))):
            run(body)
            assert "_vertices" not in vars(body)


@st.composite
def any_body_or_split(draw):
    if draw(st.booleans()):
        return draw(any_body())
    normal = draw(st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(lambda n: gcd(*n) == 1))
    return SplitBody(normal, draw(st.integers(-5, 5)))


def params(body):
    return tuple(getattr(body, name) for name in body._params)


class TestBodyState:
    """A body is its frame: equality, hashing and assignment go by it."""

    @settings(max_examples=200, deadline=None)
    @given(any_body_or_split(), any_body_or_split(), st.integers(1, 4))
    def test_equal_exactly_when_parameters_are(self, body, other, k):
        assert (body == other) == (type(body) is type(other) and params(body) == params(other))
        assert (body != other) == (not body == other)
        cls = type(body)
        same = [cls(*params(body))]
        if isinstance(body, (Type2Body, Type3Body, QuadBody)):
            D, nums = over_common_denominator(params(body))
            same += [cls(*map(str, params(body))), from_frame(cls, k * D, *(k * n for n in nums))]
        for twin in same:
            assert twin == body and not twin != body
            assert params(twin) == params(body) and repr(twin) == repr(body)
            assert (twin == other) == (body == other)

    @settings(max_examples=100, deadline=None)
    @given(any_body_or_split())
    def test_unhashable(self, body):
        with pytest.raises(TypeError):
            hash(body)

    @settings(max_examples=100, deadline=None)
    @given(any_body_or_split(), st.data())
    def test_parameters_read_only(self, body, data):
        names = body._params + DERIVED.get(type(body), ())
        assume(names)
        name = data.draw(st.sampled_from(names))
        value = getattr(body, name)
        with pytest.raises(AttributeError):
            setattr(body, name, value)
        assert getattr(body, name) == value



class TestBodyModel:
    @settings(max_examples=200, deadline=None)
    @given(any_body())
    def test_vertex_cycle(self, body):
        cycle, vertices = body.polygon(), body.vertices()
        assert shoelace_area(cycle) > 0
        assert is_strictly_convex(cycle)
        assert len(cycle) == len(vertices) and set(cycle) == set(vertices)
        # the documented corner-ray order: a first for type 3 and quad, the
        # apex last (after the left and right base vertices) for type 2
        if isinstance(body, (Type3Body, QuadBody)):
            assert vertices[0] == point(body.a1, body.a2)
        elif isinstance(body, Type2Body):
            assert vertices[2] == body.apex == point(body.a1, body.a2)

    @pytest.mark.parametrize(
        "body, text",
        [
            (SplitBody(), "SplitBody(normal=(0, 1), offset=0)"),
            (SplitBody((2, 3), -1), "SplitBody(normal=(2, 3), offset=-1)"),
            (Type1Body(), "Type1Body()"),
            (Type2Body(F(1, 2), F(3, 2)), "Type2Body(a1=1/2, a2=3/2)"),
            (Type3Body(F(3), F(3, 10), F(1, 10)), "Type3Body(a1=3, a2=3/10, b1=1/10)"),
            (QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10)), "QuadBody(a1=2/5, a2=3/2, b1=3/5, b2=-3/10)"),
        ],
    )
    def test_repr(self, body, text):
        assert repr(body) == text

    def test_strings_equal_fractions(self, t2_body, t3_body, quad_body):
        from_strings = [
            Type2Body("1/2", "3/2"),
            Type3Body("3", "3/10", "1/10"),
            QuadBody("2/5", "3/2", "3/5", "-3/10"),
        ]
        assert from_strings == [t2_body, t3_body, quad_body]
        assert all(isinstance(v, F) for body in from_strings for v in (body.a1, body.a2))
        assert Type2Body("1/2", "5/2") != t2_body
        assert SplitBody([2, 3], -1) == SplitBody((2, 3), -1) != SplitBody((2, 3), 0)
        assert Type1Body() == Type1Body() != t2_body

    @pytest.mark.parametrize(
        "normal, offset, across, along",
        [((0, 1), 0, (0, 1), (1, 0)), ((2, 3), -1, (-1, 1), (3, -2)), ((-5, 7), 4, (4, 3), (7, 5))],
    )
    def test_split_band(self, normal, offset, across, along):
        # n . across = 1 and n . along = 0, so x = t across + k along has n . x = t
        band = SplitBody(normal, offset)
        n = point(*normal)
        assert facets(band) == [(n, F(offset + 1)), (times(n, -1), F(-offset))]
        for k in range(-2, 3):
            for q in range(-8, 13):
                t = offset + F(q, 4)
                x = plus(times(point(*across), t), times(point(*along), k))
                assert band.contains_interior(x) == (offset < t < offset + 1)


@st.composite
def near_boundary(draw, body):
    """A vertex of ``body`` or a point on one of its edges, as it is or moved
    by ``1/q`` to either side, along an axis or the edge's outward normal."""
    pts = body.polygon()
    i = draw(st.integers(0, len(pts) - 1))
    a, b = pts[i], pts[(i + 1) % len(pts)]
    m = draw(st.integers(1, 12))
    f = plus(a, times(minus(b, a), F(draw(st.integers(0, m)), m)))
    n1, n2 = b.x2 - a.x2, a.x1 - b.x1
    step = draw(st.sampled_from([point(1, 0), point(0, 1), times(point(n1, n2), 1 / max(abs(n1), abs(n2)))]))
    return plus(f, times(step, F(draw(st.sampled_from((-1, 0, 1))), draw(st.integers(1, 10**4)))))


@st.composite
def band_point(draw):
    """A split band and a point on, next to or between its two lattice
    lines: ``n . x = t`` for ``t`` within 1 of a line, 1/q apart."""
    n1, n2 = draw(st.sampled_from(list(primitive_directions(4))))
    if draw(st.booleans()):
        n1, n2 = -n1, -n2
    offset = draw(st.integers(-3, 3))
    # n . across = 1 and n . along = 0, so x = t across + s along has n . x = t
    across = next(point(w1, w2) for w1 in range(-4, 5) for w2 in range(-4, 5) if n1 * w1 + n2 * w2 == 1)
    q = draw(st.integers(1, 10**4))
    t = offset + draw(st.sampled_from((0, 1))) + F(draw(st.integers(-q, q)), q)
    s = F(draw(st.integers(-20, 20)), draw(st.integers(1, 20)))
    return SplitBody((n1, n2), offset), plus(times(across, t), times(point(-n2, n1), s))


class TestContainsInterior:
    # the interior test against its Fraction oracle, on the boundary and
    # 1/q to either side of it
    @staticmethod
    def check(body, f):
        scaled = body._interior(f)
        assert body.contains_interior(f) == (scaled is not None) == interior_oracle(body, f)
        if scaled is not None:
            q, x1, x2 = scaled
            assert q == lcm(f.x1.denominator, f.x2.denominator) and (F(x1, q), F(x2, q)) == (f.x1, f.x2)

    @settings(max_examples=300, deadline=None)
    @given(any_body().flatmap(lambda body: near_boundary(body).map(lambda f: (body, f))))
    @example((Type1Body(), point(1, 1)))  # on the facet x1 + x2 <= 2
    @example((Type1Body(), point(F(1, 2), F(1, 2))))
    @example((QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10)), point(F(2, 5), F(3, 2))))  # a vertex
    def test_property_bodies(self, case):
        self.check(*case)

    @settings(max_examples=200, deadline=None)
    @given(band_point())
    @example((SplitBody((0, 1), 0), point(F(1, 3), 0)))  # on a lattice line
    @example((SplitBody((0, 1), 0), point(F(1, 3), 1)))
    @example((SplitBody((2, 3), -1), point(F(-1, 2), F(1, 6))))  # n . x = -1/2
    def test_property_split_bands(self, case):
        self.check(*case)


_COORD = st.integers(1, 6).flatmap(lambda q: st.integers(-3 * q, 3 * q).map(lambda p: F(p, q)))
_SMALL = st.sampled_from([F(-1), F(0), F(1, 2), F(1), F(2)])


@st.composite
def vertex_lists(draw):
    """3 to 6 points: any points from a pool small enough that repeats and
    collinear triples are common, or a list with a repeated point or an edge's
    midpoint put in, or points in convex position on ``x2 = x1^2``, taken in
    order; each from any start, either way round."""
    kind = draw(st.sampled_from(["any", "repeat", "midpoint", "convex"]))
    if kind == "convex":
        pts = [point(x, x * x) for x in sorted(draw(st.sets(st.integers(-4, 4), min_size=3, max_size=6)))]
    else:
        size = (3, 6) if kind == "any" else (2, 5)
        pts = draw(st.lists(st.builds(point, _SMALL, _SMALL), min_size=size[0], max_size=size[1]))
        i = draw(st.integers(0, len(pts) - 1))
        a, b = pts[i], pts[(i + 1) % len(pts)]
        if kind == "repeat":
            pts.insert(i, a)
        elif kind == "midpoint":
            pts.insert(i + 1, point((a.x1 + b.x1) / 2, (a.x2 + b.x2) / 2))
    k = draw(st.integers(0, len(pts) - 1))
    pts = pts[k:] + pts[:k]
    return pts[::-1] if draw(st.booleans()) else pts


class TestClassify:
    def test_split_band(self):
        assert classify(SplitBody((0, 1), 0)) is BodyClass.SPLIT

    def test_type1(self):
        verts = [point(0, 0), point(2, 0), point(0, 2)]
        assert classify(verts) is BodyClass.TYPE1_TRIANGLE

    def test_quadrilateral_diamond(self):
        verts = [point(F(-1, 2), F(1, 2)), point(F(1, 2), F(-1, 2)),
                 point(F(3, 2), F(1, 2)), point(F(1, 2), F(3, 2))]
        assert classify(verts) is BodyClass.QUADRILATERAL

    def test_canonical_families(self, t2_body, quad_body, t3_body):
        assert classify(t2_body.polygon()) is BodyClass.TYPE2_TRIANGLE
        assert classify(quad_body.polygon()) is BodyClass.QUADRILATERAL
        assert classify(t3_body.polygon()) is BodyClass.TYPE3_TRIANGLE

    def test_long_horizontal_edge_is_counted(self):
        # the base holds 10^30 + 1 lattice points, which are not listed, and
        # the slanted edge to the apex holds none but its end
        verts = [point(0, 0), point(10**30, 0), point(0, F(1, 10**30))]
        assert classify(verts) is BodyClass.NOT_MAXIMAL_LATTICE_FREE

    def test_tall_type2(self):
        # the apex lies 10^9 and 10^30 rows up, and the width direction is x2
        for a2 in (10**9, 10**30):
            source = Type2Body(F(1, 2), a2)
            assert classify(source.polygon()) is BodyClass.TYPE2_TRIANGLE
            assert canonicalize(source.polygon()) == (source, IDENTITY)

    def test_tall_thin_triangle(self):
        verts = [point(0, 0), point(F(1, 10**6), 0), point(0, 10**6)]
        assert classify(verts) is BodyClass.NOT_MAXIMAL_LATTICE_FREE

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            any_body().map(lambda body: body.polygon()),
            st.lists(st.tuples(_COORD, _COORD), min_size=3, max_size=4).map(lambda cs: [point(*c) for c in cs]),
        )
    )
    def test_property_swapped_coordinates(self, pts):
        # swapping x1 and x2 maps the lattice onto itself, so it keeps the
        # class, though it swaps the reduction's starting basis
        assume(is_strictly_convex(pts))
        swapped = [point(p.x2, p.x1) for p in pts]
        assert classify(swapped) is classify(pts)

    def test_not_maximal_small_triangle(self):
        verts = [point(0, 0), point(1, 0), point(0, 1)]
        assert classify(verts) is BodyClass.NOT_MAXIMAL_LATTICE_FREE

    def test_not_maximal_interior_point(self):
        verts = [point(-1, -1), point(3, -1), point(-1, 3)]
        assert classify(verts) is BodyClass.NOT_MAXIMAL_LATTICE_FREE
        # the edges alone would make this type 2; its one interior lattice
        # point (1,1) lies on its only row between the lowest and highest vertex
        verts = [point(F(-3, 2), 0), point(F(7, 2), 0), point(1, F(5, 3))]
        assert classify(verts) is BodyClass.NOT_MAXIMAL_LATTICE_FREE

    def test_five_vertices_not_maximal(self):
        pentagon = [point(0, 3), point(-3, 1), point(-2, -2), point(2, -2), point(3, 1)]
        assert classify(pentagon) is BodyClass.NOT_MAXIMAL_LATTICE_FREE
        # the star turns the same way at every vertex but winds twice
        star = pentagon[::2] + pentagon[1::2]
        for cycle in (star, star[::-1]):
            with pytest.raises(ValueError, match="not strictly convex"):
                classify(cycle)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            classify([point(0, 0), point(1, 1), point(2, 2)])

    @settings(max_examples=300, deadline=None)
    @given(vertex_lists())
    @example([point(0, 0), point(1, 0), point(1, 0), point(0, 1)])
    @example([point(0, 0), point(1, 0), point(2, 0), point(0, 1)])
    @example([point(0, 1), point(2, 0), point(0, 0)])
    def test_checks_match_the_fraction_oracles(self, pts):
        # the integer reading rejects a cycle with the degenerate message
        # exactly when its Fraction shoelace area is 0, and with one of the
        # two messages exactly when it is not strictly convex; canonicalize
        # reads the cycle the same way
        degenerate = "degenerate input: need a polygon with positive area"
        try:
            classify(pts)
            message = None
        except ValueError as error:
            message = str(error)
        assert (message == degenerate) == (shoelace_area(pts) == 0)
        assert (message is None) == is_strictly_convex(pts)
        assert message in (None, degenerate, "input vertex cycle is not strictly convex")
        if message is not None:
            with pytest.raises(ValueError, match=re.escape(message)):
                canonicalize(pts)

    def test_nonconvex_rejected(self):
        verts = [point(0, 0), point(2, 0), point(1, F(1, 4)), point(0, 2)]
        with pytest.raises(ValueError):
            classify(verts)

    @settings(max_examples=200, deadline=None)
    @given(st.permutations(range(7)))
    @example([0, 2, 4, 6, 1, 3, 5])
    @example([0, 3, 6, 2, 5, 1, 4])
    @example([6, 4, 2, 0, 5, 3, 1])
    def test_strictly_convex_only_in_cyclic_order(self, order):
        # seven points in convex position: strictly convex in their cyclic
        # order, either way round and from any start, and in no other order;
        # the star orders turn the same way at every vertex but wind 2 or 3
        # times, so only the winding count rejects them
        hull = [point(x, x * x) for x in range(-3, 4)]
        steps = {(j - i) % 7 for i, j in zip(order, order[1:] + order[:1])}
        pts = [hull[i] for i in order]
        assert is_strictly_convex(pts) == (steps in ({1}, {6}))
        if steps in ({1}, {6}):
            assert classify(pts) is BodyClass.NOT_MAXIMAL_LATTICE_FREE  # seven edges
        else:
            # a few orders wind so that their signed area cancels to 0
            message = "degenerate input" if shoelace_area(pts) == 0 else "not strictly convex"
            with pytest.raises(ValueError, match=message):
                classify(pts)


def integer_cycle(pts):
    """``(v, P)``: the vertices over their least common denominator ``v``, times ``v``."""
    v, flat = over_common_denominator([c for p in pts for c in (p.x1, p.x2)])
    return v, list(zip(flat[::2], flat[1::2]))


class TestLatticePoints:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_COORD, _COORD), min_size=3, max_size=4))
    @example([(0, 0), (2, 0), (0, 2)])
    @example([(F(-1, 2), 0), (F(5, 2), 0), (2, F(3, 2)), (0, F(3, 2))])
    @example([(F(1, 3), F(-1, 2)), (F(7, 3), F(1, 6)), (F(7, 3), F(5, 2)), (F(1, 3), 2)])
    def test_walk_matches_bbox_oracle(self, coords):
        # the helpers get the cycle as drawn, in either orientation
        pts = [point(*c) for c in coords]
        assume(is_strictly_convex(pts))
        boundary, interior = lattice_points_oracle(ccw(pts))
        v, P = integer_cycle(pts)
        listed = set()
        for (A, B), (a, b) in zip(zip(P, P[1:] + P[:1]), zip(pts, pts[1:] + pts[:1])):
            steps, e1, e2 = _edge_lattice(v, A, B)
            walk = [(F(A[0] + s * e1, v), F(A[1] + s * e2, v)) for s in steps]
            listed.update(walk)
            # the edge's lattice points from a on, in order, b left out
            on_edge = {q for q in boundary if cross(minus(b, a), minus(point(*q), a)) == 0}
            assert walk == sorted(on_edge - {(b.x1, b.x2)}, key=lambda q: dot(minus(point(*q), a), minus(b, a)))
            open_count = len(steps) - (0 in steps)
            assert open_count == len(on_edge - {(a.x1, a.x2), (b.x1, b.x2)})
        assert listed == boundary
        assert _holds_interior_point(v, P) == bool(interior)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_COORD, _COORD), min_size=3, max_size=4))
    @example([(0, 0), (2, 0), (0, 2)])
    @example([(0, 0), (F(1, 3), F(1, 3)), (F(1, 2), F(1, 3))])
    def test_width_basis_attains_the_lattice_width(self, coords):
        pts = [point(*c) for c in coords]
        assume(is_strictly_convex(pts))
        v, P = integer_cycle(pts)
        w, a, b = _width_basis(P)
        assert abs(a[0] * b[1] - a[1] * b[0]) == 1
        assert F(w, v) == directional_width(pts, point(*a))
        # a direction u no wider than the axes has |u.e|, |u.f| <= W for the
        # edges e, f at the first vertex, which bounds |u1| and |u2|: the
        # brute force over that radius sees every candidate
        W = min(directional_width(pts, point(1, 0)), directional_width(pts, point(0, 1)))
        e, f = minus(pts[1], pts[0]), minus(pts[-1], pts[0])
        det = abs(cross(e, f))
        radius = floor(W * max(abs(e.x2) + abs(f.x2), abs(e.x1) + abs(f.x1)) / det)
        assume(radius <= 60)
        brute = min(directional_width(pts, point(*u)) for u in primitive_directions(max(radius, 1)))
        assert F(w, v) == brute


class TestLatticeWidth:
    def test_split_width(self):
        assert lattice_width(SplitBody((3, 5), 7)) == 1

    def test_type1_width(self, t1_body):
        assert lattice_width(t1_body) == 2

    def test_type2_example(self, t2_body):
        assert lattice_width(t2_body) == F(3, 2)

    def test_closed_form_equals_enumeration(self):
        for body in grid_bodies():
            assert lattice_width(body) == lattice_width_enumerated(body)

    def test_enumeration_oracle_needs_a_direction(self, t1_body):
        for radius in (0, -1):
            with pytest.raises(ValueError):
                lattice_width_enumerated(t1_body, radius)

    def test_type2_width_range(self):
        for a2_num in range(101, 300, 13):
            body = Type2Body(F(1, 2), F(a2_num, 100))
            assert 1 < lattice_width(body) <= 2


def closed_form_area(body):
    """The family closed forms: type 2 is a base of length ``a2/(a2-1)``
    under the apex height ``a2``; the type 3 and quad forms hold because
    their edges pass through the boundary lattice points."""
    if isinstance(body, Type1Body):
        return F(2)
    if isinstance(body, Type2Body):
        return body.a2**2 / (2 * (body.a2 - 1))
    if isinstance(body, Type3Body):
        return (body.a1 + body.a2 - body.b2 - body.c1) / 2
    return (body.a2 - body.b2 + body.d1 - body.c1) / 2


class TestArea:
    def test_examples(self, t1_body, t2_body, quad_body):
        assert area(t1_body) == 2
        assert area(t2_body) == F(9, 4)
        w = quad_body.a2 - quad_body.b2
        assert area(quad_body) == (w + quad_body.d1 - quad_body.c1) / 2

    def test_closed_forms_equal_shoelace(self):
        for body in grid_bodies():
            assert area(body) == polygon_area(body.polygon()) == closed_form_area(body)
            if isinstance(body, Type2Body):
                w = lattice_width(body)
                if body.a2 <= 2:
                    assert area(body) == w**2 / (2 * (w - 1))
            if isinstance(body, Type3Body):
                assert area(body) == (body.a1 + body.a2 - body.b2 - body.c1) / 2

    @settings(max_examples=200, deadline=None)
    @given(any_body())
    @example(Type2Body(F(1, 3), F(5, 2)))
    @example(Type2Body(F(1, 2), F(40)))
    def test_closed_form_equals_shoelace_whole_domain(self, body):
        assert area(body) == polygon_area(body.polygon()) == closed_form_area(body)

    def test_split_has_no_area(self):
        with pytest.raises(ValueError):
            area(SplitBody((0, 1), 0))

    def test_unknown_body(self):
        with pytest.raises(TypeError, match="body must be a LatticeFreeBody, got <object"):
            area(object())


class TestGauge:
    def test_boundary_ray_is_one(self, t2_body):
        f = point(F(1, 4), F(1, 2))
        for v in t2_body.vertices():
            assert gauge(t2_body, f, minus(v, f)) == 1

    def test_homogeneity(self, quad_body):
        rng = random.Random(11)
        f = point(F(1, 2), F(1, 4))
        for _ in range(20):
            r = point(F(rng.randint(-8, 8), 3), F(rng.randint(-8, 8), 5))
            if r == point(0, 0):
                continue
            g = gauge(quad_body, f, r)
            for lam in (F(1, 2), F(2), F(7, 3)):
                assert gauge(quad_body, f, times(r, lam)) == lam * g

    def test_gauge_one_iff_boundary(self, t3_body):
        rng = random.Random(12)
        f = point(F(1, 2), F(1, 2))
        for _ in range(20):
            r = point(F(rng.randint(-8, 8), 7), F(rng.randint(-8, 8), 7))
            if r == point(0, 0):
                continue
            g = gauge(t3_body, f, r)
            boundary = plus(f, times(r, 1 / g))
            assert gauge(t3_body, f, minus(boundary, f)) == 1

    def test_split_recession_direction(self):
        band = SplitBody((0, 1), 0)
        assert gauge(band, point(F(1, 2), F(1, 2)), point(5, 0)) == 0
        assert gauge(band, point(F(1, 2), F(1, 2)), point(0, 1)) == 2

    def test_errors(self, t2_body):
        with pytest.raises(ValueError):
            gauge(t2_body, point(10, 10), point(1, 0))
        with pytest.raises(ValueError):
            gauge(t2_body, point(F(1, 4), F(1, 2)), point(0, 0))


class TestCornerRays:
    def test_type1_example(self, t1_body):
        f = point(F(1, 2), F(1, 2))
        rays = corner_rays(t1_body, f)
        assert rays == (point(F(-1, 2), F(-1, 2)), point(F(3, 2), F(-1, 2)), point(F(-1, 2), F(3, 2)))

    def test_type2_example(self, t2_body):
        f = point(F(1, 2), F(1, 2))
        rays = corner_rays(t2_body, f)
        assert rays == (point(F(-3, 2), F(-1, 2)), point(F(3, 2), F(-1, 2)), point(0, 1))

    def test_quad_four_unit_gauge_rays(self, quad_body):
        f = point(F(1, 2), F(1, 4))
        rays = corner_rays(quad_body, f)
        assert len(rays) == 4
        for r in rays:
            assert gauge(quad_body, f, r) == 1

    def test_split_has_no_corners(self):
        with pytest.raises(ValueError):
            corner_rays(SplitBody((0, 1), 0), point(F(1, 2), F(1, 2)))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_fraction_oracle(self, data):
        # the Fraction view of the integer frame's rays against v - f over
        # the Fraction vertices
        body = data.draw(any_body())
        f = data.draw(root_vertex(body))
        assert corner_rays(body, f) == corner_rays_oracle(body, f)

    @pytest.mark.parametrize("body, f", [
        (SplitBody((0, 1), 0), point(F(1, 2), F(1, 2))),
        (Type2Body(F(1, 2), F(3, 2)), point(10, 10)),
        (Type1Body(), point(0, 0)),  # a vertex is not interior
    ])
    def test_errors_match_oracle(self, body, f):
        with pytest.raises(ValueError) as want:
            corner_rays_oracle(body, f)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            corner_rays(body, f)


_ELEMENTARY = {"upper": lambda k: (1, k, 0, 1), "lower": lambda k: (1, 0, k, 1), "swap": lambda k: (0, 1, 1, 0)}


def _matrix_product(factors) -> tuple[int, int, int, int]:
    a, b, c, d = 1, 0, 0, 1
    for kind, k in factors:
        p, q, r, s = _ELEMENTARY[kind](k)
        a, b, c, d = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
    return a, b, c, d


class TestCanonicalize:
    def test_identity_on_canonical(self):
        for source in grid_bodies():
            body, umap = canonicalize(source.polygon())
            assert body == source
            assert umap == IDENTITY

    def test_translation_only(self, t2_body):
        moved = [plus(v, point(3, -2)) for v in t2_body.polygon()]
        body, umap = canonicalize(moved)
        assert (body.a1, body.a2) == (t2_body.a1, t2_body.a2)
        assert (umap.t1, umap.t2) == (-3, 2)

    def test_shear_round_trip(self, t1_body):
        shear = UnimodularMap(1, 1, 0, 1, 0, 0)
        moved = [shear.apply(v) for v in t1_body.polygon()]
        body, umap = canonicalize(moved)
        assert isinstance(body, Type1Body)
        assert {umap.apply(v) for v in moved} == set(body.polygon())

    def test_split_normalized(self):
        body, umap = canonicalize(SplitBody((3, 5), 7))
        assert body == SplitBody((0, 1), 0)
        # a vertical band: its normal has no x2 part
        body, umap = canonicalize(SplitBody((1, 0), 2))
        assert body == SplitBody((0, 1), 0)
        assert [umap.apply(point(x1, 5)).x2 for x1 in (2, 3)] == [0, 1]

    def test_split_with_a_long_euclid_run(self):
        # consecutive Fibonacci numbers take the most steps of Euclid's
        # algorithm for their size: 1,500 steps, past a recursion's depth
        fib = [0, 1]
        while len(fib) < 1503:
            fib.append(fib[-1] + fib[-2])
        n1, n2 = fib[1501], fib[1502]
        body, umap = canonicalize(SplitBody((n1, n2), 0))
        assert body == SplitBody((0, 1), 0)
        # x = k (-n2, n1) + t (c1, c2) with n . c = 1 has n . x = t, so the
        # band's two lines and the points between go onto x2 = t
        c1 = pow(n1, -1, n2)
        c2 = (1 - n1 * c1) // n2
        for k, t in [(0, 0), (1, 1), (-3, 1), (7, F(1, 3)), (-5, F(1, 2))]:
            assert umap.apply(point(-k * n2 + t * c1, k * n1 + t * c2)).x2 == t

    def test_not_maximal_rejected(self):
        with pytest.raises(ValueError, match="not maximal lattice-free"):
            canonicalize([point(0, 0), point(1, 0), point(0, 1)])

    @settings(max_examples=60, deadline=None)
    @given(any_body())
    def test_property_swapped_coordinates(self, source):
        # the swapped cycle runs clockwise, and its edges' lattice points
        # come from the same closed form
        swapped = [point(p.x2, p.x1) for p in source.polygon()]
        body, umap = canonicalize(swapped)
        assert classify(body.polygon()) is classify(source.polygon())
        assert {umap.apply(v) for v in swapped} == set(body.vertices())

    def test_class_invariance(self):
        rng = random.Random(21)
        for source in grid_bodies():
            m = rng.choice([UnimodularMap(1, 0, 0, 1, 1, -1), UnimodularMap(0, -1, 1, 0, 0, 2),
                            UnimodularMap(1, 2, 1, 3, -1, 0)])
            moved = [m.apply(v) for v in source.polygon()]
            body, umap = canonicalize(moved)
            assert classify(body.polygon()) is classify(source.polygon())
            assert {umap.apply(v) for v in moved} == set(body.polygon())

    def test_large_entry_map(self, t3_body):
        # the map has a matrix entry of 13
        moved = [UnimodularMap(13, -12, -1, 1, 5, 4).apply(v) for v in t3_body.polygon()]
        body, umap = canonicalize(moved)
        assert body == Type3Body(3, F(3, 10), F(1, 10))
        assert {umap.apply(v) for v in moved} == set(body.vertices())

    def test_steep_shear(self, t1_body, quad_body, t3_body):
        # each moved body's bounding box spans hundreds of integer rows and columns
        m = UnimodularMap(99, -100, 98, -99, 7, -3)
        cases = [(t1_body, BodyClass.TYPE1_TRIANGLE), (quad_body, BodyClass.QUADRILATERAL),
                 (t3_body, BodyClass.TYPE3_TRIANGLE)]
        for source, cls in cases:
            moved = [m.apply(v) for v in source.polygon()]
            assert classify(moved) is cls
            body, umap = canonicalize(moved)
            assert body == source
            assert {umap.apply(v) for v in moved} == set(body.vertices())

    def test_flat_type2(self):
        # about 10,000 base lattice points: the candidate maps are linear in
        # the boundary lattice points, not quadratic
        source = Type2Body(F(1, 2), F(10001, 10000))
        body, umap = canonicalize(source.polygon())
        assert body == source
        assert umap == IDENTITY
        # a signed permutation: a shear that fixes the base line would give
        # the equivalent apex (a1 + k a2 - j, a2) a smaller map
        m = UnimodularMap(0, -1, 1, 0, -3, 5)
        moved = [m.apply(v) for v in source.polygon()]
        body, umap = canonicalize(moved)
        assert body == source
        assert {umap.apply(v) for v in moved} == set(body.vertices())

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(range(13)),
        st.lists(st.tuples(st.sampled_from(["upper", "lower", "swap"]), st.integers(-4, 4)), max_size=4),
        st.integers(-10, 10),
        st.integers(-10, 10),
    )
    def test_property_random_maps(self, index, factors, t1, t2):
        source = grid_bodies()[index]
        matrix = _matrix_product(factors)
        assume(max(map(abs, matrix)) <= 20)
        m = UnimodularMap(*matrix, t1, t2)
        moved = [m.apply(v) for v in source.polygon()]
        body, umap = canonicalize(moved)
        assert classify(body.polygon()) is classify(source.polygon())
        assert {umap.apply(v) for v in moved} == set(body.vertices())
        assert area(body) == area(source)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(range(13)),
        st.integers(-10**12, 10**12),
        st.integers(-10**12, 10**12),
        st.booleans(),
        st.integers(-10**12, 10**12),
        st.integers(-10**12, 10**12),
    )
    @example(1, 10**12, 10**12 - 1, False, 0, 0)
    def test_property_huge_maps(self, index, p, q, flip, t1, t2):
        # a primitive row (p, q) completed to determinant 1, with |r| <= |p|
        # and |s| < |q|; the work must not grow with the entries
        assume(gcd(p, q) == 1)
        s = pow(p, -1, abs(q)) if q else p
        r = (p * s - 1) // q if q else 0
        m = UnimodularMap(*((r, s, p, q) if flip else (p, q, r, s)), t1, t2)
        source = grid_bodies()[index]
        moved = [m.apply(v) for v in source.polygon()]
        assert classify(moved) is classify(source.polygon())
        body, umap = canonicalize(moved)
        assert classify(body.polygon()) is classify(source.polygon())
        assert {umap.apply(v) for v in moved} == set(body.vertices())
        assert area(body) == area(source)

    @pytest.mark.parametrize(
        "m, source",
        [
            (UnimodularMap(10**5 + 1, 10**5, 10**5, 10**5 - 1), Type2Body(F(1, 2), F(3, 2))),
            (UnimodularMap(10**19 + 1, 10**19, 10**19, 10**19 - 1), Type2Body(F(1, 2), F(3, 2))),
            (UnimodularMap(1, 1, 0, 1), Type2Body(F(1, 2), 10**5)),
        ],
    )
    def test_work_does_not_grow_with_the_map(self, m, source):
        # a walk over the image's integer rows took about 10 s for the first
        # and the last, and would not end for the second; the bound is
        # generous, as the answers take about a millisecond
        moved = [m.apply(v) for v in source.polygon()]
        start = perf_counter()
        assert classify(moved) is BodyClass.TYPE2_TRIANGLE
        body, umap = canonicalize(moved)
        assert perf_counter() - start < 1
        assert body == source
        assert {umap.apply(v) for v in moved} == set(body.vertices())

    def test_representative_not_normal_form(self):
        # a shear that fixes x2 = 1 carries Type2Body(1/2, 5/4) exactly onto
        # Type2Body(3/4, 5/4), and canonicalize returns each as itself: with
        # a2 < 2 two apexes with 0 < x1 < 1 are lattice-equivalent, so the
        # canonical body is a representative, not a normal form.  The bound
        # and t_5 agree between the two, but t_bar does not
        left, right = Type2Body(F(1, 2), F(5, 4)), Type2Body(F(3, 4), F(5, 4))
        shear = UnimodularMap(1, 1, 0, 1, -1, 0)
        assert {shear.apply(v) for v in left.vertices()} == set(right.vertices())
        for body in (left, right):
            assert canonicalize(body.polygon()) == (body, IDENTITY)
        for z in (F(3, 2), 2, F(5, 2), 4):
            assert bound_for(left, z) == bound_for(right, z)
        inside = [f for f in box_grid(left, 32) if left.contains_interior(f)]
        differ = [f for f in inside if strength_single_split(left, f).t_bar
                  != strength_single_split(right, shear.apply(f)).t_bar]
        assert (len(inside), len(differ), sum(f.x2 == 1 for f in differ)) == (3081, 135, 31)
        for f in differ:
            assert strength_report(left, f, 5).t_n == strength_report(right, shear.apply(f), 5).t_n
        f = point(F(1, 32), 1)
        assert shear.apply(f) == f
        reports = [strength_single_split(body, f) for body in (left, right)]
        assert [(r.region.index, r.chosen_split_normal, r.t_bar) for r in reports] == [(5, (1, 0), 65), (5, (1, 0), 97)]

    def test_map_invariants(self):
        with pytest.raises(ValueError):
            UnimodularMap(2, 0, 0, 2, 0, 0)
        # a float entry would put a float into the exact geometry, and a
        # half-unit translation does not map the lattice onto itself
        cases = [((1.0, 0, 0, 1), "m11", "1.0"), ((1, 0, 0, 1, F(1, 2), 0), "t1", "Fraction(1, 2)"),
                 ((1, 0, 0, 1, 0, True), "t2", "True")]
        for entries, name, shown in cases:
            with pytest.raises(ValueError) as raised:
                UnimodularMap(*entries)
            assert str(raised.value) == f"map entry {name} must be an int, got {shown}"


class TestRandomInteriorSampling:
    def test_sampled_points_are_interior(self):
        rng = random.Random(5)
        for body in grid_bodies():
            for _ in range(5):
                f = random_interior_point(body, rng)
                assert body.contains_interior(f)
