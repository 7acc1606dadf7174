import random
from fractions import Fraction as F
from math import ceil, floor, gcd

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
    point,
)
from cutstrength.geometry import (
    _edge_points,
    _row_meets_interior,
    is_strictly_convex,
    over_common_denominator,
    shoelace_area,
)

from conftest import (
    IDENTITY,
    _rat,
    any_body,
    ccw,
    dot,
    facets,
    gauge,
    lattice_points_oracle,
    lattice_width_enumerated,
    plus,
    polygon_area,
    quad_oracle,
    quad_params,
    random_interior_point,
    t3_oracle,
    t3_params,
    times,
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
        # the package keeps - and cross; the tests' helpers add, scale and dot
        p = point(F(1, 2), F(3, 4))
        q = point(1, -2)
        assert plus(p, q) == point(F(3, 2), F(-5, 4))
        assert p - q == point(F(-1, 2), F(11, 4))
        assert times(p, 2) == point(1, F(3, 2))
        assert times(q, -1) == point(-1, 2)
        assert dot(p, q) == F(1, 2) - F(3, 2)
        assert p.cross(q) == -1 - F(3, 4)

    def test_rejects_floats(self):
        with pytest.raises((TypeError, ValueError)):
            point(0.5, 1)

    def test_integrality(self):
        assert point(3, -2).is_integral()
        assert not point(F(1, 2), 0).is_integral()


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
    """``_from_frame(D, *numerators)`` against the constructor on the
    Fractions ``numerator / D``."""

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
                cls._from_frame(D, *nums)
            assert str(caught.value) == str(exc)
            return
        # the constructor builds the vertices, so that a caller that builds
        # its bodies before timing them does not time that work; _from_frame
        # keeps only the frame until something else is read, and the width
        # and the bounds read the frame
        assert set(vars(built)) == {"_frame", "_vertices"}
        framed = cls._from_frame(D, *nums)
        assert framed._frame == built._frame
        assert lattice_width(framed) == lattice_width(built)
        assert [bound_for(framed, z) for z in (F(3, 2), F(2), F(7, 2))] == [
            bound_for(built, z) for z in (F(3, 2), F(2), F(7, 2))
        ]
        assert set(vars(framed)) == {"_frame"}
        assert framed == built and repr(framed) == repr(built)
        assert derived(framed) == derived(built)
        # reading any one name first derives everything alike
        lazy = cls._from_frame(D, *nums)
        if data is not None:
            getattr(lazy, data.draw(st.sampled_from(DERIVED[cls])))
            assert set(vars(lazy)) == {"_frame", "_vertices"}
        assert repr(lazy) == repr(built) and lazy == built
        assert derived(lazy) == derived(built)


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
            same += [cls(*map(str, params(body))), cls._from_frame(k * D, *(k * n for n in nums))]
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


_COORD = st.integers(1, 6).flatmap(lambda q: st.integers(-3 * q, 3 * q).map(lambda p: F(p, q)))


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
        # the base holds 10^30 + 1 lattice points: they are counted, not
        # listed, and the slanted edge to the apex holds none but its end
        verts = [point(0, 0), point(10**30, 0), point(0, F(1, 10**30))]
        assert classify(verts) is BodyClass.NOT_MAXIMAL_LATTICE_FREE

    def test_tall_type2(self):
        # the apex lies 10^9 and 10^30 rows up; the walk goes along x1
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
        # swapping x1 and x2 maps the lattice onto itself
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
        # the star orders turn the same way at every vertex but wind 2 or 3 times
        hull = [point(x, x * x) for x in range(-3, 4)]
        steps = {(j - i) % 7 for i, j in zip(order, order[1:] + order[:1])}
        assert is_strictly_convex([hull[i] for i in order]) == (steps in ({1}, {6}))


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
        edges = list(zip(pts, pts[1:] + pts[:1]))
        assert {q for a, b in edges for q in _edge_points(a, b)} == boundary
        for a, b in edges:
            on_edge = {q for q in boundary if (b - a).cross(point(*q) - a) == 0}
            assert sorted(_edge_points(a, b)) == sorted(on_edge)
            open_count = len(_edge_points(a, b)) - a.is_integral() - b.is_integral()
            assert open_count == len(on_edge - {(a.x1, a.x2), (b.x1, b.x2)})
        ys = [p.x2 for p in pts]
        rows = range(floor(min(ys)) + 1, ceil(max(ys)))
        assert {y for y in rows if _row_meets_interior(pts, y)} == {y for _, y in interior}


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
        with pytest.raises(TypeError, match="unsupported body"):
            area(object())


class TestGauge:
    def test_boundary_ray_is_one(self, t2_body):
        f = point(F(1, 4), F(1, 2))
        for v in t2_body.vertices():
            assert gauge(t2_body, f, v - f) == 1

    def test_homogeneity(self, quad_body):
        rng = random.Random(11)
        f = point(F(1, 2), F(1, 4))
        for _ in range(20):
            r = point(F(rng.randint(-8, 8), 3), F(rng.randint(-8, 8), 5))
            if r.is_zero():
                continue
            g = gauge(quad_body, f, r)
            for lam in (F(1, 2), F(2), F(7, 3)):
                assert gauge(quad_body, f, times(r, lam)) == lam * g

    def test_gauge_one_iff_boundary(self, t3_body):
        rng = random.Random(12)
        f = point(F(1, 2), F(1, 2))
        for _ in range(20):
            r = point(F(rng.randint(-8, 8), 7), F(rng.randint(-8, 8), 7))
            if r.is_zero():
                continue
            g = gauge(t3_body, f, r)
            boundary = plus(f, times(r, 1 / g))
            assert gauge(t3_body, f, boundary - f) == 1

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

    def test_not_maximal_rejected(self):
        with pytest.raises(ValueError, match="not maximal lattice-free"):
            canonicalize([point(0, 0), point(1, 0), point(0, 1)])

    @settings(max_examples=60, deadline=None)
    @given(any_body())
    def test_property_swapped_coordinates(self, source):
        # the boundary lattice points are walked along the shorter axis
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
