import gc
import os
import random
import subprocess
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from math import ceil, floor, inf, lcm
from operator import le
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cutstrength import (
    QuadBody,
    RegionId,
    SplitBody,
    StrengthReport,
    Type1Body,
    Type2Body,
    Type3Body,
    admissible_normals,
    area,
    bound_for,
    chosen_split,
    corner_rays,
    covering_lp_min,
    lattice_width,
    monte_carlo_lower,
    piecewise_bound_for,
    point,
    region_of,
    split_coefficients,
    strength_report,
    strength_single_split,
    strength_split_closure_approx,
)
from cutstrength import cuts, geometry
from cutstrength.cli import run
from cutstrength.geometry import LatticeFreeBody, over_common_denominator, primitive_directions

from conftest import (
    BOUNDARY_BODIES,
    PROFILE_BODIES,
    any_body,
    box_grid,
    closure_oracle,
    contains,
    covering_lp_oracle,
    enumerated_closure,
    gauge,
    interior_grid,
    lattice_line_vertex,
    outcome,
    quad_params,
    random_interior_point,
    region_area,
    region_oracle,
    region_polygons,
    region_spec,
    region_spec_oracle,
    root_vertex,
    single_split_oracle,
    t3_params,
)


def grid_bodies():
    bodies = [Type1Body()]
    for a1, a2 in [(F(1, 2), F(3, 2)), (F(1, 3), F(5, 3)), (F(2, 5), F(5, 2)), (F(1, 5), F(2))]:
        bodies.append(Type2Body(a1, a2))
    for params in [(F(2, 5), F(3, 2), F(3, 5), F(-3, 10)), (F(1, 4), F(3, 2), F(1, 2), F(-1, 4)),
                   (F(1, 3), F(6, 5), F(2, 3), F(-1, 10))]:
        bodies.append(QuadBody(*params))
    for params in [(F(3), F(3, 10), F(1, 10)), (F(5, 2), F(1, 2), F(1, 5)), (F(2), F(3, 4), F(1, 4))]:
        bodies.append(Type3Body(*params))
    return bodies


class TestSplitCoefficients:
    def test_boundary_ray(self):
        cut = split_coefficients((0, 1), point(F(1, 2), F(1, 2)), [point(0, F(1, 2))])
        assert cut.coefficients == (F(1),)

    def test_parallel_ray(self):
        cut = split_coefficients((0, 1), point(F(1, 2), F(1, 2)), [point(3, 0)])
        assert cut.coefficients == (F(0),)

    def test_negative_branch(self):
        cut = split_coefficients((0, 1), point(F(1, 2), F(1, 2)), [point(0, F(-1, 4))])
        assert cut.coefficients == (F(1, 2),)

    def test_offset_is_floor(self):
        cut = split_coefficients((1, 1), point(F(3, 2), F(9, 10)), [point(1, 0)])
        assert cut.offset == 2
        assert cut.normal == (1, 1)

    def test_integral_product_rejected(self):
        with pytest.raises(ValueError):
            split_coefficients((1, 1), point(F(1, 2), F(1, 2)), [point(1, 0)])

    def test_nonprimitive_rejected(self):
        with pytest.raises(ValueError):
            split_coefficients((0, 2), point(F(1, 2), F(1, 2)), [point(1, 0)])

    def test_zero_ray_rejected(self):
        with pytest.raises(ValueError):
            split_coefficients((0, 1), point(F(1, 2), F(1, 2)), [point(0, 0)])

    def test_coefficients_equal_split_gauge(self):
        rng = random.Random(3)
        for _ in range(50):
            n1 = rng.randint(-3, 3)
            n2 = rng.randint(-3, 3)
            if (n1, n2) == (0, 0):
                continue
            from math import gcd

            g = gcd(abs(n1), abs(n2))
            n1, n2 = n1 // g, n2 // g
            f = point(F(rng.randint(-20, 20), 7), F(rng.randint(-20, 20), 7))
            nf = n1 * f.x1 + n2 * f.x2
            if nf.denominator == 1:
                continue
            rays = [point(F(rng.randint(-9, 9), 4), F(rng.randint(-9, 9), 4)) for _ in range(4)]
            rays = [r for r in rays if r != point(0, 0)]
            if not rays:
                continue
            cut = split_coefficients((n1, n2), f, rays)
            from math import floor

            band = SplitBody((n1, n2), floor(nf))
            for coeff, r in zip(cut.coefficients, rays):
                assert coeff == gauge(band, f, r)


class TestCoveringLp:
    def test_single_row(self):
        value, arg = covering_lp_min([(F(2), F(1, 2))], 2)
        assert value == F(1, 2)
        assert list(arg) == [F(1, 2), F(0)]

    def test_separable(self):
        value, arg = covering_lp_min([(F(1), F(0)), (F(0), F(1))], 2)
        assert value == F(2)
        assert list(arg) == [F(1), F(1)]

    def test_argmin_of_tied_optima(self):
        # each LP has more than one optimal argmin; the one returned depends
        # on the order in which the minimal rows enter the simplex (recorded
        # with the Fraction simplex)
        cases = [
            ([(1, F(5, 2)), (1, 1)], (F(1), F(0))),
            ([(1, 1), (F(5, 4), F(7, 2))], (F(1), F(0))),
            ([(0, 1, 2), (1, F(3, 4), F(1, 2))], (F(3, 4), F(0), F(1, 2))),
            ([(0, 0, F(5, 3)), (1, 0, 1)], (F(0), F(0), F(1))),
        ]
        for rows, argmin in cases:
            assert covering_lp_min([tuple(map(F, row)) for row in rows], len(argmin))[1] == argmin

    def test_uncoverable_row(self):
        value, arg = covering_lp_min([(F(0), F(0))], 2)
        assert value == inf
        assert arg is None

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            covering_lp_min([(F(-1), F(1))], 2)

    def test_too_many_variables(self):
        with pytest.raises(ValueError):
            covering_lp_min([tuple(F(1) for _ in range(5))], 5)

    def test_no_rows(self):
        with pytest.raises(ValueError):
            covering_lp_min([], 2)

    def test_k_must_be_an_int_from_1_to_4(self):
        # numpy.int64 is refused too, as it is for the radius n
        for k in (True, False, 2.0, F(2), "1", None, np.int64(2), 0, -1):
            for rows in ([(F(1),)], [(F(1), F(2))]):
                assert outcome(covering_lp_min, rows, k) == (ValueError, f"k must be an int from 1 to 4, got {k!r}")
        rows = [tuple(F(1) for _ in range(5))]
        assert outcome(covering_lp_min, rows, 5) == (ValueError, "only up to 4 variables are supported")
        assert outcome(covering_lp_min, [(F(1), F(2))], 1) == (ValueError, "row length 2 != k = 1")
        assert covering_lp_min([(F(1), F(2))], 2) == (F(1, 2), (F(0), F(1, 2)))

    def test_row_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="row length 3 != k = 2"):
            covering_lp_min([(F(1), F(1)), (F(1), F(1), F(1))], 2)

    def test_solution_is_feasible(self):
        rng = random.Random(7)
        for _ in range(50):
            k = rng.randint(1, 4)
            rows = [
                tuple(F(rng.randint(0, 6), rng.randint(1, 4)) for _ in range(k))
                for _ in range(rng.randint(1, 6))
            ]
            if any(all(c == 0 for c in row) for row in rows):
                continue
            value, arg = covering_lp_min(rows, k)
            assert value == sum(arg)
            assert all(s >= 0 for s in arg)
            for row in rows:
                assert sum(c * s for c, s in zip(row, arg)) >= 1

    def test_matches_enumeration_oracle(self):
        rng = random.Random(9)
        for _ in range(100):
            k = rng.randint(1, 4)
            rows = {
                tuple(F(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(k))
                for _ in range(rng.randint(1, 8))
            }
            value, _ = covering_lp_min(sorted(rows), k)
            assert value == covering_lp_oracle(sorted(rows), k)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_property_against_oracle(self, data):
        # zero entries, repeated and dominated rows, and small denominators
        # give degenerate ties in the simplex ratio test
        k = data.draw(st.integers(1, 4))
        entry = st.fractions(min_value=0, max_value=4, max_denominator=3)
        rows = data.draw(st.lists(st.tuples(*[entry] * k), min_size=1, max_size=6))
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=2))
        dominated = data.draw(st.lists(st.sampled_from(rows), max_size=2))
        rows += [tuple(c + 1 for c in row) for row in dominated]
        value, arg = covering_lp_min(rows, k)
        if any(all(c == 0 for c in row) for row in rows):
            assert (value, arg) == (inf, None)
            return
        assert value == covering_lp_oracle(rows, k)
        assert value == sum(arg) and all(s >= 0 for s in arg)
        assert all(sum(c * s for c, s in zip(row, arg)) >= 1 for row in rows)


def integer_rows(rows):
    """``(scale, ints)`` for each Fraction row, over its own denominators."""
    return [over_common_denominator(row) for row in rows]


def priced(columns, k, rows):
    """:func:`cuts._max_packing` over ``columns`` with ``rows`` priced in at
    every optimum, read as ``(value, argmin)`` in Fractions."""
    value, d, slacks = cuts._max_packing(columns, k, lambda s, scale: rows)
    return F(value, d), tuple(F(v, d) for v in slacks)


class CountingPool:
    """A pool that fails the kernel once it makes more pricing passes than
    ``limit``: each pass but the last brings in a row not in the LP yet."""

    def __init__(self, rows, limit):
        self.rows, self.limit, self.passes = rows, limit, 0

    def __iter__(self):
        self.passes += 1
        assert self.passes <= self.limit, "a pool row entered twice"
        return iter(self.rows)


class TestPricing:
    # covering rows priced into the packing kernel from a pool, against the
    # pruned, all-columns-up-front path and the enumeration oracle

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_property_same_value_as_pruning_and_oracle(self, data):
        # zero entries, repeated, rescaled and dominated rows, and small
        # integers make ties in the ratio test and in the pricing test
        k = data.draw(st.integers(1, 4))
        entry = st.fractions(min_value=0, max_value=4, max_denominator=3)
        rows = data.draw(st.lists(st.tuples(*[entry] * k).filter(any), min_size=1, max_size=6))
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=2))
        rows += [tuple(c + 1 for c in row) for row in data.draw(st.lists(st.sampled_from(rows), max_size=2))]
        rows = data.draw(st.permutations(rows))
        ints = integer_rows(rows)
        g = data.draw(st.integers(1, 6))  # a row over a non-reduced scale
        ints.append((ints[0][0] * g, [c * g for c in ints[0][1]]))
        pool = CountingPool(ints, len({tuple(F(c, scale) for c in row) for scale, row in ints}) + 1)
        value, arg = priced([], k, pool)
        assert value == cuts._min_cover(ints, k)[0] == covering_lp_oracle(rows, k)
        assert (value, arg) == priced([], k, ints)
        assert value == sum(arg) and all(s >= 0 for s in arg)
        assert all(sum(c * s for c, s in zip(row, arg)) >= 1 for row in rows)

    def test_tight_rows(self):
        # every row is tight at the optimum, and several bases are optimal
        for rows, k in [
            ([(1, 1), (1, 1), (2, 0), (0, 2)], 2),
            ([(1, 0, 1), (0, 1, 1), (1, 1, 0), (1, 1, 1)], 3),
            ([(1, 1, 1, 1), (2, 0, 2, 0), (0, 2, 0, 2), (1, 1, 1, 1)], 4),
        ]:
            rows = [tuple(map(F, row)) for row in rows]
            ints = integer_rows(rows)
            want = covering_lp_oracle(rows, k)
            assert priced([], k, ints)[0] == cuts._min_cover(ints, k)[0] == want

    def test_zero_row_is_uncoverable(self):
        for rows in ([(1, [0, 0])], [(2, [1, 3]), (1, [0, 0])], [(1, [0, 0]), (2, [1, 3])]):
            assert cuts._min_cover(rows, 2) == (inf, None)

    def test_blands_order_fixes_the_argmin(self):
        # x columns by arrival, then the slacks: on these LPs another order
        # of the entering columns ends in another optimal basis
        rows = [(F(1, 3), F(2, 3), F(1, 3)), (0, 1, 2), (2, F(1, 3), 2)]
        assert covering_lp_min([tuple(map(F, row)) for row in rows], 3) == (F(18, 11), (0, F(15, 11), F(3, 11)))
        rows = [(0, 0, 3, 2), (1, F(1, 3), 0, F(4, 3)), (2, F(4, 3), 4, 1), (2, 1, 2, F(2, 3)), (F(2, 3), F(2, 3), F(2, 3), 0)]
        ints = integer_rows([tuple(map(F, row)) for row in rows])
        assert priced([], 4, ints) == (F(3, 2), (1, 0, F(1, 2), 0))

    def test_columns_up_front_keep_their_pivots(self):
        # the argmin of the pruned path is fixed by the order in which the
        # minimal rows enter; pricing from a pool may end in another
        # optimal basis, with the same value
        rows = [(0, 1, 2), (1, F(3, 4), F(1, 2))]
        ints = integer_rows([tuple(map(F, row)) for row in rows])
        assert cuts._min_cover(ints, 3)[1] == (F(3, 4), F(0), F(1, 2))
        assert priced([], 3, ints)[0] == F(5, 4)


class TestRegions:
    def test_type2_examples(self, t2_body):
        assert region_of(t2_body, point(F(1, 4), F(1, 2))) == RegionId("type2", 1)
        assert region_of(t2_body, point(F(-1, 4), F(1, 4))) == RegionId("type2", 3)
        assert region_of(t2_body, point(F(2, 5), F(6, 5))) == RegionId("type2", 5)

    def test_boundary_smallest_index(self, t2_body):
        # x1 = a1 separates regions 1 and 2; the tie goes to region 1
        assert region_of(t2_body, point(F(1, 2), F(1, 2))) == RegionId("type2", 1)

    def test_region_ids_are_shared(self, t2_body):
        # one RegionId per family and index, from both queries
        f, g = point(F(1, 4), F(1, 2)), point(F(1, 5), F(1, 3))
        assert region_of(t2_body, f) is region_of(Type2Body(F(1, 2), F(3, 2)), g)
        assert region_of(t2_body, f) is strength_single_split(t2_body, f).region
        assert strength_report(t2_body, f, 2).region is region_of(t2_body, f)

    @pytest.mark.parametrize("body", [*PROFILE_BODIES, Type2Body(F(1, 5), F(2))], ids=repr)
    def test_every_row_has_its_precomputed_id(self, body, monkeypatch):
        # a copy of the kept table in which only row i matches, for each i:
        # both queries answer the one RegionId made at import for that row
        ids, rows = cuts._REGION_IDS[body.tag], cuts._table(body)
        assert ids == tuple(RegionId(body.tag, k) for k in range(1, len(rows) + 1))
        f = interior_grid(body, 8)[0]
        anywhere = (((1, 0, -1, 0, 1, 0),),)  # one piece of one open band
        for i, (_, _, normal, coefficients) in enumerate(rows):
            table = [((), *row[1:]) for row in rows]
            table[i] = anywhere, None, normal, coefficients
            monkeypatch.setattr(cuts, "_last_table", (body, table))
            assert region_of(body, f) is ids[i] is strength_single_split(body, f).region
            assert region_of(body, f) == RegionId(body.tag, i + 1)
            monkeypatch.undo()

    def test_exterior_rejected(self, t2_body):
        with pytest.raises(ValueError):
            region_of(t2_body, point(5, 5))

    def test_split_rejected(self):
        with pytest.raises(ValueError):
            region_of(SplitBody((0, 1), 0), point(F(1, 2), F(1, 2)))

    def test_region_areas_partition_body(self):
        for body in grid_bodies():
            total = sum(region_area(poly) for poly in region_polygons(body))
            assert total == area(body)

    def test_first_containing_polygon(self):
        # region_of tests the bands; region_polygons clips the body by them.
        # The grids hit region boundaries, where the smallest index whose
        # split contains f strictly wins.
        def inside(pieces, f):
            return any(len(p) >= 3 and contains(p, f) for p in pieces)

        def strictly_in_split(body, k, f):
            if isinstance(body, Type1Body):
                return True
            n1, n2 = chosen_split(body, RegionId(body.tag, k))
            return (n1 * f.x1 + n2 * f.x2).denominator != 1

        for body in grid_bodies():
            polys = region_polygons(body)
            box = body.polygon()
            for q in (4, 6, 8, 10, 12):
                lo1, hi1 = floor(min(v.x1 for v in box) * q), ceil(max(v.x1 for v in box) * q)
                lo2, hi2 = floor(min(v.x2 for v in box) * q), ceil(max(v.x2 for v in box) * q)
                for i in range(lo1, hi1 + 1):
                    for j in range(lo2, hi2 + 1):
                        f = point(F(i, q), F(j, q))
                        if body.contains_interior(f):
                            first = next(
                                k
                                for k, poly in enumerate(polys, 1)
                                if inside(poly, f) and strictly_in_split(body, k, f)
                            )
                            assert region_of(body, f).index == first, (body, f)

    def test_every_interior_point_lands_in_its_region(self):
        rng = random.Random(13)
        for body in grid_bodies():
            for _ in range(10):
                f = random_interior_point(body, rng)
                region = region_of(body, f)
                assert 1 <= region.index <= len(region_polygons(body))


class TestChosenSplit:
    def test_type2_low_apex(self):
        assert chosen_split(Type2Body(F(1, 2), F(3, 2)), RegionId("type2", 1)) == (0, 1)

    def test_type2_high_apex(self):
        assert chosen_split(Type2Body(F(1, 2), F(5, 2)), RegionId("type2", 1)) == (1, 0)

    def test_type3_diagonal(self):
        body = Type3Body(F(3), F(3, 10), F(1, 10))
        assert chosen_split(body, RegionId("type3", 6)) == (1, 1)

    def test_quad_table(self):
        body = QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10))
        assert chosen_split(body, RegionId("quad", 1)) == (0, 1)
        assert chosen_split(body, RegionId("quad", 2)) == (0, 1)
        assert chosen_split(body, RegionId("quad", 3)) == (1, 0)
        assert chosen_split(body, RegionId("quad", 4)) == (1, 0)

    def test_region_of_another_family(self):
        # a region index is only meaningful within its own family
        with pytest.raises(ValueError, match="is a type2 region"):
            chosen_split(QuadBody(F(1, 4), F(3, 2), F(1, 2), F(-1, 4)), RegionId("type2", 1))

    @pytest.mark.parametrize(
        "body, region",
        [
            (Type1Body(), RegionId("type1", 1)),  # type 1 uses all three facet splits
            (QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10)), RegionId("quad", 5)),
            (QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10)), RegionId("quad", 0)),
        ],
        ids=["type1", "past-the-last", "zero"],
    )
    def test_no_split_choice(self, body, region):
        with pytest.raises(ValueError, match="no split choice"):
            chosen_split(body, region)


@st.composite
def drawn_body(draw):
    """A body from ``any_body``, or from the ``quad_params`` and ``t3_params``
    draws over their edges and width ties."""
    kind = draw(st.sampled_from(("any", "quad", "t3")))
    if kind == "any":
        return draw(any_body())
    try:
        return QuadBody(*draw(quad_params())) if kind == "quad" else Type3Body(*draw(t3_params()))
    except ValueError:
        assume(False)


class TestRegionTable:
    @settings(max_examples=300, deadline=None)
    @given(drawn_body())
    @example(Type2Body(F(1, 3), 2))
    @example(Type2Body(F(1, 3), 2 + F(1, 10**6)))
    @example(QuadBody(F(1, 2), F(3, 2), F(1, 2), F(-1, 2)))  # both quad width ties
    @example(Type3Body(F(3, 2), F(1, 4), F(1, 4)))  # t3 sum tie
    @example(Type3Body(F(3, 2), F(1, 2), F(1, 4)))  # t3 c1 tie
    def test_view_matches_fraction_oracle(self, body):
        # the integer table, read as Fractions, is the Fraction derivation;
        # its bands have positive denominators, as the cross-multiplied
        # tests of region_of need.  It reads the body's integer vertices:
        # v is the lcm of the vertex coordinates' denominators, and each
        # vertex times v, in corner-ray order
        assert region_spec(body) == region_spec_oracle(body)
        v, V = body._integer_vertices
        coordinates = [c for p in body.vertices() for c in (p.x1, p.x2)]
        assert v == lcm(*(c.denominator for c in coordinates)) == body._facets[0]
        assert V == tuple((p.x1 * v, p.x2 * v) for p in body.vertices())
        assert all(type(c) is int for pair in V for c in pair)
        for pieces, _, _, (_, a1, b0) in cuts._table(body):
            assert (abs(a1) or b0) > 0
            assert all(ld >= 0 and hd >= 0 for piece in pieces for *_, ld, _, hd in piece)

    @settings(max_examples=100, deadline=None)
    @given(drawn_body())
    @example(Type1Body())
    def test_one_slope_per_region(self, body):
        # the table stores one slope a1 per row, t_bar = (a0 + a1 u) / (b0 +
        # a1 u), and the Monte Carlo evaluator gathers it once: the Fraction
        # derivation, which is written without the table, has equal
        # numerator and denominator slopes in every region
        for region in region_spec_oracle(body):
            assert region.num[1] == region.den[1], (body, region)

    def test_split_has_no_table(self):
        with pytest.raises(ValueError, match="no region decomposition"):
            region_spec(SplitBody((0, 1), 0))


class TestSingleSplitStrength:
    def test_type2_left_triangle(self, t2_body):
        rep = strength_single_split(t2_body, point(F(-1, 4), F(1, 4)))
        assert rep.region == RegionId("type2", 3)
        assert rep.chosen_split_normal == (0, 1)
        assert rep.t_bar == F(5, 3)

    def test_type2_left_apex_region(self, t2_body):
        rep = strength_single_split(t2_body, point(F(9, 20), F(6, 5)))
        assert rep.region == RegionId("type2", 5)
        assert rep.chosen_split_normal == (1, 0)
        assert rep.t_bar == F(29, 9)

    def test_type2_central(self, t2_body):
        rep = strength_single_split(t2_body, point(F(1, 4), F(1, 2)))
        assert rep.region == RegionId("type2", 1)
        assert rep.t_bar == F(2)

    def test_type2_region_uses_only_its_own_formula(self):
        # the neighbouring regions' formulas divide by zero at these points
        rep = strength_single_split(Type2Body(F(1, 2), F(5, 2)), point(F(1, 4), 1))
        assert (rep.region, rep.chosen_split_normal, rep.t_bar) == (RegionId("type2", 1), (1, 0), F(7, 3))
        rep = strength_single_split(Type2Body(F(1, 2), F(3, 2)), point(0, F(1, 2)))
        assert (rep.region, rep.chosen_split_normal, rep.t_bar) == (RegionId("type2", 1), (0, 1), F(2))
        code = run(["strength", "--body", '{"type":"type2","a":["1/2","5/2"]}', "--f", '["1/4","1"]'])
        assert code == 0

    def test_tie_on_chosen_split_line(self):
        # f lies on a lattice line of a smaller-index region's split, so it
        # goes to the adjacent region whose split contains it strictly
        cases = [
            (Type2Body(F(1, 3), F(5, 2)), point(0, F(1, 2)), 3, (0, 1), F(4)),
            (Type2Body(F(1, 2), F(3, 2)), point(F(1, 4), 1), 5, (1, 0), F(5)),
            (QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10)), point(F(1, 2), 1), 4, (1, 0), F(43, 19)),
            (Type3Body(F(3), F(3, 10), F(1, 10)), point(F(1, 2), 0), 4, (1, 0), F(5)),
        ]
        for body, f, index, normal, t_bar in cases:
            rep = strength_single_split(body, f)
            assert (rep.region.index, rep.chosen_split_normal, rep.t_bar) == (index, normal, t_bar)
            rays = corner_rays(body, f)
            value, _ = covering_lp_min([split_coefficients(normal, f, rays).coefficients], len(rays))
            assert 1 / value == t_bar

    def test_type1_reports_no_single_split(self, t1_body):
        rep = strength_single_split(t1_body, point(F(3, 5), F(3, 5)))
        assert rep.chosen_split_normal is None
        assert rep.t_bar == F(2)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_property_table_against_one_row_lp(self, data):
        # the one-row covering LP stays the reference for the closed form and
        # for the largest-coefficient oracle of TestAgainstOracles
        body = data.draw(any_body())
        f = data.draw(root_vertex(body))
        rep = strength_single_split(body, f)
        assert rep.region == region_of(body, f)
        if isinstance(body, Type1Body):
            assert rep.chosen_split_normal is None
            assert rep.t_bar == strength_split_closure_approx(body, f, 1)
            return
        assert rep.chosen_split_normal == chosen_split(body, rep.region)
        rays = corner_rays(body, f)
        row = split_coefficients(rep.chosen_split_normal, f, rays).coefficients
        value, _ = covering_lp_min([row], len(rays))
        assert rep.t_bar == 1 / value

    def test_table_matches_lp_on_random_points(self):
        rng = random.Random(17)
        for body in grid_bodies():
            for _ in range(10):
                assert_single_split_is_oracle(body, random_interior_point(body, rng))


class TestClosureApprox:
    def test_type1_examples(self, t1_body):
        assert strength_split_closure_approx(t1_body, point(F(3, 5), F(3, 5)), 1) == F(2)
        assert strength_split_closure_approx(t1_body, point(F(1, 4), F(1, 4)), 1) == F(5, 3)
        assert strength_split_closure_approx(t1_body, point(F(1, 5), F(7, 5)), 1) == F(12, 7)

    def test_requires_positive_radius(self, t1_body):
        with pytest.raises(ValueError):
            strength_split_closure_approx(t1_body, point(F(1, 4), F(1, 4)), 0)

    def test_admissible_normals_dedupe_and_filter(self):
        f = point(F(1, 2), F(1, 3))
        normals = admissible_normals(f, 1)
        assert set(normals) == {(0, 1), (1, 0), (1, 1), (1, -1)}
        # f with integral x1: no split with normal (1,0) admits it
        normals = admissible_normals(point(1, F(1, 3)), 1)
        assert (1, 0) not in normals

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_property_interior_point_has_a_split_of_radius_one(self, data):
        # f strictly inside a lattice-free body is not integral, so (1,0) or
        # (0,1) admits it, and t_N has at least one row for every N >= 1
        body = data.draw(any_body())
        f = data.draw(st.one_of(root_vertex(body), lattice_line_vertex(body)))
        assert set(admissible_normals(f, 1)) & {(1, 0), (0, 1)}

    def test_monotone_and_below_t_bar(self):
        rng = random.Random(19)
        for body in grid_bodies()[:6]:
            f = random_interior_point(body, rng)
            assert_single_split_is_oracle(body, f)
            rep = strength_single_split(body, f)
            values = [strength_split_closure_approx(body, f, n) for n in range(1, 5)]
            for lo, hi in zip(values[1:], values[:-1]):
                assert lo <= hi
            assert all(v >= 1 for v in values)
            assert values[-1] <= rep.t_bar

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_property_against_fraction_reference(self, data):
        # t_N from the integer kernel against Fraction split rows, each
        # checked against the split's gauge, and the enumeration oracle;
        # dominated rows are dropped first, which leaves the LP's value
        body = data.draw(any_body())
        f = data.draw(root_vertex(body))
        rays = corner_rays(body, f)
        for n in range(1, 5):
            rows = set()
            for normal in admissible_normals(f, n):
                cut = split_coefficients(normal, f, rays)
                band = SplitBody(normal, cut.offset)
                assert list(cut.coefficients) == [gauge(band, f, r) for r in rays]
                rows.add(cut.coefficients)
            minimal = [r for r in rows if not any(o != r and all(map(le, o, r)) for o in rows)]
            assert strength_split_closure_approx(body, f, n) == 1 / covering_lp_oracle(minimal, len(rays))

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_property_priced_against_pruned_oracle(self, data):
        # pricing the split rows in against pruning them first, from the
        # Fraction corner rays, at every radius up to 12; half the points lie
        # on a lattice line x1, x2, x1 + x2 or x1 - x2 = k
        body = data.draw(any_body())
        f = data.draw(st.one_of(root_vertex(body), lattice_line_vertex(body)))
        for n in range(1, 13):
            assert outcome(strength_split_closure_approx, body, f, n) == outcome(closure_oracle, body, f, n), n

    def test_radius_must_be_an_int(self, t2_body):
        f = point(F(1, 4), F(1, 2))
        calls = [lambda n: admissible_normals(f, n), lambda n: strength_split_closure_approx(t2_body, f, n),
                 lambda n: strength_report(t2_body, f, n)]
        for n in (F(5, 2), 2.5, 3.0, F(3), True, False, "3", None, np.int64(3)):
            for call in calls:
                assert outcome(call, n) == (ValueError, f"n must be an int >= 1, got {n!r}")
        for n in (0, -1):
            for call in calls:
                assert outcome(call, n) == (ValueError, "need n >= 1")

    def test_indicator_domination(self):
        rng = random.Random(23)
        z = F(2)
        for body in grid_bodies()[:6]:
            for _ in range(5):
                f = random_interior_point(body, rng)
                assert_single_split_is_oracle(body, f)
                t_bar = strength_single_split(body, f).t_bar
                t_n = strength_split_closure_approx(body, f, 3)
                if t_bar <= z:
                    assert t_n <= z


def below_brute_force(radius, rays, weights, bound):
    return [
        (max(u1, abs(u2)), u1, u2) for u1, u2 in primitive_directions(radius)
        if sum(w * abs(u1 * a + u2 * b) for w, (a, b) in zip(weights, rays)) < bound
    ]


class TestNormalsBelow:
    # the walk of the splits that can still cut, against a scan of every
    # primitive direction of max-norm <= N

    @staticmethod
    def walked(radius, rays, weights, bound):
        """The walk's directions, checked to come column by column (``u1``
        ascending, then ``u2`` ascending), sorted into the oracle's pool order."""
        walk = list(cuts._normals_below(radius, rays, weights, bound))
        assert walk == sorted(walk), walk
        return sorted((max(u1, abs(u2)), u1, u2) for u1, u2 in walk)

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_property_against_brute_force(self, data):
        # rays with b = 0, parallel rays and zero weights make strips, where
        # the least value mu of a column can be 0
        k = data.draw(st.integers(1, 4))
        coord = st.integers(-6, 6)
        rays = data.draw(st.lists(st.tuples(coord, st.one_of(st.just(0), coord)), min_size=k, max_size=k))
        if data.draw(st.booleans()):
            a, b = rays[0]
            rays = [(c * a, c * b) for c in data.draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))]
        weights = data.draw(st.lists(st.one_of(st.just(0), st.integers(0, 30)), min_size=k, max_size=k))
        bound = data.draw(st.integers(1, 300))
        radius = data.draw(st.integers(1, 8))
        assert self.walked(radius, rays, weights, bound) == below_brute_force(radius, rays, weights, bound)

    def test_strips(self):
        # one ray, parallel rays, horizontal rays and no weight at all
        cases = [([(2, 3)], [1]), ([(1, 0), (-2, 0)], [1, 1]), ([(0, 1), (0, -3)], [2, 1]),
                 ([(3, -1), (-6, 2), (1, 5)], [1, 2, 0]), ([(1, 1), (0, 1)], [0, 0])]
        for rays, weights in cases:
            for bound in (1, 2, 5, 40):
                for radius in (1, 3, 8):
                    want = below_brute_force(radius, rays, weights, bound)
                    assert self.walked(radius, rays, weights, bound) == want, (rays, weights, bound)
        # the strip |u2| < 2 meets every column, and the walk takes each of
        # them up to N: (0, 1), (1, 0), and (u1, -1), (u1, 1) for each u1
        strip = self.walked(1000, [(0, 1)], [1], 2)
        assert len(strip) == 2002 and strip[-2:] == [(1000, 1000, -1), (1000, 1000, 1)]

    def test_bounded_set_ignores_the_radius(self):
        rays, weights = [(3, 1), (-1, 2), (-2, -3)], [2, 1, 1]
        want = self.walked(30, rays, weights, 60)
        assert want == below_brute_force(30, rays, weights, 60) and max(want)[0] < 30
        for radius in (10**6, 10**30):
            assert self.walked(radius, rays, weights, 60) == want


# closure_pool entries of the benchmark (family, params, f) whose t_N optimum
# at N = 5 is supported on one corner ray, so that the walk meets a strip
STRIP_OPTIMA = [
    (QuadBody, ("1/10", "21/20", "7/10", "-1/20"), ("13/4", "3/4")),
    (Type3Body, ("39/10", "4/5", "1/10"), ("4/9", "17/18")),
    (Type2Body, ("3/4", "13/4"), ("6/7", "13/7")),
    (Type3Body, ("21/10", "3/5", "7/20"), ("1/14", "-1/14")),
    (Type3Body, ("33/20", "3/20", "1/10"), ("-1/5", "11/10")),
    (Type2Body, ("19/20", "9/5"), ("1/2", "31/22")),
]


class TestPricingOverCuttingSplits:
    # t_N priced over the splits that can still cut, against the enumerating
    # path it replaced (every split of max-norm <= N in one pool)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_property_against_enumerated_pool(self, data):
        body = data.draw(any_body())
        f = data.draw(st.one_of(root_vertex(body), lattice_line_vertex(body)))
        for n in range(1, 26):
            assert strength_split_closure_approx(body, f, n) == enumerated_closure(body, f, n), n

    def test_optima_on_one_ray(self, monkeypatch):
        packing = cuts._max_packing
        optima = []
        monkeypatch.setattr(cuts, "_max_packing", lambda *args: optima.append(packing(*args)) or optima[-1])
        for cls, params, f in STRIP_OPTIMA:
            body, f = cls(*map(F, params)), point(*map(F, f))
            optima.clear()
            strength_split_closure_approx(body, f, 5)
            assert sum(map(bool, optima[-1][2])) == 1, (body, f)
            for n in range(1, 26):
                assert strength_split_closure_approx(body, f, n) == enumerated_closure(body, f, n), (body, f, n)

    def test_rows_built_do_not_grow_with_n(self, quad_body, monkeypatch):
        # the quad fixture's optimum spans the plane; entry 1416 of the
        # closure pool and the STRIP_OPTIMA meet an optimum on one corner ray,
        # whose walk is a strip that reaches every column up to N
        cases = [(quad_body, point(F(1, 2), F(1, 3)), (25, 1000, 10**30), F(13063, 11527)),
                 (Type3Body(F(41, 20), F(4, 5), F(1, 10)), point(F(-1, 22), F(1)), (1000, 10**30), F(5395, 412))]
        for cls, params, f in STRIP_OPTIMA:
            cases.append((cls(*map(F, params)), point(*map(F, f)), (1000, 10**30), None))
        built = []
        split_row = cuts._split_row
        monkeypatch.setattr(cuts, "_split_row", lambda *args: built.append(args[:2]) or split_row(*args))
        for body, f, radii, want in cases:
            values, counts = set(), set()
            for n in radii:
                built.clear()
                values.add(strength_split_closure_approx(body, f, n))
                counts.add(len(built))
            assert len(values) == len(counts) == 1 and want in (None, *values), (body, f, values, counts)


class TestStrengthReport:
    def test_record_fields(self):
        assert StrengthReport._fields == ("region", "chosen_split_normal", "t_bar", "t_n", "n")
        assert StrengthReport._field_defaults == {"t_n": None, "n": None}

    def test_record_is_an_immutable_tuple(self, t2_body):
        f = point(F(1, 4), F(1, 2))
        single, full = strength_single_split(t2_body, f), strength_report(t2_body, f, 2)
        assert type(single) is type(full) is StrengthReport
        region, split, t_bar, t_n, n = full
        assert single == (region, split, t_bar, None, None) == StrengthReport(region, split, t_bar)
        assert full == (region, split, t_bar, t_n, 2) and t_n is not None
        for name in StrengthReport._fields:
            with pytest.raises(AttributeError):
                setattr(single, name, None)
        assert {single: 1}[StrengthReport(region, split, t_bar)] == 1 and hash(full) == hash(tuple(full))
        assert single._replace(t_n=t_n, n=2) == full and single.t_n is None

    def test_report_bundles_both_values(self, t2_body):
        rep = strength_report(t2_body, point(F(1, 4), F(1, 2)), 2)
        assert rep.t_bar == F(2)
        assert rep.n == 2
        assert rep.t_n is not None and rep.t_n <= rep.t_bar

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_property_is_the_composition(self, data):
        # one frame per report gives the two calls' values and errors, type 1
        # included; the points reach the boundary, the exterior and lattice lines
        body = data.draw(st.one_of(any_body(), st.just(SplitBody((0, 1), 0))))
        if isinstance(body, SplitBody):
            f = point(F(1, 2), F(1, 3))
        else:
            box = body.polygon()
            anywhere = st.builds(
                point,
                *(st.fractions(floor(min(xs)) - 1, ceil(max(xs)) + 1, max_denominator=12)
                  for xs in ([v.x1 for v in box], [v.x2 for v in box])),
            )
            f = data.draw(st.one_of(root_vertex(body), lattice_line_vertex(body), anywhere))
        n = data.draw(st.one_of(st.integers(-1, 7), st.sampled_from((F(5, 2), 2.5, True, False, None))))

        def composed():
            return strength_single_split(body, f)._replace(t_n=strength_split_closure_approx(body, f, n), n=n)

        assert outcome(strength_report, body, f, n) == outcome(composed)


def single_split(body, f):
    rep = strength_single_split(body, f)
    return rep.region.index, rep.chosen_split_normal, rep.t_bar


def assert_single_split_is_oracle(body, f):
    """``strength_single_split`` gives the region, split and ``t_bar`` of
    :func:`single_split_oracle`, or raises the same exception type with the
    same text: the one check of the region table's closed form."""
    assert outcome(single_split, body, f) == outcome(single_split_oracle, body, f), (body, f)


def assert_same_as_oracles(body, f, closure=(1, 3)):
    """The integer-frame queries give the Fraction oracles' values, or raise
    the same exception type with the same text."""
    assert_single_split_is_oracle(body, f)
    assert outcome(lambda: region_of(body, f).index) == outcome(lambda: region_oracle(body, f)[0]), (body, f)
    for n in closure:
        got = outcome(strength_split_closure_approx, body, f, n)
        assert got == outcome(closure_oracle, body, f, n), (body, f, n)


class TestAgainstOracles:
    # t_bar is the region table's closed form and nothing else; these tests
    # hold it against oracles that read neither the table nor the integer
    # frame: the split's largest coefficient at the Fraction corner rays, and
    # for type 1 the brute-force N = 1 covering value

    def test_profile_grid(self):
        # every interior point of the 1/32 grid of the benchmark's
        # body_profile bodies
        count = 0
        for body in PROFILE_BODIES:
            for f in interior_grid(body, 32):
                assert_single_split_is_oracle(body, f)
                count += 1
        assert count == 10_499

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_property_any_body(self, data):
        body = data.draw(any_body())
        assert_single_split_is_oracle(body, data.draw(st.one_of(root_vertex(body), lattice_line_vertex(body))))


class TestIntegerFrame:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_property_against_fraction_oracles(self, data):
        body = data.draw(any_body())
        assert_same_as_oracles(body, data.draw(root_vertex(body)))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_property_any_point_of_the_box(self, data):
        # points on and outside the boundary raise the oracle's error
        body = data.draw(any_body())
        box = body.polygon()
        x1, x2 = (
            data.draw(st.fractions(floor(min(xs)) - 1, ceil(max(xs)) + 1, max_denominator=12))
            for xs in ([v.x1 for v in box], [v.x2 for v in box])
        )
        assert_same_as_oracles(body, point(x1, x2))

    def test_dyadic_grid(self):
        # the 1/16 grid hits region boundaries and lattice lines; the box
        # points outside the body check the exterior error
        for body in BOUNDARY_BODIES:
            for f in box_grid(body, 16):
                assert_same_as_oracles(body, f, closure=(1,))

    def test_errors(self, t2_body):
        f = point(F(1, 2), F(1, 2))
        for body, g in [(t2_body, point(5, 5)), (t2_body, point(-1, 0)), (SplitBody((0, 1), 0), f)]:
            for call, oracle in [(single_split, single_split_oracle), (region_of, region_oracle)]:
                got = outcome(call, body, g)
                assert got[0] is ValueError and got == outcome(oracle, body, g)
            got = outcome(strength_split_closure_approx, body, g, 2)
            assert got[0] is ValueError and got == outcome(closure_oracle, body, g, 2)
        for n in (0, -1):
            got = outcome(strength_split_closure_approx, t2_body, f, n)
            assert got == (ValueError, "need n >= 1") == outcome(closure_oracle, t2_body, f, n)

    @pytest.mark.parametrize("call, split_error", [
        (region_of, "splits have no region decomposition"),
        (strength_single_split, "splits have no region decomposition"),
        (lambda body, f: strength_report(body, f, 2), "splits have no region decomposition"),
        (lambda body, f: strength_split_closure_approx(body, f, 2), "a split has no vertices, hence no corner rays"),
        (corner_rays, "a split has no vertices, hence no corner rays"),
    ], ids=["region_of", "strength_single_split", "strength_report", "strength_split_closure_approx", "corner_rays"])
    def test_error_messages(self, call, split_error):
        # the exact error of each query that locates f: a split body, an
        # exterior f and a boundary f (on the base, and a vertex), also
        # right after a query of another point of the same body
        body = Type2Body(F(1, 2), F(3, 2))
        f = point(F(1, 2), F(1, 2))
        assert outcome(call, SplitBody((0, 1), 0), f) == (ValueError, split_error)
        for g in (point(5, 5), point(0, 0), point(F(1, 2), F(3, 2))):
            region_of(body, f)
            want = (ValueError, f"root vertex {g} is not strictly interior to {body!r}")
            assert outcome(call, body, g) == want
            assert outcome(call, body, g) == want

    def test_t_bar_builds_no_corner_rays(self, monkeypatch):
        # a t_bar query reads only f's (q, X1, X2); the corner rays are for
        # t_N and corner_rays alone
        def rays(body, f):
            raise AssertionError("a t_bar query built the corner rays")

        monkeypatch.setattr(cuts, "_rays", rays)
        for body in PROFILE_BODIES:
            points = interior_grid(body, 8)
            assert points
            for f in points:
                assert region_of(body, f) is strength_single_split(body, f).region
                assert single_split(body, f) == single_split_oracle(body, f), (body, f)
            with pytest.raises(AssertionError, match="built the corner rays"):
                strength_split_closure_approx(body, points[0], 1)


BODY, INSIDE = Type2Body(F(1, 2), F(3, 2)), point(F(1, 2), F(1, 3))

# (function, arguments, error type, start of the message); at least one row
# per public function of cuts
WRONG_ARGUMENTS = [
    (split_coefficients, ((0, 1), "x", []), TypeError, "f must be a Rational2, got 'x'"),
    (split_coefficients, ((0, 1), (F(1, 2), F(1, 3)), []), TypeError, "f must be a Rational2"),
    (split_coefficients, ((0, 1), INSIDE, [point(1, 0), (1, 0)]), TypeError, "rays[1] must be a Rational2"),
    (split_coefficients, ((0, 1), INSIDE, None), TypeError, "rays must be iterable, got None"),
    (split_coefficients, ("x", INSIDE, []), ValueError, "normal must be an integer pair"),
    (covering_lp_min, (5, 1), TypeError, "rows must be iterable, got 5"),
    (covering_lp_min, ([None], 1), TypeError, "rows[0] must be iterable, got None"),
    (covering_lp_min, ([[F(1)]], "1"), ValueError, "k must be an int"),
    (region_of, (None, INSIDE), TypeError, "body must be a LatticeFreeBody, got None"),
    (region_of, (Type2Body, INSIDE), TypeError, "body must be a LatticeFreeBody"),
    (region_of, (BODY, (F(1, 2), F(1, 3))), TypeError, "f must be a Rational2"),
    (region_of, (BODY, geometry.Rational2("1/2", "1/3")), TypeError, "f must have int or Fraction coordinates"),
    (chosen_split, (BODY, "R1"), TypeError, "region must be a RegionId, got 'R1'"),
    (chosen_split, (None, RegionId("type2", 1)), TypeError, "body must be a LatticeFreeBody, got None"),
    (strength_single_split, (BODY, (F(1, 2), F(1, 2))), TypeError, "f must be a Rational2"),
    (strength_single_split, ("type2", INSIDE), TypeError, "body must be a LatticeFreeBody"),
    (admissible_normals, ((F(1, 2), F(1, 3)), 2), TypeError, "f must be a Rational2"),
    (admissible_normals, (INSIDE, "2"), ValueError, "n must be an int"),
    (strength_split_closure_approx, (None, INSIDE, 2), TypeError, "body must be a LatticeFreeBody"),
    (strength_split_closure_approx, (BODY, None, 2), TypeError, "f must be a Rational2, got None"),
    (strength_report, (BODY, [F(1, 2), F(1, 3)], 2), TypeError, "f must be a Rational2"),
    (strength_report, (BODY, INSIDE, "2"), ValueError, "n must be an int"),
    (corner_rays, (object(), INSIDE), TypeError, "body must be a LatticeFreeBody"),
    (corner_rays, (BODY, 0), TypeError, "f must be a Rational2, got 0"),
    (covering_lp_min, ([1], 1), TypeError, "rows[0] must be iterable, got 1"),
    (chosen_split, (Type2Body, RegionId("type2", 1)), TypeError, "body must be a LatticeFreeBody"),
]


class TestArgumentTypes:
    @pytest.mark.parametrize("call, args, error, message", WRONG_ARGUMENTS)
    def test_wrong_type_names_the_argument(self, call, args, error, message):
        got = outcome(call, *args)
        assert got[0] is error and got[1].startswith(message), got

    def test_every_public_function_is_covered(self):
        public = {name for name in vars(cuts) if not name.startswith("_") and callable(getattr(cuts, name))
                  and getattr(getattr(cuts, name), "__module__", None) == "cutstrength.cuts"}
        classes = {"SplitCut", "RegionId", "StrengthReport"}
        assert {call.__name__ for call, *_ in WRONG_ARGUMENTS} == public - classes

    def test_float_coordinates_are_not_read_as_binary(self):
        # a float coordinate gets the error that point() gives it, on every
        # query that reads f; ints and Fractions are read as before
        want = (ValueError, "expected 'p/q' string or integer, got 0.5")
        assert outcome(point, 0.5, 0.25) == want
        queries = [
            region_of,
            strength_single_split,
            corner_rays,
            lambda body, f: strength_report(body, f, 2),
            lambda body, f: strength_split_closure_approx(body, f, 2),
            lambda body, f: admissible_normals(f, 2),
            lambda body, f: split_coefficients((0, 1), f, []),
        ]
        for f in (geometry.Rational2(0.5, 0.25), geometry.Rational2(F(1, 4), 0.5)):
            for call in queries:
                assert outcome(call, BODY, f) == want, call
        assert outcome(split_coefficients, (0, 1), INSIDE, [geometry.Rational2(1, 0.5)]) == want
        mixed = geometry.Rational2(F(1, 2), 1)
        assert strength_report(BODY, mixed, 2) == strength_report(BODY, point(F(1, 2), 1), 2)


# (function, arguments, its error for a split in place of the body, or None
# where a split is valid): one row per public function outside cuts that
# takes a body; the first argument, not a body, gets the one TypeError of cuts
NOT_BODIES = [
    (bound_for, (None, 2), (ValueError, "no probability bound for SplitBody")),
    (piecewise_bound_for, ("type2",), (ValueError, "no probability bound for SplitBody")),
    (monte_carlo_lower, (Type2Body, 2, 10), (ValueError, "splits have no bounded area to sample")),
    (area, (object(),), (ValueError, "a split is unbounded; its area is not defined")),
    (lattice_width, (None,), None),
]


class TestBodyType:
    @pytest.mark.parametrize("call, args, split_error", NOT_BODIES,
                             ids=[call.__name__ for call, *_ in NOT_BODIES])
    def test_non_body_is_a_type_error(self, call, args, split_error):
        assert outcome(call, *args) == (TypeError, f"body must be a LatticeFreeBody, got {args[0]!r}")
        got = outcome(call, SplitBody((0, 1), 0), *args[1:])
        if split_error is None:
            assert got == 1
        else:
            assert got[0] is split_error[0] and got[1].startswith(split_error[1]), got


BOOL_POINT = geometry.Rational2(True, F(1, 3))
TYPE1 = [point(0, 0), point(2, 0), point(0, 2)]

# (call, arguments, error type, message): a caller's point that the package
# once read as something else, or that leaked an interpreter error; each now
# gets the one point check in geometry.  split_coefficients with rays None
# is a row of WRONG_ARGUMENTS, and region_of(None, None) in a new process is
# test_fresh_process
POINT_DEFECTS = [
    (BODY.contains_interior, (geometry.Rational2(0.5, 0.25),), ValueError,
     "expected 'p/q' string or integer, got 0.5"),
    (BODY.contains_interior, ((F(1, 2), F(1, 3)),), TypeError, "f must be a Rational2, got (Fraction(1, 2)"),
    (BODY.contains_interior, (BOOL_POINT,), TypeError, "f must have int or Fraction coordinates"),
    (admissible_normals, (BOOL_POINT, 2), TypeError, "f must have int or Fraction coordinates"),
    (split_coefficients, ((0, 1), BOOL_POINT, []), TypeError, "f must have int or Fraction coordinates"),
    (split_coefficients, ((0, 1), INSIDE, [geometry.Rational2(1, False)]), TypeError,
     "rays[0] must have int or Fraction coordinates"),
    (geometry.classify, ([geometry.Rational2(0, False), *TYPE1[1:]],), TypeError,
     "obj[0] must have int or Fraction coordinates"),
    (geometry.classify, ([*TYPE1[:2], (0, 2)],), TypeError, "obj[2] must be a Rational2, got (0, 2)"),
    (geometry.canonicalize, ([*TYPE1[:2], (0, 2)],), TypeError, "obj[2] must be a Rational2, got (0, 2)"),
    (geometry.classify, (None,), TypeError, "obj must be iterable, got None"),
    (geometry.UnimodularMap(1, 0, 0, 1).apply, ((1, 2),), TypeError, "p must be a Rational2, got (1, 2)"),
    (geometry.UnimodularMap(1, 0, 0, 1).apply, (geometry.Rational2(0.5, 1),), ValueError,
     "expected 'p/q' string or integer, got 0.5"),
]


class TestPointCheck:
    @pytest.mark.parametrize("call, args, error, message", POINT_DEFECTS)
    def test_defect_gets_the_package_error(self, call, args, error, message):
        got = outcome(call, *args)
        assert got[0] is error and got[1].startswith(message), got

    def test_checkers_live_in_geometry(self):
        assert not hasattr(cuts, "_last_point")
        assert cuts._check_point is geometry._check_point and cuts._check_type is geometry._check_type

    def test_every_iterable_is_still_read(self):
        rays = [point(1, 0), point(F(-1, 2), 1)]
        want = split_coefficients((0, 1), INSIDE, rays)
        for form in (tuple, iter, lambda pts: (p for p in pts)):
            assert split_coefficients((0, 1), INSIDE, form(rays)) == want
            assert geometry.classify(form(TYPE1)) is geometry.BodyClass.TYPE1_TRIANGLE
            assert geometry.canonicalize(form(TYPE1))[0] == Type1Body()

    def test_fresh_process(self):
        # no kept state stands for an argument: a first call in a new
        # process raises what the same call raises after other queries
        code = (
            "from cutstrength import monte_carlo_lower, region_of\n"
            "for call, args in ((region_of, (None, None)), (monte_carlo_lower, (None, 2, 10))):\n"
            "    try:\n        call(*args)\n    except Exception as exc:\n        print(type(exc).__name__, exc)\n"
        )
        src = str(Path(cuts.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        fresh = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        region_of(BODY, INSIDE)
        after = [outcome(region_of, None, None), outcome(monte_carlo_lower, None, 2, 10)]
        assert fresh.stdout.splitlines() == [f"{error.__name__} {message}" for error, message in after]
        assert after == [(TypeError, "body must be a LatticeFreeBody, got None")] * 2


class TestTableReuse:
    # the region table of the last body queried is reused for the next query
    # on the same body object; a different object gets its own table

    @staticmethod
    def queries():
        a = QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10))
        b = Type3Body(F(3), F(3, 10), F(1, 10))
        a_again = QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10))
        assert a_again == a and a_again is not a
        points = [point(F(1, 2), F(1, 3)), point(F(1, 4), F(1, 2)), point(F(1, 2), F(1, 2)), point(F(1, 2), 1)]
        return [(body, f) for body in (a, b, a, a_again) for f in points if body.contains_interior(f)]

    @staticmethod
    def answer(body, f):
        return single_split(body, f), region_of(body, f).index, strength_split_closure_approx(body, f, 2)

    def test_interleaved_bodies(self):
        queries = self.queries()
        assert {type(body) for body, _ in queries} == {QuadBody, Type3Body}
        for body, f in queries:
            want = single_split_oracle(body, f), region_oracle(body, f)[0], closure_oracle(body, f, 2)
            assert self.answer(body, f) == want, (body, f)

    def test_two_threads(self):
        # a short switch interval makes the two threads' bodies alternate often
        queries = self.queries() * 50
        serial = [self.answer(body, f) for body, f in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                threaded = list(pool.map(lambda q: self.answer(*q), queries, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_cross_check_catches_a_wrong_table(self, monkeypatch):
        # one coefficient changed in a copy of the kept table: the query
        # answers from the table alone, and the oracle comparison fails
        f = point(F(1, 2), F(1, 3))
        for body in PROFILE_BODIES:
            assert_single_split_is_oracle(body, f)
            index, _, t_bar = single_split(body, f)
            wrong = list(cuts._last_table[1])
            pieces, split, normal, (a0, a1, b0) = wrong[index - 1]
            wrong[index - 1] = pieces, split, normal, (a0 + 1, a1, b0)
            monkeypatch.setattr(cuts, "_last_table", (body, wrong))
            assert single_split(body, f)[2] != t_bar
            with pytest.raises(AssertionError):
                assert_single_split_is_oracle(body, f)
            monkeypatch.undo()

    def test_report_builds_one_frame(self, monkeypatch):
        # each strength reads f once, by the body's interior test in
        # geometry, and nothing scales it over a common denominator again
        for body in (Type1Body(), QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10))):
            region_of(body, point(F(1, 2), F(1, 4)))  # builds the region table
            f = point(F(1, 2), F(1, 3))
            scaled, calls = [], []
            interior = LatticeFreeBody._interior
            monkeypatch.setattr(LatticeFreeBody, "_interior", lambda b, g: scaled.append(g) or interior(b, g))
            record = lambda v: calls.append(v) or over_common_denominator(v)
            for module in (cuts, geometry):
                monkeypatch.setattr(module, "over_common_denominator", record)
            rep = strength_report(body, f, 3)
            monkeypatch.undo()
            assert scaled == [f, f] and calls == []
            assert (rep.t_bar, rep.t_n) == (single_split_oracle(body, f)[2], closure_oracle(body, f, 3))

    def test_report_needs_no_fraction_view(self):
        # a query on a fresh body builds its table from the body's integers
        queries = [
            (Type1Body(), point(F(1, 2), F(1, 3))),
            (Type2Body(F(1, 3), F(5, 2)), point(F(1, 4), F(1, 2))),
            (QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10)), point(F(1, 2), F(1, 3))),
            (Type3Body(F(3), F(3, 10), F(1, 10)), point(F(1, 2), F(1, 3))),
        ]
        reports = [strength_report(body, f, 3) for body, f in queries]
        for (body, f), rep in zip(queries, reports):
            index, split, t_bar = single_split_oracle(body, f)
            assert (rep.region.index, rep.chosen_split_normal, rep.t_bar) == (index, split, t_bar)
            assert rep.t_n == closure_oracle(body, f, 3)

    def test_first_table_is_built(self, monkeypatch):
        # the kept table starts on a sentinel that no argument can be, so
        # the first call checks its body even when that body is None
        monkeypatch.setattr(cuts, "_last_table", (cuts._NO_BODY, None))
        assert outcome(monte_carlo_lower, None, 2, 10) == (TypeError, "body must be a LatticeFreeBody, got None")
        assert cuts._last_table == (cuts._NO_BODY, None)
        region_of(BODY, INSIDE)
        assert cuts._last_table[0] is BODY

    def test_keeps_one_body(self):
        body = Type2Body(F(1, 3), F(5, 2))
        region_of(body, point(F(1, 4), F(1, 2)))
        ref = weakref.ref(body)
        del body
        region_of(Type1Body(), point(F(1, 2), F(1, 2)))
        gc.collect()
        assert ref() is None
        assert isinstance(cuts._last_table[0], Type1Body)
