import random
from bisect import bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cutstrength import (
    PiecewiseBound,
    QuadBody,
    Type1Body,
    Type2Body,
    Type3Body,
    area,
    bound_for,
    lattice_width,
    p_t1,
    p_t2_lower,
    piecewise_bound_for,
    point,
    quad_lower,
    special_values,
    t2_bound,
    t3_lower,
)
from cutstrength.bounds import _const

from conftest import (
    _ratio_of,
    any_body,
    bound_oracle,
    indicator_area,
    pieces_oracle,
    quad_params,
    region_polygons,
    strength_specs,
    t2_region_integrals,
    t3_params,
)


QUAD_PARAMS = [
    (F(2, 5), F(3, 2), F(3, 5), F(-3, 10)),
    (F(1, 4), F(3, 2), F(1, 2), F(-1, 4)),
    (F(1, 3), F(6, 5), F(2, 3), F(-1, 10)),
    (F(1, 2), F(7, 4), F(1, 2), F(-1, 8)),
]

T3_PARAMS = [
    (F(3), F(3, 10), F(1, 10)),
    (F(5, 2), F(1, 2), F(1, 5)),
    (F(4), F(2, 3), F(1, 20)),
    (F(2), F(3, 4), F(1, 4)),
]

T2_PARAMS = [
    (F(1, 2), F(3, 2)),
    (F(1, 3), F(5, 3)),
    (F(2, 5), F(5, 2)),
    (F(1, 5), F(2)),
]


def z_grid(body, count=48):
    """Rational z values spread over and past the bound's active window."""
    w = lattice_width(body)
    hi = max(10, int(2 * (w / (w - 1))) + 2)
    lo = F(101, 100)
    out = []
    for i in range(count):
        out.append(lo + (hi - lo) * F(2 * i + 1, 2 * count))
    return out


def oracle_lower(body, z):
    """Exact area fraction where the single-split strength is at most z,
    computed by clipping each region with its linear-fractional sublevel set."""
    total = F(0)
    for poly, spec in zip(region_polygons(body), strength_specs(body)):
        total += indicator_area(poly, spec, z)
    return total / area(body)


class TestT1:
    def test_piece_values(self):
        assert p_t1(F(3, 2)) == 0
        assert p_t1(F(2)) == 1
        assert p_t1(F(7, 4)) == F(1, 3)

    def test_middle_formula(self):
        for z in (F(8, 5), F(9, 5), F(19, 10)):
            assert p_t1(z) == F(3, 4) * ((2 * z - 3) / (z - 1)) ** 2

    def test_continuous_at_lower_breakpoint_only(self):
        eps = F(1, 10**9)
        assert p_t1(F(3, 2) + eps) - p_t1(F(3, 2)) < F(1, 1000)
        # the probability genuinely jumps to 1 at z = 2 (a positive-area
        # region attains the top strength exactly)
        assert p_t1(F(2) - eps) < 1 == p_t1(F(2))

    def test_rejects_z_at_most_one(self):
        with pytest.raises(ValueError):
            p_t1(F(1))


class TestT2:
    def test_special_values_examples(self):
        assert special_values(F(11, 10)) == (F(4, 121), F(112, 121))
        assert special_values(F(3, 2)) == (F(4, 9), F(0))
        assert special_values(F(2)) == (F(1), F(0))
        with pytest.raises(ValueError):
            special_values(F(1))

    def test_special_values_closed_forms(self):
        # 1 - bound(2) = 4 (w - 1)^2 / w^2, and bound(3/2) = (3 - 2w)(4w - 3) / w^2
        # below w = 3/2 and 0 from there on
        for i in range(1, 101):
            w = 1 + F(i, 100)
            upper_z2 = 4 * (w - 1) ** 2 / w**2
            lower_z32 = (3 - 2 * w) * (4 * w - 3) / w**2 if w < F(3, 2) else F(0)
            bound = t2_bound(w)
            assert special_values(w) == (1 - bound(2), bound(F(3, 2))) == (upper_z2, lower_z32)

    def test_examples(self):
        assert p_t2_lower(F(2), F(11, 10)) == F(117, 121)
        assert p_t2_lower(F(3, 2), F(11, 10)) == F(112, 121)
        assert p_t2_lower(F(7, 4), F(3, 2)) == F(32, 81)

    def test_z2_identity(self):
        for i in range(1, 100):
            w = 1 + F(i, 100)
            assert 1 - p_t2_lower(F(2), w) == 4 * (w - 1) ** 2 / w**2

    def test_region_integral_examples(self):
        a = point(F(1, 2), F(3, 2))
        assert t2_region_integrals(a, F(7, 4)) == (F(1, 3), F(5, 9), F(0))
        assert t2_region_integrals(a, F(5, 4)) == (F(0), F(0), F(0))

    def test_region_integrals_sum_to_bound(self):
        for a1, a2 in T2_PARAMS:
            body = Type2Body(a1, a2)
            w = lattice_width(body)
            for z in z_grid(body, 24):
                parts = t2_region_integrals(point(a1, a2), z)
                assert sum(parts) / area(body) == p_t2_lower(z, w)

    def test_matches_clipping_oracle(self):
        for a1, a2 in T2_PARAMS:
            body = Type2Body(a1, a2)
            w = lattice_width(body)
            for z in z_grid(body):
                assert p_t2_lower(z, w) == oracle_lower(body, z)

    def test_normalization_limit(self):
        for i in range(1, 100):
            w = 1 + F(i, 100)
            assert p_t2_lower(10**6, w) > 1 - F(1, 10**4)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            p_t2_lower(F(2), F(5, 2))
        with pytest.raises(ValueError):
            p_t2_lower(F(1, 2), F(3, 2))


class TestQuad:
    def test_zero_below_width(self):
        body = QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10))
        assert quad_lower(body, F(9, 5)) == 0
        assert quad_lower(body, F(3, 2)) == 0

    def test_regression_value(self):
        body = QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10))
        assert quad_lower(body, F(5, 2)) == F(77579, 151734)

    def test_corollary_reduces_to_t2(self):
        rng = random.Random(31)
        for a1, a2, _, b2 in QUAD_PARAMS:
            body = QuadBody(a1, a2, a1, b2)
            w = body.a2 - body.b2
            for _ in range(20):
                z = 1 + F(rng.randint(2, 400), 100)
                assert quad_lower(body, z) == p_t2_lower(z, w)

    def test_matches_clipping_oracle(self):
        for params in QUAD_PARAMS:
            body = QuadBody(*params)
            for z in z_grid(body):
                assert quad_lower(body, z) == oracle_lower(body, z)


class TestT3:
    def test_zero_below_width(self):
        for params in T3_PARAMS:
            body = Type3Body(*params)
            w = lattice_width(body)
            assert t3_lower(body, w - F(1, 100)) == 0

    def test_regression_value(self):
        body = Type3Body(F(3), F(3, 10), F(1, 10))
        assert t3_lower(body, F(3)) == F(591505, 696348)

    def test_matches_clipping_oracle(self):
        for params in T3_PARAMS:
            body = Type3Body(*params)
            for z in z_grid(body):
                assert t3_lower(body, z) == oracle_lower(body, z)


class TestPiecewiseStructure:
    def bodies(self):
        out = [Type1Body()]
        out += [Type2Body(*p) for p in T2_PARAMS]
        out += [QuadBody(*p) for p in QUAD_PARAMS]
        out += [Type3Body(*p) for p in T3_PARAMS]
        return out

    def test_breakpoints_sorted_and_continuous(self):
        eps = F(1, 10**12)
        for body in self.bodies():
            pb = piecewise_bound_for(body)
            assert list(pb.breakpoints) == sorted(pb.breakpoints)
            for b in pb.breakpoints:
                if b <= 1:
                    continue
                if isinstance(body, Type1Body) and b == 2:
                    continue  # genuine jump: the top strength is attained
                gap = pb(b) - pb(b - eps)
                assert abs(gap) < F(1, 10**6)

    def test_monotone_and_in_range(self):
        for body in self.bodies():
            pb = piecewise_bound_for(body)
            prev = None
            for z in z_grid(body, 200):
                val = pb(z)
                assert 0 <= val <= 1
                if prev is not None:
                    assert val >= prev
                prev = val

    def test_bound_for_dispatch(self):
        assert bound_for(Type1Body(), F(7, 4)) == F(1, 3)
        assert bound_for(Type2Body(F(1, 2), F(3, 2)), F(7, 4)) == F(32, 81)
        q = QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10))
        assert bound_for(q, F(5, 2)) == quad_lower(q, F(5, 2))
        t3 = Type3Body(F(3), F(3, 10), F(1, 10))
        assert bound_for(t3, F(3)) == t3_lower(t3, F(3))


class TestWholeDomain:
    # the clipping oracle describes no type 1 regions; type 1's exact
    # probability has its own tests above
    @settings(max_examples=60, deadline=None)
    @given(
        any_body().filter(lambda body: not isinstance(body, Type1Body)),
        st.lists(st.fractions(F(11, 10), 20, max_denominator=97), min_size=1, max_size=3),
    )
    def test_matches_clipping_oracle(self, body, drawn):
        pb = piecewise_bound_for(body)
        for z in [b for b in pb.breakpoints if b > 1] + drawn:
            assert pb(z) == oracle_lower(body, z)


@st.composite
def quad_or_t3_body(draw):
    """A quad or type 3 body from :func:`any_body`, or from the parameter
    draws of the constructor tests with their width-tie families."""
    source = draw(st.sampled_from(("any", QuadBody, Type3Body)))
    if source == "any":
        body = draw(any_body())
        assume(isinstance(body, (QuadBody, Type3Body)))
        return body
    params = draw(quad_params() if source is QuadBody else t3_params())
    try:
        return source(*params)
    except ValueError:
        assume(False)


def _fractions(pairs):
    return [F(n, d) for n, d in pairs]


class TestIntegerFrame:
    """Every piece is a closed form over integers, the quad and type 3 ones
    over the body's integer frame, and a bound picks its pieces by
    cross-multiplying; the Fraction derivation and the clipping oracle must
    agree with them at every break, where the choice between pieces is
    decided, and at drawn z."""

    @settings(max_examples=120, deadline=None)
    @given(
        quad_or_t3_body(),
        st.lists(st.fractions(F(11, 10), 20, max_denominator=97), min_size=1, max_size=3),
    )
    @example(QuadBody(F(1, 2), F(3, 2), F(1, 2), F(-1, 2)), [F(2)])  # a width tie
    @example(Type3Body(F(4, 3), F(1, 3), F(1, 3)), [F(2)])  # all three width candidates tie
    def test_matches_fraction_and_clipping_oracles(self, body, drawn):
        pb = piecewise_bound_for(body)
        breaks, _, scale = pieces_oracle(body)
        assert [_fractions(term_breaks) for term_breaks, _ in pb.terms] == [list(b) for b in breaks]
        assert pb.scale[1] > 0
        assert F(*pb.scale) == scale
        for z in [b for b in pb.breakpoints if b > 1] + drawn:
            assert pb(z) == bound_oracle(body, z) == oracle_lower(body, z)

    @settings(max_examples=120, deadline=None)
    @given(
        st.one_of(any_body(), quad_or_t3_body()),
        st.lists(st.fractions(F(11, 10), 20, max_denominator=97), min_size=1, max_size=3),
    )
    @example(Type1Body(), [F(7, 4)])
    @example(Type2Body(F(1, 5), F(2)), [F(3, 2)])  # w = 2: the type 2 breaks coincide
    @example(QuadBody(F(1, 2), F(3, 2), F(1, 2), F(-1, 2)), [F(2)])
    @example(Type3Body(F(4, 3), F(1, 3), F(1, 3)), [F(2)])
    def test_every_piece_matches_its_oracle_piece(self, body, drawn):
        # every piece at every z, not only where it is picked, so that a slip
        # in a piece that few bodies or thresholds pick still shows
        pb = piecewise_bound_for(body)
        _, fns, _ = pieces_oracle(body)
        assert [len(pieces) for _, pieces in pb.terms] == [len(pieces) for pieces in fns]
        for z in [b for b in pb.breakpoints if b > 1] + drawn:
            for (_, pieces), oracle_pieces in zip(pb.terms, fns):
                for piece, oracle_piece in zip(pieces, oracle_pieces):
                    value = oracle_piece(_ratio_of(z))
                    assert F(*piece(z.numerator, z.denominator)) == F(value.numerator, value.denominator)

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(any_body(), quad_or_t3_body()),
        st.lists(st.fractions(F(11, 10), 20, max_denominator=97), min_size=1, max_size=3),
    )
    def test_selection_is_bisect_right(self, body, drawn):
        # the bounds are continuous at most breaks, so their values cannot
        # tell which piece a break picks; constant pieces 0, 1, ... can
        for breaks, _ in piecewise_bound_for(body).terms:
            ordered = _fractions(breaks)
            # counting the breaks at or below z is bisect_right only on ordered breaks
            assert all(d > 0 for _, d in breaks)
            assert ordered == sorted(ordered)
            probe = PiecewiseBound(((breaks, tuple(_const(i) for i in range(len(breaks) + 1))),))
            for z in [b for b in ordered if b > 1] + drawn:
                assert probe(z) == bisect_right(ordered, z)
