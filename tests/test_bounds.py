import hashlib
import random
from bisect import bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cutstrength import bounds
from cutstrength import (
    PiecewiseBound,
    QuadBody,
    Type1Body,
    Type2Body,
    Type3Body,
    area,
    bound_for,
    lattice_width,
    piecewise_bound_for,
    point,
    quad_bound,
    quad_lower,
    sweep_grid,
    t1_bound,
    t2_bound,
    t3_bound,
    t3_lower,
)

from conftest import (
    BOUNDARY_BODIES,
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
        assert t1_bound()(F(3, 2)) == 0
        assert t1_bound()(F(2)) == 1
        assert t1_bound()(F(7, 4)) == F(1, 3)

    def test_middle_formula(self):
        for z in (F(8, 5), F(9, 5), F(19, 10)):
            assert t1_bound()(z) == F(3, 4) * ((2 * z - 3) / (z - 1)) ** 2

    def test_continuous_at_lower_breakpoint_only(self):
        eps = F(1, 10**9)
        assert t1_bound()(F(3, 2) + eps) - t1_bound()(F(3, 2)) < F(1, 1000)
        # the probability genuinely jumps to 1 at z = 2 (a positive-area
        # region attains the top strength exactly)
        assert t1_bound()(F(2) - eps) < 1 == t1_bound()(F(2))

    def test_rejects_z_at_most_one(self):
        with pytest.raises(ValueError):
            t1_bound()(F(1))


class TestT2:
    def test_special_values_examples(self):
        # (upper bound on 1 - P(2), lower bound on P(3/2)) at width w
        for w, values in [(F(11, 10), (F(4, 121), F(112, 121))), (F(3, 2), (F(4, 9), F(0))), (F(2), (F(1), F(0)))]:
            assert (1 - t2_bound(w)(2), t2_bound(w)(F(3, 2))) == values
        with pytest.raises(ValueError):
            t2_bound(F(1))

    def test_special_values_closed_forms(self):
        # 1 - bound(2) = 4 (w - 1)^2 / w^2, and bound(3/2) = (3 - 2w)(4w - 3) / w^2
        # below w = 3/2 and 0 from there on
        for i in range(1, 101):
            w = 1 + F(i, 100)
            upper_z2 = 4 * (w - 1) ** 2 / w**2
            lower_z32 = (3 - 2 * w) * (4 * w - 3) / w**2 if w < F(3, 2) else F(0)
            bound = t2_bound(w)
            assert (1 - bound(2), bound(F(3, 2))) == (upper_z2, lower_z32)

    def test_examples(self):
        assert t2_bound(F(11, 10))(F(2)) == F(117, 121)
        assert t2_bound(F(11, 10))(F(3, 2)) == F(112, 121)
        assert t2_bound(F(3, 2))(F(7, 4)) == F(32, 81)

    def test_z2_identity(self):
        for i in range(1, 100):
            w = 1 + F(i, 100)
            assert 1 - t2_bound(w)(F(2)) == 4 * (w - 1) ** 2 / w**2

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
                assert sum(parts) / area(body) == t2_bound(w)(z)

    def test_matches_clipping_oracle(self):
        for a1, a2 in T2_PARAMS:
            body = Type2Body(a1, a2)
            w = lattice_width(body)
            for z in z_grid(body):
                assert t2_bound(w)(z) == oracle_lower(body, z)

    def test_normalization_limit(self):
        for i in range(1, 100):
            w = 1 + F(i, 100)
            assert t2_bound(w)(10**6) > 1 - F(1, 10**4)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            t2_bound(F(5, 2))(F(2))
        with pytest.raises(ValueError):
            t2_bound(F(3, 2))(F(1, 2))


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
                assert quad_lower(body, z) == t2_bound(w)(z)

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


def _roots(term):
    """A term's breaks: the roots ``z = (a - b) / a`` of its steps'
    selectors, in step order."""
    return [F(a - b, a) for (a, b), *_ in term[1]]


def _pieces(term, z):
    """A term's pieces at ``z``: 0, then the sums of its first 1, 2, ...
    steps, each step's value taken whatever the sign of its selector."""
    q = z.denominator
    m = z.numerator - q
    out = [F(0)]
    den, steps = term
    for _, k, (a1, b1), (a2, b2) in steps:
        out.append(out[-1] + F(k * (a1 * m + b1 * q) * (a2 * m + b2 * q), den * m * m))
    return out


class TestIntegerFrame:
    """Every step is a closed form over integers, the quad and type 3 ones
    over the body's integer frame, and a bound switches its steps on by the
    signs of linear forms; the Fraction derivation and the clipping oracle
    must agree with them at every break, where the choice between pieces is
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
        assert [_roots(term) for term in pb.terms] == [list(b) for b in breaks]
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

        def pieces(term, z):
            out = _pieces(term, z)
            if isinstance(body, Type1Body):
                # the last two type 1 steps share the root 2, where the
                # middle piece jumps to 1: the sum between them is never
                # picked, and the oracle has no such piece
                del out[2]
            return out

        assert [len(pieces(term, F(2))) for term in pb.terms] == [len(pieces) for pieces in fns]
        for z in [b for b in pb.breakpoints if b > 1] + drawn:
            for term, oracle_pieces in zip(pb.terms, fns):
                for value, oracle_piece in zip(pieces(term, z), oracle_pieces):
                    oracle = oracle_piece(_ratio_of(z))
                    assert value == F(oracle.numerator, oracle.denominator)

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(any_body(), quad_or_t3_body()),
        st.lists(st.fractions(F(11, 10), 20, max_denominator=97), min_size=1, max_size=3),
    )
    def test_selection_is_bisect_right(self, body, drawn):
        # the bounds are continuous at most breaks, so their values cannot
        # tell which piece a break picks; steps that each add 1 can
        for term in piecewise_bound_for(body).terms:
            ordered = _roots(term)
            # a selector with a > 0 is non-negative exactly at z >= its root,
            # and counting the roots at or below z is bisect_right only on
            # ordered roots
            assert all(a > 0 for (a, _), *_ in term[1])
            assert ordered == sorted(ordered)
            probe = PiecewiseBound(((1, tuple((sel, 1, (1, 0), (1, 0)) for sel, *_ in term[1])),))
            for z in [b for b in ordered if b > 1] + drawn:
                assert probe(z) == bisect_right(ordered, z)

    @settings(max_examples=100, deadline=None)
    @given(
        st.one_of(any_body(), quad_or_t3_body()),
        st.lists(st.integers(1, 6), min_size=4, max_size=4),
        st.lists(st.fractions(F(11, 10), 20, max_denominator=97), min_size=1, max_size=3),
    )
    @example(QuadBody(F(1, 2), F(3, 2), F(1, 2), F(-1, 2)), [1, 2, 3, 4], [F(7, 2)])
    @example(Type1Body(), [2, 1, 3, 1], [F(7, 4), F(3)])
    def test_steps_over_their_own_dens(self, body, factors, drawn):
        # terms are public, so each term built by hand may have its own den;
        # a term whose den and every step's k are scaled by one factor adds
        # the same value
        pb = piecewise_bound_for(body)
        terms = tuple((d * f, tuple((sel, k * f, l1, l2) for sel, k, l1, l2 in steps))
                      for (d, steps), f in zip(pb.terms, factors))
        for z in [b for b in pb.breakpoints if b > 1] + drawn:
            assert PiecewiseBound(terms, pb.scale)(z) == pb(z)


class TestTermContinuity:
    """Every type 2, quad and type 3 term is 0, then a trapezoid that
    vanishes at its first break, then that trapezoid plus a part that
    vanishes at its second break: so its pieces meet exactly at both."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(any_body(), quad_or_t3_body()).filter(lambda body: not isinstance(body, Type1Body)))
    @example(Type2Body(F(1, 5), F(2)))  # w = 2: the type 2 breaks coincide
    @example(QuadBody(F(1, 2), F(3, 2), F(1, 2), F(-1, 2)))  # a width tie
    @example(Type3Body(F(4, 3), F(1, 3), F(1, 3)))  # all three width candidates tie
    def test_pieces_meet_exactly_at_their_breaks(self, body):
        for term in piecewise_bound_for(body).terms:
            first, second = _roots(term)
            assert 1 < first <= second
            at_first, at_second = _pieces(term, first), _pieces(term, second)
            assert at_first[0] == at_first[1] == 0
            assert at_second[1] == at_second[2]


class TestSelectorFirst:
    """A quad or type 3 bound runs no maker when it is built; each call runs
    exactly the makers whose first selector is on at its z, stores nothing,
    and gives the value that the generic step loop gives on the bound's terms
    rebuilt by hand."""

    # each maker of a family and the index of the first term it makes
    MAKERS = {
        QuadBody: (("_quad_x2_terms", 0), ("_quad_x1_terms", 2)),
        Type3Body: (("_t3_x2_term", 0), ("_t3_x1_term", 1), ("_t3_diagonal_term", 2)),
    }

    @settings(max_examples=100, deadline=None)
    @given(quad_or_t3_body(), st.lists(st.fractions(F(11, 10), 20, max_denominator=97), min_size=1, max_size=4))
    @example(QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10)), [F(2)])  # regions 3 and 4 stay off
    @example(Type3Body(F(4, 3), F(1, 3), F(1, 3)), [F(2), F(3, 2)])
    def test_makers_run_on_each_switched_on_call(self, body, drawn):
        made = []
        with pytest.MonkeyPatch.context() as mp:
            for name, _ in self.MAKERS[type(body)]:
                make = getattr(bounds, name)
                mp.setattr(bounds, name, lambda *args, _make=make, _name=name: made.append(_name) or _make(*args))
            pb = piecewise_bound_for(body)
        assert made == []
        parts = list(pb._parts)
        fresh = PiecewiseBound(piecewise_bound_for(body).terms, pb.scale)
        for z in drawn + drawn:  # a second pass runs them again: nothing was kept
            made.clear()
            assert pb(z) == fresh(z)
            assert sorted(made) == sorted(name for name, i in self.MAKERS[type(body)] if _roots(fresh.terms[i])[0] <= z)
            assert list(pb._parts) == parts
        assert (pb.terms, pb.scale) == (fresh.terms, fresh.scale)


class TestMakerForms:
    """Each quad and type 3 maker writes its region's term once, as a
    two-step tuple that the bound's two-step evaluator adds up; a bound
    rebuilt by hand from the steps that ``terms`` spells out, which the
    generic step loop evaluates, must agree with it at every break, where a
    step switches on, past the last break, where every step is on, and at
    drawn z."""

    @settings(max_examples=150, deadline=None)
    @given(quad_or_t3_body(), st.lists(st.fractions(F(11, 10), 20, max_denominator=97), min_size=1, max_size=4))
    @example(QuadBody(F(1, 2), F(3, 2), F(1, 2), F(-1, 2)), [F(2)])  # a width tie
    @example(QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10)), [F(3)])
    @example(Type3Body(F(4, 3), F(1, 3), F(1, 3)), [F(2)])  # all three width candidates tie
    @example(Type3Body(F(2), F(3, 4), F(1, 4)), [F(3)])
    def test_values_match_steps(self, body, drawn):
        pb = piecewise_bound_for(body)
        by_hand = PiecewiseBound(pb.terms, pb.scale)
        breaks = [b for b in pb.breakpoints if b > 1]
        for z in breaks + [max(breaks) + 1] + drawn:
            assert by_hand(z) == pb(z)


class TestPublicData:
    """The public data of 2,682 bounds, byte for byte: each bound's terms,
    breaks and scale, and its values at three thresholds, for every quad and
    type 3 body of the step-1/12 sweeps, the type 2 widths k/12 for k = 13 to
    24, and type 1."""

    DIGEST = "0396586f86bd8aef838096226e99e9975aaf5760072ef1a1fd45508d5f6d4bf4"

    def test_digest(self):
        step = F(1, 12)
        pbs = [quad_bound(QuadBody(*row.params)) for row in sweep_grid("quad", 2, step=step)]
        pbs += [t3_bound(Type3Body(*row.params)) for row in sweep_grid("t3", 2, step=step)]
        pbs += [t2_bound(F(k, 12)) for k in range(13, 25)] + [t1_bound()]
        assert len(pbs) == 2682
        digest = hashlib.sha256()
        for pb in pbs:
            digest.update(repr((pb.terms, pb.breakpoints, pb.scale, pb(3), pb(F(7, 3)), pb(20))).encode())
        assert digest.hexdigest() == self.DIGEST


class TestFamilyBuild:
    """Every family bound is built from its builder's own data by the
    unchecked constructor; the shape check of ``PiecewiseBound.__init__`` is
    for terms built by hand, and a bound rebuilt that way is the same."""

    @staticmethod
    def family_bounds():
        return [t1_bound()] + [t2_bound(w) for w in (F(5, 4), F(3, 2), F(2))] + [
            piecewise_bound_for(body) for body in BOUNDARY_BODIES
        ]

    def test_built_without_the_check(self, monkeypatch):
        def checked(*args, **kwargs):
            raise AssertionError("a family bound went through PiecewiseBound.__init__")

        monkeypatch.setattr(PiecewiseBound, "__init__", checked)
        built = self.family_bounds()
        monkeypatch.undo()
        assert len(built) == 4 + len(BOUNDARY_BODIES)
        for pb in built:
            assert pb == PiecewiseBound(pb.terms, pb.scale)
