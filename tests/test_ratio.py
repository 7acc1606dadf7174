"""``geometry._ratio``, the one maker of an exact result from its ints: it
is ``Fraction(n, d)`` in every way a caller can see, the hot paths reach it
and not ``Fraction``'s Python constructor, and every result it makes is in
lowest terms (an unreduced Fraction would break ``==`` and ``hash``)."""

import copy
import pickle
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutstrength import (
    QuadBody,
    Type3Body,
    admissible_normals,
    area,
    corner_rays,
    covering_lp_min,
    lattice_width,
    piecewise_bound_for,
    point,
    split_coefficients,
    strength_report,
    strength_single_split,
    strength_split_closure_approx,
    sweep_grid,
)
from cutstrength.geometry import _ratio

from conftest import BOUNDARY_BODIES, any_body, root_vertex

BIG = 2**200

# ints of every size: zero, +-1, small and past 2^200
ints = st.one_of(
    st.sampled_from((0, 1, -1, BIG, -BIG, BIG + 1, -BIG - 1)),
    st.integers(-12, 12),
    st.integers(-(10**9), 10**9),
    st.integers(-(2**260), 2**260),
)
nonzero = ints.filter(bool)


def same(got, want) -> None:
    """``got`` is ``want`` to any caller: type, value, hash, text and parts."""
    assert type(got) is F
    assert got == want and hash(got) == hash(want)
    assert (str(got), repr(got)) == (str(want), repr(want))
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got.as_integer_ratio() == want.as_integer_ratio()


def reduced(x) -> bool:
    """Whether ``x`` is a Fraction with a positive denominator coprime to its numerator."""
    return type(x) is F and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


class TestRatio:
    @settings(max_examples=400, deadline=None)
    @given(ints, nonzero, ints, nonzero)
    @example(0, -5, 3, -6)  # zero over a negative denominator
    @example(-BIG, -(2 * BIG), 1, -1)
    @example(6 * BIG, 4 * BIG, -BIG, 3)
    def test_is_fraction(self, n, d, n2, d2):
        got, want = _ratio(n, d), F(n, d)
        same(got, want)
        other = F(n2, d2)
        for x in (other, n2):
            assert [got < x, got <= x, got > x, got >= x, got == x, got != x] == [
                want < x, want <= x, want > x, want >= x, want == x, want != x
            ]
            pairs = [(got + x, want + x), (got - x, want - x), (x - got, x - want), (got * x, want * x)]
            if x:
                pairs.append((got / x, want / x))
            if got:
                pairs.append((x / got, x / want))
            for a, b in pairs:
                same(a, b)
        same(-got, -want)
        same(abs(got), abs(want))
        assert float(got) == float(want)
        same(pickle.loads(pickle.dumps(got)), want)
        same(copy.deepcopy(got), want)
        same(copy.copy(got), want)

    @given(ints)
    @example(0)
    @example(-1)
    def test_zero_denominator(self, n):
        with pytest.raises(ZeroDivisionError) as want:
            F(n, 0)
        with pytest.raises(ZeroDivisionError) as got:
            _ratio(n, 0)
        assert str(got.value) == str(want.value)


@pytest.fixture
def fraction_news(monkeypatch):
    """The argument tuples of every ``Fraction(...)`` call from here on."""
    calls = []
    original = F.__new__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counted))
    return calls


class TestOffFractionNew:
    """No hot path runs ``Fraction``'s Python constructor."""

    def test_counter_sees_the_constructor(self, fraction_news):
        # else an empty count below would pass whether or not a path calls it
        F(3, 6)
        assert fraction_news == [(3, 6)]

    @pytest.mark.parametrize("body", BOUNDARY_BODIES, ids=repr)
    def test_t_bar_and_t_n(self, body, fraction_news):
        v = body.vertices()
        f = point((v[0].x1 + v[1].x1 + v[2].x1) / 3, (v[0].x2 + v[1].x2 + v[2].x2) / 3)
        strength_single_split(body, f)  # a warm body: its table is built
        fraction_news.clear()
        report = strength_single_split(body, f)
        t_n = strength_split_closure_approx(body, f, 3)
        assert fraction_news == []
        assert reduced(report.t_bar) and reduced(t_n)

    @pytest.mark.parametrize("body", [b for b in BOUNDARY_BODIES if type(b) in (QuadBody, Type3Body)], ids=repr)
    def test_bound_and_width(self, body, fraction_news):
        pb, zs = piecewise_bound_for(body), [F(3, 2), F(2), F(7, 3), F(20)]
        fraction_news.clear()
        values = [pb(z) for z in zs]
        width = lattice_width(body)
        assert fraction_news == []
        assert all(map(reduced, values)) and reduced(width)


class TestReducedResults:
    """Every exact result that the package makes from its ints is in lowest
    terms with a positive denominator."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_body_results(self, data):
        body = data.draw(any_body())
        f = data.draw(root_vertex(body))
        report = strength_report(body, f, 3)
        assert reduced(report.t_bar) and reduced(report.t_n)
        pb = piecewise_bound_for(body)
        z = data.draw(st.fractions(F(11, 10), 20, max_denominator=97))
        assert reduced(pb(z))
        assert all(map(reduced, pb.breakpoints))
        assert reduced(lattice_width(body)) and reduced(area(body))
        rays = corner_rays(body, f)
        for p in body.vertices() + rays:
            assert reduced(p.x1) and reduced(p.x2)
        for normal in admissible_normals(f, 2):
            assert all(map(reduced, split_coefficients(normal, f, rays).coefficients))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_covering_lp(self, data):
        k = data.draw(st.integers(1, 4))
        entry = st.fractions(0, 5, max_denominator=12)
        rows = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k).filter(any), min_size=1, max_size=5))
        value, argmin = covering_lp_min(rows, k)
        assert reduced(value) and all(map(reduced, argmin))

    @pytest.mark.parametrize("family", ["t2", "quad", "t3"])
    def test_grid_rows(self, family):
        rows = sweep_grid(family, F(5, 2), step=F(1, 6))
        assert rows
        for row in rows:
            assert all(map(reduced, (*row.params, row.w, row.bound)))
