from fractions import Fraction as F
from math import ceil, floor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutstrength import p_t2_lower, sweeps
from cutstrength.sweeps import DEFAULT_STEP, sweep_grid

from conftest import sweep_grid_oracle


def _span(q, lo, hi, most, offset=0):
    """Ranges ``(offset + k/q, offset + (k + j)/q)`` with ``lo <= k <= hi``
    and ``0 <= j <= most``."""
    return st.tuples(st.integers(lo, hi), st.integers(0, most)).map(
        lambda kj: (offset + F(kj[0], q), offset + F(kj[0] + kj[1], q))
    )


@st.composite
def quad_boxes(draw):
    """Range boxes at step 1/q that may put b1 below a1, b2 below -(a2 - 1)
    and b2 at or above 0; b1 and b2 are sometimes left to their defaults."""
    q = draw(st.integers(2, 12))
    ranges = {"a1": draw(_span(q, 1, q - 1, 2)), "a2": draw(_span(q, 1, q, 2, offset=1))}
    if draw(st.booleans()):
        ranges["b1"] = draw(_span(q, 1, q - 1, 3))
    if draw(st.booleans()):
        ranges["b2"] = draw(_span(q, -2 * q, -1, q + 1))
    return F(1, q), ranges


@st.composite
def t3_boxes(draw):
    q = draw(st.integers(2, 12))
    ranges = {
        "a1": draw(_span(q, 1, 3 * q, 3, offset=1)),
        "a2": draw(_span(q, 1, q - 1, 3)),
        "b1": draw(_span(q, 1, q - 1, 3)),
    }
    return F(1, q), ranges


def _between(lo, hi):
    """Rationals ``k/q`` in ``[lo, hi]`` over a denominator ``q`` of 2 to 12."""
    return st.integers(2, 12).flatmap(lambda q: st.integers(ceil(lo * q), floor(hi * q)).map(lambda k: F(k, q)))


def _off_grid(lo, hi, most):
    """Ranges ``(l, l + d)`` with ``l`` in ``[lo, hi]`` and ``d`` in ``[0, most]``,
    each over its own denominator, so neither end need be on the step's grid."""
    return st.tuples(_between(lo, hi), _between(0, most)).map(lambda ld: (ld[0], ld[0] + ld[1]))


# steps p/q with p from 1 to 3 (2/7, 3/10, ...), at most 1/4
_STEPS = st.integers(5, 16).flatmap(lambda q: st.integers(1, min(3, q // 4)).map(lambda p: F(p, q)))


@st.composite
def off_grid_quad_boxes(draw):
    """Quad range boxes whose ends lie off the step's grid; b1 may start
    below a1, b2 may cross 0, and b1 and b2 are sometimes left to their
    defaults."""
    step = draw(_STEPS)
    ranges = {"a1": draw(_off_grid(F(1, 12), F(3, 4), F(1, 2))), "a2": draw(_off_grid(F(13, 12), F(7, 4), F(1, 2)))}
    if draw(st.booleans()):
        ranges["b1"] = draw(_off_grid(F(0), F(3, 4), F(1, 2)))
    if draw(st.booleans()):
        ranges["b2"] = draw(_off_grid(F(-3, 2), F(0), F(1)))
    return step, ranges


@st.composite
def off_grid_t3_boxes(draw):
    step = draw(_STEPS)
    ranges = {
        "a1": draw(_off_grid(F(13, 12), F(5, 2), F(1))),
        "a2": draw(_off_grid(F(1, 12), F(2, 3), F(1, 2))),
        "b1": draw(_off_grid(F(1, 12), F(1, 2), F(1, 2))),
    }
    return step, ranges


def _triples(rows):
    return [(r.params, r.w, r.bound) for r in rows]


class TestAgainstBruteForce:
    """``sweep_grid`` against trying every tuple of the grid in loop order."""

    @pytest.mark.parametrize("family", ["quad", "t3"])
    def test_default_grid(self, family):
        step = F(1, 10)
        assert _triples(sweep_grid(family, F(2), step=step)) == sweep_grid_oracle(family, F(2), step)

    @pytest.mark.parametrize(
        "step, ranges",
        [
            # b2 crosses 0
            (F(1, 10), {"b2": (F(-1), F(1, 10))}),
            # b2 below -(a2 - 1) and above 0
            (F(1, 8), {"a2": (F(9, 8), F(15, 8)), "b2": (F(-3, 2), F(3, 8))}),
            # b1 range starting below a1
            (F(1, 12), {"a1": (F(1, 3), F(2, 3)), "b1": (F(1, 12), F(1, 2)), "b2": (F(-5, 6), F(-1, 12))}),
            (F(1, 9), {"a2": (F(10, 9), F(13, 9)), "b2": (F(-2, 3), F(0))}),
        ],
    )
    def test_quad_boxes(self, step, ranges):
        assert _triples(sweep_grid("quad", F(2), step=step, ranges=ranges)) == sweep_grid_oracle(
            "quad", F(2), step, ranges
        )

    @settings(max_examples=30, deadline=None)
    @given(quad_boxes())
    def test_quad_drawn_boxes(self, box):
        self._check("quad", *box)

    @settings(max_examples=20, deadline=None)
    @given(t3_boxes())
    def test_t3_drawn_boxes(self, box):
        self._check("t3", *box)

    # every lower end off the step's grid, so the grid's denominator is the
    # lcm of the step's and the ends'
    @settings(max_examples=30, deadline=None)
    @given(off_grid_quad_boxes())
    @example((F(2, 7), {"a1": (F(1, 3), F(3, 4)), "a2": (F(6, 5), F(7, 4)), "b1": (F(1, 4), F(5, 6)), "b2": (F(-4, 5), F(1, 3))}))
    @example((F(3, 10), {"a1": (F(1, 4), F(2, 3)), "a2": (F(7, 6), F(19, 10))}))
    def test_quad_off_grid_boxes(self, box):
        self._check("quad", *box)

    @settings(max_examples=20, deadline=None)
    @given(off_grid_t3_boxes())
    @example((F(2, 7), {"a1": (F(4, 3), F(5, 2)), "a2": (F(1, 5), F(3, 4)), "b1": (F(1, 6), F(2, 3))}))
    @example((F(3, 10), {"a1": (F(5, 4), F(13, 4)), "a2": (F(1, 3), F(5, 6)), "b1": (F(1, 4), F(3, 4))}))
    def test_t3_off_grid_boxes(self, box):
        self._check("t3", *box)

    def _check(self, family, step, ranges):
        expected = sweep_grid_oracle(family, F(5, 2), step, ranges)
        if not expected:
            with pytest.raises(ValueError, match="empty"):
                sweep_grid(family, F(5, 2), step=step, ranges=ranges)
        else:
            assert _triples(sweep_grid(family, F(5, 2), step=step, ranges=ranges)) == expected


class TestT2Sweep:
    def test_matches_direct_formula(self):
        rows = sweep_grid("t2", F(2), step=F(1, 100))
        assert rows
        for row in rows:
            (w,) = row.params
            assert row.w == w
            assert row.bound == p_t2_lower(F(2), w)

    def test_sorted_widest_first(self):
        rows = sweep_grid("t2", F(2))
        widths = [r.w for r in rows]
        assert widths == sorted(widths, reverse=True)

    def test_range_override(self):
        rows = sweep_grid("t2", F(2), step=F(1, 100), ranges={"w": (F(101, 100), F(11, 10))})
        assert all(F(101, 100) <= r.w <= F(11, 10) for r in rows)


class TestQuadSweep:
    def test_bound_rises_as_width_falls(self):
        rows = sweep_grid(
            "quad",
            F(2),
            step=F(1, 10),
            ranges={
                "a1": (F(2, 5), F(2, 5)),
                "b1": (F(2, 5), F(2, 5)),
                "a2": (F(11, 10), F(19, 10)),
                "b2": (F(-1, 10), F(-1, 10)),
            },
        )
        assert len(rows) > 3
        # widest-first ordering means bounds should be nondecreasing down the list
        bounds = [r.bound for r in rows]
        assert bounds == sorted(bounds)
        assert all(0 <= b <= 1 for b in bounds)

    def test_a1_range_leaves_b1_default(self):
        # b1 keeps its own default range [max(a1, step), 1 - step]
        step = F(1, 10)
        ranged = sweep_grid("quad", F(2), step=step, ranges={"a1": (step, step)})
        default = [r for r in sweep_grid("quad", F(2), step=step) if r.params[0] == step]
        assert ranged == default
        assert max(r.params[2] for r in ranged) == F(9, 10)

    def test_invalid_combinations_skipped(self):
        # a grid that includes quads violating -b2 <= a2-1 still sweeps cleanly
        rows = sweep_grid(
            "quad",
            F(2),
            step=F(1, 4),
            ranges={"a1": (F(1, 4), F(3, 4)), "a2": (F(5, 4), F(7, 4)), "b2": (F(-1), F(-1, 4))},
        )
        assert rows


class TestT3Sweep:
    def test_skip_rule(self):
        rows = sweep_grid(
            "t3",
            F(2),
            step=F(1, 5),
            ranges={"a1": (F(6, 5), F(3)), "a2": (F(1, 5), F(4, 5)), "b1": (F(1, 5), F(4, 5))},
        )
        assert rows
        for row in rows:
            a1, a2, b1 = row.params
            assert b1 < a2 / (a1 + a2 - 1)

    def test_box_outside_domain(self):
        # a1 + a2 = 1 at the first (a1, a2), where the limit on b1 has no value
        ranges = {"a1": (F(1, 2), F(1)), "a2": (F(1, 2), F(1, 2))}
        with pytest.raises(ValueError, match="empty"):
            sweep_grid("t3", F(2), step=F(1, 4), ranges=ranges)


class TestSweepValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            sweep_grid("t1", F(2))

    def test_bad_step(self):
        with pytest.raises(ValueError):
            sweep_grid("t2", F(2), step=F(0))

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            sweep_grid("t2", F(2), ranges={"w": (F(3), F(4))})

    @pytest.mark.parametrize(
        "family, z, step, ranges",
        [("t2", F(1), F(5), None), ("quad", F(1, 2), F(1, 5), {"b2": (F(1), F(2))})],
    )
    def test_threshold_checked_before_the_grid(self, family, z, step, ranges):
        # both grids are empty, and would report that instead
        with pytest.raises(ValueError, match=f"threshold must satisfy z > 1, got {z}$"):
            sweep_grid(family, z, step=step, ranges=ranges)

    @pytest.mark.parametrize(
        "family, key", [("t2", "foo"), ("t3", "w"), ("t2", "a1"), ("quad", "w"), ("t3", "b2")]
    )
    def test_unknown_range_parameter(self, family, key):
        with pytest.raises(ValueError, match=f"'{key}'.*{family}"):
            sweep_grid(family, F(2), ranges={key: (F(1, 2), F(1, 2))})

    def test_zero_mc_samples_rejected(self):
        with pytest.raises(ValueError, match="samples"):
            sweep_grid("t2", F(2), step=F(1, 4), mc_samples=0)

    def test_mc_attachment(self):
        rows = sweep_grid(
            "t2", F(2), step=F(1, 4), ranges={"w": (F(5, 4), F(7, 4))}, mc_samples=20_000, seed=1
        )
        for row in rows:
            assert row.mc is not None
            assert row.mc.samples == 20_000
            assert abs(row.mc.estimate - float(row.bound)) <= 4 * max(row.mc.std_error, 1e-3)

    def test_default_step(self):
        assert DEFAULT_STEP == F(1, 50)


class TestTracedNames:
    """The benchmark's tracer (``bench/tracing.py``) replaces these names of
    ``sweeps`` with wrapper functions while a traced run lasts."""

    NAMES = ("QuadBody", "Type3Body", "lattice_width", "quad_lower", "t3_lower")

    def test_names_bound(self):
        for name in self.NAMES:
            assert callable(getattr(sweeps, name))

    @pytest.mark.parametrize("family", ["quad", "t3"])
    def test_wrapped_names_give_the_same_rows(self, monkeypatch, family):
        expected = sweep_grid(family, F(2), step=F(1, 10))
        calls = {name: 0 for name in self.NAMES}
        for name in self.NAMES:
            original = getattr(sweeps, name)

            def wrapper(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(sweeps, name, wrapper)
        assert sweep_grid(family, F(2), step=F(1, 10)) == expected
        # the bounds and the type 3 width go through the wrapped names; a
        # quad's width is read off the grid
        assert calls[f"{family}_lower"] == len(expected)
        assert calls["lattice_width"] == (len(expected) if family == "t3" else 0)
