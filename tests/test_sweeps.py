import io
import json
import re
from contextlib import redirect_stdout
from fractions import Fraction as F
from math import ceil, floor, isqrt
from time import perf_counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutstrength import cli, geometry, sweeps, t2_bound
from cutstrength.descriptors import format_rational
from cutstrength.sweeps import DEFAULT_STEP, GridRow, sweep_grid

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


@st.composite
def t2_boxes(draw):
    """Width ranges at step 1/q, which reach w = 2 and below w = 1 at times,
    or off the step's grid."""
    if draw(st.booleans()):
        q = draw(st.integers(2, 12))
        return F(1, q), {"w": draw(_span(q, q // 2, 2 * q, q))}
    return draw(_STEPS), {"w": draw(_off_grid(F(1, 2), F(2), F(1)))}


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
            assert row.bound == t2_bound(w)(F(2))

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

    @pytest.mark.parametrize(
        "ranges, error, message",
        [
            ({"a1": "x"}, ValueError, "range 'a1' must be a (lo, hi) pair, got 'x'"),
            ({"a1": ("1/2",)}, ValueError, "range 'a1' must be a (lo, hi) pair, got ('1/2',)"),
            ({"a1": None}, ValueError, "range 'a1' must be a (lo, hi) pair, got None"),
            (["a1"], TypeError, "ranges must be a mapping of parameter names to (lo, hi) pairs, got ['a1']"),
        ],
    )
    def test_malformed_ranges(self, ranges, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            sweep_grid("quad", F(2), ranges=ranges)

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


class TestGridRow:
    def test_record_fields(self):
        assert GridRow._fields == ("params", "w", "z", "bound", "mc")
        assert GridRow._field_defaults == {"mc": None}

    def test_record_is_an_immutable_tuple(self):
        row, sampled = sweep_grid("t2", F(2), step=F(1, 4))[0], sweep_grid("t2", F(2), step=F(1, 4), mc_samples=10)[0]
        assert type(row) is type(sampled) is GridRow
        params, w, z, bound, mc = row
        assert row == (params, w, z, bound, None) == GridRow(params, w, z, bound) and mc is None
        for name in GridRow._fields:
            with pytest.raises(AttributeError):
                setattr(row, name, None)
        assert {row: 1}[GridRow(params, w, z, bound)] == 1 and hash(sampled) == hash(tuple(sampled))
        assert row._replace(mc=sampled.mc) == sampled and sampled.mc is not None


class TestQuadRowOrder:
    """Quad rows come in the order of a stable sort on w, widest first, of the
    rows in the order they are made."""

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(quad_boxes(), off_grid_quad_boxes()))
    @example((F(1, 10), {}))
    @example((F(1, 8), {"a2": (F(9, 8), F(15, 8)), "b2": (F(-3, 2), F(3, 8))}))
    def test_stable_sort_of_the_rows_as_made(self, box):
        step, ranges = box
        made, make = [], sweeps._row
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sweeps, "_row", lambda *args: made.append(make(*args)) or made[-1])
            try:
                rows = sweep_grid("quad", F(2), step=step, ranges=ranges)
            except ValueError:
                assert not made
                return
        assert rows == sorted(made, key=lambda r: (float(r.w), r.w), reverse=True)


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


class TestWideRanges:
    """Each range is cut, on its grid, to where a body can exist before it is
    walked, so a range far past that answers about as fast as its cut, with
    the same rows.  (Walked whole, each of these ranges takes seconds;
    ``w=0:10**12`` would take days.)"""

    @pytest.mark.parametrize(
        "family, wide, cut",
        [
            ("t2", {"w": (0, 10**7)}, {"w": (F(11, 10), 2)}),
            ("quad", {"a1": (-1000, F(1, 2))}, {"a1": (F(1, 10), F(1, 2))}),
            ("quad", {"b1": (0, 1000)}, {"b1": (0, F(9, 10))}),
            ("quad", {"a2": (-2000, F(3, 2)), "b2": (-2000, 2000)}, {"a2": (F(11, 10), F(3, 2)), "b2": (-1, 0)}),
            ("t3", {"a2": (-300_000, F(1, 2))}, {"a2": (F(1, 10), F(1, 2))}),
            ("t3", {"b1": (-1000, 1000)}, {"b1": (F(1, 10), F(9, 10))}),
            ("quad", {"a2": (F(11, 10), 10**6)}, {"a2": (F(11, 10), 2)}),
            ("t3", {"a1": (F(11, 10), 10**6)}, {"a1": (F(11, 10), 10)}),
        ],
    )
    def test_same_rows_as_the_cut_range(self, family, wide, cut):
        start = perf_counter()
        rows = sweep_grid(family, F(2), step=F(1, 10), ranges=wide)
        assert perf_counter() - start < 1
        assert rows == sweep_grid(family, F(2), step=F(1, 10), ranges=cut)

    @pytest.mark.parametrize("D", [10, 12, 20])
    def test_no_quad_past_the_a2_cut(self, D):
        # an accepted quad's width a2 - b2 is its lattice width, at most
        # 1 + 2/sqrt(3) (Hurkens), and b2 < 0, so the sweep walks a2 only
        # while 3 (A2 - D)^2 < 4 D^2; every quad on the grid past that up to
        # a2 = 3 is rejected, whatever a1 <= b1 and -b2 <= a2 - 1
        cut = D + isqrt((4 * D * D - 1) // 3)
        assert 3 * (cut - D) ** 2 < 4 * D * D <= 3 * (cut + 1 - D) ** 2
        quad = geometry.QuadBody._from_frame_or_reason
        for A2 in range(cut + 1, 3 * D + 1):
            for A1 in range(1, D):
                for B1 in range(A1, D):
                    assert all(callable(quad(D, A1, A2, B1, B2)) for B2 in range(D - A2, 0))
        # and a range that starts past the cut is empty at once, however far it runs
        start = perf_counter()
        with pytest.raises(ValueError, match="grid is empty"):
            sweep_grid("quad", F(2), step=F(1, D), ranges={"a2": (F(cut + 1, D), 10**9)})
        assert perf_counter() - start < 1

    @pytest.mark.parametrize("D", [7, 10, 12])
    def test_no_t3_past_the_a1_cut(self, D):
        # Type3Body's b1 + b2 < 0 is B1 (A1 - D) < A2 (D - B1), so on the
        # grid a2, b1 in [1/D, 1 - 1/D] the sweep walks A1 only up to the cut:
        # the last A1 that passes at the largest A2 and the least B1; every
        # type 3 on the grid past it is rejected, whatever a2 and b1
        a2_hi, b1_lo = D - 1, 1
        cut = D + (a2_hi * (D - b1_lo) - 1) // b1_lo
        assert b1_lo * (cut - D) < a2_hi * (D - b1_lo) <= b1_lo * (cut + 1 - D)
        t3 = geometry.Type3Body._from_frame_or_reason
        for A1 in range(cut + 1, cut + 2 * D + 1):
            assert all(callable(t3(D, A1, A2, B1)) for A2 in range(1, D) for B1 in range(1, D))
        # and a range that starts past the cut is empty at once, however far it runs
        start = perf_counter()
        with pytest.raises(ValueError, match="grid is empty"):
            sweep_grid("t3", F(2), step=F(1, D), ranges={"a1": (F(cut + 1, D), 10**9)})
        assert perf_counter() - start < 1


def _sweep_text(rows, fmt):
    """The CLI's sweep output for rows without Monte Carlo, with
    ``format_rational`` called on every value of every row."""
    if fmt == "json":
        payload = [
            {
                "params": [format_rational(p) for p in r.params],
                "w": format_rational(r.w),
                "z": format_rational(r.z),
                "bound": format_rational(r.bound),
                "mc": None,
            }
            for r in rows
        ]
        return json.dumps(payload) + "\n"
    lines = ["params,w,z,bound,mc_estimate,mc_stderr,samples,seed"]
    for r in rows:
        params = ";".join(format_rational(p) for p in r.params)
        lines.append(",".join([params, format_rational(r.w), format_rational(r.z), format_rational(r.bound), "", "", "",
                               "0"]))
    return "\n".join(lines) + "\n"


_SWEEPS = st.one_of(
    st.tuples(st.just("quad"), st.one_of(quad_boxes(), off_grid_quad_boxes())),
    st.tuples(st.just("t3"), st.one_of(t3_boxes(), off_grid_t3_boxes())),
    st.tuples(st.just("t2"), t2_boxes()),
)


class TestSweepText:
    """``sweep``'s CSV and JSON against formatting every value of every row
    afresh, over two sweeps in one process, so that a text kept from one
    sweep would show in the next."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_SWEEPS, min_size=2, max_size=2), st.fractions(F(11, 10), 5, max_denominator=20))
    @example([("quad", (F(1, 10), {"b2": (F(-1), F(1, 10))})), ("t3", (F(1, 4), {}))], F(2))
    @example([("t2", (F(1, 4), {"w": (F(1, 2), F(2))})), ("t2", (F(1, 3), {"w": (F(1), F(2))}))], F(3, 2))
    def test_every_value_formatted_as_format_rational(self, drawn, z):
        for family, (step, ranges) in drawn:
            argv = ["sweep", "--family", family, "--z", str(z), "--step", str(step)]
            for key, (lo, hi) in ranges.items():
                argv += ["--range", f"{key}={lo}:{hi}"]
            try:
                rows = sweep_grid(family, z, step=step, ranges=ranges)
            except ValueError:
                rows = None
            for fmt in ("csv", "json"):
                out = io.StringIO()
                with redirect_stdout(out):
                    code = cli.run([*argv, "--format", fmt])
                if rows is None:
                    assert (code, out.getvalue()) == (cli.VALIDATION_ERROR, "")
                else:
                    assert (code, out.getvalue()) == (0, _sweep_text(rows, fmt))
