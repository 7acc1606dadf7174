from fractions import Fraction as F

import pytest

from cutstrength import p_t2_lower
from cutstrength.sweeps import DEFAULT_STEP, sweep_grid


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
