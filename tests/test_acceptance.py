"""Acceptance suite: nine headline criteria, one printed pass/fail line each."""

import random
import time
from fractions import Fraction as F

from cutstrength import (
    QuadBody,
    Type1Body,
    Type2Body,
    Type3Body,
    area,
    corner_rays,
    covering_lp_min,
    lattice_width,
    monte_carlo_lower,
    piecewise_bound_for,
    quad_lower,
    region_of,
    split_coefficients,
    strength_single_split,
    strength_split_closure_approx,
    chosen_split,
    t1_bound,
    t2_bound,
)
from cutstrength.sweeps import sweep_grid

from conftest import random_interior_point, region_area, region_polygons, region_spec, region_t_bar, single_split_oracle


T2_FIXTURE = Type2Body(F(1, 2), F(3, 2))
QUAD_FIXTURE = QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10))
T3_FIXTURE = Type3Body(F(3), F(3, 10), F(1, 10))


def report(number: int, name: str, ok: bool):
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_type1_probability():
    start = time.monotonic()
    ok = t1_bound()(F(3, 2)) == 0 and t1_bound()(F(7, 4)) == F(1, 3) and t1_bound()(F(2)) == 1
    est = monte_carlo_lower(Type1Body(), F(7, 4), 10**6, seed=0)
    ok = ok and abs(est.estimate - 1 / 3) <= 3 * est.std_error
    ok = ok and (time.monotonic() - start) < 10
    report(1, "type 1 probability closed form + Monte Carlo", ok)


def test_criterion_2_special_values():
    bound = t2_bound(F(11, 10))
    upper, lower = 1 - bound(2), bound(F(3, 2))
    ok = (upper, lower) == (F(4, 121), F(112, 121))
    ok = ok and upper < F(34, 1000) and lower > F(925, 1000)
    report(2, "flat type 2 special values at w = 11/10", ok)


def test_criterion_3_z2_identity():
    ok = True
    for i in range(1, 100):
        w = 1 + F(i, 100)
        ok = ok and 1 - t2_bound(w)(F(2)) == 4 * (w - 1) ** 2 / w**2
    report(3, "exact identity 1 - bound(2, w) = 4(w-1)^2/w^2", ok)


def test_criterion_4_quad_degenerates_to_t2():
    ok = True
    pairs = 0
    for a1_i in range(1, 10):
        a1 = F(a1_i, 10)
        for a2 in (F(6, 5), F(3, 2), F(7, 4)):
            for b2 in (F(-1, 10), F(-1, 5)):
                try:
                    body = QuadBody(a1, a2, a1, b2)
                except ValueError:
                    continue
                w = body.a2 - body.b2
                for z_i in range(1, 11):
                    z = 1 + F(z_i, 4)
                    ok = ok and quad_lower(body, z) == t2_bound(w)(z)
                    pairs += 1
    ok = ok and pairs >= 500
    report(4, f"quadrilateral with equal top abscissas matches type 2 ({pairs} pairs)", ok)


def test_criterion_5_monte_carlo_vs_closed_forms():
    start = time.monotonic()
    ok = True
    cases = [
        (T2_FIXTURE, [F(8, 5), F(7, 4), F(2), F(5, 2), F(4)]),
        (QUAD_FIXTURE, [F(19, 10), F(2), F(9, 4), F(5, 2), F(3)]),
        (T3_FIXTURE, [F(3, 2), F(2), F(5, 2), F(3), F(4)]),
    ]
    for body, zs in cases:
        pb = piecewise_bound_for(body)
        for z in zs:
            est = monte_carlo_lower(body, z, 10**6, seed=0)
            tol = max(3 * est.std_error, 1e-9)
            ok = ok and abs(est.estimate - float(pb(z))) <= tol
    ok = ok and (time.monotonic() - start) < 120
    report(5, "Monte Carlo agrees with every closed-form bound (3 SE)", ok)


def test_criterion_6_table_equals_lp_reciprocal():
    rng = random.Random(61)
    ok = True
    for body in (T2_FIXTURE, QUAD_FIXTURE, T3_FIXTURE):
        for _ in range(1000):
            f = random_interior_point(body, rng)
            region = region_of(body, f)
            table = region_t_bar(region_spec(body)[region.index - 1], f)
            cut = split_coefficients(chosen_split(body, region), f, corner_rays(body, f))
            value, _ = covering_lp_min([cut.coefficients], len(cut.coefficients))
            ok = ok and table == 1 / value
    report(6, "region table equals one-row covering-LP reciprocal (3000 points)", ok)


def test_criterion_7_closure_monotonicity():
    rng = random.Random(71)
    bodies = [T2_FIXTURE, QUAD_FIXTURE, T3_FIXTURE, Type1Body()]
    ok = True
    for i in range(1000):
        body = bodies[i % len(bodies)]
        f = random_interior_point(body, rng)
        rep = strength_single_split(body, f)
        t_bar = rep.t_bar
        ok = ok and (rep.region.index, rep.chosen_split_normal, t_bar) == single_split_oracle(body, f)
        values = [strength_split_closure_approx(body, f, n) for n in range(1, 7)]
        for lo, hi in zip(values[1:], values[:-1]):
            ok = ok and lo <= hi
        ok = ok and values[0] <= t_bar  # the chosen normals all have max-norm 1
    t1 = Type1Body()
    for _ in range(1000):
        f = random_interior_point(t1, rng)
        exact = region_t_bar(region_spec(t1)[region_of(t1, f).index - 1], f)
        ok = ok and strength_split_closure_approx(t1, f, 1) == exact
    report(7, "t_bar is the oracle's; t_N nonincreasing, below t_bar; type 1 exact at N = 1", ok)


def test_criterion_8_structural_invariants():
    ok = True
    bodies = [Type1Body(), T2_FIXTURE, Type2Body(F(2, 5), F(5, 2)), QUAD_FIXTURE,
              QuadBody(F(1, 4), F(3, 2), F(1, 2), F(-1, 4)), T3_FIXTURE,
              Type3Body(F(5, 2), F(1, 2), F(1, 5))]
    eps = F(1, 10**12)
    for body in bodies:
        pb = piecewise_bound_for(body)
        for b in pb.breakpoints:
            if b <= 1 or (isinstance(body, Type1Body) and b == 2):
                continue
            ok = ok and pb(b) == pb(b - eps) + (pb(b) - pb(b - eps)) and abs(pb(b) - pb(b - eps)) < F(1, 10**6)
        prev = None
        w = lattice_width(body)
        hi = max(10, int(2 * w / (w - 1)) + 2)
        for i in range(200):
            z = F(101, 100) + (hi - F(101, 100)) * F(i, 199)
            val = pb(z)
            ok = ok and 0 <= val <= 1
            if prev is not None:
                ok = ok and val >= prev
            prev = val
        ok = ok and sum(region_area(p) for p in region_polygons(body)) == area(body)
    for i in range(1, 100):
        w = 1 + F(i, 100)
        ok = ok and t2_bound(w)(10**6) > 1 - F(1, 10**4)
    report(8, "continuity, monotonicity, range, region partition, limit", ok)


def test_criterion_9_flat_bodies_approach_one():
    ok = True
    sweeps = [
        ("t2", {"w": (F(1001, 1000), F(101, 100))}, F(1, 1000)),
        (
            "quad",
            {
                "a1": (F(1, 2), F(1, 2)),
                "b1": (F(1, 2), F(1, 2)),
                "a2": (F(1002, 1000), F(101, 100)),
                "b2": (F(-1, 500), F(-1, 500)),
            },
            F(1, 500),
        ),
        (
            "t3",
            {"a1": (F(100), F(100)), "a2": (F(1, 2), F(1, 2)), "b1": (F(1, 1000), F(1, 500))},
            F(1, 1000),
        ),
    ]
    for family, ranges, step in sweeps:
        rows = sweep_grid(family, F(2), step=step, ranges=ranges)
        flat = [r for r in rows if r.w < F(101, 100)]
        ok = ok and flat and all(r.bound > F(99, 100) for r in flat)
    report(9, "bound exceeds 0.99 for every swept body with width < 1.01", bool(ok))
