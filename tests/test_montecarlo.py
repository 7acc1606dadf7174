import os
import random
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction as F
from math import sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cutstrength
from cutstrength import montecarlo
from cutstrength import (
    QuadBody,
    SplitBody,
    Type1Body,
    Type2Body,
    Type3Body,
    bound_for,
    point,
    region_of,
    strength_single_split,
)
from cutstrength.montecarlo import (
    _CHUNK,
    _Workspace,
    _fan_triangles,
    _sample_points,
    _t_bar_evaluator,
    monte_carlo_lower,
    thread_count,
)

from conftest import (
    BOUNDARY_BODIES,
    any_body,
    box_grid,
    fan_fraction_oracle,
    fan_triangles_oracle,
    random_interior_point,
    region_spec,
    plus,
    region_t_bar,
    sample_points_oracle,
    t_bar_evaluator_oracle,
    times,
)


def columns(points):
    """The float columns ``(x1, x2)`` of exact points."""
    return np.array([float(f.x1) for f in points]), np.array([float(f.x2) for f in points])


@pytest.fixture
def threads_env(monkeypatch):
    def set_threads(n):
        if n is None:
            monkeypatch.delenv("CUTSTRENGTH_THREADS", raising=False)
        else:
            monkeypatch.setenv("CUTSTRENGTH_THREADS", str(n))

    return set_threads


class TestThreadCount:
    def test_env_override(self, threads_env):
        threads_env(7)
        assert thread_count() == 7

    def test_invalid_env(self, threads_env):
        for value in (0, -2, "abc", "2.5", ""):
            threads_env(value)
            with pytest.raises(ValueError, match="CUTSTRENGTH_THREADS"):
                thread_count()

    def test_default_positive(self, threads_env):
        threads_env(None)
        assert thread_count() >= 1


class TestDeterminism:
    def test_independent_of_thread_count(self, t1_body, t2_body, quad_body, t3_body, threads_env):
        # spans several chunks so the merge order actually varies; the quad's
        # fan has two triangles, the others one.  Each z leaves hits and misses.
        samples = 3 * _CHUNK + 123
        for body, z in ((t1_body, F(7, 4)), (t2_body, F(7, 4)), (quad_body, F(5, 2)), (t3_body, F(7, 4))):
            results = []
            for n in (1, 2, 4):
                threads_env(n)
                results.append(monte_carlo_lower(body, z, samples, seed=42).estimate)
            assert results[0] == results[1] == results[2], body
            assert 0 < results[0] < 1, body

    def test_seed_changes_stream(self, t2_body):
        a = monte_carlo_lower(t2_body, F(7, 4), 10_000, seed=1)
        b = monte_carlo_lower(t2_body, F(7, 4), 10_000, seed=2)
        assert a.estimate != b.estimate

    def test_repeatable(self, quad_body):
        a = monte_carlo_lower(quad_body, F(5, 2), 10_000, seed=5)
        b = monte_carlo_lower(quad_body, F(5, 2), 10_000, seed=5)
        assert a == b

    def test_sample_stream_is_positional(self, t2_body):
        # sample i depends only on (seed, i): regenerating a mid-stream window
        # chunk-by-chunk reproduces the same points
        fan = _fan_triangles(t2_body)
        whole = _sample_points(fan, seed=9, start=0, count=256, ws=_Workspace(256))
        # restart at position 128 (we know one counter block yields one sample)
        tail = _sample_points(fan, seed=9, start=128, count=128, ws=_Workspace(128))
        for whole_column, tail_column in zip(whole, tail):
            assert (whole_column[128:] == tail_column).all()


class TestRowWiseOracle:
    """The column kernel against the row-wise one kept in conftest."""

    @settings(max_examples=60, deadline=None)
    @given(
        body=st.one_of(st.sampled_from(BOUNDARY_BODIES), any_body()),
        seed=st.one_of(st.sampled_from([0, 2**128 - 1]), st.integers(0, 2**128 - 1)),
        # chunk starts and mid-chunk offsets
        start=st.one_of(st.sampled_from([0, _CHUNK, _CHUNK // 2 + 7]), st.integers(0, 2**40)),
        # one sample, the ragged tail of a 5*10**5-sample call, a full chunk
        count=st.one_of(st.sampled_from([1, 5 * 10**5 % _CHUNK, _CHUNK]), st.integers(1, _CHUNK)),
    )
    def test_points_and_t_bar_bit_identical(self, body, seed, start, count):
        pts = sample_points_oracle(fan_triangles_oracle(body), seed, start, count)
        ws = _Workspace(count)
        x1, x2 = _sample_points(_fan_triangles(body), seed, start, count, ws)
        assert np.array_equal(x1, pts[:, 0]) and np.array_equal(x2, pts[:, 1])
        expected = t_bar_evaluator_oracle(body)(pts)
        got = _t_bar_evaluator(body)(x1, x2, ws)
        assert np.array_equal(got, expected, equal_nan=True)
        # the signs of zeros and infinities too
        assert np.array_equal(np.signbit(got), np.signbit(expected))


    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(
            st.sampled_from(BOUNDARY_BODIES),
            any_body(),
            # parameters 10**-30 from a family boundary, rounded far from 1/v
            st.sampled_from([
                QuadBody(F(2, 5), F(3, 2), F(3, 5), -F(1, 10**30)),
                Type2Body(F(1, 2), 1 + F(1, 10**30)),
                Type3Body(F(3), F(1, 10**30), F(1, 10**31)),
            ]),
        )
    )
    def test_fan_matches_fraction_oracle(self, body):
        # the fan built on the integer vertices has the bits of float() of
        # each exact Fraction
        breaks, origin, edges = _fan_triangles(body)
        want_breaks, want_origin, want_edges = fan_fraction_oracle(body)
        assert origin == want_origin and all(type(c) is float for c in origin)
        for got, want in zip((breaks, *edges), (want_breaks, *want_edges)):
            assert got.dtype == want.dtype == np.float64 and np.array_equal(got, want)


class TestWorkspace:
    """Chunks run in reused workspaces and give the bits of fresh arrays."""

    @pytest.fixture(autouse=True)
    def no_idle(self, monkeypatch):
        # no workspace left idle by another test
        monkeypatch.setattr(montecarlo, "_idle", [])

    @settings(max_examples=40, deadline=None)
    @given(
        body=st.one_of(st.sampled_from(BOUNDARY_BODIES), any_body()),
        seed=st.integers(0, 2**128 - 1),
        start=st.integers(0, 2**40),
        counts=st.lists(st.one_of(st.sampled_from([1, _CHUNK]), st.integers(1, _CHUNK)), min_size=1, max_size=3),
    )
    def test_reused_workspace_is_bit_identical(self, body, seed, start, counts):
        # one workspace through chunks of any size, ragged tails after full
        # chunks included: nothing left in it from before shows
        fan, evaluate = _fan_triangles(body), _t_bar_evaluator(body)
        ws = _Workspace(_CHUNK)
        for count in counts:
            fresh_ws = _Workspace(count)
            fresh = _sample_points(fan, seed, start, count, fresh_ws)
            x1, x2 = _sample_points(fan, seed, start, count, ws)
            assert np.array_equal(x1, fresh[0]) and np.array_equal(x2, fresh[1])
            expected = evaluate(*fresh, fresh_ws)
            got = evaluate(x1, x2, ws)
            assert np.array_equal(got, expected, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(expected))

    def test_sized_to_the_largest_chunk(self, t2_body, threads_env):
        threads_env(1)
        monte_carlo_lower(t2_body, 2, 100)
        assert [ws.size for ws in montecarlo._idle] == [100]
        monte_carlo_lower(t2_body, 2, _CHUNK + 1)
        assert [ws.size for ws in montecarlo._idle] == [_CHUNK]
        big = montecarlo._idle[0]
        monte_carlo_lower(t2_body, 2, 100)
        assert montecarlo._idle == [big]

    def test_keeps_one_idle_workspace_per_worker(self, t2_body, threads_env):
        montecarlo._idle[:] = [_Workspace(100) for _ in range(5)]
        threads_env(1)
        monte_carlo_lower(t2_body, 2, 100)
        assert len(montecarlo._idle) == 1

    @pytest.mark.parametrize("cpus, workers", [(64, 3), (2, 2), (None, 1)])
    def test_pool_is_bounded(self, quad_body, threads_env, monkeypatch, cpus, workers):
        # CUTSTRENGTH_THREADS=64 on a 3-chunk call starts no more workers than
        # chunks or CPUs, and makes and keeps no more workspaces than workers
        threads_env(1)
        expected = monte_carlo_lower(quad_body, F(5, 2), 3 * _CHUNK, seed=7)
        pools, made = [], []

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers)

        class Counted(_Workspace):
            def __init__(self, size):
                made.append(size)
                super().__init__(size)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(montecarlo, "_Workspace", Counted)
        monkeypatch.setattr(montecarlo, "_idle", [])
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        threads_env(64)
        assert monte_carlo_lower(quad_body, F(5, 2), 3 * _CHUNK, seed=7) == expected
        assert pools == ([workers] if workers > 1 else [])
        assert 1 <= len(made) <= workers
        assert len(montecarlo._idle) <= workers

    def test_warm_call_allocates_under_1_mb(self, quad_body, threads_env):
        threads_env(1)
        monte_carlo_lower(quad_body, 2, 5 * 10**5, seed=0)
        tracemalloc.start()
        try:
            monte_carlo_lower(quad_body, 2, 5 * 10**5, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    @pytest.mark.parametrize("threads", [1, 2])
    def test_concurrent_callers(self, quad_body, t3_body, threads_env, threads):
        # two callers at once, each with more chunks than workers, give what
        # they give one after the other
        threads_env(threads)
        calls = [(quad_body, F(5, 2), 3 * _CHUNK + 123, 11), (t3_body, F(7, 4), 2 * _CHUNK + 5, 12)]
        expected = [monte_carlo_lower(*call) for call in calls]
        barrier = threading.Barrier(len(calls))
        results = {}

        def call(i):
            barrier.wait(timeout=30)
            for round in range(3):
                results[i, round] = monte_carlo_lower(*calls[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=call, args=(i,)) for i in range(len(calls))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert results == {(i, round): expected[i] for i in range(len(calls)) for round in range(3)}


class TestEstimates:
    def test_type1_closed_form(self, t1_body):
        est = monte_carlo_lower(t1_body, F(7, 4), 10**6, seed=0)
        assert abs(est.estimate - 1 / 3) <= 3 * est.std_error

    def test_type2_closed_form(self, t2_body):
        est = monte_carlo_lower(t2_body, F(7, 4), 10**6, seed=0)
        assert abs(est.estimate - 32 / 81) <= 3 * est.std_error

    def test_zero_below_first_breakpoint(self, quad_body, t3_body):
        for body in (quad_body, t3_body):
            est = monte_carlo_lower(body, F(11, 10), 50_000, seed=0)
            assert est.estimate == 0.0

    def test_std_error_formula(self, t2_body):
        est = monte_carlo_lower(t2_body, F(7, 4), 50_000, seed=3)
        p = est.estimate
        assert est.std_error == sqrt(p * (1 - p) / est.samples)
        assert est.samples == 50_000
        assert est.seed == 3

    @pytest.mark.parametrize(
        "body",
        [
            QuadBody(F(2, 5), F(3, 2), F(3, 5), -F(1, 10**30)),
            QuadBody(F(1, 10**30), F(3, 2), F(3, 5), F(-3, 10)),
            Type2Body(F(1, 10**30), F(3, 2)),
            Type2Body(F(1, 2), 1 + F(1, 10**30)),
            Type3Body(F(3), F(1, 10**30), F(1, 10**31)),
        ],
        ids=["quad-b2", "quad-a1", "type2-a1", "type2-a2", "type3"],
    )
    def test_float_collapsing_bodies(self, body):
        # parameters 10**-30 from a family boundary, where coordinates collapse
        # or underflow as floats: the estimate still agrees with the exact bound
        for z in (F(3, 2), F(2), F(3)):
            est = monte_carlo_lower(body, z, 20_000, seed=0)
            assert abs(est.estimate - float(bound_for(body, z))) <= max(5 * est.std_error, 1e-9), z


class TestEvaluators:
    BODIES = BOUNDARY_BODIES

    @staticmethod
    def assert_matches_exact(body, points):
        evaluate = _t_bar_evaluator(body)
        approx = evaluate(*columns(points), _Workspace(len(points)))
        for f, value in zip(points, approx):
            exact = strength_single_split(body, f).t_bar
            assert abs(value - float(exact)) < 1e-9, (body, f)

    def test_vectorized_strength_matches_exact(self):
        rng = random.Random(41)
        for body in self.BODIES:
            self.assert_matches_exact(body, [random_interior_point(body, rng) for _ in range(25)])

    def test_interior_thresholds(self):
        # region boundaries that are not lattice lines; t_bar is continuous
        # there, so float round-off may pick either neighbouring region.
        # Crossings with lattice lines are left out: ties there are rejected.
        def on_line(body, through, direction):
            pts = [plus(through, times(direction, F(k, 61))) for k in range(-183, 184)]
            return [
                f for f in pts
                if body.contains_interior(f) and all(v.denominator > 1 for v in (f.x1, f.x2, f.x1 + f.x2))
            ]

        def outside_unit_strip(pts):
            return sum(not 0 < f.x2 < 1 for f in pts)

        for body in self.BODIES[1:4]:
            pts = on_line(body, point(body.a1, 0), point(0, 1))
            assert outside_unit_strip(pts) > 0
            self.assert_matches_exact(body, pts)
        for body in self.BODIES[4:6]:
            h = -body.b2 / (body.a2 - body.b2 - 1)
            theta = -body.c1 / (body.d1 - body.c1 - 1)
            pts = on_line(body, point(theta, 0), point(0, 1))
            assert outside_unit_strip(pts) > 0
            self.assert_matches_exact(body, pts + on_line(body, point(0, h), point(1, 0)))
        body = self.BODIES[6]
        h2 = -body.b2 / (body.c2 - body.b2 - 1)
        h1 = -body.c1 / (body.a1 - body.c1 - 1)
        below = [f for f in on_line(body, point(h1, 0), point(0, 1)) if f.x2 < 0]
        assert below
        # region 5 of this body is empty: no point of s = hd lies above x2 = 1
        self.assert_matches_exact(body, below + on_line(body, point(0, h2), point(1, 0)))

    def test_first_match_on_region_boundaries(self):
        # dyadic grid points are exact in float and hit region boundaries,
        # lattice lines included, where the neighbouring formulas differ:
        # the evaluator must pick the same region as region_of
        for body in self.BODIES:
            spec = region_spec(body)
            pts = [f for f in box_grid(body, 16) if body.contains_interior(f)]
            values = _t_bar_evaluator(body)(*columns(pts), _Workspace(len(pts)))
            for f, value in zip(pts, values):
                try:
                    exact = region_t_bar(spec[region_of(body, f).index - 1], f)
                except ZeroDivisionError:
                    assert not np.isfinite(value), (body, f)
                else:
                    assert abs(value - float(exact)) < 1e-9, (body, f)


class TestGolden:
    # estimates recorded before the region tables became one spec per
    # family; the float path must stay bit-identical
    @pytest.mark.parametrize(
        "body, z, estimate",
        [
            (Type1Body(), F(2), 1.0),
            (Type1Body(), F(7, 4), 0.33458709716796875),
            (Type2Body(F(1, 2), F(3, 2)), F(2), 0.5543136596679688),
            (QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10)), F(2), 0.2009429931640625),
            (Type3Body(F(3), F(3, 10), F(1, 10)), F(2), 0.730926513671875),
        ],
    )
    def test_fixture_estimates(self, body, z, estimate):
        assert monte_carlo_lower(body, z, 2**17, seed=0).estimate == estimate


class TestValidation:
    def test_split_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_lower(SplitBody((0, 1), 0), F(2), 100)

    def test_samples_positive(self, t2_body):
        with pytest.raises(ValueError):
            monte_carlo_lower(t2_body, F(2), 0)

    def test_seed_range(self, t2_body):
        for seed in (-1, 2**128):
            with pytest.raises(ValueError, match="seed"):
                monte_carlo_lower(t2_body, F(2), 100, seed=seed)
        monte_carlo_lower(t2_body, F(2), 100, seed=2**128 - 1)

    @pytest.mark.parametrize("name", ["samples", "seed"])
    @pytest.mark.parametrize("value", [True, False, 1.5, 10.0, "10", None])
    def test_samples_and_seed_must_be_ints(self, t2_body, name, value):
        args = {"samples": 100, "seed": 0, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be an int, got "):
            monte_carlo_lower(t2_body, F(2), **args)

    @pytest.mark.parametrize(
        "z", [F(1), 1, "1", F(1, 2), F(-3, 2), 0], ids=["Fraction 1", "int 1", "str 1", "1/2", "-3/2", "0"]
    )
    def test_threshold_above_one(self, t2_body, z):
        message = f"threshold must satisfy z > 1, got {F(z)}"
        with pytest.raises(ValueError) as raised:
            monte_carlo_lower(t2_body, z, 100)
        assert str(raised.value) == message
        # the exact bound rejects the same z with the same text
        with pytest.raises(ValueError) as raised:
            bound_for(t2_body, z)
        assert str(raised.value) == message

    def test_threshold_checked_before_sampling(self, t2_body, monkeypatch):
        def sample(*args):
            raise AssertionError("sampled before validating z")

        monkeypatch.setattr(cutstrength.montecarlo, "_sample_points", sample)
        with pytest.raises(ValueError, match="z > 1"):
            monte_carlo_lower(t2_body, F(1), 10**6)

    def test_checks_in_order(self, t2_body):
        # split, then samples, then seed, then the threshold
        with pytest.raises(ValueError, match="splits"):
            monte_carlo_lower(SplitBody((0, 1), 0), F(1), 1.5, seed=1.5)
        with pytest.raises(ValueError, match="^samples must be an int"):
            monte_carlo_lower(t2_body, F(1), 1.5, seed=1.5)
        with pytest.raises(ValueError, match="samples >= 1"):
            monte_carlo_lower(t2_body, F(1), 0, seed=1.5)
        with pytest.raises(ValueError, match="seed"):
            monte_carlo_lower(t2_body, F(1), 100, seed=1.5)


class TestLazyNumpy:
    @pytest.mark.parametrize(
        "code",
        [
            "import cutstrength",
            "from cutstrength import cli; "
            """cli.run(["bound", "--body", '{"type":"type2","a":["1/2","3/2"]}', "--z", "7/4"])""",
        ],
    )
    def test_not_imported(self, code):
        src = str(Path(cutstrength.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        check = f"{code}; import sys; print('numpy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.splitlines()[-1] == "False"
