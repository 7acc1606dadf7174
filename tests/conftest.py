"""Shared fixtures and independent oracles for the test suite."""

from fractions import Fraction as F
from itertools import combinations
from math import ceil, floor

import pytest

from cutstrength import QuadBody, Type1Body, Type2Body, Type3Body, point
from cutstrength.geometry import clip_halfplane, contains, polygon_area


@pytest.fixture
def t1_body():
    return Type1Body()


@pytest.fixture
def t2_body():
    return Type2Body(F(1, 2), F(3, 2))


@pytest.fixture
def quad_body():
    return QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10))


@pytest.fixture
def t3_body():
    return Type3Body(F(3), F(3, 10), F(1, 10))


def clip_area(pieces, normal, offset):
    """Exact area of a region (a tuple of piece polygons) cut by a half-plane."""
    return sum((polygon_area(clip_halfplane(p, normal, offset)) for p in pieces if len(p) >= 3), F(0))


def lattice_points_oracle(pts):
    """``(boundary, interior)`` integer points of a convex CCW polygon, as
    sets of pairs, by testing every integer point of its bounding box."""
    xs, ys = [p.x1 for p in pts], [p.x2 for p in pts]
    boundary, interior = set(), set()
    for x in range(floor(min(xs)), ceil(max(xs)) + 1):
        for y in range(floor(min(ys)), ceil(max(ys)) + 1):
            if contains(pts, point(x, y), strict=True):
                interior.add((x, y))
            elif contains(pts, point(x, y)):
                boundary.add((x, y))
    return boundary, interior


def _solve_square(a, b):
    """Gaussian elimination over Fractions; None when singular."""
    m = len(a)
    mat = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(m):
        piv = next((r for r in range(col, m) if mat[r][col] != 0), None)
        if piv is None:
            return None
        mat[col], mat[piv] = mat[piv], mat[col]
        pv = mat[col][col]
        mat[col] = [v / pv for v in mat[col]]
        for r in range(m):
            if r != col and mat[r][col] != 0:
                factor = mat[r][col]
                mat[r] = [v - factor * w for v, w in zip(mat[r], mat[col])]
    return [mat[i][m] for i in range(m)]


def covering_lp_oracle(rows, k):
    """Minimum of ``sum(s)`` s.t. ``row . s >= 1``, ``s >= 0``, by brute force
    over every basic solution of every row/variable basis of size <= k.
    Every row needs a positive entry."""
    rows = [tuple(F(c) for c in row) for row in rows]
    best = None
    for m in range(1, min(k, len(rows)) + 1):
        for rsub in combinations(range(len(rows)), m):
            for vsub in combinations(range(k), m):
                sol = _solve_square([[rows[i][j] for j in vsub] for i in rsub], [F(1)] * m)
                if sol is None or any(v < 0 for v in sol):
                    continue
                s = [F(0)] * k
                for j, v in zip(vsub, sol):
                    s[j] = v
                if all(sum(c * x for c, x in zip(row, s)) >= 1 for row in rows):
                    if best is None or sum(s) < best:
                        best = sum(s)
    return best


def indicator_area(region, spec, z):
    """Exact area of {f in region : strength formula <= z}.

    ``spec`` = (kind, normal, const) describes the per-region strength as a
    ratio of linear functions of f: kind 'low' means (n.f - const)/(n.f),
    kind 'high' means (const - n.f)/(1 - n.f); both denominators are positive
    on the region, so the sublevel set is a half-plane cut.
    """
    kind, normal, const = spec
    if kind == "low":
        return clip_area(region, -normal, const / (z - 1))
    return clip_area(region, normal, (z - const) / (z - 1))


def strength_specs(body):
    """Per-region (kind, normal, const) strength descriptions."""
    if isinstance(body, Type2Body):
        a1, a2 = body.a1, body.a2
        low = ("low", point(1, 0), -a1 / (a2 - 1))
        high = ("high", point(1, 0), (a2 - a1) / (a2 - 1))
        vert = ("high", point(0, 1), a2)
        inner = [vert, vert] if a2 <= 2 else [low, high]
        return inner + [vert, vert, low, high]
    if isinstance(body, QuadBody):
        return [
            ("low", point(0, 1), body.b2),
            ("high", point(0, 1), body.a2),
            ("low", point(1, 0), body.c1),
            ("high", point(1, 0), body.d1),
        ]
    if isinstance(body, Type3Body):
        return [
            ("low", point(0, 1), body.b2),
            ("high", point(0, 1), body.c2),
            ("low", point(1, 0), body.c1),
            ("high", point(1, 0), body.a1),
            ("low", point(1, 1), body.b1 + body.b2),
            ("high", point(1, 1), body.a1 + body.a2),
        ]
    raise ValueError(f"no strength spec for {body!r}")


def random_interior_point(body, rng, denominator=512):
    """Exact-rational point strictly inside the body."""
    poly = body.polygon()
    lo1 = min(v.x1 for v in poly)
    hi1 = max(v.x1 for v in poly)
    lo2 = min(v.x2 for v in poly)
    hi2 = max(v.x2 for v in poly)
    while True:
        x1 = lo1 + (hi1 - lo1) * F(rng.randint(1, denominator - 1), denominator)
        x2 = lo2 + (hi2 - lo2) * F(rng.randint(1, denominator - 1), denominator)
        f = point(x1, x2)
        if body.contains_interior(f):
            return f
