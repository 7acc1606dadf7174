"""Shared fixtures and independent oracles for the test suite."""

import os
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction as F
from functools import reduce
from itertools import combinations
from math import ceil, floor
from operator import and_, le, or_
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

from cutstrength import (
    QuadBody,
    Rational2,
    SplitBody,
    Type1Body,
    Type2Body,
    Type3Body,
    UnimodularMap,
    area,
    lattice_width,
    point,
)
from cutstrength.cuts import _admissible, _check_radius, _max_packing, _min_cover, _rays, _scaled, _split_row, _table
from cutstrength.descriptors import format_rational
from cutstrength.geometry import _frac, primitive_directions

# CI runs with HYPOTHESIS_PROFILE=ci: the same examples on every run, no deadline
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


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


def outcome(call, *args):
    """The call's result, or its exception's type and text."""
    try:
        return call(*args)
    except Exception as exc:  # compared, never swallowed: the caller asserts on it
        return type(exc), str(exc)


def from_frame(cls, *frame):
    """The body that ``cls._from_frame_or_reason(*frame)`` builds, or its
    rejection's message raised as the constructor raises it, a ValueError."""
    body = cls._from_frame_or_reason(*frame)
    if callable(body):
        raise ValueError(body())
    return body


# bodies whose region boundaries and lattice lines the 1/16 grid hits
BOUNDARY_BODIES = [
    Type1Body(),
    Type2Body(F(1, 2), F(3, 2)),
    Type2Body(F(2, 5), F(5, 2)),
    Type2Body(F(1, 5), F(2)),  # w = 2
    QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10)),
    QuadBody(F(1, 3), F(3, 2), F(1, 3), F(-1, 4)),  # a1 = b1
    Type3Body(F(3), F(3, 10), F(1, 10)),
]


# the bodies of the benchmark's body_profile workload
PROFILE_BODIES = [
    Type1Body(),
    Type2Body(F(1, 2), F(3, 2)),
    Type2Body(F(1, 3), F(5, 2)),
    QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10)),
    Type3Body(F(3), F(3, 10), F(1, 10)),
]


def box_grid(body, q):
    """Every point of the 1/q grid in the body's bounding box, inside or not."""
    box = body.polygon()
    return [
        point(F(i, q), F(j, q))
        for i in range(floor(min(v.x1 for v in box) * q), ceil(max(v.x1 for v in box) * q) + 1)
        for j in range(floor(min(v.x2 for v in box) * q), ceil(max(v.x2 for v in box) * q) + 1)
    ]


def quad_oracle(a1, a2, b1, b2):
    """The fields of ``QuadBody(a1, a2, b1, b2)`` as a dict, validated and
    derived in Fraction arithmetic with the constructor's checks and
    messages, asserting the sign and range facts of the derived vertices."""
    a1, a2, b1, b2 = _frac(a1), _frac(a2), _frac(b1), _frac(b2)
    if not (0 < a1 <= b1 < 1):
        raise ValueError(f"need 0 < a1 <= b1 < 1, got a1={a1}, b1={b1}")
    if not a2 > 1:
        raise ValueError(f"need a2 > 1, got a2={a2}")
    if not b2 < 0:
        raise ValueError(f"need b2 < 0, got b2={b2}")
    if not -b2 <= a2 - 1:
        raise ValueError(f"need -b2 <= a2 - 1, got b2={b2}, a2={a2}")
    c1 = -a1 * b1 / ((a2 - 1) * b1 - a1 * b2)
    c2 = c1 * b2 / b1
    d1 = ((a2 - a1) * (1 - b1) - (1 - a1) * b2) / ((a2 - 1) * (1 - b1) - (1 - a1) * b2)
    d2 = (d1 - 1) * b2 / (b1 - 1)
    # the parameter checks imply these; QuadBody relies on them unchecked
    assert c1 < 0 and 0 < c2 < 1 and d1 > 1 and 0 < d2 < 1 and c2 <= d2, (a1, a2, b1, b2)
    if not a2 - b2 <= d1 - c1:
        raise ValueError(
            f"lattice width must be attained by the vertical direction "
            f"(a2-b2={a2 - b2} > d1-c1={d1 - c1})"
        )
    return dict(a1=a1, a2=a2, b1=b1, b2=b2, c1=c1, c2=c2, d1=d1, d2=d2)


def t3_oracle(a1, a2, b1):
    """The fields of ``Type3Body(a1, a2, b1)`` as a dict, validated and
    derived in Fraction arithmetic with the constructor's checks and
    messages, asserting the sign and range facts of the derived vertices."""
    a1, a2, b1 = _frac(a1), _frac(a2), _frac(b1)
    if not a1 > 1:
        raise ValueError(f"need a1 > 1, got a1={a1}")
    if not (0 < a2 < 1):
        raise ValueError(f"need 0 < a2 < 1, got a2={a2}")
    if not (0 < b1 < 1):
        raise ValueError(f"need 0 < b1 < 1, got b1={b1}")
    b2 = -a2 * (1 - b1) / (a1 - 1)
    if not b1 + b2 < 0:
        raise ValueError(f"need b1 + b2 < 0, got {b1 + b2}")
    den = (a1 - 1) * (1 - a2) * b1 - a1 * a2 * (1 - b1)
    c1 = a1 * (a1 - 1) * b1 / den
    c2 = -a1 * a2 * (1 - b1) / den
    # the parameter checks imply these; Type3Body relies on them unchecked
    assert b2 < 0 and c1 < 0 and c2 > 1 and 0 < c1 + c2 < 1, (a1, a2, b1)
    if min(c2 - b2, a1 - c1, a1 + a2 - (b1 + b2)) != c2 - b2:
        raise ValueError(
            "lattice width must be attained by the vertical direction "
            f"(c2-b2={c2 - b2}, a1-c1={a1 - c1}, a1+a2-b1-b2={a1 + a2 - (b1 + b2)})"
        )
    return dict(a1=a1, a2=a2, b1=b1, b2=b2, c1=c1, c2=c2)


# Test-only geometry: vector arithmetic on points, the Fraction polygon
# checks, the vertices as line intersections, the Fraction facets and the
# gauge of a body.


def dot(p: Rational2, q: Rational2) -> F:
    return p.x1 * q.x1 + p.x2 * q.x2


def plus(p: Rational2, q: Rational2) -> Rational2:
    return Rational2(p.x1 + q.x1, p.x2 + q.x2)


def times(p: Rational2, s) -> Rational2:
    """``s p`` for an int or Fraction ``s``."""
    return Rational2(p.x1 * s, p.x2 * s)


def minus(p: Rational2, q: Rational2) -> Rational2:
    return Rational2(p.x1 - q.x1, p.x2 - q.x2)


def cross(p: Rational2, q: Rational2) -> F:
    return p.x1 * q.x2 - p.x2 * q.x1


def shoelace_area(pts: Sequence[Rational2]) -> F:
    """Signed area in Fractions; positive iff the cycle runs counter-clockwise."""
    return sum((cross(p, q) for p, q in zip(pts, [*pts[1:], *pts[:1]])), F(0)) / 2


def is_strictly_convex(pts: Sequence[Rational2]) -> bool:
    """True iff the cyclic vertex list bounds a non-degenerate convex polygon,
    in Fractions: every turn goes the same way, and the edges wind around
    exactly once, crossing angle 0 from the lower half-plane to the upper
    (angles in [0, pi)) once."""
    if len(pts) < 3:
        return False
    edges = [minus(b, a) for a, b in zip(pts, [*pts[1:], *pts[:1]])]
    turns = [cross(u, w) for u, w in zip(edges, edges[1:] + edges[:1])]
    if not (all(t > 0 for t in turns) or all(t < 0 for t in turns)):
        return False
    upper = [e.x2 > 0 or (e.x2 == 0 and e.x1 > 0) for e in edges]
    return sum(w and not u for u, w in zip(upper, upper[1:] + upper[:1])) == 1


def meet(p: Rational2, q: Rational2, r: Rational2, s: Rational2) -> Rational2:
    """The point where the line through ``p`` and ``q`` meets the line
    through ``r`` and ``s``; the lines must not be parallel."""
    u, w = minus(q, p), minus(s, r)
    return plus(p, times(u, cross(w, minus(r, p)) / cross(w, u)))


def vertex_oracle(cls, params) -> tuple[Rational2, ...]:
    """The vertices of ``cls(*params)`` in corner-ray order, in Fractions,
    each found as the meeting point of two boundary lines through the
    family's lattice points, not by the family's closed forms."""
    o, x, y, xy = point(0, 0), point(1, 0), point(0, 1), point(1, 1)
    if cls is Type1Body:
        return o, point(2, 0), point(0, 2)
    if cls is Type2Body:
        apex = point(*params)
        return meet(apex, y, o, x), meet(apex, xy, o, x), apex
    if cls is Type3Body:
        a = point(*params[:2])
        b = meet(a, x, point(params[2], 0), point(params[2], 1))
        return a, b, meet(b, o, a, y)
    a, b = point(*params[:2]), point(*params[2:])
    return a, b, meet(a, y, b, o), meet(a, xy, b, x)


def facets(body):
    """Outward facet representation ``normal . x <= offset``."""
    v, facets = body._facets
    return [(Rational2(F(n1, v), F(n2, v)), F(c, v * v)) for n1, n2, c in facets]


def interior_oracle(body, f: Rational2) -> bool:
    """Whether ``f`` lies strictly inside the body, in Fractions: strictly
    left of every edge of the counter-clockwise ``body.polygon()``, or
    ``offset < n . f < offset + 1`` for a split band."""
    if isinstance(body, SplitBody):
        t = body.normal[0] * f.x1 + body.normal[1] * f.x2
        return body.offset < t < body.offset + 1
    pts = body.polygon()
    return all(cross(minus(b, a), minus(f, a)) > 0 for a, b in zip(pts, pts[1:] + pts[:1]))


def gauge(body, f: Rational2, r: Rational2) -> F:
    """Minkowski functional of ``body - f`` at ``r``.

    Returns the smallest positive scale at which ``r`` fits in the scaled
    body, or 0 when ``r`` is a recession direction (split bands only).
    """
    if r == point(0, 0):
        raise ValueError("the gauge is undefined for the zero ray")
    if not interior_oracle(body, f):
        raise ValueError(f"root vertex {f} is not strictly interior to {body!r}")
    best = F(0)
    for normal, beta in facets(body):
        slack = beta - dot(normal, f)  # > 0 since f is interior
        val = dot(normal, r) / slack
        if val > best:
            best = val
    return best


IDENTITY = UnimodularMap(1, 0, 0, 1, 0, 0)


def body_descriptor(body) -> dict:
    """The JSON descriptor that ``parse_body`` reads back as ``body``."""
    if isinstance(body, Type1Body):
        return {"type": "type1"}
    if isinstance(body, SplitBody):
        return {"type": "split", "normal": list(body.normal), "offset": body.offset}
    params = [format_rational(getattr(body, name)) for name in body._params]
    if isinstance(body, Type2Body):
        return {"type": "type2", "a": params}
    if isinstance(body, Type3Body):
        return {"type": "type3", "a": params[:2], "b1": params[2]}
    return {"type": "quad", "a": params[:2], "b": params[2:]}


def interior_grid(body, q):
    """Every point of the 1/q grid strictly inside the body."""
    return [f for f in box_grid(body, q) if body.contains_interior(f)]


# The Fraction view of the region table, and its generic matcher.

# A band ``(normal, lo, hi)`` is the closed set ``lo <= normal . f <= hi``;
# ``None`` leaves that side open.
Band = tuple[tuple[int, int], Optional[F], Optional[F]]


@dataclass(frozen=True)
class Region:
    """One region of a body's decomposition and its closed-form ``t_bar``,
    as :func:`region_spec` reads it off the integer table.

    The region is the union of ``pieces``, each an intersection of closed
    bands.  On it ``t_bar = (num[0] + num[1] u) / (den[0] + den[1] u)`` with
    ``u = normal . f``.  ``split`` is the normal of the single split used on
    the region; it is None for type 1, whose strength needs all three facet
    splits.
    """

    pieces: tuple[tuple[Band, ...], ...]
    split: Optional[tuple[int, int]]
    normal: tuple[int, int]
    num: tuple[F, F]
    den: tuple[F, F]


def _matches(region, dot, strict, num=lambda c: c):
    """Whether a point lies in ``region`` (a union of band intersections) and
    strictly inside its split, given ``dot(normal) = normal . f``, ``num`` to
    turn a band constant into the point's number type, and ``strict(normal)``:
    ``normal . f`` is off the integers.  Elementwise on arrays.  A point on a
    lattice line of the region's split is left to a later region."""

    def band(n, lo, hi):
        # one test for a band open on one side: on arrays, True & mask is a
        # slow scalar loop in numpy, about ten times the cost of mask & mask
        if lo is None:
            return dot(n) <= num(hi)
        if hi is None:
            return num(lo) <= dot(n)
        return (num(lo) <= dot(n)) & (dot(n) <= num(hi))

    held = reduce(or_, (reduce(and_, (band(*b) for b in piece)) for piece in region.pieces))
    return held if region.split is None else held & strict(region.split)


def region_spec(body) -> list[Region]:
    """The body's regions in index order, region 1 first: the exact Fraction
    view of its integer table.  Matching the closed regions in this order
    sends a boundary point to its smallest-index region (see
    :func:`_matches` for points on a lattice line)."""

    def side(n, d):
        return F(n, d) if d else None

    spec = []
    for pieces, split, normal, (a0, a1, b0) in _table(body):
        scale = abs(a1) or b0
        bands = tuple(tuple(((n1, n2), side(ln, ld), side(hn, hd)) for n1, n2, ln, ld, hn, hd in p) for p in pieces)
        num, den = (F(a0, scale), F(a1, scale)), (F(b0, scale), F(a1, scale))
        spec.append(Region(bands, split, normal, num, den))
    return spec


# The clipping oracle: exact polygons of the Fraction region spec.


def contains(pts: Sequence[Rational2], p: Rational2, strict: bool = False) -> bool:
    """Exact point-in-convex-polygon test; ``pts`` must run counter-clockwise."""
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        cr = cross(minus(b, a), minus(p, a))
        if cr < 0 or (strict and cr == 0):
            return False
    return True


def clip_halfplane(pts: Sequence[Rational2], normal: Rational2, offset: F) -> list[Rational2]:
    """Clip a convex CCW polygon against ``{x : normal . x <= offset}``.

    Returns the clipped vertex cycle (possibly empty / degenerate).
    """
    out: list[Rational2] = []
    n = len(pts)
    for i in range(n):
        cur, nxt = pts[i], pts[(i + 1) % n]
        dc = offset - dot(normal, cur)
        dn = offset - dot(normal, nxt)
        if dc >= 0:
            out.append(cur)
        if (dc > 0 > dn) or (dc < 0 < dn):
            t = dc / (dc - dn)
            out.append(plus(cur, times(minus(nxt, cur), t)))
    # drop exact duplicates produced by vertices lying on the cut line
    dedup: list[Rational2] = []
    for p in out:
        if not dedup or p != dedup[-1]:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def polygon_area(pts: Sequence[Rational2]) -> F:
    if len(pts) < 3:
        return F(0)
    return abs(shoelace_area(pts))


_X1, _X2, _S = (1, 0), (0, 1), (1, 1)


def _low(normal, const, *pieces) -> Region:
    """``t_bar = (u - const) / u``, split along ``normal``."""
    return Region(pieces, normal, normal, (-const, 1), (0, 1))


def _high(normal, const, *pieces) -> Region:
    """``t_bar = (const - u) / (1 - u)``, split along ``normal``."""
    return Region(pieces, normal, normal, (const, -1), (1, -1))


def _pair(normal, low, high, sides=((),)) -> list[Region]:
    """A ``_low`` and a ``_high`` region along ``normal`` on ``0 <= u <= 1``,
    split at the u where the two formulas agree.  Each has one piece per
    tuple of extra bands in ``sides``."""
    # t = -low / (high - low - 1), over the product of the denominators
    ln, ld, hn, hd = low.numerator, low.denominator, high.numerator, high.denominator
    t = F(-ln * hd, (hn - hd) * ld - ln * hd)
    return [
        _low(normal, low, *(((normal, 0, t), *side) for side in sides)),
        _high(normal, high, *(((normal, t, 1), *side) for side in sides)),
    ]


def _t1_region(normal, num, den, *bands) -> Region:
    return Region((bands,), None, normal, num, den)


_TYPE1_SPEC = [
    _t1_region(_S, (2, 0), (1, 0), (_S, 1, None), (_X1, None, 1), (_X2, None, 1)),
    _t1_region(_S, (3, -1), (2, -1), (_S, None, 1)),
    _t1_region(_X2, (1, 1), (0, 1), (_X2, 1, None)),
    _t1_region(_X1, (1, 1), (0, 1), (_X1, 1, None)),
]


def region_spec_oracle(body):
    """``region_spec(body)`` derived in Fractions from the body's Fraction
    vertices and parameters, region by region."""
    below, above = ((_X2, None, 0),), ((_X2, 1, None),)
    if isinstance(body, Type1Body):
        return _TYPE1_SPEC
    if isinstance(body, Type2Body):
        left, right = body.left.x1, body.right.x1
        inner = _pair(_X1, left, right, [((_X2, 0, 1),)])
        if body.a2 <= 2:  # the paper's bounds use the horizontal split on the whole unit square
            inner = [_high(_X2, body.a2, *region.pieces) for region in inner]
        sides = [_high(_X2, body.a2, ((_X1, None, 0),)), _high(_X2, body.a2, ((_X1, 1, None),))]
        return inner + sides + _pair(_X1, left, right, [above])
    if isinstance(body, QuadBody):
        return _pair(_X2, body.b2, body.a2) + _pair(_X1, body.c1, body.d1, [below, above])
    if isinstance(body, Type3Body):
        return (
            _pair(_X2, body.b2, body.c2)
            + _pair(_X1, body.c1, body.a1, [below])
            + _pair(_S, body.b1 + body.b2, body.a1 + body.a2, [above])
        )
    raise ValueError(f"no region decomposition for {body!r}")


def region_polygons(body):
    """Closed region decomposition, indexed from region 1: each region is a
    tuple of CCW piece polygons, the body clipped by each piece's bands."""
    out = []
    for region in region_spec_oracle(body):
        polys = []
        for piece in region.pieces:
            poly = body.polygon()
            for n, lo, hi in piece:
                normal = point(*n)
                if hi is not None:
                    poly = clip_halfplane(poly, normal, hi)
                if lo is not None and poly:
                    poly = clip_halfplane(poly, times(normal, -1), -lo)
            polys.append(poly)
        out.append(tuple(polys))
    return out


def region_area(pieces):
    return sum((polygon_area(p) for p in pieces), F(0))


def clip_area(pieces, normal, offset):
    """Exact area of a region (a tuple of piece polygons) cut by a half-plane."""
    return sum((polygon_area(clip_halfplane(p, normal, offset)) for p in pieces if len(p) >= 3), F(0))


def ccw(pts):
    """The vertex cycle as a list, reversed if it runs clockwise."""
    pts = list(pts)
    if shoelace_area(pts) < 0:
        pts.reverse()
    return pts


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


def directional_width(pts, u):
    vals = [dot(u, p) for p in pts]
    return max(vals) - min(vals)


def lattice_width_enumerated(body, radius=10):
    """Brute-force lattice width of a bounded body: the minimum width over
    the primitive directions with max-norm <= radius."""
    if radius < 1:
        raise ValueError(f"need radius >= 1, got {radius}")
    pts = body.polygon()
    return min(directional_width(pts, point(*u)) for u in primitive_directions(radius))


def sweep_grid_oracle(family, z, step, ranges=None):
    """``(params, w, bound)`` of each row that ``sweep_grid`` gives for the
    quad or t3 family, by brute force: every tuple of the grid is tried in
    loop order, b2 over its whole range, each bound comes from
    :func:`bound_oracle`, and the rows are sorted stably by lattice width,
    widest first."""
    ranges = ranges or {}

    def values(lo, hi):
        out = []
        while lo <= hi:
            out.append(lo)
            lo += step
        return out

    tuples = []
    if family == "quad":
        b1_lo, b1_hi = ranges.get("b1", (step, 1 - step))
        for a1 in values(*ranges.get("a1", (step, 1 - step))):
            for b1 in values(max(a1, b1_lo), b1_hi):
                for a2 in values(*ranges.get("a2", (1 + step, 2 - step))):
                    for b2 in values(*ranges.get("b2", (-(a2 - 1), -step))):
                        tuples.append((QuadBody, (a1, a2, b1, b2)))
    else:
        for a1 in values(*ranges.get("a1", (1 + step, 4))):
            for a2 in values(*ranges.get("a2", (step, 1 - step))):
                for b1 in values(*ranges.get("b1", (step, 1 - step))):
                    if b1 < a2 / (a1 + a2 - 1):
                        tuples.append((Type3Body, (a1, a2, b1)))
    rows = []
    for cls, params in tuples:
        try:
            body = cls(*params)
        except ValueError:
            continue
        rows.append((params, lattice_width(body), bound_oracle(body, z)))
    rows.sort(key=lambda row: row[1], reverse=True)
    return rows


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
                if best is not None and sum(sol) >= best:
                    continue
                s = [F(0)] * k
                for j, v in zip(vsub, sol):
                    s[j] = v
                if all(sum(c * x for c, x in zip(row, s)) >= 1 for row in rows):
                    best = sum(sol)
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
        return clip_area(region, times(normal, -1), const / (z - 1))
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


def _inside(lo, hi, max_denominator=60):
    """Rationals strictly between lo and hi: ``lo + (hi - lo) k / q`` with
    ``0 < k < q <= max_denominator``."""
    return st.integers(2, max_denominator).flatmap(
        lambda q: st.integers(1, q - 1).map(lambda k: lo + (hi - lo) * F(k, q))
    )


def _rat(lo, hi, max_denominator=10**4):
    """Rationals ``lo + (hi - lo) k / q`` with ``0 <= k <= q <= max_denominator``."""
    return st.integers(1, max_denominator).flatmap(
        lambda q: st.integers(0, q).map(lambda k: lo + (hi - lo) * F(k, q))
    )


def _nudged(value):
    """``value``, or ``value`` moved by ``±1/q``, ``q <= 10^4``, to either side of an edge."""
    nudge = st.builds(F, st.sampled_from((-1, 1)), st.integers(1, 10**4))
    return st.one_of(st.just(value), nudge.map(lambda e: value + e))


@st.composite
def quad_params(draw):
    """``(a1, a2, b1, b2)`` over and around the quad domain, with the edges
    a1 = b1 and -b2 = a2 - 1, and the two families of width ties
    a2 - b2 = d1 - c1: a1 = b1 with a2 - b2 = 2 (where also c2 = d2), and the
    point-symmetric quads a1 = 1 - b1 = 1/(1 + m^2), a2 - 1 = -b2 = m/(1 + m^2)."""
    family = draw(st.sampled_from(("free", "diagonal tie", "symmetric tie")))
    if family == "diagonal tie":
        t, a2 = draw(_inside(0, 1, 10**4)), draw(_rat(F(3, 2), 2))
        return t, a2, t, draw(_nudged(a2 - 2))
    if family == "symmetric tie":
        m = draw(st.one_of(st.just(F(1)), _inside(1, 10, 10**4)))
        t, h = 1 / (1 + m * m), m / (1 + m * m)
        return t, draw(_nudged(1 + h)), 1 - t, -h
    a1 = draw(st.one_of(_inside(0, 1, 10**4), _rat(F(-1, 4), F(5, 4), 8)))
    b1 = draw(st.one_of(st.just(a1), _rat(a1, 1), _rat(F(-1, 4), F(5, 4))))
    a2 = draw(st.one_of(_rat(1, 2), _rat(F(1, 2), 4)))
    b2 = draw(st.one_of(st.just(1 - a2), _rat(0, 1).map(lambda v: (1 - a2) * v), _rat(-3, F(1, 2))))
    return a1, a2, b1, b2


@st.composite
def t3_params(draw):
    """``(a1, a2, b1)`` over and around the type 3 domain, with the edge
    b1 + b2 = 0 and the two families of width ties: c2 - b2 equals
    a1 + a2 - (b1 + b2) when a2 = b1, and a1 - c1 when
    a2 = (a1^2 + a1 b1 - 2 a1 - b1 + 1) / (1 - b1)."""
    family = draw(st.sampled_from(("free", "inside", "sum tie", "c1 tie")))
    if family == "free":
        return draw(_rat(F(1, 2), 6)), draw(_rat(F(-1, 4), F(5, 4))), draw(_rat(F(-1, 4), F(5, 4)))
    a1, b1 = draw(_inside(1, 2 if family == "c1 tie" else 6, 10**4)), draw(_inside(0, 1, 10**4))
    if family == "sum tie":
        return a1, draw(_nudged(b1)), b1
    if family == "c1 tie":
        return a1, draw(_nudged((a1 * a1 + a1 * b1 - 2 * a1 - b1 + 1) / (1 - b1))), b1
    # b1 + b2 < 0 is b1 < a2 / (a1 + a2 - 1); the top of the range is its edge
    a2 = draw(_inside(0, 1, 10**4))
    return a1, a2, a2 / (a1 + a2 - 1) * draw(_rat(0, 1, 12))


@st.composite
def any_body(draw):
    """A valid body of any bounded family, with parameters over the whole
    domain (w near 1 and at 2, flat and tall type-2 apexes, a1 = b1 quads)."""
    family = draw(st.sampled_from(("type1", "type2", "quad", "t3")))
    if family == "type1":
        return Type1Body()
    if family == "type2":
        a2 = draw(st.one_of(_inside(1, 3), _inside(3, 60), st.just(F(2))))
        return Type2Body(draw(_inside(0, 1)), a2)
    try:
        if family == "quad":
            a1 = draw(_inside(0, 1))
            b1 = a1 + (1 - a1) * draw(st.one_of(st.just(0), _inside(0, 1, 12)))
            a2 = draw(st.one_of(_inside(1, 2), _inside(2, 4)))
            return QuadBody(a1, a2, b1, -(a2 - 1) * draw(_inside(0, 1, 12)))
        a1, a2 = draw(_inside(1, 6)), draw(_inside(0, 1))
        # b1 < a2 / (a1 - 1 + a2) is b1 + b2 < 0
        return Type3Body(a1, a2, a2 / (a1 - 1 + a2) * draw(_inside(0, 1, 12)))
    except ValueError:
        assume(False)


@st.composite
def root_vertex(draw, body, max_denominator=60):
    """A point strictly inside ``body`` whose coordinates have denominators
    up to ``max_denominator``, often on a lattice line x1 = k or x2 = k.

    One coordinate is drawn first, strictly inside the body's range of it;
    the other strictly inside the chord of the body on that line."""
    pts = [(p.x1, p.x2) for p in body.polygon()]
    axis = draw(st.sampled_from((0, 1)))
    q = draw(st.one_of(st.just(1), st.integers(2, max_denominator)))
    ts = [p[axis] for p in pts]
    t = F(draw(st.integers(floor(min(ts) * q) + 1, ceil(max(ts) * q) - 1)), q)
    ends = [
        a[1 - axis] + (t - a[axis]) * (b[1 - axis] - a[1 - axis]) / (b[axis] - a[axis])
        for a, b in zip(pts, pts[1:] + pts[:1])
        if min(a[axis], b[axis]) <= t <= max(a[axis], b[axis])
    ]
    q = draw(st.integers(1, max_denominator))
    lo, hi = floor(min(ends) * q) + 1, ceil(max(ends) * q) - 1
    assume(lo <= hi)
    s = F(draw(st.integers(lo, hi)), q)
    f = point(t, s) if axis == 0 else point(s, t)
    assert body.contains_interior(f)
    return f


@st.composite
def lattice_line_vertex(draw, body, max_denominator=60):
    """A point strictly inside ``body`` on a lattice line ``n . x = k`` of a
    normal of max-norm 1: x1, x2, x1 + x2 or x1 - x2 integral."""
    n1, n2 = draw(st.sampled_from(((1, 0), (0, 1), (1, 1), (1, -1))))
    pts = body.polygon()
    values = [n1 * p.x1 + n2 * p.x2 for p in pts]
    lo, hi = floor(min(values)) + 1, ceil(max(values)) - 1
    assume(lo <= hi)
    k = draw(st.integers(lo, hi))
    # the chord of the body on the line, between two boundary points
    ends = [
        plus(a, times(minus(b, a), (k - va) / (vb - va)))
        for (a, va), (b, vb) in zip(zip(pts, values), zip(pts[1:] + pts[:1], values[1:] + values[:1]))
        if va != vb and min(va, vb) <= k <= max(va, vb)
    ]
    a, b = min(ends, key=lambda p: (p.x1, p.x2)), max(ends, key=lambda p: (p.x1, p.x2))
    q = draw(st.integers(2, max_denominator))
    f = plus(a, times(minus(b, a), F(draw(st.integers(1, q - 1)), q)))
    assert body.contains_interior(f) and n1 * f.x1 + n2 * f.x2 == k
    return f


def region_t_bar(region, f):
    """The closed-form ``t_bar`` of a ``region_spec`` entry at ``f``, in
    Fractions: ``(num[0] + num[1] u) / (den[0] + den[1] u)``, ``u = normal . f``."""
    u = region.normal[0] * f.x1 + region.normal[1] * f.x2
    return (region.num[0] + region.num[1] * u) / (region.den[0] + region.den[1] * u)


def region_oracle(body, f):
    """``(index, region)`` of the first entry of ``region_spec_oracle(body)`` that
    ``_matches`` ``f``, from Fraction projections of ``f``, with the errors and
    messages of ``region_of``."""
    if isinstance(body, SplitBody):
        raise ValueError("splits have no region decomposition")
    if not interior_oracle(body, f):
        raise ValueError(f"root vertex {f} is not strictly interior to {body!r}")
    proj = {n: n[0] * f.x1 + n[1] * f.x2 for n in ((1, 0), (0, 1), (1, 1))}
    for i, region in enumerate(region_spec_oracle(body), start=1):
        if _matches(region, proj.__getitem__, lambda n: proj[n].denominator != 1):
            return i, region
    raise ValueError(f"no region of {body!r} has a split containing f = {f} strictly")


def corner_rays_oracle(body, f):
    """``corner_rays`` in Fractions: the rays ``v - f`` to the vertices, in
    the documented vertex order, with its errors and messages."""
    if isinstance(body, SplitBody):
        raise ValueError("a split has no vertices, hence no corner rays")
    if not interior_oracle(body, f):
        raise ValueError(f"root vertex {f} is not strictly interior to {body!r}")
    return tuple(minus(v, f) for v in body.vertices())


def closure_oracle(body, f, n):
    """``strength_split_closure_approx`` with the split rows scaled from the
    Fraction corner rays of :func:`corner_rays_oracle`."""
    if n < 1:
        raise ValueError("need n >= 1")
    d, big_f, big_rays = _scaled(f, corner_rays_oracle(body, f))
    rows = [_split_row(n1, n2, rem, d, big_rays) for n1, n2, rem in _admissible(n, d, big_f)]
    if not rows:
        raise ValueError(f"no admissible split with max-norm <= {n} for f = {f}")
    value, _ = _min_cover(rows, len(big_rays))
    return 1 / value


def enumerated_closure(body, f, n):
    """``strength_split_closure_approx`` as it was before it priced over the
    splits that can still cut: every split row of max-norm <= n, built in
    the integer frame, low max-norm first, goes to the packing kernel as one
    pool, and the kernel starts with no columns."""
    _check_radius(n)
    d, big_f, big_rays = _rays(body, f)
    rows = [_split_row(n1, n2, rem, d, big_rays) for n1, n2, rem in _admissible(n, d, big_f)]
    value, scale, _ = _max_packing([], len(big_rays), lambda s, d: rows)
    return F(scale, value)


def split_row_oracle(normal, f, rays):
    """The coefficients at ``rays`` of the split ``l <= normal . x <= l + 1``,
    ``l = floor(u)``, ``u = normal . f`` off the integers, in Fractions: the
    band's gauge, ``(normal . r) / (l + 1 - u)`` where ``normal . r > 0``, else
    ``(normal . r) / (l - u)``."""
    u = normal[0] * f.x1 + normal[1] * f.x2
    lo = floor(u)
    return tuple((nr := normal[0] * r.x1 + normal[1] * r.x2) / (lo + 1 - u if nr > 0 else lo - u) for r in rays)


def t_bar_oracle(body, f, split):
    """``t_bar`` at ``f`` for ``split`` from the Fraction corner rays of
    :func:`corner_rays_oracle`: the split's largest coefficient, which is
    the reciprocal of its one-row covering LP.  For type 1 (``split`` None)
    it is the N = 1 split closure: one over :func:`covering_lp_oracle` on
    the rows of the max-norm-1 splits that contain ``f`` strictly, less the
    rows that dominate another (they are implied, since ``s >= 0``)."""
    rays = corner_rays_oracle(body, f)
    if split is not None:
        return max(split_row_oracle(split, f, rays))
    normals = [n for n in ((1, 0), (0, 1), (1, 1), (1, -1)) if (n[0] * f.x1 + n[1] * f.x2).denominator != 1]
    rows = [split_row_oracle(n, f, rays) for n in normals]
    minimal = [r for r in rows if not any(o != r and all(map(le, o, r)) for o in rows)]
    return 1 / covering_lp_oracle(minimal, len(rays))


def single_split_oracle(body, f):
    """``(index, split, t_bar)`` of ``strength_single_split`` in Fractions:
    the region and its split from :func:`region_oracle`, ``t_bar`` from
    :func:`t_bar_oracle`.  Neither reads the region table or the integer
    frame, so comparing with it checks the table's closed form."""
    index, region = region_oracle(body, f)
    return index, region.split, t_bar_oracle(body, f, region.split)


# The Fraction derivation of the bound pieces: the paper's closed forms,
# evaluated in unreduced rationals.  cutstrength.bounds writes each piece as a
# closed form over the body's integers; every piece must equal its form here.


class _Ratio:
    """An unreduced rational ``numerator / denominator`` with a positive
    denominator, for evaluating the bound pieces.

    Each operation is a few integer products and no gcd, so a bound costs one
    reduction, in :func:`bound_oracle`.  It works against ints,
    Fractions and itself, all of which carry ``numerator`` and
    ``denominator``; it has no comparisons.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int = 1):
        self.numerator = numerator
        self.denominator = denominator

    def __add__(self, other) -> "_Ratio":
        n, d = other.numerator, other.denominator
        return _Ratio(self.numerator * d + n * self.denominator, self.denominator * d)

    __radd__ = __add__

    def __sub__(self, other) -> "_Ratio":
        n, d = other.numerator, other.denominator
        return _Ratio(self.numerator * d - n * self.denominator, self.denominator * d)

    def __rsub__(self, other) -> "_Ratio":
        n, d = other.numerator, other.denominator
        return _Ratio(n * self.denominator - self.numerator * d, self.denominator * d)

    def __mul__(self, other) -> "_Ratio":
        return _Ratio(self.numerator * other.numerator, self.denominator * other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "_Ratio":
        return _quotient(self.numerator * other.denominator, self.denominator * other.numerator)

    def __rtruediv__(self, other) -> "_Ratio":
        return _quotient(other.numerator * self.denominator, other.denominator * self.numerator)

    def __neg__(self) -> "_Ratio":
        return _Ratio(-self.numerator, self.denominator)

    def __pow__(self, k: int) -> "_Ratio":
        if k < 0:
            return 1 / self ** -k
        return _Ratio(self.numerator**k, self.denominator**k)


def _quotient(n: int, d: int) -> _Ratio:
    if d > 0:
        return _Ratio(n, d)
    if d < 0:
        return _Ratio(-n, -d)
    raise ZeroDivisionError("division by zero in a bound piece")


def _ratio_of(value):
    return _Ratio(value.numerator, value.denominator)


def _const_oracle(value):
    v = _Ratio(value)
    return lambda z: v


_ZERO = _const_oracle(0)


def t1_bound_oracle():
    """``(breaks, fns, scale)`` of ``t1_bound()``: the exact type 1 probability."""

    def middle(z):
        return _Ratio(3, 4) * ((2 * z - 3) / (z - 1)) ** 2

    return ((F(3, 2), F(2)),), ((_ZERO, middle, _const_oracle(1)),), F(1)


def t2_bound_oracle(w):
    """``(breaks, fns, scale)`` of ``t2_bound(w)``, seeded with the Fraction width."""
    breaks = (w, w / (w - 1))
    w = _ratio_of(w)

    def g1(z):
        return (z - w) * (2 * w * z - w - z) / (w**2 * (z - 1) ** 2)

    def g2(z):
        return ((w - 1) ** 2 * (z - 1) ** 2 - 1) / (w**2 * (z - 1) ** 2)

    return (breaks,), ((_ZERO, g1, lambda z: g1(z) + g2(z)),), F(1)


def quad_bound_oracle(body):
    """``(breaks, fns, scale)`` of ``quad_bound(body)`` derived in Fraction
    arithmetic: the breaks and the area from the body's Fraction vertices,
    and the pieces seeded with those Fractions."""
    a1, a2, b1, b2 = body.a1, body.a2, body.b1, body.b2
    c1, c2, d1, d2 = body.c1, body.c2, body.d1, body.d2
    w = a2 - b2
    breaks = (
        (w, (c2 - b2) / c2),
        (w, (a2 - d2) / (1 - d2)),
        (d1 - c1, (a1 - c1) / a1),
        (d1 - c1, (d1 - b1) / (1 - b1)),
    )
    a1, a2, b1, b2, c1, c2, d1, d2, w = map(_ratio_of, (a1, a2, b1, b2, c1, c2, d1, d2, w))
    return breaks, _quad_pieces(a1, a2, b1, b2, c1, c2, d1, d2, w), area(body)


def t3_bound_oracle(body):
    """``(breaks, fns, scale)`` of ``t3_bound(body)`` derived in Fraction
    arithmetic, as :func:`quad_bound_oracle`."""
    a1, a2, b1 = body.a1, body.a2, body.b1
    b2, c1, c2 = body.b2, body.c1, body.c2
    w = c2 - b2
    s_low = (c1 + c2) / c2
    breaks = (
        (w, (a2 - b2) / a2),
        (a1 - c1, (b1 - c1) / b1),
        ((a1 + a2 - s_low) / (1 - s_low), (a1 + a2 - (c1 + c2)) / (1 - (c1 + c2))),
    )
    a1, a2, b1, b2, c1, c2, w, s_low = map(_ratio_of, (a1, a2, b1, b2, c1, c2, w, s_low))
    return breaks, _t3_pieces(a1, a2, b1, b2, c1, c2, w, s_low), area(body)


def _quad_pieces(a1, a2, b1, b2, c1, c2, d1, d2, w):
    """The pieces ``(fns, ...)`` of the quad bound's four terms, one per
    region, from the vertices and the width as :class:`_Ratio` values."""
    half = _Ratio(1, 2)

    def r1_mid(z):
        return half * (-b2 / (w - 1) - -b2 / (z - 1)) * (
            (w - (b1 - a1)) / (w - 1) + (z - b1) / (z - 1) + a1 * (z - 1 + b2) / ((a2 - 1) * (z - 1))
        )

    def r1_tail(z):
        edge = (a1 * (b2 - 1) - (a2 - 1) * b1) / (a1 * b2 - (a2 - 1) * b1)
        return half * (-b2 / (w - 1) - c2) * ((w - (b1 - a1)) / (w - 1) + edge) + half * (
            c2 - -b2 / (z - 1)
        ) * (z / (z - 1) + edge)

    def r2_mid(z):
        return half * ((z - a2) / (z - 1) - -b2 / (w - 1)) * (
            (w - (b1 - a1)) / (w - 1) + (z - 1 + a1) / (z - 1) + (z - a2) * (b1 - 1) / (b2 * (z - 1))
        )

    def r2_tail(z):
        edge = (a2 * (1 - b1) - (1 - a1) * b2) / ((a2 - 1) * (1 - b1) - (1 - a1) * b2)
        return half * ((z - a2) / (z - 1) - d2) * (z / (z - 1) + edge) + half * (
            d2 - -b2 / (w - 1)
        ) * ((w - (b1 - a1)) / (w - 1) + edge)

    def r3_mid(z):
        return half * (-c1 / (d1 - c1 - 1) - -c1 / (z - 1)) * (
            (a2 - 1) * (d1 - 1) / ((1 - a1) * (d1 - c1 - 1))
            + (a2 - 1) * (z - 1 + c1) / ((1 - a1) * (z - 1))
            + c2 / (d1 - c1 - 1)
            + c2 / (z - 1)
        )

    def r3_tail(z):
        return half * (-c1 / (d1 - c1 - 1) - a1) * (
            (a2 - 1) * (2 - a1) / (1 - a1)
            - a1 * b2 / b1
            + (c1 * (a2 - 1) + c2 * (1 - a1)) / ((1 - a1) * (d1 - c1 - 1))
        ) + half * (a1 - -c1 / (z - 1)) * (
            a2 - 1 - a1 * b2 / b1 + (a1 * c2 - c1 * (a2 - 1)) / (a1 * (z - 1))
        )

    def r4_mid(z):
        return (
            half
            * (d1 - 1)
            * (z - d1 + c1)
            / ((z - 1) * (d1 - c1 - 1))
            * (
                (c2 * (1 - a1) + (a2 - 1) * (d1 - 1)) / ((1 - a1) * (d1 - c1 - 1))
                + (a2 - 1) * (d1 - 1) / ((1 - a1) * (z - 1))
                - b2 * (z - d1) / (b1 * (z - 1))
            )
        )

    def r4_tail(z):
        return half * (b1 - -c1 / (d1 - c1 - 1)) * (
            (c2 * (1 - a1) + c1 * (a2 - 1)) / ((1 - a1) * (d1 - c1 - 1))
            + ((a2 - 1) * (2 - b1) - b2 * (1 - a1)) / (1 - a1)
        ) + half * ((z - d1) / (z - 1) - b1) * (
            (a2 - 1) * (z - d1) / ((a1 - 1) * (z - 1))
            - b2 * (d1 - 1) / ((1 - b1) * (z - 1))
            + ((a2 - 1) * (2 - b1) - b2 * (1 - a1)) / (1 - a1)
        )

    return (
        (_ZERO, r1_mid, r1_tail),
        (_ZERO, r2_mid, r2_tail),
        (_ZERO, r3_mid, r3_tail),
        (_ZERO, r4_mid, r4_tail),
    )


def _t3_pieces(a1, a2, b1, b2, c1, c2, w, s_low):
    """The pieces ``(fns, ...)`` of the type 3 bound's three terms from the
    vertices, the width and ``s_low`` as :class:`_Ratio` values."""
    half = _Ratio(1, 2)

    def r12_mid(z):
        # trapezoid between the two horizontal cut lines plus the upper piece
        t1 = half * (-b2 / (w - 1) - -b2 / (z - 1)) * (
            b1 / (w - 1)
            + b1 / (z - 1)
            + a1 / (1 - a2) * ((c2 - 1) / (w - 1) + (z - 1 + b2) / (z - 1))
        )
        return t1 + _r2_piece(z)

    def r12_tail(z):
        t2 = half * (-b2 / (w - 1) - a2) * (
            ((1 - a2) * b1 + a1 * (c2 - 1)) / ((1 - a2) * (w - 1)) - (a2 * b1 - a1 * b2) / b2
        ) + half * (a2 - -b2 / (z - 1)) * (
            (a2 * b1 - (a1 - 1) * b2) / (a2 * (z - 1)) - (a2 * b1 - (a1 + 1) * b2) / b2
        )
        return t2 + _r2_piece(z)

    def _r2_piece(z):
        return half * ((z - c2) / (z - 1) - -b2 / (w - 1)) * (
            b1 / (w - 1)
            - b1 * (z - c2) / (b2 * (z - 1))
            + a1 / (1 - a2) * ((c2 - 1) / (w - 1) + (c2 - 1) / (z - 1))
        )

    def r34_lo(z):
        t4 = half * (-c1 / (a1 - c1 - 1) - -c1 / (z - 1)) * (
            a2 / (a1 - c1 - 1) + a2 * (z - 1 + c1) / ((a1 - 1) * (z - 1))
        )
        t6 = half * ((z - a1) / (z - 1) - -c1 / (a1 - c1 - 1)) * (a2 / (a1 - c1 - 1) + a2 / (z - 1))
        return t4 + t6

    def r34_hi(z):
        overlap = half * a2 / (b1 * (a1 - 1)) * ((b1 * (z - 1) + c1) / (z - 1)) ** 2
        return r34_lo(z) - overlap

    def r6_mid(z):
        sigma = (z - (a1 + a2)) / (z - 1)
        return half * (sigma - s_low) ** 2 / s_low

    def r6_tail(z):
        t13 = half * (c2 - 1) ** 2
        t14 = half * (b1 / b2 - c1) * (c2 - 1)
        t16 = half * (1 - (c1 + c2) - (a1 + a2 - 1) / (z - 1)) * (c2 - (z - a2) / (z - 1))
        t17 = (1 - a2) / (z - 1) * (1 - (c1 + c2) - (a1 + a2 - 1) / (z - 1))
        return t13 - t14 + t16 + t17

    return ((_ZERO, r12_mid, r12_tail), (_ZERO, r34_lo, r34_hi), (_ZERO, r6_mid, r6_tail))


def pieces_oracle(body):
    """``(breaks, fns, scale)`` of ``piecewise_bound_for(body)`` from the
    Fraction derivation, for any bounded family."""
    if isinstance(body, Type1Body):
        return t1_bound_oracle()
    if isinstance(body, Type2Body):
        return t2_bound_oracle(lattice_width(body))
    return (quad_bound_oracle if isinstance(body, QuadBody) else t3_bound_oracle)(body)


def bound_oracle(body, z):
    """The bound at ``z`` from the Fraction derivation, each term's piece
    picked by ``bisect_right`` on its Fraction breaks."""
    breaks, fns, scale = pieces_oracle(body)
    zr = _ratio_of(z)
    total = sum((f[bisect_right(b, z)](zr) for b, f in zip(breaks, fns)), _Ratio(0))
    return F(total.numerator, total.denominator) / scale


def t2_region_integrals(a, z) -> tuple[F, F, F]:
    """Aggregated region integrals (R1+R2, R3+R4, R5+R6) for a type 2 body.

    Their sum divided by the body area equals ``t2_bound(w)(z)`` at the body's
    lattice width ``w``, exactly.
    """
    if isinstance(a, Type2Body):
        body = a
    elif isinstance(a, Rational2):
        body = Type2Body(a.x1, a.x2)
    else:
        body = Type2Body(*a)
    z = _frac(z)
    if z <= 1:
        raise ValueError(f"threshold must satisfy z > 1, got {z}")
    a2 = body.a2
    steep = a2 / (a2 - 1)

    if a2 <= 2:
        r12 = F(0) if z <= a2 else (z - a2) / (z - 1)
    else:
        r12 = F(0) if z <= steep else 1 - 1 / ((a2 - 1) * (z - 1))
    r34 = F(0) if z <= a2 else (z - a2) * (z + a2 - 2) / (2 * (a2 - 1) * (z - 1) ** 2)
    r56 = (
        F(0)
        if z <= steep
        else (a2 - 1) / 2 * (1 - 1 / ((a2 - 1) ** 2 * (z - 1) ** 2))
    )
    return r12, r34, r56


# The row-wise Monte Carlo kernel: points as an (n, 2) array, the fold as
# masked writes, the triangle by searchsorted.  The column kernel of
# cutstrength.montecarlo must reproduce its points and t_bar values bit for bit.


def fan_triangles_oracle(body):
    """Fan triangulation from vertex 0 with float vertex arrays and exact
    cumulative area weights."""
    import numpy as np

    poly = body.polygon()
    v0 = poly[0]
    tris = []
    areas = []
    for p, q in zip(poly[1:], poly[2:]):
        tris.append((v0, p, q))
        areas.append((p.x1 - v0.x1) * (q.x2 - v0.x2) - (p.x2 - v0.x2) * (q.x1 - v0.x1))
    total = sum(areas)
    cum = np.cumsum([float(a / total) for a in areas])
    cum[-1] = 1.0  # guard against float round-off at the top
    origin = np.array([float(v0.x1), float(v0.x2)])
    edge1 = np.array([[float(p.x1 - v0.x1), float(p.x2 - v0.x2)] for _, p, _ in tris])
    edge2 = np.array([[float(q.x1 - v0.x1), float(q.x2 - v0.x2)] for _, _, q in tris])
    return cum, origin, edge1, edge2


def fan_fraction_oracle(body):
    """``_fan_triangles(body)`` worked out on the Fraction vertices: each
    float is ``float()`` of an exact Fraction."""
    import numpy as np

    poly = body.polygon()
    v0 = poly[0]
    # triangle k spans edges[k] and edges[k + 1]
    edges = [(p.x1 - v0.x1, p.x2 - v0.x2) for p in poly[1:]]
    areas = [a1 * b2 - a2 * b1 for (a1, a2), (b1, b2) in zip(edges, edges[1:])]
    total = sum(areas)
    breaks = np.cumsum([float(a / total) for a in areas])[:-1]
    e1x, e1y = (np.array([float(c) for c in column]) for column in zip(*edges[:-1]))
    e2x, e2y = (np.array([float(c) for c in column]) for column in zip(*edges[1:]))
    return breaks, (float(v0.x1), float(v0.x2)), (e1x, e1y, e2x, e2y)


def sample_points_oracle(body_tri, seed: int, start: int, count: int) -> np.ndarray:
    import numpy as np

    cum, origin, edge1, edge2 = body_tri
    bg = np.random.Philox(key=seed, counter=[start, 0, 0, 0])
    u = np.random.Generator(bg).random(count * 4).reshape(count, 4)
    tri = np.searchsorted(cum, u[:, 0], side="right")
    tri = np.minimum(tri, len(cum) - 1)
    r1, r2 = u[:, 1].copy(), u[:, 2].copy()
    flip = r1 + r2 > 1.0
    r1[flip] = 1.0 - r1[flip]
    r2[flip] = 1.0 - r2[flip]
    return origin + r1[:, None] * edge1[tri] + r2[:, None] * edge2[tri]


def t_bar_evaluator_oracle(body):
    """Vectorized float ``t_bar`` derived from ``region_spec_oracle(body)``.

    Each point takes the formula of the first region that ``_matches`` it, as
    in ``region_of``; every constant is ``float()`` of the exact one.
    A point that float round-off puts in no region gets NaN.
    """
    import numpy as np

    spec = region_spec_oracle(body)
    normals = {n for region in spec for piece in region.pieces for n, _, _ in piece}
    splits = {region.split for region in spec if region.split is not None}
    # coefficients by region index; the extra last entry is for a point in no region
    table = [[*r.normal, *r.num, *r.den] for r in spec] + [[0, 0, np.nan, 0, 1, 0]]
    n1, n2, p0, p1, q0, q1 = (np.array(column, dtype=float) for column in zip(*table))

    def evaluate(pts: np.ndarray) -> np.ndarray:
        x1, x2 = pts[:, 0], pts[:, 1]
        proj = {n: n[0] * x1 + n[1] * x2 for n in normals}
        strict = {n: np.floor(proj[n]) != proj[n] for n in splits}
        # index of the first region that matches, len(spec) where none
        # does: later regions are written first, so earlier ones win.  uint8
        # arithmetic, since masked writes cost several times more on random
        # masks; the wraparound of (i - first) cancels in first + (i - first).
        first = np.full(len(pts), len(spec), dtype=np.uint8)
        for i in reversed(range(len(spec))):
            matched = _matches(spec[i], proj.__getitem__, strict.__getitem__, float)
            first += (np.uint8(i) - first) * matched
        first = first.astype(np.intp)
        # the normals' and slopes' entries are 0 and +-1, so u and the affine
        # parts round exactly as the closed forms written out would
        u = n1[first] * x1 + n2[first] * x2
        with np.errstate(divide="ignore", invalid="ignore"):
            return (p0[first] + p1[first] * u) / (q0[first] + q1[first] * u)

    return evaluate
