"""Split cuts, region assignment, and single-split / finite-closure strength.

The strength of adding a body's cut on top of split cuts is always the
reciprocal of a small covering LP over the corner rays (scaled to gauge 1):

* one split row  -> the single-split value ``t_bar``,
* all primitive normals up to a max-norm radius -> the finite split-closure
  approximation ``t_N`` (an upper bound on the true closure strength, and
  nonincreasing in N).

For every non-split body the region table gives ``t_bar`` in closed form;
``strength_single_split`` evaluates both routes and insists they agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import ceil, floor, gcd, inf
from operator import and_, or_
from typing import Optional, Sequence

from .geometry import (
    LatticeFreeBody,
    QuadBody,
    Rational2,
    SplitBody,
    Type1Body,
    Type2Body,
    Type3Body,
    clip_halfplane,
    corner_rays,
    point,
    polygon_area,
    primitive_directions,
)


@dataclass(frozen=True)
class SplitCut:
    """One split inequality: primitive normal, offset floor(normal . f), and a
    nonnegative coefficient per ray."""

    normal: tuple[int, int]
    offset: int
    coefficients: tuple[Fraction, ...]


@dataclass(frozen=True)
class RegionId:
    """Region index within a body's decomposition, e.g. RegionId('type2', 3)."""

    family: str
    index: int

    def __str__(self):
        return f"R{self.index}"


@dataclass(frozen=True)
class StrengthReport:
    region: RegionId
    chosen_split_normal: Optional[tuple[int, int]]
    t_bar: Fraction
    t_n: Optional[Fraction] = None
    n: Optional[int] = None


def _primitive(normal: Sequence[int]) -> tuple[int, int]:
    n1, n2 = int(normal[0]), int(normal[1])
    if (n1, n2) == (0, 0) or gcd(abs(n1), abs(n2)) != 1:
        raise ValueError(f"normal must be a primitive integer pair, got {normal}")
    return n1, n2


def split_coefficients(normal: Sequence[int], f: Rational2, rays: Sequence[Rational2]) -> SplitCut:
    """Coefficients of the split ``{floor(n.f) <= n.x <= ceil(n.f)}`` at each ray."""
    n1, n2 = _primitive(normal)
    nf = n1 * f.x1 + n2 * f.x2
    if nf.denominator == 1:
        raise ValueError(f"normal . f = {nf} is integral: f is not interior to the split")
    lo, hi = Fraction(floor(nf)), Fraction(ceil(nf))
    coeffs = []
    for r in rays:
        if r.is_zero():
            raise ValueError("rays must be nonzero")
        nr = n1 * r.x1 + n2 * r.x2
        if nr > 0:
            coeffs.append(nr / (hi - nf))
        elif nr == 0:
            coeffs.append(Fraction(0))
        else:
            coeffs.append(nr / (lo - nf))
    return SplitCut((n1, n2), floor(nf), tuple(coeffs))


# ---------------------------------------------------------------------------
# covering LP


def covering_lp_min(rows: Sequence[Sequence[Fraction]], k: int):
    """Minimize ``sum(s)`` subject to ``row . s >= 1`` for every row, ``s >= 0``.

    Solved exactly as its dual by :func:`_max_packing`.  Returns
    ``(value, argmin)``; ``(inf, None)`` when some row is identically zero
    (uncoverable).
    """
    if k > 4:
        raise ValueError("only up to 4 variables are supported")
    if not rows:
        raise ValueError("need at least one row")
    mat = [tuple(Fraction(c) for c in row) for row in rows]
    for row in mat:
        if len(row) != k:
            raise ValueError(f"row length {len(row)} != k = {k}")
        if any(c < 0 for c in row):
            raise ValueError("covering data must be nonnegative")
    if any(all(c == 0 for c in row) for row in mat):
        return inf, None

    # dominance pruning: a row with componentwise-larger coefficients is
    # implied by the smaller row (s >= 0), so only minimal rows matter
    mat = sorted(set(mat))
    kept: list[tuple[Fraction, ...]] = []
    for row in mat:
        if any(all(o[j] <= row[j] for j in range(k)) for o in kept):
            continue
        kept = [o for o in kept if not all(row[j] <= o[j] for j in range(k))]
        kept.append(row)
    return _max_packing(kept, k)


def _max_packing(rows: list[tuple[Fraction, ...]], k: int):
    """The dual ``max sum(y)`` s.t. ``sum_i y_i rows[i] <= 1``, ``y >= 0``, by
    the simplex method on Fractions.

    The all-slack basis is feasible because the right-hand side is 1, and
    Bland's rule (lowest improving column, ties in the ratio test to the lowest
    basic column) keeps degenerate pivots from cycling.  Every row has a
    positive entry, so the covering LP is feasible, this dual is bounded and
    the ratio test always finds a pivot.  At the optimum the objective entries
    of the slack columns are the covering LP's argmin.
    """
    m = len(rows)
    # constraint j: sum_i rows[i][j] y_i + slack_j = 1; columns y, slacks, rhs
    tab = [
        [row[j] for row in rows] + [Fraction(i == j) for i in range(k)] + [Fraction(1)]
        for j in range(k)
    ]
    obj = [Fraction(-1)] * m + [Fraction(0)] * (k + 1)
    basis = [m + j for j in range(k)]
    while True:
        col = next((c for c, v in enumerate(obj[:-1]) if v < 0), None)
        if col is None:
            return obj[-1], tuple(obj[m:-1])
        _, _, r = min((t[-1] / t[col], basis[i], i) for i, t in enumerate(tab) if t[col] > 0)
        pivot = tab[r] = [v / tab[r][col] for v in tab[r]]
        for t in (*tab, obj):
            factor = t[col]
            if factor and t is not pivot:
                t[:] = [a - factor * b if b else a for a, b in zip(t, pivot)]
        basis[r] = col


# ---------------------------------------------------------------------------
# regions

# A band ``(normal, lo, hi)`` is the closed set ``lo <= normal . f <= hi``;
# ``None`` leaves that side open.
Band = tuple[tuple[int, int], Optional[Fraction], Optional[Fraction]]

_X1, _X2, _S = (1, 0), (0, 1), (1, 1)


@dataclass(frozen=True)
class Region:
    """One region of a body's decomposition and its closed-form ``t_bar``.

    The region is the union of ``pieces``, each an intersection of closed
    bands.  On it ``t_bar = (num[0] + num[1] u) / (den[0] + den[1] u)`` with
    ``u = normal . f``.  ``split`` is the normal of the single split used on
    the region; it is None for type 1, whose strength needs all three facet
    splits.
    """

    pieces: tuple[tuple[Band, ...], ...]
    split: Optional[tuple[int, int]]
    normal: tuple[int, int]
    num: tuple[Fraction, Fraction]
    den: tuple[Fraction, Fraction]

    def t_bar(self, f: Rational2) -> Fraction:
        u = _dot(self.normal, f)
        return (self.num[0] + self.num[1] * u) / (self.den[0] + self.den[1] * u)


def _dot(normal: tuple[int, int], f: Rational2) -> Fraction:
    return normal[0] * f.x1 + normal[1] * f.x2


def _holds(pieces, dot, num=lambda c: c):
    """Whether a point lies in the union of band intersections, given
    ``dot(normal) = normal . f`` and ``num``, which turns a band constant into
    the point's number type.  Elementwise when ``dot`` returns arrays."""

    def band(n, lo, hi):
        return (lo is None or num(lo) <= dot(n)) & (hi is None or dot(n) <= num(hi))

    return reduce(or_, (reduce(and_, (band(*b) for b in piece)) for piece in pieces))


def _matches(region, dot, strict, num=lambda c: c):
    """Whether a point lies in ``region`` and strictly inside its chosen split,
    with ``dot`` and ``num`` as in :func:`_holds` and ``strict(normal)`` telling
    whether ``normal . f`` is off the integers.  A point on a lattice line of
    the region's split is left to a later region whose split contains it."""
    held = _holds(region.pieces, dot, num)
    return held if region.split is None else held & strict(region.split)


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
    t = -low / (high - low - 1)
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


def region_spec(body: LatticeFreeBody) -> list[Region]:
    """The body's regions in index order, region 1 first.  Matching the closed
    regions in this order sends a boundary point to its smallest-index region
    (see :func:`_matches` for points on a lattice line)."""
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


def region_polygons(body: LatticeFreeBody) -> list[tuple[list[Rational2], ...]]:
    """Closed region decomposition, indexed from region 1: each region is a
    tuple of CCW piece polygons, the body clipped by each piece's bands."""
    out = []
    for region in region_spec(body):
        polys = []
        for piece in region.pieces:
            poly = body.polygon()
            for n, lo, hi in piece:
                normal = point(*n)
                if hi is not None:
                    poly = clip_halfplane(poly, normal, hi)
                if lo is not None and poly:
                    poly = clip_halfplane(poly, -normal, -lo)
            polys.append(poly)
        out.append(tuple(polys))
    return out


def region_area(pieces: Sequence[Sequence[Rational2]]) -> Fraction:
    return sum((polygon_area(p) for p in pieces), Fraction(0))


def region_of(body: LatticeFreeBody, f: Rational2) -> RegionId:
    """The first region of ``region_spec(body)`` that :func:`_matches` ``f``:
    boundary points go to the smallest-index adjacent region whose split
    contains ``f`` strictly."""
    if isinstance(body, SplitBody):
        raise ValueError("splits have no region decomposition")
    if not body.contains_interior(f):
        raise ValueError(f"root vertex {f} is not strictly interior to {body!r}")
    def dot(n):
        return _dot(n, f)

    for i, region in enumerate(region_spec(body), start=1):
        if _matches(region, dot, lambda n: dot(n).denominator != 1):
            return RegionId(body.tag, i)
    raise ValueError(f"no region of {body!r} has a split containing f = {f} strictly")


def chosen_split(body: LatticeFreeBody, region: RegionId) -> tuple[int, int]:
    """Normal of the single split used in the given region."""
    spec = region_spec(body)
    split = spec[region.index - 1].split if 1 <= region.index <= len(spec) else None
    if split is None:
        raise ValueError(f"no split choice for {body!r}, region {region}")
    return split


# ---------------------------------------------------------------------------
# strength


def strength_single_split(body: LatticeFreeBody, f: Rational2) -> StrengthReport:
    """Single-split strength ``t_bar`` at ``f`` for the split of ``f``'s
    region: region-table closed form, cross-checked exactly against the
    one-row covering-LP reciprocal.  Each region uses the split of the
    paper's bounds, which is not always the best single split at ``f``.

    For the type 1 triangle the full split closure is generated by the three
    facet normals, so the exact closure strength is reported instead and no
    single split is singled out.
    """
    region = region_of(body, f)
    rays = corner_rays(body, f)
    entry = region_spec(body)[region.index - 1]
    normal = entry.split
    if normal is None:
        t_lp = strength_split_closure_approx(body, f, 1)
    else:
        cut = split_coefficients(normal, f, rays)
        value, _ = covering_lp_min([cut.coefficients], len(rays))
        t_lp = 1 / value
    t_table = entry.t_bar(f)
    if t_table != t_lp:
        raise AssertionError(
            f"strength table value {t_table} disagrees with the covering-LP value {t_lp} "
            f"for {body!r}, f={f}, region {region}"
        )
    return StrengthReport(region=region, chosen_split_normal=normal, t_bar=t_table)


def admissible_normals(f: Rational2, n: int) -> list[tuple[int, int]]:
    """Primitive normals with max-norm <= n whose split contains ``f`` strictly,
    deduplicated over +-."""
    return [(n1, n2) for n1, n2 in primitive_directions(n) if (n1 * f.x1 + n2 * f.x2).denominator != 1]


def strength_split_closure_approx(body: LatticeFreeBody, f: Rational2, n: int) -> Fraction:
    """Finite split-closure strength ``t_N``: all splits with max-norm <= n."""
    if n < 1:
        raise ValueError("need n >= 1")
    rays = corner_rays(body, f)
    normals = admissible_normals(f, n)
    if not normals:
        raise ValueError(f"no admissible split with max-norm <= {n} for f = {f}")
    rows = [split_coefficients(nrm, f, rays).coefficients for nrm in normals]
    value, _ = covering_lp_min(rows, len(rays))
    return 1 / value


def strength_report(body: LatticeFreeBody, f: Rational2, n: int = 5) -> StrengthReport:
    """Full report: region, chosen split, single-split t_bar, and t_N."""
    base = strength_single_split(body, f)
    t_n = strength_split_closure_approx(body, f, n)
    return StrengthReport(
        region=base.region,
        chosen_split_normal=base.chosen_split_normal,
        t_bar=base.t_bar,
        t_n=t_n,
        n=n,
    )
