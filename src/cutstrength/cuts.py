"""Split cuts, region assignment, and single-split / finite-closure strength.

The strength of adding a body's cut on top of split cuts is always the
reciprocal of a small covering LP over the corner rays (scaled to gauge 1):

* one split row  -> the single-split value ``t_bar``, which for one row is
  just the row's largest coefficient,
* all primitive normals up to a max-norm radius -> the finite split-closure
  approximation ``t_N`` (an upper bound on the true closure strength, and
  nonincreasing in N).

For every non-split body the region table gives ``t_bar`` in closed form;
``strength_single_split`` evaluates both routes and insists they agree.

Both run in the body's integer frame: f is scaled once to ``(X1, X2) / q``,
tested on the integer facets and matched against the body's integer region
table, built from the integers the body already has and kept between queries
on the same body object.  :func:`region_spec` is that table's exact Fraction
view; :func:`region_of` and the strength queries do not read it.
``t_N`` hands every split row to the packing kernel as a pool, low max-norm
first, and the kernel prices in only the rows it needs; the dominance
pruning of :func:`covering_lp_min` stays for the argmin it returns.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from math import gcd, inf, lcm
from operator import and_, le, mul, or_
from typing import Optional, Sequence

from .geometry import (
    LatticeFreeBody,
    QuadBody,
    Rational2,
    SplitBody,
    Type1Body,
    Type2Body,
    Type3Body,
    corner_rays,  # unused here, but callers look it up as cuts.corner_rays
    over_common_denominator,
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


def _scaled(f: Rational2, rays: Sequence[Rational2]):
    """The common denominator ``D`` of ``f`` and the rays, with ``D f`` and
    each ``D r`` as integer pairs."""
    d, ints = over_common_denominator((f.x1, f.x2, *(c for r in rays for c in (r.x1, r.x2))))
    return d, (ints[0], ints[1]), list(zip(ints[2::2], ints[3::2]))


def _admissible(radius: int, d: int, big_f: tuple[int, int]):
    """``(n1, n2, rem)`` for each primitive normal of max-norm <= radius whose
    split contains ``f = big_f / d`` strictly, ``rem = (n . big_f) mod d``."""
    for n1, n2 in primitive_directions(radius):
        rem = (n1 * big_f[0] + n2 * big_f[1]) % d
        if rem:
            yield n1, n2, rem


def _split_row(n1: int, n2: int, rem: int, d: int, big_rays) -> tuple[int, list[int]]:
    """The split's coefficients as integers over one scale, ``(scale, ints)``:
    ray ``r`` gets ``(n . R) rem`` if ``n . R > 0``, else ``-(n . R) (d - rem)``,
    over ``rem (d - rem)``, where ``R = d r``."""
    row = []
    for r1, r2 in big_rays:
        nr = n1 * r1 + n2 * r2
        row.append(nr * rem if nr > 0 else -nr * (d - rem))
    return rem * (d - rem), row


def split_coefficients(normal: Sequence[int], f: Rational2, rays: Sequence[Rational2]) -> SplitCut:
    """Coefficients of the split ``{floor(n.f) <= n.x <= ceil(n.f)}`` at each ray."""
    n1, n2 = _primitive(normal)
    d, big_f, big_rays = _scaled(f, rays)
    offset, rem = divmod(n1 * big_f[0] + n2 * big_f[1], d)
    if rem == 0:
        raise ValueError(f"normal . f = {offset} is integral: f is not interior to the split")
    if any(r.is_zero() for r in rays):
        raise ValueError("rays must be nonzero")
    scale, row = _split_row(n1, n2, rem, d, big_rays)
    return SplitCut((n1, n2), offset, tuple(Fraction(c, scale) for c in row))


# ---------------------------------------------------------------------------
# covering LP


def covering_lp_min(rows: Sequence[Sequence[Fraction]], k: int):
    """Minimize ``sum(s)`` subject to ``row . s >= 1`` for every row, ``s >= 0``.

    Each row is scaled to integers by the lcm of its denominators and solved
    by :func:`_min_cover`.  Returns ``(value, argmin)``; ``(inf, None)`` when
    some row is identically zero (uncoverable).
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
    return _min_cover([over_common_denominator(row) for row in mat], k)


def _min_cover(rows, k: int, prune: bool = True):
    """:func:`covering_lp_min` on integer rows: ``(scale, ints)`` stands for
    the row ``ints / scale`` with ``scale > 0``.  A zero row is uncoverable,
    and as a column it would have no pivot row, so it gives ``(inf, None)``.

    With ``prune``, only the minimal rows enter :func:`_max_packing`, all up
    front: a row with componentwise-larger coefficients is implied by the
    smaller row (s >= 0).  Over the common scale of all rows, equal rows
    become equal integer tuples in the order of the rational rows; in
    increasing order every dominating row comes before the rows it
    dominates, and that order fixes which optimal argmin comes out.
    Without it, every row is a pool row that the kernel prices in, in the
    order given: the same value, with no sort and no quadratic scan.
    """
    if any(not any(ints) for _, ints in rows):
        return inf, None
    if not prune:
        return _max_packing([], k, rows)
    common = lcm(*(scale for scale, _ in rows))
    by_value = {tuple(c * (common // scale) for c in ints): (scale, ints) for scale, ints in rows}
    kept: list[tuple[int, ...]] = []
    for row in sorted(by_value):
        if not any(all(map(le, o, row)) for o in kept):
            kept.append(row)
    columns = []
    for row in kept:
        scale, ints = by_value[row]
        g = gcd(scale, *ints)
        columns.append((scale // g, [c // g for c in ints]))
    return _max_packing(columns, k)


def _max_packing(columns, k: int, pool=()):
    """The dual ``max sum_i y_i`` s.t. ``sum_i y_i c_i / w_i <= 1``, ``y >= 0``,
    over the columns ``(w_i, c_i)`` and the ``pool`` rows priced in, by the
    simplex method on integers.

    With ``y_i = w_i x_i`` the constraint matrix is the integer ``c_i`` and
    the objective ``sum_i w_i x_i``; a positive column scaling changes no
    reduced-cost sign and no ratio order, so the pivots are the unscaled LP's.
    The tableau is fraction-free (Edmonds, Bareiss): integers ``T`` stand for
    ``T / d``, where ``d`` is the last pivot (1 at the start), and a pivot on
    ``p`` maps every other row ``t`` to ``(p t - t[col] pivot) // d``, a
    division that is always exact.

    The all-slack basis is feasible because the right-hand side is 1, and
    Bland's rule (lowest improving column, x columns by arrival before the
    slacks; ties in the ratio test to the lowest basic column) keeps
    degenerate pivots from cycling.  Every column has a positive entry, so
    this dual is bounded and the ratio test always finds a pivot.  The
    objective row's slack block is ``d s``, ``s`` the covering solution.

    At an optimum over the current columns, a pool row ``(w, c)`` with
    ``d s . c < w d`` is a violated covering row: a column of negative
    reduced cost.  The first one in pool order enters as the last x column,
    with entries ``t_slack . c`` (the slack block is ``d B^-1``) and the
    objective entry ``d s . c - w d``, and pivoting resumes.  A column in
    the LP is never violated at an optimum, so each pool row enters at most
    once.  Once none is violated the kernel returns ``(value, s)``.
    """
    m = len(columns)
    # constraint j: sum_i c_i[j] x_i + slack_j = 1; columns x, slacks, rhs
    tab = [[c[j] for _, c in columns] + [int(i == j) for i in range(k)] + [1] for j in range(k)]
    obj = [-w for w, _ in columns] + [0] * (k + 1)
    basis = [m + j for j in range(k)]
    d = 1
    while True:
        col = next((c for c, v in enumerate(obj[:-1]) if v < 0), None)
        if col is None:
            s = obj[m:-1]
            for w, c in pool:
                if (price := sum(map(mul, s, c))) < w * d:
                    break
            else:
                return Fraction(obj[-1], d), tuple(Fraction(v, d) for v in s)
            for t in tab:
                t.insert(m, sum(map(mul, t[m:-1], c)))
            obj.insert(m, price - w * d)
            basis = [b + (b >= m) for b in basis]
            col, m = m, m + 1
        # least ratio t[-1] / t[col] over t[col] > 0, compared by
        # cross-multiplying; ties go to the lowest basic column
        r = None
        for i, t in enumerate(tab):
            if t[col] > 0 and (r is None or (t[-1] * tab[r][col], basis[i]) < (tab[r][-1] * t[col], basis[r])):
                r = i
        pivot = tab[r]
        p = pivot[col]
        for t in (*tab, obj):
            if t is not pivot:
                factor = t[col]
                t[:] = [(p * a - factor * b) // d for a, b in zip(t, pivot)]
        basis[r] = col
        d = p


# ---------------------------------------------------------------------------
# regions

# A band ``(normal, lo, hi)`` is the closed set ``lo <= normal . f <= hi``;
# ``None`` leaves that side open.
Band = tuple[tuple[int, int], Optional[Fraction], Optional[Fraction]]

_X1, _X2, _S = (1, 0), (0, 1), (1, 1)


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
    num: tuple[Fraction, Fraction]
    den: tuple[Fraction, Fraction]


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


# The region table.  A band of a table row is ``(n1, n2, ln, ld, hn, hd)``,
# the closed set ``ln / ld <= n . f <= hn / hd`` with ``ld, hd > 0``; an open
# side is ``-1/0`` or ``1/0``, which every point passes when the test is
# cross-multiplied.  A row's formula ``(a0, a1, b0, b1)`` is ``Region``'s
# ``num`` and ``den`` times one positive scale: ``|b1|``, or ``b0`` where
# ``b1 = 0`` (``den`` is ``(c, ±1)`` or ``(1, 0)``).
_LO, _HI = (-1, 0), (1, 0)
_BELOW, _ABOVE = (*_X2, *_LO, 0, 1), (*_X2, 1, 1, *_HI)


def _low(normal, low, *pieces):
    """``t_bar = (u - l) / u`` with ``l = ln / ld``, split along ``normal``."""
    ln, ld = low
    return pieces, normal, normal, (-ln, ld, 0, ld)


def _high(normal, high, *pieces):
    """``t_bar = (h - u) / (1 - u)`` with ``h = hn / hd``, split along ``normal``."""
    hn, hd = high
    return pieces, normal, normal, (hn, -hd, hd, -hd)


def _pair(normal, low, high, sides=((),)):
    """A ``_low`` and a ``_high`` row along ``normal`` on ``0 <= u <= 1``,
    split at the u where the two formulas agree.  Each has one piece per
    tuple of extra bands in ``sides``.  ``low`` and ``high`` are integer
    pairs with positive denominators, and ``l < 0 < 1 < h``."""
    (ln, ld), (hn, hd) = low, high
    # t = -l / (h - l - 1), over ld hd; the denominator is ld hd (h - 1 - l) > 0
    tn, td = -ln * hd, (hn - hd) * ld - ln * hd
    return [
        _low(normal, low, *(((*normal, 0, 1, tn, td), *side) for side in sides)),
        _high(normal, high, *(((*normal, tn, td, 1, 1), *side) for side in sides)),
    ]


_TYPE1_TABLE = (
    [(0, 0), (2, 0), (0, 2)],  # v = 1
    [
        ((((*_S, 1, 1, *_HI), (*_X1, *_LO, 1, 1), (*_X2, *_LO, 1, 1)),), None, _S, (2, 0, 1, 0)),
        ((((*_S, *_LO, 1, 1),),), None, _S, (3, -1, 2, -1)),
        ((((*_X2, 1, 1, *_HI),),), None, _X2, (1, 1, 0, 1)),
        ((((*_X1, 1, 1, *_HI),),), None, _X1, (1, 1, 0, 1)),
    ],
)


def _vertex_rows(v, *vertices):
    """Each vertex ``((x1, d1), (x2, d2))`` as the integer pair ``v x``:
    ``v`` is a common denominator of the coordinates, so the divisions are exact."""
    return [(x1 * v // d1, x2 * v // d2) for (x1, d1), (x2, d2) in vertices]


_last_table: tuple = (None, None)


def _table(body: LatticeFreeBody):
    """``(V, regions)``: the vertices in corner-ray order times ``v``, the
    facets' common denominator, and the body's regions in index order as
    ``(pieces, split, normal, (a0, a1, b0, b1))``, with ``t_bar = (a0 q + a1
    P) / (b0 q + b1 P)`` at ``f = X / q``, ``P = normal . X``, and the bands
    of the integer rows above.  Built from the integers the body already
    has: the quad and type 3 ``_frame``, type 2's ``(a1, a2)`` over one
    denominator.  Kept, as one pair read and replaced whole, until a call
    on another body."""
    global _last_table
    last, table = _last_table
    if last is body:
        return table
    if isinstance(body, Type1Body):
        table = _TYPE1_TABLE
    elif isinstance(body, Type2Body):
        D, (A1, A2) = over_common_denominator((body.a1, body.a2))
        left, right, a2 = (-A1, A2 - D), (A2 - A1, A2 - D), (A2, D)
        inner = _pair(_X1, left, right, [((*_X2, 0, 1, 1, 1),)])
        if A2 <= 2 * D:  # the paper's bounds use the horizontal split on the whole unit square
            inner = [_high(_X2, a2, *row[0]) for row in inner]
        sides = [_high(_X2, a2, ((*_X1, *_LO, 0, 1),)), _high(_X2, a2, ((*_X1, 1, 1, *_HI),))]
        table = (
            _vertex_rows(body._facets[0], (left, (0, 1)), (right, (0, 1)), ((A1, D), a2)),
            inner + sides + _pair(_X1, left, right, [(_ABOVE,)]),
        )
    elif isinstance(body, QuadBody):
        D, A1, A2, B1, B2, e_c, e_d, nc1, nc2, nd1, nd2 = body._frame
        c1, d1 = (nc1, e_c), (nd1, e_d)
        table = (
            _vertex_rows(body._facets[0], ((A1, D), (A2, D)), ((B1, D), (B2, D)), (c1, (nc2, e_c)), (d1, (nd2, e_d))),
            _pair(_X2, (B2, D), (A2, D)) + _pair(_X1, c1, d1, [(_BELOW,), (_ABOVE,)]),
        )
    elif isinstance(body, Type3Body):
        D, A1, A2, B1, nb2, db2, E, nc1, nc2 = body._frame
        b2, c1, c2 = (nb2, db2), (-nc1, -E), (-nc2, -E)  # E < 0
        table = (
            _vertex_rows(body._facets[0], ((A1, D), (A2, D)), ((B1, D), b2), (c1, c2)),
            _pair(_X2, b2, c2)
            + _pair(_X1, c1, (A1, D), [(_BELOW,)])
            + _pair(_S, (B1 * db2 + nb2 * D, D * db2), (A1 + A2, D), [(_ABOVE,)]),
        )
    else:
        raise ValueError(f"no region decomposition for {body!r}")
    _last_table = body, table
    return table


def region_spec(body: LatticeFreeBody) -> list[Region]:
    """The body's regions in index order, region 1 first: the exact Fraction
    view of its integer table.  Matching the closed regions in this order
    sends a boundary point to its smallest-index region (see
    :func:`_matches` for points on a lattice line)."""

    def side(n, d):
        return Fraction(n, d) if d else None

    spec = []
    for pieces, split, normal, (a0, a1, b0, b1) in _table(body)[1]:
        scale = abs(b1) or b0
        bands = tuple(tuple(((n1, n2), side(ln, ld), side(hn, hd)) for n1, n2, ln, ld, hn, hd in p) for p in pieces)
        num, den = (Fraction(a0, scale), Fraction(a1, scale)), (Fraction(b0, scale), Fraction(b1, scale))
        spec.append(Region(bands, split, normal, num, den))
    return spec


# ---------------------------------------------------------------------------
# the integer frame

_last_frame: tuple = (None, None, None)


def _frame(body: LatticeFreeBody, f: Rational2, split_error: str):
    """``(q, X1, X2), (d, D f, [D r])``: ``f = (X1, X2) / q`` found strictly
    inside the body (``v (n . X) < c q`` at each integer facet), then ``f`` and
    the corner rays ``V / v - f`` over ``d = lcm(v, q)``, as :func:`_scaled`.
    Kept, as one tuple read and replaced whole, for the next call on the same
    body and point objects, so a report locates f once."""
    global _last_frame
    last_body, last_f, frame = _last_frame
    if last_body is body and last_f is f:
        return frame
    if isinstance(body, SplitBody):
        raise ValueError(split_error)
    q, (x1, x2) = over_common_denominator((f.x1, f.x2))
    v, facets = body._facets
    if not all(v * (n1 * x1 + n2 * x2) < c * q for n1, n2, c in facets):
        raise ValueError(f"root vertex {f} is not strictly interior to {body!r}")
    d = lcm(v, q)
    s, f1, f2 = d // v, x1 * (d // q), x2 * (d // q)
    frame = (q, x1, x2), (d, (f1, f2), [(a * s - f1, b * s - f2) for a, b in _table(body)[0]])
    _last_frame = body, f, frame
    return frame


def _locate(body: LatticeFreeBody, f: Rational2):
    """``(index, entry, _frame(...))`` of the first entry of :func:`_table`
    that :func:`_matches` ``f``, with ``split . X mod q != 0`` as the strict test."""
    frame = _frame(body, f, "splits have no region decomposition")
    q, x1, x2 = frame[0]
    for i, entry in enumerate(_table(body)[1], start=1):
        pieces, split = entry[:2]
        if (split is None or (split[0] * x1 + split[1] * x2) % q) and any(
            all(ln * q <= (p := n1 * x1 + n2 * x2) * ld and p * hd <= hn * q for n1, n2, ln, ld, hn, hd in piece)
            for piece in pieces
        ):
            return i, entry, frame
    raise ValueError(f"no region of {body!r} has a split containing f = {f} strictly")


def region_of(body: LatticeFreeBody, f: Rational2) -> RegionId:
    """The first region of ``region_spec(body)`` that :func:`_matches` ``f``:
    boundary points go to the smallest-index adjacent region whose split
    contains ``f`` strictly."""
    return RegionId(body.tag, _locate(body, f)[0])


def chosen_split(body: LatticeFreeBody, region: RegionId) -> tuple[int, int]:
    """Normal of the single split used in the given region of the body's family."""
    if region.family != body.tag:
        raise ValueError(f"region {region} is a {region.family} region, not one of {body!r}")
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
    split's largest coefficient at the corner rays, which is the reciprocal
    of the one-row covering LP ``min{sum(s) : c . s >= 1, s >= 0}``.  Each
    region uses the split of the paper's bounds, which is not always the best
    single split at ``f``.

    For the type 1 triangle the full split closure is generated by the three
    facet normals, so the exact closure strength is reported instead and no
    single split is singled out.
    """
    index, (_, split, (n1, n2), (a0, a1, b0, b1)), ((q, x1, x2), (d, big_f, big_rays)) = _locate(body, f)
    t_table = Fraction(a0 * q + a1 * (p := n1 * x1 + n2 * x2), b0 * q + b1 * p)
    if split is None:
        t_check = strength_split_closure_approx(body, f, 1)
    else:
        scale, row = _split_row(*split, (split[0] * big_f[0] + split[1] * big_f[1]) % d, d, big_rays)
        top = max(row)  # t_check = top / scale, built only on a mismatch
        t_check = t_table if t_table.numerator * scale == top * t_table.denominator else Fraction(top, scale)
    if t_table != t_check:
        raise AssertionError(
            f"strength table value {t_table} disagrees with the split-coefficient value {t_check} "
            f"for {body!r}, f={f}, region R{index}"
        )
    return StrengthReport(region=RegionId(body.tag, index), chosen_split_normal=split, t_bar=t_table)


def _check_radius(n) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"n must be an int >= 1, got {n!r}")
    if n < 1:
        raise ValueError("need n >= 1")


def admissible_normals(f: Rational2, n: int) -> list[tuple[int, int]]:
    """Primitive normals with max-norm <= n whose split contains ``f`` strictly,
    deduplicated over +-, in max-norm order."""
    _check_radius(n)
    d, big_f, _ = _scaled(f, ())
    return [(n1, n2) for n1, n2, _ in _admissible(n, d, big_f)]


def strength_split_closure_approx(body: LatticeFreeBody, f: Rational2, n: int) -> Fraction:
    """Finite split-closure strength ``t_N``: all splits with max-norm <= n.

    The split rows are built in integers scaled by the common denominator of
    ``f`` and the corner rays, in the body's integer frame, low max-norm
    first, and go to :func:`_min_cover` without pruning, for the kernel to
    price in: the LP's value is unique, so ``t_N`` is the same whichever
    optimal basis pricing ends in.
    """
    _check_radius(n)
    d, big_f, big_rays = _frame(body, f, "a split has no vertices, hence no corner rays")[1]
    rows = [_split_row(n1, n2, rem, d, big_rays) for n1, n2, rem in _admissible(n, d, big_f)]
    if not rows:
        raise ValueError(f"no admissible split with max-norm <= {n} for f = {f}")
    value, _ = _min_cover(rows, len(big_rays), prune=False)
    return 1 / value


def strength_report(body: LatticeFreeBody, f: Rational2, n: int = 5) -> StrengthReport:
    """Full report: region, chosen split, single-split t_bar, and t_N.  Both
    strengths use the one integer frame of ``f`` that :func:`_frame` keeps."""
    return replace(strength_single_split(body, f), t_n=strength_split_closure_approx(body, f, n), n=n)
