"""Split cuts, region assignment, and single-split / finite-closure strength.

The strength of adding a body's cut on top of split cuts is always the
reciprocal of a small covering LP over the corner rays (scaled to gauge 1):

* one split row  -> the single-split value ``t_bar``, which for one row is
  just the row's largest coefficient,
* all primitive normals up to a max-norm radius -> the finite split-closure
  approximation ``t_N`` (an upper bound on the true closure strength, and
  nonincreasing in N).

For every non-split body the region table gives ``t_bar`` in closed form.
Both run in the body's integer frame: each strength reads f once, as ``(X1,
X2) / q``, by the body's interior test on its integer facets, which checks
it.  ``strength_single_split`` matches that point against the body's region
table, kept between queries on the same body object (the one form of the
regions; :func:`chosen_split` and the Monte Carlo evaluator read it too), and
builds one ``Fraction``, by ``geometry._ratio`` as every result here is, and
one :class:`StrengthReport`, a ``NamedTuple``;
the corner rays ``V / v - f`` over ``lcm(v, q)`` are built for ``t_N`` and
:func:`corner_rays` alone.  The table and the rays read the body only through
its integer vertices ``(v, V)``, ``V`` the vertices times their common
denominator ``v``: each band bound is a vertex projected on the band's normal.
``t_N`` starts the packing kernel with the splits of max-norm 1 and, at
each optimum, walks the normals of the splits that can still cut, a convex
set, column by column, building each row only when the kernel prices it
and keeping none between optima, so its memory does not grow with N, nor
its work unless the final optimum lies on one corner ray.  The dominance
pruning of :func:`covering_lp_min` stays for the argmin it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, inf, lcm
from operator import le, mul
from typing import Iterator, NamedTuple, Optional, Sequence

from .geometry import (
    LatticeFreeBody,
    QuadBody,
    Rational2,
    SplitBody,
    Type1Body,
    Type2Body,
    Type3Body,
    _check_point,
    _check_points,
    _check_type,
    _frac,
    _is_int,
    _listed,
    _primitive,
    _ratio,
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


# _REGION_IDS[body.tag][i]: the one shared RegionId of row i + 1 of the family's region table
_REGION_IDS = {tag: tuple(RegionId(tag, k) for k in range(1, rows + 1))
               for tag, rows in (("type1", 4), ("type2", 6), ("quad", 4), ("type3", 6))}


class StrengthReport(NamedTuple):
    """A strength query's answer as a tuple; ``t_n`` and ``n`` only in a full report."""

    region: RegionId
    chosen_split_normal: Optional[tuple[int, int]]
    t_bar: Fraction
    t_n: Optional[Fraction] = None
    n: Optional[int] = None


_t_bar_report = partial(tuple.__new__, StrengthReport)  # the same tuple, without __new__'s Python call


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
    n1, n2 = _primitive(normal, "normal")
    d, big_f, big_rays = _scaled(_check_point("f", f), _check_points("rays", rays))
    offset, rem = divmod(n1 * big_f[0] + n2 * big_f[1], d)
    if rem == 0:
        raise ValueError(f"normal . f = {offset} is integral: f is not interior to the split")
    if (0, 0) in big_rays:
        raise ValueError("rays must be nonzero")
    scale, row = _split_row(n1, n2, rem, d, big_rays)
    return SplitCut((n1, n2), offset, tuple(_ratio(c, scale) for c in row))


# ---------------------------------------------------------------------------
# covering LP


def covering_lp_min(rows: Sequence[Sequence[Fraction]], k: int):
    """Minimize ``sum(s)`` subject to ``row . s >= 1`` for every row, ``s >= 0``.

    The entries are read as every rational from outside is (Fractions, ints
    or "p/q" strings; no floats), then each row is scaled to integers by the
    lcm of its denominators and solved by :func:`_min_cover`.  Returns
    ``(value, argmin)``; ``(inf, None)`` when some row is identically zero
    (uncoverable).  ``k`` must be an int from 1 to 4.
    """
    if not _is_int(k) or k < 1:
        raise ValueError(f"k must be an int from 1 to 4, got {k!r}")
    if k > 4:
        raise ValueError("only up to 4 variables are supported")
    rows = _listed("rows", rows)
    if not rows:
        raise ValueError("need at least one row")
    mat = [tuple(map(_frac, _listed(f"rows[{i}]", row))) for i, row in enumerate(rows)]
    for row in mat:
        if len(row) != k:
            raise ValueError(f"row length {len(row)} != k = {k}")
        if any(c < 0 for c in row):
            raise ValueError("covering data must be nonnegative")
    return _min_cover([over_common_denominator(row) for row in mat], k)


def _min_cover(rows, k: int):
    """:func:`covering_lp_min` on integer rows: ``(scale, ints)`` stands for
    the row ``ints / scale`` with ``scale > 0``.  A zero row is uncoverable,
    and as a column it would have no pivot row, so it gives ``(inf, None)``.

    Only the minimal rows enter :func:`_max_packing`, all up front: a row
    with componentwise-larger coefficients is implied by the smaller row
    (s >= 0).  Over the common scale of all rows, equal rows become equal
    integer tuples in the order of the rational rows; in increasing order
    every dominating row comes before the rows it dominates, and that order
    fixes which optimal argmin comes out.
    """
    if any(not any(ints) for _, ints in rows):
        return inf, None
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
    value, d, slacks = _max_packing(columns, k)
    return _ratio(value, d), tuple(_ratio(v, d) for v in slacks)


def _max_packing(columns, k: int, pool=None):
    """The dual ``max sum_i y_i`` s.t. ``sum_i y_i c_i / w_i <= 1``, ``y >= 0``,
    over the columns ``(w_i, c_i)`` and the rows that ``pool`` prices in, by
    the simplex method on integers.  Returns ``(value, d, slacks)``, all
    integers: the optimum is ``value / d`` and the covering solution is
    ``slacks / d``.

    With ``y_i = w_i x_i`` the constraint matrix is the integer ``c_i`` and
    the objective ``sum_i w_i x_i``; a positive column scaling changes no
    reduced-cost sign and no ratio order, so the pivots are the unscaled LP's.
    The tableau is fraction-free (Edmonds, Bareiss): integers ``T`` stand for
    ``T / d``, where ``d`` is the last pivot (1 at the start), and a pivot on
    ``p`` maps every other row ``t`` to ``(p t - t[col] pivot) // d``, a
    division that is always exact; a row with ``t[col] = 0`` is only rescaled.

    The all-slack basis is feasible because the right-hand side is 1, and
    Bland's rule (lowest improving column, x columns by arrival before the
    slacks; ties in the ratio test to the lowest basic column) keeps
    degenerate pivots from cycling.  Every column has a positive entry, so
    this dual is bounded and the ratio test always finds a pivot.  The
    objective row's slack block is ``d s``, ``s`` the covering solution.

    At an optimum over the current columns, ``pool(slacks, d)`` gives rows
    ``(w, c)`` to price, in order; one with ``slacks . c < w d`` is a violated
    covering row: a column of negative reduced cost.  The first one enters as
    the last x column, with entries ``t_slack . c`` (the slack block is
    ``d B^-1``) and the objective entry ``slacks . c - w d``, and pivoting
    resumes.  A column in the LP is never violated at an optimum, so each
    row enters at most once.  Once none is violated the kernel returns.
    """
    m = len(columns)
    # constraint j: sum_i c_i[j] x_i + slack_j = 1; columns x, slacks, rhs
    tab = [[c[j] for _, c in columns] + [0] * (k + 1) for j in range(k)]
    for j, t in enumerate(tab):
        t[m + j] = t[-1] = 1
    obj = [-w for w, _ in columns] + [0] * (k + 1)
    basis = [m + j for j in range(k)]
    d = 1
    while True:
        for col, v in enumerate(obj):  # the value obj[-1] is never negative
            if v < 0:
                break
        else:
            s = obj[m:-1]
            for w, c in pool(s, d) if pool else ():
                if (price := sum(map(mul, s, c))) < w * d:
                    break
            else:
                return obj[-1], d, s
            for t in tab:
                t.insert(m, sum(map(mul, t[m:-1], c)))
            obj.insert(m, price - w * d)
            basis = [b + (b >= m) for b in basis]
            col, m = m, m + 1
        # least ratio t[-1] / t[col] over t[col] > 0, compared by
        # cross-multiplying with the best row so far, whose entry is p and
        # right-hand side rhs; ties go to the lowest basic column
        r = None
        for i, t in enumerate(tab):
            if (a := t[col]) > 0:
                if r is None or (x := t[-1] * p) < (y := rhs * a) or x == y and basis[i] < basis[r]:
                    r, p, rhs = i, a, t[-1]
        pivot = tab[r]
        for t in (*tab, obj):
            if t is pivot:
                continue
            if not (factor := t[col]):
                if p != d:
                    t[:] = [p * a // d for a in t]
            elif d == 1:  # nothing to divide by, as at the first pivot
                t[:] = [p * a - factor * b for a, b in zip(t, pivot)]
            else:
                t[:] = [(p * a - factor * b) // d for a, b in zip(t, pivot)]
        basis[r] = col
        d = p


# ---------------------------------------------------------------------------
# regions

# The region table.  A row ``(pieces, split, normal, (a0, a1, b0))`` is a
# union of pieces, each an intersection of closed bands, with ``t_bar = (a0 +
# a1 u) / (b0 + a1 u)`` on it, ``u = normal . f``: numerator and denominator
# share the slope ``a1``, scaled so that ``abs(a1) or b0`` is positive.  It
# also holds the normal of its single split (None for type 1, whose strength
# needs all three facet splits).  A band ``(n1, n2, ln, ld, hn, hd)``
# is ``ln / ld <= n . f <= hn / hd`` with ``ld, hd > 0``, or an open side
# ``-1/0`` or ``1/0``, which every point passes cross-multiplied.  A point goes
# to the first row that holds it, strictly inside the split: a boundary point
# to its smallest-index region, a point on a lattice line of its split to a
# later one.
_X1, _X2, _S = (1, 0), (0, 1), (1, 1)
_LO, _HI = (-1, 0), (1, 0)
_BELOW, _ABOVE = (*_X2, *_LO, 0, 1), (*_X2, 1, 1, *_HI)


def _low(normal, low, *pieces):
    """``t_bar = (u - l) / u`` with ``l = ln / ld``, split along ``normal``."""
    ln, ld = low
    return pieces, normal, normal, (-ln, ld, 0)


def _high(normal, high, *pieces):
    """``t_bar = (h - u) / (1 - u)`` with ``h = hn / hd``, split along ``normal``."""
    hn, hd = high
    return pieces, normal, normal, (hn, -hd, hd)


def _pair(v, normal, low, high, sides=((),)):
    """A ``_low`` and a ``_high`` row along ``normal`` on ``0 <= u <= 1``,
    split at the u where the two formulas agree.  Each has one piece per
    tuple of extra bands in ``sides``.  ``l`` and ``h`` are the vertex rows
    ``low`` and ``high`` over ``v > 0`` projected on ``normal``, and
    ``l < 0 < 1 < h``."""
    n1, n2 = normal
    ln, hn = n1 * low[0] + n2 * low[1], n1 * high[0] + n2 * high[1]
    # t = -l / (h - l - 1), over v; the denominator is v (h - 1 - l) > 0
    tn, td = -ln, hn - v - ln
    return [
        _low(normal, (ln, v), *(((*normal, 0, 1, tn, td), *side) for side in sides)),
        _high(normal, (hn, v), *(((*normal, tn, td, 1, 1), *side) for side in sides)),
    ]


_TYPE1_TABLE = [
    ((((*_S, 1, 1, *_HI), (*_X1, *_LO, 1, 1), (*_X2, *_LO, 1, 1)),), None, _S, (2, 0, 1)),
    ((((*_S, *_LO, 1, 1),),), None, _S, (3, -1, 2)),
    ((((*_X2, 1, 1, *_HI),),), None, _X2, (1, 1, 0)),
    ((((*_X1, 1, 1, *_HI),),), None, _X1, (1, 1, 0)),
]


_NO_BODY = object()  # no argument is this object, so the first call builds a table
_last_table: tuple = (_NO_BODY, None)


def _table(body: LatticeFreeBody):
    """The region rows in index order, each band bound a vertex of the
    body's integer vertices ``V`` projected on the band's normal, over their
    common denominator ``v``.  Kept, as one pair with the body read and
    replaced whole, until a call on another body."""
    global _last_table
    last, regions = _last_table
    if last is body:
        return regions
    if not isinstance(body, (Type1Body, Type2Body, QuadBody, Type3Body)):
        _check_type("body", body, LatticeFreeBody)
        raise ValueError(f"no region decomposition for {body!r}")
    v, V = body._integer_vertices
    if isinstance(body, Type1Body):
        regions = _TYPE1_TABLE
    elif isinstance(body, Type2Body):
        left, right, (_, h) = V
        apex = h, v
        inner = _pair(v, _X1, left, right, [((*_X2, 0, 1, 1, 1),)])
        if h <= 2 * v:  # the paper's bounds use the horizontal split on the whole unit square
            inner = [_high(_X2, apex, *row[0]) for row in inner]
        sides = [_high(_X2, apex, ((*_X1, *_LO, 0, 1),)), _high(_X2, apex, ((*_X1, 1, 1, *_HI),))]
        regions = inner + sides + _pair(v, _X1, left, right, [(_ABOVE,)])
    elif isinstance(body, QuadBody):
        a, b, c, d = V
        regions = _pair(v, _X2, b, a) + _pair(v, _X1, c, d, [(_BELOW,), (_ABOVE,)])
    else:
        a, b, c = V
        regions = _pair(v, _X2, b, c) + _pair(v, _X1, c, a, [(_BELOW,)]) + _pair(v, _S, b, a, [(_ABOVE,)])
    _last_table = body, regions
    return regions


# ---------------------------------------------------------------------------
# the integer frame

def _point(body: LatticeFreeBody, f: Rational2, split_error: str):
    """``(q, X1, X2)``: ``f = (X1, X2) / q``, checked and found strictly inside
    the body by its interior test; the body is checked where that cannot run."""
    if isinstance(body, SplitBody):
        raise ValueError(split_error)
    try:
        scaled = body._interior(f)
    except (AttributeError, TypeError):
        _check_type("body", body, LatticeFreeBody)
        raise
    if scaled is None:
        raise ValueError(f"root vertex {f} is not strictly interior to {body!r}")
    return scaled


def _rays(body: LatticeFreeBody, f: Rational2):
    """``(d, D f, [D r])``: ``f`` of :func:`_point` and the corner rays ``V / v
    - f`` over ``d = lcm(v, q)``, as :func:`_scaled`."""
    q, x1, x2 = _point(body, f, "a split has no vertices, hence no corner rays")
    v, V = body._integer_vertices
    d = lcm(v, q)
    s, f1, f2 = d // v, x1 * (d // q), x2 * (d // q)
    return d, (f1, f2), [(a * s - f1, b * s - f2) for a, b in V]


def corner_rays(body: LatticeFreeBody, f: Rational2) -> tuple[Rational2, ...]:
    """Rays from ``f`` to each vertex, in the documented vertex order: the
    Fraction view of the integer rays of :func:`_rays`."""
    d, _, big_rays = _rays(body, f)
    return tuple(Rational2(_ratio(a, d), _ratio(b, d)) for a, b in big_rays)


def _locate(body: LatticeFreeBody, f: Rational2):
    """``(i, entry, (q, X1, X2))``: the first row of :func:`_table` that ``f``
    matches, ``i`` counted from 0, with ``split . X mod q != 0`` as the strict
    test, and the point of :func:`_point`, the only part of the frame a
    ``t_bar`` query reads.  A piece is dropped at its first band that fails."""
    scaled = _point(body, f, "splits have no region decomposition")
    q, x1, x2 = scaled
    i = -1
    for entry in _table(body):
        i += 1
        pieces, split, _, _ = entry
        if split is not None and not (split[0] * x1 + split[1] * x2) % q:
            continue
        for piece in pieces:
            for n1, n2, ln, ld, hn, hd in piece:
                p = n1 * x1 + n2 * x2
                if ln * q > p * ld or p * hd > hn * q:
                    break
            else:
                return i, entry, scaled
    raise ValueError(f"no region of {body!r} has a split containing f = {f} strictly")


def region_of(body: LatticeFreeBody, f: Rational2) -> RegionId:
    """The first region of the body's table that ``f`` matches: a boundary
    point goes to the smallest-index region whose split holds it strictly."""
    i = _locate(body, f)[0]  # first: it checks the arguments
    return _REGION_IDS[body.tag][i]


def chosen_split(body: LatticeFreeBody, region: RegionId) -> tuple[int, int]:
    """Normal of the single split used in the given region of the body's family."""
    _check_type("region", region, RegionId)
    _check_type("body", body, LatticeFreeBody)
    if region.family != body.tag:
        raise ValueError(f"region {region} is a {region.family} region, not one of {body!r}")
    regions = _table(body)
    split = regions[region.index - 1][1] if 1 <= region.index <= len(regions) else None
    if split is None:
        raise ValueError(f"no split choice for {body!r}, region {region}")
    return split


# ---------------------------------------------------------------------------
# strength


def strength_single_split(body: LatticeFreeBody, f: Rational2) -> StrengthReport:
    """Single-split strength ``t_bar`` at ``f`` for the split of ``f``'s
    region: the region table's closed form, which equals the split's largest
    coefficient at the corner rays, the reciprocal of the one-row covering LP
    ``min{sum(s) : c . s >= 1, s >= 0}``.  Each region uses the split of the
    paper's bounds, which is not always the best single split at ``f``.

    A query is one integer pass over the region table; the report's region
    is the one shared ``RegionId`` of its family and index, made at import,
    which :func:`region_of` also returns.

    For the type 1 triangle the full split closure is generated by the three
    facet normals, so the exact closure strength is reported instead and no
    single split is singled out.
    """
    i, (_, split, (n1, n2), (a0, a1, b0)), (q, x1, x2) = _locate(body, f)
    s = a1 * (n1 * x1 + n2 * x2)
    return _t_bar_report((_REGION_IDS[body.tag][i], split, _ratio(a0 * q + s, b0 * q + s), None, None))


def _check_radius(n) -> None:
    if not _is_int(n):
        raise ValueError(f"n must be an int >= 1, got {n!r}")
    if n < 1:
        raise ValueError("need n >= 1")


def admissible_normals(f: Rational2, n: int) -> list[tuple[int, int]]:
    """Primitive normals with max-norm <= n whose split contains ``f`` strictly,
    deduplicated over +-, in max-norm order."""
    _check_radius(n)
    d, big_f, _ = _scaled(_check_point("f", f), ())
    return [(n1, n2) for n1, n2, _ in _admissible(n, d, big_f)]


def _normals_below(radius: int, rays, weights, bound: int) -> Iterator[tuple[int, int]]:
    """The directions ``u`` of ``primitive_directions(radius)`` with ``g(u) =
    sum_j w_j |u . R_j| < bound``, for integer rays ``R_j = (a_j, b_j)``,
    integer weights ``w_j >= 0`` and ``bound > 0``, yielded as the walk
    reaches them: ``(0, 1)``, then column by column, ``u1`` then ``u2``
    ascending.

    ``g(u) < bound`` holds iff ``|u . V| < bound`` for each of the sums ``V =
    w_1 R_1 +- w_2 R_2 +- ...``, so on each column ``u1 >= 1`` the ``u2`` form
    one interval, read off these strips by floor division and clipped to
    ``|u2| <= radius``.  No column with ``u1 mu >= bound`` meets the set,
    where ``mu`` is the least value of ``h(t) = g(1, t)``: ``h`` is convex and
    piecewise linear with breakpoints at ``t = -a_j / b_j``, so ``mu`` is its
    least value there, or ``h(0)`` when no ray of positive weight has ``b_j !=
    0``.  When the rays of positive weight are parallel the set is a strip,
    ``mu`` can be 0, and the walk takes every column up to ``radius``.
    """
    terms = [(w * a, w * b) for w, (a, b) in zip(weights, rays) if w]
    # mu = mu_n / mu_d; |b| h(-a / b) is a sum of integers
    mu_n, mu_d = sum([abs(a) for a, _ in terms]), 1
    for a, b in terms:
        if b and (v := sum([abs(a * b2 - a2 * b) for a2, b2 in terms])) * mu_d < mu_n * abs(b):
            mu_n, mu_d = v, abs(b)
    strips = terms[:1]
    for a, b in terms[1:]:
        strips = [v for x, y in strips for v in ((x + a, y + b), (x - a, y - b))]
    # -bound < u1 a + u2 b < bound with b > 0; a strip with b = 0 holds where u1 mu < bound
    strips = [(a, b) if b > 0 else (-a, -b) for a, b in strips if b]
    # the one direction with u1 = 0 is (0, 1)
    if sum([abs(b) for _, b in terms]) < bound:
        yield 0, 1
    top = bound * mu_d
    u1 = 1
    while u1 <= radius and u1 * mu_n < top:
        lo, hi = -radius, radius
        for a, b in strips:
            c = u1 * a
            if (x := (-bound - c) // b + 1) > lo:
                lo = x
            if (x := (bound - c - 1) // b) < hi:
                hi = x
        for u2 in range(lo, hi + 1):
            if gcd(u1, u2) == 1:
                yield u1, u2
        u1 += 1


def strength_split_closure_approx(body: LatticeFreeBody, f: Rational2, n: int) -> Fraction:
    """Finite split-closure strength ``t_N``: all splits with max-norm <= n.

    The split rows are built in integers scaled by the common denominator
    ``D`` of ``f`` and the corner rays ``R / D``, in the body's integer frame
    (``d`` in the code).  The rows of max-norm 1 are the packing kernel's
    first columns; with n = 1 they are all the rows, and nothing is priced.
    At each optimum, with covering solution ``S / d`` (``slacks / scale`` in
    the code, ``d`` the kernel's last pivot), only the splits that can still
    cut are built and priced: every coefficient of the split with normal
    ``u`` is at least ``|u . R_j| / D``, so its row is violated only if
    ``sum_j S_j |u . R_j| < d D``.  :func:`_normals_below` walks those
    normals, and a row of max-norm >= 2 is built only when the kernel prices
    it (a column is never violated at an optimum); the walk stops at the
    first violated row, and the next optimum walks again from its start.
    Only a walk run to its end with no violated row ends the LP.  Its value
    is unique, so ``t_N`` is the value over every split of max-norm <= n.
    The corner rays from an interior ``f`` span the plane, so no split row
    is zero.
    """
    _check_radius(n)
    d, big_f, big_rays = _rays(body, f)

    def cutting(slacks, scale):
        for n1, n2 in _normals_below(n, big_rays, slacks, scale * d):
            if (n1 > 1 or abs(n2) > 1) and (rem := (n1 * big_f[0] + n2 * big_f[1]) % d):
                yield _split_row(n1, n2, rem, d, big_rays)

    ring1 = [_split_row(n1, n2, rem, d, big_rays) for n1, n2, rem in _admissible(1, d, big_f)]
    value, scale, _ = _max_packing(ring1, len(big_rays), cutting if n > 1 else None)
    return _ratio(scale, value)


def strength_report(body: LatticeFreeBody, f: Rational2, n: int = 5) -> StrengthReport:
    """Full report: region, chosen split, single-split t_bar, and t_N.  Each
    strength reads ``f`` once, as ``(q, X1, X2)`` from :func:`_point`;
    ``t_bar`` reads nothing else, and ``t_N`` builds the corner rays from it."""
    return strength_single_split(body, f)._replace(t_n=strength_split_closure_approx(body, f, n), n=n)
