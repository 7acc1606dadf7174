"""Classification and canonical forms of planar lattice-free polygons.

A vertex cycle is read into integers once, by ``_read_polygon``, over the
least common denominator of its coordinates, and checked there; every test
that follows (the edges' lattice points, the one interior test, the match
of a candidate map's image against a canonical body) runs on that reading.
``classify`` sorts a band or a vertex cycle into the body families of
``geometry``, and ``canonicalize`` finds a ``UnimodularMap`` that carries it
onto one of their canonical bodies.  Only the ``classify`` command and the
callers of these names load this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import floor, gcd
from typing import Sequence, Union

from .geometry import (
    LatticeFreeBody,
    QuadBody,
    Rational2,
    SplitBody,
    Type1Body,
    Type2Body,
    Type3Body,
    _check_int,
    _check_point,
    _check_points,
    _doubled_area,
    _integer_points,
)


class BodyClass(Enum):
    SPLIT = "Split"
    TYPE1_TRIANGLE = "Type1Triangle"
    TYPE2_TRIANGLE = "Type2Triangle"
    TYPE3_TRIANGLE = "Type3Triangle"
    QUADRILATERAL = "Quadrilateral"
    NOT_MAXIMAL_LATTICE_FREE = "NotMaximalLatticeFree"


# ---------------------------------------------------------------------------
# polygon primitives


def _read_polygon(pts: Sequence[Rational2]) -> tuple[int, tuple[tuple[int, int], ...]]:
    """``(v, P)``: the vertex cycle ``pts`` times the least common denominator
    ``v`` of its coordinates, once it is checked to bound a strictly convex
    polygon of positive area (every turn goes the same way, winding once)."""
    pts = _check_points("obj", pts)
    v, P = _integer_points(*((c.numerator, c.denominator) for p in pts for c in (p.x1, p.x2)))
    if len(P) < 3 or _doubled_area(P) == 0:
        raise ValueError("degenerate input: need a polygon with positive area")
    edges = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(P, P[1:] + P[:1])]
    turns = [u1 * w2 - u2 * w1 for (u1, u2), (w1, w2) in zip(edges, edges[1:] + edges[:1])]
    # every turn is less than a half turn, so the edge direction passes angle
    # 0 once per winding, as one step between the upper half-plane (angles in
    # [0, pi)) and the lower one; count the steps from lower to upper
    upper = [e2 > 0 or (e2 == 0 and e1 > 0) for e1, e2 in edges]
    winding = sum(w and not u for u, w in zip(upper, upper[1:] + upper[:1]))
    if not (all(t > 0 for t in turns) or all(t < 0 for t in turns)) or winding != 1:
        raise ValueError("input vertex cycle is not strictly convex")
    return v, P


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """``(g, x, y)`` with ``g = gcd(a, b) >= 0`` and ``x a + y b = g``, by
    Euclid's steps in a loop, so a long run of them cannot overflow the stack."""
    x, y, x_next, y_next = 1, 0, 0, 1
    while b:
        q = a // b
        a, b, x, y, x_next, y_next = b, a - q * b, x_next, y_next, x - q * x_next, y - q * y_next
    return (a, x, y) if a >= 0 else (-a, -x, -y)


def _edge_lattice(v: int, a: tuple[int, int], b: tuple[int, int]) -> tuple[range, int, int]:
    """``(steps, e1, e2)``: the lattice points of the edge from ``a / v`` to
    ``b / v``, ``b`` left out, are ``(a + s e) / v`` for ``s`` in ``steps``,
    with ``e = (b - a) / g`` primitive.  Where ``e1 a2 - e2 a1 = 0 mod v``
    and ``x e1 + y e2 = 1``, they are the ``s`` in ``[0, g)`` with ``s = -(x
    a1 + y a2) mod v``; otherwise the edge's line misses the lattice."""
    g, x, y = _ext_gcd(b[0] - a[0], b[1] - a[1])
    e1, e2 = (b[0] - a[0]) // g, (b[1] - a[1]) // g
    start = g if (e1 * a[1] - e2 * a[0]) % v else -(x * a[0] + y * a[1]) % v
    return range(start, g, v), e1, e2


def _width_basis(P: Sequence[tuple[int, int]]) -> tuple[int, tuple[int, int], tuple[int, int]]:
    """``(w, a, b)``: a lattice basis of directions whose ``a`` attains the
    lattice width ``w`` of the convex polygon ``P``, by the generalized Gauss
    reduction (Kaib and Schnorr 1996): ``b`` becomes ``b - mu a`` at the best
    integer ``mu`` while that is narrower than ``a``.  The width of ``b - mu
    a`` is convex and piecewise linear in ``mu``, with breaks at ``b.e / a.e``
    over the edges ``e``, so the best ``mu`` is a break's floor or ceiling."""

    def width(u):
        values = [u[0] * x + u[1] * y for x, y in P]
        return max(values) - min(values)

    edges = [(q[0] - p[0], q[1] - p[1]) for p, q in zip(P, P[1:] + P[:1])]
    (w, a), (_, b) = sorted((width(u), u) for u in [(1, 0), (0, 1)])
    while True:
        breaks = [(b[0] * e1 + b[1] * e2, a[0] * e1 + a[1] * e2) for e1, e2 in edges]
        near = [(b[0] - mu * a[0], b[1] - mu * a[1]) for n, d in breaks if d for mu in (n // d, n // d + 1)]
        w_c, c = min((width(u), u) for u in near)
        if w_c >= w:
            return w, a, c
        (w, a), b = (w_c, c), a


def _holds_interior_point(v: int, P: Sequence[tuple[int, int]]) -> bool:
    """Whether the convex polygon ``P / v`` holds a lattice point strictly
    inside.  A lattice-free convex body in the plane has lattice width at most
    ``1 + 2/sqrt(3)`` (Hurkens 1990), so a wider polygon holds one; else at
    most three lines ``a.x = k`` cross it, and in the lattice coordinates
    ``(a.x, b.x)`` each holds one exactly when its open chord holds an integer."""
    w, a, b = _width_basis(P)
    if w > v and 3 * (w - v) ** 2 > 4 * v * v:
        return True
    Q = [(a[0] * x + a[1] * y, b[0] * x + b[1] * y) for x, y in P]
    for k in range(min(Q)[0] // v + 1, -(-max(Q)[0] // v)):
        ends = [Fraction(p2 * (q1 - k * v) - q2 * (p1 - k * v), (q1 - p1) * v)
                for (p1, p2), (q1, q2) in zip(Q, Q[1:] + Q[:1]) if min(p1, q1) <= k * v <= max(p1, q1)]
        if floor(min(ends)) + 1 < max(ends):
            return True
    return False


# ---------------------------------------------------------------------------
# unimodular maps


@dataclass(frozen=True)
class UnimodularMap:
    """Affine lattice-preserving map ``x -> M x + t`` with ``|det M| = 1``."""

    m11: int
    m12: int
    m21: int
    m22: int
    t1: int = 0
    t2: int = 0

    def __post_init__(self):
        for name, value in vars(self).items():
            _check_int(f"map entry {name}", value)
        if abs(self.det) != 1:
            raise ValueError(f"matrix determinant must be +-1, got {self.det}")

    @property
    def det(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m21

    def apply(self, p: Rational2) -> Rational2:
        _check_point("p", p)
        return Rational2(
            self.m11 * p.x1 + self.m12 * p.x2 + self.t1,
            self.m21 * p.x1 + self.m22 * p.x2 + self.t2,
        )


# ---------------------------------------------------------------------------
# classification


def _classify_triangle(v: int, P: Sequence[tuple[int, int]], edge_counts: list[int]) -> BodyClass:
    if any(c == 0 for c in edge_counts):
        return BodyClass.NOT_MAXIMAL_LATTICE_FREE
    integral = [x % v == 0 and y % v == 0 for x, y in P]
    if all(integral):
        if all(c == 1 for c in edge_counts):
            return BodyClass.TYPE1_TRIANGLE
        return BodyClass.NOT_MAXIMAL_LATTICE_FREE
    if not any(integral) and all(c == 1 for c in edge_counts):
        return BodyClass.TYPE3_TRIANGLE
    # type 2: some fractional vertex whose two incident edges carry exactly one
    # lattice point each while the opposite edge carries at least two
    for i in range(3):
        if integral[i]:
            continue
        incident = (edge_counts[i], edge_counts[(i + 2) % 3])  # edges i->i+1 and i-1->i
        opposite = edge_counts[(i + 1) % 3]
        if incident == (1, 1) and opposite >= 2:
            return BodyClass.TYPE2_TRIANGLE
    return BodyClass.NOT_MAXIMAL_LATTICE_FREE


def classify(obj: Union[SplitBody, Sequence[Rational2]]) -> BodyClass:
    """Classify a band or a convex polygon given by its vertex cycle.

    The polygon is read once in integers over one denominator, where every
    check runs: each edge's lattice points are counted in closed form, so
    the work does not grow with the coordinates."""
    if isinstance(obj, SplitBody):
        return BodyClass.SPLIT
    return _classify(*_read_polygon(obj))


def _classify(v: int, P: Sequence[tuple[int, int]]) -> BodyClass:
    """The class of the strictly convex polygon ``P / v``."""
    # a maximal lattice-free polygon has at most four edges
    if len(P) > 4 or _holds_interior_point(v, P):
        return BodyClass.NOT_MAXIMAL_LATTICE_FREE
    steps = [_edge_lattice(v, a, b)[0] for a, b in zip(P, P[1:] + P[:1])]
    # each open edge's lattice points, counted up to 2: all that the families tell apart
    edge_counts = [len(s[:3]) - (0 in s) for s in steps]
    if len(P) == 3:
        return _classify_triangle(v, P, edge_counts)
    if all(c == 1 for c in edge_counts):
        return BodyClass.QUADRILATERAL
    return BodyClass.NOT_MAXIMAL_LATTICE_FREE


# ---------------------------------------------------------------------------
# canonicalization


def _match_canonical(cls: BodyClass, v: int, vertices: frozenset[tuple[int, int]]):
    """The canonical body of family ``cls`` with vertices exactly ``vertices / v``, if any."""
    top = max(vertices, key=lambda p: p[1])
    if cls is BodyClass.TYPE1_TRIANGLE:
        body = Type1Body()
    elif cls is BodyClass.TYPE2_TRIANGLE:
        body = Type2Body._from_frame_or_reason(v, *top)
    elif cls is BodyClass.TYPE3_TRIANGLE:
        a = max(vertices, key=lambda p: p[0])
        body = Type3Body._from_frame_or_reason(v, *a, min(vertices, key=lambda p: p[1])[0])
    else:
        body = QuadBody._from_frame_or_reason(v, *top, *min(vertices, key=lambda p: p[1]))
    if callable(body):  # the family rejects these parameters
        return None
    w, V = body._integer_vertices
    return body if w == v and frozenset(V) == vertices else None


def canonicalize(obj: Union[SplitBody, Sequence[Rational2]]) -> tuple[LatticeFreeBody, UnimodularMap]:
    """Find a lattice-preserving map carrying the input onto a canonical body.

    Every canonical bounded body has (0,0), (1,0) and (0,1) on its boundary,
    so a map onto one sends some boundary lattice points q0, q1, q2 of the
    input there, and these fix it: the matrix ``M`` inverts
    ``[q1 - q0 | q2 - q0]`` and the translation is ``-M q0``.  (0,0) and
    (1,0) are neighbours in the cycle of a canonical body's boundary lattice
    points, and a unimodular map keeps that cycle, so q1 is a cycle neighbour
    of q0; the q2 come from indexing the cycle by ``det(q1 - q0, q)``, once
    per direction.  The cycle is read edge by edge in input order, each
    edge's lattice points in closed form over the vertices' one denominator,
    so the candidates are linear in the boundary lattice points, whatever the
    coordinates.  Of the maps that match, the one with the least
    ``(max |m|, sum |m|, m != I, m)`` is returned, so a canonical input gets
    the identity.  Applying the returned map to the input reproduces the
    canonical body's vertices exactly.
    """
    if isinstance(obj, SplitBody):
        n1, n2 = obj.normal
        # second row = normal, so the band maps onto {offset <= x2' <= offset+1};
        # extended euclid supplies a first row completing a unimodular matrix
        row1 = (0, 1) if n2 == 0 else _ext_gcd(n2, -n1)[1:]
        m = UnimodularMap(row1[0], row1[1], n1, n2, 0, -obj.offset)
        return SplitBody((0, 1), 0), m

    v, P = _read_polygon(obj)
    cls = _classify(v, P)
    if cls is BodyClass.NOT_MAXIMAL_LATTICE_FREE:
        raise ValueError("input polygon is not maximal lattice-free")
    cycle: list[tuple[int, int]] = []
    for a, b in zip(P, P[1:] + P[:1]):
        steps, e1, e2 = _edge_lattice(v, a, b)
        cycle += [((a[0] + s * e1) // v, (a[1] + s * e2) // v) for s in steps]
    levels: dict[tuple[int, int], dict[int, list[tuple[int, int]]]] = {}
    candidates = []
    for i, (x0, y0) in enumerate(cycle):
        for x1, y1 in {cycle[i - 1], cycle[(i + 1) % len(cycle)]}:
            u1, u2 = x1 - x0, y1 - y0
            # q1 - q0 goes to (1,0), so it is primitive
            if gcd(u1, u2) != 1:
                continue
            if (u1, u2) not in levels:
                level = levels[u1, u2] = {}
                for x, y in cycle:
                    level.setdefault(u1 * y - u2 * x, []).append((x, y))
            for d in (1, -1):
                # the q2 with det(q1 - q0, q2 - q0) = d
                for x2, y2 in levels[u1, u2].get(u1 * y0 - u2 * x0 + d, ()):
                    v1, v2 = x2 - x0, y2 - y0
                    m = (d * v2, -d * v1, -d * u2, d * u1)
                    key = (max(map(abs, m)), sum(map(abs, m)), m != (1, 0, 0, 1), m)
                    candidates.append((key, (x0, y0)))
    for (*_, m), (x0, y0) in sorted(candidates):
        t1, t2 = -(m[0] * x0 + m[1] * y0), -(m[2] * x0 + m[3] * y0)
        # the map carries P / v to (m P + v t) / v, over the same denominator v
        image = frozenset((m[0] * x + m[1] * y + v * t1, m[2] * x + m[3] * y + v * t2) for x, y in P)
        body = _match_canonical(cls, v, image)
        if body is not None:
            return body, UnimodularMap(*m, t1, t2)
    raise ValueError("no lattice-preserving map carries the input onto a canonical body")

