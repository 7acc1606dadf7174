"""Exact-rational planar geometry of maximal lattice-free bodies.

Everything in this module runs on ``fractions.Fraction``, or on integers
over a common denominator; there is no floating point anywhere.  Bodies are
kept in canonical parameterizations:

* ``SplitBody``      -- the band ``offset <= normal . x <= offset + 1``
* ``Type1Body``      -- conv{(0,0), (2,0), (0,2)}
* ``Type2Body``      -- apex ``(a1, a2)`` with ``0 < a1 < 1 < a2``, base on the
  x1-axis through ``(0,0)`` and ``(1,0)``
* ``Type3Body``      -- vertices ``a, b, c`` with exactly the three lattice
  points ``(0,0), (1,0), (0,1)`` on the boundary
* ``QuadBody``       -- vertices ``a, b, c, d`` with one lattice point in the
  relative interior of each edge

Vertex order conventions (used by :func:`corner_rays`):
Type1 = ((0,0), (2,0), (0,2)); Type2 = (left base, right base, apex);
Type3 = (a, b, c); Quad = (a, b, c, d) with a top, b bottom, c left, d right.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from math import ceil, floor, gcd, lcm
from typing import Iterator, Sequence, Union

Rat = Union[int, Fraction, str]


def _frac(value: Rat) -> Fraction:
    """Coerce ints / "p/q" strings to Fraction without touching floats."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floating point input is not allowed in exact geometry")
    return Fraction(value)


@dataclass(frozen=True, slots=True)
class Rational2:
    """Exact rational 2-vector; the coordinate type for all geometry.

    The constructor takes its coordinates as they are: build points from
    outside input with :func:`point`, which coerces and rejects floats."""

    x1: Fraction
    x2: Fraction

    def __sub__(self, other: "Rational2") -> "Rational2":
        return Rational2(self.x1 - other.x1, self.x2 - other.x2)

    def cross(self, other: "Rational2") -> Fraction:
        return self.x1 * other.x2 - self.x2 * other.x1

    def is_zero(self) -> bool:
        return self.x1 == 0 and self.x2 == 0

    def is_integral(self) -> bool:
        return self.x1.denominator == 1 and self.x2.denominator == 1

    def __repr__(self):
        return f"({self.x1}, {self.x2})"


def point(x1: Rat, x2: Rat) -> Rational2:
    """The exact point ``(x1, x2)`` from ints, Fractions or "p/q" strings."""
    return Rational2(_frac(x1), _frac(x2))


def over_common_denominator(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The least common denominator ``d`` of the values, and each value times ``d``."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


class BodyClass(Enum):
    SPLIT = "Split"
    TYPE1_TRIANGLE = "Type1Triangle"
    TYPE2_TRIANGLE = "Type2Triangle"
    TYPE3_TRIANGLE = "Type3Triangle"
    QUADRILATERAL = "Quadrilateral"
    NOT_MAXIMAL_LATTICE_FREE = "NotMaximalLatticeFree"


# ---------------------------------------------------------------------------
# polygon primitives


def shoelace_area(pts: Sequence[Rational2]) -> Fraction:
    """Signed area; positive iff the cycle runs counter-clockwise."""
    total = Fraction(0)
    n = len(pts)
    for i in range(n):
        total += pts[i].cross(pts[(i + 1) % n])
    return total / 2


def is_strictly_convex(pts: Sequence[Rational2]) -> bool:
    """True iff the cyclic vertex list bounds a non-degenerate convex polygon:
    every turn goes the same way, and the edges wind around exactly once."""
    n = len(pts)
    if n < 3:
        return False
    edges = [b - a for a, b in zip(pts, pts[1:] + pts[:1])]
    turns = [u.cross(w) for u, w in zip(edges, edges[1:] + edges[:1])]
    if not (all(t > 0 for t in turns) or all(t < 0 for t in turns)):
        return False
    # every turn is less than a half turn, so the edge direction passes angle
    # 0 once per winding, as one step between the upper half-plane (angles in
    # [0, pi)) and the lower one; count the steps from lower to upper
    upper = [e.x2 > 0 or (e.x2 == 0 and e.x1 > 0) for e in edges]
    return sum(w and not u for u, w in zip(upper, upper[1:] + upper[:1])) == 1


def _edge_count(a: Rational2, b: Rational2) -> int:
    """``len(_edge_points(a, b))``, with a horizontal edge's columns counted, not listed."""
    if a.x2 == b.x2:
        return floor(max(a.x1, b.x1)) - ceil(min(a.x1, b.x1)) + 1 if a.x2.denominator == 1 else 0
    return len(_edge_points(a, b))


def _edge_points(a: Rational2, b: Rational2) -> list[tuple[int, int]]:
    """Integer points of the closed segment ab: the one x on each integer row,
    or every integer column of a horizontal edge."""
    if a.x2 == b.x2:
        if a.x2.denominator != 1:
            return []
        return [(x, int(a.x2)) for x in range(ceil(min(a.x1, b.x1)), floor(max(a.x1, b.x1)) + 1)]
    slope = (b.x1 - a.x1) / (b.x2 - a.x2)
    found = []
    for y in range(ceil(min(a.x2, b.x2)), floor(max(a.x2, b.x2)) + 1):
        x = a.x1 + (y - a.x2) * slope
        if x.denominator == 1:
            found.append((int(x), y))
    return found


def _row_meets_interior(pts: list[Rational2], y: int) -> bool:
    """Whether the integer row ``y``, strictly between the lowest and highest
    vertex of a convex polygon, holds an integer point of its interior.  Such
    a row crosses the boundary at its two ends and no edge lies on it."""
    xs = [
        a.x1 + (y - a.x2) * (b.x1 - a.x1) / (b.x2 - a.x2)
        for a, b in zip(pts, pts[1:] + pts[:1])
        if min(a.x2, b.x2) <= y <= max(a.x2, b.x2)
    ]
    return floor(min(xs)) + 1 < max(xs)


def _short_rows(pts: list[Rational2]) -> tuple[list[Rational2], bool]:
    """``(pts, swapped)``: the polygon with its coordinates swapped when its
    x1 extent is the smaller, so that a walk over its integer rows takes the
    fewer rows.  The swap maps the lattice onto itself."""
    xs, ys = [p.x1 for p in pts], [p.x2 for p in pts]
    if max(xs) - min(xs) < max(ys) - min(ys):
        return [Rational2(p.x2, p.x1) for p in pts], True
    return pts, False


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
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"map entry {name} must be an int, got {value!r}")
        if abs(self.det) != 1:
            raise ValueError(f"matrix determinant must be +-1, got {self.det}")

    @property
    def det(self) -> int:
        return self.m11 * self.m22 - self.m12 * self.m21

    def apply(self, p: Rational2) -> Rational2:
        return Rational2(
            self.m11 * p.x1 + self.m12 * p.x2 + self.t1,
            self.m21 * p.x1 + self.m22 * p.x2 + self.t2,
        )


# ---------------------------------------------------------------------------
# bodies


def _coordinates(i: int) -> tuple[property, property]:
    """Read-only properties for the two coordinates of vertex ``i``."""
    return property(lambda body: body._vertices[i].x1), property(lambda body: body._vertices[i].x2)


class LatticeFreeBody:
    """Base for all canonical-form bodies.

    A body's only state is its integer frame ``_frame``: a split's is ``(n1,
    n2, offset)``, type 1's is ``()``, and a bounded family's is what its
    ``_check(D, *numerators)`` returns for the parameters ``numerators / D``
    over their least denominator ``D`` (or it raises the constructor's
    ValueError): ``D``, the numerators, then the integers the check derives.
    Frames are canonical, so bodies of one family are equal exactly when
    their frames are.  The rest is read off the frame: ``_vertices``, in the
    documented corner-ray order, is built on first read, the parameters and
    derived coordinates are read-only properties over it, and ``_order``
    lists the vertices counter-clockwise for ``polygon()``, an orientation
    that the family's sign constraints decide.  ``_integer_vertices`` reads
    the vertices once as integers, for the facets, ``cuts`` and the fan.

    The constructor coerces the parameters with ``_frac``, runs ``_check``
    and builds the vertices; ``_from_frame`` builds the same body from the
    integers and holds only the frame until something else is read.
    """

    tag: str
    _frame: tuple[int, ...]
    _params: tuple[str, ...] = ()
    _order: tuple[int, ...] = (0, 1, 2)

    def _init(self, *params: Rat) -> None:
        D, numerators = over_common_denominator([_frac(p) for p in params])
        self._frame = self._check(D, *numerators)
        self._vertices  # built now, so that a constructed body pays for them here

    @classmethod
    def _from_frame(cls, *frame: int):
        """The body with parameters ``numerators / D``, for ``frame = (D,
        *numerators)`` and ``D > 0``.  (One starred tuple, passed on whole,
        keeps the call as cheap as a fixed signature.)"""
        g = gcd(*frame)
        if g != 1:
            frame = [n // g for n in frame]
        body = cls.__new__(cls)
        body._frame = cls._check(*frame)
        return body

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._frame == other._frame

    __hash__ = None

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)}" for name in self._params)
        return f"{type(self).__name__}({args})"

    def vertices(self) -> tuple[Rational2, ...]:
        """Vertices in the documented corner-ray order."""
        return self._vertices

    def polygon(self) -> list[Rational2]:
        """Vertices as a counter-clockwise boundary cycle."""
        return [self._vertices[i] for i in self._order]

    @cached_property
    def _integer_vertices(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """``(v, V)``: the least common denominator ``v`` of the vertex
        coordinates, and the vertices times ``v`` as integer pairs in
        corner-ray order.  The one place a body's vertices become integers;
        built on first use (a body never changes after construction)."""
        v, ints = over_common_denominator([c for p in self._vertices for c in (p.x1, p.x2)])
        return v, tuple(zip(ints[::2], ints[1::2]))

    @cached_property
    def _facets(self) -> tuple[int, tuple[tuple[int, int, int], ...]]:
        """The facets in integers: ``(v, ((n1, n2, c), ...))``, so that facet
        ``normal . x <= offset`` is ``(n1, n2) . (v x) <= c`` with ``(n1,
        n2) = v normal``."""
        v, V = self._integer_vertices
        pts = [V[i] for i in self._order]
        facets = []
        for (a1, a2), (b1, b2) in zip(pts, pts[1:] + pts[:1]):
            n1, n2 = b2 - a2, a1 - b1  # outward for a CCW cycle
            facets.append((n1, n2, n1 * a1 + n2 * a2))
        return v, tuple(facets)

    def _interior(self, f: Rational2):
        """``(q, X1, X2)``, ``f = (X1, X2) / q`` over its least common
        denominator, if ``f`` lies strictly inside the body, ``v (n . X) < c q``
        at each integer facet; else None."""
        v, facets = self._facets
        q, (x1, x2) = over_common_denominator((f.x1, f.x2))
        if all(v * (n1 * x1 + n2 * x2) < c * q for n1, n2, c in facets):
            return q, x1, x2
        return None

    def contains_interior(self, f: Rational2) -> bool:
        return self._interior(f) is not None


class SplitBody(LatticeFreeBody):
    """The band ``offset <= normal . x <= offset + 1`` with primitive normal."""

    tag = "split"
    _params = ("normal", "offset")
    normal = property(lambda body: body._frame[:2])
    offset = property(lambda body: body._frame[2])

    def __init__(self, normal: tuple[int, int] = (0, 1), offset: int = 0):
        n1, n2 = int(normal[0]), int(normal[1])
        if (n1, n2) == (0, 0) or gcd(abs(n1), abs(n2)) != 1:
            raise ValueError(f"split normal must be a primitive integer pair, got {normal}")
        self._frame = (n1, n2, int(offset))

    @cached_property
    def _facets(self):
        # the facets n . x <= offset + 1 and -n . x <= -offset, over v = 1
        n1, n2, offset = self._frame
        return 1, ((n1, n2, offset + 1), (-n1, -n2, -offset))

    def vertices(self):
        raise ValueError("a split is unbounded and has no vertices")

    def polygon(self):
        raise ValueError("a split is unbounded and has no vertex cycle")


class Type1Body(LatticeFreeBody):
    """conv{(0,0), (2,0), (0,2)}: integer vertices, one lattice point per edge."""

    tag = "type1"
    _frame = ()
    _vertices = (point(0, 0), point(2, 0), point(0, 2))


class Type2Body(LatticeFreeBody):
    """Apex ``(a1, a2)``, base on the x1-axis; ``0 < a1 < 1 < a2``.

    In integers, with ``(a1, a2) = (A1, A2)/D``, the base runs from ``-A1 /
    (A2 - D)`` to ``(A2 - A1) / (A2 - D)``; ``_frame = (D, A1, A2)``.
    """

    tag = "type2"
    _params = ("a1", "a2")
    a1, a2 = _coordinates(2)
    left = property(lambda body: body._vertices[0])
    right = property(lambda body: body._vertices[1])
    apex = property(lambda body: body._vertices[2])

    def __init__(self, a1: Rat, a2: Rat):
        self._init(a1, a2)

    @staticmethod
    def _check(D: int, A1: int, A2: int) -> tuple[int, ...]:
        if not 0 < A1 < D:
            raise ValueError(f"need 0 < a1 < 1, got a1={Fraction(A1, D)}")
        if not A2 > D:
            raise ValueError(f"need a2 > 1, got a2={Fraction(A2, D)}")
        return (D, A1, A2)

    @cached_property
    def _vertices(self) -> tuple[Rational2, ...]:
        D, A1, A2 = self._frame
        return (
            Rational2(Fraction(-A1, A2 - D), Fraction(0)),
            Rational2(Fraction(A2 - A1, A2 - D), Fraction(0)),
            Rational2(Fraction(A1, D), Fraction(A2, D)),
        )


class Type3Body(LatticeFreeBody):
    """Triangle with boundary lattice points exactly {(0,0), (1,0), (0,1)}.

    Parameters (a1, a2, b1) fix vertex ``a = (a1, a2)`` and the first
    coordinate of ``b``; ``b2`` and ``c`` follow.  The minimum-width direction
    is required to be (0,1), i.e. ``c2 - b2`` attains the lattice width.

    In integers, with ``(a1, a2, b1) = (A1, A2, B1)/D``: ``b2 = -A2 (D - B1) /
    (D (A1 - D))`` and ``c = (A1 (A1 - D) B1, -A1 A2 (D - B1)) / E``, where
    ``E = (A1 - D)(D - A2) B1 - A1 A2 (D - B1)``.  Once ``b1 + b2 < 0``, that
    is ``(A1 - D) B1 < A2 (D - B1)``, ``E < A2 (D - B1)(D - A1 - A2) < 0``, and
    then ``b2 < 0``, ``c1 < 0``, ``c2 > 1`` and ``0 < c1 + c2 < 1``.  The
    frame, which ``bounds`` and ``lattice_width`` read, is ``(D, A1, A2, B1,
    nb2, db2, E, nc2)``, with ``b2 = nb2 / db2`` and ``c2 = nc2 / E``.
    """

    tag = "type3"
    _params = ("a1", "a2", "b1")
    # a lies right of the lattice points, b below and c above left, so a, b,
    # c turns clockwise
    _order = (2, 1, 0)
    (a1, a2), (b1, b2), (c1, c2) = map(_coordinates, range(3))

    def __init__(self, a1: Rat, a2: Rat, b1: Rat):
        self._init(a1, a2, b1)

    @staticmethod
    def _check(D: int, A1: int, A2: int, B1: int) -> tuple[int, ...]:
        if not A1 > D:
            raise ValueError(f"need a1 > 1, got a1={Fraction(A1, D)}")
        if not (0 < A2 < D):
            raise ValueError(f"need 0 < a2 < 1, got a2={Fraction(A2, D)}")
        if not (0 < B1 < D):
            raise ValueError(f"need 0 < b1 < 1, got b1={Fraction(B1, D)}")
        nb2, db2 = -A2 * (D - B1), D * (A1 - D)  # b2 = nb2 / db2, db2 > 0
        if not B1 * (A1 - D) + nb2 < 0:
            raise ValueError(f"need b1 + b2 < 0, got {Fraction(B1 * db2 + nb2 * D, D * db2)}")
        E = (A1 - D) * (D - A2) * B1 - A1 * A2 * (D - B1)
        nc1, nc2 = A1 * (A1 - D) * B1, -A1 * A2 * (D - B1)  # c = (nc1, nc2) / E
        # c2 - b2 <= a1 - c1 times D db2 E < 0, and c2 - b2 <= a1 + a2 - (b1 + b2) times D E
        if not (D * db2 * (nc1 + nc2) >= (A1 * db2 + D * nb2) * E and D * nc2 >= (A1 + A2 - B1) * E):
            raise ValueError(
                "lattice width must be attained by the vertical direction "
                f"(c2-b2={Fraction(nc2 * db2 - nb2 * E, E * db2)}, a1-c1={Fraction(A1 * E - nc1 * D, D * E)}, "
                f"a1+a2-b1-b2={Fraction((A1 + A2 - B1) * db2 - nb2 * D, D * db2)})"
            )
        return (D, A1, A2, B1, nb2, db2, E, nc2)

    @cached_property
    def _vertices(self) -> tuple[Rational2, ...]:
        D, A1, A2, B1, nb2, db2, E, nc2 = self._frame
        return (
            Rational2(Fraction(A1, D), Fraction(A2, D)),
            Rational2(Fraction(B1, D), Fraction(nb2, db2)),
            Rational2(Fraction(A1 * (A1 - D) * B1, E), Fraction(nc2, E)),
        )


class QuadBody(LatticeFreeBody):
    """Quadrilateral with one lattice point on each edge.

    ``(0,0)`` lies on edge bc, ``(1,0)`` on bd, ``(0,1)`` on ac, ``(1,1)`` on
    ad.  Parameters (a1, a2, b1, b2) fix vertices ``a`` (top) and ``b``
    (bottom); ``c`` (left) and ``d`` (right) follow.  The lattice width must
    be attained by the vertical direction: ``a2 - b2 <= d1 - c1``.

    In integers, with ``(a1, a2, b1, b2) = (A1, A2, B1, B2)/D``:
    ``c = (-A1 B1, -A1 B2) / e_c`` with ``e_c = (A2 - D) B1 - A1 B2``, and
    ``d = ((A2 - A1)(D - B1) - (D - A1) B2, -(D - A1) B2) / e_d`` with
    ``e_d = (A2 - D)(D - B1) - (D - A1) B2``; both are positive once
    ``0 < a1 <= b1 < 1``, ``a2 > 1`` and ``b2 < 0``, and then
    ``c1 < 0 < c2 <= d2 < 1 < d1``.  The frame is ``(D, A1, A2, B1, B2, e_c,
    e_d)``.
    """

    tag = "quad"
    _params = ("a1", "a2", "b1", "b2")
    _order = (2, 1, 3, 0)
    (a1, a2), (b1, b2), (c1, c2), (d1, d2) = map(_coordinates, range(4))

    def __init__(self, a1: Rat, a2: Rat, b1: Rat, b2: Rat):
        self._init(a1, a2, b1, b2)

    @staticmethod
    def _check(D: int, A1: int, A2: int, B1: int, B2: int) -> tuple[int, ...]:
        if not (0 < A1 <= B1 < D):
            raise ValueError(f"need 0 < a1 <= b1 < 1, got a1={Fraction(A1, D)}, b1={Fraction(B1, D)}")
        if not A2 > D:
            raise ValueError(f"need a2 > 1, got a2={Fraction(A2, D)}")
        if not B2 < 0:
            raise ValueError(f"need b2 < 0, got b2={Fraction(B2, D)}")
        if not -B2 <= A2 - D:
            raise ValueError(f"need -b2 <= a2 - 1, got b2={Fraction(B2, D)}, a2={Fraction(A2, D)}")
        e_c = (A2 - D) * B1 - A1 * B2
        e_d = (A2 - D) * (D - B1) - (D - A1) * B2
        nc1 = -A1 * B1
        nd1 = (A2 - A1) * (D - B1) - (D - A1) * B2
        # a2 - b2 <= d1 - c1 times D e_c e_d > 0
        if not (A2 - B2) * e_c * e_d <= D * (nd1 * e_c - nc1 * e_d):
            raise ValueError(
                f"lattice width must be attained by the vertical direction "
                f"(a2-b2={Fraction(A2 - B2, D)} > d1-c1={Fraction(nd1 * e_c - nc1 * e_d, e_d * e_c)})"
            )
        return (D, A1, A2, B1, B2, e_c, e_d)

    @cached_property
    def _vertices(self) -> tuple[Rational2, ...]:
        D, A1, A2, B1, B2, e_c, e_d = self._frame
        nd1 = (A2 - A1) * (D - B1) - (D - A1) * B2
        return (
            Rational2(Fraction(A1, D), Fraction(A2, D)),
            Rational2(Fraction(B1, D), Fraction(B2, D)),
            Rational2(Fraction(-A1 * B1, e_c), Fraction(-A1 * B2, e_c)),
            Rational2(Fraction(nd1, e_d), Fraction(-(D - A1) * B2, e_d)),
        )


Body = Union[SplitBody, Type1Body, Type2Body, Type3Body, QuadBody]


# ---------------------------------------------------------------------------
# operations


def area(body: LatticeFreeBody) -> Fraction:
    """Area of a bounded body, the shoelace sum over its counter-clockwise
    vertex cycle; errors on splits."""
    if isinstance(body, SplitBody):
        raise ValueError("a split is unbounded; its area is not defined")
    if not isinstance(body, LatticeFreeBody):
        raise TypeError(f"unsupported body {body!r}")
    return shoelace_area(body.polygon())


def lattice_width(body: LatticeFreeBody) -> Fraction:
    """Closed-form lattice width of a canonical body.

    Type 3 and quad bodies are built so that the vertical direction attains
    it: their constructors reject parameters where another direction is
    narrower (quad: ``a2 - b2 <= d1 - c1``), so the width is ``c2 - b2`` and
    ``a2 - b2``."""
    if isinstance(body, SplitBody):
        return Fraction(1)
    if isinstance(body, Type1Body):
        return Fraction(2)
    if isinstance(body, Type2Body):
        D, _, A2 = body._frame
        return Fraction(A2, max(D, A2 - D))  # min(a2, a2 / (a2 - 1))
    if isinstance(body, Type3Body):
        nb2, db2, E, nc2 = body._frame[4:]
        return Fraction(nc2 * db2 - nb2 * E, E * db2)  # c2 - b2
    if isinstance(body, QuadBody):
        D, _, A2, _, B2 = body._frame[:5]
        return Fraction(A2 - B2, D)  # a2 - b2
    raise TypeError(f"unsupported body {body!r}")


def primitive_directions(radius: int) -> Iterator[tuple[int, int]]:
    """Primitive integer directions with max-norm <= radius, one of each
    pair +-u: ``u1 >= 0``, and ``u2 > 0`` when ``u1 = 0``.  They come in
    max-norm order, ring by ring, each ring in ``(u1, u2)`` order."""
    return chain.from_iterable(map(_ring, range(1, radius + 1)))


@lru_cache(maxsize=64)
def _ring(r: int) -> tuple[tuple[int, int], ...]:
    """The primitive directions of max-norm exactly ``r``, in ``(u1, u2)`` order."""
    edge = [(u1, u2) for u1 in range(r) for u2 in (-r, r) if u1 > 0 or u2 > 0]
    return tuple(u for u in edge + [(r, u2) for u2 in range(-r, r + 1)] if gcd(*u) == 1)


def corner_rays(body: LatticeFreeBody, f: Rational2) -> tuple[Rational2, ...]:
    """Rays from ``f`` to each vertex, in the documented vertex order."""
    if isinstance(body, SplitBody):
        raise ValueError("a split has no vertices, hence no corner rays")
    if not body.contains_interior(f):
        raise ValueError(f"root vertex {f} is not strictly interior to {body!r}")
    return tuple(v - f for v in body.vertices())


# ---------------------------------------------------------------------------
# classification


def _classify_triangle(pts: list[Rational2], edge_counts: list[int]) -> BodyClass:
    if any(c == 0 for c in edge_counts):
        return BodyClass.NOT_MAXIMAL_LATTICE_FREE
    integral = [p.is_integral() for p in pts]
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

    Lattice points are found row by row, along the shorter axis: an integer
    row strictly between the lowest and highest vertex must hold no integer
    strictly inside, and each edge's lattice points are counted on its
    integer rows.
    """
    if isinstance(obj, SplitBody):
        return BodyClass.SPLIT
    pts = list(obj)
    if len(pts) < 3 or shoelace_area(pts) == 0:
        raise ValueError("degenerate input: need a polygon with positive area")
    if not is_strictly_convex(pts):
        raise ValueError("input vertex cycle is not strictly convex")
    if len(pts) > 4:  # a maximal lattice-free polygon has at most four edges
        return BodyClass.NOT_MAXIMAL_LATTICE_FREE
    pts = _short_rows(pts)[0]
    ys = [p.x2 for p in pts]
    if any(_row_meets_interior(pts, y) for y in range(floor(min(ys)) + 1, ceil(max(ys)))):
        return BodyClass.NOT_MAXIMAL_LATTICE_FREE
    edges = zip(pts, pts[1:] + pts[:1])
    edge_counts = [_edge_count(a, b) - a.is_integral() - b.is_integral() for a, b in edges]
    if len(pts) == 3:
        return _classify_triangle(pts, edge_counts)
    if all(c == 1 for c in edge_counts):
        return BodyClass.QUADRILATERAL
    return BodyClass.NOT_MAXIMAL_LATTICE_FREE


# ---------------------------------------------------------------------------
# canonicalization


def _match_canonical(cls: BodyClass, vertices: frozenset[Rational2]):
    """Return the canonical body of family ``cls`` with exactly these vertices, if any."""
    top = max(vertices, key=lambda p: p.x2)
    try:
        if cls is BodyClass.TYPE1_TRIANGLE:
            body = Type1Body()
        elif cls is BodyClass.TYPE2_TRIANGLE:
            body = Type2Body(top.x1, top.x2)
        elif cls is BodyClass.TYPE3_TRIANGLE:
            a = max(vertices, key=lambda p: p.x1)
            body = Type3Body(a.x1, a.x2, min(vertices, key=lambda p: p.x2).x1)
        else:
            bottom = min(vertices, key=lambda p: p.x2)
            body = QuadBody(top.x1, top.x2, bottom.x1, bottom.x2)
    except ValueError:
        return None
    return body if frozenset(body.vertices()) == vertices else None


def canonicalize(obj: Union[SplitBody, Sequence[Rational2]]) -> tuple[LatticeFreeBody, UnimodularMap]:
    """Find a lattice-preserving map carrying the input onto a canonical body.

    Every canonical bounded body has (0,0), (1,0) and (0,1) on its boundary,
    so a map onto one sends some boundary lattice points q0, q1, q2 of the
    input there, and these fix it: the matrix ``M`` inverts
    ``[q1 - q0 | q2 - q0]`` and the translation is ``-M q0``.  (0,0) and
    (1,0) are neighbours in the cycle of a canonical body's boundary lattice
    points, and a unimodular map keeps that cycle, so q1 is a cycle neighbour
    of q0; the q2 come from indexing the cycle by ``det(q1 - q0, q)``, once
    per direction.  The candidates are thus linear in the boundary lattice
    points.  Of the maps that match, the one with the least
    ``(max |m|, sum |m|, m != I, m)`` is returned, so a canonical input gets
    the identity.  Applying the returned map to the input reproduces the
    canonical body's vertices exactly.
    """
    if isinstance(obj, SplitBody):
        n1, n2 = obj.normal
        # second row = normal, so the band maps onto {offset <= x2' <= offset+1};
        # extended euclid supplies a first row completing a unimodular matrix
        if n2 == 0:
            row1 = (0, 1)
        else:
            g, u, v = _ext_gcd(n2, -n1)
            row1 = (u, v)
        m = UnimodularMap(row1[0], row1[1], n1, n2, 0, -obj.offset)
        return SplitBody((0, 1), 0), m

    cls = classify(obj)
    if cls is BodyClass.NOT_MAXIMAL_LATTICE_FREE:
        raise ValueError("input polygon is not maximal lattice-free")
    pts = list(obj)
    # the boundary lattice points in cycle order, each edge walked from its
    # start along the shorter axis; an integral vertex ends one walk and
    # starts the next
    walked, swapped = _short_rows(pts)
    cycle: list[tuple[int, int]] = []
    for a, b in zip(walked, walked[1:] + walked[:1]):
        walk = _edge_points(a, b)
        if (a.x2, a.x1) > (b.x2, b.x1):
            walk.reverse()
        cycle += walk[1:] if cycle and walk and walk[0] == cycle[-1] else walk
    if cycle[0] == cycle[-1]:
        cycle.pop()
    if swapped:
        cycle = [(y, x) for x, y in cycle]
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
        umap = UnimodularMap(*m, -(m[0] * x0 + m[1] * y0), -(m[2] * x0 + m[3] * y0))
        body = _match_canonical(cls, frozenset(umap.apply(p) for p in pts))
        if body is not None:
            return body, umap
    raise ValueError("no lattice-preserving map carries the input onto a canonical body")


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        s = 1 if a >= 0 else -1
        return abs(a), s, 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y
