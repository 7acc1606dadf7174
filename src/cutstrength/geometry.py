"""Exact-rational planar geometry of maximal lattice-free bodies.

Everything in this module runs on integers over a common denominator, or on
``fractions.Fraction``; there is no floating point anywhere.  A vertex cycle
is read into integers once, by ``_read_polygon``, and checked there.  A
rational from outside enters through one reader, ``_frac``; an exact result
the package works out as a quotient of two ints leaves through one maker,
``_ratio``, which builds what ``Fraction(n, d)`` would without running
``Fraction``'s Python-level constructor, which would take about a fifth
of a ``t_bar`` query.  Bodies are kept in canonical parameterizations:

* ``SplitBody``      -- the band ``offset <= normal . x <= offset + 1``
* ``Type1Body``      -- conv{(0,0), (2,0), (0,2)}
* ``Type2Body``      -- apex ``(a1, a2)`` with ``0 < a1 < 1 < a2``, base on the
  x1-axis through ``(0,0)`` and ``(1,0)``
* ``Type3Body``      -- vertices ``a, b, c`` with exactly the three lattice
  points ``(0,0), (1,0), (0,1)`` on the boundary
* ``QuadBody``       -- vertices ``a, b, c, d`` with one lattice point in the
  relative interior of each edge

Vertex order conventions (used by ``cuts.corner_rays``):
Type1 = ((0,0), (2,0), (0,2)); Type2 = (left base, right base, apex);
Type3 = (a, b, c); Quad = (a, b, c, d) with a top, b bottom, c left, d right.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from itertools import chain
from math import floor, gcd, lcm
from typing import Callable, Iterator, Sequence, Union

Rat = Union[int, Fraction, str]
# a family's ``_check``: the frame, or the function that writes why it is rejected
Checked = Union[tuple[int, ...], Callable[[], str]]


_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def _is_int(value) -> bool:
    """Whether ``value`` is an int; ``True`` and ``False`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(name: str, value) -> None:
    if not _is_int(value):
        raise ValueError(f"{name} must be an int, got {value!r}")


def _frac(value: Rat) -> Fraction:
    """The one reader of a rational from outside, the same on every Python: a
    Fraction, an int that is not a bool, or a ``_RATIONAL`` string (ASCII
    digits, blanks only around it) with a nonzero denominator; else ValueError."""
    if type(value) is Fraction:
        return value
    if _is_int(value) or isinstance(value, Fraction):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        den = _digits(match[2] or "1") if match else 0
        if den:
            return Fraction(_digits(match[1]), den)
        if "." in value or "e" in value or "E" in value:
            raise ValueError(f"decimal notation is not accepted, use p/q: {value!r}")
        raise ValueError(f"malformed rational {value!r}")
    if isinstance(value, bool):
        raise ValueError(f"expected a rational, got {value!r}")
    raise ValueError(f"expected 'p/q' string or integer, got {value!r}")


_bare_fraction = partial(object.__new__, Fraction)  # a Fraction whose slots are not yet set


def _ratio(n: int, d: int) -> Fraction:
    """``Fraction(n, d)`` for ints ``n`` and ``d``, with the same value, type
    and ``ZeroDivisionError``: the one maker of an exact result from its
    ints.  ``Fraction.__new__`` is Python code that dispatches on its
    arguments' types before it reduces them; this reduces by ``gcd``, puts
    the sign on the numerator and fills the two slots that ``Fraction``
    declares (``_numerator``, ``_denominator``) of a bare instance."""
    g = gcd(n, d)
    if d < 0:
        g = -g
    elif not d:
        raise ZeroDivisionError(f"Fraction({n}, 0)")
    value = _bare_fraction()
    value._numerator, value._denominator = n // g, d // g
    return value


def _read_int(text: str) -> int:
    """An int from outside text: the integer part of ``_RATIONAL`` alone, a
    sign and ASCII digits with blanks only around them; else ValueError."""
    match = _RATIONAL.fullmatch(text)
    if match is None or match[2] is not None:
        raise ValueError(f"malformed integer {text!r}")
    return _digits(match[1])


def _digits(text: str) -> int:
    """``int`` of a sign and ASCII digits, with the reader's own ValueError
    where the interpreter's limit on the digits of an int read from a string
    applies (Python 3.10.7 on)."""
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"an integer of {len(text.lstrip('+-'))} digits is over the interpreter's limit of "
                         f"{limit} digits for reading an int from text (sys.set_int_max_str_digits)") from None


def _primitive(normal, what: str) -> tuple[int, int]:
    """``normal`` as a primitive pair of ints, or a ValueError naming it ``what``."""
    pair = list(normal) if isinstance(normal, (list, tuple)) else normal
    if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair))):
        raise ValueError(f"{what} must be an integer pair, got {pair!r}")
    if gcd(*pair) != 1:
        raise ValueError(f"{what} must be a primitive integer pair, got {normal}")
    return tuple(pair)


@dataclass(frozen=True, slots=True)
class Rational2:
    """Exact rational 2-vector; the coordinate type for all geometry.

    The constructor takes its coordinates as they are: build points from
    outside input with :func:`point`, which reads them with ``_frac``."""

    x1: Fraction
    x2: Fraction

    def __repr__(self):
        return f"({self.x1}, {self.x2})"


def point(x1: Rat, x2: Rat) -> Rational2:
    """The exact point ``(x1, x2)`` from ints, Fractions or "p/q" strings."""
    return Rational2(_frac(x1), _frac(x2))


def _check_type(name: str, value, cls: type) -> None:
    """A TypeError naming the argument unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be a {cls.__name__}, got {value!r}")


def _check_point(name: str, f) -> Rational2:
    """``f``, checked: the one check of a caller's point.  A TypeError names
    the argument unless ``f`` is a ``Rational2`` of ints and Fractions, but a
    float coordinate gets the ValueError of :func:`point`, not its binary value."""
    _check_type(name, f, Rational2)
    for c in (f.x1, f.x2):
        if isinstance(c, float):
            _frac(c)
        if not (_is_int(c) or isinstance(c, Fraction)):
            raise TypeError(f"{name} must have int or Fraction coordinates (build it with point), got {f!r}")
    return f


def _listed(name: str, values) -> list:
    """The iterable ``values`` as a list, or a TypeError naming the argument."""
    try:
        items = iter(values)
    except TypeError:
        raise TypeError(f"{name} must be iterable, got {values!r}") from None
    return list(items)


def _check_points(name: str, pts) -> list[Rational2]:
    """The vertex cycle or rays ``pts`` as a list, each checked as ``name[i]``."""
    return [_check_point(f"{name}[{i}]", p) for i, p in enumerate(_listed(name, pts))]


def over_common_denominator(values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The least common denominator ``d`` of the values, and each value times ``d``."""
    d = lcm(*(v.denominator for v in values))
    return d, [v.numerator * (d // v.denominator) for v in values]


def _integer_points(*quotients: tuple[int, int]) -> tuple[int, tuple[tuple[int, int], ...]]:
    """``(v, V)`` for points whose coordinates are the int quotients ``n / d``
    given as pairs ``(n, d)``, x1 then x2 of each point: the least common
    denominator ``v`` of the coordinates, and each point times ``v``."""
    v = lcm(*(d // gcd(n, d) for n, d in quotients))
    ints = [n * v // d for n, d in quotients]
    return v, tuple(zip(ints[::2], ints[1::2]))


class BodyClass(Enum):
    SPLIT = "Split"
    TYPE1_TRIANGLE = "Type1Triangle"
    TYPE2_TRIANGLE = "Type2Triangle"
    TYPE3_TRIANGLE = "Type3Triangle"
    QUADRILATERAL = "Quadrilateral"
    NOT_MAXIMAL_LATTICE_FREE = "NotMaximalLatticeFree"


# ---------------------------------------------------------------------------
# polygon primitives


def _doubled_area(P: Sequence[tuple[int, int]]) -> int:
    """Twice the signed area of the integer cycle ``P``, the shoelace sum;
    positive iff the cycle runs counter-clockwise."""
    return sum(a[0] * b[1] - a[1] * b[0] for a, b in zip(P, P[1:] + P[:1]))


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
# bodies


def _coordinates(i: int) -> tuple[property, property]:
    """Read-only properties for the two coordinates of vertex ``i``."""
    return property(lambda body: body._vertices[i].x1), property(lambda body: body._vertices[i].x2)


class LatticeFreeBody:
    """Base for all canonical-form bodies.

    A body's only state is its integer frame ``_frame``: a split's is ``(n1,
    n2, offset)``, type 1's is ``()``, and a bounded family's is what its
    ``_check(D, *numerators)`` returns for the parameters ``numerators / D``
    over their least denominator ``D`` (or the function that writes why it
    rejects them): ``D``, the numerators, then the integers the check derives.
    Frames are canonical, so bodies of one family are equal exactly when
    their frames are.  The rest is read off the frame, each part on first
    read.  A bounded family's ``_integer_vertices``, its one vertex formula,
    gives ``(v, V)`` in ints: the least common denominator ``v`` of the
    vertex coordinates and the vertices times ``v``, in the documented
    corner-ray order; the facets, ``cuts`` and the fan read it.  The
    Fraction vertices ``_vertices`` are a view of ``(v, V)``, and the
    parameters and derived coordinates are read-only properties over that
    view.  ``_order`` lists the vertices counter-clockwise for ``polygon()``,
    an orientation that the family's sign constraints decide.

    The constructor reads the parameters with ``_frac`` and runs
    ``_check``, and does no vertex work; ``_from_frame_or_reason`` builds
    the same body from the integers.  Either way a new body holds only its
    frame.  The constructor raises a rejection's message as a ValueError;
    ``_from_frame_or_reason`` returns it unwritten, so that a caller that
    drops rejections (a sweep) pays for the checks alone, not for an
    exception and the Fractions of a message.  The base class itself is
    no body, and constructing it is a TypeError.
    """

    tag: str
    _frame: tuple[int, ...]
    _integer_vertices: tuple[int, tuple[tuple[int, int], ...]]
    _params: tuple[str, ...] = ()
    _order: tuple[int, ...] = (0, 1, 2)

    def __init__(self):
        if type(self) is LatticeFreeBody:
            raise TypeError("LatticeFreeBody is the base of the body families; "
                            "build a SplitBody, Type1Body, Type2Body, Type3Body or QuadBody")

    def _init(self, *params: Rat) -> None:
        D, numerators = over_common_denominator([_frac(p) for p in params])
        frame = self._check(D, *numerators)
        if callable(frame):
            raise ValueError(frame())
        self._frame = frame

    @classmethod
    def _from_frame_or_reason(cls, *frame: int):
        """The body with parameters ``numerators / D``, for ``frame = (D,
        *numerators)`` and ``D > 0``, or, where the constructor rejects them,
        the function that writes its message.  (One starred tuple, passed on
        whole, keeps the call as cheap as a fixed signature.)"""
        g = gcd(*frame)
        if g != 1:
            frame = [n // g for n in frame]
        checked = cls._check(*frame)
        if callable(checked):
            return checked
        body = cls.__new__(cls)
        body._frame = checked
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
    def _vertices(self) -> tuple[Rational2, ...]:
        """The vertices as Fractions, a view of ``_integer_vertices``."""
        v, V = self._integer_vertices
        return tuple(Rational2(_ratio(x1, v), _ratio(x2, v)) for x1, x2 in V)

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
        if not (type(f) is Rational2 and type(f.x1) is Fraction and type(f.x2) is Fraction):
            _check_point("f", f)
        v, facets = self._facets
        (p1, q1), (p2, q2) = f.x1.as_integer_ratio(), f.x2.as_integer_ratio()
        q = lcm(q1, q2)
        x1, x2 = p1 * (q // q1), p2 * (q // q2)
        for n1, n2, c in facets:
            if v * (n1 * x1 + n2 * x2) >= c * q:
                return None
        return q, x1, x2

    def contains_interior(self, f: Rational2) -> bool:
        return self._interior(f) is not None


class SplitBody(LatticeFreeBody):
    """The band ``offset <= normal . x <= offset + 1``; a primitive int normal, an int offset."""

    tag = "split"
    _params = ("normal", "offset")
    normal = property(lambda body: body._frame[:2])
    offset = property(lambda body: body._frame[2])

    def __init__(self, normal: tuple[int, int] = (0, 1), offset: int = 0):
        n1, n2 = _primitive(normal, "split normal")
        if not _is_int(offset):
            raise ValueError(f"split offset must be an integer, got {offset!r}")
        self._frame = (n1, n2, offset)

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
    _integer_vertices = (1, ((0, 0), (2, 0), (0, 2)))


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
    def _check(D: int, A1: int, A2: int) -> Checked:
        if not 0 < A1 < D:
            return lambda: f"need 0 < a1 < 1, got a1={Fraction(A1, D)}"
        if not A2 > D:
            return lambda: f"need a2 > 1, got a2={Fraction(A2, D)}"
        return (D, A1, A2)

    @cached_property
    def _integer_vertices(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        D, A1, A2 = self._frame
        return _integer_points((-A1, A2 - D), (0, 1), (A2 - A1, A2 - D), (0, 1), (A1, D), (A2, D))


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
    def _check(D: int, A1: int, A2: int, B1: int) -> Checked:
        if not A1 > D:
            return lambda: f"need a1 > 1, got a1={Fraction(A1, D)}"
        if not (0 < A2 < D):
            return lambda: f"need 0 < a2 < 1, got a2={Fraction(A2, D)}"
        if not (0 < B1 < D):
            return lambda: f"need 0 < b1 < 1, got b1={Fraction(B1, D)}"
        nb2, db2 = -A2 * (D - B1), D * (A1 - D)  # b2 = nb2 / db2, db2 > 0
        if not B1 * (A1 - D) + nb2 < 0:
            return lambda: f"need b1 + b2 < 0, got {Fraction(B1 * db2 + nb2 * D, D * db2)}"
        E = (A1 - D) * (D - A2) * B1 - A1 * A2 * (D - B1)
        nc1, nc2 = A1 * (A1 - D) * B1, -A1 * A2 * (D - B1)  # c = (nc1, nc2) / E
        # c2 - b2 <= a1 - c1 times D db2 E < 0, and c2 - b2 <= a1 + a2 - (b1 + b2) times D E
        if not (D * db2 * (nc1 + nc2) >= (A1 * db2 + D * nb2) * E and D * nc2 >= (A1 + A2 - B1) * E):
            return lambda: (
                "lattice width must be attained by the vertical direction "
                f"(c2-b2={Fraction(nc2 * db2 - nb2 * E, E * db2)}, a1-c1={Fraction(A1 * E - nc1 * D, D * E)}, "
                f"a1+a2-b1-b2={Fraction((A1 + A2 - B1) * db2 - nb2 * D, D * db2)})"
            )
        return (D, A1, A2, B1, nb2, db2, E, nc2)

    @cached_property
    def _integer_vertices(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        D, A1, A2, B1, nb2, db2, E, nc2 = self._frame
        return _integer_points((A1, D), (A2, D), (B1, D), (nb2, db2), (A1 * (A1 - D) * B1, E), (nc2, E))


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
    def _check(D: int, A1: int, A2: int, B1: int, B2: int) -> Checked:
        if not (0 < A1 <= B1 < D):
            return lambda: f"need 0 < a1 <= b1 < 1, got a1={Fraction(A1, D)}, b1={Fraction(B1, D)}"
        if not A2 > D:
            return lambda: f"need a2 > 1, got a2={Fraction(A2, D)}"
        if not B2 < 0:
            return lambda: f"need b2 < 0, got b2={Fraction(B2, D)}"
        if not -B2 <= A2 - D:
            return lambda: f"need -b2 <= a2 - 1, got b2={Fraction(B2, D)}, a2={Fraction(A2, D)}"
        e_c = (A2 - D) * B1 - A1 * B2
        e_d = (A2 - D) * (D - B1) - (D - A1) * B2
        nc1 = -A1 * B1
        nd1 = (A2 - A1) * (D - B1) - (D - A1) * B2
        # a2 - b2 <= d1 - c1 times D e_c e_d > 0
        if not (A2 - B2) * e_c * e_d <= D * (nd1 * e_c - nc1 * e_d):
            return lambda: (
                f"lattice width must be attained by the vertical direction "
                f"(a2-b2={Fraction(A2 - B2, D)} > d1-c1={Fraction(nd1 * e_c - nc1 * e_d, e_d * e_c)})"
            )
        return (D, A1, A2, B1, B2, e_c, e_d)

    @cached_property
    def _integer_vertices(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        D, A1, A2, B1, B2, e_c, e_d = self._frame
        nd1 = (A2 - A1) * (D - B1) - (D - A1) * B2
        return _integer_points(
            (A1, D), (A2, D), (B1, D), (B2, D), (-A1 * B1, e_c), (-A1 * B2, e_c), (nd1, e_d), (-(D - A1) * B2, e_d)
        )


# ---------------------------------------------------------------------------
# operations


def area(body: LatticeFreeBody) -> Fraction:
    """Area of a bounded body, the integer shoelace sum over its
    counter-clockwise vertex cycle ``V / v``, over ``2 v^2``; errors on splits."""
    if isinstance(body, SplitBody):
        raise ValueError("a split is unbounded; its area is not defined")
    _check_type("body", body, LatticeFreeBody)
    v, V = body._integer_vertices
    return _ratio(_doubled_area([V[i] for i in body._order]), 2 * v * v)


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
        return _ratio(A2, max(D, A2 - D))  # min(a2, a2 / (a2 - 1))
    if isinstance(body, Type3Body):
        nb2, db2, E, nc2 = body._frame[4:]
        return _ratio(nc2 * db2 - nb2 * E, E * db2)  # c2 - b2
    if isinstance(body, QuadBody):
        D, _, A2, _, B2 = body._frame[:5]
        return _ratio(A2 - B2, D)  # a2 - b2
    _check_type("body", body, LatticeFreeBody)
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

