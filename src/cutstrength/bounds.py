"""Closed-form piecewise lower bounds on the probability that the strength of
a body's cut over a single split stays below a threshold ``z``.

All evaluators are exact: rational in, rational out.  Every family bound is
represented as a :class:`PiecewiseBound` (one term per region: ordered
breaks plus one closed-form evaluator per interval, selected
right-continuously), so that breakpoint continuity can be tested piece
against piece.  The breaks, the scale and the pieces' values are unreduced
integer pairs; the quad and type 3 bounds build theirs from the integer frame
that their body's constructor keeps, and a call picks each term's piece by
cross-multiplying ``z`` against the breaks, so only the value it returns is a
``Fraction``.

For the type 1 triangle the value is an exact probability, not merely a
bound; it has a genuine jump at ``z = 2`` because the strength equals 2 on a
region of positive area.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .geometry import QuadBody, Rat, Rational2, Type1Body, Type2Body, Type3Body, _frac, lattice_width


class _Ratio:
    """An unreduced rational ``numerator / denominator`` with a positive
    denominator, for evaluating the bound pieces.

    Each operation is a few integer products and no gcd, so a bound costs one
    reduction, in :meth:`PiecewiseBound.__call__`.  It works against ints,
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


@dataclass(frozen=True)
class PiecewiseBound:
    """Piecewise closed form in ``z`` on (1, oo), divided by ``scale``.

    Each term ``(breaks, fns)`` applies ``fns[i]`` on
    ``[breaks[i-1], breaks[i])`` (first and last interval open-ended); the
    value is the sum over the terms.  The breaks of a term are in
    non-decreasing order; they and the positive ``scale`` are unreduced
    :class:`_Ratio` pairs.  A call picks ``fns[i]`` with ``i`` the number of
    breaks ``b <= z``, by cross-multiplying, which is ``bisect_right`` on the
    ordered breaks: selection is right-continuous, the natural convention for
    a distribution-style bound.  The pieces take and return unreduced
    :class:`_Ratio` values; the sum is reduced once.
    """

    terms: tuple[tuple[tuple[_Ratio, ...], tuple[Callable[[_Ratio], _Ratio], ...]], ...]
    scale: _Ratio = _Ratio(1)

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(sorted({Fraction(b.numerator, b.denominator) for breaks, _ in self.terms for b in breaks}))

    def __call__(self, z: Rat) -> Fraction:
        z = _frac(z)
        p, q = z.numerator, z.denominator
        if p <= q:
            raise ValueError(f"threshold must satisfy z > 1, got {z}")
        zr = _Ratio(p, q)
        total = _Ratio(0)
        for breaks, fns in self.terms:
            i = 0
            for b in breaks:
                if b.numerator * q <= p * b.denominator:
                    i += 1
            total += fns[i](zr)
        scale = self.scale
        return Fraction(total.numerator * scale.denominator, total.denominator * scale.numerator)


def _const(value: int) -> Callable[[_Ratio], _Ratio]:
    v = _Ratio(value)
    return lambda z: v


_ZERO = _const(0)


# ---------------------------------------------------------------------------
# type 1


def t1_bound() -> PiecewiseBound:
    """Exact probability that the type 1 strength is at most z."""

    def middle(z: _Ratio) -> _Ratio:
        return _Ratio(3, 4) * ((2 * z - 3) / (z - 1)) ** 2

    return PiecewiseBound((((_Ratio(3, 2), _Ratio(2)), (_ZERO, middle, _const(1))),))


def p_t1(z: Rat) -> Fraction:
    return t1_bound()(z)


# ---------------------------------------------------------------------------
# type 2


def _check_width(w: Fraction):
    if not 1 < w <= 2:
        raise ValueError(f"lattice width must satisfy 1 < w <= 2, got {w}")


def t2_bound(w: Rat) -> PiecewiseBound:
    """Lower bound on the probability that the type 2 single-split strength is
    at most z, as a function of the lattice width alone."""
    w = _frac(w)
    _check_width(w)
    # w / (w - 1) = p / (p - q); at w = 2 the breaks coincide and the empty
    # middle piece is never picked
    p, q = w.numerator, w.denominator
    breaks = (_Ratio(p, q), _Ratio(p, p - q))
    w = _Ratio(p, q)

    def g1(z: _Ratio) -> _Ratio:
        return (z - w) * (2 * w * z - w - z) / (w**2 * (z - 1) ** 2)

    def g2(z: _Ratio) -> _Ratio:
        return ((w - 1) ** 2 * (z - 1) ** 2 - 1) / (w**2 * (z - 1) ** 2)

    return PiecewiseBound(((breaks, (_ZERO, g1, lambda z: g1(z) + g2(z))),))


def p_t2_lower(z: Rat, w: Rat) -> Fraction:
    return t2_bound(w)(z)


def t2_region_integrals(a, z: Rat) -> tuple[Fraction, Fraction, Fraction]:
    """Aggregated region integrals (R1+R2, R3+R4, R5+R6) for a type 2 body.

    Their sum divided by the body area equals :func:`p_t2_lower` at the body's
    lattice width, exactly.
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
        r12 = Fraction(0) if z <= a2 else (z - a2) / (z - 1)
    else:
        r12 = Fraction(0) if z <= steep else 1 - 1 / ((a2 - 1) * (z - 1))
    r34 = Fraction(0) if z <= a2 else (z - a2) * (z + a2 - 2) / (2 * (a2 - 1) * (z - 1) ** 2)
    r56 = (
        Fraction(0)
        if z <= steep
        else (a2 - 1) / 2 * (1 - 1 / ((a2 - 1) ** 2 * (z - 1) ** 2))
    )
    return r12, r34, r56


def special_values(w: Rat) -> tuple[Fraction, Fraction]:
    """(upper bound on 1 - P(2), lower bound on P(3/2)) for a type 2 body."""
    w = _frac(w)
    _check_width(w)
    upper_z2 = 4 * (w - 1) ** 2 / w**2
    lower_z32 = (3 - 2 * w) * (4 * w - 3) / w**2 if w < Fraction(3, 2) else Fraction(0)
    return upper_z2, lower_z32


# ---------------------------------------------------------------------------
# quadrilateral


def quad_bound(body: QuadBody) -> PiecewiseBound:
    """Lower bound on the probability that the quadrilateral single-split
    strength is at most z, in the vertex parameterization, built from the
    body's integer frame."""
    D, A1, A2, B1, B2, e_c, e_d, nc1, nc2, nd1, nd2 = body._frame
    a1, a2, b1, b2 = _Ratio(A1, D), _Ratio(A2, D), _Ratio(B1, D), _Ratio(B2, D)
    c1, c2, d1, d2 = _Ratio(nc1, e_c), _Ratio(nc2, e_c), _Ratio(nd1, e_d), _Ratio(nd2, e_d)
    w, v = _Ratio(A2 - B2, D), d1 - c1
    breaks = (
        (w, (c2 - b2) / c2),
        (w, (a2 - d2) / (1 - d2)),
        (v, (a1 - c1) / a1),
        (v, (d1 - b1) / (1 - b1)),
    )
    fns = _quad_pieces(a1, a2, b1, b2, c1, c2, d1, d2, w)
    # the area (a2 - b2 + d1 - c1) / 2
    return PiecewiseBound(tuple(zip(breaks, fns)), (w + v) * _Ratio(1, 2))


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


def quad_lower(body: QuadBody, z: Rat) -> Fraction:
    return quad_bound(body)(z)


# ---------------------------------------------------------------------------
# type 3


def t3_bound(body: Type3Body) -> PiecewiseBound:
    """Lower bound on the probability that the type 3 single-split strength is
    at most z, in the vertex parameterization, built from the body's integer
    frame."""
    D, A1, A2, B1, nb2, db2, E, nc1, nc2 = body._frame
    a1, a2, b1, b2 = _Ratio(A1, D), _Ratio(A2, D), _Ratio(B1, D), _Ratio(nb2, db2)
    # c = (nc1, nc2) / E with E < 0 and nc2 < 0
    c1, c2, cs = _Ratio(-nc1, -E), _Ratio(-nc2, -E), _Ratio(-nc1 - nc2, -E)
    w = c2 - b2
    # The diagonal-split region above the line x2 = 1 is the triangle with
    # vertices c, (0,1), and (c1/c2, 1); its lowest diagonal coordinate
    # x1 + x2 is s_low, attained at (c1/c2, 1), so its contribution starts at
    # z_corner, not at the diagonal lattice width.  The low-diagonal region
    # R5 is always empty under the enforced width ordering: it would require
    # a1 + a2 <= 1 + b1, which forces c2 <= 1.
    s_low = _Ratio(-nc1 - nc2, -nc2)  # (c1 + c2) / c2
    breaks = (
        (w, (a2 - b2) / a2),
        (a1 - c1, (b1 - c1) / b1),
        ((a1 + a2 - s_low) / (1 - s_low), (a1 + a2 - cs) / (1 - cs)),
    )
    fns = _t3_pieces(a1, a2, b1, b2, c1, c2, w, s_low)
    # the area (a1 + a2 - b2 - c1) / 2
    return PiecewiseBound(tuple(zip(breaks, fns)), (a1 + a2 - b2 - c1) * _Ratio(1, 2))


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


def t3_lower(body: Type3Body, z: Rat) -> Fraction:
    return t3_bound(body)(z)


def bound_for(body, z: Rat) -> Fraction:
    """Family dispatch: the closed-form bound for any non-split body."""
    return piecewise_bound_for(body)(z)


def piecewise_bound_for(body) -> PiecewiseBound:
    if isinstance(body, Type1Body):
        return t1_bound()
    if isinstance(body, Type2Body):
        return t2_bound(lattice_width(body))
    if isinstance(body, QuadBody):
        return quad_bound(body)
    if isinstance(body, Type3Body):
        return t3_bound(body)
    raise ValueError(f"no probability bound for {body!r}")
