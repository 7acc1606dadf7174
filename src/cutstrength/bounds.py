"""Closed-form piecewise lower bounds on the probability that the strength of
a body's cut over a single split stays below a threshold ``z``.

All evaluators are exact: rational in, rational out.  Every family bound is
represented as a :class:`PiecewiseBound` (one term per region: ordered
breaks plus one closed-form evaluator per interval, selected
right-continuously), so that breakpoint continuity can be tested piece
against piece.

Write ``z = p / q`` and ``m = p - q``.  Every type 2, quad and type 3 term is
built by one term builder, :func:`_term`, from linear forms ``l = a m + b q``
with integer coefficients.  Its pieces are 0, then the trapezoid of the region
between its split line and the line where its ``t_bar`` equals z, ``k l1 l2 /
(den m^2)``, then that trapezoid plus ``s l3 l4 / (den m^2)``: for quad and
type 3, ``l3 = l4`` and this takes off the corner that the line has passed at
a vertex; for type 2 it adds the paper's second part ``g2``.  So a term's two
breaks are the roots ``z = (a - b) / a`` of ``l1`` and ``l3``, and no break is
written out.  Quad regions 2 and 4 are regions 1 and 3 of the body turned
half a turn about (1/2, 1/2).  A call picks each term's piece by
cross-multiplying ``z`` against the breaks, adds the pairs, and reduces once,
to the ``Fraction`` it returns.

For the type 1 triangle the value is an exact probability, not merely a
bound; it has a genuine jump at ``z = 2`` because the strength equals 2 on a
region of positive area.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MethodType
from typing import Callable

from .geometry import QuadBody, Rat, Type1Body, Type2Body, Type3Body, _frac, lattice_width

Pair = tuple[int, int]
Piece = Callable[[int, int], Pair]
Term = tuple[tuple[Pair, ...], tuple[Piece, ...]]


@dataclass(frozen=True)
class PiecewiseBound:
    """Piecewise closed form in ``z`` on (1, oo), divided by ``scale``.

    Each term ``(breaks, fns)`` applies ``fns[i]`` on
    ``[breaks[i-1], breaks[i])`` (first and last interval open-ended); the
    value is the sum over the terms.  The breaks of a term are in
    non-decreasing order; they and the positive ``scale`` are unreduced
    ``(num, den)`` pairs with ``den > 0``.  A call picks ``fns[i]`` with ``i``
    the number of breaks ``b <= z``, by cross-multiplying, which is
    ``bisect_right`` on the ordered breaks: selection is right-continuous, the
    natural convention for a distribution-style bound.  A piece takes
    ``z = p / q`` as ``(p, q)`` with ``q > 0`` and returns an unreduced
    ``(num, den)`` pair; the sum is reduced once.
    """

    terms: tuple[Term, ...]
    scale: Pair = (1, 1)

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(sorted({Fraction(n, d) for breaks, _ in self.terms for n, d in breaks}))

    def __call__(self, z: Rat) -> Fraction:
        z = _frac(z)
        p, q = z.numerator, z.denominator
        if p <= q:
            raise ValueError(f"threshold must satisfy z > 1, got {z}")
        num, den = 0, 1
        for breaks, fns in self.terms:
            i = 0
            for n, d in breaks:
                if n * q > p * d:
                    break
                i += 1
            n, d = fns[i](p, q)
            if n:
                num, den = num * d + n * den, den * d
        sn, sd = self.scale
        return Fraction(num * sd, den * sn)


def _const(value: int) -> Piece:
    pair = (value, 1)
    return lambda p, q: pair


_ZERO = _const(0)


def _piece(coefficients: tuple, p: int, q: int) -> Pair:
    """``(k l1 l2 + s l3 l4) / (den m^2)`` at ``z = p / q``, with ``m = p - q``
    and each ``l = (a, b)`` the linear form ``a m + b q``."""
    den, k, (a1, b1), (a2, b2), s, (a3, b3), (a4, b4) = coefficients
    m = p - q
    return k * (a1 * m + b1 * q) * (a2 * m + b2 * q) + s * (a3 * m + b3 * q) * (a4 * m + b4 * q), den * m * m


def _term(den: int, k: int, l1: Pair, l2: Pair, s: int, l3: Pair, l4: Pair) -> Term:
    """One region's term: 0, then the trapezoid ``k l1 l2 / (den m^2)``, then
    that plus the corner ``s l3 l4 / (den m^2)`` (see :func:`_piece`).  The
    breaks are the roots ``z = (a - b) / a`` of ``l1`` and ``l3``, whose
    ``a`` is positive.  Each piece is :func:`_piece` bound to its
    coefficients, which is cheaper to make and to call than a ``partial``."""
    (a1, b1), (a3, b3) = l1, l3
    mid, tail = MethodType(_piece, (den, k, l1, l2, 0, l3, l4)), MethodType(_piece, (den, k, l1, l2, s, l3, l4))
    return ((a1 - b1, a1), (a3 - b3, a3)), (_ZERO, mid, tail)


# ---------------------------------------------------------------------------
# type 1


def t1_bound() -> PiecewiseBound:
    """Exact probability that the type 1 strength is at most z."""

    def middle(p: int, q: int) -> Pair:
        # 3/4 ((2z - 3) / (z - 1))^2
        return 3 * (2 * p - 3 * q) ** 2, 4 * (p - q) ** 2

    return PiecewiseBound(((((3, 2), (2, 1)), (_ZERO, middle, _const(1))),))


def p_t1(z: Rat) -> Fraction:
    return t1_bound()(z)


# ---------------------------------------------------------------------------
# type 2


def _check_width(w: Fraction):
    if not 1 < w <= 2:
        raise ValueError(f"lattice width must satisfy 1 < w <= 2, got {w}")


def t2_bound(w: Rat) -> PiecewiseBound:
    """Lower bound on the probability that the type 2 single-split strength is
    at most z, as a function of the lattice width alone.

    With ``w = P / Q``, the middle piece is ``(z - w)(2wz - w - z) / (w^2 (z -
    1)^2)`` and the last adds ``((w - 1)^2 (z - 1)^2 - 1) / (w^2 (z - 1)^2)``,
    so the breaks are ``w`` and ``w / (w - 1)``; at ``w = 2`` they coincide
    and the empty middle piece is never picked."""
    w = _frac(w)
    _check_width(w)
    P, Q = w.numerator, w.denominator
    return PiecewiseBound((_term(P * P, 1, (Q, Q - P), (2 * P - Q, P - Q), 1, (P - Q, -Q), (P - Q, Q)),))


def p_t2_lower(z: Rat, w: Rat) -> Fraction:
    return t2_bound(w)(z)


def special_values(w: Rat) -> tuple[Fraction, Fraction]:
    """(upper bound on 1 - P(2), lower bound on P(3/2)) for a type 2 body of
    lattice width ``w``, read off :func:`t2_bound`."""
    bound = t2_bound(w)
    return 1 - bound(2), bound(Fraction(3, 2))


# ---------------------------------------------------------------------------
# quadrilateral


def _quad_terms(D, A1, A2, B1, B2, e_c, e_d, W, K, V, S, P) -> tuple[Term, Term]:
    """The terms of regions 1 and 3 of the quad with frame ``(D, A1, A2, B1,
    B2, e_c, e_d)``; the rest are the shorthands of :func:`quad_bound`."""
    G, H, J = D - A1, A2 - D, D - B1
    c, a = (A1 * D, -e_c), (e_c, -B1 * D)  # the corners at vertices c and a
    return (
        _term(2 * (D * W) ** 2 * H * e_c, -B2 * e_c, (D, -W), (D * (H * K + W * (H + A1)), W * (H * D - e_c)),
              B2 * W * W, c, c),
        _term(2 * D * G * (V * e_c) ** 2, A1 * B1 * D, (e_c * e_d, -V), (e_c * (G * S + H * V), -A1 * P * V),
              -A1 * H * V * V, a, a),
    )


def quad_bound(body: QuadBody) -> PiecewiseBound:
    """Lower bound on the probability that the quadrilateral single-split
    strength is at most z, in the vertex parameterization, built from the
    body's integer frame.

    With ``(a1, a2, b1, b2) = (A1, A2, B1, B2) / D``, ``G = D - A1``,
    ``H = A2 - D`` and ``J = D - B1``, the frame has ``c = -A1 (B1, B2) / e_c``
    and ``d = (1, 0) + G (J, -B2) / e_d``.  Regions 1 and 2 split along x2 at
    ``-b2 / (w - 1)``, regions 3 and 4 along x1 at ``-c1 / (v - 1)``, with
    ``w = a2 - b2`` and ``v = d1 - c1``.  Regions 2 and 4 are regions 1 and 3
    of the body turned half a turn about (1/2, 1/2), whose frame is ``(D, J,
    D - B2, G, D - A2, e_d, e_c)``; the turn keeps ``W``, ``K``, ``V`` and
    ``S`` and negates ``P``."""
    D, A1, A2, B1, B2, e_c, e_d = body._frame
    G, H, J = D - A1, A2 - D, D - B1
    W = A2 - B2 - D  # D (w - 1)
    K = A2 - B2 - B1 + A1  # W times the body's width at x2 = -b2 / (w - 1)
    V = G * J * e_c + A1 * B1 * e_d  # e_c e_d (v - 1)
    P, S = H * B1 + G * B2, H * J * e_c - A1 * B2 * e_d
    r1, r3 = _quad_terms(D, A1, A2, B1, B2, e_c, e_d, W, K, V, S, P)
    r2, r4 = _quad_terms(D, J, D - B2, G, D - A2, e_d, e_c, W, K, V, S, -P)
    # over the area (w + v) / 2
    return PiecewiseBound((r1, r2, r3, r4), ((A2 - B2) * e_c * e_d + D * (e_c * e_d + V), 2 * D * e_c * e_d))


def quad_lower(body: QuadBody, z: Rat) -> Fraction:
    return quad_bound(body)(z)


# ---------------------------------------------------------------------------
# type 3


def t3_bound(body: Type3Body) -> PiecewiseBound:
    """Lower bound on the probability that the type 3 single-split strength is
    at most z, in the vertex parameterization, built from the body's integer
    frame.

    With ``(a1, a2, b1) = (A1, A2, B1) / D``, ``R = A1 - D``, ``J = D - B1``,
    ``T = A1 + A2 - D`` and ``F = A1 A2 - T B1`` (the frame's ``E`` is
    ``-D F``), ``b2 = -A2 J / (D R)`` and ``c = A1 (-B1 R, A2 J) / (D F)``.
    Regions 1 and 2 split along x2, 3 and 4 along x1, and 5 and 6 along the
    diagonal x1 + x2; the low-diagonal region 5 is always empty under the
    enforced width ordering, since it would need a1 + a2 <= 1 + b1, which
    forces c2 <= 1."""
    D, A1, A2, B1 = body._frame[:4]
    R, J, L, T = A1 - D, D - B1, D - A2, A1 + A2 - D
    F, AJ = A1 * A2 - T * B1, A2 * J
    W = AJ * (A1 * R + F) - D * F * R  # D F R (w - 1), w = c2 - b2
    U = D * F * R - A1 * AJ * R + AJ * F  # D F R (1 - c2 - b2)
    # the corners at vertices a (below a2, right of the edge ab), b and c;
    # region 6's middle piece is a triangle, so its l1 and l2 are one form
    a, b, c, diag = (R, -J), (F, -A1 * R), (B1 * R, -F), (D * R * B1, -T * AJ)
    return PiecewiseBound(
        (
            _term(2 * D * F * L * AJ * R * R, 1, (D * F * R, -W), ((2 * A1 * AJ - D * F) * R, -U),
                  -F * A2 * AJ * T, a, a),
            _term(2 * R * (D * F) ** 2, A2, (D * F, -R * (A1 * B1 + F)), (D * F, R * (F - A1 * B1)),
                  -A2 * B1 * D, b, b),
            _term(2 * D * D * F * AJ * (AJ - R * B1), F, diag, diag, -T * D * AJ, c, c),
        ),
        # over the area (a1 + a2 - b2 - c1) / 2
        ((A1 + A2) * R * F + AJ * F + A1 * B1 * R * R, 2 * D * R * F),
    )


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
