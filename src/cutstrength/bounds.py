"""Closed-form piecewise lower bounds on the probability that the strength of
a body's cut over a single split stays below a threshold ``z``.

All evaluators are exact: rational in, rational out.  Every family bound is
represented as a :class:`PiecewiseBound` (one term per region: ordered
breaks plus one closed-form evaluator per interval, selected
right-continuously), so that breakpoint continuity can be tested piece
against piece.

On each interval, the area that a region contributes is a quadratic in
``y = 1 / (z - 1)``.  So every piece is a closed form over integers: it takes
``z = p / q`` as the pair ``(p, q)`` and returns an unreduced ``(num, den)``
pair, with ``y = q / (p - q)``.  The quad and type 3 pieces are written over
the integer frame that their body's constructor keeps, and the parts that
depend on the body alone are computed once per bound; the breaks and the
scale are integer pairs too.  A call picks each term's piece by
cross-multiplying ``z`` against the breaks, adds the pairs, and reduces once,
to the ``Fraction`` it returns.

For the type 1 triangle the value is an exact probability, not merely a
bound; it has a genuine jump at ``z = 2`` because the strength equals 2 on a
region of positive area.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .geometry import QuadBody, Rat, Type1Body, Type2Body, Type3Body, _frac, lattice_width

Pair = tuple[int, int]
Piece = Callable[[int, int], Pair]


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

    terms: tuple[tuple[tuple[Pair, ...], tuple[Piece, ...]], ...]
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
                if n * q <= p * d:
                    i += 1
            n, d = fns[i](p, q)
            num, den = num * d + n * den, den * d
        sn, sd = self.scale
        return Fraction(num * sd, den * sn)


def _const(value: int) -> Piece:
    pair = (value, 1)
    return lambda p, q: pair


_ZERO = _const(0)


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
    at most z, as a function of the lattice width alone."""
    w = _frac(w)
    _check_width(w)
    # w = P / Q and w / (w - 1) = P / (P - Q); at w = 2 the breaks coincide
    # and the empty middle piece is never picked
    P, Q = w.numerator, w.denominator

    def g1(p: int, q: int) -> Pair:
        # (z - w)(2wz - w - z) / (w^2 (z - 1)^2)
        return (Q * p - P * q) * (2 * P * p - P * q - Q * p), (P * (p - q)) ** 2

    def g1_g2(p: int, q: int) -> Pair:
        # g1 + g2, g2 = ((w - 1)^2 (z - 1)^2 - 1) / (w^2 (z - 1)^2)
        m = p - q
        g2 = ((P - Q) * m) ** 2 - (Q * q) ** 2
        return (Q * p - P * q) * (2 * P * p - P * q - Q * p) + g2, (P * m) ** 2

    return PiecewiseBound(((((P, Q), (P, P - Q)), (_ZERO, g1, g1_g2)),))


def p_t2_lower(z: Rat, w: Rat) -> Fraction:
    return t2_bound(w)(z)


def special_values(w: Rat) -> tuple[Fraction, Fraction]:
    """(upper bound on 1 - P(2), lower bound on P(3/2)) for a type 2 body of
    lattice width ``w``, read off :func:`t2_bound`."""
    bound = t2_bound(w)
    return 1 - bound(2), bound(Fraction(3, 2))


# ---------------------------------------------------------------------------
# quadrilateral


def quad_bound(body: QuadBody) -> PiecewiseBound:
    """Lower bound on the probability that the quadrilateral single-split
    strength is at most z, in the vertex parameterization, built from the
    body's integer frame.

    With ``(a1, a2, b1, b2) = (A1, A2, B1, B2) / D``, ``G = D - A1``,
    ``H = A2 - D`` and ``J = D - B1``, the frame has ``c = -A1 (B1, B2) / e_c``
    and ``d = (1, 0) + G (J, -B2) / e_d``.  Regions 1 and 2 split along x2 at
    ``-b2 / (w - 1)``, regions 3 and 4 along x1 at ``-c1 / (v - 1)``, with
    ``w = a2 - b2`` and ``v = d1 - c1``.  A region's ``mid`` piece is the part
    of the body between its split line and the line where its ``t_bar``
    equals z, a trapezoid; its ``tail`` piece takes over once that line has
    passed a vertex.  In each piece ``m = p - q``."""
    D, A1, A2, B1, B2, e_c, e_d = body._frame
    G, H, J = D - A1, A2 - D, D - B1
    W = A2 - B2 - D  # D (w - 1)
    K = A2 - B2 - B1 + A1  # W times the body's width at x2 = -b2 / (w - 1)
    V = G * J * e_c + A1 * B1 * e_d  # e_c e_d (v - 1)
    # two shorthands of regions 3 and 4
    P = H * B1 + G * B2
    S = H * J * e_c - A1 * B2 * e_d
    DW2 = 2 * D * W * W

    def r1_mid(p: int, q: int) -> Pair:
        m = p - q
        num = -B2 * (D * m - W * q) * (D * (H * K + W * (H + A1)) * m + W * (H * J + A1 * B2) * q)
        return num, D * DW2 * H * m * m

    def r1_tail(p: int, q: int) -> Pair:
        m = p - q
        num = D * (A1 * (A1 - B1) * W - e_c * (K + W)) * m * m + W * W * e_c * q * (2 * m + q)
        return B2 * num, DW2 * e_c * m * m

    def r2_mid(p: int, q: int) -> Pair:
        m = p - q
        num = H * (D * m - W * q) * (D * (B2 * K + W * (B2 - J)) * m + W * (H * J + A1 * B2) * q)
        return num, D * DW2 * B2 * m * m

    def r2_tail(p: int, q: int) -> Pair:
        m = p - q
        num = D * (B2 * (A1 - B1) * (K + W) + J * W * (D + 2 * W)) * m * m - W * W * e_d * q * (2 * m + q)
        return H * num, DW2 * e_d * m * m

    def r3_mid(p: int, q: int) -> Pair:
        m = p - q
        num = A1 * B1 * (e_c * e_d * m - V * q) * (e_c * (G * S + H * V) * m - A1 * P * V * q)
        return num, 2 * G * (V * e_c * m) ** 2

    def r3_tail(p: int, q: int) -> Pair:
        m = p - q
        X = D * B2 * (A1 - B1) * ((H * (D + G) * B1 - A1 * B2 * G) * V - A1 * D * B1 * P * e_d) + e_c * V * V
        return A1 * (e_c * X * m * m - (D * B1 * V * q) ** 2), 2 * B1 * e_c * (D * V * m) ** 2

    def r4_mid(p: int, q: int) -> Pair:
        m = p - q
        num = G * J * (e_c * e_d * m - V * q) * (e_d * (B1 * S - B2 * V) * m + J * P * V * q)
        return num, 2 * B1 * (V * e_d * m) ** 2

    def r4_tail(p: int, q: int) -> Pair:
        m = p - q
        X = D * B1 * H * (B1 - A1) * ((H * (D + J) - G * B2) * V - A1 * D * P * e_d) + e_d * V * V
        return J * (e_d * X * m * m - (D * G * V * q) ** 2), 2 * G * e_d * (D * V * m) ** 2

    w, v = (A2 - B2, D), (e_c * e_d + V, e_c * e_d)
    return PiecewiseBound(
        (
            ((w, (e_c + A1 * D, A1 * D)), (_ZERO, r1_mid, r1_tail)),
            ((w, (A2 * e_d + D * G * B2, D * H * J)), (_ZERO, r2_mid, r2_tail)),
            ((v, (e_c + D * B1, e_c)), (_ZERO, r3_mid, r3_tail)),
            ((v, (e_d + D * G, e_d)), (_ZERO, r4_mid, r4_tail)),
        ),
        # the area (w + v) / 2
        ((A2 - B2) * e_c * e_d + D * (e_c * e_d + V), 2 * D * e_c * e_d),
    )


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
    forces c2 <= 1.  In each piece ``m = p - q``."""
    D, A1, A2, B1 = body._frame[:4]
    R, J, L, T = A1 - D, D - B1, D - A2, A1 + A2 - D
    F = A1 * A2 - T * B1
    W = A2 * J * (A1 * R + F) - D * F * R  # D F R (w - 1), w = c2 - b2

    def r12_mid(p: int, q: int) -> Pair:
        # the body between x2 = -b2 y and x2 = 1 - (c2 - 1) y, where its width
        # is a1 (1 - x2) / (1 - a2) - (b1 / b2) x2
        m = p - q
        U = D * F * R - A1 * A2 * J * R + A2 * J * F  # D F R (1 - c2 - b2)
        num = (D * F * R * m - W * q) * ((2 * A1 * A2 * J - D * F) * R * m - U * q)
        return num, 2 * D * F * L * A2 * J * (R * m) ** 2

    def r12_tail(p: int, q: int) -> Pair:
        # less the part below a2 that lies right of the edge ab
        num, den = r12_mid(p, q)
        return num - F * A2 * A2 * J * T * (R * (p - q) - J * q) ** 2, den

    def r34_lo(p: int, q: int) -> Pair:
        m = p - q
        return A2 * ((D * F * m - A1 * B1 * R * q) ** 2 - (R * F * q) ** 2), 2 * R * (D * F * m) ** 2

    def r34_hi(p: int, q: int) -> Pair:
        m = p - q
        num = D * F * F * J * m * m - R * R * (F * F + A1 * A1 * B1 * J) * q * q
        return A2 * num, 2 * R * (D * F * m) ** 2

    def r6_mid(p: int, q: int) -> Pair:
        m = p - q
        return (T * A2 * J * q - D * R * B1 * m) ** 2, 2 * A2 * J * (A2 * J - R * B1) * (D * m) ** 2

    def r6_tail(p: int, q: int) -> Pair:
        m = p - q
        return L * (D * (B1 * R * m) ** 2 - A2 * J * F * T * q * q), 2 * A2 * J * F * (D * m) ** 2

    cs = A1 * (A2 * J - B1 * R)  # D F (c1 + c2)
    return PiecewiseBound(
        (
            (((A2 * J * (A1 * R + F), D * F * R), (A1 - B1, R)), (_ZERO, r12_mid, r12_tail)),
            (((A1 * (F + B1 * R), D * F), (F + A1 * R, F)), (_ZERO, r34_lo, r34_hi)),
            (
                ((T * A2 * J + D * R * B1, D * R * B1), ((A1 + A2) * F - cs, D * F - cs)),
                (_ZERO, r6_mid, r6_tail),
            ),
        ),
        # the area (a1 + a2 - b2 - c1) / 2
        ((A1 + A2) * R * F + A2 * J * F + A1 * B1 * R * R, 2 * D * R * F),
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
