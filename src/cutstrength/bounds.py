"""Closed-form piecewise lower bounds on the probability that the strength of
a body's cut over a single split stays below a threshold ``z``.

All evaluators are exact: rational in, rational out.  Every family bound is
a :class:`PiecewiseBound`, plain integer data: one term per region, each a
few integer steps.

Write ``z = p / q`` and ``m = p - q``.  A term ``(den, steps)`` is one
``den`` and its steps; a step ``(sel, k, l, l')`` adds ``k l l' / (den m^2)``
once its selector ``sel(m, q) = a m + b q`` is non-negative, where each
linear form ``(a, b)`` stands for ``a m + b q`` with integer coefficients.  Every selector has ``a > 0``, so a step switches
on exactly at ``z >= (a - b) / a``, the root of its selector, and the bound's
breaks are those roots; no break is stored.  Every type 2, quad and type 3
term comes from one term builder, :func:`_term`: it is 0, then from the root
of ``l1`` on the trapezoid of the region between its split line and the line
where its ``t_bar`` equals z, ``k l1 l2 / (den m^2)``, then from the root of
``l3`` on that trapezoid plus ``s l3 l4 / (den m^2)``: for quad and type 3,
``l3 = l4`` and this takes off the corner that the line has passed at a
vertex; for type 2 it adds the paper's second part ``g2``.  Quad regions 2
and 4 are regions 1 and 3 of the body turned half a turn about (1/2, 1/2).
A call adds each term's switched-on steps as integers over the term's
``den``, and since ``m^2`` is common to every step, divides by it once, in the
``Fraction`` it returns.

For the type 1 triangle the value is an exact probability, not merely a
bound; it has a genuine jump at ``z = 2`` because the strength equals 2 on a
region of positive area.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import QuadBody, Rat, Type1Body, Type2Body, Type3Body, _frac, lattice_width

Pair = tuple[int, int]
Step = tuple[Pair, int, Pair, Pair]
Term = tuple[int, tuple[Step, ...]]


def check_threshold(z: Rat) -> Fraction:
    """``z`` as a Fraction, or a ValueError unless ``z > 1``."""
    z = _frac(z)
    if z.numerator <= z.denominator:
        raise ValueError(f"threshold must satisfy z > 1, got {z}")
    return z


@dataclass(frozen=True)
class PiecewiseBound:
    """Piecewise closed form in ``z`` on (1, oo): the sum of the steps of all
    terms, divided by the positive ``scale``, an unreduced ``(num, den)`` pair
    with ``den > 0``.

    Each term is one region's ``(den, steps)``, its steps ``((a, b), k, l,
    l')`` in the order of their roots.  A step adds ``k l l' / (den m^2)``
    once ``a m + b q >= 0``, which with ``a > 0`` is ``z >= (a - b) / a``:
    selection is right-continuous, the natural convention for a
    distribution-style bound.
    """

    terms: tuple[Term, ...]
    scale: Pair = (1, 1)

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(sorted({Fraction(a - b, a) for _, steps in self.terms for (a, b), *_ in steps}))

    def __call__(self, z: Rat) -> Fraction:
        z = check_threshold(z)
        q = z.denominator
        m = z.numerator - q
        num, den = 0, 1
        for d, steps in self.terms:
            tn = 0
            for (a, b), k, (a1, b1), (a2, b2) in steps:
                if a * m + b * q < 0:
                    break  # so are the selectors of the later roots
                tn += k * (a1 * m + b1 * q) * (a2 * m + b2 * q)
            if tn:
                num, den = num * d + tn * den, den * d
        sn, sd = self.scale
        return Fraction(num * sd, den * m * m * sn)


def _term(den: int, k: int, l1: Pair, l2: Pair, s: int, l3: Pair, l4: Pair) -> Term:
    """One region's term: the trapezoid ``k l1 l2 / (den m^2)`` from the root
    of ``l1`` on, plus the corner ``s l3 l4 / (den m^2)`` from the root of
    ``l3`` on, which is not below the root of ``l1``."""
    return den, ((l1, k, l1, l2), (l3, s, l3, l4))


# ---------------------------------------------------------------------------
# type 1


def t1_bound() -> PiecewiseBound:
    """Exact probability that the type 1 strength is at most z: 0, then
    ``3/4 ((2z - 3) / (z - 1))^2`` from ``z = 3/2``, then 1 from ``z = 2``."""
    u, v, m = (2, -1), (1, -1), (1, 0)  # the forms 2m - q (root 3/2), m - q (root 2) and m
    return PiecewiseBound(((4, ((u, 3, u, u), (v, -3, u, u), (v, 4, m, m))),))


def p_t1(z: Rat) -> Fraction:
    return t1_bound()(z)


# ---------------------------------------------------------------------------
# type 2


def t2_bound(w: Rat) -> PiecewiseBound:
    """Lower bound on the probability that the type 2 single-split strength is
    at most z, as a function of the lattice width alone.

    With ``w = P / Q``, the first step adds ``(z - w)(2wz - w - z) / (w^2 (z -
    1)^2)`` from ``z = w`` on and the second ``((w - 1)^2 (z - 1)^2 - 1) /
    (w^2 (z - 1)^2)`` from ``z = w / (w - 1)`` on; at ``w = 2`` both roots
    are 2."""
    w = _frac(w)
    if not 1 < w <= 2:
        raise ValueError(f"lattice width must satisfy 1 < w <= 2, got {w}")
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
    # region 6's trapezoid is a triangle, so its l1 and l2 are one form
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
