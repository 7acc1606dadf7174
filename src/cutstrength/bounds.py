"""Closed-form piecewise lower bounds on the probability that the strength of
a body's cut over a single split stays below a threshold ``z``.

All evaluators are exact: rational in, rational out.  Every family bound is
a :class:`PiecewiseBound`, plain integer data: one term per region, each a
few integer steps.

Write ``z = p / q`` and ``m = p - q``.  A term ``(den, steps)`` is one
``den`` and its steps; a step ``(sel, k, l, l')`` adds ``k l l' / (den m^2)``
once its selector ``sel(m, q) = a m + b q`` is non-negative, where each
linear form ``(a, b)`` stands for ``a m + b q`` with integer coefficients.
Every selector has ``a > 0``, so a step switches on exactly at ``z >= (a -
b) / a``, the root of its selector, and the bound's breaks are those roots;
no break is stored.  Each type 2, quad and type 3 term is 0, then from the
root of ``l1`` on the trapezoid of the region between its split line and
the line where its ``t_bar`` equals z, ``k l1 l2 / (den m^2)``, then from
the root of ``l3`` on that trapezoid plus ``s l3 l4 / (den m^2)``: for quad
and type 3, ``l3 = l4`` and this takes off the corner that the line has
passed at a vertex; for type 2 it adds the paper's second part ``g2``.
Quad regions 2 and 4 are regions 1 and 3 of the body turned half a turn
about (1/2, 1/2).

A quad or type 3 bound is built selector first: the builder works out only
each term's first selector, from which the term is 0 below its root, and
the integers the term is made of.  Each region's maker computes its
integers once, and gives either the term's steps or, given a call's
``(m, q)``, the term's value there: the sum of its switched-on steps' ``k l
l'``, added up straight from those integers.  :meth:`PiecewiseBound.__call__`
runs the makers whose first selector is on and keeps nothing, so a sweep,
which evaluates each bound once, builds no step tuple; ``terms`` makes the
steps on each read.  A call adds each term's value as an integer over the
term's ``den``, and since ``m^2`` is common to every step, divides by it
once, in the ``Fraction`` it returns.

For the type 1 triangle the value is an exact probability, not merely a
bound; it has a genuine jump at ``z = 2`` because the strength equals 2 on a
region of positive area.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .geometry import (
    LatticeFreeBody, QuadBody, Rat, Type1Body, Type2Body, Type3Body, _check_type, _frac, _listed, lattice_width
)

Pair = tuple[int, int]
Step = tuple[Pair, int, Pair, Pair]
Term = tuple[int, tuple[Step, ...]]
# (sel, make, data): the terms make(sel, *data), whose first steps have the
# selector sel, or their (den, value) pairs at (m, q), make(sel, *data, m, q)
Part = tuple[Pair, Callable, tuple]

_ON = (1, 0)  # the form m, positive at every z > 1


def check_threshold(z: Rat) -> Fraction:
    """``z`` as a Fraction, or a ValueError unless ``z > 1``."""
    z = _frac(z)
    if z.numerator <= z.denominator:
        raise ValueError(f"threshold must satisfy z > 1, got {z}")
    return z


class PiecewiseBound:
    """Piecewise closed form in ``z`` on (1, oo): the sum of the steps of all
    terms, divided by the positive ``scale``, an unreduced ``(num, den)`` pair
    with ``den > 0``.

    Each term is one region's ``(den, steps)``, its steps ``((a, b), k, l,
    l')`` in the order of their roots.  A step adds ``k l l' / (den m^2)``
    once ``a m + b q >= 0``, which with ``a > 0`` is ``z >= (a - b) / a``:
    selection is right-continuous, the natural convention for a
    distribution-style bound.  The terms are held in parts, each a group of
    terms that share a first selector and the maker that gives their steps,
    or their values at a call's z; a call runs only the makers of the parts
    whose selector is on, and stores nothing (see the module docstring).
    """

    __slots__ = ("scale", "_parts")

    def __init__(self, terms: tuple[Term, ...], scale: Pair = (1, 1)):
        self.scale = scale
        self._parts = ((_ON, _stepped, (tuple(_listed("terms", terms)),)),)

    @classmethod
    def _of_parts(cls, parts: tuple[Part, ...], scale: Pair) -> "PiecewiseBound":
        bound = cls.__new__(cls)
        bound.scale, bound._parts = scale, parts
        return bound

    @property
    def terms(self) -> tuple[Term, ...]:
        return tuple(term for sel, make, data in self._parts for term in make(sel, *data))

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(sorted({Fraction(a - b, a) for _, steps in self.terms for (a, b), *_ in steps}))

    def __eq__(self, other):
        if type(other) is not PiecewiseBound:
            return NotImplemented
        return (self.terms, self.scale) == (other.terms, other.scale)

    def __hash__(self):
        return hash((self.terms, self.scale))

    def __repr__(self):
        return f"PiecewiseBound(terms={self.terms!r}, scale={self.scale!r})"

    def __call__(self, z: Rat) -> Fraction:
        if type(z) is not Fraction:
            z = check_threshold(z)
        p, q = z.as_integer_ratio()
        if p <= q:
            check_threshold(z)  # raises
        m = p - q
        num, den = 0, 1
        for sel, make, data in self._parts:
            if sel[0] * m + sel[1] * q < 0:
                continue  # every step of these terms is off
            for d, tn in make(sel, *data, m, q):
                if tn:
                    num, den = num * d + tn * den, den * d
        sn, sd = self.scale
        return Fraction(num * sd, den * m * m * sn)


def _stepped(sel, terms, m=None, q=None):
    """The maker of hand-built terms: ``terms`` themselves, or at ``(m, q)``
    each term's ``den`` and the sum of its switched-on steps."""
    if m is None:
        return terms
    values = []
    for d, steps in terms:
        tn = 0
        for (a, b), k, (a1, b1), (a2, b2) in steps:
            if a * m + b * q < 0:
                break  # so are the selectors of the later roots
            tn += k * (a1 * m + b1 * q) * (a2 * m + b2 * q)
        values.append((d, tn))
    return values


# ---------------------------------------------------------------------------
# type 1


def t1_bound() -> PiecewiseBound:
    """Exact probability that the type 1 strength is at most z: 0, then
    ``3/4 ((2z - 3) / (z - 1))^2`` from ``z = 3/2``, then 1 from ``z = 2``."""
    u, v, m = (2, -1), (1, -1), (1, 0)  # the forms 2m - q (root 3/2), m - q (root 2) and m
    return PiecewiseBound(((4, ((u, 3, u, u), (v, -3, u, u), (v, 4, m, m))),))


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
    u, v = (Q, Q - P), (P - Q, -Q)  # the roots w and w / (w - 1)
    return PiecewiseBound(((P * P, ((u, 1, u, (2 * P - Q, P - Q)), (v, 1, v, (P - Q, Q)))),))


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
    ``w = a2 - b2`` and ``v = d1 - c1``, so regions 1 and 2 switch on at
    ``z = w`` and regions 3 and 4 at ``z = v``.  Regions 2 and 4 are regions
    1 and 3 of the body turned half a turn about (1/2, 1/2), whose frame is
    ``(D, J, D - B2, G, D - A2, e_d, e_c)``; the turn keeps ``W``, ``V`` and
    the shorthands ``K`` and ``S`` of the terms, and negates ``P``."""
    if type(body) is not QuadBody:
        _check_type("body", body, QuadBody)
    D, A1, A2, B1, B2, e_c, e_d = frame = body._frame
    W = A2 - B2 - D  # D (w - 1)
    V = (D - A1) * (D - B1) * e_c + A1 * B1 * e_d  # e_c e_d (v - 1)
    E = e_c * e_d
    return PiecewiseBound._of_parts(
        (((D, -W), _quad_x2_terms, (frame, W)), ((E, -V), _quad_x1_terms, (frame, V))),
        ((A2 - B2) * E + D * (E + V), 2 * D * E),  # over the area (w + v) / 2
    )


def _quad_x2_terms(sel, frame, W, m=None, q=None):
    """The terms of quad regions 1 and 2, split along x2, or their values at
    ``(m, q)``."""
    D, A1, A2, B1, B2, e_c, e_d = frame
    H, J = A2 - D, D - B1
    K = A2 - B2 - B1 + A1  # W times the body's width at x2 = -b2 / (w - 1)
    den, s = 2 * (D * W) ** 2, W * W
    k1, l1, L1 = -B2 * e_c, D * (H * K + W * (H + A1)), W * (H * D - e_c)
    k2, l2, L2 = H * e_d, D * (J * W - B2 * (K + W)), -W * (B2 * D + e_d)
    mc, md = A1 * D, J * D  # the corners (mc, -e_c) at c, and (md, -e_d) at d (the turned body's c)
    if m is None:
        c, d = (mc, -e_c), (md, -e_d)
        return (
            (den * H * e_c, ((sel, k1, sel, (l1, L1)), (c, B2 * s, c, c))),
            (-den * B2 * e_d, ((sel, k2, sel, (l2, L2)), (d, -H * s, d, d))),
        )
    x = sel[0] * m + sel[1] * q
    v1, v2 = k1 * x * (l1 * m + L1 * q), k2 * x * (l2 * m + L2 * q)
    c, d = mc * m - e_c * q, md * m - e_d * q
    if c >= 0:
        v1 += B2 * s * c * c
    if d >= 0:
        v2 -= H * s * d * d
    return (den * H * e_c, v1), (-den * B2 * e_d, v2)


def _quad_x1_terms(sel, frame, V, m=None, q=None):
    """The terms of quad regions 3 and 4, split along x1, or their values at
    ``(m, q)``."""
    D, A1, A2, B1, B2, e_c, e_d = frame
    G, H, J = D - A1, A2 - D, D - B1
    S, P = H * J * e_c - A1 * B2 * e_d, H * B1 + G * B2
    den, s = 2 * D * V * V, V * V
    k1, l1, L1 = A1 * B1 * D, e_c * (G * S + H * V), -A1 * P * V
    k2, l2, L2 = J * G * D, e_d * (B1 * S - B2 * V), J * P * V
    qa, qb = -B1 * D, -G * D  # the corners (e_c, qa) at a, and (e_d, qb) at b (the turned body's a)
    if m is None:
        a, b = (e_c, qa), (e_d, qb)
        return (
            (den * G * e_c * e_c, ((sel, k1, sel, (l1, L1)), (a, -A1 * H * s, a, a))),
            (den * B1 * e_d * e_d, ((sel, k2, sel, (l2, L2)), (b, J * B2 * s, b, b))),
        )
    x = sel[0] * m + sel[1] * q
    v1, v2 = k1 * x * (l1 * m + L1 * q), k2 * x * (l2 * m + L2 * q)
    a, b = e_c * m + qa * q, e_d * m + qb * q
    if a >= 0:
        v1 -= A1 * H * s * a * a
    if b >= 0:
        v2 += J * B2 * s * b * b
    return (den * G * e_c * e_c, v1), (den * B1 * e_d * e_d, v2)


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
    if type(body) is not Type3Body:
        _check_type("body", body, Type3Body)
    D, A1, A2, B1 = body._frame[:4]
    R, T = A1 - D, A1 + A2 - D
    F, AJ = A1 * A2 - T * B1, A2 * (D - B1)
    W = AJ * (A1 * R + F) - D * F * R  # D F R (w - 1), w = c2 - b2
    ints = (D, A1, A2, B1, R, T, F, AJ, W)
    return PiecewiseBound._of_parts(
        (
            ((D * F * R, -W), _t3_x2_term, ints),
            ((D * F, -R * (A1 * B1 + F)), _t3_x1_term, ints),
            ((D * R * B1, -T * AJ), _t3_diagonal_term, ints),
        ),
        # over the area (a1 + a2 - b2 - c1) / 2
        ((A1 + A2) * R * F + AJ * F + A1 * B1 * R * R, 2 * D * R * F),
    )


def _t3_x2_term(sel, D, A1, A2, B1, R, T, F, AJ, W, m=None, q=None):
    """The term of type 3 regions 1 and 2, whose corner is at vertex a, or
    its value at ``(m, q)``."""
    U = D * F * R - A1 * AJ * R + AJ * F  # D F R (1 - c2 - b2)
    den, l1, k2 = 2 * D * F * (D - A2) * AJ * R * R, (2 * A1 * AJ - D * F) * R, -F * A2 * AJ * T
    if m is None:
        a = (R, B1 - D)
        return ((den, ((sel, 1, sel, (l1, -U)), (a, k2, a, a))),)
    value = (sel[0] * m + sel[1] * q) * (l1 * m - U * q)
    a = R * m + (B1 - D) * q
    if a >= 0:
        value += k2 * a * a
    return ((den, value),)


def _t3_x1_term(sel, D, A1, A2, B1, R, T, F, AJ, W, m=None, q=None):
    """The term of type 3 regions 3 and 4, whose corner is at vertex b, or
    its value at ``(m, q)``."""
    den, L1, qb = 2 * R * (D * F) ** 2, R * (F - A1 * B1), -A1 * R
    if m is None:
        b = (F, qb)
        return ((den, ((sel, A2, sel, (D * F, L1)), (b, -A2 * B1 * D, b, b))),)
    value = A2 * (sel[0] * m + sel[1] * q) * (D * F * m + L1 * q)
    b = F * m + qb * q
    if b >= 0:
        value -= A2 * B1 * D * b * b
    return ((den, value),)


def _t3_diagonal_term(sel, D, A1, A2, B1, R, T, F, AJ, W, m=None, q=None):
    """The term of type 3 region 6, a triangle (so its l1 and l2 are one
    form), whose corner is at vertex c, or its value at ``(m, q)``."""
    den, mc = 2 * D * D * F * AJ * (AJ - R * B1), B1 * R
    if m is None:
        c = (mc, -F)
        return ((den, ((sel, F, sel, sel), (c, -T * D * AJ, c, c))),)
    x = sel[0] * m + sel[1] * q
    value = F * x * x
    c = mc * m - F * q
    if c >= 0:
        value -= T * D * AJ * c * c
    return ((den, value),)


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
    _check_type("body", body, LatticeFreeBody)
    raise ValueError(f"no probability bound for {body!r}")
