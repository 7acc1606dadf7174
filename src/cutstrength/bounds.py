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
each region's first selector ``l1``, below whose root the term is 0, and the
integers the term is made of.  Each region's maker computes its integers
once and writes its term once, as the flat two-step tuple ``(den, k, l2,
l3, s)``, each form spread into its two coefficients (its ``l4`` is
``l3``).  :meth:`PiecewiseBound.__call__` runs the makers whose ``l1`` is
on, adds each such term's ``k l1 l2``, plus ``s l3^2`` once ``l3 >= 0``, as
an integer over its ``den``, and keeps nothing, so a sweep, which evaluates
each bound once, builds no step; ``terms`` spells the tuples out as steps
on each read.  Since ``m^2`` is common to every step, a call divides by it
once, in the ``Fraction`` it returns, made by ``geometry._ratio``.

For the type 1 triangle the value is an exact probability, not merely a
bound; it has a genuine jump at ``z = 2`` because the strength equals 2 on a
region of positive area.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .geometry import (
    LatticeFreeBody, QuadBody, Rat, Type1Body, Type2Body, Type3Body, _check_type, _frac, _is_int, _listed,
    _ratio, lattice_width
)

Pair = tuple[int, int]
Step = tuple[Pair, int, Pair, Pair]
Term = tuple[int, tuple[Step, ...]]
# (l1, make, data): the terms make(l1, *data), each a two-step tuple
# (den, k, *l2, *l3, s) whose steps are (l1, k, l1, l2) and (l3, s, l3, l3)
Part = tuple[Pair, Callable, tuple]


def check_threshold(z: Rat) -> Fraction:
    """``z`` as a Fraction, or a ValueError unless ``z > 1``."""
    z = _frac(z)
    if z.numerator <= z.denominator:
        raise ValueError(f"threshold must satisfy z > 1, got {z}")
    return z


def _int_pair(value) -> bool:
    return type(value) is tuple and len(value) == 2 and all(map(_is_int, value))


class PiecewiseBound:
    """Piecewise closed form in ``z`` on (1, oo): the sum of the steps of all
    terms, divided by the positive ``scale``, an unreduced pair ``(num, den)``
    of positive ints.

    Each term is one region's ``(den, steps)``, its steps ``((a, b), k, l,
    l')`` in the order of their roots.  A step adds ``k l l' / (den m^2)``
    once ``a m + b q >= 0``, which with ``a > 0`` is ``z >= (a - b) / a``:
    selection is right-continuous, the natural convention for a
    distribution-style bound.  Terms built by hand are checked and held as
    steps.  A family bound is built by ``_unchecked`` from its builder's own
    known-good data: type 1 and type 2 hold steps, and quad and type 3 hold
    parts, each a first selector and the maker of its regions' two-step
    tuples, and a call runs only the makers whose selector is on and stores
    nothing (see the module docstring).
    """

    __slots__ = ("scale", "_steps", "_parts")

    def __init__(self, terms: tuple[Term, ...], scale: Pair = (1, 1)):
        terms = tuple(_listed("terms", terms))
        if not (_int_pair(scale) and min(scale) > 0):
            raise ValueError(f"scale must be a pair of positive ints, got {scale!r}")
        for term in terms:
            if not (type(term) is tuple and len(term) == 2 and type(term[1]) is tuple):
                raise ValueError(f"a term must be a pair (den, steps) with a tuple of steps, got {term!r}")
            den, steps = term
            if not (_is_int(den) and den):
                raise ValueError(f"a term's den must be a nonzero int, got {den!r}")
            for step in steps:
                if not (type(step) is tuple and len(step) == 4):
                    raise ValueError(f"a step must be a tuple (sel, k, l, l'), got {step!r}")
                sel, k, *forms = step
                if not (_int_pair(sel) and sel[0] > 0):
                    raise ValueError(f"a step's selector must be an int pair (a, b) with a > 0, got {sel!r}")
                if not _is_int(k):
                    raise ValueError(f"a step's k must be an int, got {k!r}")
                for form in forms:
                    if not _int_pair(form):
                        raise ValueError(f"a step's forms l and l' must be int pairs, got {form!r}")
        self.scale, self._steps, self._parts = scale, terms, ()

    @classmethod
    def _unchecked(cls, steps: tuple[Term, ...], parts: tuple[Part, ...], scale: Pair) -> "PiecewiseBound":
        """A family bound of ``steps`` and ``parts``, held as given, without
        the shape check of ``__init__``."""
        bound = cls.__new__(cls)
        bound.scale, bound._steps, bound._parts = scale, steps, parts
        return bound

    @property
    def terms(self) -> tuple[Term, ...]:
        return self._steps + tuple(
            (d, ((sel, k, sel, (a2, b2)), ((a3, b3), s, (a3, b3), (a3, b3))))
            for sel, make, data in self._parts
            for d, k, a2, b2, a3, b3, s in make(sel, *data)
        )

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(sorted({_ratio(a - b, a) for _, steps in self.terms for (a, b), *_ in steps}))

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
        for d, steps in self._steps:
            tn = 0
            for (a, b), k, (a1, b1), (a2, b2) in steps:
                if a * m + b * q < 0:
                    break  # so are the selectors of the later roots
                tn += k * (a1 * m + b1 * q) * (a2 * m + b2 * q)
            if tn:
                num, den = num * d + tn * den, den * d
        for sel, make, data in self._parts:
            x = sel[0] * m + sel[1] * q
            if x < 0:
                continue  # and so is each l3, whose root is no lower: the terms are 0
            for d, k, a2, b2, a3, b3, s in make(sel, *data):
                tn = k * x * (a2 * m + b2 * q)
                l3 = a3 * m + b3 * q
                if l3 >= 0:
                    tn += s * l3 * l3
                num, den = num * d + tn * den, den * d
        sn, sd = self.scale
        return _ratio(num * sd, den * m * m * sn)


# ---------------------------------------------------------------------------
# type 1


def t1_bound() -> PiecewiseBound:
    """Exact probability that the type 1 strength is at most z: 0, then
    ``3/4 ((2z - 3) / (z - 1))^2`` from ``z = 3/2``, then 1 from ``z = 2``."""
    u, v, m = (2, -1), (1, -1), (1, 0)  # the forms 2m - q (root 3/2), m - q (root 2) and m
    return PiecewiseBound._unchecked(((4, ((u, 3, u, u), (v, -3, u, u), (v, 4, m, m))),), (), (1, 1))


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
    return PiecewiseBound._unchecked(((P * P, ((u, 1, u, (2 * P - Q, P - Q)), (v, 1, v, (P - Q, Q)))),), (), (1, 1))


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
    return PiecewiseBound._unchecked(
        (),
        (((D, -W), _quad_x2_terms, (frame, W)), ((E, -V), _quad_x1_terms, (frame, V))),
        ((A2 - B2) * E + D * (E + V), 2 * D * E),  # over the area (w + v) / 2
    )


def _quad_x2_terms(sel, frame, W):
    """The terms of quad regions 1 and 2, split along x2."""
    D, A1, A2, B1, B2, e_c, e_d = frame
    H, J = A2 - D, D - B1
    K = A2 - B2 - B1 + A1  # W times the body's width at x2 = -b2 / (w - 1)
    den, s = 2 * (D * W) ** 2, W * W
    mc, md = A1 * D, J * D  # the corners (mc, -e_c) at c, and (md, -e_d) at d (the turned body's c)
    return (
        (den * H * e_c, -B2 * e_c, D * (H * K + W * (H + A1)), W * (H * D - e_c), mc, -e_c, B2 * s),
        (-den * B2 * e_d, H * e_d, D * (J * W - B2 * (K + W)), -W * (B2 * D + e_d), md, -e_d, -H * s),
    )


def _quad_x1_terms(sel, frame, V):
    """The terms of quad regions 3 and 4, split along x1."""
    D, A1, A2, B1, B2, e_c, e_d = frame
    G, H, J = D - A1, A2 - D, D - B1
    S, P = H * J * e_c - A1 * B2 * e_d, H * B1 + G * B2
    den, s = 2 * D * V * V, V * V
    qa, qb = -B1 * D, -G * D  # the corners (e_c, qa) at a, and (e_d, qb) at b (the turned body's a)
    return (
        (den * G * e_c * e_c, A1 * B1 * D, e_c * (G * S + H * V), -A1 * P * V, e_c, qa, -A1 * H * s),
        (den * B1 * e_d * e_d, J * G * D, e_d * (B1 * S - B2 * V), J * P * V, e_d, qb, J * B2 * s),
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
    forces c2 <= 1."""
    if type(body) is not Type3Body:
        _check_type("body", body, Type3Body)
    D, A1, A2, B1 = body._frame[:4]
    R, T = A1 - D, A1 + A2 - D
    F, AJ = A1 * A2 - T * B1, A2 * (D - B1)
    W = AJ * (A1 * R + F) - D * F * R  # D F R (w - 1), w = c2 - b2
    ints = (D, A1, A2, B1, R, T, F, AJ)
    return PiecewiseBound._unchecked(
        (),
        (
            ((D * F * R, -W), _t3_x2_term, ints),
            ((D * F, -R * (A1 * B1 + F)), _t3_x1_term, ints),
            ((D * R * B1, -T * AJ), _t3_diagonal_term, ints),
        ),
        # over the area (a1 + a2 - b2 - c1) / 2
        ((A1 + A2) * R * F + AJ * F + A1 * B1 * R * R, 2 * D * R * F),
    )


def _t3_x2_term(sel, D, A1, A2, B1, R, T, F, AJ):
    """The term of type 3 regions 1 and 2, whose corner is at vertex a."""
    U, qa = D * F * R - A1 * AJ * R + AJ * F, B1 - D  # D F R (1 - c2 - b2), and a = (R, qa)
    return ((2 * D * F * (D - A2) * AJ * R * R, 1, (2 * A1 * AJ - D * F) * R, -U, R, qa, -F * A2 * AJ * T),)


def _t3_x1_term(sel, D, A1, A2, B1, R, T, F, AJ):
    """The term of type 3 regions 3 and 4, whose corner is at vertex b."""
    qb = -A1 * R  # b = (F, qb)
    return ((2 * R * (D * F) ** 2, A2, D * F, R * (F - A1 * B1), F, qb, -A2 * B1 * D),)


def _t3_diagonal_term(sel, D, A1, A2, B1, R, T, F, AJ):
    """The term of type 3 region 6, a triangle (its l2 is its l1) with its corner at vertex c."""
    mc = B1 * R  # c = (mc, -F)
    return ((2 * D * D * F * AJ * (AJ - R * B1), F, *sel, mc, -F, -T * D * AJ),)


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
