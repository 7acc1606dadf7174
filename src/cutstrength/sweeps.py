"""Parameter-grid sweeps of the closed-form bounds, with optional Monte
Carlo verification per row.

Default resolution is deliberately coarse (step 1/50); ranges and step are
configurable so a caller can zoom into the flat-body regime where the bounds
approach one.

A grid is walked in integers: every parameter value is a numerator over one
denominator ``D``, the least common multiple of the step's denominator and
of each range's lower end's, and the step is the integer ``S = step D``.
Each range is first cut, on its grid, to the values where a body can exist
(type 2: 1 < w <= 2; quad: 0 < a1 < 1, b1 < 1, 1 < a2 < 1 + 2/sqrt(3); type
3: 0 < a2 < 1, 0 < b1 < 1, then 1 < a1 < 1 + a2_hi (1 - b1_lo) / b1_lo over
the cut a2 and b1 ranges), so that a wide range costs no more than its cut.
Quad and type 3 bodies are built from the integers by
``_from_frame_or_reason``, so that a rejected tuple costs its checks and no
exception; a type 2 body is built by its constructor, and only when Monte
Carlo reads it.  Each row's parameters, and a quad's width ``a2 - b2``, come
from a table of one Fraction per distinct numerator, so the rows share one
object per grid value.  Every row, a ``NamedTuple`` :class:`GridRow`, is
built by ``_row``, straight from its fields by ``tuple.__new__``.
Quad rows are kept in one list per integer width ``A2 - B2``, joined widest
first, the stable sort on ``w`` with no key made per row; t3 and t2 rows are
sorted on ``(float(w), w)``.

The benchmark's tracer (``bench/tracing.py``) wraps this module's names
``QuadBody``, ``Type3Body``, ``lattice_width``, ``quad_lower`` and
``t3_lower``, so the bounds and the type 3 width are called through them,
and the bodies are reached as ``geometry.QuadBody`` and
``geometry.Type3Body``, which stay classes while those names are wrapped.
It also wraps ``bounds.t2_bound``, which the type 2 walk calls through the
module.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import partial
from math import isqrt, lcm
from typing import NamedTuple, Optional

from . import bounds, geometry
from .bounds import check_threshold, quad_lower, t3_lower
from .geometry import QuadBody, Type3Body, _frac, _ratio, lattice_width  # noqa: F401
from .montecarlo import McEstimate, monte_carlo_lower

PARAMS = {"t2": ("w",), "quad": ("a1", "a2", "b1", "b2"), "t3": ("a1", "a2", "b1")}
FAMILIES = tuple(PARAMS)

DEFAULT_STEP = Fraction(1, 50)


class GridRow(NamedTuple):
    params: tuple[Fraction, ...]
    w: Fraction
    z: Fraction
    bound: Fraction
    mc: Optional[McEstimate] = None


_grid_row = partial(tuple.__new__, GridRow)  # the same tuple, without __new__'s Python call


class _Over(dict):
    """``Fraction(n, D)`` for each integer numerator ``n``, made once per ``n`` by ``_ratio``."""

    def __init__(self, D: int):
        super().__init__()
        self.D = D

    def __missing__(self, n: int) -> Fraction:
        value = self[n] = _ratio(n, self.D)
        return value


def _grid(step: Fraction, *boxes):
    """``(D, S, ends)``: the grid's one denominator ``D``, the step ``S`` over
    it, and each range ``(lo, hi)`` of ``boxes`` as ``(L, H)``, the numerator
    of ``lo`` (on the grid) and the largest numerator at most ``hi``."""
    D = lcm(step.denominator, *(lo.denominator for lo, _ in boxes))
    ends = [(lo.numerator * (D // lo.denominator), hi.numerator * D // hi.denominator) for lo, hi in boxes]
    return D, step.numerator * (D // step.denominator), ends


def _clip(ends, S, least=None, most=None):
    """The walk ``range(L, H + 1, S)`` of ``ends = (L, H)`` kept to the
    numerators from ``least`` to ``most``: the first grid value at or above
    ``least``, and the largest end at most ``most``."""
    L, H = ends
    if least is not None and L < least:
        L += S * -((L - least) // S)
    return L, H if most is None else min(H, most)


def _range(ranges, key, default):
    """The checked ``(lo, hi)`` pair of ``ranges[key]`` read as Fractions, or ``default``."""
    return tuple(map(_frac, ranges[key])) if ranges and key in ranges else default


def sweep_grid(
    family: str,
    z,
    step=DEFAULT_STEP,
    ranges: Optional[dict] = None,
    mc_samples: Optional[int] = None,
    seed: int = 0,
) -> list[GridRow]:
    """Evaluate the family's closed-form bound over a parameter grid.

    Invalid parameter combinations are skipped.  Rows come back sorted by
    lattice width, widest first, so the tail of the list is the flat regime.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if ranges is not None and not isinstance(ranges, Mapping):
        raise TypeError(f"ranges must be a mapping of parameter names to (lo, hi) pairs, got {ranges!r}")
    for key, pair in (ranges or {}).items():
        if key not in PARAMS[family]:
            raise ValueError(
                f"unknown range parameter {key!r} for family {family}, expected one of {PARAMS[family]}"
            )
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
            raise ValueError(f"range {key!r} must be a (lo, hi) pair, got {pair!r}")
    z = check_threshold(z)
    step = _frac(step)
    if step <= 0:
        raise ValueError(f"need step > 0, got {step}")
    rows = []
    if family == "t2":
        D, S, [w_ends] = _grid(step, _range(ranges, "w", (1 + step, 2)))
        W_lo, W_hi = _clip(w_ends, S, D + 1, 2 * D)  # t2_bound's 1 < w <= 2
        over = _Over(D)
        for W in range(W_lo, W_hi + 1, S):
            w = over[W]
            # apex height w realizes lattice width w for any apex abscissa in
            # (0,1); the body is read only by Monte Carlo
            body = geometry.Type2Body(Fraction(1, 2), w) if mc_samples is not None else None
            rows.append(_row((w,), w, z, bounds.t2_bound(w)(z), body, mc_samples, seed))
    elif family == "quad":
        boxes = [
            _range(ranges, "a1", (step, 1 - step)),
            _range(ranges, "a2", (1 + step, 2 - step)),
            _range(ranges, "b1", (step, 1 - step)),
        ]
        if ranges and "b2" in ranges:
            boxes.append(_range(ranges, "b2", None))
        D, S, [a1_ends, a2_ends, b1_ends, *b2_ends] = _grid(step, *boxes)
        # QuadBody's 0 < a1 <= b1 < 1 and a2 > 1 (b1 starts at a1 or above,
        # and each column's walk of b2 starts below 0).  An accepted quad's
        # width a2 - b2 is its lattice width, at most 1 + 2/sqrt(3) (Hurkens
        # 1990), and b2 < 0, so a2 < 1 + 2/sqrt(3): 3 (A2 - D)^2 < 4 D^2
        A1_lo, A1_hi = _clip(a1_ends, S, 1, D - 1)
        A2_lo, A2_hi = _clip(a2_ends, S, D + 1, D + isqrt((4 * D * D - 1) // 3))
        B1_lo, B1_hi = _clip(b1_ends, S, most=D - 1)
        over, quad, by_width = _Over(D), geometry.QuadBody._from_frame_or_reason, {}
        for A1 in range(A1_lo, A1_hi + 1, S):
            for B1 in range(max(A1, B1_lo), B1_hi + 1, S):
                for A2 in range(A2_lo, A2_hi + 1, S):
                    B2_lo, B2_hi = b2_ends[0] if b2_ends else (D - A2, -S)
                    # QuadBody accepts a top run of the column's b2 < 0: as b2
                    # falls, a2 - b2 rises and d1 - c1 falls (-c1 and d1 - 1
                    # have denominators that grow with -b2), and -b2 <= a2 - 1
                    # bounds b2 below.  Every other check does not depend on
                    # b2, or holds whenever 0 < a1 <= b1 < 1, a2 > 1 and
                    # b2 < 0 (c2 <= d2 reduces to a1 <= b1).  So walk down
                    # from the column's last b2 < 0 to the first rejection
                    # and emit the run ascending, in the order of a full scan.
                    top = B2_lo + S * min((B2_hi - B2_lo) // S, -(B2_lo // S) - 1)
                    run = []
                    for B2 in range(top, B2_lo - 1, -S):
                        body = quad(D, A1, A2, B1, B2)
                        if callable(body):  # the rejection's message, unwritten
                            break
                        run.append((B2, body))
                    for B2, body in reversed(run):
                        params = (over[A1], over[A2], over[B1], over[B2])
                        row = _row(params, over[A2 - B2], z, quad_lower(body, z), body, mc_samples, seed)
                        by_width.setdefault(A2 - B2, []).append(row)
        rows = [row for W in sorted(by_width, reverse=True) for row in by_width[W]]  # stable, widest first
    else:
        D, S, [a1_ends, a2_ends, b1_ends] = _grid(
            step,
            _range(ranges, "a1", (1 + step, 4)),
            _range(ranges, "a2", (step, 1 - step)),
            _range(ranges, "b1", (step, 1 - step)),
        )
        # Type3Body's 0 < a2 < 1, 0 < b1 < 1 and a1 > 1; and its b1 + b2 < 0,
        # B1 (A1 - D) < A2 (D - B1) <= A2_hi (D - B1_lo), cuts a1 from above
        A2_lo, A2_hi = _clip(a2_ends, S, 1, D - 1)
        B1_lo, B1_hi = _clip(b1_ends, S, 1, D - 1)
        A1_lo, A1_hi = _clip(a1_ends, S, D + 1, D + (A2_hi * (D - B1_lo) - 1) // B1_lo)
        over, t3 = _Over(D), geometry.Type3Body._from_frame_or_reason
        for A1 in range(A1_lo, A1_hi + 1, S):
            for A2 in range(A2_lo, A2_hi + 1, S):
                for B1 in range(B1_lo, B1_hi + 1, S):
                    # Type3Body's b1 + b2 < 0 is b1 < a2 / (a1 + a2 - 1), and b1 ascends
                    if B1 * (A1 + A2 - D) >= A2 * D:
                        break
                    body = t3(D, A1, A2, B1)
                    if callable(body):  # the rejection's message, unwritten
                        continue
                    params = (over[A1], over[A2], over[B1])
                    rows.append(_row(params, lattice_width(body), z, t3_lower(body, z), body, mc_samples, seed))
    if not rows:
        raise ValueError("grid is empty: no valid parameter combinations")
    if family != "quad":
        # float rounding is monotone, so the exact w only breaks ties of the
        # floats, and the stable sort keeps the order of a sort on w alone
        rows.sort(key=lambda r: (float(r.w), r.w), reverse=True)
    return rows


def _row(params, w, z, bound, body, mc_samples, seed) -> GridRow:
    mc = None if mc_samples is None else monte_carlo_lower(body, z, mc_samples, seed)
    return _grid_row((params, w, z, bound, mc))
