"""Parameter-grid sweeps of the closed-form bounds, with optional Monte
Carlo verification per row.

Default resolution is deliberately coarse (step 1/50); ranges and step are
configurable so a caller can zoom into the flat-body regime where the bounds
approach one.

A grid is walked in integers: every parameter value is a numerator over one
denominator ``D``, the least common multiple of the step's denominator and
of each range's lower end's, and the step is the integer ``S = step D``.
Quad and type 3 bodies are built from those integers by their families'
``_from_frame``, which fills a body's Fraction fields only if they are read.
Each row's parameters, and a quad's width ``a2 - b2``, come from a table of
one Fraction per distinct numerator.

The benchmark's tracer (``bench/tracing.py``) wraps this module's names
``QuadBody``, ``Type3Body``, ``lattice_width``, ``quad_lower`` and
``t3_lower``, so the bounds and the type 3 width are called through them,
and the bodies are reached as ``geometry.QuadBody`` and
``geometry.Type3Body``, which stay classes while those names are wrapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional

from . import geometry
from .bounds import check_threshold, p_t2_lower, quad_lower, t3_lower
from .geometry import QuadBody, Type2Body, Type3Body, _frac, lattice_width  # noqa: F401
from .montecarlo import McEstimate, monte_carlo_lower

PARAMS = {"t2": ("w",), "quad": ("a1", "a2", "b1", "b2"), "t3": ("a1", "a2", "b1")}
FAMILIES = tuple(PARAMS)

DEFAULT_STEP = Fraction(1, 50)


@dataclass(frozen=True)
class GridRow:
    params: tuple[Fraction, ...]
    w: Fraction
    z: Fraction
    bound: Fraction
    mc: Optional[McEstimate] = None


class _Over(dict):
    """``Fraction(n, D)`` for each integer numerator ``n``, made once per ``n``."""

    def __init__(self, D: int):
        super().__init__()
        self.D = D

    def __missing__(self, n: int) -> Fraction:
        value = self[n] = Fraction(n, self.D)
        return value


def _grid(step: Fraction, *boxes):
    """``(D, S, ends)``: the grid's one denominator ``D``, the step ``S`` over
    it, and each range ``(lo, hi)`` of ``boxes`` as ``(L, H)``, the numerator
    of ``lo`` (on the grid) and the largest numerator at most ``hi``."""
    D = lcm(step.denominator, *(lo.denominator for lo, _ in boxes))
    ends = [(lo.numerator * (D // lo.denominator), hi.numerator * D // hi.denominator) for lo, hi in boxes]
    return D, step.numerator * (D // step.denominator), ends


def _range(ranges, key, default):
    if ranges and key in ranges:
        lo, hi = ranges[key]
        return _frac(lo), _frac(hi)
    return default


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
    for key in ranges or ():
        if key not in PARAMS[family]:
            raise ValueError(
                f"unknown range parameter {key!r} for family {family}, expected one of {PARAMS[family]}"
            )
    z = check_threshold(z)
    step = _frac(step)
    if step <= 0:
        raise ValueError(f"need step > 0, got {step}")
    rows = []
    if family == "t2":
        D, S, [(W_lo, W_hi)] = _grid(step, _range(ranges, "w", (1 + step, 2)))
        over = _Over(D)
        for W in range(W_lo, W_hi + 1, S):
            if not D < W <= 2 * D:
                continue
            w = over[W]
            rows.append(_row((w,), w, z, p_t2_lower(z, w), _t2_body(w), mc_samples, seed))
    elif family == "quad":
        boxes = [
            _range(ranges, "a1", (step, 1 - step)),
            _range(ranges, "a2", (1 + step, 2 - step)),
            _range(ranges, "b1", (step, 1 - step)),
        ]
        if ranges and "b2" in ranges:
            boxes.append(_range(ranges, "b2", None))
        D, S, [(A1_lo, A1_hi), (A2_lo, A2_hi), (B1_lo, B1_hi), *b2_ends] = _grid(step, *boxes)
        over, quad = _Over(D), geometry.QuadBody._from_frame
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
                        try:
                            run.append((B2, quad(D, A1, A2, B1, B2)))
                        except ValueError:
                            break
                    for B2, body in reversed(run):
                        params = (over[A1], over[A2], over[B1], over[B2])
                        rows.append(_row(params, over[A2 - B2], z, quad_lower(body, z), body, mc_samples, seed))
    else:
        D, S, [(A1_lo, A1_hi), (A2_lo, A2_hi), (B1_lo, B1_hi)] = _grid(
            step,
            _range(ranges, "a1", (1 + step, 4)),
            _range(ranges, "a2", (step, 1 - step)),
            _range(ranges, "b1", (step, 1 - step)),
        )
        over, t3 = _Over(D), geometry.Type3Body._from_frame
        for A1 in range(A1_lo, A1_hi + 1, S):
            for A2 in range(A2_lo, A2_hi + 1, S):
                if A1 <= D or A2 <= 0:
                    continue  # Type3Body rejects every b1
                for B1 in range(B1_lo, B1_hi + 1, S):
                    # Type3Body's b1 + b2 < 0 is b1 < a2 / (a1 + a2 - 1), and b1 ascends
                    if B1 * (A1 + A2 - D) >= A2 * D:
                        break
                    try:
                        body = t3(D, A1, A2, B1)
                    except ValueError:
                        continue
                    params = (over[A1], over[A2], over[B1])
                    rows.append(_row(params, lattice_width(body), z, t3_lower(body, z), body, mc_samples, seed))
    if not rows:
        raise ValueError("grid is empty: no valid parameter combinations")
    # float rounding is monotone, so the exact w only breaks ties of the
    # floats, and the stable sort keeps the order of a sort on w alone
    rows.sort(key=lambda r: (float(r.w), r.w), reverse=True)
    return rows


def _t2_body(w: Fraction) -> Type2Body:
    # apex height w realizes lattice width w for any apex abscissa in (0,1)
    return Type2Body(Fraction(1, 2), w)


def _row(params, w, z, bound, body, mc_samples, seed) -> GridRow:
    mc = monte_carlo_lower(body, z, mc_samples, seed) if mc_samples is not None else None
    return GridRow(tuple(params), w, z, bound, mc)
