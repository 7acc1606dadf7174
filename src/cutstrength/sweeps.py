"""Parameter-grid sweeps of the closed-form bounds, with optional Monte
Carlo verification per row.

Default resolution is deliberately coarse (step 1/50); ranges and step are
configurable so a caller can zoom into the flat-body regime where the bounds
approach one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import Optional

from .bounds import check_threshold, p_t2_lower, quad_lower, t3_lower
from .geometry import QuadBody, Type2Body, Type3Body, _frac, lattice_width
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


def _steps(lo: Fraction, hi: Fraction, step: Fraction):
    v = lo
    while v <= hi:
        yield v
        v += step


def _negative_steps_down(lo: Fraction, hi: Fraction, step: Fraction):
    """The values of ``_steps(lo, hi, step)`` that are below 0, largest first."""
    top = min(floor((hi - lo) / step), ceil(-lo / step) - 1)
    for k in range(top, -1, -1):
        yield lo + k * step


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
        lo, hi = _range(ranges, "w", (1 + step, 2))
        for w in _steps(lo, hi, step):
            if not 1 < w <= 2:
                continue
            rows.append(_row((w,), w, z, p_t2_lower(z, w), _t2_body(w), mc_samples, seed))
    elif family == "quad":
        a1_r = _range(ranges, "a1", (step, 1 - step))
        a2_r = _range(ranges, "a2", (1 + step, 2 - step))
        b1_r = _range(ranges, "b1", (step, 1 - step))
        b2_r = _range(ranges, "b2", None)
        for a1 in _steps(*a1_r, step):
            for b1 in _steps(max(a1, b1_r[0]), b1_r[1], step):
                for a2 in _steps(*a2_r, step):
                    lo2, hi2 = b2_r if b2_r else (-(a2 - 1), -step)
                    # QuadBody accepts a top run of the column's b2 < 0: as b2
                    # falls, a2 - b2 rises and d1 - c1 falls (-c1 and d1 - 1
                    # have denominators that grow with -b2), and -b2 <= a2 - 1
                    # bounds b2 below.  Every other check does not depend on
                    # b2, or holds whenever 0 < a1 <= b1 < 1, a2 > 1 and
                    # b2 < 0 (c2 <= d2 reduces to a1 <= b1).  So walk down to
                    # the first rejection and emit the run ascending, in the
                    # order of a full scan.
                    run = []
                    for b2 in _negative_steps_down(lo2, hi2, step):
                        try:
                            run.append((b2, QuadBody(a1, a2, b1, b2)))
                        except ValueError:
                            break
                    for b2, body in reversed(run):
                        w = lattice_width(body)
                        rows.append(
                            _row((a1, a2, b1, b2), w, z, quad_lower(body, z), body, mc_samples, seed)
                        )
    else:
        a1_r = _range(ranges, "a1", (1 + step, 4))
        a2_r = _range(ranges, "a2", (step, 1 - step))
        b1_r = _range(ranges, "b1", (step, 1 - step))
        for a1 in _steps(*a1_r, step):
            for a2 in _steps(*a2_r, step):
                if a1 <= 1 or a2 <= 0:
                    continue  # Type3Body rejects every b1
                # Type3Body's b1 + b2 < 0 is b1 < a2 / (a1 + a2 - 1), and b1 ascends
                limit = a2 / (a1 + a2 - 1)
                for b1 in _steps(*b1_r, step):
                    if b1 >= limit:
                        break
                    try:
                        body = Type3Body(a1, a2, b1)
                    except ValueError:
                        continue
                    w = lattice_width(body)
                    rows.append(
                        _row((a1, a2, b1), w, z, t3_lower(body, z), body, mc_samples, seed)
                    )
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
