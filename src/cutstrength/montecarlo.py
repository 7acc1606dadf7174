"""Monte Carlo verification of the closed-form probability bounds.

Samples root vertices uniformly in a body (fan triangulation plus the
standard barycentric fold, no rejection) and tallies the indicator that
``t_bar`` is at most a threshold, read off the integer region table that
``cuts.region_of`` matches, each constant an int quotient.  Sample ``i`` is a
pure function of ``(seed, i)``: each sample consumes exactly one Philox
counter block (four doubles, three used), so results are bit-identical no
matter how the index range is chunked across threads.

The kernel works on columns: a chunk of samples becomes the 1-D arrays
``x1`` and ``x2``, built by whole-array arithmetic (a branch-free fold, and a
triangle pick that is one comparison per break of the fan), and the
evaluator reads those columns directly.  Every step computes the same
doubles as the per-point formulas, so points, ``t_bar`` values and hit
counts are bit for bit those of a row-wise kernel (an ``(n, 2)`` array,
masked writes, ``searchsorted``), which the tests keep as an oracle.  A
chunk is a short run of whole-array operations with no masked writes, so
the chunks of two threads overlap.

numpy is imported inside the functions that use it, so that importing the
package and the exact commands do not pay for it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from math import sqrt
from operator import and_, or_
from typing import TYPE_CHECKING

from .bounds import check_threshold
from .cuts import _table
from .geometry import LatticeFreeBody, SplitBody

if TYPE_CHECKING:
    import numpy as np

_CHUNK = 1 << 16  # fixed so chunk boundaries never depend on thread count


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    std_error: float
    samples: int
    seed: int


def thread_count() -> int:
    env = os.environ.get("CUTSTRENGTH_THREADS")
    if env is not None:
        if not env.strip().isdecimal() or int(env) < 1:
            raise ValueError(f"CUTSTRENGTH_THREADS must be an integer >= 1, got {env!r}")
        return int(env)
    return min(os.cpu_count() or 1, 4)


def _fan_triangles(body: LatticeFreeBody):
    """Fan triangulation from vertex 0 in floats: the cumulative area weights
    at which the triangles after the first start, the origin, and the edge
    columns ``(e1x, e1y, e2x, e2y)`` with one entry per triangle."""
    import numpy as np

    poly = body.polygon()
    v0 = poly[0]
    # triangle k spans edges[k] and edges[k + 1]
    edges = [(p.x1 - v0.x1, p.x2 - v0.x2) for p in poly[1:]]
    areas = [a1 * b2 - a2 * b1 for (a1, a2), (b1, b2) in zip(edges, edges[1:])]
    total = sum(areas)
    breaks = np.cumsum([float(a / total) for a in areas])[:-1]
    e1x, e1y = (np.array([float(c) for c in column]) for column in zip(*edges[:-1]))
    e2x, e2y = (np.array([float(c) for c in column]) for column in zip(*edges[1:]))
    return breaks, (float(v0.x1), float(v0.x2)), (e1x, e1y, e2x, e2y)


def _sample_points(fan, seed: int, start: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Samples ``start`` to ``start + count - 1`` as the columns ``(x1, x2)``.

    Sample ``i`` takes the four doubles of Philox block ``i`` (the last one
    unused): ``u0`` picks the triangle by area, ``(r1, r2)`` folded into the
    triangle give ``x = origin + r1 e1 + r2 e2``.
    """
    import numpy as np

    breaks, (o1, o2), (e1x, e1y, e2x, e2y) = fan
    bg = np.random.Philox(key=seed, counter=[start, 0, 0, 0])
    u = np.random.Generator(bg).random(count * 4).reshape(count, 4)
    # the triangle is the number of breaks at or below u0, an intp array (the
    # fast index type of take); the sum over no breaks is the scalar 0, so a
    # single triangle's edges need no gather
    tri = sum(u[:, 0] >= b for b in breaks)
    # the fold r -> 1 - r where r1 + r2 > 1, without a branch per sample:
    # |flip - r| is |-r| = r or |1 - r| = 1 - r (r < 1), the same doubles
    flip = (u[:, 1] + u[:, 2] > 1.0).astype(float)
    r1 = np.abs(flip - u[:, 1])
    r2 = np.abs(flip - u[:, 2])
    x1 = o1 + r1 * e1x.take(tri) + r2 * e2x.take(tri)
    x2 = o2 + r1 * e1y.take(tri) + r2 * e2y.take(tri)
    return x1, x2


def _dot(n, x1, x2):
    """``n . x`` without the terms of zero entries and the factors 1.  For
    finite ``x`` it differs from ``n[0] x1 + n[1] x2`` at most in the sign of
    a zero, which no comparison and no ``floor`` test sees."""
    terms = [x if c == 1 else c * x for c, x in zip(n, (x1, x2)) if c != 0]
    return terms[0] if len(terms) == 1 else terms[0] + terms[1]


def _t_bar_evaluator(body: LatticeFreeBody):
    """Vectorized float ``t_bar`` read off the body's region table.

    Each point takes the formula of the first region that it matches, as in
    ``region_of``; every constant is the correctly rounded int quotient of
    the table's.  A point that float round-off puts in no region gets NaN.
    """
    import numpy as np

    regions = _table(body)[1]
    normals = {(n1, n2) for pieces, *_ in regions for piece in pieces for n1, n2, *_ in piece}
    splits = {split for _, split, *_ in regions if split is not None}
    # coefficients by region index, over the positive scale |b1| or b0; the
    # extra last entry is for a point in no region
    table = [(*n, *(c / (abs(b1) or b0) for c in (a0, a1, b0, b1))) for *_, n, (a0, a1, b0, b1) in regions]
    n1, n2, p0, p1, q0, q1 = (np.array(column, dtype=float) for column in zip(*table, (0, 0, np.nan, 0, 1, 0)))

    def band(u, ln, ld, hn, hd):
        # one test for a band open on one side: True & mask is ten times mask & mask
        if not ld:
            return u <= hn / hd
        if not hd:
            return ln / ld <= u
        return (ln / ld <= u) & (u <= hn / hd)

    def evaluate(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        proj = {n: _dot(n, x1, x2) for n in normals}
        strict = {n: np.floor(proj[n]) != proj[n] for n in splits}
        # index of the first region that matches, len(regions) where none
        # does: later regions are written first, so earlier ones win.  uint8
        # arithmetic, since masked writes cost several times more on random
        # masks; the wraparound of (i - first) cancels in first + (i - first).
        first = np.full(len(x1), len(regions), dtype=np.uint8)
        for i in reversed(range(len(regions))):
            pieces, split = regions[i][:2]
            matched = reduce(or_, (reduce(and_, (band(proj[b[:2]], *b[2:]) for b in piece)) for piece in pieces))
            if split is not None:
                matched = matched & strict[split]
            first += (np.uint8(i) - first) * matched
        first = first.astype(np.intp)
        # the normals' and slopes' entries are 0 and +-1, so u and the affine
        # parts round exactly as the closed forms written out would
        u = n1.take(first) * x1 + n2.take(first) * x2
        with np.errstate(divide="ignore", invalid="ignore"):
            return (p0.take(first) + p1.take(first) * u) / (q0.take(first) + q1.take(first) * u)

    return evaluate


def _check_int(name: str, value) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")


def monte_carlo_lower(
    body: LatticeFreeBody, z, samples: int, seed: int = 0
) -> McEstimate:
    """Estimate P(strength at the sampled root vertex <= z) by uniform
    sampling; deterministic for fixed (seed, samples)."""
    import numpy as np

    if isinstance(body, SplitBody):
        raise ValueError("splits have no bounded area to sample")
    _check_int("samples", samples)
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    _check_int("seed", seed)
    if not 0 <= seed < 2**128:
        raise ValueError(f"need 0 <= seed < 2**128, got seed={seed}")
    z = check_threshold(z)
    try:
        z = float(z)
    except OverflowError:
        raise ValueError(f"threshold {z} is beyond the float range of Monte Carlo sampling") from None
    try:
        evaluate = _t_bar_evaluator(body)
        fan = _fan_triangles(body)
    except OverflowError:
        raise ValueError("the body's coordinates are beyond the float range of Monte Carlo sampling") from None

    def run(start: int) -> int:
        count = min(_CHUNK, samples - start)
        return int(np.count_nonzero(evaluate(*_sample_points(fan, seed, start, count)) <= z))

    starts = range(0, samples, _CHUNK)
    threads = thread_count()
    if threads == 1 or len(starts) == 1:
        hits = sum(run(s) for s in starts)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            hits = sum(pool.map(run, starts))
    p = hits / samples
    return McEstimate(p, sqrt(p * (1.0 - p) / samples), samples, seed)
