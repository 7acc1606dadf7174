"""Monte Carlo verification of the closed-form probability bounds.

Samples root vertices uniformly in a body (fan triangulation plus the
standard barycentric fold, no rejection) and tallies the indicator that the
region-table strength is at most a threshold.  Sample ``i`` is a pure
function of ``(seed, i)``: each sample consumes exactly one Philox counter
block (four doubles, three used), so results are bit-identical no matter how
the index range is chunked across threads.

numpy is imported inside the functions that use it, so that importing the
package and the exact commands do not pay for it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import sqrt
from typing import TYPE_CHECKING

from .cuts import _matches, region_spec
from .geometry import LatticeFreeBody, SplitBody, _frac

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
    """Fan triangulation from vertex 0 with float vertex arrays and exact
    cumulative area weights."""
    import numpy as np

    poly = body.polygon()
    v0 = poly[0]
    tris = []
    areas = []
    for p, q in zip(poly[1:], poly[2:]):
        tris.append((v0, p, q))
        areas.append((p.x1 - v0.x1) * (q.x2 - v0.x2) - (p.x2 - v0.x2) * (q.x1 - v0.x1))
    total = sum(areas)
    cum = np.cumsum([float(a / total) for a in areas])
    cum[-1] = 1.0  # guard against float round-off at the top
    origin = np.array([float(v0.x1), float(v0.x2)])
    edge1 = np.array([[float(p.x1 - v0.x1), float(p.x2 - v0.x2)] for _, p, _ in tris])
    edge2 = np.array([[float(q.x1 - v0.x1), float(q.x2 - v0.x2)] for _, _, q in tris])
    return cum, origin, edge1, edge2


def _sample_points(body_tri, seed: int, start: int, count: int) -> np.ndarray:
    import numpy as np

    cum, origin, edge1, edge2 = body_tri
    bg = np.random.Philox(key=seed, counter=[start, 0, 0, 0])
    u = np.random.Generator(bg).random(count * 4).reshape(count, 4)
    tri = np.searchsorted(cum, u[:, 0], side="right")
    tri = np.minimum(tri, len(cum) - 1)
    r1, r2 = u[:, 1].copy(), u[:, 2].copy()
    flip = r1 + r2 > 1.0
    r1[flip] = 1.0 - r1[flip]
    r2[flip] = 1.0 - r2[flip]
    return origin + r1[:, None] * edge1[tri] + r2[:, None] * edge2[tri]


def _t_bar_evaluator(body: LatticeFreeBody):
    """Vectorized float ``t_bar`` derived from ``region_spec(body)``.

    Each point takes the formula of the first region that ``_matches`` it, as
    in ``region_of``; every constant is ``float()`` of the exact one.
    A point that float round-off puts in no region gets NaN.
    """
    import numpy as np

    spec = region_spec(body)
    normals = {n for region in spec for piece in region.pieces for n, _, _ in piece}
    splits = {region.split for region in spec if region.split is not None}
    # coefficients by region index; the extra last entry is for a point in no region
    table = [[*r.normal, *r.num, *r.den] for r in spec] + [[0, 0, np.nan, 0, 1, 0]]
    n1, n2, p0, p1, q0, q1 = (np.array(column, dtype=float) for column in zip(*table))

    def evaluate(pts: np.ndarray) -> np.ndarray:
        x1, x2 = pts[:, 0], pts[:, 1]
        proj = {n: n[0] * x1 + n[1] * x2 for n in normals}
        strict = {n: np.floor(proj[n]) != proj[n] for n in splits}
        # index of the first region that matches, len(spec) where none
        # does: later regions are written first, so earlier ones win.  uint8
        # arithmetic, since masked writes cost several times more on random
        # masks; the wraparound of (i - first) cancels in first + (i - first).
        first = np.full(len(pts), len(spec), dtype=np.uint8)
        for i in reversed(range(len(spec))):
            matched = _matches(spec[i], proj.__getitem__, strict.__getitem__, float)
            first += (np.uint8(i) - first) * matched
        first = first.astype(np.intp)
        # the normals' and slopes' entries are 0 and +-1, so u and the affine
        # parts round exactly as the closed forms written out would
        u = n1[first] * x1 + n2[first] * x2
        with np.errstate(divide="ignore", invalid="ignore"):
            return (p0[first] + p1[first] * u) / (q0[first] + q1[first] * u)

    return evaluate


def monte_carlo_lower(
    body: LatticeFreeBody, z, samples: int, seed: int = 0
) -> McEstimate:
    """Estimate P(strength at the sampled root vertex <= z) by uniform
    sampling; deterministic for fixed (seed, samples)."""
    import numpy as np

    if isinstance(body, SplitBody):
        raise ValueError("splits have no bounded area to sample")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    if not 0 <= seed < 2**128:
        raise ValueError(f"need 0 <= seed < 2**128, got seed={seed}")
    z = float(_frac(z))
    evaluate = _t_bar_evaluator(body)
    tri = _fan_triangles(body)

    def run(start: int) -> int:
        count = min(_CHUNK, samples - start)
        pts = _sample_points(tri, seed, start, count)
        return int(np.count_nonzero(evaluate(pts) <= z))

    starts = range(0, samples, _CHUNK)
    threads = thread_count()
    if threads == 1 or len(starts) == 1:
        hits = sum(run(s) for s in starts)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            hits = sum(pool.map(run, starts))
    p = hits / samples
    return McEstimate(p, sqrt(p * (1.0 - p) / samples), samples, seed)
