"""Monte Carlo verification of the closed-form probability bounds.

Samples root vertices uniformly in a body (fan triangulation plus the
standard barycentric fold, no rejection) and tallies the indicator that
``t_bar`` is at most a threshold, read off the integer region table that
``cuts.region_of`` matches, each constant an int quotient.  Sample ``i`` is a
pure function of ``(seed, i)``: each sample consumes exactly one Philox
counter block (four doubles, three used), so results are bit-identical no
matter how the index range is chunked across threads.

The kernel works on columns: a chunk of samples becomes the 1-D arrays
``x1`` and ``x2``, built by whole-array arithmetic (a branch-free fold, and,
for a quadrilateral, a triangle pick that is one comparison), and the
evaluator reads those columns directly.  Every step computes the same
doubles as the per-point formulas, so points, ``t_bar`` values and hit
counts are bit for bit those of a row-wise kernel (an ``(n, 2)`` array,
masked writes, ``searchsorted``), which the tests keep as an oracle.  A
chunk is a short run of whole-array operations with no masked writes, so
the chunks of two threads overlap.  The evaluator gathers four numbers per
point, since each row's numerator and denominator share one slope, and
tests a split strictly at the ends at 0 and 1 of the band inside [0, 1]
that every piece of its rows has on the split's own ``u``.

Every chunk runs in a workspace, 1.9 MiB of preallocated buffers that outlive
the call: each ufunc, ``take`` and ``Generator.random`` writes through
``out=`` in the operation order of fresh arrays, so each double keeps its
bits, and a chunk allocates no array.  A buffer is reused once what it held
is dead.  A call runs ``min(thread_count(), chunks, os.cpu_count())``
workers, worker 0 on the calling thread and the others on threads of their
own.  Worker k takes a workspace from a lock-protected stack (or makes one),
runs chunks k, k + workers, ... in it and gives it back.  The stack keeps
up to ``os.cpu_count()`` idle, as many as one call can take.  numpy is
imported inside the functions that use it, and this module is imported by
the ``montecarlo`` command and by a sweep with Monte Carlo rows when they
run, so that importing the package and the exact commands pay for neither.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from math import sqrt
from typing import TYPE_CHECKING

from .bounds import check_threshold
from .cuts import _table
from .geometry import LatticeFreeBody, SplitBody, _check_int, _read_int

if TYPE_CHECKING:
    import numpy as np

_CHUNK = 1 << 15  # fixed so chunk boundaries never depend on thread count


@dataclass(frozen=True)
class McEstimate:
    estimate: float
    std_error: float
    samples: int
    seed: int


def thread_count() -> int:
    env = os.environ.get("CUTSTRENGTH_THREADS")
    if env is not None:
        try:
            n = _read_int(env)
        except ValueError:
            n = 0
        if n < 1:
            raise ValueError(f"CUTSTRENGTH_THREADS must be an integer >= 1, got {env!r}")
        return n
    return min(os.cpu_count() or 1, 4)


class _Workspace:
    """Buffers for one chunk of up to ``_CHUNK`` samples at a time: ``wide``,
    seven rows of 8-byte items (float64, or intp through a view), and
    ``narrow``, five rows of bools (or uint8 through a view).  Wide rows 0-3
    are contiguous, so that they can first hold a chunk's uniforms, four to a
    sample.  The sampler takes all seven wide rows; the evaluator takes two
    wide rows and one per normal, which fit because the region tables'
    normals are among (1, 0), (0, 1) and (1, 1), and the five narrow rows.
    """

    def __init__(self):
        import numpy as np

        self.wide = np.empty((7, _CHUNK))
        self.narrow = np.empty((5, _CHUNK), dtype=bool)


# the idle workspaces, each taken by one worker at a time
_idle: list[_Workspace] = []
_idle_lock = threading.Lock()


def _fan_triangles(body: LatticeFreeBody):
    """Fan triangulation from the first vertex of the counter-clockwise
    cycle, in floats: the breaks (for a quadrilateral, the area weight at
    which its second triangle starts; none for a triangle), the origin, and
    the edge columns ``(e1x, e1y, e2x, e2y)`` with one entry per triangle.
    It is worked out on the body's integer vertices ``V`` over ``v``: each
    float is an int quotient, ``a / total`` or ``c / v``, the correctly
    rounded double of the exact value."""
    import numpy as np

    v, V = body._integer_vertices
    (o1, o2), *rest = (V[i] for i in body._order)
    # triangle k spans edges[k] and edges[k + 1]
    edges = [(x1 - o1, x2 - o2) for x1, x2 in rest]
    areas = [a1 * b2 - a2 * b1 for (a1, a2), (b1, b2) in zip(edges, edges[1:])]
    total = sum(areas)
    breaks = np.cumsum([a / total for a in areas])[:-1]
    e1x, e1y = (np.array([c / v for c in column]) for column in zip(*edges[:-1]))
    e2x, e2y = (np.array([c / v for c in column]) for column in zip(*edges[1:]))
    return breaks, (o1 / v, o2 / v), (e1x, e1y, e2x, e2y)


def _sample_points(fan, seed: int, start: int, count: int, ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Samples ``start`` to ``start + count - 1`` as the columns ``(x1, x2)``.

    Sample ``i`` takes the four doubles of Philox block ``i`` (the last one
    unused): ``u0`` picks the triangle by area, ``(r1, r2)`` folded into the
    triangle give ``x = origin + r1 e1 + r2 e2``.  The columns are the wide
    rows 0 and 1 of the workspace ``ws``, whose other rows are then free.
    """
    import numpy as np

    breaks, (o1, o2), (e1x, e1y, e2x, e2y) = fan
    bg = np.random.Philox(key=seed, counter=[start, 0, 0, 0])
    w = ws.wide[:, :count]
    u = np.random.Generator(bg).random(out=ws.wide[:4].reshape(-1)[: 4 * count]).reshape(count, 4)
    # the triangle is 1 where u0 is at or above the fan's one break, else 0,
    # an intp array (the fast index type of take); a single triangle's edges
    # need no gather
    tri = np.greater_equal(u[:, 0], breaks[0], out=w[6].view(np.intp)) if len(breaks) else None
    # the fold r -> 1 - r where r1 + r2 > 1, without a branch per sample:
    # |flip - r| is |-r| = r or |1 - r| = 1 - r (r < 1), the same doubles;
    # flip is the float 0.0 or 1.0, and r2 takes its row once r1 is made
    flip, r1 = w[4], w[5]
    np.greater(np.add(u[:, 1], u[:, 2], out=flip), 1.0, out=flip)
    np.abs(np.subtract(flip, u[:, 1], out=r1), out=r1)
    r2 = np.abs(np.subtract(flip, u[:, 2], out=flip), out=flip)

    def scaled(e, r, out):
        # r e[tri]
        if tri is None:
            return np.multiply(r, e[0], out=out)
        return np.multiply(_take(e, tri, out), r, out=out)

    def column(o, e1, e2, out, scratch):
        # (o + r1 e1) + r2 e2, over the rows of the uniforms, now dead
        np.add(scaled(e1, r1, out), o, out=out)
        return np.add(out, scaled(e2, r2, scratch), out=out)

    x1 = column(o1, e1x, e2x, w[0], w[2])
    x2 = column(o2, e1y, e2y, w[1], w[3])
    return x1, x2


def _take(column, index, out):
    """``column[index]`` into ``out``.  take with ``out=`` copies through a
    buffer in its default mode "raise"; the indices are in range, so "clip"
    gives the same values."""
    return column.take(index, out=out, mode="clip")


def _dot(n, x1, x2, out):
    """``n . x`` for a normal ``n`` among (1, 0), (0, 1) and (1, 1), the only
    ones in the region tables: ``x1``, ``x2``, or their sum written to
    ``out``.  For finite ``x`` it differs from ``n[0] x1 + n[1] x2`` at most
    in the sign of a zero, which no comparison sees."""
    import numpy as np

    if n == (1, 1):
        return np.add(x1, x2, out=out)
    return x1 if n == (1, 0) else x2


def _t_bar_evaluator(body: LatticeFreeBody):
    """Vectorized float ``t_bar`` read off the body's region table.

    Each point takes the formula of the first region that it matches, as in
    ``region_of``, with a split's strict test read off its band ends; every
    constant is the correctly rounded int quotient of the table's.  A point
    that float round-off puts in no region gets NaN.
    ``evaluate(x1, x2, ws)`` writes to the rows of the workspace ``ws``
    other than wide rows 0 and 1 until it has read ``x1`` and ``x2`` for the
    last time, which may be those rows, and returns one of its rows.
    """
    import numpy as np

    regions = _table(body)
    normals = list({(n1, n2) for pieces, *_ in regions for piece in pieces for n1, n2, *_ in piece})
    # coefficients by region index, over the positive scale |a1| or b0: the
    # slopes a1 n of x1 and x2, then a0 and b0; the extra last entry is for a
    # point in no region
    table = []
    for *_, (n1, n2), (a0, a1, b0) in regions:
        scale = abs(a1) or b0
        table.append((a1 * n1 / scale, a1 * n2 / scale, a0 / scale, b0 / scale))
    s1, s2, p0, q0 = (np.array(column, dtype=float) for column in zip(*table, (0, 0, np.nan, 1)))

    # each region's pieces as one-sided checks (normal, compare, bound): a
    # band is ln / ld <= u <= hn / hd, written u >= ln / ld, with no check on
    # an open side.  A split row's pieces band its u inside [0, 1], so an end
    # at 0 or 1 on the split compares strictly: u is off the integers there
    sides = (np.greater_equal, np.greater, 2, 3), (np.less_equal, np.less, 4, 5)
    checks = [[[(b[:2], strict if b[:2] == split and b[num] / b[den] in (0.0, 1.0) else compare, b[num] / b[den])
                for b in piece for compare, strict, num, den in sides if b[den]] for piece in pieces]
              for pieces, split, *_ in regions]

    def evaluate(x1: np.ndarray, x2: np.ndarray, ws: _Workspace) -> np.ndarray:
        count = len(x1)
        w, m = ws.wide[:, :count], ws.narrow[:, :count]
        proj = {n: _dot(n, x1, x2, w[2 + k]) for k, n in enumerate(normals)}
        first, step = m[:2].view(np.uint8)
        matched, piece_mask, check_mask = m[2:]

        def all_of(piece, out):
            (n, compare, bound), *rest = piece
            compare(proj[n], bound, out=out)
            for n, compare, bound in rest:
                out &= compare(proj[n], bound, out=check_mask)
            return out

        # index of the first region that matches, len(regions) where none
        # does: later regions are written first, so earlier ones win.  uint8
        # arithmetic, since masked writes cost several times more on random
        # masks; the wraparound of (i - first) cancels in first + (i - first).
        first.fill(len(regions))
        for i in reversed(range(len(regions))):
            head, *rest = checks[i]
            all_of(head, matched)
            for piece in rest:
                matched |= all_of(piece, piece_mask)
            first += np.multiply(np.subtract(np.uint8(i), first, out=step), matched, out=step)
        index = w[2].view(np.intp)
        np.copyto(index, first)

        # t_bar = (s + p0) / (s + q0) with s = s1 x1 + s2 x2.  The slopes are
        # 0 and +-1 and rounding is symmetric, so s is the row's a1 u over its
        # scale, up to the sign of a zero where the slope is -1 or 0; there
        # p0 and q0 are nonzero, so the sums have the closed forms' bits
        a, b = w[3], w[4]
        s = np.add(np.multiply(_take(s1, index, a), x1, out=a), np.multiply(_take(s2, index, b), x2, out=b), out=a)
        # x1 and x2 are dead: wide rows 0 and 1 are free
        num = np.add(s, _take(p0, index, b), out=b)
        den = np.add(s, _take(q0, index, w[0]), out=w[0])
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.divide(num, den, out=num)

    return evaluate


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
    if samples > 2**64:
        raise ValueError(f"need samples <= 2**64, got {samples}")
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

    workers = min(thread_count(), -(-samples // _CHUNK), os.cpu_count() or 1)
    hits, errors = [0] * workers, []

    def run(k: int) -> None:
        with _idle_lock:
            ws = _idle.pop() if _idle else _Workspace()
        try:
            for start in range(k * _CHUNK, samples, workers * _CHUNK):
                count = min(_CHUNK, samples - start)
                t_bar = evaluate(*_sample_points(fan, seed, start, count, ws), ws)
                hits[k] += int(np.count_nonzero(np.less_equal(t_bar, z, out=ws.narrow[0, :count])))
        except Exception as exc:
            errors.append(exc)
        finally:
            with _idle_lock:
                _idle.append(ws)
                del _idle[: -(os.cpu_count() or 1)]

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, workers)]
    try:
        for t in threads:
            t.start()
        run(0)
    finally:
        for t in threads:
            if t.ident is not None:  # started
                t.join()
    if errors:
        raise errors[0]
    p = sum(hits) / samples
    return McEstimate(p, sqrt(p * (1.0 - p) / samples), samples, seed)
