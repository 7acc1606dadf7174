"""A yardstick for how fast this CPU runs right now.

On shared hosts the speed of a CPU drifts by up to 2x, for seconds to
minutes at a time, with no sign in CPU-time accounting. The benchmark
therefore reports pass times at a reference speed: measured seconds times
``REFERENCE_S / probe``, where ``probe`` is the time of a fixed kernel,
measured every fifth of a second between the timed calls (see ``Clock``).
The kernel uses only the standard library and numpy, never the program, and
does the kind of work the program does: exact rational polygon clipping and
small numpy calls. In five-seed trials, while the raw time of a pass moved by
15-35%, the normalized pass times moved by 2-8%.
"""

from __future__ import annotations

from fractions import Fraction as F
from time import perf_counter

import numpy as np

# What the kernel takes in a quiet moment on a 2-CPU Xeon host; normalized
# times are what the work would have taken at that speed.
REFERENCE_S = 0.002
PROBE_EVERY_S = 0.2

_POLYGON = [(F(-3, 7), F(2, 9)), (F(1, 10), F(-3, 10)), (F(12, 5), F(1, 2)), (F(2, 5), F(3, 2))]
_PAIRS = np.array([[0, 1], [1, 2]])


def _clip(poly, a, b, c):
    """The part of the polygon with a*x + b*y <= c."""
    out = []
    for p, q in zip(poly, poly[1:] + poly[:1]):
        vp = a * p[0] + b * p[1] - c
        vq = a * q[0] + b * q[1] - c
        if vp <= 0:
            out.append(p)
        if vp < 0 < vq or vq < 0 < vp:
            t = vp / (vp - vq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _kernel() -> int:
    acc = 0
    for k in range(1, 9):
        poly = _clip(_clip(_POLYGON, F(k, 7), F(1), F(k, 5)), F(-1), F(k, 11), F(1, 3))
        acc += sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(poly, poly[1:] + poly[:1])).numerator % 7
        m = np.array([[float(x) for x in p] for p in poly])
        acc += int(np.abs(np.linalg.det(m[_PAIRS])).sum() > 1e-12) + int((m @ m.T >= 0).all())
    return acc


def probe() -> float:
    """Seconds the kernel takes now: the least of three runs."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


class Clock:
    """Timed seconds of one pass, as measured and at the reference speed.

    Timed intervals are added as they end. Once PROBE_EVERY_S of wall time
    has gone by since the last probe, the next ``add`` probes the kernel, and
    the seconds added since the previous probe are scaled by the mean of the
    two probe times. Probes run outside the timed intervals.
    """

    def __init__(self):
        self.raw = 0.0
        self.normalized = 0.0
        self._pending = 0.0
        self._probe = probe()
        self._probed_at = perf_counter()

    def add(self, seconds: float) -> None:
        self.raw += seconds
        self._pending += seconds
        if perf_counter() - self._probed_at >= PROBE_EVERY_S:
            self.settle()

    def settle(self) -> None:
        """Probe now and scale the seconds added since the last probe."""
        now = probe()
        self.normalized += self._pending * 2 * REFERENCE_S / (self._probe + now)
        self._pending = 0.0
        self._probe = now
        self._probed_at = perf_counter()
