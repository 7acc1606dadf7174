"""Set-up cost of one workload, measured in a fresh interpreter.

    python3 bench/probe.py <workload>

Times ``import numpy``, then ``import cutstrength``, then one first call into
each layer the workload uses, then probes the CPU speed (speed.py), and
prints the times as one JSON line. ``run.py`` starts several of these and
reports the median set-up time, at the reference CPU speed, as ``setup_s``.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout
from fractions import Fraction as F
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _first_sweep(cs):
    quad = ["a1=2/5:2/5", "a2=3/2:3/2", "b1=3/5:3/5", "b2=-3/10:-3/10"]
    argv = ["sweep", "--family", "quad", "--z", "2", "--step", "1/20"]
    for r in quad:
        argv += ["--range", r]
    with redirect_stdout(io.StringIO()):
        if cs.cli.run(argv) != 0:
            raise SystemExit("set-up sweep failed")


def _first_closure(cs):
    cs.strength_report(cs.QuadBody(F(2, 5), F(3, 2), F(3, 5), F(-3, 10)), cs.point(F(1, 3), F(1, 3)), 5)


def _first_profile(cs):
    body = cs.Type3Body(F(3), F(3, 10), F(1, 10))
    cs.strength_single_split(body, cs.point(F(1, 3), F(1, 3)))
    cs.piecewise_bound_for(body)(F(2))


def _first_montecarlo(cs):
    os.environ["CUTSTRENGTH_THREADS"] = "2"
    cs.monte_carlo_lower(cs.Type2Body(F(1, 2), F(3, 2)), 2, 2 << 16, 0)


FIRST_CALLS = {
    "sweep": _first_sweep,
    "closure": _first_closure,
    "body_profile": _first_profile,
    "montecarlo": _first_montecarlo,
}


def main(workload: str) -> None:
    first_call = FIRST_CALLS[workload]
    start = perf_counter()
    import numpy  # noqa: F401

    numpy_done = perf_counter()
    import cutstrength
    import cutstrength.cli  # noqa: F401

    import_done = perf_counter()
    first_call(cutstrength)
    end = perf_counter()
    import speed  # the CPU speed right after the set-up, for normalizing it

    print(
        json.dumps(
            {
                "setup_s": end - start,
                "import_numpy_s": numpy_done - start,
                "import_cutstrength_s": import_done - numpy_done,
                "first_calls_s": end - import_done,
                "probe_s": speed.probe(),
            }
        )
    )


if __name__ == "__main__":
    main(sys.argv[1])
