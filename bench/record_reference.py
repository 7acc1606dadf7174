"""Record the exact outputs the benchmark's correctness gate compares against.

Run from the repository root, at the commit whose outputs are the reference:

    python3 bench/record_reference.py

It rewrites ``bench/reference.json``: the SHA-256 of each ``sweep`` CSV, the
``t_bar`` of every ``body_profile`` point and its bound curve, and the closure
pool (distinct bodies with one root vertex each) with ``t_bar``/``t_N`` per
entry. Exceptions are recorded by type. Takes about a minute and a half.
"""

from __future__ import annotations

import json
import random
import sys
import tempfile
from pathlib import Path

from run import ROOT, load_program, source_identity

load_program()

import workloads as wl  # noqa: E402


def closure_pool() -> list:
    """CLOSURE_POOL distinct bodies, each with one seeded root vertex."""
    rng = random.Random("closure-pool")
    bodies = [wl.Type1Body()]
    seen = set()
    while len(bodies) < wl.CLOSURE_POOL:
        body = wl.random_grid_body(rng)
        if body is None:
            continue
        key = (wl.FAMILY_OF[type(body)], *wl.body_params(body))
        if key not in seen:
            seen.add(key)
            bodies.append(body)
    rng.shuffle(bodies)
    return [(i, body, wl.random_root_vertex(body, rng)) for i, body in enumerate(bodies)]


def outcomes_of(inputs, passes: int, workdir: Path) -> dict:
    out = {}
    for index in range(passes):
        p = wl.run_pass(inputs, index, workdir)
        unknown = set(p.failed) - {e.__name__ for e in wl.KNOWN_FAILURES}
        if unknown:
            sys.exit(f"refusing to record a reference with unexpected failures: {sorted(unknown)}")
        out.update(p.outcomes)
    return out


def main() -> None:
    pool = closure_pool()
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        workdir = Path(tmp)
        sweep = outcomes_of(wl.Inputs("sweep", sweep=wl.SWEEP_FAMILIES), 1, workdir)
        profile_inputs = wl.make_inputs("body_profile", 0, {})
        profile = outcomes_of(profile_inputs, wl.PROFILE_SLICES, workdir)
        closure = outcomes_of(wl.Inputs("closure", closure=[pool]), 1, workdir)
    reference = {
        "recorded_at": source_identity(),
        "sweep": {family: sweep[("sweep", family)] for family in wl.SWEEP_FAMILIES},
        "body_profile": {
            name: {
                "t_bar": " ".join(profile[("t_bar", name, j)] for j in range(len(points))),
                "curve": " ".join(profile[("curve", name, z)] for z in range(len(wl.PROFILE_ZS))),
            }
            for name, _, points in profile_inputs.profile
        },
        "closure_pool": [
            [wl.FAMILY_OF[type(body)], wl.body_params(body), [str(f.x1), str(f.x2)], closure[("closure", i)]]
            for i, body, f in pool
        ],
    }
    head = {k: v for k, v in reference.items() if k != "closure_pool"}
    text = json.dumps(head, indent=1)[:-2]
    text += ',\n "closure_pool": [\n'
    text += ",\n".join("  " + json.dumps(entry) for entry in reference["closure_pool"])
    text += "\n ]\n}\n"
    (ROOT / "bench" / "reference.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
