"""Inputs, timed passes and the correctness gate of the four workloads.

A pass is a short unit of work of a workload, about a second at the
reference commit. A run makes ``--seconds // NOMINAL_PASS_SECONDS`` passes;
``run.py`` reports the mean pass time and rates totalled over the passes.
Everything outside the timed calls (input generation, decoding the reference,
hashing and comparing outputs) stays outside the timed region.

The program is looked up through its modules (``cli.run``,
``cuts.strength_report`` ...) at every call, so that the traced run can wrap
those names in place.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import traceback
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from cutstrength import bounds, cli, cuts, montecarlo
from cutstrength.geometry import QuadBody, Type1Body, Type2Body, Type3Body, point

from speed import Clock

WORKLOADS = ("sweep", "closure", "body_profile", "montecarlo")

# Exceptions the lattice-line defect raises for a valid root vertex. An input
# that raised one of these in the reference may start to succeed; any other
# exception, or a new failure, fails the gate.
KNOWN_FAILURES = (ValueError, ZeroDivisionError)

SWEEP_FAMILIES = ("quad", "t3")
SWEEP_ARGS = ("--z", "2", "--step", "1/10")

CLOSURE_N = 5  # the CLI `strength` default
CLOSURE_PASS = 100  # distinct (body, f) queries per pass, 99 once shares round down
CLOSURE_POOL = 3000  # recorded pool the seeded corpus is drawn from

PROFILE_DENOMINATOR = 32
PROFILE_SLICES = 16  # pass k takes every 16th grid point and z value, from k on
PROFILE_ZS = tuple(1 + Fraction(k, 100) for k in range(1, 401))  # 400 values in (1, 5]

MC_Z = 2
MC_SAMPLES = 5 * 10**5
MC_THREADS = (1, 2)
MC_SE_TOLERANCE = 5  # standard errors; see NOTES.md for why not 3

# Seconds one pass takes at the reference commit and the reference CPU speed
# (speed.py). The pass count depends on the budget only, never on how fast the
# passes ran, so every run of a workload with the same budget does the same work.
NOMINAL_PASS_SECONDS = {"sweep": 0.65, "closure": 0.9, "body_profile": 1.1, "montecarlo": 0.8}


def fixtures() -> dict[str, object]:
    """The test-suite fixtures, one per family, keyed by family name."""
    return {
        "type1": Type1Body(),
        "type2": Type2Body(Fraction(1, 2), Fraction(3, 2)),
        "quad": QuadBody(Fraction(2, 5), Fraction(3, 2), Fraction(3, 5), Fraction(-3, 10)),
        "t3": Type3Body(Fraction(3), Fraction(3, 10), Fraction(1, 10)),
    }


def profile_bodies() -> dict[str, object]:
    fx = fixtures()
    return {
        "type1": fx["type1"],
        "type2_1/2_3/2": fx["type2"],
        "type2_1/3_5/2": Type2Body(Fraction(1, 3), Fraction(5, 2)),
        "quad": fx["quad"],
        "t3": fx["t3"],
    }


# ---------------------------------------------------------------------------
# bodies and root vertices

FAMILY_OF = {Type1Body: "type1", Type2Body: "type2", QuadBody: "quad", Type3Body: "t3"}
_CONSTRUCTORS = {"type1": Type1Body, "type2": Type2Body, "quad": QuadBody, "t3": Type3Body}
_PARAMS = {"type1": (), "type2": ("a1", "a2"), "quad": ("a1", "a2", "b1", "b2"), "t3": ("a1", "a2", "b1")}


def make_body(family: str, params):
    return _CONSTRUCTORS[family](*(Fraction(p) for p in params))


def body_params(body) -> list[str]:
    return [str(getattr(body, n)) for n in _PARAMS[FAMILY_OF[type(body)]]]


def _grid_box(body, q: int):
    poly = body.polygon()
    return (
        math.floor(min(v.x1 for v in poly) * q),
        math.ceil(max(v.x1 for v in poly) * q),
        math.floor(min(v.x2 for v in poly) * q),
        math.ceil(max(v.x2 for v in poly) * q),
    )


def interior_grid(body, q: int):
    """Every point of the 1/q grid strictly inside the body, row by row."""
    lo1, hi1, lo2, hi2 = _grid_box(body, q)
    out = []
    for j in range(lo2, hi2 + 1):
        for i in range(lo1, hi1 + 1):
            f = point(Fraction(i, q), Fraction(j, q))
            if body.contains_interior(f):
                out.append(f)
    return out


def random_root_vertex(body, rng: random.Random):
    """A point of the 1/q grid strictly inside the body, q drawn from 4..24.

    Points on interior lattice lines are kept on purpose: they are the inputs
    that expose the region-tie defect.
    """
    while True:
        q = rng.randint(4, 24)
        lo1, hi1, lo2, hi2 = _grid_box(body, q)
        f = point(Fraction(rng.randint(lo1, hi1), q), Fraction(rng.randint(lo2, hi2), q))
        if body.contains_interior(f):
            return f


def random_grid_body(rng: random.Random):
    """A body of type 2, quad or type 3 with parameters on the 1/20 grid, or
    None when the drawn parameters are not a valid body."""
    family = rng.choice(("type2", "quad", "t3"))

    def k(lo, hi):
        return Fraction(rng.randint(lo, hi), 20)

    if family == "type2":
        params = (k(1, 19), k(21, 80))
    elif family == "quad":
        params = (k(1, 19), k(21, 39), k(1, 19), k(-19, -1))
    else:
        params = (k(21, 80), k(1, 19), k(1, 19))
    try:
        return _CONSTRUCTORS[family](*params)
    except KNOWN_FAILURES:
        return None


def on_lattice_line(f) -> bool:
    """Whether f lies on a line n.x = k with integral k and a normal n of
    max-norm 1. Such root vertices expose the region-tie defect, and nearly
    all of the slowest t_N queries have one."""
    return any(v.denominator == 1 for v in (f.x1, f.x2, f.x1 + f.x2, f.x1 - f.x2))


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Inputs:
    """What a workload's passes consume; built before any timing starts."""

    workload: str
    sweep: tuple = ()
    closure: list = field(default_factory=list)  # per pass: [(pool index, body, f)]
    profile: list = field(default_factory=list)  # [(name, body, [f, ...])]
    mc_seed: int = 0
    mc_bodies: dict = field(default_factory=dict)
    mc_bounds: dict = field(default_factory=dict)  # exact bound_for(body, MC_Z)


def closure_corpus(pool: list, seed: int) -> list[list[int]]:
    """Pool indices of the queries of each possible pass.

    Every pass holds the same mix: a fixed slice of the pool's lattice-line
    entries, in the share the pool has them, and off-line entries of each
    family in the pool's shares, drawn by the seed. Under 2% of the pool, all
    on lattice lines, takes half of its time; drawn by seed, they made a
    run's figures depend mostly on how many of them it drew. No entry appears
    in two passes, so no two queries of a run share a body.
    """
    on, off = [], {}
    for i, (family, _, f, _) in enumerate(pool):
        if on_lattice_line(point(*map(Fraction, f))):
            on.append(i)
        else:
            off.setdefault(family, []).append(i)
    share = CLOSURE_PASS * len(on) // len(pool)
    per_family = {fam: CLOSURE_PASS * len(ix) // len(pool) for fam, ix in sorted(off.items())}
    passes = min([len(on) // share] + [len(off[fam]) // n for fam, n in per_family.items() if n])
    rng = random.Random(f"closure:{seed}")
    drawn = {fam: rng.sample(off[fam], passes * n) for fam, n in per_family.items()}
    out = []
    for k in range(passes):
        queries = on[k * share : (k + 1) * share]
        for fam, n in per_family.items():
            queries += drawn[fam][k * n : (k + 1) * n]
        rng.shuffle(queries)
        out.append(queries)
    return out


def mc_seed_for(seed: int) -> int:
    return random.Random(f"montecarlo:{seed}").randrange(2**63)


def make_inputs(workload: str, seed: int, reference: dict) -> Inputs:
    inputs = Inputs(workload)
    if workload == "sweep":
        inputs.sweep = SWEEP_FAMILIES
    elif workload == "closure":
        pool = reference["closure_pool"]
        for indices in closure_corpus(pool, seed):
            queries = []
            for i in indices:
                family, params, f, _ = pool[i]
                queries.append((i, make_body(family, params), point(Fraction(f[0]), Fraction(f[1]))))
            inputs.closure.append(queries)
    elif workload == "body_profile":
        for name, body in profile_bodies().items():
            inputs.profile.append((name, body, interior_grid(body, PROFILE_DENOMINATOR)))
    elif workload == "montecarlo":
        inputs.mc_seed = mc_seed_for(seed)
        inputs.mc_bodies = fixtures()
        inputs.mc_bounds = {k: bounds.bound_for(b, MC_Z) for k, b in inputs.mc_bodies.items()}
    else:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    return inputs


def pass_count(inputs: Inputs, seconds: float) -> int:
    """Passes a run with this budget makes; at least one. Closure and
    body_profile stop before an input would repeat."""
    n = max(1, int(seconds // NOMINAL_PASS_SECONDS[inputs.workload]))
    if inputs.workload == "closure":
        n = min(n, len(inputs.closure))
    elif inputs.workload == "body_profile":
        n = min(n, PROFILE_SLICES)
    return n


# ---------------------------------------------------------------------------
# passes


@dataclass
class Pass:
    clock: Clock = field(default_factory=Clock)  # timed seconds; probes the CPU speed now
    attempted: int = 0  # operations
    items: int = 0  # rows, successful queries or samples
    failed: Counter = field(default_factory=Counter)  # exception type -> count
    latencies: list = field(default_factory=list)  # seconds, successful queries only
    outcomes: dict = field(default_factory=dict)  # gate key -> "value" or "!Exception"
    threads_seconds: dict = field(default_factory=dict)  # montecarlo: threads -> seconds

    @property
    def seconds(self) -> float:
        return self.clock.raw


def _record_failure(p: Pass, key, exc: BaseException):
    name = type(exc).__name__
    p.failed[name] += 1
    p.outcomes[key] = "!" + name
    if not isinstance(exc, KNOWN_FAILURES):
        traceback.print_exception(exc)


def run_pass(inputs: Inputs, index: int, workdir: Path) -> Pass:
    p = {
        "sweep": _sweep_pass,
        "closure": _closure_pass,
        "body_profile": _profile_pass,
        "montecarlo": _montecarlo_pass,
    }[inputs.workload](inputs, index, workdir)
    p.clock.settle()
    return p


def _sweep_pass(inputs: Inputs, index: int, workdir: Path) -> Pass:
    p = Pass()
    for family in inputs.sweep:
        out = workdir / f"{family}.csv"
        argv = ["sweep", "--family", family, *SWEEP_ARGS, "--output", str(out)]
        p.attempted += 1
        start = perf_counter()
        rc = cli.run(argv)
        p.clock.add(perf_counter() - start)
        key = ("sweep", family)
        if rc != 0:
            p.failed[f"exit{rc}"] += 1
            p.outcomes[key] = f"!exit{rc}"
            continue
        data = out.read_bytes()
        out.unlink()
        p.items += data.count(b"\n") - 1
        p.outcomes[key] = hashlib.sha256(data).hexdigest()
    return p


def _query(p: Pass, key, call, *args):
    """Time one query; record its exception by type, or return its result."""
    p.attempted += 1
    start = perf_counter()
    try:
        result = call(*args)
    except Exception as exc:  # every exception is recorded and judged by the gate
        p.clock.add(perf_counter() - start)
        _record_failure(p, key, exc)
        return None
    elapsed = perf_counter() - start
    p.clock.add(elapsed)
    p.latencies.append(elapsed)
    p.items += 1
    return result


def _closure_pass(inputs: Inputs, index: int, workdir: Path) -> Pass:
    p = Pass()
    for i, body, f in inputs.closure[index]:
        rep = _query(p, ("closure", i), cuts.strength_report, body, f, CLOSURE_N)
        if rep is not None:
            p.outcomes[("closure", i)] = f"{rep.t_bar} {rep.t_n}"
    return p


def _profile_pass(inputs: Inputs, index: int, workdir: Path) -> Pass:
    p = Pass()
    k = index % PROFILE_SLICES
    for name, body, points in inputs.profile:
        for j in range(k, len(points), PROFILE_SLICES):
            rep = _query(p, ("t_bar", name, j), cuts.strength_single_split, body, points[j])
            if rep is not None:
                p.outcomes[("t_bar", name, j)] = str(rep.t_bar)
        zs = range(k, len(PROFILE_ZS), PROFILE_SLICES)
        start = perf_counter()
        curve = bounds.piecewise_bound_for(body)
        values = [curve(PROFILE_ZS[z]) for z in zs]
        p.clock.add(perf_counter() - start)
        for z, value in zip(zs, values):
            p.outcomes[("curve", name, z)] = str(value)
    return p


def _montecarlo_pass(inputs: Inputs, index: int, workdir: Path) -> Pass:
    p = Pass()
    saved = os.environ.get("CUTSTRENGTH_THREADS")
    try:
        for threads in MC_THREADS:
            os.environ["CUTSTRENGTH_THREADS"] = str(threads)
            for family, body in inputs.mc_bodies.items():
                p.attempted += 1
                start = perf_counter()
                est = montecarlo.monte_carlo_lower(body, MC_Z, MC_SAMPLES, inputs.mc_seed)
                elapsed = perf_counter() - start
                p.clock.add(elapsed)
                p.items += est.samples
                p.threads_seconds[threads] = p.threads_seconds.get(threads, 0.0) + elapsed
                p.outcomes[("mc", family, threads)] = est
    finally:
        if saved is None:
            del os.environ["CUTSTRENGTH_THREADS"]
        else:
            os.environ["CUTSTRENGTH_THREADS"] = saved
    return p


# ---------------------------------------------------------------------------
# correctness gate


def reference_outcomes(reference: dict) -> dict:
    """The recorded outcome of every gate key."""
    out = {}
    for family, digest in reference["sweep"].items():
        out[("sweep", family)] = digest
    for i, (_, _, _, outcome) in enumerate(reference["closure_pool"]):
        out[("closure", i)] = outcome
    for name, entry in reference["body_profile"].items():
        for j, outcome in enumerate(entry["t_bar"].split()):
            out[("t_bar", name, j)] = outcome
        for z, value in enumerate(entry["curve"].split()):
            out[("curve", name, z)] = value
    return out


def check_pass(inputs: Inputs, p: Pass, expected: dict) -> list[str]:
    """Problems found in one pass; empty when the pass is correct."""
    if inputs.workload == "montecarlo":
        return _check_montecarlo(inputs, p)
    problems = []
    for key, got in p.outcomes.items():
        want = expected.get(key)
        if want is None:
            problems.append(f"{key}: no recorded reference")
        elif got != want and not (_known_failure(want) and not got.startswith("!")):
            problems.append(f"{key}: expected {want!r}, got {got!r}")
    return problems


def _known_failure(outcome: str) -> bool:
    return outcome in {"!" + e.__name__ for e in KNOWN_FAILURES}


def _check_montecarlo(inputs: Inputs, p: Pass) -> list[str]:
    problems = []
    for family in inputs.mc_bodies:
        by_threads = [p.outcomes.get(("mc", family, t)) for t in MC_THREADS]
        if by_threads[0] is None or any(e != by_threads[0] for e in by_threads):
            problems.append(f"mc {family}: estimates differ across thread counts: {by_threads}")
            continue
        est = by_threads[0]
        exact = float(inputs.mc_bounds[family])
        tolerance = max(MC_SE_TOLERANCE * est.std_error, 1e-9)
        if abs(est.estimate - exact) > tolerance:
            problems.append(
                f"mc {family}: estimate {est.estimate} is {abs(est.estimate - exact)} from "
                f"the bound {exact}, more than {MC_SE_TOLERANCE} standard errors"
            )
    return problems
