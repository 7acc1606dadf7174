"""Spans recorded from outside the program, and the per-layer metrics.

The traced run wraps the program's names at the places where they are looked
up (``cutstrength.cuts.covering_lp_min``, ``cutstrength.sweeps.QuadBody``,
``PiecewiseBound.__call__`` ...). Each call becomes a span with a name, a
start, an end, its parent span (per thread), and the exception type if it
raised. Spans stay in memory until the run ends. Nothing inside the program
changes; the wrappers are removed when the traced pass ends.
"""

from __future__ import annotations

import itertools
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, NamedTuple, Optional

from cutstrength import bounds, cli, cuts, montecarlo, sweeps
from cutstrength.bounds import PiecewiseBound

from workloads import FAMILY_OF, MC_THREADS


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    error: Optional[str]
    note: Any

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _rows(args, result):
    return len(args[0])


def _len_result(args, result):
    return len(result)


def _mc_call(args, result):
    return FAMILY_OF[type(args[0])], montecarlo.thread_count()


# (owner, attribute, span name, note taken from (args, result) on success)
TARGETS = [
    (cli, "run", "cli.run", None),
    (cli, "sweep_grid", "sweeps.sweep_grid", _len_result),
    (cli, "format_rational", "descriptors.format_rational", None),
    (sweeps, "QuadBody", "geometry.construct", None),
    (sweeps, "Type3Body", "geometry.construct", None),
    (sweeps, "lattice_width", "geometry.lattice_width", None),
    (sweeps, "quad_lower", "bounds.lower", None),
    (sweeps, "t3_lower", "bounds.lower", None),
    (bounds, "t1_bound", "bounds.build", None),
    (bounds, "t2_bound", "bounds.build", None),
    (bounds, "quad_bound", "bounds.build", None),
    (bounds, "t3_bound", "bounds.build", None),
    (PiecewiseBound, "__call__", "bounds.eval", None),
    (cuts, "strength_report", "cuts.strength_report", None),
    (cuts, "strength_single_split", "cuts.t_bar", None),
    (cuts, "region_of", "cuts.region_of", None),
    (cuts, "corner_rays", "geometry.corner_rays", None),
    (cuts, "split_coefficients", "cuts.split_coefficients", None),
    (cuts, "admissible_normals", "cuts.admissible_normals", None),
    (cuts, "strength_split_closure_approx", "cuts.t_n", None),
    (cuts, "covering_lp_min", "cuts.covering_lp", _rows),
    (montecarlo, "monte_carlo_lower", "montecarlo.call", _mc_call),
    # the per-chunk boundary; runs in the worker threads
    (montecarlo, "_sample_points", "montecarlo.chunk", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, note=None):
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, type(exc).__name__, None))
                raise
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, None, note(args, result) if note else None))
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        originals = []
        try:
            for owner, attr, name, note in TARGETS:
                original = getattr(owner, attr)
                originals.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, note))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)


# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "geometry.construct_calls": "count",
    "geometry.construct_rejected": "count",
    "geometry.construct_us": "us",
    "geometry.lattice_width_us": "us",
    "geometry.corner_rays_us": "us",
    "cuts.region_of_calls": "count",
    "cuts.region_of_us": "us",
    "cuts.t_bar_self_us": "us",
    "cuts.split_coefficients_calls": "count",
    "cuts.split_coefficients_us": "us",
    "cuts.admissible_normals_us": "us",
    "cuts.t_n_us": "us",
    "cuts.covering_lp_calls": "count",
    "cuts.covering_lp_rows_mean": "rows",
    "cuts.covering_lp_p50_us": "us",
    "cuts.covering_lp_p99_us": "us",
    "cuts.covering_lp_max_us": "us",
    "cuts.failed.ValueError": "count",
    "cuts.failed.ZeroDivisionError": "count",
    "bounds.lower_calls": "count",
    "bounds.lower_us": "us",
    "bounds.build_us": "us",
    "bounds.eval_us": "us",
    "sweeps.grid_s": "s",
    "sweeps.self_s": "s",
    "sweeps.tuples_tried": "count",
    "sweeps.rows": "count",
    "sweeps.accept_ratio": "ratio",
    "cli.format_s": "s",
    "descriptors.format_rational_calls": "count",
    "descriptors.format_rational_us": "us",
    **{
        f"montecarlo.call_s.{family}.{t}t": "s"
        for family in ("type1", "type2", "quad", "t3")
        for t in MC_THREADS
    },
    "montecarlo.chunks": "count",
    "import.cutstrength_s": "s",
    "import.numpy_s": "s",
    "trace.overhead_s": "s",
}


def _mean_us(values) -> float:
    return statistics.fmean(values) * 1e6 if values else 0.0


def _quantile_us(values, q: int) -> float:
    """The q-th percentile in microseconds; 0 when nothing was called."""
    if len(values) < 2:
        return values[0] * 1e6 if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e6


def layer_metrics(spans: list[Span], failed: dict, setups: list[dict], overhead_s: float) -> dict:
    """Every PER_LAYER metric, from the spans of the traced passes."""
    by_name = defaultdict(list)
    covered = defaultdict(float)  # span id -> time its child spans cover
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            covered[s.parent] += s.seconds

    def secs(name):
        return [s.seconds for s in by_name[name]]

    def self_secs(name):
        return [s.seconds - covered[s.id] for s in by_name[name]]

    grid_ids = {s.id for s in by_name["sweeps.sweep_grid"]}
    tried = [s for s in by_name["geometry.construct"] if s.parent in grid_ids]
    rows = sum(s.note for s in by_name["sweeps.sweep_grid"])
    lp = secs("cuts.covering_lp")
    lp_rows = [s.note for s in by_name["cuts.covering_lp"] if s.note is not None]
    mc = defaultdict(float)
    for s in by_name["montecarlo.call"]:
        mc[s.note] += s.seconds

    values = {
        "geometry.construct_calls": len(by_name["geometry.construct"]),
        "geometry.construct_rejected": sum(1 for s in by_name["geometry.construct"] if s.error),
        "geometry.construct_us": _mean_us(secs("geometry.construct")),
        "geometry.lattice_width_us": _mean_us(secs("geometry.lattice_width")),
        "geometry.corner_rays_us": _mean_us(secs("geometry.corner_rays")),
        "cuts.region_of_calls": len(by_name["cuts.region_of"]),
        "cuts.region_of_us": _mean_us(secs("cuts.region_of")),
        "cuts.t_bar_self_us": _mean_us(self_secs("cuts.t_bar")),
        "cuts.split_coefficients_calls": len(by_name["cuts.split_coefficients"]),
        "cuts.split_coefficients_us": _mean_us(secs("cuts.split_coefficients")),
        "cuts.admissible_normals_us": _mean_us(secs("cuts.admissible_normals")),
        "cuts.t_n_us": _mean_us(secs("cuts.t_n")),
        "cuts.covering_lp_calls": len(lp),
        "cuts.covering_lp_rows_mean": statistics.fmean(lp_rows) if lp_rows else 0.0,
        "cuts.covering_lp_p50_us": _quantile_us(lp, 50),
        "cuts.covering_lp_p99_us": _quantile_us(lp, 99),
        "cuts.covering_lp_max_us": max(lp) * 1e6 if lp else 0.0,
        "cuts.failed.ValueError": failed.get("ValueError", 0),
        "cuts.failed.ZeroDivisionError": failed.get("ZeroDivisionError", 0),
        "bounds.lower_calls": len(by_name["bounds.lower"]),
        "bounds.lower_us": _mean_us(secs("bounds.lower")),
        "bounds.build_us": _mean_us(secs("bounds.build")),
        "bounds.eval_us": _mean_us(secs("bounds.eval")),
        "sweeps.grid_s": sum(secs("sweeps.sweep_grid")),
        "sweeps.self_s": sum(self_secs("sweeps.sweep_grid")),
        "sweeps.tuples_tried": len(tried),
        "sweeps.rows": rows,
        "sweeps.accept_ratio": rows / len(tried) if tried else 0.0,
        "cli.format_s": sum(secs("cli.run")) - sum(secs("sweeps.sweep_grid")),
        "descriptors.format_rational_calls": len(by_name["descriptors.format_rational"]),
        "descriptors.format_rational_us": _mean_us(secs("descriptors.format_rational")),
        "montecarlo.chunks": len(by_name["montecarlo.chunk"]),
        "import.cutstrength_s": statistics.median(s["import_cutstrength_s"] for s in setups),
        "import.numpy_s": statistics.median(s["import_numpy_s"] for s in setups),
        "trace.overhead_s": overhead_s,
    }
    for family in ("type1", "type2", "quad", "t3"):
        for t in MC_THREADS:
            values[f"montecarlo.call_s.{family}.{t}t"] = mc[(family, t)]
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
