"""The repository's benchmark: one workload per run.

    python3 bench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run it from anywhere inside a checkout; the program is imported from the
checkout's own ``src``. Workloads: ``sweep``, ``closure``, ``body_profile``,
``montecarlo``; NOTES.md says what each one stresses and why.

With ``--trace 0`` the run makes about ``--seconds`` worth of passes and
reports the end-to-end metrics. With ``--trace 1`` it makes half as many
passes untraced, then the same passes traced, and reports the per-layer
metrics and the tracing overhead. Every pass goes through the correctness
gate against ``bench/reference.json``.

Standard output ends with two JSON lines: a report (environment, the
workload's named metrics with units and sample counts, failures by type),
then the result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
PACKAGE = ROOT / "src" / "cutstrength"
SETUP_PROBES = 7
MAX_PROBLEMS_SHOWN = 20


def load_program():
    """Import ``cutstrength`` from this checkout's ``src``; exit when the
    checkout holds no program, so an installed copy is never measured."""
    init = PACKAGE / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: no program to measure: {init} is missing")
    sys.path.insert(0, str(PACKAGE.parent))
    import cutstrength

    if Path(cutstrength.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported cutstrength from {cutstrength.__file__}, not from {init}")
    return cutstrength


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def source_identity() -> dict:
    """The git commit when there is one, and a digest of the package sources,
    which identifies the code in a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": _git_commit(), "source_sha256": digest.hexdigest()}


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy

    from workloads import MC_THREADS

    threads = list(MC_THREADS) if workload == "montecarlo" else [os.environ.get("CUTSTRENGTH_THREADS")]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cutstrength_threads": threads,
        **source_identity(),
        "seed": seed,
    }


def setup_runs(workload: str) -> list[dict]:
    """Set-up times of SETUP_PROBES fresh interpreters (see probe.py)."""
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "probe.py"), workload],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if done.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{done.stderr}")
        out.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return out


def run_passes(inputs, expected, count: int, workdir: Path):
    """Passes 0..count-1, each checked by the gate."""
    import workloads as wl

    passes, problems = [], []
    for index in range(count):
        p = wl.run_pass(inputs, index, workdir)
        problems += wl.check_pass(inputs, p, expected)
        passes.append(p)
    return passes, problems


def _percentile_ms(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def named_metrics(workload: str, passes, setups) -> dict:
    """The workload's end-to-end metrics under the names NOTES.md uses, each
    with its unit and the number of samples behind it.

    Times are at the reference CPU speed (speed.py) unless named ``*_raw``;
    ``wall_s`` is the mean pass time and rates are totals over all passes.
    Query latencies are as measured.
    """
    from speed import REFERENCE_S
    from workloads import MC_SAMPLES, MC_THREADS

    n = len(passes)
    normalized = sum(p.clock.normalized for p in passes)
    raw = sum(p.seconds for p in passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(sum(p.failed.values()) for p in passes)
    rate = sum(p.items for p in passes) / normalized
    out = {
        "setup_s": (statistics.median(s["setup_s"] * REFERENCE_S / s["probe_s"] for s in setups), "s", len(setups)),
        "setup_raw_s": (statistics.median(s["setup_s"] for s in setups), "s", len(setups)),
        "wall_s": (normalized / n, "s", n),
        "wall_raw_s": (raw / n, "s", n),
        "cpu_slowdown": (raw / normalized, "1", n),
        "failed_frac": (failed / attempted, "1", attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "ops_per_s": (rate, "1/s", n),
    }
    if workload == "sweep":
        out["rows_per_s"] = (rate, "1/s", n)
    elif workload in ("closure", "body_profile"):
        latencies = [x for p in passes for x in p.latencies]
        out["queries_per_s"] = (rate, "1/s", n)
        out["latency_p50_ms"] = (_percentile_ms(latencies, 50), "ms", len(latencies))
        out["latency_p99_ms"] = (_percentile_ms(latencies, 99), "ms", len(latencies))
    else:
        calls = len({family for p in passes for (_, family, _) in p.outcomes})
        per_thread = {t: n * calls * MC_SAMPLES / sum(p.threads_seconds[t] for p in passes) for t in MC_THREADS}
        for t in MC_THREADS:
            out[f"samples_per_s_{t}t"] = (per_thread[t] * raw / normalized, "1/s", n)
        out["scaling_eff_2t"] = (per_thread[2] / (2 * per_thread[1]), "1", n)
    return {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in out.items()}


# BENCHMARK.json's end_to_end metrics, alike on every workload: ops_per_s is
# rows, queries or samples per second
END_TO_END = ("setup_s", "wall_s", "ops_per_s", "peak_rss_mb")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "closure", "body_profile", "montecarlo"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    reference_path = BENCH / "reference.json"
    if not reference_path.is_file():
        sys.exit(f"error: {reference_path} is missing")
    reference = json.loads(reference_path.read_text(encoding="utf-8"))

    import workloads as wl

    setups = setup_runs(args.workload)
    inputs = wl.make_inputs(args.workload, args.seed, reference)
    expected = wl.reference_outcomes(reference)
    count = wl.pass_count(inputs, args.seconds)
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as tmp:
        if args.trace:
            from tracing import Tracer, layer_metrics

            half = max(1, count // 2)
            passes, problems = run_passes(inputs, expected, half, Path(tmp))
            tracer = Tracer()
            with tracer.installed():
                traced, traced_problems = run_passes(inputs, expected, half, Path(tmp))
            problems += traced_problems
            named = named_metrics(args.workload, passes, setups)
            overhead = named_metrics(args.workload, traced, setups)["wall_s"]["value"] - named["wall_s"]["value"]
            named["trace_overhead_s"] = {"value": overhead, "unit": "s", "samples": half}
            named["trace_spans"] = {"value": len(tracer.spans), "unit": "count", "samples": half}
            failed = sum((p.failed for p in traced), Counter())
            metrics = layer_metrics(tracer.spans, failed, setups, overhead)
            passes += traced
        else:
            passes, problems = run_passes(inputs, expected, count, Path(tmp))
            named = named_metrics(args.workload, passes, setups)
            metrics = {k: {"value": named[k]["value"], "unit": named[k]["unit"]} for k in END_TO_END}

    failures = sum((p.failed for p in passes), Counter())
    for line in problems[:MAX_PROBLEMS_SHOWN]:
        print(f"gate: {line}", file=sys.stderr)
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "passes": len(passes),
        "environment": environment(args.workload, args.seed),
        "metrics": named,
        "failures": dict(failures),
        "problems": len(problems),
    }
    print(json.dumps(report))
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(failures.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
