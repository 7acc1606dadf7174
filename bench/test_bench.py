"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

They take about half a minute: the traced-run test makes one pass of every
workload twice.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter

import pytest

from run import BENCH, END_TO_END, ROOT, load_program

load_program()

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
EXPECTED = wl.reference_outcomes(REFERENCE)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tracing_leaves_every_output_unchanged(workload, tmp_path):
    inputs = wl.make_inputs(workload, 7, REFERENCE)
    plain = wl.run_pass(inputs, 0, tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = wl.run_pass(inputs, 0, tmp_path)
    assert traced.outcomes == plain.outcomes
    assert wl.check_pass(inputs, traced, EXPECTED) == []
    assert tracer.spans
    for owner, attr, _, _ in tracing.TARGETS:
        assert not hasattr(getattr(owner, attr), "__wrapped__"), f"{attr} is still wrapped"


def test_seed_changes_closure_corpus_and_mc_seed_only():
    def inputs(workload, seed):
        return wl.make_inputs(workload, seed, REFERENCE)

    def corpus(seed):
        return [[i for i, _, _ in queries] for queries in inputs("closure", seed).closure]

    assert corpus(1) == corpus(1)
    assert set(sum(corpus(1), [])) != set(sum(corpus(2), []))
    assert inputs("montecarlo", 1).mc_seed == inputs("montecarlo", 1).mc_seed != inputs("montecarlo", 2).mc_seed
    assert inputs("sweep", 1).sweep == inputs("sweep", 2).sweep
    p1, p2 = (inputs("body_profile", s).profile for s in (1, 2))
    assert [(n, repr(b), pts) for n, b, pts in p1] == [(n, repr(b), pts) for n, b, pts in p2]


def test_closure_passes_never_share_a_body():
    seen = set()
    for queries in wl.make_inputs("closure", 3, REFERENCE).closure:
        for _, body, _ in queries:
            key = (type(body).__name__, *wl.body_params(body))
            assert key not in seen
            seen.add(key)


def test_gate_rules():
    inputs = wl.Inputs("closure")
    ok_key = next(k for k, v in EXPECTED.items() if k[0] == "closure" and not v.startswith("!"))
    bad_key = next(k for k, v in EXPECTED.items() if k[0] == "closure" and v == "!ValueError")

    def problems(outcomes):
        return wl.check_pass(inputs, wl.Pass(outcomes=outcomes), EXPECTED)

    assert problems({ok_key: EXPECTED[ok_key], bad_key: "!ValueError"}) == []
    assert problems({bad_key: "3/2 4/3"}) == []  # a fixed defect is allowed
    assert problems({ok_key: "1 1"})  # a changed value
    assert problems({ok_key: "!ValueError"})  # a newly failing input
    assert problems({bad_key: "!AssertionError"})  # any other exception


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == list(tracing.PER_LAYER.values())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    layer = tracing.layer_metrics([], Counter(), [{"import_cutstrength_s": 0.1, "import_numpy_s": 0.1}], 0.0)
    assert list(layer) == list(tracing.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
