"""Self-tests of the benchmark harness, at a tiny size.

    python3 -m pytest bench/tests -q

They run the workloads through bench/run.py --tiny, in fresh processes where
the test needs a clean interpreter and in-process where it patches the
program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
COUNT_SUFFIXES = ("_calls", ".calls", "_terms", "terms_out", "_bits_max", "_bits_mean",
                  "ode_nfev", "ode_steps", "picard_iterations", "samples", "memo_entries",
                  ".failed", "_failures", "output_bytes")


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def program():
    run.load_program()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_tiny_and_reports_every_end_to_end_metric(workload):
    line = last_json(bench(workload, 1, 0))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1
    assert list(line["metrics"]) == END_TO_END
    for name, entry in line["metrics"].items():
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_count_metrics_repeat_exactly_for_one_seed(workload):
    first, second = (last_json(bench(workload, 7, 1)) for _ in range(2))
    assert list(first["metrics"]) == PER_LAYER
    counts = [n for n in PER_LAYER if n.endswith(COUNT_SUFFIXES)]
    assert "words.shuffle_calls" in counts and "sim.ode_nfev" in counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_gives_different_inputs(workload, program):
    import random

    import workloads

    def inputs(seed):
        ctx = workloads.Context(root=run.ROOT, work=run.WORK / f"test-{workload}",
                                seed=seed, tiny=True)
        tasks = workloads.WORKLOADS[workload].build(
            random.Random(f"{seed}:{workload}:1"), 1, ctx)
        files = sorted(p.read_bytes() for p in ctx.work.glob("*.json")) if ctx.work.exists() else []
        # The round's inputs are the files it writes and what the task
        # closures hold, apart from the Context, which names the seed.
        closures = [
            repr([c.cell_contents for c in (t.run.__closure__ or ())
                  if not isinstance(c.cell_contents, workloads.Context)])
            + repr(t.run.__defaults__)
            for t in tasks
        ]
        return closures, files

    assert inputs(1) != inputs(2)
    assert inputs(1) == inputs(1)


def test_perturbed_coefficient_raises_error_rate(program, monkeypatch):
    import fliessnet

    original = fliessnet.natural_response

    def perturbed(net, j, degree):
        a = original(net, j, degree)
        return a[:-1] + [a[-1] + 1]

    monkeypatch.setattr(fliessnet, "natural_response", perturbed)
    result = run.run_workload("closed_loop_deep", 1, 1, trace=False, tiny=True)
    assert result["failed"] > 0
    assert result["correct"] is False
    assert any("natural" in task_id for task_id, _, _ in result["failures"])


def test_known_defects_are_counted_and_named(program):
    result = run.run_workload("cli_cold", 1, 1, trace=False, tiny=True)
    assert result["correct"] is True
    assert [(t, k) for t, _, k in result["failures"]] == [("r1/reldeg", "cli-reldeg-consistency")]


def test_cli_mismatch_beside_the_known_defect_is_unexpected(program, monkeypatch):
    import dataclasses

    import fliessnet

    original = fliessnet.predict_io_reldeg

    def shifted(net, i, j):
        pred = original(net, i, j)
        return dataclasses.replace(pred, r_pred=(pred.r_pred or 0) + 1)

    # The CLI runs in fresh processes and keeps the true prediction; only the
    # library answer it is checked against changes.
    monkeypatch.setattr(fliessnet, "predict_io_reldeg", shifted)
    result = run.run_workload("cli_cold", 1, 1, trace=False, tiny=True)
    assert result["correct"] is False
    assert [(t, k) for t, _, k in result["failures"]] == [("r1/reldeg", None)]


def test_lambert_stall_counts_as_known_only_near_t_star(program):
    import fliessnet

    import oracles
    import workloads

    t_star = oracles.t_star(3, 1, 1)
    stall = fliessnet.NoConvergence("stalled")
    known = workloads.LAMBERT_DEFECT[1]
    near = workloads.check_envelope_batch([stall], 3, 1, 1, [0.9999 * t_star], t_star)
    assert oracles.branch_distance(3, 1, 1, 0.9999 * t_star) < workloads.LAMBERT_NEAR
    early = workloads.check_envelope_batch([stall], 3, 1, 1, [0.5 * t_star], t_star)
    assert near.startswith(known)
    assert not early.startswith(known)


def test_missing_binding_is_listed_and_the_rest_still_counted(program, monkeypatch):
    import importlib

    import fliessnet

    import spans
    import workloads

    monkeypatch.delattr(importlib.import_module("fliessnet.cli"), "relative_degree")
    tracer = spans.Tracer()
    assert "cli.relative_degree" in tracer.absent
    tracer.install()
    try:
        tracer.begin_task("t")
        fliessnet.relative_degree(fliessnet.io_map(workloads.all_ones(2), 1, 2, 3))
        tracer.end_task()
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    assert metrics["reldeg.relative_degree_calls"][0] >= 1
    assert metrics["growth.abel_s"][0] == 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("closed_loop_deep", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
