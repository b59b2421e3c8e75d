"""The module bindings that the benchmark's span tracer wraps stay bound.

bench/spans.py reaches each traced function through the attribute by which
one fliessnet module calls another (e.g. ``fliessnet.network.compose_at``)
and reports a metric as absent when none of its bindings exists. These
tests load the tracer from its file, so a change that unbinds a traced name
fails here rather than in a benchmark run. The last test runs each workload
traced at its tiny size and reads the result line that bench/run.py prints
last. Nothing under bench/ is changed.
"""

from __future__ import annotations

import importlib.util
import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fliessnet
import fliessnet.cli as cli
import fliessnet.words as words
from conftest import all_ones_maximal, four_node_net

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
RUN = SPANS.with_name("run.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_the_cli_prediction_binding_is_absent():
    """Besides the CLI's prediction, only reldeg's closed_loop_series and
    restrict_to_subgraph and the CLI's three sim bindings are unbound:
    reldeg settles the loops of all inputs in one network routine,
    restrict_to_subgraph lives in the tests' subgraph_loop_oracle, and the
    simulate and validate handlers import from sim when they run, so that
    the other commands start without numpy. No benchmark metric reads only
    these bindings: each sim metric keeps its fliessnet and fliessnet.sim ones."""
    assert load_spans().Tracer().absent == [
        "cli.predict_io_reldeg", "cli.simulate_maximal_ode", "cli.simulate_picard",
        "cli.validate_io_map", "reldeg.closed_loop_series", "reldeg.restrict_to_subgraph"]


def test_shuffle_memo_is_a_dict():
    assert type(words._shuffle_cache) is dict


def traced_metrics(task) -> dict:
    """Layer metrics of one traced call of task(); every metric must be
    present and finite, or the benchmark's result line would carry it as
    absent or fail to encode it as strict JSON."""
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        tracer.begin_task("task")
        task()
        tracer.end_task()
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    missing = [name for name, (value, _) in metrics.items()
               if value is None or not math.isfinite(value)]
    assert missing == []
    return metrics


def test_every_layer_metric_of_a_traced_closed_loop_is_present():
    def task():
        d = fliessnet.closed_loop_series(all_ones_maximal(2), 1, 4)
        fliessnet.relative_degree(d[1])
        fliessnet.natural_response(all_ones_maximal(2), 2, 6)

    metrics = traced_metrics(task)
    assert metrics["network.closed_loop_calls"][0] >= 1
    assert metrics["compose.calls"][0] > 0


def test_every_layer_metric_of_a_traced_dense_loop_is_present():
    """All-ones m=1 at degree 12 sends its large grade pairs to the dense
    shuffle kernel, which calls no shuffle_words: the word-pair kernel makes
    fewer terms than the loop's shuffles return, and the memo may be empty."""
    metrics = traced_metrics(lambda: fliessnet.closed_loop_series(all_ones_maximal(1), 1, 12))
    assert metrics["network.closed_loop_calls"][0] == 1
    assert metrics["words.shuffle_out_terms"][0] < metrics["series.shuffle_out_terms"][0]


def test_every_sim_metric_of_traced_simulations_is_present(tmp_path):
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(fliessnet.network_to_json(all_ones_maximal(2))))
    out = tmp_path / "traj.csv"
    four = four_node_net(Fraction(2, 3), Fraction(1, 5), Fraction(3, 7), Fraction(4, 9))

    def task():
        fliessnet.simulate_maximal_ode(all_ones_maximal(3), fliessnet.Grid(0.0, 0.2, 40))
        fliessnet.validate_io_map(four, 1, 4, 3, fliessnet.Grid(0.0, 0.2, 40))
        assert cli.run(["simulate", "--net", str(net_file), "--T", "0.3", "--n", "30",
                        "--out", str(out)]) == 0

    metrics = traced_metrics(task)
    sim = {name: value for name, (value, _) in metrics.items() if name.startswith("sim.")}
    assert sorted(sim) == sorted([
        "sim.calls", "sim.self_s", "sim.failed", "sim.eval_fliess_calls", "sim.eval_fliess_s",
        "sim.solve_ivp_s", "sim.ode_nfev", "sim.ode_steps", "sim.picard_iterations",
    ])
    assert sim["sim.failed"] == 0
    assert all(sim[name] > 0 for name in sim if name != "sim.failed")
    assert metrics["cli.calls"][0] > 0


def reject_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("workload", ["closed_loop_deep", "reldeg_batch", "envelope_sim", "cli_cold"])
def test_traced_run_ends_in_a_strict_result_line(workload):
    """The last stdout line of a traced run is its result record: strict
    JSON (no NaN or Infinity), every metric present, and every output right."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", "1", "--tiny"],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1], parse_constant=reject_constant)
    assert [name for name, metric in line["metrics"].items() if metric.get("absent")] == []
    assert line["correct"] is True
