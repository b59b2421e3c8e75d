"""The module bindings that the benchmark's span tracer wraps stay bound.

bench/spans.py reaches each traced function through the attribute by which
one fliessnet module calls another (e.g. ``fliessnet.network.compose_at``)
and reports a metric as absent when none of its bindings exists. These
tests load the tracer from its file, so a change that unbinds a traced name
fails here rather than in a benchmark run. Nothing under bench/ is changed.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import fliessnet
import fliessnet.words as words
from conftest import all_ones_maximal

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_the_cli_prediction_binding_is_absent():
    assert load_spans().Tracer().absent == ["cli.predict_io_reldeg"]


def test_shuffle_memo_is_a_dict():
    assert type(words._shuffle_cache) is dict


def test_every_layer_metric_of_a_traced_closed_loop_is_present():
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        tracer.begin_task("closed_loop")
        d = fliessnet.closed_loop_series(all_ones_maximal(2), 1, 4)
        fliessnet.relative_degree(d[1])
        tracer.end_task()
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    missing = [name for name, (value, _) in metrics.items()
               if value is None or not math.isfinite(value)]
    assert missing == []
    assert metrics["network.closed_loop_calls"][0] == 1
    assert metrics["compose.calls"][0] > 0
