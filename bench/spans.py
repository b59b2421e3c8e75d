"""Outside-in span tracing of fliessnet's module boundaries.

Nothing inside the package is instrumented. A traced round replaces the
attribute through which one module (the consumer) reaches a function of
another, e.g. ``fliessnet.network.compose_at``, by a wrapper that records a
span, and restores the original afterwards. Modules are looked up by name
with importlib, not as package attributes, because the exported function
``fliessnet.compose`` shadows the ``fliessnet.compose`` submodule. A
boundary whose attribute does not exist is reported as absent rather than
failing, so a later change may remove a private name such as
``_shuffle_terms`` without breaking the benchmark.

Spans are kept in memory as tuples ``(boundary, parent, task, start, end)``
and written out when the run ends. A layer's self time is the time its spans
cover minus the time covered by their direct child spans.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

LAYERS = ("words", "series", "compose", "network", "reldeg", "growth", "sim", "cli")

# Pseudo-boundaries: the benchmark's own task span, and the benchmark's
# bookkeeping after a call, which must not count as the caller's self time.
TASK = -1
BOOKKEEPING = -2


def coeff_bits(c) -> int:
    """Numerator plus denominator bit length of an exact coefficient."""
    if isinstance(c, Fraction):
        return abs(c.numerator).bit_length() + c.denominator.bit_length()
    return abs(c).bit_length() + 1


def _terms_bits(tr, key, coeffs) -> None:
    for c in coeffs:
        b = coeff_bits(c)
        tr.count[key + ".bits_sum"] += b
        tr.count[key + ".bits_n"] += 1
        if b > tr.count[key + ".bits_max"]:
            tr.count[key + ".bits_max"] = b


def _shuffle_words(tr, out):
    tr.count["shuffle_words.out_terms"] += len(out)


def _shuffle_terms(tr, out):
    tr.count["_shuffle_terms.out_terms"] += len(out)
    _terms_bits(tr, "series", out.values())
    return True


def _linear_combine(tr, out):
    _terms_bits(tr, "series", out.terms.values())
    return True


def _compose(tr, out):
    tr.count["compose.terms_out"] += len(out)


def _closed_loop(tr, out):
    tr.count["network.terms_out"] += sum(len(s) for s in out.values())


def _abel(tr, out):
    _terms_bits(tr, "abel", (*out.z, *out.a, *out.mhat))
    return True


def _solve_ivp(tr, out):
    tr.count["ode.nfev"] += int(out.nfev)
    tr.count["ode.steps"] += len(out.t) - 1


def _picard(tr, out):
    tr.count["picard.iterations"] += int(out.metadata.get("iterations", 0))


# (layer, consumer module under fliessnet, attribute, hook on the result).
# A hook that returns True did enough work to be timed as bookkeeping.
BOUNDARIES = [
    ("words", "series", "shuffle_words", _shuffle_words),
    ("words", "cli", "parse_word", None),
    ("words", "cli", "format_word", None),
    ("series", "compose", "_shuffle_terms", _shuffle_terms),
    ("series", "network", "linear_combine", _linear_combine),
    ("series", "network", "as_coeff", None),
    ("series", "reldeg", "as_coeff", None),
    ("series", "growth", "as_coeff", None),
    ("compose", "network", "compose_at", _compose),
    ("compose", "network", "compose_maximal", _compose),
    ("network", "", "closed_loop_series", _closed_loop),
    ("network", "network", "closed_loop_series", _closed_loop),
    ("network", "reldeg", "closed_loop_series", _closed_loop),
    ("network", "", "io_map", None),
    ("network", "sim", "io_map", None),
    ("network", "cli", "io_map", None),
    ("network", "", "natural_response", None),
    ("network", "reldeg", "subgraph_extract", None),
    ("network", "reldeg", "restrict_to_subgraph", None),
    ("network", "cli", "network_from_json", None),
    ("reldeg", "", "relative_degree", None),
    ("reldeg", "reldeg", "relative_degree", None),
    ("reldeg", "cli", "relative_degree", None),
    ("reldeg", "", "predict_io_reldeg", None),
    ("reldeg", "reldeg", "predict_io_reldeg", None),
    ("reldeg", "cli", "predict_io_reldeg", None),
    ("reldeg", "", "complete_reldeg", None),
    ("reldeg", "", "genericity_sample", None),
    ("reldeg", "cli", "genericity_sample", None),
    ("reldeg", "reldeg", "sample_network", None),
    ("reldeg", "reldeg", "accumulated_degrees", None),
    ("growth", "", "abel_taylor", _abel),
    ("growth", "cli", "abel_taylor", _abel),
    ("growth", "", "m_inf_bound", None),
    ("growth", "growth", "m_inf_bound", None),
    ("growth", "cli", "m_inf_bound", None),
    ("growth", "", "closed_form_natural_response", None),
    ("growth", "growth", "lambert_w_lower", None),
    ("sim", "", "eval_fliess", None),
    ("sim", "sim", "eval_fliess", None),
    ("sim", "", "simulate_maximal_ode", None),
    ("sim", "cli", "simulate_maximal_ode", None),
    ("sim", "sim", "simulate_picard", _picard),
    ("sim", "cli", "simulate_picard", _picard),
    ("sim", "", "validate_io_map", None),
    ("sim", "cli", "validate_io_map", None),
    ("sim", "sim", "solve_ivp", _solve_ivp),
    ("cli", "cli", "run", None),
]


def _module(consumer: str):
    """The consumer module, imported if need be (the package does not import cli)."""
    name = "fliessnet" + ("." + consumer if consumer else "")
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


def boundary_key(consumer: str, attr: str) -> str:
    """'network.compose_at' names compose_at as fliessnet.network binds it."""
    return f"{consumer or 'fliessnet'}.{attr}"


class Tracer:
    """Span recorder for one traced round; install() and uninstall() bracket it."""

    def __init__(self):
        self.keys = [boundary_key(c, a) for _, c, a, _ in BOUNDARIES]
        self.absent = sorted(
            key
            for key, (_, consumer, attr, _) in zip(self.keys, BOUNDARIES)
            if not callable(getattr(_module(consumer), attr, None))
        )
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, str]] = [(-1, "bench")]
        self.task = None
        self.count: Counter = Counter()
        self.failed: Counter = Counter()
        self.failed_at: Counter = Counter()
        self._saved: list[tuple] = []

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        for index, (layer, consumer, attr, hook) in enumerate(BOUNDARIES):
            module = _module(consumer)
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(index, layer, original, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, index: int, layer: str, original, hook):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.task is None:
                return original(*args, **kwargs)
            spans = tracer.spans
            sid = len(spans)
            parent, parent_layer = tracer.stack[-1]
            spans.append(None)
            tracer.stack.append((sid, layer))
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                spans[sid] = (index, parent, tracer.task, start, time.perf_counter())
                tracer.stack.pop()
                tracer.failed_at[index] += 1
                if parent_layer != layer:
                    tracer.failed[layer] += 1
                raise
            end = time.perf_counter()
            spans[sid] = (index, parent, tracer.task, start, end)
            tracer.stack.pop()
            if hook is not None and hook(tracer, result):
                spans.append((BOOKKEEPING, parent, tracer.task, end, time.perf_counter()))
            return result

        traced.__wrapped__ = original
        return traced

    # -- task spans --------------------------------------------------------------

    def begin_task(self, task_id: str) -> None:
        self.task = task_id
        self.stack.append((len(self.spans), "bench"))
        self.spans.append((TASK, -1, task_id, time.perf_counter(), None))

    def end_task(self) -> None:
        sid, _ = self.stack.pop()
        index, parent, task, start, _ = self.spans[sid]
        self.spans[sid] = (index, parent, task, start, time.perf_counter())
        self.task = None

    # -- results -------------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the spans as gzip-compressed JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names = {TASK: "bench.task", BOOKKEEPING: "bench.bookkeeping"}
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, (index, parent, task, start, end) in enumerate(self.spans):
                name = names.get(index) or f"{BOUNDARIES[index][0]}:{self.keys[index]}"
                fh.write(
                    json.dumps(
                        {"id": sid, "parent": parent, "task": task, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )

    def layer_metrics(self) -> dict[str, tuple[float | None, str]]:
        """Per-layer metrics of the recorded spans; None marks an absent metric."""
        n = len(BOUNDARIES)
        calls = [0] * n
        incl = [0.0] * n
        child = [0.0] * len(self.spans)
        for index, parent, _, start, end in self.spans:
            dur = end - start
            if parent >= 0:
                child[parent] += dur
            if index >= 0:
                calls[index] += 1
                incl[index] += dur
        self_s = Counter()
        layer_calls = Counter()
        for sid, (index, _, _, start, end) in enumerate(self.spans):
            if index >= 0:
                layer = BOUNDARIES[index][0]
                self_s[layer] += (end - start) - child[sid]
                layer_calls[layer] += 1

        # A metric sums over the bindings that exist; the missing ones are
        # listed as absent boundaries, and the metric is absent only when
        # none of its bindings exists.
        def live(keys):
            return [k for k in keys if k not in self.absent]

        def over(keys, values):
            present = live(keys)
            return sum(values[self.keys.index(k)] for k in present) if present else None

        def keys_of(attr, consumers=None):
            return [
                key
                for key, (_, consumer, a, _) in zip(self.keys, BOUNDARIES)
                if a == attr and (consumers is None or consumer in consumers)
            ]

        def count_if(keys, name):
            return self.count[name] if live(keys) else None

        def mean_bits(prefix):
            n_coeffs = self.count[prefix + ".bits_n"]
            return self.count[prefix + ".bits_sum"] / n_coeffs if n_coeffs else 0.0

        words_cache = getattr(sys.modules["fliessnet.words"], "_shuffle_cache", None)
        shuffle_w = keys_of("shuffle_words")
        shuffle_t = keys_of("_shuffle_terms")
        lin = keys_of("linear_combine")
        comp = keys_of("compose_at") + keys_of("compose_maximal")
        loop = keys_of("closed_loop_series")
        abel = keys_of("abel_taylor")
        lam = keys_of("lambert_w_lower")
        ivp = keys_of("solve_ivp")
        picard = keys_of("simulate_picard")
        out: dict[str, tuple[float | None, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (layer_calls[layer], "count")
            out[f"{layer}.self_s"] = (self_s[layer], "s")
            out[f"{layer}.failed"] = (self.failed[layer], "count")
        out.update(
            {
                "words.shuffle_calls": (over(shuffle_w, calls), "count"),
                "words.shuffle_out_terms": (
                    count_if(shuffle_w, "shuffle_words.out_terms"), "count"),
                "words.memo_entries": (
                    None if words_cache is None else len(words_cache), "count"),
                "series.shuffle_s": (over(shuffle_t, incl), "s"),
                "series.shuffle_out_terms": (
                    count_if(shuffle_t, "_shuffle_terms.out_terms"), "count"),
                "series.linear_combine_calls": (over(lin, calls), "count"),
                "series.coeff_bits_max": (
                    count_if(shuffle_t + lin, "series.bits_max"), "bit"),
                "series.coeff_bits_mean": (
                    mean_bits("series") if live(shuffle_t + lin) else None, "bit"),
                "compose.terms_out": (count_if(comp, "compose.terms_out"), "count"),
                "network.closed_loop_calls": (over(loop, calls), "count"),
                "network.terms_out": (count_if(loop, "network.terms_out"), "count"),
                "reldeg.relative_degree_calls": (
                    over(keys_of("relative_degree"), calls), "count"),
                "reldeg.predict_calls": (over(keys_of("predict_io_reldeg"), calls), "count"),
                "reldeg.subgraph_s": (over(keys_of("subgraph_extract", {"reldeg"}), incl), "s"),
                "reldeg.sample_network_s": (over(keys_of("sample_network"), incl), "s"),
                "reldeg.samples": (over(keys_of("sample_network"), calls), "count"),
                "growth.abel_s": (over(abel, incl), "s"),
                "growth.abel_bits_max": (count_if(abel, "abel.bits_max"), "bit"),
                "growth.lambert_calls": (over(lam, calls), "count"),
                "growth.lambert_failures": (over(lam, self.failed_at), "count"),
                "sim.eval_fliess_calls": (over(keys_of("eval_fliess"), calls), "count"),
                "sim.eval_fliess_s": (over(keys_of("eval_fliess"), incl), "s"),
                "sim.solve_ivp_s": (over(ivp, incl), "s"),
                "sim.ode_nfev": (count_if(ivp, "ode.nfev"), "count"),
                "sim.ode_steps": (count_if(ivp, "ode.steps"), "count"),
                "sim.picard_iterations": (count_if(picard, "picard.iterations"), "count"),
            }
        )
        return out
