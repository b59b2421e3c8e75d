"""Run one fliessnet benchmark workload and print its metrics.

    python3 bench/run.py --workload closed_loop_deep --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from its
``src/`` directory. Inputs come from --seed alone. After set-up (import,
input generation and one warm-up round), the workload's task list runs for
--seconds // round_s rounds, each on fresh inputs of the same shape, and the
outputs of every measured round are checked. With --trace 0 the end-to-end
metrics are printed, their times scaled to the speed of a reference host
(see HostClock); with --trace 1 each round runs untraced and then traced
on the same inputs, and the per-layer metrics of the first traced round are
printed. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Scratch files go to
``.bench_work/`` in the checkout. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

STARTED = time.perf_counter()
# All load comes from one thread: the BLAS libraries under numpy and scipy
# otherwise start a thread pool per process, whose spinning adds CPU time
# that depends on what else runs on the other core. Child processes inherit
# this environment.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "digests.json"

# This host runs a fresh process fast for a few seconds and then settles
# about 30% slower; measured rounds start only after this much load.
SETTLE_S = 6.0
# The host-speed kernel runs at most this often between tasks; a stretch of
# time is scaled by the kernel samples within the window around it. The
# kernel's mean time on the settled 2-core Xeon host that defined the
# benchmark is the reference that timings are scaled to.
KERNEL_PERIOD_S = 0.1
KERNEL_WINDOW_S = 0.25
KERNEL_REF_S = 0.0027


class SetupError(Exception):
    pass


def load_program() -> None:
    """Put src/ and bench/ on sys.path and import fliessnet.

    Also changes to the checkout root: the CLI commands name their input
    files relative to it, so their outputs do not depend on where it lies.
    """
    if not (SRC / "fliessnet" / "__init__.py").is_file():
        raise SetupError(f"no fliessnet sources under {SRC}")
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import fliessnet

    if Path(fliessnet.__file__).resolve().parent != (SRC / "fliessnet").resolve():
        raise SetupError(f"imported fliessnet from {fliessnet.__file__}, not from {SRC}")
    os.chdir(ROOT)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def host_kernel() -> float:
    """Fixed pure-Python work that does not touch fliessnet (about 2 ms).

    A mix of the kinds of work the program does: exact rationals in a dict
    keyed by words, float evaluation, and building and walking a few
    thousand small objects. It runs with the garbage collector off, so that
    the program's heap does not change its cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        terms: dict = {}
        for i in range(1, 150):
            word = (i % 3, i % 5, i % 2)
            c = Fraction(i * 7919, 104729 + i)
            terms[word] = terms.get(word, 0) + c * c
        x = 0.0
        for i in range(1, 1500):
            x += math.exp(-i * 1e-3) * math.log1p(i) / math.sqrt(i)
        rows = [(i, i * 0.5, str(i)) for i in range(3000)]
        x += sum(len(r[2]) for r in sorted(rows, key=lambda r: -r[1]))
        return x + len(terms)
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """The speed of the host, read from a calibration kernel between tasks.

    On a shared host the same task takes up to 1.7x longer from one spell
    to the next, and the mix of spells drifts from minute to minute, so raw
    times of two runs minutes apart differ by up to 25%. The kernel slows
    down with the host. A stretch of time is divided by the host factor
    around it, the mean kernel time within KERNEL_WINDOW_S of the stretch
    over KERNEL_REF_S, which reports it in seconds of the reference host.
    The kernel's own time is never part of a task's time.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end, kernel time)

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.samples or now - self.samples[-1][0] >= KERNEL_PERIOD_S:
            host_kernel()
            end = time.perf_counter()
            self.samples.append((end, end - now))

    def factor(self, start: float, end: float) -> float:
        """The host factor over [start, end]; samples hit by a preemption
        (more than twice the median) are left out."""
        near = [k for t, k in self.samples
                if start - KERNEL_WINDOW_S <= t <= end + KERNEL_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]]
        cut = 2.0 * statistics.median(near)
        return statistics.mean(k for k in near if k <= cut) / KERNEL_REF_S


@dataclass
class Round:
    times: list[tuple[float, float, float]]  # (start, end, CPU time) of each task
    failures: list[tuple[str, str, str | None]] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def durations(self) -> list[float]:
        return [end - start for start, end, _ in self.times]

    @property
    def wall(self) -> float:
        return sum(self.durations)

    def scaled(self, clock: HostClock) -> list[tuple[float, float]]:
        """(wall, CPU) time of each task in seconds of the reference host."""
        out = []
        for start, end, cpu in self.times:
            f = clock.factor(start, end)
            out.append(((end - start) / f, cpu / f))
        return out


def cpu_now() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_round(tasks, rnd: int, clock: HostClock | None = None, tracer=None,
              check: bool = True) -> Round:
    """Run the task list, timing each task, then check every output.

    The round's wall time is the sum over its tasks, so the host-speed
    kernel that runs between tasks does not count.
    """
    outputs = []
    times = []
    for task in tasks:
        if clock is not None:
            clock.tick()
        if tracer is not None:
            tracer.begin_task(f"r{rnd}/{task.name}")
        cpu0 = cpu_now()
        start = time.perf_counter()
        try:
            outputs.append((task.run(), None))
        except Exception as exc:  # a failing task is counted, never fatal
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
        end = time.perf_counter()
        times.append((start, end, cpu_now() - cpu0))
        if tracer is not None:
            tracer.end_task()
    if clock is not None:
        clock.tick(force=True)
    result = Round(times)
    if not check:
        return result
    for task, (out, problem) in zip(tasks, outputs):
        task_id = f"r{rnd}/{task.name}"
        if problem is None:
            try:
                problem = task.check(out)
                if problem is None and task.exact is not None:
                    text = task.exact(out).encode()
                    result.digests[task_id] = hashlib.sha256(text).hexdigest()
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            known = task.known[0] if task.known and problem.startswith(task.known[1]) else None
            result.failures.append((task_id, problem, known))
    return result


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and its value.

    With ten samples or fewer no such percentile exists; the maximum stands in.
    """
    ordered = sorted(values)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def import_time_cli() -> float:
    """Median time for a fresh interpreter to import fliessnet.cli."""
    code = "import time; t = time.perf_counter(); import fliessnet.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: int, trace: bool, tiny: bool = False,
                 clock: HostClock | None = None,
                 import_span: tuple[float, float] | None = None) -> dict:
    """Run one workload; import_span is when fliessnet was imported, for set-up."""
    import spans
    import workloads

    wl = workloads.WORKLOADS[name]
    ctx = workloads.Context(
        root=ROOT, work=WORK / f"{name}-seed{seed}", seed=seed, tiny=tiny,
        inprocess=trace, env=child_env(),
    )
    rounds = max(1, int(seconds // wl.round_s))
    clock = clock or HostClock()
    clock.tick(force=True)
    start = time.perf_counter()
    plan = [wl.build(random.Random(f"{seed}:{name}:{r}"), r, ctx) for r in range(rounds + 1)]
    gen_span = (start, time.perf_counter())
    warm = run_round(plan[0], 0, clock=clock, check=False)
    setup_s = sum(wall for wall, _ in warm.scaled(clock))
    for span in filter(None, (import_span, gen_span)):
        setup_s += (span[1] - span[0]) / clock.factor(*span)
    while not tiny and time.perf_counter() - STARTED < SETTLE_S:
        run_round(plan[0], 0, check=False)

    measured: list[Round] = []
    traced: list[Round] = []
    tracer = None
    if trace:
        output_bytes = 0
        for r in range(1, max(1, rounds // 2) + 1):
            measured.append(run_round(plan[r], r))
            probe = spans.Tracer()
            before = ctx.output_bytes
            probe.install()
            try:
                traced.append(run_round(plan[r], r, tracer=probe))
            finally:
                probe.uninstall()
            if tracer is None:
                tracer, output_bytes = probe, ctx.output_bytes - before
    else:
        measured = [run_round(plan[r], r, clock=clock) for r in range(1, rounds + 1)]

    reference = {} if tiny else json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    failures = []
    digests = {}
    for rnd in measured + traced:
        failures.extend(rnd.failures)
        for task_id, digest in rnd.digests.items():
            key = f"{name}/seed{seed}/{task_id}"
            digests[key] = digest
            if key in reference and reference[key] != digest:
                failures.append((task_id, "output digest differs from the recorded baseline", None))
    attempted = sum(len(rnd.durations) for rnd in measured + traced)
    metrics: dict[str, tuple] = {}
    notes: dict[str, str] = {}
    if trace:
        metrics.update(tracer.layer_metrics())
        metrics["cli.import_s"] = (import_time_cli(), "s")
        metrics["cli.output_bytes"] = (output_bytes, "B")
        overhead = statistics.median(r.wall for r in traced) / statistics.median(
            r.wall for r in measured
        ) - 1.0
        metrics["trace_overhead_frac"] = (overhead, "ratio")
        tracer.write(WORK / f"spans-{name}-seed{seed}.jsonl.gz")
        if tracer.absent:
            notes["absent boundaries"] = " " + " ".join(tracer.absent)
    else:
        # Times in seconds of the reference host (see HostClock); the raw
        # wall time of the measured rounds is printed beside them.
        scaled = [rnd.scaled(clock) for rnd in measured]
        durations = [wall for rnd in scaled for wall, _ in rnd]
        pct, tail_value = tail(durations)
        who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(sum(w for w, _ in rnd) for rnd in scaled), "s"),
            "cpu_s": (statistics.median(sum(c for _, c in rnd) for rnd in scaled), "s"),
            "task_p50_ms": (1000.0 * statistics.median(durations), "ms"),
            "task_tail_ms": (1000.0 * tail_value, "ms"),
            "peak_rss_mib": (resource.getrusage(who).ru_maxrss / 1024.0, "MiB"),
        }
        raw_wall = statistics.median(rnd.wall for rnd in measured)
        notes["wall_s"] = f"raw {raw_wall:.6g} s"
        notes["task_tail_ms"] = f"p{pct:.1f} of tasks={len(durations)}"
    return {
        "workload": name,
        "seed": seed,
        "rounds": len(measured),
        "attempted": attempted,
        "failed": len(failures),
        "correct": all(known is not None for _, _, known in failures),
        "failures": failures,
        "digests": digests,
        "metrics": metrics,
        "notes": notes,
    }


def report(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} rounds {result['rounds']}")
    for key, (value, unit) in result["metrics"].items():
        shown = "absent" if value is None else f"{value:.6g}"
        note = result["notes"].get(key)
        print(f"  {key:32s} {shown:>14s} {unit}" + (f"  ({note})" if note else ""))
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'error_rate':32s} {failed / attempted:14.6g} ratio  ({failed} of {attempted} tasks)")
    for task_id, problem, known in result["failures"]:
        tag = f"known defect {known}" if known else "UNEXPECTED"
        print(f"  failed {task_id}: {problem} [{tag}]")
    for key, note in result["notes"].items():
        if key not in result["metrics"]:
            print(f"  {key}:{note}")
    combined = hashlib.sha256("".join(sorted(result["digests"].values())).encode()).hexdigest()
    print(f"  exact-output digest {combined} over {len(result['digests'])} outputs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[
        "closed_loop_deep", "reldeg_batch", "envelope_sim", "cli_cold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one small round and no settling, for the self-tests")
    args = parser.parse_args(argv)
    clock = HostClock()
    for _ in range(5):
        clock.tick(force=True)
    start = time.perf_counter()
    try:
        load_program()
    except (SetupError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_span = (start, time.perf_counter())
    clock.tick(force=True)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.tiny, clock, import_span)
    report(result)
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            key: {"value": 0 if value is None else value, "unit": unit,
                  **({"absent": True} if value is None else {})}
            for key, (value, unit) in result["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
