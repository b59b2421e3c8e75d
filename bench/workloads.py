"""The four benchmark workloads: seeded inputs, task lists and output checks.

A workload builds one round of tasks from a random.Random seeded by
(seed, workload, round). Round 0 is the warm-up; rounds 1.. are measured.
Every library call goes through a module attribute looked up at call time,
so the tracer's wrappers see it. A check returns None when the output is
right and a one-line reason when it is not; it never raises past the runner.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import fliessnet as F

import oracles


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    # Canonical text of the exact output; its SHA-256 is the task's digest.
    exact: Optional[Callable[[object], str]] = None
    # (defect id, failure prefix): a failure starting with the prefix is a
    # known defect of the program at the commit that defined the benchmark.
    known: Optional[tuple[str, str]] = None


@dataclass
class Context:
    """What a round needs besides its random stream."""

    root: Path
    work: Path
    seed: int
    tiny: bool
    # cli_cold runs each command in a fresh process unless this is set; the
    # traced run calls fliessnet.cli.run in-process instead.
    inprocess: bool = False
    output_bytes: int = 0
    env: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    # Round budget: a run of --seconds S measures S // round_s rounds. The
    # values give 3, 12, 3 and 3 rounds at S = 20, which keeps every run
    # near 30 s on a 2-core host while giving medians at least 3 samples.
    round_s: float
    build: Callable[[random.Random, int, Context], list[Task]]


# -- input generators --------------------------------------------------------------


def rational(rng: random.Random, top: int = 1, q_max: int = 9) -> Fraction:
    """A rational in (0, top] with denominator at most q_max."""
    q = rng.randint(2, q_max)
    return Fraction(rng.randint(1, top * q), q)


def over(rng: random.Random, q: int, top: int = 1) -> Fraction:
    """A rational p/q in (0, top) in lowest terms, for a prime q.

    A fixed denominator keeps the bit length of exact arithmetic, and with
    it the cost of a task, nearly the same from seed to seed.
    """
    p = rng.randint(1, top * q - 1)
    while p % q == 0:
        p = rng.randint(1, top * q - 1)
    return Fraction(p, q)


def signed(rng: random.Random) -> Fraction:
    return rational(rng, top=2, q_max=5) * rng.choice((-1, 1))


def all_ones(m: int, K=1, M=1) -> F.NetworkSpec:
    spec = F.MaximalSeriesSpec(K, M)
    return F.NetworkSpec(m, [[1] * m for _ in range(m)], [spec] * m)


def maximal_net(rng: random.Random, m: int, top: int = 1, density: float = 1.0) -> F.NetworkSpec:
    """All-maximal net: K over 5, M over 7 and weights over 11, all in (0, top)."""
    specs = [F.MaximalSeriesSpec(over(rng, 5, top), over(rng, 7, top)) for _ in range(m)]
    W = [[over(rng, 11) if rng.random() < density else 0 for _ in range(m)] for _ in range(m)]
    return F.NetworkSpec(m, W, specs)


def double_diamond(gains) -> F.NetworkSpec:
    """Seven-node double diamond with a return edge from node 7 into node 4."""
    K1, K2, K3, K4, K5, K6, K7 = gains

    def S(terms):
        return F.Series(1, max(len(w) for w in terms), terms)

    nodes = [
        S({(1,): K1, (0, 1): 2}),
        S({(0,): 1, (0, 0, 1): K2}),
        S({(0, 1): K3, (0, 0, 1, 1): 3}),
        S({(): 1, (0, 1): K4, (0, 0, 1, 0): -1}),
        S({(0,): 4, (0, 0, 1): K5, (0, 0, 0, 0, 1): -2}),
        S({(1,): K6, (1, 1): -1}),
        S({(0,): 1, (): 2, (1,): K7, (0, 1): 4}),
    ]
    W = [[0] * 7 for _ in range(7)]
    for l, k in [(1, 2), (1, 3), (2, 4), (3, 4), (2, 5), (4, 5), (4, 6), (5, 7), (6, 7), (7, 4)]:
        W[k - 1][l - 1] = 1
    return F.NetworkSpec(7, W, nodes)


def dd_gains(rng: random.Random) -> tuple:
    return tuple(over(rng, 7, top=3) for _ in range(7))


def sparse_poly_net(rng: random.Random, n: int) -> F.NetworkSpec:
    """n polynomial nodes of relative degree 1 or 2 on a sparse random graph."""
    nodes = []
    for _ in range(n):
        r = rng.randint(1, 2)
        lead = (0,) * (r - 1) + (1,)
        terms = {lead: signed(rng)}
        for _ in range(rng.randint(0, 2)):
            word = rng.choice([(), (0,) * r, lead + (1,), (0,) + lead])
            terms[word] = terms.get(word, 0) + signed(rng)
        nodes.append(F.Series(1, max(len(w) for w in terms), terms))
    W = [
        [rational(rng) if rng.random() < (0.1 if k == l else 0.35) else 0 for l in range(n)]
        for k in range(n)
    ]
    return F.NetworkSpec(n, W, nodes)


CRITERION7_PATTERN = [[0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 1, 0]]


def criterion7_nodes() -> list:
    x1 = F.Series(1, 1, {(1,): 1})
    return [x1, x1, F.Series(1, 1, {(1,): -1}), x1]


def halving_net(rng: random.Random) -> tuple[F.NetworkSpec, int]:
    """A polynomial chain whose closed loop is a polynomial of degree 2..5.

    Drawn as in criterion 8(vi); one io_map per candidate reads the loop
    degree L, and validation runs at N = L - 1 so the truncation remainder
    is exactly the top-degree part.
    """
    while True:
        n = rng.randint(2, 3)
        nodes = []
        for _ in range(n):
            terms = {(1,): Fraction(rng.randint(1, 3), rng.randint(1, 3))}
            if rng.random() < 0.6:
                w = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 2)))
                terms[w] = terms.get(w, 0) + Fraction(rng.randint(1, 2), rng.randint(1, 4))
            nodes.append(F.Series(1, 2, terms))
        W = [[0] * n for _ in range(n)]
        for u in range(1, n):
            W[u][u - 1] = rational(rng, q_max=12)
            for v in range(u + 2, n + 1):
                if rng.random() < 0.4:
                    W[v - 1][u - 1] = rational(rng, q_max=12)
        net = F.NetworkSpec(n, W, nodes)
        closed = F.io_map(net, 1, n, 10)
        if closed.is_zero():
            continue
        loop_degree = max(len(w) for w in closed.support())
        if 2 <= loop_degree <= 5:
            return net, loop_degree - 1


def interleave(slow: list[Task], quick: list[Task]) -> list[Task]:
    """Spread the quick tasks evenly among the slow ones.

    A run of sub-millisecond tasks back to back takes a few milliseconds and
    so meets the host in a single state; spread out, they sample it across
    the whole round, and their median time is steady.
    """
    out = []
    done = 0
    for i, task in enumerate(slow):
        out.append(task)
        upto = (i + 1) * len(quick) // len(slow)
        out.extend(quick[done:upto])
        done = upto
    return out + quick[done:]


# -- canonical exact text ------------------------------------------------------------


def series_text(s) -> str:
    terms = sorted(s.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    body = ";".join(f"{''.join(map(str, w))}:{oracles.exact_text(c)}" for w, c in terms)
    return f"N={s.max_degree},exact={s.exact_to}|{body}"


def closed_text(d) -> str:
    return "\n".join(f"{k}={series_text(s)}" for k, s in sorted(d.items()))


def report_text(rep) -> str:
    lead = None if rep.leading is None else oracles.exact_text(rep.leading)
    return f"{rep.status},{rep.r},{lead},{rep.truncation}"


# -- shared checks ----------------------------------------------------------------------


def check_natural(d, K, M, W, degree) -> Optional[str]:
    """Drift-only coefficients of every node against the state-ODE recursion."""
    expected = oracles.natural_taylor(K, M, W, degree)
    for k, a in enumerate(expected, start=1):
        got = [d[k].coeff((0,) * n) for n in range(degree + 1)]
        if got != a:
            n = next(i for i in range(degree + 1) if got[i] != a[i])
            return f"node {k} x0^{n}: {got[n]} != {a[n]}"
    return None


def check_double_diamond(d71, gains) -> Optional[str]:
    for word, value in oracles.double_diamond_coefficients(gains).items():
        if d71.coeff(word) != value:
            return f"coefficient of {F.format_word(word)} is {d71.coeff(word)}, expected {value}"
    rel = oracles.relative_degree(dict(d71.terms), d71.exact_to)
    K1, _, K3, K4, _, K6, K7 = gains
    if rel != (7, K1 * K3 * K4 * K6 * K7):
        return f"relative degree {rel}, expected r=7"
    return None


# -- closed_loop_deep ----------------------------------------------------------------------


def closed_loop_deep(rng: random.Random, rnd: int, ctx: Context) -> list[Task]:
    tiny = ctx.tiny
    tasks = []

    def maximal_task(name, net, degree):
        K = [s.K for s in net.nodes]
        M = [s.M for s in net.nodes]
        return Task(
            name,
            lambda: F.closed_loop_series(net, 1, degree),
            lambda d: check_natural(d, K, M, net.W, degree),
            closed_text,
        )

    ones_degree = 5 if tiny else 10
    tasks.append(maximal_task(f"ones_m3_d{ones_degree}", all_ones(3), ones_degree))
    for m, degree in ([(3, 4)] if tiny else [(3, 8), (4, 8), (5, 8)]):
        tasks.append(maximal_task(f"maxnet_m{m}_d{degree}", maximal_net(rng, m), degree))
    for degree in ([8] if tiny else [14, 15, 16]):
        gains = dd_gains(rng)
        net = double_diamond(gains)
        tasks.append(
            Task(
                f"double_diamond_d{degree}",
                lambda net=net, degree=degree: F.closed_loop_series(net, 1, degree),
                lambda d, gains=gains: check_double_diamond(d[7], gains),
                closed_text,
            )
        )
    for m in range(1, 3 if tiny else 5):
        net = all_ones(m)
        degree = 5 if tiny else 8

        def check(a, m=m, degree=degree):
            expected = list(F.abel_taylor(m, 1, 1, degree).a)
            return None if a == expected else f"natural response {a} != abel_taylor {expected}"

        tasks.append(
            Task(
                f"natural_m{m}_d{degree}",
                lambda net=net, degree=degree: F.natural_response(net, 1, degree),
                check,
                lambda a: " ".join(map(oracles.exact_text, a)),
            )
        )
    return tasks


# -- reldeg_batch --------------------------------------------------------------------------


ZERO_TRUNCATION_DEFECT = ("reldeg-zero-through-truncation", "zero through degree 5")


def reldeg_batch(rng: random.Random, rnd: int, ctx: Context) -> list[Task]:
    tiny = ctx.tiny
    tasks = []
    nodes = criterion7_nodes()
    samples = 5 if tiny else 40
    for b in range(1 if tiny else 10):
        seed = rng.randrange(2**31)

        def check(stats, seed=seed):
            if stats.pair_status.get((1, 4)) != {"defined": samples}:
                return f"pair (1, 4) status {stats.pair_status.get((1, 4))}"
            if stats.pair_r.get((1, 4)) != {3: samples}:
                return f"pair (1, 4) degrees {stats.pair_r.get((1, 4))}"
            for idx, value in enumerate(stats.values):
                W = F.sample_network(CRITERION7_PATTERN, nodes, seed, idx).W
                expected = abs(float(Fraction(W[3][1] * W[1][0] - W[3][2] * W[2][0])))
                if value != expected:
                    return f"sample {idx}: x0 x0 x1 coefficient {value} != |W42 W21 - W43 W31| = {expected}"
            return None

        tasks.append(
            Task(
                f"montecarlo_block{b}",
                lambda seed=seed: F.genericity_sample(
                    CRITERION7_PATTERN, nodes, samples, seed, 3,
                    designated=(1, 4, (0, 0, 1)), jobs=1,
                ),
                check,
                lambda s: json.dumps(
                    [sorted(map(str, s.pair_status.items())),
                     sorted(map(str, s.pair_r.items())), list(map(repr, s.values))]
                ),
            )
        )
    for n in (4, 5, 6):
        for j in range(1 if tiny else 8):
            net = sparse_poly_net(rng, n)

            def check(pairs, net=net):
                bad = [pair for pair, rep in pairs.items() if rep.consistent is False]
                if not bad:
                    return None
                # relative_degree calls a series that is zero through the
                # truncation "undefined", so a relative degree predicted
                # beyond the truncation is reported inconsistent.
                beyond = [
                    (i, j) for i, j in bad
                    if pairs[(i, j)].predicted.r_pred > 5
                    and F.closed_loop_series(net, i, 5)[j].is_zero()
                ]
                if beyond == bad:
                    return f"zero through degree 5: pairs {bad} measured undefined, predicted r > 5"
                return f"pairs {bad} report consistent == False"

            def text(pairs):
                rows = []
                for (i, j2), rep in sorted(pairs.items()):
                    pred = rep.predicted
                    rows.append(
                        f"{i},{j2}|{report_text(rep.measured)}|"
                        f"{None if pred is None else (pred.r_pred, pred.condition)}|"
                        f"{rep.prediction_error}|{rep.consistent}"
                    )
                return "\n".join(rows)

            tasks.append(
                Task(
                    f"complete_reldeg_n{n}_{j}",
                    lambda net=net: F.complete_reldeg(net, 5),
                    check,
                    text,
                    known=ZERO_TRUNCATION_DEFECT,
                )
            )
    for j in range(1 if tiny else 6):
        gains = dd_gains(rng)
        net = double_diamond(gains)

        def check_pred(pred):
            if (pred.r_pred, pred.condition) != (7, "distinct"):
                return f"predicted r={pred.r_pred} with {pred.condition}, expected 7 distinct"
            merge = {v: sorted(value for _, value in pred.details["incoming"][v]) for v in (4, 5, 7)}
            if merge != {4: [3, 4], 5: [4, 5], 7: [6, 7]}:
                return f"merge degrees {merge}"
            return None

        def check_measured(rep, gains=gains):
            K1, _, K3, K4, _, K6, K7 = gains
            got = (rep.status, rep.r, rep.leading)
            want = ("defined", 7, K1 * K3 * K4 * K6 * K7)
            return None if got == want else f"measured {got}, expected {want}"

        tasks.append(
            Task(
                f"dd_predict_{j}",
                lambda net=net: F.predict_io_reldeg(net, 1, 7),
                check_pred,
                lambda p: f"{p.r_pred},{p.condition},{sorted(p.details.get('accumulated', {}).items())}",
            )
        )
        tasks.append(
            Task(
                f"dd_measure_{j}",
                lambda net=net: F.relative_degree(F.io_map(net, 1, 7, 8)),
                check_measured,
                report_text,
            )
        )
    return tasks


# -- envelope_sim ----------------------------------------------------------------------------

# Parameter sets (m, K, M) whose Lambert W evaluation is known to fail near
# t_star, plus seeded ones drawn per round.
ENVELOPE_FIXED = [(3, 1, 1), (6, 1, 1), (3, 3, 4)]
LAMBERT_DEFECT = ("lambert-near-branch", "NoConvergence")
# lambert_w_lower stalls for arguments x with e x + 1 between about 7e-7 and
# 3e-5, just outside its branch-series cutoff. That is t within 0.5% of
# t_star for the fixed sets, and up to about 3% for seeded sets with a
# large m K. Only stalls with e x + 1 below this are the known defect.
LAMBERT_NEAR = 1e-4


def envelope_sim(rng: random.Random, rnd: int, ctx: Context) -> list[Task]:
    tiny = ctx.tiny
    tasks = []  # tasks of 10 ms and more
    quick = []  # sub-millisecond tasks, spread among the others below
    for m in range(1, 3 if tiny else 7):
        n = 55 if tiny else 150 + 20 * (m - 1)

        def check(seq, m=m):
            table = oracles.DERIVATIVE_TABLE[m]
            if list(seq.a[: len(table)]) != table:
                return f"a_0..a_{len(table) - 1} = {list(seq.a[:len(table)])}, expected {table}"
            got, pinned = seq.mhat_float(50), oracles.MHAT50_TABLE[m - 1]
            if f"{got:.5g}" != f"{pinned:.5g}" or abs(got - pinned) > 2e-5 * pinned:
                return f"mhat_50 = {got}, pinned {pinned}"
            return None

        tasks.append(
            Task(
                f"abel_m{m}_n{n}",
                lambda m=m, n=n: F.abel_taylor(m, 1, 1, n),
                check,
                lambda s: " ".join(map(oracles.exact_text, s.a)) + "|"
                + " ".join(map(oracles.exact_text, s.mhat)),
            )
        )
    params = list(ENVELOPE_FIXED[:1] if tiny else ENVELOPE_FIXED)
    for _ in range(1 if tiny else 3):
        params.append((rng.randint(2, 6), rational(rng, 4, 4), rational(rng, 4, 4)))
    batches = 2 if tiny else 6
    for m, K, M in params:
        label = f"m{m}_K{K}_M{M}".replace("/", "_")
        quick.append(
            Task(f"bound_{label}", lambda m=m, K=K, M=M: F.m_inf_bound(K, M, m),
                 lambda b, m=m, K=K, M=M: check_bound(b, m, K, M))
        )
        t_star = oracles.t_star(m, K, M)
        for b in range(batches):
            # Half the batches lie within 1% of t_star, where the lower
            # Lambert branch is hardest to evaluate.
            if b < batches // 2:
                ts = [rng.uniform(0.0, 0.99) * t_star for _ in range(10)]
            else:
                ts = [(1.0 - 0.01 * (1.0 - rng.random())) * t_star for _ in range(10)]
            quick.append(
                Task(
                    f"closed_form_{label}_b{b}",
                    lambda m=m, K=K, M=M, ts=ts: envelope_batch(m, K, M, ts),
                    lambda zs, m=m, K=K, M=M, ts=ts, t_star=t_star: check_envelope_batch(
                        zs, m, K, M, ts, t_star),
                    known=LAMBERT_DEFECT,
                )
            )
    for j in range(1 if tiny else 6):
        net = maximal_net(rng, rng.randint(2, 4), top=2, density=0.7)
        horizon = 1.05 * max(1.0 / float(Fraction(s.M)) for s in net.nodes)
        t_star = oracles.t_star(net.m, max(s.K for s in net.nodes), max(s.M for s in net.nodes))
        tasks.append(
            Task(
                f"escape_{j}",
                lambda net=net, h=horizon: F.simulate_maximal_ode(net, F.Grid(0.0, h, 400)),
                lambda traj, ts=t_star: check_escape(traj, ts),
            )
        )
    for j in range(1 if tiny else 6):
        net, N = halving_net(rng)
        tasks.append(
            Task(
                f"halving_{j}",
                lambda net=net, N=N: (
                    F.validate_io_map(net, 1, net.m, N, F.Grid(0.0, 0.2, 400)),
                    F.validate_io_map(net, 1, net.m, N, F.Grid(0.0, 0.1, 400)),
                ),
                check_halving,
            )
        )
    return interleave(tasks, quick)


def check_bound(b, m, K, M) -> Optional[str]:
    if (K, M) == (1, 1) and abs(b.M_inf - oracles.M_INF_TABLE[m - 1]) >= 5e-5:
        return f"M_inf = {b.M_inf}, pinned {oracles.M_INF_TABLE[m - 1]}"
    if (m, K, M) == (3, 3, 4):
        m_inf, t_star = oracles.THREE_NODE_BOUND
        if abs(b.M_inf - m_inf) >= 1e-4 or abs(b.t_star - t_star) >= 1e-5:
            return f"three-node bound {b.M_inf}, {b.t_star}"
    # The uniform all-ones net realizes the envelope: its ODE must escape at
    # t_star and agree with the closed form before it.
    grid = F.Grid(0.0, 1.2 * b.t_star, 120)
    traj = F.simulate_maximal_ode(all_ones(m, K, M), grid)
    if traj.escape_time is None or abs(traj.escape_time - b.t_star) > 0.02 * b.t_star:
        return f"uniform-net escape {traj.escape_time} vs t_star {b.t_star}"
    for t, y in zip(grid.times, traj.outputs[1]):
        if t <= 0.9 * b.t_star:
            z = F.closed_form_natural_response(m, K, M, float(t))
            if abs(z - y) > 1e-6 * abs(z):
                return f"closed form {z} vs uniform-net ODE {y} at t={t}"
    return None


def envelope_batch(m, K, M, ts) -> list:
    """closed_form_natural_response at each t; NoConvergence is kept as the value."""
    out = []
    for t in ts:
        try:
            out.append(F.closed_form_natural_response(m, K, M, t))
        except F.NoConvergence as exc:
            out.append(exc)
    return out


def check_envelope_batch(zs, m, K, M, ts, t_star) -> Optional[str]:
    stalled = [t for t, z in zip(ts, zs) if isinstance(z, F.NoConvergence)]
    for t, z in zip(ts, zs):
        if isinstance(z, F.NoConvergence):
            continue
        if not (z > 0.0 and z < float("inf")):
            return f"envelope value {z} at t={t!r}"
        back = oracles.envelope_time(m, K, M, z)
        if abs(back - t) > 1e-9 * t_star:
            return f"envelope value {z} is reached at t={back!r}, not t={t!r}"
    # The known defect covers only arguments next to the branch point; a
    # stall farther from it is a new failure.
    far = [t / t_star for t in stalled if oracles.branch_distance(m, K, M, t) >= LAMBERT_NEAR]
    if far:
        return (f"unexpected NoConvergence of lambert_w_lower at t/t_star = {far}, "
                f"where e x + 1 >= {LAMBERT_NEAR}")
    if stalled:
        return f"NoConvergence of lambert_w_lower at t/t_star = {[t / t_star for t in stalled]}"
    return None


def check_escape(traj, t_star) -> Optional[str]:
    if traj.escape_time is None:
        return "no escape detected before the horizon"
    early = {k: v for k, v in traj.per_node_escape.items() if v is not None and v < t_star}
    if traj.escape_time < t_star or early:
        return f"escape {traj.escape_time}, nodes {early} before t_star {t_star}"
    return None


def check_halving(reports) -> Optional[str]:
    wide, narrow = reports
    target = 2.0 ** (wide.degree + 1)
    if wide.expected_halving_factor != target:
        return f"expected_halving_factor {wide.expected_halving_factor} != {target}"
    ratio = wide.max_abs_error / narrow.max_abs_error
    if not 0.8 * target < ratio < 1.2 * target:
        return f"halving ratio {ratio}, expected about {target}"
    return None


# -- cli_cold ------------------------------------------------------------------------------------

RELDEG_DEFECT = ("cli-reldeg-consistency", "consistent: cli True != library None")

# The five-node net of ROADMAP item 5: four_node_net with W21=1/2, W31=1/3,
# W41=1/5, W42=2/3, W43=1 and an isolated fifth node. Its tied predecessors
# cancel, so complete_reldeg reports consistent=None for the pair (1, 4).
FIVE_NODE = {
    "m": 5,
    "W": [
        ["0", "0", "0", "0", "0"],
        ["1/2", "0", "0", "0", "0"],
        ["1/3", "0", "0", "0", "0"],
        ["1/5", "2/3", "1", "0", "0"],
        ["0", "0", "0", "0", "0"],
    ],
    "nodes": [
        {"kind": "poly", "terms": [{"word": [1], "coeff": c}]} for c in ("1", "1", "-1", "1", "1")
    ],
}


@dataclass
class CliOutput:
    code: int
    stdout: str


def run_cli(ctx: Context, argv: list[str], out: Optional[str] = None) -> CliOutput:
    if ctx.inprocess:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = importlib.import_module("fliessnet.cli").run(argv)
        result = CliOutput(code, buf.getvalue())
    else:
        proc = subprocess.run(
            [sys.executable, "-m", "fliessnet.cli", *argv],
            cwd=ctx.root, env=ctx.env, capture_output=True, text=True, timeout=120,
        )
        result = CliOutput(proc.returncode, proc.stdout)
    ctx.output_bytes += len(result.stdout.encode())
    if out is not None:
        ctx.output_bytes += os.path.getsize(out) + os.path.getsize(out + ".meta.json")
    return result


def _json_result(output: CliOutput) -> dict:
    if output.code != 0:
        raise ValueError(f"exit code {output.code}: {output.stdout[:200]}")
    return json.loads(output.stdout)["result"]


def _csv_rows(text: str) -> list[list[str]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.reader(lines))


def _compare(got: dict, want: dict) -> Optional[str]:
    for key in sorted(set(got) | set(want)):
        if got.get(key) != want.get(key):
            return f"{key}: cli {got.get(key)!r} != library {want.get(key)!r}"
    return None


def cli_cold(rng: random.Random, rnd: int, ctx: Context) -> list[Task]:
    work = ctx.work
    work.mkdir(parents=True, exist_ok=True)

    def write(name: str, net) -> tuple[str, object]:
        path = work / f"r{rnd}-{name}.json"
        doc = net if isinstance(net, dict) else F.network_to_json(net)
        path.write_text(json.dumps(doc, sort_keys=True))
        rel = str(path.relative_to(ctx.root))
        return rel, F.network_from_json(json.loads(path.read_text()))

    def sha(rel: str) -> str:
        return hashlib.sha256((ctx.root / rel).read_bytes()).hexdigest()

    tasks = []

    iomap_file, iomap_net = write("iomap", sparse_poly_net(rng, 4))

    def check_iomap(o):
        doc = json.loads(o.stdout) if o.code == 0 else None
        if doc is None:
            return f"exit code {o.code}"
        if doc["meta"]["input_sha256"] != sha(iomap_file):
            return "input_sha256 differs from the file's digest"
        return _compare(doc["result"], F.series_to_json(F.io_map(iomap_net, 1, 4, 6)))

    tasks.append(Task("iomap", lambda: run_cli(
        ctx, ["iomap", "--net", iomap_file, "--from", "1", "--to", "4", "--degree", "6"]),
        check_iomap))

    five_file, five_net = write("five_node", FIVE_NODE)

    def check_reldeg(o):
        got = _json_result(o)
        measured = F.relative_degree(F.io_map(five_net, 1, 4, 6))
        pred = F.predict_io_reldeg(five_net, 1, 4)
        want = {
            "from": 1, "to": 4, "degree": 6, "measured": measured.r,
            "measured_status": measured.status,
            "leading": None if measured.leading is None else F.coeff_str(measured.leading),
            "predicted": pred.r_pred, "condition": pred.condition,
            "consistent": F.complete_reldeg(five_net, 6)[(1, 4)].consistent,
        }
        # Every other field must agree before a 'consistent' mismatch can be
        # the known defect, and only cli True against library None is.
        rest = _compare({k: v for k, v in got.items() if k != "consistent"},
                        {k: v for k, v in want.items() if k != "consistent"})
        return rest or _compare(got, want)

    tasks.append(Task("reldeg", lambda: run_cli(
        ctx, ["reldeg", "--net", five_file, "--from", "1", "--to", "4", "--degree", "6"]),
        check_reldeg, known=RELDEG_DEFECT))

    m, K, M = rng.randint(1, 6), rational(rng, 4, 4), rational(rng, 4, 4)

    def check_bounds(o, m=m, K=K, M=M):
        b = F.m_inf_bound(K, M, m)
        return _compare(_json_result(o), {
            "m": m, "Kbar": F.coeff_str(b.Kbar), "Mbar": F.coeff_str(b.Mbar),
            "M_inf": b.M_inf, "t_star": b.t_star,
        })

    tasks.append(Task("bounds", lambda: run_cli(
        ctx, ["bounds", "--m", str(m), "--K", str(K), "--M", str(M)]), check_bounds))

    am, aK, aM, an = rng.randint(1, 6), rational(rng, 2, 4), rational(rng, 2, 4), 60

    def check_abel(o):
        if o.code != 0:
            return f"exit code {o.code}"
        seq = F.abel_taylor(am, aK, aM, an)
        want = [["n", "a_n", "Mhat_n"]] + [
            [str(k), F.coeff_str(seq.a[k]), F.coeff_str(seq.mhat[k - 1]) if k else ""]
            for k in range(an + 1)
        ]
        rows = _csv_rows(o.stdout)
        return None if rows == want else "abel CSV rows differ from abel_taylor"

    tasks.append(Task("abel", lambda: run_cli(
        ctx, ["abel", "--m", str(am), "--K", str(aK), "--M", str(aM), "--n", str(an)]),
        check_abel))

    sim_file, sim_net = write("maximal", maximal_net(rng, 3, top=2, density=0.7))
    horizon = 1.05 * max(1.0 / float(Fraction(s.M)) for s in sim_net.nodes)
    sim_out = str((work / f"r{rnd}-trajectory.csv").relative_to(ctx.root))

    def check_simulate(o):
        if o.code != 0:
            return f"exit code {o.code}"
        traj = F.simulate_maximal_ode(sim_net, F.Grid(0.0, horizon, 200))
        want = [["t"] + [f"y_{k}" for k in range(1, 4)]] + [
            [repr(float(t))] + [repr(float(traj.outputs[k][i])) for k in range(1, 4)]
            for i, t in enumerate(traj.times)
        ]
        if _csv_rows((ctx.root / sim_out).read_text()) != want:
            return "trajectory CSV differs from simulate_maximal_ode"
        meta = json.loads((ctx.root / (sim_out + ".meta.json")).read_text())["result"]
        return _compare(meta, {
            "method": "ode", "escape_time": traj.escape_time,
            "per_node_escape": {str(k): v for k, v in traj.per_node_escape.items()},
            "threshold": traj.metadata.get("threshold"),
            "integrator": traj.metadata.get("integrator"),
            "status": traj.metadata.get("status"), "iterations": None,
        })

    tasks.append(Task("simulate", lambda: run_cli(
        ctx, ["simulate", "--net", sim_file, "--T", repr(horizon), "--n", "200", "--out", sim_out],
        out=str(ctx.root / sim_out)), check_simulate))

    mc_net = F.sample_network(CRITERION7_PATTERN, criterion7_nodes(), ctx.seed, rnd)
    mc_file, _ = write("pattern", mc_net)
    mc_seed, mc_samples = rng.randrange(2**31), 60 if ctx.tiny else 200

    def check_montecarlo(o):
        got = _json_result(o)
        stats = F.genericity_sample(
            CRITERION7_PATTERN, criterion7_nodes(), mc_samples, mc_seed, 3,
            designated=(1, 4, (0, 0, 1)),
        )
        want = {
            "samples": stats.samples, "seed": stats.seed, "degree": stats.degree,
            "pair_status": {f"{i},{j}": c for (i, j), c in stats.pair_status.items()},
            "pair_r": {f"{i},{j}": {str(r): n for r, n in c.items()}
                       for (i, j), c in stats.pair_r.items()},
            "designated": {"from": 1, "to": 4, "word": "x0 x0 x1"},
            "histogram": [{"left": a, "right": b, "count": c} for a, b, c in stats.histogram],
        }
        return _compare(got, want)

    tasks.append(Task("montecarlo", lambda: run_cli(
        ctx, ["montecarlo", "--net", mc_file, "--samples", str(mc_samples), "--seed",
              str(mc_seed), "--degree", "3", "--from", "1", "--to", "4", "--word", "x0 x0 x1"]),
        check_montecarlo))

    net, N = halving_net(rng)
    val_file, val_net = write("chain", net)

    def check_validate(o):
        rep = F.validate_io_map(val_net, 1, val_net.m, N, F.Grid(0.0, 0.2, 200))
        return _compare(_json_result(o), {
            "from": 1, "to": val_net.m, "degree": rep.degree, "horizon": rep.horizon,
            "grid_points": rep.grid_points, "max_abs_error": rep.max_abs_error,
            "expected_halving_factor": rep.expected_halving_factor,
        })

    tasks.append(Task("validate", lambda: run_cli(
        ctx, ["validate", "--net", val_file, "--from", "1", "--to", str(val_net.m),
              "--degree", str(N), "--T", "0.2", "--n", "200"]),
        check_validate))
    return tasks


WORKLOADS = {
    w.name: w
    for w in (
        Workload("closed_loop_deep", 6.5, closed_loop_deep),
        Workload("reldeg_batch", 1.6, reldeg_batch),
        Workload("envelope_sim", 6.5, envelope_sim),
        Workload("cli_cold", 6.5, cli_cold),
    )
}
