"""Shared fixtures and the acceptance-summary reporting hook."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from fliessnet import Series

ACCEPTANCE_CRITERIA = {
    1: "envelope derivatives a_n match the printed integer table exactly, m = 1..6",
    2: "M_inf to 4 decimals and Mhat_50 to 5 significant figures, m = 1..6",
    3: "three-node bound: M_inf, t_star, and every detected escape >= t_star",
    4: "all-ones m=3 escape within 2% of 0.1379 with identical node trajectories",
    5: "four-node closed form (W42 W21 - W43 W31) x0^2 x1 and degenerate undefined",
    6: "double-diamond printed coefficients, measured and predicted r = 7, distinct",
    7: "1000-sample Monte Carlo: all r = 3 and coefficient histogram matches |AB-CD|",
    8: "property suites: algebra, cascade, sums, domination, envelope, convergence",
}


def make_random_series(
    rng: random.Random,
    m: int = 1,
    degree: int = 4,
    max_terms: int = 6,
    proper: bool = False,
) -> Series:
    """Random sparse series with small rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        length = rng.randint(1 if proper else 0, degree)
        word = tuple(rng.randint(0, m) for _ in range(length))
        num = rng.choice([-3, -2, -1, 1, 2, 3, 5])
        den = rng.choice([1, 1, 2, 3, 4])
        terms[word] = terms.get(word, 0) + Fraction(num, den)
    return Series(m, degree, terms)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xF11E55)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes: dict[int, bool] = {}
    for status, passed in (("passed", True), ("failed", False), ("error", False)):
        for report in terminalreporter.stats.get(status, []):
            node = getattr(report, "nodeid", "")
            match = re.search(r"test_criterion_(\d+)", node)
            if match:
                num = int(match.group(1))
                outcomes[num] = outcomes.get(num, True) and passed
    if not outcomes:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance summary")
    for num in sorted(outcomes):
        verdict = "PASS" if outcomes[num] else "FAIL"
        terminalreporter.write_line(
            f"  criterion {num}: {verdict} - {ACCEPTANCE_CRITERIA[num]}"
        )


def four_node_net(w21, w31, w42, w43, w41=0):
    """Two parallel length-2 paths 1->4, the lower one through a sign flip."""
    from fliessnet import NetworkSpec

    x1 = Series(1, 3, {(1,): 1})
    neg = Series(1, 3, {(1,): -1})
    W = [
        [0, 0, 0, 0],
        [w21, 0, 0, 0],
        [w31, 0, 0, 0],
        [w41, w42, w43, 0],
    ]
    return NetworkSpec(4, W, [x1, x1, neg, x1])


def five_node_net():
    """four_node_net with W21=1/2, W31=1/3, W41=1/5, W42=2/3, W43=1, plus an
    isolated fifth node. The tied predecessors of node 4 cancel, so the
    prediction for (1, 4) carries the violated_unknown certificate."""
    from fliessnet import NetworkSpec

    base = four_node_net(Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), 1, Fraction(1, 5))
    W = [list(row) + [0] for row in base.W] + [[0] * 5]
    return NetworkSpec(5, W, list(base.nodes) + [base.nodes[0]])


DD_GAINS = (
    Fraction(3, 2),
    Fraction(5, 7),
    Fraction(2, 3),
    Fraction(7, 4),
    Fraction(1, 3),
    Fraction(9, 5),
    Fraction(4, 7),
)


def double_diamond_net(K=DD_GAINS):
    """Seven-node double diamond with a return edge from node 7 into node 4."""
    from fliessnet import NetworkSpec

    K1, K2, K3, K4, K5, K6, K7 = K

    def S(terms):
        return Series(1, max(len(w) for w in terms), terms)

    nodes = [
        S({(1,): K1, (0, 1): 2}),
        S({(0,): 1, (0, 0, 1): K2}),
        S({(0, 1): K3, (0, 0, 1, 1): 3}),
        S({(): 1, (0, 1): K4, (0, 0, 1, 0): -1}),
        S({(0,): 4, (0, 0, 1): K5, (0, 0, 0, 0, 1): -2}),
        S({(1,): K6, (1, 1): -1}),
        S({(0,): 1, (): 2, (1,): K7, (0, 1): 4}),
    ]
    edges = [(1, 2), (1, 3), (2, 4), (3, 4), (2, 5), (4, 5), (4, 6), (5, 7), (6, 7), (7, 4)]
    W = [[0] * 7 for _ in range(7)]
    for l, k in edges:
        W[k - 1][l - 1] = 1
    return NetworkSpec(7, W, nodes)


def ladder_net(n: int):
    """n nodes x1 with the edges k -> k+1 and k -> k+2: every node between
    1 and n lies on a forward path from 1 to n."""
    from fliessnet import NetworkSpec

    W = [[0] * n for _ in range(n)]
    for k in range(1, n):
        W[k][k - 1] = 1
        if k >= 2:
            W[k][k - 2] = 1
    return NetworkSpec(n, W, [Series(1, 1, {(1,): 1})] * n)


def criterion7_sample(index: int) -> NetworkSpec:
    """A criterion-7 Monte Carlo network: float weights, power-of-two denominators."""
    from fliessnet import sample_network

    pattern = [[0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 1, 0]]
    x1 = Series(1, 1, {(1,): 1})
    return sample_network(pattern, [x1, x1, Series(1, 1, {(1,): -1}), x1], 7, index)


def sparse_poly_net(seed: int, n: int) -> NetworkSpec:
    """n polynomial nodes of relative degree 1 or 2 with signed rational
    coefficients on a sparse seeded graph, drawn until the net has a
    self-loop and a node without in-edges."""
    from fliessnet import NetworkSpec

    r = random.Random(seed)

    def rational(top: int, q_max: int) -> Fraction:
        q = r.randint(2, q_max)
        return Fraction(r.randint(1, top * q), q)

    def signed() -> Fraction:
        return rational(2, 5) * r.choice((-1, 1))

    while True:
        nodes = []
        for _ in range(n):
            rd = r.randint(1, 2)
            lead = (0,) * (rd - 1) + (1,)
            terms = {lead: signed()}
            for _ in range(r.randint(0, 2)):
                word = r.choice([(), (0,) * rd, lead + (1,), (0,) + lead])
                terms[word] = terms.get(word, 0) + signed()
            nodes.append(Series(1, max(map(len, terms)), terms))
        W = [[rational(1, 9) if r.random() < (0.1 if k == l else 0.35) else 0
              for l in range(n)] for k in range(n)]
        if any(W[k][k] for k in range(n)) and any(not any(row) for row in W):
            return NetworkSpec(n, W, nodes)


def all_ones_maximal(m: int, K=1, M=1):
    from fliessnet import MaximalSeriesSpec, NetworkSpec

    spec = MaximalSeriesSpec(K, M)
    W = [[1] * m for _ in range(m)]
    return NetworkSpec(m, W, [spec] * m)


def mixed_net():
    """Two maximal and two polynomial nodes, one of them certified exact
    only through degree 2, a self-loop and a node with no incoming edge."""
    from fliessnet import MaximalSeriesSpec, NetworkSpec

    nodes = [
        MaximalSeriesSpec(1, Fraction(1, 2)),
        Series(1, 3, {(1,): 2, (0, 1): Fraction(-1, 3), (1, 0, 1): 1}),
        Series(1, 4, {(): 1, (0, 1): 3, (1, 1, 0, 1): Fraction(5, 2)}, exact_to=2),
        MaximalSeriesSpec(Fraction(2, 3), 1),
    ]
    W = [
        [0, 0, Fraction(1, 2), 0],
        [1, 0, 0, Fraction(1, 3)],
        [0, Fraction(2, 5), Fraction(1, 7), 0],
        [0, 0, 0, 0],
    ]
    return NetworkSpec(4, W, nodes)


def assert_fixed_point(net, i: int, d: dict) -> None:
    """d solves d_k = c_k o (sum_l W[k][l] d_l) through its truncation: each
    node, recomposed with fresh state from the linear combination of the
    loop's own d_l, equals d_k, exact_to included."""
    from fliessnet import MaximalSeriesSpec, compose_at, compose_maximal, linear_combine

    for k, src in enumerate(net.nodes, start=1):
        n = d[k].max_degree
        pairs = [(w, d[l]) for l, w in enumerate(net.W[k - 1], start=1) if w != 0]
        feedback = linear_combine(pairs) if pairs else Series.zero(1, n)
        if isinstance(src, MaximalSeriesSpec):
            again = compose_maximal(src, feedback, n, k == i)
        else:
            again = compose_at(net.node_series(k, n), feedback, n, k == i)
        assert (again, again.exact_to) == (d[k], d[k].exact_to), k
