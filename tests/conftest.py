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


def all_ones_maximal(m: int, K=1, M=1):
    from fliessnet import MaximalSeriesSpec, NetworkSpec

    spec = MaximalSeriesSpec(K, M)
    W = [[1] * m for _ in range(m)]
    return NetworkSpec(m, W, [spec] * m)
