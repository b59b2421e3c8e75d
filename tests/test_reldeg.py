"""Measured relative degrees, sum rules, and structural path predictions."""

from __future__ import annotations

import random
import warnings
from collections import Counter
from fractions import Fraction

import pytest

import fliessnet.network as network
import fliessnet.reldeg as reldeg
from fliessnet import (
    AlphabetError,
    ConditionError,
    DomainError,
    MaximalSeriesSpec,
    NetworkSpec,
    NodeIndexError,
    RelDegReport,
    Series,
    accumulated_degrees,
    closed_loop_series,
    complete_reldeg,
    genericity_sample,
    io_map,
    pair_report,
    predict_io_reldeg,
    relative_degree,
    sample_network,
    subgraph_extract,
    sum_reldeg_predict,
)
from conftest import (
    DD_GAINS,
    criterion7_sample,
    double_diamond_net,
    five_node_net,
    four_node_net,
    ladder_net,
    mixed_net,
    sparse_poly_net,
)
from subgraph_loop_oracle import loop_leads, loop_predict_io_reldeg

X1 = Series(1, 1, {(1,): 1})


def report(r: int, leading=1, truncation: int = 10) -> RelDegReport:
    return RelDegReport("defined", r, leading, truncation)


def maximal_chain() -> NetworkSpec:
    """Three maximal nodes K = M = 1 on the chain 1 -> 2 -> 3, W21 = 1/2, W32 = 1/3."""
    W = [[0, 0, 0], [Fraction(1, 2), 0, 0], [0, Fraction(1, 3), 0]]
    return NetworkSpec(3, W, [MaximalSeriesSpec(1, 1)] * 3)


class TestMeasure:
    def test_defined_with_leading_coefficient(self):
        c = Series(1, 4, {(0, 0, 1): Fraction(5, 3), (0, 0, 0, 1): 2, (0, 0): 7})
        rep = relative_degree(c)
        assert (rep.status, rep.r, rep.leading) == ("defined", 3, Fraction(5, 3))

    def test_candidate_refuted_is_undefined(self):
        # shortest drift prefix is rho = 1 but x0 x1 itself is absent
        c = Series(1, 4, {(0, 1, 1): 1})
        rep = relative_degree(c)
        assert rep.status == "undefined"
        assert rep.r is None

    @pytest.mark.parametrize("terms,want", [
        ({(0, 0, 1): 1, (1, 0, 0, 0): 2}, ("undefined", None, None)),
        ({(0, 0, 1): 1, (1, 0, 0, 0): 2, (1,): 5}, ("defined", 1, 5)),
        ({(0, 1): 3, (1, 1, 0): 1}, ("undefined", None, None)),
    ])
    def test_minimum_runs_over_every_input_word(self, terms, want):
        """rho is the fewest leading x0 over every exact input word, which a
        longer word may hold: x1 x0^3 sets rho = 0 past x0 x0 x1."""
        rep = relative_degree(Series(1, 4, terms))
        assert (rep.status, rep.r, rep.leading) == want

    def test_zero_series_undefined(self):
        rep = relative_degree(Series(1, 5))
        assert rep.status == "undefined"

    def test_inexact_empty_series_undetermined(self):
        """Past degree 2 both series are uncertain, so neither is known to be
        zero; the empty one once read as undefined."""
        for terms in ({}, {(0, 1, 0, 1): 3}):
            rep = relative_degree(Series(1, 5, terms, exact_to=2))
            assert (rep.status, rep.truncation) == ("undetermined_at_truncation", 2)

    def test_natural_only_support_undetermined(self):
        c = Series(1, 4, {(0,): 1, (0, 0, 0): Fraction(1, 2)})
        assert relative_degree(c).status == "undetermined_at_truncation"

    def test_inexact_tail_ignored(self):
        c = Series(1, 6, {(0, 0, 0, 0, 1): 3}, exact_to=2)
        rep = relative_degree(c)
        assert rep.status == "undetermined_at_truncation"
        assert rep.truncation == 2

    def test_multi_letter_alphabet_rejected(self):
        with pytest.raises(AlphabetError):
            relative_degree(Series(2, 2, {(1, 2): 1}))

    def test_require_defined_raises(self):
        with pytest.raises(ConditionError):
            relative_degree(Series(1, 3)).require_defined()


class TestSumRule:
    def test_unique_minimum_wins(self):
        rep = sum_reldeg_predict([report(2, 5), report(3, -9)])
        assert (rep.status, rep.r, rep.leading) == ("defined", 2, 5)

    def test_tied_minimum_cancels(self):
        rep = sum_reldeg_predict([report(2, 1), report(2, -1), report(4, 3)])
        assert rep.status == "undefined"

    def test_tied_minimum_survives(self):
        rep = sum_reldeg_predict([report(2, 1), report(2, 3), report(5, 7)])
        assert (rep.status, rep.r, rep.leading) == ("defined", 2, 4)

    def test_undetermined_dominates(self):
        undet = RelDegReport("undetermined_at_truncation", None, None, 3)
        rep = sum_reldeg_predict([report(2), undet])
        assert rep.status == "undetermined_at_truncation"
        assert rep.truncation == 3

    def test_undefined_member_makes_the_sum_undefined(self):
        undefined = RelDegReport("undefined", None, None, 4)
        rep = sum_reldeg_predict([report(2, 5), undefined])
        assert (rep.status, rep.r, rep.leading, rep.truncation) == ("undefined", None, None, 4)

    def test_empty_family_rejected(self):
        with pytest.raises(ConditionError):
            sum_reldeg_predict([])


def brute_min_path_weight(sub, degrees, target):
    """Minimum total node weight over simple paths source -> target."""
    succ: dict[int, list[int]] = {v: [] for v in sub.nodes}
    for u, v in sub.edges:
        succ[u].append(v)
    best = None

    def walk(u, seen, total):
        nonlocal best
        if u == target:
            best = total if best is None else min(best, total)
            return
        for v in succ[u]:
            if v not in seen:
                walk(v, seen | {v}, total + degrees[v])

    walk(sub.source, {sub.source}, degrees[sub.source])
    return best


class TestAccumulated:
    def test_chain_by_hand(self):
        net = NetworkSpec(3, [[0, 0, 0], [1, 0, 0], [0, 1, 0]], [X1] * 3)
        sub = subgraph_extract(net, 1, 3)
        acc = accumulated_degrees(sub, {1: 2, 2: 1, 3: 3})
        assert acc.r_plus == {1: 2, 2: 3, 3: 6}
        assert acc.incoming == {2: ((1, 2),), 3: ((2, 3),)}

    def test_matches_path_enumeration(self, rng: random.Random):
        for _ in range(25):
            n = rng.randint(3, 7)
            W = [[0] * n for _ in range(n)]
            for u in range(1, n):
                for v in range(u + 1, n + 1):
                    if rng.random() < 0.5:
                        W[v - 1][u - 1] = 1
            net = NetworkSpec(n, W, [X1] * n)
            sub = subgraph_extract(net, 1, n)
            if sub.is_empty():
                continue
            degrees = {v: rng.randint(1, 4) for v in sub.nodes}
            acc = accumulated_degrees(sub, degrees)
            for v in sub.nodes:
                assert acc.r_plus[v] == brute_min_path_weight(sub, degrees, v), (v, sub)

    def test_empty_subgraph_rejected(self):
        net = NetworkSpec(2, [[0, 0], [0, 0]], [X1] * 2)
        sub = subgraph_extract(net, 1, 2)
        with pytest.raises(ConditionError):
            accumulated_degrees(sub, {1: 1, 2: 1})


class TestPredict:
    def test_self_pair_uses_node_degree(self):
        net = four_node_net(1, 1, 1, 1)
        pred = predict_io_reldeg(net, 2, 2)
        assert pred.r_pred == 1
        assert pred.condition == "distinct"
        assert pred.details["self_pair"] is True

    def test_no_forward_path(self):
        net = four_node_net(1, 1, 1, 1)
        pred = predict_io_reldeg(net, 4, 1)
        assert pred.r_pred is None
        assert pred.condition == "violated_unknown"
        assert pred.details["no_forward_path"] is True

    def test_fully_connected_sink(self):
        net = four_node_net(
            Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(1, 5), w41=Fraction(1, 7)
        )
        pred = predict_io_reldeg(net, 1, 4)
        assert pred.condition == "fully_connected"
        assert pred.r_pred == 2
        measured = relative_degree(io_map(net, 1, 4, 4))
        assert measured.r == 2

    def test_fully_connected_sink_searches_no_path(self, monkeypatch):
        """Every node of a complete net lies on a simple path into the sink;
        enumerating those paths once took about 10x longer per node, 1.3 s at
        11 nodes."""
        def refuse(*args):
            raise AssertionError("predict_io_reldeg enumerated forward paths")

        monkeypatch.setattr(reldeg, "subgraph_extract", refuse)
        pred = predict_io_reldeg(NetworkSpec(12, [[1] * 12] * 12, [X1] * 12), 1, 12)
        assert (pred.r_pred, pred.condition) == (2, "fully_connected")
        assert pred.node_degrees == {k: 1 for k in range(1, 13)}

    def test_repeated_sum_nonzero(self):
        net = four_node_net(Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1, 5))
        pred = predict_io_reldeg(net, 1, 4)
        assert pred.condition == "repeated_sum_nonzero"
        assert pred.r_pred == 3
        (key, value), = pred.details["repeated_sums"].items()
        assert key == "node 4 at degree 2"
        assert value == Fraction(3, 4) * Fraction(1, 2) - Fraction(1, 5) * Fraction(2, 3)

    def test_cancelling_sum_flags_unknown(self):
        net = four_node_net(1, 1, Fraction(1, 2), Fraction(1, 2))
        pred = predict_io_reldeg(net, 1, 4)
        assert pred.condition == "violated_unknown"
        assert relative_degree(io_map(net, 1, 4, 6)).status == "undefined"

    def test_double_diamond_distinct(self):
        net = double_diamond_net()
        pred = predict_io_reldeg(net, 1, 7)
        assert pred.r_pred == 7
        assert pred.condition == "distinct"
        assert pred.node_degrees == {1: 1, 2: 3, 3: 2, 4: 2, 5: 3, 6: 1, 7: 1}
        assert pred.details["incoming"] == {
            2: ((1, 1),),
            3: ((1, 1),),
            4: ((2, 4), (3, 3)),
            5: ((2, 4), (4, 5)),
            6: ((4, 5),),
            7: ((5, 7), (6, 6)),
        }

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_maximal_chain_degrees_add_along_the_path(self, j):
        """Every maximal node has relative degree 1 (leading K M), so node j
        of the chain 1 -> 2 -> 3 is predicted r = j, and measured so."""
        pred = predict_io_reldeg(maximal_chain(), 1, j)
        assert (pred.r_pred, pred.condition) == (j, "distinct")
        assert pred.node_degrees == {k: 1 for k in range(1, j + 1)}
        assert complete_reldeg(maximal_chain(), 6)[(1, j)].consistent is True

    def test_double_diamond_measurement_agrees(self):
        net = double_diamond_net()
        d71 = io_map(net, 1, 7, 7)
        rep = relative_degree(d71)
        K1, _, K3, K4, _, K6, K7 = DD_GAINS
        assert rep.r == 7
        assert rep.leading == K1 * K3 * K4 * K6 * K7


class TestComplete:
    def test_four_node_table(self):
        net = four_node_net(Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1, 5))
        table = complete_reldeg(net, 4)
        assert table[(1, 4)].measured.r == 3
        assert table[(1, 4)].consistent is True
        assert table[(4, 1)].consistent is None
        assert table[(1, 1)].measured.r == 1
        ok = [p for p in table.values() if p.consistent is True]
        assert len(ok) >= 7

    def test_over_budget_pair_is_reported_not_raised(self, monkeypatch):
        """Pairs whose forward-path candidates exceed the node budget keep
        their measurement and carry the budget error as prediction_error."""
        monkeypatch.setattr(network, "NODE_BUDGET", 3)
        table = complete_reldeg(ladder_net(6), 4)
        over = table[(1, 4)]
        assert over.measured.r == 3
        assert over.predicted is None and over.consistent is None
        assert over.prediction_error == "4 candidate nodes exceed the budget of 3"
        assert table[(1, 3)].consistent is True


class TestPairVerdict:
    """pair_report's verdict on a measurement that is not `defined`, against
    the double diamond's (1, 7) prediction r = 7 (`distinct`)."""

    def verdict(self, status: str, truncation: int):
        measured = RelDegReport(status, None, None, truncation)
        report = pair_report(double_diamond_net(), 1, 7, measured)
        assert report.predicted.r_pred == 7
        assert report.predicted.condition == "distinct"
        return report.consistent

    def test_undetermined_below_the_prediction_contradicts_nothing(self):
        assert self.verdict("undetermined_at_truncation", 6) is None

    @pytest.mark.parametrize("truncation", [7, 9])
    def test_undetermined_at_or_past_the_prediction_is_inconsistent(self, truncation):
        assert self.verdict("undetermined_at_truncation", truncation) is False

    def test_undefined_against_a_defined_prediction_is_inconsistent(self):
        assert self.verdict("undefined", 9) is False


class TestGenericity:
    PATTERN = [[0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 1, 0]]
    NODES = [X1, X1, Series(1, 1, {(1,): -1}), X1]

    def test_sample_network_deterministic(self):
        a = sample_network(self.PATTERN, self.NODES, 7, 3)
        b = sample_network(self.PATTERN, self.NODES, 7, 3)
        c = sample_network(self.PATTERN, self.NODES, 7, 4)
        assert a.W == b.W
        assert a.W != c.W
        drawn = [w for row in a.W for w in row if w != 0]
        assert len(drawn) == 4
        assert all(0 < w <= 1 for w in drawn)

    @pytest.mark.parametrize("entry", [2, 0.5, "a", True])
    def test_sample_network_rejects_pattern_entries_other_than_0_and_1(self, entry):
        pattern = [row[:] for row in self.PATTERN]
        pattern[1][0] = entry
        with pytest.raises(DomainError, match="0/1 matrix"):
            sample_network(pattern, self.NODES, 7, 3)

    def test_designated_pair_defined(self):
        stats = genericity_sample(
            self.PATTERN, self.NODES, 20, seed=99, degree=3, designated=(1, 4, (0, 0, 1))
        )
        assert stats.pair_status[(1, 4)] == {"defined": 20}
        assert stats.pair_r[(1, 4)] == {3: 20}
        assert len(stats.values) == 20
        assert all(v > 0 for v in stats.values)
        assert sum(count for _, _, count in stats.histogram) == 20

    @pytest.mark.parametrize("field", ["samples", "bins"])
    def test_nonpositive_samples_or_bins_fail_up_front(self, field, monkeypatch):
        """Checked before any sample runs, so no sample is ever drawn."""
        drawn = []
        monkeypatch.setattr(reldeg, "sample_network", lambda *a: drawn.append(a))
        kwargs = dict(samples=4, seed=1, degree=3, bins=4)
        kwargs[field] = 0
        with pytest.raises(DomainError, match=f"{field} must be an integer >= 1"):
            genericity_sample(self.PATTERN, self.NODES, **kwargs)
        assert drawn == []

    @pytest.mark.parametrize("field,value", [
        ("samples", True), ("samples", 2.0), ("bins", 2.5), ("bins", True), ("bins", "4"),
    ])
    def test_samples_and_bins_must_be_ints(self, field, value, monkeypatch):
        """samples=True once ran one sample and bins=2.5 failed in numpy's
        histogram; both are rejected before any sample is drawn."""
        drawn = []
        monkeypatch.setattr(reldeg, "sample_network", lambda *a: drawn.append(a))
        kwargs = dict(samples=4, seed=1, degree=3, bins=4)
        kwargs[field] = value
        with pytest.raises(DomainError, match=f"{field} must be"):
            genericity_sample(self.PATTERN, self.NODES, **kwargs)
        assert drawn == []

    @pytest.mark.parametrize("seed", [-1, True, 2.0, "7", None])
    def test_seed_must_be_a_nonnegative_int(self, seed):
        """numpy's seed sequence once raised its own ValueError on -1 and
        read True as 1."""
        with pytest.raises(DomainError, match="seed must be"):
            sample_network(self.PATTERN, self.NODES, seed, 0)
        with pytest.raises(DomainError, match="seed must be"):
            genericity_sample(self.PATTERN, self.NODES, 2, seed=seed, degree=3)

    @pytest.mark.parametrize("designated,error", [
        ((9, 1, (1,)), NodeIndexError),
        ((0, 4, (0, 0, 1)), NodeIndexError),
        ((1, 9, (1,)), NodeIndexError),
        ((1, 4, (0, 5)), AlphabetError),
        ((1, 4, (0, 0, 0, 1)), DomainError),
    ])
    def test_designated_coefficient_is_checked_up_front(self, designated, error, monkeypatch):
        """Nodes outside 1..m, letters outside {x0, x1} and words longer than
        the degree are rejected before any sample is drawn, not read as an
        empty histogram, a KeyError or a histogram of zeros that no loop
        computed."""
        drawn = []
        monkeypatch.setattr(reldeg, "sample_network", lambda *a: drawn.append(a))
        with pytest.raises(error):
            genericity_sample(self.PATTERN, self.NODES, 4, seed=1, degree=3, designated=designated)
        assert drawn == []

    @pytest.mark.parametrize("designated", [
        (1, 4), (1,), (), (1, 4, 5), (1, 4, None), (1, 4, (1,), 0), 7,
    ], ids=["pair", "single", "empty", "word 5", "word None", "quadruple", "int"])
    def test_designated_must_be_a_triple(self, designated, monkeypatch):
        """(1, 4) and (1,) once raised IndexError and (1, 4, 5) TypeError."""
        drawn = []
        monkeypatch.setattr(reldeg, "sample_network", lambda *a: drawn.append(a))
        with pytest.raises(DomainError, match=r"designated must be a \(from, to, word\) triple"):
            genericity_sample(self.PATTERN, self.NODES, 4, seed=1, degree=3, designated=designated)
        assert drawn == []

    @pytest.mark.parametrize("jobs", ["3", -5, 0, True, 2.0, None])
    def test_jobs_must_be_a_positive_int(self, jobs, monkeypatch):
        """jobs="3" once raised TypeError, and -5 and True ran one sample at a time."""
        drawn = []
        monkeypatch.setattr(reldeg, "sample_network", lambda *a: drawn.append(a))
        with pytest.raises(DomainError, match="jobs must be an integer >= 1"):
            genericity_sample(self.PATTERN, self.NODES, 4, seed=1, degree=3, jobs=jobs)
        assert drawn == []


# -- tied groups read off the subgraph, against the restricted loop ---------------------


def polynomial_ladder(L: int) -> NetworkSpec:
    """Node 1, two disjoint paths of L - 1 nodes each, node 2L; weights 1/2 and
    every node x0^4 x1 - (2/3) x0^4 x1 x1 + x0^4 x1 x0 x1 (r = 5), so node 2L
    sees one tie at degree 5 L."""
    node = Series(1, 7, {(0,) * 4 + (1,): 1, (0,) * 4 + (1, 1): Fraction(-2, 3),
                         (0,) * 4 + (1, 0, 1): 1})
    n = 2 * L
    W = [[0] * n for _ in range(n)]
    for path in (range(2, L + 1), range(L + 1, n)):
        for u, v in zip([1, *path], [*path, n]):
            W[v - 1][u - 1] = Fraction(1, 2)
    return NetworkSpec(n, W, [node] * n)


def sparse_maximal_net(seed: int, n: int) -> NetworkSpec:
    """n maximal nodes with seeded (K, M) on a sparse seeded graph, self-loops included."""
    r = random.Random(seed)
    specs = [MaximalSeriesSpec(Fraction(r.randint(1, 9), 4), Fraction(r.randint(1, 9), 5))
             for _ in range(n)]
    W = [[Fraction(r.randint(1, 7), 8) if r.random() < 0.4 else 0 for _ in range(n)]
         for _ in range(n)]
    return NetworkSpec(n, W, specs)


def signed_poly_net(seed: int, n: int) -> NetworkSpec:
    """Signed polynomial nodes with words of several x1, drift and constant
    terms, on a seeded graph with self-loops and weights up to 4."""
    r = random.Random(seed)
    nodes = []
    for _ in range(n):
        rd = r.randint(1, 2)
        lead = (0,) * (rd - 1) + (1,)
        terms = {lead: Fraction(r.choice([-3, -2, -1, 1, 2, 3]), r.randint(1, 4))}
        pool = [(), (0,) * rd, lead + (1,), lead + (0, 1), (0,) + lead + (1,), (1,) + lead]
        for word in r.sample(pool, 3):
            terms[word] = Fraction(r.choice([-2, -1, 1, 3]), r.randint(1, 3))
        nodes.append(Series(1, max(map(len, terms)), terms))
    W = [[Fraction(r.randint(1, 16), 4) if r.random() < (0.2 if k == l else 0.4) else 0
          for l in range(n)] for k in range(n)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return NetworkSpec(n, W, nodes)


def cancelling_net() -> NetworkSpec:
    """Two tied paths into node 4 whose leading terms cancel, then node 5."""
    base = four_node_net(1, 1, Fraction(1, 2), Fraction(1, 2))
    W = [list(row) + [0] for row in base.W] + [[0, 0, 0, 1, 0]]
    return NetworkSpec(5, W, list(base.nodes) + [X1])


# 1/3 + x0 x1 + 3 x1 x1: the word x1 x1 puts rho at 0, and x1 has no coefficient.
UNDEFINED = Series(1, 2, {(): Fraction(1, 3), (0, 1): 1, (1, 1): 3})
X0X1 = Series(1, 3, {(0, 1): 2, (0, 1, 1): -1})  # r = 2


def dense_net(seed: int, n: int) -> NetworkSpec:
    """n nodes drawn from x1, X0X1, a maximal spec and UNDEFINED, with seeded
    weights 0, 1/2, 2/3 or 1, three in four nonzero."""
    r = random.Random(seed)
    pool = [X1, X0X1, MaximalSeriesSpec(1, Fraction(1, 2)), UNDEFINED]
    W = [[r.choice([0, Fraction(1, 2), Fraction(2, 3), 1]) for _ in range(n)] for _ in range(n)]
    return NetworkSpec(n, W, [r.choice(pool) for _ in range(n)])


def complete_net() -> NetworkSpec:
    """Five nodes, x1, X0X1 and a maximal spec in turn, with every edge and self-loop."""
    nodes = [X1, X0X1, MaximalSeriesSpec(2, Fraction(1, 3))]
    W = [[Fraction(k + l, 10) for l in range(1, 6)] for k in range(1, 6)]
    return NetworkSpec(5, W, [nodes[k % 3] for k in range(5)])


def behind_the_sink_net() -> NetworkSpec:
    """Sink 3 receives both other nodes; node 2, of undefined relative degree,
    is reached from node 1 only through node 3."""
    return NetworkSpec(3, [[0, 0, 0], [0, 0, 1], [1, 1, 0]], [X1, UNDEFINED, X1])


ORACLE_NETS = (
    [sparse_poly_net(seed, 4 + seed % 3) for seed in range(60)]
    + [double_diamond_net(tuple(Fraction(r.randint(1, 20), 7) for _ in range(7)))
       for r in map(random.Random, range(6))]
    + [sparse_maximal_net(seed, 4 + seed % 2) for seed in range(20)]
    + [criterion7_sample(index) for index in range(10)]
    + [signed_poly_net(seed, 4 + seed % 2) for seed in range(40)]
    + [cancelling_net(), five_node_net(), polynomial_ladder(2), mixed_net()]
    + [dense_net(seed, 3 + seed % 3) for seed in range(20)]
    + [complete_net(), behind_the_sink_net()]
)


def outcome(predict, net, i, j):
    try:
        return predict(net, i, j)
    except ConditionError as exc:
        return str(exc)


class TestSubgraphLeads:
    def test_predictions_match_the_restricted_loop(self):
        conditions = Counter()
        for net in ORACLE_NETS:
            for i in range(1, net.m + 1):
                for j in range(1, net.m + 1):
                    got = outcome(predict_io_reldeg, net, i, j)
                    assert got == outcome(loop_predict_io_reldeg, net, i, j), (i, j)
                    conditions[getattr(got, "condition", "error")] += 1
        assert set(conditions) == {"distinct", "fully_connected", "repeated_sum_nonzero",
                                   "violated_unknown", "error"}

    def test_every_lead_matches_the_restricted_loop(self):
        compared = zeros = 0
        for net in ORACLE_NETS:
            for i in range(1, net.m + 1):
                for j in range(1, net.m + 1):
                    sub = subgraph_extract(net, i, j)
                    if i == j or sub.is_empty():
                        continue
                    try:
                        reports = {v: reldeg.node_degree_report(net, v).require_defined()
                                   for v in sub.nodes}
                    except ConditionError:
                        continue
                    degrees = {v: r for v, (r, _) in reports.items()}
                    leads = {v: lead for v, (_, lead) in reports.items()}
                    acc = accumulated_degrees(sub, degrees)
                    got = reldeg._subgraph_leads(net, acc, degrees, leads)
                    assert got == loop_leads(net, i, j), (i, j)
                    compared += len(got)
                    zeros += sum(value == 0 for value in got.values())
        assert compared > 3000 and zeros > 0

    def test_prediction_runs_no_closed_loop(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("predict_io_reldeg ran a closed loop")

        for name in ("compose_at", "compose_maximal"):
            monkeypatch.setattr(network, name, refuse)
        for net, i, j in [(polynomial_ladder(6), 1, 12), (cancelling_net(), 1, 5),
                          (four_node_net(Fraction(1, 2), Fraction(2, 3), 1, 1), 1, 4)]:
            assert predict_io_reldeg(net, i, j).details["repeated_sums"]

    @pytest.mark.parametrize("L,r,value", [(6, 35, Fraction(1, 32)), (12, 65, Fraction(1, 2048))])
    def test_polynomial_ladder_gets_a_prediction(self, L, r, value):
        """The tie at node 2L needs degree 5 L, past what the restricted loop
        can hold under TERM_CAP at L = 6."""
        measured = RelDegReport("undetermined_at_truncation", None, None, 4)
        rep = pair_report(polynomial_ladder(L), 1, 2 * L, measured)
        assert rep.prediction_error is None
        assert (rep.predicted.r_pred, rep.predicted.condition) == (r, "repeated_sum_nonzero")
        assert rep.predicted.details["repeated_sums"] == {f"node {2 * L} at degree {5 * L}": value}
