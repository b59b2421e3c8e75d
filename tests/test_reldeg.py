"""Measured relative degrees, sum rules, and structural path predictions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import fliessnet.network as network
import fliessnet.reldeg as reldeg
from fliessnet import (
    AlphabetError,
    ConditionError,
    DomainError,
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
from conftest import DD_GAINS, double_diamond_net, four_node_net, ladder_net

X1 = Series(1, 1, {(1,): 1})


def report(r: int, leading=1, truncation: int = 10) -> RelDegReport:
    return RelDegReport("defined", r, leading, truncation)


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

    def test_zero_series_undefined(self):
        rep = relative_degree(Series.zero(1, 5))
        assert rep.status == "undefined"

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
            relative_degree(Series.zero(1, 3)).require_defined()


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
        with pytest.raises(DomainError, match=f"{field} must be >= 1"):
            genericity_sample(self.PATTERN, self.NODES, **kwargs)
        assert drawn == []

    @pytest.mark.parametrize("designated,error", [
        ((9, 1, (1,)), NodeIndexError),
        ((0, 4, (0, 0, 1)), NodeIndexError),
        ((1, 9, (1,)), NodeIndexError),
        ((1, 4, (0, 5)), AlphabetError),
    ])
    def test_designated_coefficient_is_checked_up_front(self, designated, error, monkeypatch):
        """Nodes outside 1..m and letters outside {x0, x1} are rejected before
        any sample is drawn, not read as an empty histogram or a KeyError."""
        drawn = []
        monkeypatch.setattr(reldeg, "sample_network", lambda *a: drawn.append(a))
        with pytest.raises(error):
            genericity_sample(self.PATTERN, self.NODES, 4, seed=1, degree=3, designated=designated)
        assert drawn == []

    def test_jobs_do_not_change_results(self):
        kwargs = dict(samples=12, seed=424242, degree=3, designated=(1, 4, (0, 0, 1)))
        serial = genericity_sample(self.PATTERN, self.NODES, **kwargs)
        parallel = genericity_sample(self.PATTERN, self.NODES, jobs=3, **kwargs)
        assert serial.values == parallel.values
        assert serial.pair_status == parallel.pair_status
        assert serial.histogram == parallel.histogram
