"""Closed-loop series of interconnected nodes and the forward-path subgraph."""

from __future__ import annotations

import json
import math
import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fliessnet.network as network
from fliessnet import (
    DomainError,
    Grid,
    MaximalSeriesSpec,
    NetworkSpec,
    NodeIndexError,
    ParseError,
    Series,
    SubgraphBudgetError,
    abel_taylor,
    check_growth,
    closed_loop_series,
    complete_reldeg,
    io_map,
    m_inf_bound,
    natural_response,
    network_from_json,
    network_to_json,
    pair_report,
    predict_io_reldeg,
    relative_degree,
    series_from_json,
    series_to_json,
    simulate_maximal_ode,
    simulate_picard,
    subgraph_extract,
)
from fliessnet.cli import run
from conftest import (
    all_ones_maximal,
    assert_fixed_point,
    double_diamond_net,
    four_node_net,
    mixed_net,
    sparse_poly_net,
)
from scc_oracle import tarjan_components
from subgraph_loop_oracle import restrict_to_subgraph
from subgraph_path_oracle import recursive_subgraph_extract
from test_graded_core import assert_same, flat_closed_loop
from test_sim import seeded_escape_case


def integrator_chain(weights):
    """Chain 1 -> 2 -> ... -> n of pure integrators with the given edge weights."""
    n = len(weights) + 1
    x1 = Series(1, 1, {(1,): 1})
    W = [[0] * n for _ in range(n)]
    for idx, w in enumerate(weights):
        W[idx + 1][idx] = w
    return NetworkSpec(n, W, [x1] * n)


class TestSpecValidation:
    def test_accepts_signed_weights(self):
        """A signed net is accepted and round-trips through JSON, and -3/2
        draws the warning that 3/2 draws."""
        x1 = Series(1, 1, {(1,): 1})
        W = [[Fraction(-1, 2), 0], [-1, Fraction(2, 7)]]
        net = NetworkSpec(2, W, [x1, MaximalSeriesSpec(Fraction(3, 2), 2)])
        back = network_from_json(network_to_json(net))
        assert (back.W, back.nodes) == (W, net.nodes)
        messages = []
        for w in (Fraction(3, 2), Fraction(-3, 2)):
            with pytest.warns(UserWarning, match="weight above 1") as caught:
                NetworkSpec(2, [[0, 0], [w, 0]], [x1, x1])
            messages.append([str(c.message) for c in caught])
        assert messages[0] == messages[1] and len(messages[0]) == 1

    def test_warns_on_weight_above_one(self):
        x1 = Series(1, 1, {(1,): 1})
        with pytest.warns(UserWarning):
            NetworkSpec(2, [[0, 0], [2, 0]], [x1, x1])

    def test_rejects_shape_mismatch(self):
        x1 = Series(1, 1, {(1,): 1})
        with pytest.raises(DomainError):
            NetworkSpec(2, [[0, 0]], [x1, x1])

    def test_rejects_multi_letter_node(self):
        bad = Series(2, 1, {(2,): 1})
        x1 = Series(1, 1, {(1,): 1})
        with pytest.raises(DomainError):
            NetworkSpec(2, [[0, 0], [1, 0]], [x1, bad])

    def test_node_index_bounds(self):
        net = integrator_chain([1])
        with pytest.raises(NodeIndexError):
            net.weight(0, 1)
        with pytest.raises(NodeIndexError):
            io_map(net, 1, 3, 2)
        # True and 1.0 equal node 1 but are not indices; the self-pair
        # prediction once read them as node 1.
        measured = relative_degree(io_map(net, 1, 1, 2))
        for bad in (True, 1.0):
            for i, j in ((1, bad), (bad, 1)):
                with pytest.raises(NodeIndexError):
                    io_map(net, i, j, 2)
                with pytest.raises(NodeIndexError):
                    predict_io_reldeg(net, i, j)
                with pytest.raises(NodeIndexError):
                    pair_report(net, i, j, measured)


class TestClosedLoop:
    def test_two_node_chain(self):
        net = integrator_chain([Fraction(1, 3)])
        d = closed_loop_series(net, 1, 4)
        assert dict(d[1].terms) == {(1,): 1}
        assert dict(d[2].terms) == {(0, 1): Fraction(1, 3)}
        assert d[2].exact_to == 4

    def test_chain_composes_weights(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            net = integrator_chain([2, Fraction(1, 2), 3])
            d = io_map(net, 1, 4, 6)
        assert dict(d.terms) == {(0, 0, 0, 1): 3}

    def test_self_loop_integrator(self):
        # y' = v + k y gives coefficients k^n on x0^n x1
        k = Fraction(2, 5)
        x1 = Series(1, 1, {(1,): 1})
        net = NetworkSpec(1, [[k]], [x1])
        d = io_map(net, 1, 1, 6)
        assert dict(d.terms) == {(0,) * n + (1,): k**n for n in range(6)}

    def test_stabilization_check_passes(self):
        net = four_node_net(1, Fraction(1, 2), Fraction(1, 3), 1)
        d = closed_loop_series(net, 1, 5)
        assert_fixed_point(net, 1, d)
        assert d[4].exact_to == 5

    def test_four_node_difference_of_products(self):
        w21, w31, w42, w43 = (
            Fraction(1, 2),
            Fraction(2, 3),
            Fraction(3, 4),
            Fraction(1, 5),
        )
        net = four_node_net(w21, w31, w42, w43)
        d41 = io_map(net, 1, 4, 3)
        assert dict(d41.terms) == {(0, 0, 1): w42 * w21 - w43 * w31}

    def test_degenerate_four_node_vanishes(self):
        net = four_node_net(1, 1, Fraction(1, 2), Fraction(1, 2))
        d41 = io_map(net, 1, 4, 6)
        assert d41.is_zero()
        assert d41.exact_to == 6

    def test_truncated_node_keeps_its_exact_to(self):
        # Exact only through degree 2, so not a polynomial: no closed loop
        # may certify more than the node itself does.
        node = Series(1, 4, {(1,): 1, (0, 1): 1, (1, 1, 1, 1): 5}, exact_to=2)
        net = NetworkSpec(1, [[0]], [node])
        for degree in range(3, 7):
            assert io_map(net, 1, 1, degree).exact_to <= 2, degree

    def test_node_series_is_expanded_once_per_loop(self, monkeypatch):
        calls = []
        expand = NetworkSpec.node_series

        def counted(net, k, degree):
            calls.append(k)
            return expand(net, k, degree)

        monkeypatch.setattr(NetworkSpec, "node_series", counted)
        net = double_diamond_net()
        d = closed_loop_series(net, 1, 8)
        assert sorted(calls) == list(range(1, 8))
        assert_fixed_point(net, 1, d)
        # A maximal node is composed from its constants, never expanded.
        calls.clear()
        closed_loop_series(all_ones_maximal(2), 1, 6)
        assert calls == []

    def test_maximal_net_node_symmetry(self):
        net = all_ones_maximal(3)
        d = closed_loop_series(net, 1, 4)
        assert d[2] == d[3]

    def test_natural_response_matches_envelope_recursion(self):
        for m in (1, 2, 3):
            net = all_ones_maximal(m)
            assert natural_response(net, 1, 6) == list(abel_taylor(m, 1, 1, 6).a)

    def test_natural_response_input_independent(self):
        net = double_diamond_net()
        d1 = closed_loop_series(net, 1, 4)[5]
        d3 = closed_loop_series(net, 3, 4)[5]
        drift = [(0,) * k for k in range(5)]
        assert [d1.coeff(w) for w in drift] == [d3.coeff(w) for w in drift]

    @pytest.mark.parametrize("entry", [
        lambda net, n: closed_loop_series(net, 1, n),
        lambda net, n: io_map(net, 1, 1, n),
        lambda net, n: natural_response(net, 1, n),
    ], ids=["closed_loop_series", "io_map", "natural_response"])
    @pytest.mark.parametrize("degree,message", [
        (True, "must be an integer"),
        (False, "must be an integer"),
        (2.0, "must be an integer"),
        ("3", "must be an integer"),
        (None, "must be an integer"),
        (-1, "must be an integer >= 0"),
    ])
    def test_degree_must_be_a_nonnegative_int(self, entry, degree, message):
        """A bool once ran as degree 1 or 0, and a float, string or None
        failed with a bare TypeError from range or <."""
        with pytest.raises(DomainError, match=message):
            entry(all_ones_maximal(1), degree)


def truncated_node_net() -> NetworkSpec:
    """One node exact only through degree 2, on a self-loop."""
    node = Series(1, 4, {(): 1, (1,): 1, (0, 1): 1, (1, 1, 1, 1): 5}, exact_to=2)
    return NetworkSpec(1, [[Fraction(1, 3)]], [node])


def headless_net() -> NetworkSpec:
    """A maximal node 1 without in-edges driving a polynomial node 2."""
    node = Series(1, 2, {(): Fraction(1, 2), (1,): 1, (0, 1): Fraction(-2, 3)})
    return NetworkSpec(2, [[0, 0], [1, Fraction(1, 4)]], [MaximalSeriesSpec(2, 3), node])


class TestNaturalResponse:
    """natural_response runs the closed loop with no input channel. Its
    oracle is the forced loop: every d_ki has the drift coefficients of the
    zero-input response, whichever node i carries the input."""

    @pytest.mark.parametrize(
        "make, degree",
        [(double_diamond_net, 6), (mixed_net, 6), (truncated_node_net, 6), (headless_net, 7)],
        ids=["double_diamond", "mixed", "truncated_node", "headless"],
    )
    def test_equals_the_drift_of_every_forced_loop(self, make, degree):
        net = make()
        drift = [(0,) * k for k in range(degree + 1)]
        natural = {j: natural_response(net, j, degree) for j in range(1, net.m + 1)}
        for i in range(1, net.m + 1):
            forced = closed_loop_series(net, i, degree)
            for j, a in natural.items():
                expected = [(type(c), c) for c in map(forced[j].coeff, drift)]
                assert [(type(c), c) for c in a] == expected, (i, j)

    def test_node_index_is_checked(self):
        net = mixed_net()
        for j in (0, net.m + 1):
            with pytest.raises(NodeIndexError):
                natural_response(net, j, 3)

    @pytest.mark.parametrize("m, degree", [(1, 60), (2, 60), (3, 60), (4, 40)])
    def test_all_ones_at_depth_meets_the_envelope_and_its_bound(self, m, degree):
        a = natural_response(all_ones_maximal(m), 1, degree)
        assert a == list(abel_taylor(m, 1, 1, degree).a)
        drift = Series(1, degree, {(0,) * k: c for k, c in enumerate(a)})
        assert check_growth(drift, 1, m_inf_bound(1, 1, m).M_inf).passed

    def test_all_ones_m3_at_degree_120_meets_the_envelope(self):
        """Deep enough that rebuilding every feedback grade at every degree
        would dominate the loop; each degree now adds one grade."""
        assert natural_response(all_ones_maximal(3), 1, 120) == list(abel_taylor(3, 1, 1, 120).a)


def test_forced_all_ones_at_depth_meets_the_envelope_and_its_bound():
    """The forced all-ones m=1 loop at degree 15, whose node series hold
    all 65,535 words: its drift coefficients are the envelope's, and every
    degree meets the growth bound. The dense shuffle kernel settles it in
    under a second on a 2-core host, well within the 15 s budget; on the
    word-pair kernel alone its memo reached the term cap at degree 14."""
    degree = 15
    start = time.perf_counter()
    d = closed_loop_series(all_ones_maximal(1), 1, degree)[1]
    assert time.perf_counter() - start < 15
    assert len(d) == 2 ** (degree + 1) - 1
    assert [d.coeff((0,) * k) for k in range(degree + 1)] == list(abel_taylor(1, 1, 1, degree).a)
    assert check_growth(d, 1, m_inf_bound(1, 1, 1).M_inf).passed


def plan_test_nets():
    """Seeded 0/1 nets, m = 1..12: random ones with cycles and self-loops,
    chains numbered against the edges, and complete graphs."""
    r = random.Random(33)
    for m in range(1, 13):
        for _ in range(6):
            density = r.uniform(0.05, 0.6)
            yield [[int(r.random() < density) for _ in range(m)] for _ in range(m)]
        yield [[int(l == k + 1) for l in range(m)] for k in range(m)]
        yield [[1] * m for _ in range(m)]


@pytest.mark.parametrize("W", plan_test_nets())
def test_components_match_tarjan_and_run_sources_first(W):
    """_plan reads the components that Tarjan's search found, and every
    weighted edge runs within a component or into a later one."""
    m = len(W)
    net = NetworkSpec(m, W, [Series(1, 1, {(1,): 1})] * m)
    order, _, _, _ = network._plan(net, 1)
    assert sorted(order) == sorted(tarjan_components(net))
    position = {k: p for p, comp in enumerate(order) for k in comp}
    for k in range(1, m + 1):
        for l in range(1, m + 1):
            if W[k - 1][l - 1]:
                assert position[l] <= position[k]


class TestSubgraph:
    def test_single_node_pair(self):
        net = integrator_chain([1])
        sub = subgraph_extract(net, 2, 2)
        assert sub.nodes == frozenset({2})
        assert sub.edges == frozenset()

    def test_no_path_is_empty(self):
        net = integrator_chain([1, 1])
        sub = subgraph_extract(net, 3, 1)
        assert sub.is_empty()

    def test_chain_subgraph(self):
        net = integrator_chain([1, 1, 1])
        sub = subgraph_extract(net, 1, 3)
        assert sub.nodes == frozenset({1, 2, 3})
        assert sub.edges == frozenset({(1, 2), (2, 3)})

    def test_return_edge_excluded(self):
        net = double_diamond_net()
        sub = subgraph_extract(net, 1, 7)
        assert (7, 4) not in sub.edges
        assert sub.nodes == frozenset(range(1, 8))
        assert sub.edges == frozenset(
            {(1, 2), (1, 3), (2, 4), (3, 4), (2, 5), (4, 5), (4, 6), (5, 7), (6, 7)}
        )

    def test_self_loop_excluded(self):
        x1 = Series(1, 1, {(1,): 1})
        net = NetworkSpec(3, [[0, 0, 0], [1, 1, 0], [0, 1, 0]], [x1] * 3)
        sub = subgraph_extract(net, 1, 3)
        assert sub.edges == frozenset({(1, 2), (2, 3)})

    def test_budget_enforced(self, monkeypatch):
        monkeypatch.setattr(network, "NODE_BUDGET", 3)
        net = double_diamond_net()
        with pytest.raises(SubgraphBudgetError):
            subgraph_extract(net, 1, 7)

    @pytest.mark.parametrize("seed", range(12))
    def test_stack_search_matches_the_recursive_one(self, monkeypatch, seed):
        """On seeded nets with cycles and self-loops, and on each with its
        nodes numbered in reverse, every pair has the subgraph of the
        recursive search, and a candidate set over the budget raises in both."""
        r = random.Random(seed)
        m = r.randint(2, 9)
        density = r.uniform(0.2, 0.7)
        W = [[int(r.random() < density) for _ in range(m)] for _ in range(m)]
        monkeypatch.setattr(network, "NODE_BUDGET", 8)
        for W in (W, [row[::-1] for row in W[::-1]]):
            net = NetworkSpec(m, W, [Series(1, 1, {(1,): 1})] * m)
            for i in range(1, m + 1):
                for j in range(1, m + 1):
                    try:
                        want = recursive_subgraph_extract(net, i, j)
                    except SubgraphBudgetError:
                        with pytest.raises(SubgraphBudgetError):
                            subgraph_extract(net, i, j)
                    else:
                        assert subgraph_extract(net, i, j) == want

    def test_restriction_zeroes_off_path_weights(self):
        net = double_diamond_net()
        sub = subgraph_extract(net, 1, 7)
        cut = restrict_to_subgraph(net, sub)
        assert cut.weight(4, 7) == 0
        assert cut.weight(4, 2) == 1
        assert cut.nodes == net.nodes


class TestJson:
    def test_roundtrip_polynomial(self):
        net = four_node_net(Fraction(1, 2), 1, Fraction(2, 7), Fraction(3, 5))
        doc = network_to_json(net)
        back = network_from_json(doc)
        assert back.W == net.W
        # reserialization is the identity; container degrees may differ
        assert network_to_json(back) == doc
        for mine, theirs in zip(net.nodes, back.nodes):
            assert dict(mine.terms) == dict(theirs.terms)

    def test_inexact_poly_node_is_refused(self):
        """A network file's poly node reads back as a polynomial, so a node
        exact only to 1 once gave io_map(..., 4) exact to 4."""
        net = NetworkSpec(1, [[0]], [Series(1, 3, {(1,): 1, (0, 1, 1): 2}, exact_to=1)])
        with pytest.raises(DomainError, match="exact only through degree 1 of 3"):
            network_to_json(net)

    def test_inexact_io_map_round_trips(self):
        net = NetworkSpec(1, [[0]], [Series(1, 3, {(1,): 1, (0, 1, 1): 2}, exact_to=1)])
        d = io_map(net, 1, 1, 4)
        assert d.exact_to == 1
        assert series_from_json(series_to_json(d)).exact_to == 1

    def test_roundtrip_maximal(self):
        net = all_ones_maximal(2, K=Fraction(3, 2), M=2)
        doc = network_to_json(net)
        assert doc["nodes"][0] == {"kind": "maximal", "K": "3/2", "M": "2"}
        back = network_from_json(doc)
        assert back.nodes[0] == MaximalSeriesSpec(Fraction(3, 2), 2)

    @pytest.mark.parametrize("change", [
        {"m": 1.9}, {"m": True}, {"m": "1"}, {"W": [None]}, {"W": [3]}, {"W": "1"},
        {"nodes": {"kind": "poly"}},
        {"nodes": [{"kind": "poly", "terms": [{"word": [1.9], "coeff": "1"}]}]},
        {"nodes": [{"kind": "poly", "terms": [{"word": [True], "coeff": "1"}]}]},
        {"nodes": [{"kind": "poly", "terms": [{"word": "01", "coeff": "1"}]}]},
    ], ids=repr)
    def test_malformed_fields_are_rejected_not_coerced(self, change):
        doc = {"m": 1, "W": [["1"]], "nodes": [{"kind": "poly",
                                                "terms": [{"word": [0, 1], "coeff": "1"}]}]}
        assert network_from_json(doc).nodes[0] == Series(1, 2, {(0, 1): 1})
        with pytest.raises(ParseError):
            network_from_json({**doc, **change})


# -- signed weights ------------------------------------------------------------------------


def signed_maximal_net(seed: int) -> NetworkSpec:
    """2-4 maximal nodes with weights +-k/11, so that feedback can cancel."""
    r = random.Random(seed)
    m = r.randint(2, 4)
    specs = [MaximalSeriesSpec(Fraction(r.randint(1, 9), 5), Fraction(r.randint(1, 9), 7))
             for _ in range(m)]
    W = [[Fraction(r.randint(-10, 10), 11) for _ in range(m)] for _ in range(m)]
    return NetworkSpec(m, W, specs)


def signed_poly_net(seed: int) -> NetworkSpec:
    """sparse_poly_net(seed, 5) with the sign of each weight drawn at random."""
    net = sparse_poly_net(seed, 5)
    r = random.Random(f"{seed} signs")
    return NetworkSpec(5, [[w * r.choice((-1, 1)) for w in row] for row in net.W], net.nodes)


def majorant(net: NetworkSpec) -> NetworkSpec:
    """The same nodes with every coefficient replaced by its magnitude, and |W|."""
    nodes = [src if isinstance(src, MaximalSeriesSpec) else
             Series(1, src.max_degree, {w: abs(c) for w, c in src.items()}, exact_to=src.exact_to)
             for src in net.nodes]
    return NetworkSpec(net.m, [[abs(w) for w in row] for row in net.W], nodes)


SIGNED_NETS = [(signed_maximal_net, 6), (signed_poly_net, 6)]


class TestSignedWeights:
    """Weights of either sign run through the exact loop, the majorant bound
    (each coefficient of a closed loop is a sum of products of node
    coefficients and weights with nonnegative integer multiplicities), the
    structural prediction and the ODE route unchanged."""

    @pytest.mark.parametrize("make,degree", SIGNED_NETS, ids=["maximal", "poly"])
    @given(st.integers(0, 10**6))
    @settings(max_examples=12, deadline=None)
    def test_closed_loop_is_the_flat_oracle_under_the_majorant(self, make, degree, seed):
        net = make(seed)
        i = seed % net.m + 1
        got = closed_loop_series(net, i, degree)
        want = flat_closed_loop(net, i, degree)
        bound = closed_loop_series(majorant(net), i, degree)
        assert sorted(got) == sorted(want)
        for k in want:
            assert_same(got[k], want[k])
            assert all(abs(c) <= bound[k].coeff(w) for w, c in got[k].items()), k

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_dominated_signed_nets_stay_under_the_all_ones_envelope(self, seed):
        """Criterion 8(iv)'s domination with weights of either sign: nodes
        dominated by the (1, 1) maximal series and |W| <= 1."""
        r = random.Random(seed)
        degree = 5
        envelope = closed_loop_series(all_ones_maximal(3), 1, degree)

        def unit() -> Fraction:
            q = r.randint(2, 12)
            return Fraction(r.randint(1, q), q)

        nodes = []
        for _ in range(3):
            if r.random() < 0.5:
                nodes.append(MaximalSeriesSpec(unit(), unit()))
            else:
                base = MaximalSeriesSpec(1, 1).expand(1, degree)
                nodes.append(Series(1, degree, {w: c * r.choice((-1, 1)) * unit()
                                                for w, c in base.items() if r.random() < 0.8}))
        W = [[unit() * r.choice((-1, 1)) if r.random() < 0.7 else 0 for _ in range(3)]
             for _ in range(3)]
        net = NetworkSpec(3, W, nodes)
        i, j = r.randint(1, 3), r.randint(1, 3)
        dbar = envelope[1] if i == j else envelope[2]
        for w, c in closed_loop_series(net, i, degree)[j].items():
            assert abs(c) <= dbar.coeff(w), (i, j, w)

    @given(st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_no_defined_measurement_contradicts_its_prediction(self, seed):
        net = signed_poly_net(seed)
        for pair, report in complete_reldeg(net, 5).items():
            if report.measured.status == "defined":
                assert report.consistent is not False, pair

    @pytest.mark.parametrize("seed", range(20))
    def test_step_response_is_the_ode(self, seed):
        """v_1 = 1 drives y_k = sum_n (sum of d_k1's grade-n coefficients)
        t^n / n!, since every word of length n integrates 1 to t^n / n!. The
        ODE's rtol of 1e-9 sets the floor of the difference at degree 10."""
        net = seeded_escape_case(seed, signed=True)[0]
        grid = Grid(0.0, 0.05 / max(float(s.M) for s in net.nodes), 20)
        ode = simulate_maximal_ode(net, grid, {1: np.ones(grid.n + 1)})
        for k, d in closed_loop_series(net, 1, 10).items():
            sums = [0] * 11
            for w, c in d.items():
                sums[len(w)] += c
            step = sum(float(g) * grid.times**n / math.factorial(n) for n, g in enumerate(sums))
            assert np.all(np.abs(step - ode.outputs[k]) <= 1e-6 * np.abs(ode.outputs[k])), k

    @pytest.mark.parametrize("make", [
        lambda: four_node_net(Fraction(-2, 3), Fraction(1, 5), Fraction(3, 7), Fraction(-4, 9)),
        lambda: signed_maximal_net(5),
    ], ids=["poly", "maximal"])
    def test_cli_on_a_signed_net_file_is_the_library(self, make, tmp_path, capsys):
        net = make()
        path, out = tmp_path / "signed.json", tmp_path / "y.csv"
        path.write_text(json.dumps(network_to_json(net)))
        pair = ["--net", str(path), "--from", "1", "--to", str(net.m), "--degree", "5"]
        assert run(["iomap", *pair]) == 0
        d = io_map(net, 1, net.m, 5)
        assert json.loads(capsys.readouterr().out)["result"] == series_to_json(d)
        assert run(["reldeg", *pair]) == 0
        res = json.loads(capsys.readouterr().out)["result"]
        report = pair_report(net, 1, net.m, relative_degree(d))
        assert (res["measured_status"], res["measured"], res["consistent"]) == (
            report.measured.status, report.measured.r, report.consistent)
        assert run(["simulate", "--net", str(path), "--T", "0.2", "--n", "10",
                    "--out", str(out)]) == 0
        grid = Grid(0.0, 0.2, 10)
        traj = (simulate_maximal_ode(net, grid) if net.all_maximal()
                else simulate_picard(net, grid))
        rows = [line.split(",") for line in out.read_text().splitlines()[5:]]
        assert rows == [[repr(float(t))] + [repr(float(traj.outputs[k][idx]))
                                             for k in range(1, net.m + 1)]
                        for idx, t in enumerate(traj.times)]
