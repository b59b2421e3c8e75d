"""Additive networks of single-input systems and their closed-loop series.

A network couples m nodes, each a generating series over {x0, x1}, through
u_k = v_k + sum_l W[k][l] y_l: entry W[k][l] weights the edge from node l
into node k. The closed-loop series d_ki generates the map v_i -> y_k with
all other external inputs held at zero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Union

from . import words
from .compose import ComposeLayers, compose_at, compose_maximal
from .errors import (
    DomainError,
    NodeIndexError,
    ParseError,
    SubgraphBudgetError,
)
from .series import (
    Coeff,
    MaximalSeriesSpec,
    Series,
    _check_int,
    _combine,
    _json_field,
    as_coeff,
    coeff_str,
    linear_combine,  # unused here; bench/spans.py wraps it and tests pin the binding
    series_from_json,
    series_to_json,
)

NodeSource = Union[Series, MaximalSeriesSpec]


@dataclass
class NetworkSpec:
    """m nodes, an m-by-m weight matrix, and one series source per node.

    Weights are exact rationals; negative weights are rejected and weights
    above 1 draw a warning (the convergence bounds assume [0, 1]).
    """

    m: int
    W: list[list[Coeff]]
    nodes: list[NodeSource] = field(default_factory=list)

    def __post_init__(self):
        _check_int(self.m, "node count m", 1)
        if len(self.W) != self.m or any(len(row) != self.m for row in self.W):
            raise DomainError(f"weight matrix must be {self.m}x{self.m}")
        if len(self.nodes) != self.m:
            raise DomainError(f"expected {self.m} node series, got {len(self.nodes)}")
        self.W = [[as_coeff(w) for w in row] for row in self.W]
        for row in self.W:
            for w in row:
                if w < 0:
                    raise DomainError("negative interconnection weights are not supported")
                if w > 1:
                    warnings.warn(
                        "interconnection weight above 1; growth bounds assume [0, 1]",
                        stacklevel=2,
                    )
        for node in self.nodes:
            if isinstance(node, Series):
                if node.m != 1:
                    raise DomainError("node series must use the alphabet {x0, x1}")
            elif not isinstance(node, MaximalSeriesSpec):
                raise DomainError(f"unsupported node source {type(node).__name__}")

    # Node indices are 1-based throughout the public surface.

    def check_node(self, k: int) -> None:
        if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= self.m:
            raise NodeIndexError(f"node index {k} outside 1..{self.m}")

    def weight(self, k: int, l: int) -> Coeff:
        """Weight on the edge from node l into node k."""
        self.check_node(k)
        self.check_node(l)
        return self.W[k - 1][l - 1]

    def node(self, k: int) -> NodeSource:
        self.check_node(k)
        return self.nodes[k - 1]

    def node_series(self, k: int, degree: int) -> Series:
        """Node k expanded to the requested truncation degree.

        An explicit node series exact through its own truncation is a
        polynomial, hence exact at every degree; any other keeps its exact_to.
        """
        src = self.node(k)
        if isinstance(src, MaximalSeriesSpec):
            return src.expand(1, degree)
        if src.max_degree > degree:
            return src.truncate(degree)
        polynomial = src.exact_to >= src.max_degree
        return src.extended(degree, exact_to=degree if polynomial else None)

    def all_maximal(self) -> bool:
        return all(isinstance(n, MaximalSeriesSpec) for n in self.nodes)

    def all_polynomial(self) -> bool:
        return all(isinstance(n, Series) for n in self.nodes)


# Terms a closed loop may hold, in its series, their intermediates and the
# word lists of the shuffle memo, before it refuses to settle another degree.
# A maximal node carries 2^(n+1) - 1 terms at degree n and its state M Z half
# as many; slices that take the dense kernel leave the memo empty, sparse ones
# (the double diamond's) keep most of their words there. The dense kernel's
# working arrays for the degree being settled are not counted. The count is
# checked after each node's composition, so a loop overshoots the cap by at
# most one node's newest degree. On a 2-core host, degree-30 requests stop at
# degree 20 on all-ones m=1 (24 s, 1.8 GB peak), 19 on m=2 and m=3
# (1.1-1.2 GB), 26 on the double diamond (3.0 s, 762 MiB).
TERM_CAP = 2_000_000

# Candidate nodes a forward-path subgraph may span before subgraph_extract
# refuses to enumerate its simple paths, whose count grows combinatorially.
NODE_BUDGET = 24


def closed_loop_series(net: NetworkSpec, i: int, degree: int) -> dict[int, Series]:
    """All closed-loop series d_ki for the single external input v_i.

    The map is the fixed point of d_k = c_k o (sum_l W[k][l] d_l), with the
    mixed product at k = i carrying the direct channel. Substitution prepends
    at least one letter, so degree n of every d_k depends on the feedback
    only through degree n - 1: the loop settles n = 0, ..., degree in turn,
    each node from the feedback of the series settled below n. Each node
    series is expanded once and each node keeps its composition state
    between degrees, so each step computes only degree n. The feedback
    starts as one zero series; once every node has settled degree n, the
    feedback of each node with in-edges gains grade n, the weighted sum of
    its sources' grade n, and keeps the grades below n. Nodes with the same
    in-edges share one feedback. All nodes share
    one word-pair shuffle memo, which the loop empties when it returns or
    raises; the loop raises DomainError after the node composition that
    takes it over TERM_CAP terms and memo words.
    """
    net.check_node(i)
    return _closed_loop(net, i, degree)


def _closed_loop(net: NetworkSpec, i: Optional[int], degree: int) -> dict[int, Series]:
    """closed_loop_series from input node i, or with no input channel if i is None."""
    _check_int(degree, "truncation degree", 0)
    memo = words._shuffle_cache
    nodes = range(1, net.m + 1)
    layers = {k: ComposeLayers(memo) for k in nodes}
    # Each node's composition route: its left operand built once, mixed at node i.
    routes = {
        k: partial(compose_maximal, src, mixed=k == i, layers=layers[k])
        if isinstance(src, MaximalSeriesSpec)
        else partial(compose_at, net.node_series(k, degree), mixed=k == i, layers=layers[k])
        for k, src in zip(nodes, net.nodes)
    }
    # Each node's in-edges as (weight numerator, weight denominator, source node).
    inputs = {k: tuple((w.numerator, w.denominator, l) for l, w in zip(nodes, net.W[k - 1]) if w)
              for k in nodes}
    # One feedback per distinct in-edge list, shared by the nodes that have it. It
    # starts as a zero exact to any degree, which a node with no in-edges keeps.
    feedback = dict.fromkeys(inputs.values(), Series.zero(1, degree))
    d = {}
    try:
        for n in range(degree + 1):
            # Every node has settled degree n - 1, the one grade each feedback gains.
            for edges, old in feedback.items():
                if n and edges:
                    grade = _combine([(p, q, d[l]._grades[n - 1]) for p, q, l in edges
                                      if n - 1 in d[l]._grades])
                    grades = old._grades if grade is None else {**old._grades, n - 1: grade}
                    exact_to = min(d[l].exact_to for _, _, l in edges)
                    feedback[edges] = Series._graded(1, n - 1, grades, exact_to)
            for k in nodes:
                d[k] = routes[k](feedback[inputs[k]], n)
                held = sum(layer.terms for layer in layers.values())
                held += sum(map(len, memo.values()))
                if held > TERM_CAP:
                    raise DomainError(
                        f"closed loop holds {held} terms and memo words at degree {n}, over "
                        f"the cap of {TERM_CAP}; request a lower degree than {degree}"
                    )
    finally:
        memo.clear()
    return d


def io_map(net: NetworkSpec, i: int, j: int, degree: int) -> Series:
    """Generating series of v_i -> y_j, exact through the truncation degree."""
    net.check_node(j)
    return closed_loop_series(net, i, degree)[j]


def natural_response(net: NetworkSpec, j: int, degree: int) -> list[Coeff]:
    """Zero-input output derivatives a_k = <d_j, x0^k> at node j, read off the
    closed loop with no input channel, whose series hold only drift words."""
    net.check_node(j)
    d = _closed_loop(net, None, degree)[j]
    return [d.coeff((0,) * k) for k in range(degree + 1)]


@dataclass(frozen=True)
class Subgraph:
    """Nodes and edges lying on at least one simple forward path source -> sink."""

    source: int
    sink: int
    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]

    def is_empty(self) -> bool:
        return not self.nodes


def subgraph_extract(net: NetworkSpec, i: int, j: int) -> Subgraph:
    """Forward-path subgraph G_ji by exhaustive simple-path enumeration.

    Self-loops never lie on a simple path and are dropped up front. A
    candidate set (reachable from i, co-reachable to j) larger than
    NODE_BUDGET, read at call time, raises SubgraphBudgetError before
    enumeration.
    """
    net.check_node(i)
    net.check_node(j)
    if i == j:
        return Subgraph(i, j, frozenset({i}), frozenset())
    succ: dict[int, list[int]] = {k: [] for k in range(1, net.m + 1)}
    pred: dict[int, list[int]] = {k: [] for k in range(1, net.m + 1)}
    for k, row in enumerate(net.W, 1):
        for l, w in enumerate(row, 1):
            if k != l and w != 0:
                succ[l].append(k)
                pred[k].append(l)

    def closure(start: int, neighbors: dict[int, list[int]]) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            for nxt in neighbors[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    candidates = closure(i, succ) & closure(j, pred)
    if i not in candidates or j not in candidates:
        return Subgraph(i, j, frozenset(), frozenset())
    if len(candidates) > NODE_BUDGET:
        raise SubgraphBudgetError(
            f"{len(candidates)} candidate nodes exceed the budget of {NODE_BUDGET}"
        )

    on_nodes: set[int] = set()
    on_edges: set[tuple[int, int]] = set()
    path: list[int] = [i]
    visited = {i}

    def dfs(u: int) -> None:
        if u == j:
            on_nodes.update(path)
            on_edges.update(zip(path, path[1:]))
            return
        for nxt in succ[u]:
            if nxt in candidates and nxt not in visited:
                visited.add(nxt)
                path.append(nxt)
                dfs(nxt)
                path.pop()
                visited.remove(nxt)

    dfs(i)
    return Subgraph(i, j, frozenset(on_nodes), frozenset(on_edges))


def restrict_to_subgraph(net: NetworkSpec, sub: Subgraph) -> NetworkSpec:
    """Copy of the network with every weight off the subgraph edges zeroed."""
    W = [
        [
            net.W[k][l] if (l + 1, k + 1) in sub.edges else 0
            for l in range(net.m)
        ]
        for k in range(net.m)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return NetworkSpec(net.m, W, list(net.nodes))


# -- JSON ------------------------------------------------------------------------


def _node_to_json(node: NodeSource) -> dict:
    if isinstance(node, MaximalSeriesSpec):
        return {"kind": "maximal", "K": coeff_str(node.K), "M": coeff_str(node.M)}
    return {"kind": "poly", "terms": series_to_json(node)["terms"]}


def _node_from_json(doc: dict) -> NodeSource:
    try:
        kind = doc["kind"]
    except (KeyError, TypeError) as exc:
        raise ParseError("node entry missing 'kind'") from exc
    if kind == "maximal":
        try:
            return MaximalSeriesSpec(as_coeff(doc["K"]), as_coeff(doc["M"]))
        except KeyError as exc:
            raise ParseError("maximal node needs K and M") from exc
    if kind == "poly":
        entries = _json_field(doc.get("terms", []), list, "node terms")
        degree = 0
        for entry in entries:
            try:
                degree = max(degree, len(entry["word"]))
            except (KeyError, TypeError) as exc:
                raise ParseError(f"malformed node term {entry!r}") from exc
        return series_from_json({"m": 1, "degree": degree, "terms": entries})
    raise ParseError(f"unknown node kind {kind!r}")


def network_to_json(net: NetworkSpec) -> dict:
    return {
        "m": net.m,
        "W": [[coeff_str(w) for w in row] for row in net.W],
        "nodes": [_node_to_json(node) for node in net.nodes],
    }


def network_from_json(doc: dict) -> NetworkSpec:
    try:
        m, W, nodes = doc["m"], doc["W"], doc["nodes"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed network document: {exc}") from exc
    W = [_json_field(row, list, "network W row") for row in _json_field(W, list, "network W")]
    nodes = [_node_from_json(n) for n in _json_field(nodes, list, "network nodes")]
    return NetworkSpec(_json_field(m, int, "network m"), W, nodes)
