"""Additive networks of single-input systems and their closed-loop series.

A network couples m nodes, each a generating series over {x0, x1}, through
u_k = v_k + sum_l W[k][l] y_l: entry W[k][l] weights the edge from node l
into node k. The closed-loop series d_ki generates the map v_i -> y_k with
all other external inputs held at zero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Union

from . import words
from .compose import ComposeLayers, _Held, _skeleton, compose_at, compose_maximal
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

    Weights are exact rationals of either sign. A weight above 1 in magnitude
    warns: the growth bounds assume |W| <= 1, and hold for a signed net through
    its majorant (the same nodes with |coefficients|, and |W|).
    """

    m: int
    W: list[list[Coeff]]
    nodes: list[NodeSource]

    def __post_init__(self):
        _check_int(self.m, "node count m", 1)
        if len(self.W) != self.m or any(len(row) != self.m for row in self.W):
            raise DomainError(f"weight matrix must be {self.m}x{self.m}")
        if len(self.nodes) != self.m:
            raise DomainError(f"expected {self.m} node series, got {len(self.nodes)}")
        self.W = [[as_coeff(w) for w in row] for row in self.W]
        if any(not -1 <= w <= 1 for row in self.W for w in row):
            warnings.warn("interconnection weight above 1 in magnitude; "
                          "growth bounds assume |W| <= 1", stacklevel=2)
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
# working arrays for the degree being settled are not counted. Every
# composition of the loop checks the count after each degree it settles (a
# node outside every cycle settles all its degrees in one composition), so a
# loop overshoots the cap by at most one node's newest degree. When one call
# settles the loops of several inputs, the part they share is counted in each
# input's loop. On a 2-core host, degree-30 requests stop at degree 20 on
# all-ones m=1 (24 s, 1.8 GB peak), 19 on m=2 and m=3 (1.1-1.2 GB), 26 on the
# double diamond (3.0 s, 762 MiB).
TERM_CAP = 2_000_000

# Candidate nodes a forward-path subgraph may span before subgraph_extract
# refuses to enumerate its simple paths, whose count grows combinatorially.
NODE_BUDGET = 24


def closed_loop_series(net: NetworkSpec, i: int, degree: int) -> dict[int, Series]:
    """All closed-loop series d_ki for the single external input v_i.

    The map is the fixed point of d_k = c_k o (sum_l W[k][l] d_l), with the
    mixed product at k = i carrying the direct channel. Substitution prepends
    at least one letter, so degree n of every d_k depends on the feedback
    only through degree n - 1. The loop (_closed_loops) settles the strongly
    connected components of the weight graph, the classes of nodes with
    equal ancestor sets (_plan), in topological order, each from the
    finished series of the components before it; those that i does not
    reach settle as in the loop with no input channel. A node outside every
    cycle is composed once, at the full degree. A cyclic component (two or
    more nodes, or a self-loop) settles n = 0, ..., degree in turn: each of
    its nodes keeps its composition state between degrees, so each step
    computes only degree n, and once all have settled degree n the feedback
    of each gains grade n, the weighted sum of its sources' grade n, and
    keeps the grades below n. Nodes with the same in-edges share one
    feedback. All nodes share one word-pair shuffle memo, which the loop
    empties when it returns or raises; after every degree that a composition
    settles, the loop raises DomainError if its terms and memo words exceed
    TERM_CAP.
    """
    net.check_node(i)
    [d] = _closed_loops(net, degree, (i,))
    return d


def _closed_loops(net: NetworkSpec, degree: int, inputs, plan=None):
    """The closed loop of each input node i in inputs in turn, as
    closed_loop_series(net, i, degree) gives it; i = None is the loop with no
    input channel, which reaches no component.

    plan is _plan(net, degree) unless the caller passes one built for the
    same nodes and edges; only the weights are read here. The components
    that some input does not reach are settled first, once, with no input
    channel: no ancestor of such a node k is that input i, so none takes the
    mixed product and the series is d_ki. Each input then settles the
    components it reaches, its cap counting the shared part's terms and its
    own, and empties the memo.
    """
    order, sources, skeletons, ancestors, cyclic = _plan(net, degree) if plan is None else plan
    nodes = range(1, net.m + 1)
    edges = {k: tuple((w.numerator, w.denominator, l) for l, w in zip(nodes, row) if w)
             for k, row in zip(nodes, net.W)}
    bits = [(i, 0 if i is None else 1 << i) for i in inputs]
    held = _Held(words._shuffle_cache, TERM_CAP, degree)

    def settle(i: Optional[int], comps, d: dict) -> None:
        """Settle comps, in topological order, from input i (None: no input
        channel) into d, which holds the finished series of every node feeding them."""
        # One feedback per distinct in-edge list, shared by the nodes that have it. It
        # starts as a zero exact to any degree, which a node with no in-edges keeps.
        feedback: dict[tuple, Series] = {}
        for comp in comps:
            layers = {k: ComposeLayers(held, skeletons.get(k)) for k in comp}
            looped = cyclic >> comp[0] & 1
            fresh = [e for e in dict.fromkeys(edges[k] for k in comp) if e not in feedback]
            feedback.update(dict.fromkeys(fresh, Series._graded(1, degree, {}, degree)))
            for n in range(degree + 1) if looped else (degree,):
                for e in fresh:
                    if n and e:
                        feedback[e] = _feedback(feedback[e]._grades, e, d,
                                                n - 1 if looped else 0, n)
                for k in comp:
                    route = compose_at if k in skeletons else compose_maximal
                    d[k] = route(sources[k], feedback[edges[k]], n, k == i, layers[k])

    natural: dict[int, Series] = {}
    try:
        settle(None, [c for c in order if any(not ancestors[c[0]] & b for _, b in bits)], natural)
        shared = held.terms
        for i, bit in bits:
            held.terms = shared
            d = {k: s for k, s in natural.items() if not ancestors[k] & bit}
            settle(i, [c for c in order if ancestors[c[0]] & bit], d)
            held.memo.clear()
            yield {k: d[k] for k in range(1, net.m + 1)}
    finally:
        held.memo.clear()


def _ancestors(W) -> list[int]:
    """Entry k is node k and every node with a path into it, as a bit mask
    with bit l for node l; entry 0 is 0. Warshall's closure (J. ACM 9, 1962)
    over the rows of the weight matrix W: taking each node v in turn as a
    waypoint, every node that v reaches gains v's ancestors."""
    nodes = range(1, len(W) + 1)
    ancestors = [0] + [sum(1 << l for l, w in zip(nodes, row) if w) | 1 << k
                       for k, row in zip(nodes, W)]
    for v in nodes:
        for k in nodes:
            if ancestors[k] >> v & 1:
                ancestors[k] |= ancestors[v]
    return ancestors


def _plan(net: NetworkSpec, degree: int):
    """What a closed loop to degree reads off the nodes and edges of net, not
    the weights, so one plan serves many draws of the weights: the strongly
    connected components of the weight graph, sources first (every edge
    runs within a component or into a later one), each node's left operand
    (its series expanded to degree, or its maximal spec), the skeleton of
    each polynomial one (compose._skeleton), which also marks the nodes that
    compose_at serves, the ancestor masks of _ancestors and the mask of the
    nodes on a cycle.

    Two nodes share a component exactly when their ancestor masks are equal,
    and an edge into another component makes the target's mask a strict
    superset of the source's, so ordering the components by the size of
    their mask (then by smallest node) puts each after those that feed it.
    """
    _check_int(degree, "truncation degree", 0)
    nodes = range(1, net.m + 1)
    sources = {k: src if isinstance(src, MaximalSeriesSpec) else net.node_series(k, degree)
               for k, src in zip(nodes, net.nodes)}
    skeletons = {k: _skeleton(c) for k, c in sources.items() if isinstance(c, Series)}
    ancestors = _ancestors(net.W)
    comps: dict[int, tuple[int, ...]] = {}
    for k in nodes:
        comps[ancestors[k]] = comps.get(ancestors[k], ()) + (k,)
    order = sorted(comps.values(), key=lambda comp: (ancestors[comp[0]].bit_count(), comp[0]))
    cyclic = sum(1 << k for comp in order for k in comp if len(comp) > 1 or net.W[k - 1][k - 1])
    return order, sources, skeletons, ancestors, cyclic


def _feedback(grades, edges, d: dict, lo: int, n: int) -> Series:
    """The feedback through degree n - 1 over the in-edges (p, q, l): grades
    below lo as given, and each grade from lo to n - 1 the weighted sum of
    that grade of the sources, which d holds settled through n - 1."""
    grades = dict(grades)
    for g in range(lo, n):
        parts = [(p, q, d[l]._grades[g]) for p, q, l in edges if g in d[l]._grades]
        if parts and (grade := _combine(parts)) is not None:
            grades[g] = grade
    return Series._graded(1, n - 1, grades, min(d[l].exact_to for _, _, l in edges))


def io_map(net: NetworkSpec, i: int, j: int, degree: int) -> Series:
    """Generating series of v_i -> y_j, exact through the truncation degree."""
    net.check_node(j)
    return closed_loop_series(net, i, degree)[j]


def natural_response(net: NetworkSpec, j: int, degree: int) -> list[Coeff]:
    """Zero-input output derivatives a_k = <d_j, x0^k> at node j, read off the
    closed loop with no input channel, whose series hold only drift words."""
    net.check_node(j)
    [d] = _closed_loops(net, degree, (None,))
    return [d[j].coeff((0,) * k) for k in range(degree + 1)]


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

    The candidates are the nodes k that i reaches and that reach j, read off
    the ancestor masks of _ancestors; there is no path when i is not an
    ancestor of j. A candidate set larger than NODE_BUDGET, read at call
    time, raises SubgraphBudgetError before enumeration. Self-loops never lie
    on a simple path: the enumeration skips every node already on the path.
    """
    net.check_node(i)
    net.check_node(j)
    if i == j:
        return Subgraph(i, j, frozenset({i}), frozenset())
    return _subgraph(net, i, j, _ancestors(net.W))


def _subgraph(net: NetworkSpec, i: int, j: int, ancestors: list[int]) -> Subgraph:
    """subgraph_extract for the nodes i != j of net, whose ancestor masks
    _ancestors(net.W) the caller passes."""
    if not ancestors[j] >> i & 1:
        return Subgraph(i, j, frozenset(), frozenset())
    candidates = [k for k in range(1, net.m + 1) if ancestors[k] >> i & 1 and ancestors[j] >> k & 1]
    if len(candidates) > NODE_BUDGET:
        raise SubgraphBudgetError(
            f"{len(candidates)} candidate nodes exceed the budget of {NODE_BUDGET}"
        )

    # Successors among the candidates, none for j: a path that reaches j is
    # recorded, not extended. branches[-1] holds path[-1]'s untried successors.
    succ = {l: [k for k in candidates if l != j and net.W[k - 1][l - 1]] for l in candidates}
    on_edges: set[tuple[int, int]] = set()
    path, branches = [i], [iter(succ[i])]
    while branches:
        for nxt in branches[-1]:
            if nxt not in path:
                break
        else:
            path.pop()
            branches.pop()
            continue
        path.append(nxt)
        branches.append(iter(succ[nxt]))
        if nxt == j:
            on_edges.update(zip(path, path[1:]))
    return Subgraph(i, j, frozenset(k for edge in on_edges for k in edge), frozenset(on_edges))


# -- JSON ------------------------------------------------------------------------


def _node_to_json(node: NodeSource) -> dict:
    if isinstance(node, MaximalSeriesSpec):
        return {"kind": "maximal", "K": coeff_str(node.K), "M": coeff_str(node.M)}
    if node.exact_to < node.max_degree:
        raise DomainError(f"a poly node is a polynomial; this one is exact only through degree "
                          f"{node.exact_to} of {node.max_degree}")
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
