"""Relative degree: measurement, structural prediction, and genericity sampling.

A SISO series with a well-defined relative degree r has the shape
c = (natural part) + K x0^(r-1) x1 + (terms with more leading drift letters
or deeper non-drift structure). Measurement reads r off a truncated series;
prediction composes per-node degrees along the forward-path subgraph and
certifies the result with one of three structural conditions.
"""

from __future__ import annotations

import heapq
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from .errors import AlphabetError, ConditionError, DomainError, SubgraphBudgetError
from .network import (
    NetworkSpec,
    Subgraph,
    _ancestors,
    _closed_loops,
    _plan,
    _subgraph,
    subgraph_extract,
)
from .series import Coeff, MaximalSeriesSpec, Series, _check_int, _float, as_coeff
from .words import Word, check_word, leading_zeros

STATUS_DEFINED = "defined"
STATUS_UNDEFINED = "undefined"
STATUS_UNDETERMINED = "undetermined_at_truncation"

CONDITION_FULLY_CONNECTED = "fully_connected"
CONDITION_DISTINCT = "distinct"
CONDITION_REPEATED_SUM = "repeated_sum_nonzero"
CONDITION_UNKNOWN = "violated_unknown"


@dataclass(frozen=True)
class RelDegReport:
    """Outcome of measuring the relative degree of one truncated series."""

    status: str
    r: Optional[int]
    leading: Optional[Coeff]
    truncation: int

    def require_defined(self) -> tuple[int, Coeff]:
        if self.status != STATUS_DEFINED:
            raise ConditionError(f"relative degree is {self.status}")
        assert self.r is not None and self.leading is not None
        return self.r, self.leading


def relative_degree(c: Series) -> RelDegReport:
    """Measure the relative degree of a SISO series from its exact part.

    Words consisting only of the drift letter (the natural response) carry no
    information about the input path, so they are ignored. The minimum count
    rho of leading drift letters over the remaining support fixes the
    candidate r = rho + 1; it is certified iff the coefficient of
    x0^rho x1 is nonzero, and refuted (undefined) otherwise. A series whose
    exact part shows no non-natural word at all is undetermined unless it is
    identically zero, which has no relative degree.
    """
    if c.m != 1:
        raise AlphabetError("relative degree is defined for single-input series")
    n = c.exact_to
    forced = [w for w in c.support() if len(w) <= n and any(w)]
    if not forced:
        if c.is_zero():
            return RelDegReport(STATUS_UNDEFINED, None, None, n)
        return RelDegReport(STATUS_UNDETERMINED, None, None, n)
    rho = min(leading_zeros(w) for w in forced)
    lead = c.coeff((0,) * rho + (1,))
    if lead != 0:
        return RelDegReport(STATUS_DEFINED, rho + 1, lead, n)
    return RelDegReport(STATUS_UNDEFINED, None, None, n)


def sum_reldeg_predict(reports: Sequence[RelDegReport]) -> RelDegReport:
    """Relative degree of a sum of series, from their individual reports.

    The minimal degree controls the sum: a unique minimum passes through
    unchanged, and a tied minimum survives exactly when the tied leading
    coefficients do not cancel.
    """
    if not reports:
        raise ConditionError("sum over an empty family")
    truncation = min(rep.truncation for rep in reports)
    if any(rep.status == STATUS_UNDETERMINED for rep in reports):
        return RelDegReport(STATUS_UNDETERMINED, None, None, truncation)
    if any(rep.status == STATUS_UNDEFINED for rep in reports):
        return RelDegReport(STATUS_UNDEFINED, None, None, truncation)
    r_min = min(rep.r for rep in reports)  # type: ignore[type-var]
    lead = sum(rep.leading for rep in reports if rep.r == r_min)  # type: ignore[misc]
    if lead != 0:
        return RelDegReport(STATUS_DEFINED, r_min, as_coeff(lead), truncation)
    return RelDegReport(STATUS_UNDEFINED, None, None, truncation)


@dataclass(frozen=True)
class AccumulatedDegrees:
    """Shortest node-weighted path lengths r_plus from the source, plus the
    per-node list of (predecessor, predecessor r_plus) pairs that feed it."""

    source: int
    r_plus: dict[int, int]
    incoming: dict[int, tuple[tuple[int, int], ...]]


def accumulated_degrees(sub: Subgraph, node_degrees: dict[int, int]) -> AccumulatedDegrees:
    """Dijkstra with node weights: r_plus[v] = r_v + min over predecessors."""
    if sub.is_empty():
        raise ConditionError("accumulated degrees need a nonempty forward-path subgraph")
    for v in sub.nodes:
        r = node_degrees.get(v)
        if r is None or r < 1:
            raise ConditionError(f"node {v} lacks a positive relative degree")
    succ: dict[int, list[int]] = defaultdict(list)
    pred: dict[int, list[int]] = defaultdict(list)
    for u, v in sorted(sub.edges):
        succ[u].append(v)
        pred[v].append(u)
    dist: dict[int, int] = {}
    heap: list[tuple[int, int]] = [(node_degrees[sub.source], sub.source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in dist:
            continue
        dist[u] = d
        for v in succ[u]:
            if v not in dist:
                heapq.heappush(heap, (d + node_degrees[v], v))
    incoming = {v: tuple((u, dist[u]) for u in preds) for v, preds in pred.items()}
    return AccumulatedDegrees(sub.source, dist, incoming)


@dataclass(frozen=True)
class PredictionReport:
    """Structural prediction for one source/sink pair."""

    source: int
    sink: int
    r_pred: Optional[int]
    condition: str
    node_degrees: dict[int, int]
    details: dict = field(default_factory=dict)


def node_degree_report(net: NetworkSpec, k: int) -> RelDegReport:
    """Relative degree of node k's own series; a maximal node reads K + K M x0 + K M x1."""
    src = net.node(k)
    if isinstance(src, MaximalSeriesSpec):
        src = src.expand(1, 1)
    return relative_degree(src)


def _repeated_groups(acc: AccumulatedDegrees) -> dict[int, dict[int, list[int]]]:
    repeated: dict[int, dict[int, list[int]]] = {}
    for v, pairs in acc.incoming.items():
        by_value: dict[int, list[int]] = defaultdict(list)
        for u, value in pairs:
            by_value[value].append(u)
        ties = {value: preds for value, preds in by_value.items() if len(preds) > 1}
        if ties:
            repeated[v] = ties
    return repeated


def _subgraph_leads(
    net: NetworkSpec, acc: AccumulatedDegrees, degrees: dict[int, int], leads: dict[int, Coeff]
) -> dict[int, Coeff]:
    """l_v = <d_v, x0^(R_v-1) x1> for each node v of G_ji: d_v is the closed loop
    restricted to G_ji with input i = acc.source, R_v = acc.r_plus[v], and r_v,
    K_v are node v's own degree and leading coefficient.

    l_i = K_i, as no simple path from i returns to i; else l_v = K_v sum W_vu l_u
    over the tight edges u -> v (R_u + r_v = R_v). A word with one x1 takes it from
    one feedback factor carrying an input word, all others drift words. Each extra
    x1 of c_v's word and each letter after its x1 lengthens the output, and the
    feedback has no input word below degree R_v - r_v: at degree R_v only c_v's
    x0^(r_v-1) x1 meets the tight l_u, which ascending R settles first (r_v >= 1).
    """
    R = acc.r_plus
    ell: dict[int, Coeff] = {}
    for v in sorted(R, key=R.__getitem__):
        tight = [net.weight(v, u) * ell[u]
                 for u, value in acc.incoming.get(v, ()) if value + degrees[v] == R[v]]
        ell[v] = leads[v] * (sum(tight) if v != acc.source else 1)
    return ell


def predict_io_reldeg(net: NetworkSpec, i: int, j: int) -> PredictionReport:
    """Predict the relative degree of the map from an input at node i to the
    output of node j, with a certificate naming the condition that holds.

    Certificates, in order of strength:
      fully_connected     sink j receives an edge from every other node, so
                          every input path is dominated by r_j + r_i; G_ji is
                          then read off the ancestor closure, with no path search;
      distinct            along the forward-path subgraph every node sees
                          pairwise distinct accumulated degrees, so the
                          shortest one survives with a nonzero coefficient;
      repeated_sum_nonzero ties exist but each tied group's weighted leading
                          coefficients sum to a nonzero value (read off the
                          subgraph by _subgraph_leads, with no closed loop);
      violated_unknown    a tie cancels, or no forward path exists; r_pred is
                          the shortest-path value when a path exists, else None.
    """
    net.check_node(i)
    net.check_node(j)
    reports = {k: node_degree_report(net, k) for k in range(1, net.m + 1)}
    return _predict(net, i, j, reports, _short_of_sink(net, j),
                    lambda: subgraph_extract(net, i, j))


def _short_of_sink(net: NetworkSpec, j: int) -> Optional[list[int]]:
    """For a sink j that receives an edge from every other node, the ancestor
    masks of _ancestors once j's out-edges are cut; None for any other j."""
    if not all(net.weight(j, k) != 0 for k in range(1, net.m + 1) if k != j):
        return None
    return _ancestors([[w if l != j else 0 for l, w in enumerate(row, 1)] for row in net.W])


def _predict(net: NetworkSpec, i: int, j: int, reports: dict[int, RelDegReport],
             reached: Optional[list[int]], subgraph: Callable[[], Subgraph]) -> PredictionReport:
    """predict_io_reldeg for the checked nodes i and j, from every node's
    node_degree_report (reports), the masks _short_of_sink(net, j) (reached)
    and G_ji, which subgraph() enumerates only for a sink not fully connected."""
    if i == j:
        r, lead = reports[i].require_defined()
        details = {"self_pair": True, "leading": lead}
        return PredictionReport(i, j, r, CONDITION_DISTINCT, {i: r}, details)
    if reached is not None:
        # G_ji is j and each node that i reaches short of j (the descendants of
        # i once j's out-edges are cut): its edge into j closes a simple path.
        nodes = [v for v in range(1, net.m + 1) if reached[v] >> i & 1]
        degrees = {v: reports[v].require_defined()[0] for v in nodes}
        r = degrees[j] + degrees[i]
        return PredictionReport(i, j, r, CONDITION_FULLY_CONNECTED, degrees, {})
    sub = subgraph()
    if sub.is_empty():
        return PredictionReport(i, j, None, CONDITION_UNKNOWN, {}, {"no_forward_path": True})
    defined = {v: reports[v].require_defined() for v in sorted(sub.nodes)}
    degrees = {v: r for v, (r, _) in defined.items()}
    acc = accumulated_degrees(sub, degrees)
    details = {"accumulated": dict(acc.r_plus), "incoming": dict(acc.incoming)}
    repeated = _repeated_groups(acc)
    if not repeated:
        return PredictionReport(i, j, acc.r_plus[j], CONDITION_DISTINCT, degrees, details)
    ell = _subgraph_leads(net, acc, degrees, {v: lead for v, (_, lead) in defined.items()})
    sums: dict[str, Coeff] = {
        f"node {v} at degree {value}": as_coeff(sum(net.weight(v, u) * ell[u] for u in preds))
        for v, ties in sorted(repeated.items()) for value, preds in sorted(ties.items())
    }
    details["repeated_sums"] = sums
    condition = CONDITION_REPEATED_SUM if all(sums.values()) else CONDITION_UNKNOWN
    return PredictionReport(i, j, acc.r_plus[j], condition, degrees, details)


@dataclass(frozen=True)
class PairReport:
    source: int
    sink: int
    measured: RelDegReport
    predicted: Optional[PredictionReport]
    prediction_error: Optional[str]
    consistent: Optional[bool]


def _consistency(measured: RelDegReport, predicted: Optional[PredictionReport]) -> Optional[bool]:
    if predicted is None or predicted.r_pred is None:
        return None
    if predicted.condition == CONDITION_UNKNOWN:
        return None
    if measured.status == STATUS_DEFINED:
        return measured.r == predicted.r_pred
    if measured.status == STATUS_UNDETERMINED:
        # The prediction lies beyond the horizon, so nothing contradicts it.
        return None if predicted.r_pred > measured.truncation else False
    return False


def pair_report(net: NetworkSpec, i: int, j: int, measured: RelDegReport) -> PairReport:
    """Predict the pair (i, j) and judge the prediction against a measurement;
    a ConditionError (a node without a defined relative degree) or
    SubgraphBudgetError (a forward-path subgraph over network.NODE_BUDGET
    candidate nodes) is kept as prediction_error, not raised."""
    return _pair_report(i, j, measured, lambda: predict_io_reldeg(net, i, j))


def _pair_report(i: int, j: int, measured: RelDegReport,
                 predict: Callable[[], PredictionReport]) -> PairReport:
    """pair_report with the prediction predict()."""
    try:
        predicted = predict()
    except (ConditionError, SubgraphBudgetError) as exc:
        return PairReport(i, j, measured, None, str(exc), None)
    return PairReport(i, j, measured, predicted, None, _consistency(measured, predicted))


def _measure_pairs(net: NetworkSpec, degree: int, plan):
    """For each input i in turn: i, its closed loop (from plan, as
    _closed_loops takes it), and the measured relative degree of every
    output j (a dict keyed by j)."""
    for i, closed in enumerate(_closed_loops(net, degree, range(1, net.m + 1), plan), 1):
        yield i, closed, {j: relative_degree(closed[j]) for j in range(1, net.m + 1)}


def complete_reldeg(net: NetworkSpec, degree: int) -> dict[tuple[int, int], PairReport]:
    """Measure and predict the relative degree of every pair, as pair_report
    does, from one structural pass: the closed loops' plan, whose ancestor
    masks give each pair's forward-path subgraph, each node's degree report,
    and each fully connected sink's masks short of it."""
    plan = _plan(net, degree)
    nodes = range(1, net.m + 1)
    reports = {k: node_degree_report(net, k) for k in nodes}
    short = {j: _short_of_sink(net, j) for j in nodes}
    return {
        (i, j): _pair_report(i, j, measured, lambda: _predict(
            net, i, j, reports, short[j], lambda: _subgraph(net, i, j, plan[2])))
        for i, _, row in _measure_pairs(net, degree, plan)
        for j, measured in row.items()
    }


@dataclass(frozen=True)
class GenericityStats:
    """Aggregate of a seeded Monte Carlo sweep over random edge weights."""

    seed: int
    samples: int
    degree: int
    pair_status: dict[tuple[int, int], dict[str, int]]
    pair_r: dict[tuple[int, int], dict[int, int]]
    designated: Optional[tuple[int, int, Word]]
    values: tuple[float, ...]
    histogram: tuple[tuple[float, float, int], ...]


def sample_network(
    pattern: Sequence[Sequence[int]],
    nodes: Sequence[Union[Series, MaximalSeriesSpec]],
    seed: int,
    index: int,
) -> NetworkSpec:
    """Network with the given sparsity pattern and weights drawn uniformly
    from (0, 1], one independent stream per (seed, index) pair."""
    m = len(nodes)
    if len(pattern) != m or any(len(row) != m for row in pattern) or any(
        isinstance(e, bool) or e not in (0, 1) for row in pattern for e in row
    ):
        raise DomainError("pattern must be an m-by-m 0/1 matrix")
    _check_int(seed, "seed", 0)
    _check_int(index, "index", 0)
    import numpy as np

    rng = np.random.default_rng([seed, index])
    W: list[list[Coeff]] = [[0] * m for _ in range(m)]
    for r in range(m):
        for c in range(m):
            if pattern[r][c]:
                W[r][c] = as_coeff(1.0 - rng.random())
    return NetworkSpec(m, W, list(nodes))


def genericity_sample(
    pattern: Sequence[Sequence[int]],
    nodes: Sequence[Union[Series, MaximalSeriesSpec]],
    samples: int,
    seed: int,
    degree: int,
    designated: Optional[tuple[int, int, Sequence[int]]] = None,
    bins: int = 40,
    jobs: int = 1,
) -> GenericityStats:
    """Measure relative degrees across seeded random weight draws.

    The result is a deterministic function of (pattern, nodes, samples, seed,
    degree): each sample index owns an independent RNG stream, and every
    sample runs in the calling process, one after another. jobs is checked
    but has no effect. samples, degree, bins, jobs and designated are
    checked before a sample is drawn; a designated word must lie within
    degree. The weights lie in (0, 1], so every sample has the pattern's
    edges, and the closed loops' plan (network._plan) built from the first
    sample serves them all.
    """
    _check_int(samples, "samples", 1)
    _check_int(degree, "truncation degree", 0)
    _check_int(bins, "bins", 1)
    _check_int(jobs, "jobs", 1)
    designated_key: Optional[tuple[int, int, Word]] = None
    if designated is not None:
        if not (isinstance(designated, Sequence) and len(designated) == 3
                and isinstance(designated[2], Sequence)):
            raise DomainError("designated must be a (from, to, word) triple")
        designated_key = (designated[0], designated[1], tuple(designated[2]))
        edgeless = NetworkSpec(len(nodes), [[0] * len(nodes)] * len(nodes), list(nodes))
        edgeless.check_node(designated_key[0])
        edgeless.check_node(designated_key[1])
        check_word(designated_key[2], 1)
        if len(designated_key[2]) > degree:
            raise DomainError(f"designated word of length {len(designated_key[2])} exceeds "
                              f"the truncation degree {degree}")
    status: dict[tuple[int, int], Counter] = defaultdict(Counter)
    r_counts: dict[tuple[int, int], Counter] = defaultdict(Counter)
    values: list[float] = []
    plan = None
    for index in range(samples):
        net = sample_network(pattern, nodes, seed, index)
        if plan is None:
            plan = _plan(net, degree)
        for i, closed, row in _measure_pairs(net, degree, plan):
            for j, rep in row.items():
                status[(i, j)][rep.status] += 1
                if rep.status == STATUS_DEFINED:
                    r_counts[(i, j)][rep.r] += 1
            if designated_key is not None and i == designated_key[0]:
                _, k, word = designated_key
                values.append(abs(_float(closed[k].coeff(word), "the designated coefficient")))
    histogram: tuple[tuple[float, float, int], ...] = ()
    if values:
        import numpy as np

        counts, edges = np.histogram(np.asarray(values), bins=bins)
        histogram = tuple(
            (float(edges[b]), float(edges[b + 1]), int(counts[b])) for b in range(len(counts))
        )
    return GenericityStats(
        seed=seed,
        samples=samples,
        degree=degree,
        pair_status={k: dict(v) for k, v in sorted(status.items())},
        pair_r={k: dict(sorted(v.items())) for k, v in sorted(r_counts.items())},
        designated=designated_key,
        values=tuple(values),
        histogram=histogram,
    )
