"""The restricted closed loop that predict_io_reldeg read its tied groups from.

Kept as a differential oracle: it restricts the network to the forward-path
subgraph G_ji, runs the exact closed loop from input i up to the degree it
needs, and reads l_v = <d_v, x0^(R_v-1) x1> off that loop. The loop grows
about 4x per degree; fliessnet.reldeg._subgraph_leads must give the same l_v
from the subgraph and the node leading coefficients alone, and
predict_io_reldeg the same report as loop_predict_io_reldeg.
"""

from __future__ import annotations

import warnings
from fractions import Fraction

from fliessnet import NetworkSpec, Subgraph, closed_loop_series, subgraph_extract
from fliessnet.reldeg import (
    CONDITION_DISTINCT,
    CONDITION_FULLY_CONNECTED,
    CONDITION_REPEATED_SUM,
    CONDITION_UNKNOWN,
    PredictionReport,
    _repeated_groups,
    accumulated_degrees,
    node_degree_report,
)
from fliessnet.series import Coeff, as_coeff


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


def loop_leads(net: NetworkSpec, i: int, j: int) -> dict[int, Coeff]:
    """l_v of every node v of G_ji, i != j, read off the restricted loop."""
    sub = subgraph_extract(net, i, j)
    degrees = {v: node_degree_report(net, v).require_defined()[0] for v in sub.nodes}
    R = accumulated_degrees(sub, degrees).r_plus
    d_sub = closed_loop_series(restrict_to_subgraph(net, sub), i, max(R.values()))
    return {v: d_sub[v].coeff((0,) * (R[v] - 1) + (1,)) for v in sub.nodes}


def loop_predict_io_reldeg(net: NetworkSpec, i: int, j: int) -> PredictionReport:
    """predict_io_reldeg with each tied group read off the restricted loop."""
    net.check_node(i)
    net.check_node(j)
    if i == j:
        r, lead = node_degree_report(net, i).require_defined()
        return PredictionReport(
            i, j, r, CONDITION_DISTINCT, {i: r}, {"self_pair": True, "leading": lead}
        )
    sub = subgraph_extract(net, i, j)
    if sub.is_empty():
        return PredictionReport(i, j, None, CONDITION_UNKNOWN, {}, {"no_forward_path": True})
    degrees: dict[int, int] = {}
    for v in sorted(sub.nodes):
        r, _ = node_degree_report(net, v).require_defined()
        degrees[v] = r
    if all(net.weight(j, k) != 0 for k in range(1, net.m + 1) if k != j):
        return PredictionReport(
            i,
            j,
            degrees[j] + degrees[i],
            CONDITION_FULLY_CONNECTED,
            degrees,
            {},
        )
    acc = accumulated_degrees(sub, degrees)
    details = {"accumulated": dict(acc.r_plus), "incoming": dict(acc.incoming)}
    r_pred = acc.r_plus[j]
    repeated = _repeated_groups(acc)
    if not repeated:
        return PredictionReport(i, j, r_pred, CONDITION_DISTINCT, degrees, details)
    needed = max(value for ties in repeated.values() for value in ties)
    restricted = restrict_to_subgraph(net, sub)
    d_sub = closed_loop_series(restricted, i, needed)
    sums: dict[str, Coeff] = {}
    all_nonzero = True
    for v, ties in sorted(repeated.items()):
        for value, preds in sorted(ties.items()):
            word = (0,) * (value - 1) + (1,)
            total = sum(
                Fraction(net.weight(v, u)) * Fraction(d_sub[u].coeff(word)) for u in preds
            )
            sums[f"node {v} at degree {value}"] = as_coeff(total)
            if total == 0:
                all_nonzero = False
    details["repeated_sums"] = sums
    condition = CONDITION_REPEATED_SUM if all_nonzero else CONDITION_UNKNOWN
    return PredictionReport(i, j, r_pred, condition, degrees, details)
