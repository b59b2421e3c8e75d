"""The closed loop that settled the whole net degree by degree.

Kept as a differential oracle for fliessnet.network, which settles the
strongly connected components of the weight graph in topological order and
shares the input-free part of a net across its inputs. This loop composes
every node at every degree n = 0, ..., degree, from one feedback per
distinct in-edge list that gains one grade per degree. The body is the
replaced network._closed_loop, except for the two lines that build and read
the composition state, which now counts its terms in a compose._Held, and
the cap, read from fliessnet.network at call time.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import fliessnet.network as network
from fliessnet import words
from fliessnet.compose import ComposeLayers, _Held, compose_at, compose_maximal
from fliessnet.errors import DomainError
from fliessnet.network import NetworkSpec
from fliessnet.series import MaximalSeriesSpec, Series, _check_int, _combine


def global_closed_loop(net: NetworkSpec, i: Optional[int], degree: int) -> dict[int, Series]:
    """closed_loop_series from input node i, or with no input channel if i is None."""
    _check_int(degree, "truncation degree", 0)
    memo = words._shuffle_cache
    nodes = range(1, net.m + 1)
    layers = {k: ComposeLayers(_Held(memo)) for k in nodes}
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
                held = sum(layer.held.terms for layer in layers.values())
                held += sum(map(len, memo.values()))
                if held > network.TERM_CAP:
                    raise DomainError(
                        f"closed loop holds {held} terms and memo words at degree {n}, over "
                        f"the cap of {network.TERM_CAP}; request a lower degree than {degree}"
                    )
    finally:
        memo.clear()
    return d

