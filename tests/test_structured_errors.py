"""Malformed input that each layer refuses with its own structured error."""

from __future__ import annotations

import re

import pytest

from fliessnet import (
    AlphabetError,
    ConditionError,
    DomainError,
    Grid,
    MaximalSeriesSpec,
    NetworkSpec,
    ParseError,
    Series,
    abel_taylor,
    accumulated_degrees,
    as_coeff,
    compose_at,
    linear_combine,
    maximal_series,
    network_from_json,
    parse_word,
    simulate_maximal_ode,
    simulate_picard,
    subgraph_extract,
)

X1 = Series(1, 2, {(1,): 1})
X1_OVER_TWO_INPUTS = Series(2, 2, {(1,): 1})


def one_node_doc(node) -> dict:
    return {"m": 1, "W": [["0"]], "nodes": [node]}


# (name, call, error type, full message)
STRUCTURED_ERRORS = [
    ("document not an object", lambda: network_from_json([1]), ParseError,
     "malformed network document: list indices must be integers or slices, not str"),
    ("node without kind", lambda: network_from_json(one_node_doc({"K": "1"})), ParseError,
     "node entry missing 'kind'"),
    ("maximal node without M",
     lambda: network_from_json(one_node_doc({"kind": "maximal", "K": "1"})), ParseError,
     "maximal node needs K and M"),
    ("node term without word",
     lambda: network_from_json(one_node_doc({"kind": "poly", "terms": [{"coeff": "1"}]})),
     ParseError, "malformed node term {'coeff': '1'}"),
    ("unknown node kind", lambda: network_from_json(one_node_doc({"kind": "linear"})),
     ParseError, "unknown node kind 'linear'"),
    ("node count", lambda: NetworkSpec(2, [[0, 0], [0, 0]], [X1]), DomainError,
     "expected 2 node series, got 1"),
    ("node source", lambda: NetworkSpec(1, [[0]], ["x1"]), DomainError,
     "unsupported node source str"),
    ("coefficient text", lambda: as_coeff("abc"), ParseError, "cannot parse coefficient 'abc'"),
    ("coefficient over zero", lambda: as_coeff("1/0"), ParseError,
     "cannot parse coefficient '1/0'"),
    ("coefficient None", lambda: as_coeff(None), ParseError,
     "unsupported coefficient type NoneType"),
    ("mixed alphabets", lambda: linear_combine([(1, X1), (1, X1_OVER_TWO_INPUTS)]),
     AlphabetError, "mixed alphabets [1, 2]"),
    ("empty combination", lambda: linear_combine([]), DomainError,
     "empty linear combination has no alphabet"),
    ("composition over two inputs", lambda: compose_at(X1_OVER_TWO_INPUTS, X1, 2), AlphabetError,
     "composition is defined over the alphabet {x0, x1}"),
    ("negative letter", lambda: parse_word("x-1", 1), ParseError,
     "negative letter index in token 'x-1'"),
    ("mhat index 0", lambda: abel_taylor(1, 1, 1, 3).mhat_float(0), DomainError,
     "n must be an integer >= 1"),
    ("mhat index past n_max", lambda: abel_taylor(1, 1, 1, 3).mhat_float(4), DomainError,
     "mhat defined for 1 <= n <= 3"),
    ("mhat index True", lambda: abel_taylor(1, 1, 1, 3).mhat_float(True), DomainError,
     "n must be an integer >= 1"),
    ("mhat index 2.0", lambda: abel_taylor(1, 1, 1, 3).mhat_float(2.0), DomainError,
     "n must be an integer >= 1"),
    ("mhat index text", lambda: abel_taylor(1, 1, 1, 3).mhat_float("3"), DomainError,
     "n must be an integer >= 1"),
    ("mhat index None", lambda: abel_taylor(1, 1, 1, 3).mhat_float(None), DomainError,
     "n must be an integer >= 1"),
    ("node without a degree",
     lambda: accumulated_degrees(
         subgraph_extract(NetworkSpec(2, [[0, 0], [1, 0]], [X1, X1]), 1, 2), {1: 1}),
     ConditionError, "node 2 lacks a positive relative degree"),
    ("ODE signals in a list",
     lambda: simulate_maximal_ode(NetworkSpec(1, [[0]], [MaximalSeriesSpec(1, 1)]),
                                  Grid(0.0, 0.1, 10), v=[1] * 11),
     DomainError, "v must be None or a mapping from node to signal, not list"),
    ("Picard signals in a list",
     lambda: simulate_picard(NetworkSpec(1, [[0]], [X1]), Grid(0.0, 0.1, 10), v=[1] * 11),
     DomainError, "v must be None or a mapping from node to signal, not list"),
    ("Picard signals in a tuple",
     lambda: simulate_picard(NetworkSpec(1, [[0]], [X1]), Grid(0.0, 0.1, 10), v=()),
     DomainError, "v must be None or a mapping from node to signal, not tuple"),
]


@pytest.mark.parametrize("call,error,message", [
    pytest.param(call, error, message, id=name) for name, call, error, message in STRUCTURED_ERRORS
])
def test_malformed_input_raises_its_structured_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_node_series_of_a_maximal_node_is_its_expansion():
    net = NetworkSpec(1, [[0]], [MaximalSeriesSpec(2, 3)])
    d = net.node_series(1, 4)
    assert d == maximal_series(2, 3, 1, 4)
    assert d.exact_to == 4
