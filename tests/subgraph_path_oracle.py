"""The recursive path search that subgraph_extract ran before.

Kept as a differential oracle for fliessnet.network.subgraph_extract, which
enumerates the simple paths i -> j with an explicit stack. This version
recurses once per path node, through a nested function that holds itself in
its closure, so every call leaves a reference cycle for the collector. The
body is the replaced function, with NODE_BUDGET read from fliessnet.network
at call time.
"""

from __future__ import annotations

import fliessnet.network as network
from fliessnet.errors import SubgraphBudgetError
from fliessnet.network import NetworkSpec, Subgraph


def recursive_subgraph_extract(net: NetworkSpec, i: int, j: int) -> Subgraph:
    """Forward-path subgraph G_ji by exhaustive simple-path enumeration.

    Self-loops never lie on a simple path and are dropped up front. A
    candidate set (reachable from i, co-reachable to j) larger than
    network.NODE_BUDGET, read at call time, raises SubgraphBudgetError before
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
    if len(candidates) > network.NODE_BUDGET:
        raise SubgraphBudgetError(
            f"{len(candidates)} candidate nodes exceed the budget of {network.NODE_BUDGET}"
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

