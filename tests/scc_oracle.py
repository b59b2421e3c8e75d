"""The strongly connected components that network._plan found before.

Kept as a differential oracle for fliessnet.network._plan, which reads the
components off one ancestor closure. This is Tarjan's algorithm (SIAM J.
Comput. 1, 1972) with an explicit stack in place of recursion, as _plan ran
it: along the edges reversed, so it lists every component after those that
feed it, each component's nodes sorted.
"""

from __future__ import annotations

from fliessnet.network import NetworkSpec


def tarjan_components(net: NetworkSpec) -> list[tuple[int, ...]]:
    """The components of the weight graph (an edge l -> k wherever
    W[k][l] != 0), sources first, over the nodes 1..m."""
    nodes = range(1, net.m + 1)
    inputs = {k: tuple(l for l, w in zip(nodes, net.W[k - 1]) if w) for k in nodes}
    index: dict[int, int] = {}
    low: dict[int, int] = {}  # of the nodes on the stack
    stack: list[int] = []
    comps: list[tuple[int, ...]] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(inputs[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(inputs[w])))
                    break
                if w in low:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    comps.append(tuple(sorted(comp)))
                    for w in comp:
                        del low[w]
    return comps
