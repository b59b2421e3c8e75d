"""The relative-degree measurement that read the flat coefficient map.

Kept as a differential oracle. relative_degree rebuilt each series as the
flat word -> coefficient map Series.terms before it read the candidate r, the
leading coefficient and the zero test from it, and node_degree_report gave a
maximal node (K, M) relative degree 1 with leading coefficient K M by hand.
fliessnet.reldeg must give the same reports from the stored grades, read
through Series.support and Series.coeff, and a maximal node from the degree-1
expansion of its series.
"""

from __future__ import annotations

from fractions import Fraction

from fliessnet import AlphabetError, MaximalSeriesSpec, NetworkSpec, Series
from fliessnet.reldeg import STATUS_DEFINED, STATUS_UNDEFINED, STATUS_UNDETERMINED, RelDegReport
from fliessnet.series import as_coeff
from fliessnet.words import leading_zeros


def flat_relative_degree(c: Series) -> RelDegReport:
    if c.m != 1:
        raise AlphabetError("relative degree is defined for single-input series")
    n = c.exact_to
    visible = {w: v for w, v in c.terms.items() if len(w) <= n}
    forced = [w for w in visible if any(letter != 0 for letter in w)]
    if not forced:
        if c.is_zero():
            return RelDegReport(STATUS_UNDEFINED, None, None, n)
        return RelDegReport(STATUS_UNDETERMINED, None, None, n)
    rho = min(leading_zeros(w) for w in forced)
    lead = visible.get((0,) * rho + (1,), 0)
    if lead != 0:
        return RelDegReport(STATUS_DEFINED, rho + 1, lead, n)
    return RelDegReport(STATUS_UNDEFINED, None, None, n)


def formula_node_degree_report(net: NetworkSpec, k: int) -> RelDegReport:
    src = net.node(k)
    if isinstance(src, MaximalSeriesSpec):
        return RelDegReport(STATUS_DEFINED, 1, as_coeff(Fraction(src.K) * Fraction(src.M)), 1)
    return flat_relative_degree(src)
