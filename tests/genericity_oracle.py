"""The Monte Carlo that closed every sample's loops from scratch.

Kept as a differential oracle for fliessnet.reldeg.genericity_sample, which
builds the weight-independent plan of the closed loops once per call and
settles each sample's loops of all inputs together. This route draws each
sample through sample_network, closes the loop of each input in turn with
the global loop of tests/global_loop_oracle.py, measures every output with
relative_degree and aggregates the counts, the designated values and their
histogram as genericity_sample did before.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from fliessnet.reldeg import STATUS_DEFINED, GenericityStats, relative_degree, sample_network
from fliessnet.series import _float
from global_loop_oracle import global_closed_loop


def per_sample_genericity(pattern, nodes, samples: int, seed: int, degree: int,
                          designated=None, bins: int = 40) -> GenericityStats:
    """genericity_sample(pattern, nodes, samples, seed, degree, designated, bins)
    for valid arguments, one sample and one input at a time."""
    key = None if designated is None else (designated[0], designated[1], tuple(designated[2]))
    status: dict = defaultdict(Counter)
    r_counts: dict = defaultdict(Counter)
    values: list[float] = []
    for index in range(samples):
        net = sample_network(pattern, nodes, seed, index)
        for i in range(1, net.m + 1):
            closed = global_closed_loop(net, i, degree)
            for j in range(1, net.m + 1):
                rep = relative_degree(closed[j])
                status[(i, j)][rep.status] += 1
                if rep.status == STATUS_DEFINED:
                    r_counts[(i, j)][rep.r] += 1
            if key is not None and i == key[0]:
                coefficient = closed[key[1]].coeff(key[2])
                values.append(abs(_float(coefficient, "the designated coefficient")))
    histogram: tuple = ()
    if values:
        counts, edges = np.histogram(np.asarray(values), bins=bins)
        histogram = tuple((float(edges[b]), float(edges[b + 1]), int(counts[b]))
                          for b in range(len(counts)))
    return GenericityStats(
        seed=seed,
        samples=samples,
        degree=degree,
        pair_status={k: dict(v) for k, v in sorted(status.items())},
        pair_r={k: dict(sorted(v.items())) for k, v in sorted(r_counts.items())},
        designated=key,
        values=tuple(values),
        histogram=histogram,
    )
