"""The left-quotient route of compose_maximal that the one-shuffle route replaced.

Kept verbatim as a differential oracle: it settles degree n of the image Y
of a maximal series through the left quotients Ya = xa^-1 Y, two shuffles
at degree n - 1 per letter, and must give the same grades and exact_to as
fliessnet.compose.compose_maximal on every closed loop.
"""

from __future__ import annotations

import math
from typing import Optional

from fliessnet import MaximalSeriesSpec, Series
from fliessnet.compose import ComposeLayers, _ONE, _prefix, _require_siso
from fliessnet.series import Grade, Grades, _combine, _pair_den, _reduced, _shuffle_terms


def _quotient(
    q: Grades, y: Grades, z: Grades, ya: Grades, n: int, memo: dict
) -> Optional[Grade]:
    """Degree-n grade of q sh y + z sh ya."""
    den = math.lcm(_pair_den(q, y, n), _pair_den(z, ya, n))
    acc = _shuffle_terms(q, y, n, den, memo)
    for word, c in _shuffle_terms(z, ya, n, den, memo).items():
        acc[word] = acc.get(word, 0) + c
    return _reduced(den, acc)


def _join(quotients: list[Grades], n: int) -> Optional[Grade]:
    """Degree n + 1 grade of sum_a xa Qa, from degree n of the quotients Qa."""
    return _combine([(1, 1, _prefix(a, q[n])) for a, q in enumerate(quotients) if n in q])


def quotient_compose_maximal(
    spec: MaximalSeriesSpec,
    d: Series,
    n_out: int,
    mixed: bool,
    layers: Optional[ComposeLayers] = None,
) -> Series:
    """compose/mixed_compose with a maximal left operand, without enumerating words.

    The maximal series (K, M) generates y = K / (1 - M int(1 + u)), so its
    image Y solves the shuffle equation Y = K + M (Z sh Y), where E = 1 + d
    and Z = x0 E (+ x1 for the mixed product). By the Leibniz rule for the
    left quotients Ya = xa^-1 Y, with x0^-1 Z = E and x1^-1 Z = [mixed] 1:

        Y0 = M (E sh Y + Z sh Y0),  Y1 = M ([mixed] Y + Z sh Y1),
        Y_n = x0 Y0_{n-1} + x1 Y1_{n-1}.

    So degree n takes shuffles at degree n - 1 only, of d and of Y below n:
    the causality and exact_to of the general route, whose result this
    equals by linearity. layers keeps M E, M Z, Y0, Y1 and Y, so it serves
    one spec and mixed flag.
    """
    _require_siso(d)
    Mp, Mq = spec.M.numerator, spec.M.denominator
    if layers is None:
        layers = ComposeLayers()
    if layers.state is None:
        ME: Grades = {}
        # (Ya, M xa^-1 Z) for each letter a that can start a word of Y or Z.
        layers.state = ME, {}, [({}, ME), ({}, {0: (Mq, {(): Mp})})][: 1 + mixed]
        layers.store(layers.out, 0, (spec.K.denominator, {(): spec.K.numerator}))
        layers.degree = 0
    ME, MZ, quotients = layers.state
    for n in range(layers.degree + 1, n_out + 1):
        m = n - 1
        e = [(Mp, Mq, g) for g in (_ONE if m == 0 else None, d._grades.get(m)) if g]
        layers.store(ME, m, _combine(e))
        layers.store(MZ, m, _join([q for _, q in quotients], m - 1))
        for ya, q in quotients:
            layers.store(ya, m, _quotient(q, layers.out, MZ, ya, m, layers.memo))
        layers.store(layers.out, n, _join([ya for ya, _ in quotients], m))
        layers.degree = n
    return layers.result(n_out, min(d.exact_to + 1, n_out))
