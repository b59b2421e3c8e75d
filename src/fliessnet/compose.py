"""Composition products for single-input generating series.

compose(c, d) is the generating series of the cascade F_c[F_d[v]]: each
non-drift letter of c is substituted by e -> x0 (d sh e), the drift letter
prepends x0. mixed_compose(c, d) realizes the direct-plus-feedback channel
u = v + F_d[v] via the substitution e -> x1 e + x0 (d sh e).

Both products are linear in c, and the coefficient of a degree-n output word
depends on d only through degree n-1: every substitution prepends at least
one letter. That degreewise causality is what makes the network fixed point
converge in finitely many sweeps.

The products are computed one degree at a time: the degree-n layer of the
image of a word needs only the layers below n of the image of its tail and
of d. The images can therefore be kept in a ComposeLayers between calls, and
a call that raises n_out by one computes only the new degree; the network
sweep settles one degree per call this way. Layers are grades of the
series core: integer numerators over one denominator per degree.
"""

from __future__ import annotations

import math
from typing import Optional

from .errors import AlphabetError
from .series import Grade, Grades, MaximalSeriesSpec, Series
from .series import _combine, _pair_den, _reduced, _shuffle_terms

# How an image is built from the image of its tail: the drift letter
# prepends x0, an input letter substitutes, a maximal power does both.
_UNIT, _DRIFT, _INPUT, _POWER = range(4)


class ComposeLayers:
    """The graded images of one composition, kept between calls.

    images maps a key (a suffix of a word of c, or k for the power A^k(1)
    of a maximal left operand) to (tail layers, op, layers); out holds the
    output grades settled through degree; terms counts every term held.
    Reuse an instance only for calls with the same left operand and mixed
    flag, and a d that agrees with the earlier ones through their n_out - 1.
    """

    __slots__ = ("degree", "images", "out", "terms")

    def __init__(self):
        self.degree = -1
        self.images: dict = {}
        self.out: Grades = {}
        self.terms = 0


def _require_siso(c: Series, d: Series) -> None:
    if c.m != 1 or d.m != 1:
        raise AlphabetError("composition is defined over the alphabet {x0, x1}")


def _layer(op: int, tail: Optional[Grades], d: Grades, n: int, mixed: bool) -> Optional[Grade]:
    """Degree-n layer of an image, read from the layers of its tail below n."""
    if op == _UNIT:
        return (1, {(): 1}) if n == 0 else None
    below = tail.get(n - 1)
    if op == _DRIFT:
        if below is None:
            return None
        return below[0], {(0,) + word: c for word, c in below[1].items()}
    # The tail itself enters a power step (x0 e) and the mixed channel (x1 e).
    if op == _INPUT and not mixed:
        if not d:
            return None
        below = None
    den = _pair_den(d, tail, n - 1)
    if below is not None:
        den = math.lcm(den, below[0])
    out = {(0,) + word: c for word, c in _shuffle_terms(d, tail, n - 1, den).items()}
    if below is not None:
        scale = den // below[0]
        if op == _POWER:
            for word, c in below[1].items():
                key = (0,) + word
                out[key] = out.get(key, 0) + scale * c
        if mixed:
            for word, c in below[1].items():
                out[(1,) + word] = scale * c
    return _reduced(den, out)


def _settle(layers, chain, weights, d: Series, n_out: int, mixed: bool, exact_to: int) -> Series:
    """Settle the output of layers through n_out and return it truncated there.

    chain lists the (key, tail key, op) of images to add, each tail before
    the keys built on it; weights lists (key, p, q) of the images the output
    sums, each with the coefficient p / q.
    """
    images = layers.images
    new = []
    for key, tail, op in chain:
        if key not in images:
            images[key] = image = (None if tail is None else images[tail][2], op, {})
            new.append(image)
    settled = layers.degree
    # Images added now (a word of c that only now fits under n_out) first
    # catch up on the degrees settled before; then every image grows.
    for n in range(0 if new else settled + 1, n_out + 1):
        for tail, op, graded in new if n <= settled else images.values():
            layer = _layer(op, tail, d._grades, n, mixed)
            if layer is not None:
                graded[n] = layer
                layers.terms += len(layer[1])
        if n <= settled:
            continue
        parts = [
            (p, q, layer) for key, p, q in weights if (layer := images[key][2].get(n)) is not None
        ]
        out = _combine(parts)
        if out is not None:
            layers.out[n] = out
            layers.terms += len(out[1])
        layers.degree = n
    if n_out >= layers.degree:
        grades = dict(layers.out)
    else:
        grades = {n: g for n, g in layers.out.items() if n <= n_out}
    return Series._graded(1, n_out, grades, exact_to)


def compose_at(
    c: Series, d: Series, n_out: int, mixed: bool = False, layers: Optional[ComposeLayers] = None
) -> Series:
    """Composition with an explicit output truncation degree.

    Valid whenever d is exact through n_out - 1; the network sweep relies on
    this to grow one degree per iteration instead of paying full depth every
    time, keeping the suffix images of c in layers between its calls.
    """
    _require_siso(c, d)
    if layers is None:
        layers = ComposeLayers()
    exact_to = min(c.exact_to, d.exact_to + 1, n_out)
    chain = [] if layers.images else [((), None, _UNIT)]
    weights = []
    for n, (den, grade) in c._grades.items():
        if n > n_out:
            break
        for word, num in grade.items():
            weights.append((word, num, den))
            if word not in layers.images:
                for start in range(n - 1, -1, -1):
                    suffix = word[start:]
                    chain.append((suffix, suffix[1:], _DRIFT if suffix[0] == 0 else _INPUT))
    return _settle(layers, chain, weights, d, n_out, mixed, exact_to)


def compose(c: Series, d: Series) -> Series:
    """Cascade composition c o d, truncated at the smaller operand degree."""
    return compose_at(c, d, min(c.max_degree, d.max_degree), mixed=False)


def mixed_compose(c: Series, d: Series) -> Series:
    """Composition with an identity channel: mixed_compose(c, 0) == c."""
    return compose_at(c, d, min(c.max_degree, d.max_degree), mixed=True)


def compose_maximal(
    spec: MaximalSeriesSpec,
    d: Series,
    n_out: int,
    mixed: bool,
    layers: Optional[ComposeLayers] = None,
) -> Series:
    """compose/mixed_compose with a maximal left operand, without enumerating words.

    The degree-k slice of a maximal series is K M^k k! (x0 + x1)^k, a
    concatenation power, so the image is K sum_k M^k k! A^k(1) where
    A(e) = x0 e + x0 (d sh e) (+ x1 e for the mixed product). Identical to
    the general route by linearity; this one stays polynomial in the degree.
    layers keeps the powers A^k(1) between calls.
    """
    if d.m != 1:
        raise AlphabetError("composition is defined over the alphabet {x0, x1}")
    Kp, Kq, Mp, Mq = spec.K.numerator, spec.K.denominator, spec.M.numerator, spec.M.denominator
    if layers is None:
        layers = ComposeLayers()
    chain = [
        (k, k - 1, _POWER) if k else (0, None, _UNIT)
        for k in range(len(layers.images), n_out + 1)
    ]
    weights = [(k, Kp * Mp**k * math.factorial(k), Kq * Mq**k) for k in range(n_out + 1)]
    exact_to = min(d.exact_to + 1, n_out)
    return _settle(layers, chain, weights, d, n_out, mixed, exact_to)
