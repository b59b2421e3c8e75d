"""Composition products for single-input generating series.

compose(c, d) is the generating series of the cascade F_c[F_d[v]]: each
non-drift letter of c is substituted by e -> x0 (d sh e), the drift letter
prepends x0. mixed_compose(c, d) realizes the direct-plus-feedback channel
u = v + F_d[v] via the substitution e -> x1 e + x0 (d sh e).

Both products are linear in c, and the coefficient of a degree-n output word
depends on d only through degree n-1: every substitution prepends at least
one letter. That degreewise causality is what makes the network fixed point
converge in finitely many sweeps, and it lets the products run one degree at
a time. Each kind of left operand has one route, whose state a ComposeLayers
keeps between calls, so a call that raises n_out by one computes only the
new degree: a polynomial c keeps the image of every suffix of its words, a
maximal c its image Y and the factor M Z of its equation Y = K + M (Z sh Y)
(see compose_maximal). States are held as grades of the series core.
"""

from __future__ import annotations

from typing import Optional

from .errors import AlphabetError
from .series import Grade, Grades, MaximalSeriesSpec, Series
from .series import _check_size, _combine, _pair_den, _reduced, _shuffle_terms

_ONE: Grade = (1, {(): 1})


class ComposeLayers:
    """The state of one composition, kept between calls.

    One instance serves one left operand: the first call builds the state
    from c (or the maximal spec) and the mixed flag, and every later call
    must pass the same ones, with a d that agrees with the earlier ones
    through their n_out - 1. out holds the output grades settled through
    degree; terms counts every term held. memo is the word-pair memo of its
    shuffles, a private one unless the caller passes one to share.
    """

    __slots__ = ("degree", "state", "out", "terms", "memo")

    def __init__(self, memo: Optional[dict] = None):
        self.degree = -1
        self.state = None
        self.out: Grades = {}
        self.terms = 0
        self.memo = {} if memo is None else memo

    def store(self, grades: Grades, n: int, grade: Optional[Grade]) -> None:
        """Store grade as degree n of grades (out or a state map) unless None."""
        if grade is not None:
            grades[n] = grade
            self.terms += len(grade[1])

    def result(self, n_out: int, exact_to: int) -> Series:
        """The output settled so far, truncated at n_out."""
        grades = {n: g for n, g in self.out.items() if n <= n_out}
        return Series._graded(1, n_out, grades, exact_to)


def _require_siso(*series: Series) -> None:
    if any(s.m != 1 for s in series):
        raise AlphabetError("composition is defined over the alphabet {x0, x1}")


def _prefix(letter: int, grade: Grade) -> Grade:
    return grade[0], {(letter,) + word: c for word, c in grade[1].items()}


def _layer(
    letter: int, tail: Grades, d: Grades, n: int, mixed: bool, memo: dict
) -> Optional[Grade]:
    """Degree-n layer of the image of a word starting with letter, from the
    layers below n of the image e of its tail: x0 e for the drift letter,
    x0 (d sh e) + [mixed] x1 e for the input letter."""
    below = tail.get(n - 1)
    if letter == 0:
        return None if below is None else _prefix(0, below)
    parts = [(1, 1, _prefix(1, below))] if mixed and below is not None else []
    if d:
        den = _pair_den(d, tail, n - 1)
        shuffled = _reduced(den, _shuffle_terms(d, tail, n - 1, den, memo))
        if shuffled is not None:
            parts.append((1, 1, _prefix(0, shuffled)))
    return _combine(parts)


def compose_at(
    c: Series, d: Series, n_out: int, mixed: bool = False, layers: Optional[ComposeLayers] = None
) -> Series:
    """Composition with an explicit output truncation degree.

    Valid whenever d is exact through n_out - 1; the network sweep relies on
    this to grow one degree per iteration instead of paying full depth every
    time. layers keeps the images of the suffixes of every word of c, all
    registered on the first call whatever its n_out, so it serves one c.
    """
    _require_siso(c, d)
    _check_size(1, n_out)
    if layers is None:
        layers = ComposeLayers()
    if layers.state is None:
        # The image of every suffix of every word of c, after that of its tail.
        layers.state = {(): {0: _ONE}}
        for _, grade in c._grades.values():
            for word in grade:
                for start in range(len(word) - 1, -1, -1):
                    layers.state.setdefault(word[start:], {})
    images = layers.state
    for n in range(layers.degree + 1, n_out + 1):
        for suffix, graded in images.items():
            if 0 < len(suffix) <= n:
                tail = images[suffix[1:]]
                layers.store(graded, n, _layer(suffix[0], tail, d._grades, n, mixed, layers.memo))
        parts = [
            (num, den, layer)
            for den, grade in c._grades.values()
            for word, num in grade.items()
            if (layer := images[word].get(n)) is not None
        ]
        layers.store(layers.out, n, _combine(parts))
        layers.degree = n
    return layers.result(n_out, min(c.exact_to, d.exact_to + 1, n_out))


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

    The maximal series (K, M) generates y = K / (1 - M int(1 + u)), so its
    image Y solves the shuffle equation Y = K + M (Z sh Y), where E = 1 + d
    and Z = x0 E (+ x1 for the mixed product). Z is proper, so degree n of Y
    is one shuffle slice of M Z against Y below n, with (M Z)_n = M x0 E_(n-1)
    (+ M x1 at n = 1): the causality and exact_to of the general route, whose
    result this equals by linearity. layers keeps M Z and Y, so it serves one
    spec and mixed flag.
    """
    _require_siso(d)
    _check_size(1, n_out)
    Mp, Mq = spec.M.numerator, spec.M.denominator
    if layers is None:
        layers = ComposeLayers()
    if layers.state is None:
        layers.state = {}
        layers.store(layers.out, 0, (spec.K.denominator, {(): spec.K.numerator}))
        layers.degree = 0
    MZ, Y = layers.state, layers.out
    for n in range(layers.degree + 1, n_out + 1):
        z = [(0, g) for g in (_ONE if n == 1 else None, d._grades.get(n - 1)) if g]
        z += [(1, _ONE)] if mixed and n == 1 else []
        layers.store(MZ, n, _combine([(Mp, Mq, _prefix(a, g)) for a, g in z]))
        den = _pair_den(MZ, Y, n)
        layers.store(Y, n, _reduced(den, _shuffle_terms(MZ, Y, n, den, layers.memo)))
        layers.degree = n
    return layers.result(n_out, min(d.exact_to + 1, n_out))
