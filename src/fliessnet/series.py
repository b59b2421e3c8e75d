"""Truncated noncommutative formal power series with exact coefficients.

A series is a finite map from words to rational coefficients, explicitly
truncated at a maximum degree. Coefficients are held as Fraction, with plain
int as the canonical form of denominator-1 values. All algebra here is exact;
floating point only enters at the simulation boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple, Union

from .errors import AlphabetError, DomainError, ParseError
from .words import (
    Word,
    check_word,
    format_word,
    graded_key,
    shuffle_words,
    words_of_length,
)

Coeff = Union[int, Fraction]


def as_coeff(value) -> Coeff:
    """Normalize to the canonical exact form: int when integral, else Fraction.

    Accepts int, Fraction, str ('3', '1/2', '-7/3'), and float. Floats are
    converted exactly (every binary float is a rational), which is what the
    Monte Carlo sampling relies on.
    """
    if isinstance(value, bool):
        raise ParseError("booleans are not coefficients")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, str):
        try:
            frac = Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"cannot parse coefficient {value!r}") from exc
        return int(frac) if frac.denominator == 1 else frac
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ParseError(f"non-finite coefficient {value!r}")
        frac = Fraction(value)
        return int(frac) if frac.denominator == 1 else frac
    raise ParseError(f"unsupported coefficient type {type(value).__name__}")


def coeff_str(value: Coeff) -> str:
    """Serialize a coefficient as 'p' or 'p/q' in lowest terms."""
    frac = Fraction(value)
    if frac.denominator == 1:
        return str(frac.numerator)
    return f"{frac.numerator}/{frac.denominator}"


class Series:
    """A formal power series truncated at max_degree.

    terms holds only nonzero coefficients of words of length <= max_degree
    over the alphabet x0..xm. exact_to is the degree through which the
    coefficients are certified exact; operations on truncated operands can
    only certify a prefix of the result (see the individual products).
    Instances are value objects: no method mutates an operand.
    """

    __slots__ = ("m", "max_degree", "exact_to", "_terms")

    def __init__(self, m: int, max_degree: int, terms=None, exact_to=None):
        if m < 1:
            raise AlphabetError("alphabet needs at least x0 and x1")
        if max_degree < 0:
            raise DomainError("max_degree must be >= 0")
        self.m = m
        self.max_degree = max_degree
        self.exact_to = max_degree if exact_to is None else min(exact_to, max_degree)
        clean: dict[Word, Coeff] = {}
        if terms:
            for word, raw in terms.items():
                word = tuple(word)
                check_word(word, m)
                if len(word) > max_degree:
                    raise DomainError(
                        f"word of length {len(word)} exceeds max_degree {max_degree}"
                    )
                coeff = as_coeff(raw)
                if coeff != 0:
                    clean[word] = coeff
        self._terms = clean

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, m: int, max_degree: int) -> "Series":
        return cls(m, max_degree)

    @classmethod
    def one(cls, m: int, max_degree: int) -> "Series":
        return cls(m, max_degree, {(): 1})

    @classmethod
    def monomial(cls, m: int, max_degree: int, word, coeff=1) -> "Series":
        return cls(m, max_degree, {tuple(word): coeff})

    # -- basic queries ---------------------------------------------------------

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    def coeff(self, word) -> Coeff:
        return self._terms.get(tuple(word), 0)

    def support(self) -> set[Word]:
        return set(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_proper(self) -> bool:
        """True when the empty-word coefficient vanishes."""
        return () not in self._terms

    def items(self) -> Iterator[tuple[Word, Coeff]]:
        """Term pairs in graded lexicographic order."""
        for word in sorted(self._terms, key=graded_key):
            yield word, self._terms[word]

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.m == other.m
            and self.max_degree == other.max_degree
            and self._terms == other._terms
        )

    __hash__ = None

    def eq_to_degree(self, other: "Series", degree: int) -> bool:
        """Coefficientwise equality on all words of length <= degree."""
        for word, coeff in self._terms.items():
            if len(word) <= degree and other._terms.get(word, 0) != coeff:
                return False
        for word, coeff in other._terms.items():
            if len(word) <= degree and word not in self._terms:
                return False
        return True

    def __repr__(self) -> str:
        if not self._terms:
            body = "0"
        else:
            parts = []
            for word, coeff in self.items():
                name = format_word(word) if word else "1"
                parts.append(f"{coeff_str(coeff)}*[{name}]")
            body = " + ".join(parts)
        return f"Series(m={self.m}, N={self.max_degree}: {body})"

    # -- degree bookkeeping ----------------------------------------------------

    def truncate(self, degree: int) -> "Series":
        terms = {w: c for w, c in self._terms.items() if len(w) <= degree}
        return Series(self.m, degree, terms, exact_to=min(self.exact_to, degree))

    def extended(self, max_degree: int, exact_to=None) -> "Series":
        """Raise the truncation degree without adding terms.

        The default keeps the current exactness certificate; pass exact_to
        explicitly for genuinely polynomial series, which are exact at every
        degree.
        """
        if max_degree < self.max_degree:
            return self.truncate(max_degree)
        if exact_to is None:
            exact_to = self.exact_to
        return Series(self.m, max_degree, self._terms, exact_to=exact_to)

    # -- linear structure --------------------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        return linear_combine([(1, self), (1, other)])

    def __sub__(self, other: "Series") -> "Series":
        return linear_combine([(1, self), (-1, other)])

    def __neg__(self) -> "Series":
        return linear_combine([(-1, self)])

    def __rmul__(self, scalar) -> "Series":
        return linear_combine([(scalar, self)])

    def __mul__(self, scalar) -> "Series":
        if isinstance(scalar, Series):
            raise TypeError("use .concat or .shuffle for series products")
        return linear_combine([(scalar, self)])

    def concat(self, other: "Series") -> "Series":
        return concat_product(self, other)

    def shuffle(self, other: "Series") -> "Series":
        return shuffle_product(self, other)


def _common_alphabet(series: Iterable[Series]) -> int:
    ms = {c.m for c in series}
    if len(ms) > 1:
        raise AlphabetError(f"mixed alphabets {sorted(ms)}")
    return ms.pop()


def linear_combine(pairs: list[tuple[Coeff, Series]]) -> Series:
    """Finite linear combination sum_i a_i * c_i.

    The result is truncated at the smallest operand degree and certified
    exact to the smallest operand exact_to.
    """
    if not pairs:
        raise DomainError("empty linear combination has no alphabet")
    m = _common_alphabet(c for _, c in pairs)
    degree = min(c.max_degree for _, c in pairs)
    exact_to = min(c.exact_to for _, c in pairs)
    acc: dict[Word, Coeff] = {}
    for scalar, series in pairs:
        scalar = as_coeff(scalar)
        if scalar == 0:
            continue
        for word, coeff in series._terms.items():
            if len(word) > degree:
                continue
            acc[word] = acc.get(word, 0) + scalar * coeff
    return Series(m, degree, acc, exact_to=exact_to)


def concat_product(c: Series, d: Series) -> Series:
    """Concatenation (Cauchy) product: coefficients convolve over word splits."""
    m = _common_alphabet((c, d))
    degree = min(c.max_degree, d.max_degree)
    exact_to = min(c.exact_to, d.exact_to, degree)
    acc: dict[Word, Coeff] = {}
    for w1, a in c._terms.items():
        if len(w1) > degree:
            continue
        room = degree - len(w1)
        for w2, b in d._terms.items():
            if len(w2) > room:
                continue
            key = w1 + w2
            acc[key] = acc.get(key, 0) + a * b
    return Series(m, degree, acc, exact_to=exact_to)


def _shuffle_terms(a: dict, b: dict, limit: int) -> dict[Word, Coeff]:
    """Raw-dict shuffle with truncation at limit. Hot path."""
    acc: dict[Word, Coeff] = {}
    get = acc.get
    for w1, c1 in a.items():
        room = limit - len(w1)
        if room < 0:
            continue
        for w2, c2 in b.items():
            if len(w2) > room:
                continue
            prod = c1 * c2
            for word, mult in shuffle_words(w1, w2).items():
                acc[word] = get(word, 0) + prod * mult
    return acc


def shuffle_product(c: Series, d: Series) -> Series:
    """Shuffle product, truncated at the smaller operand degree.

    Commutative and associative; the empty word is the unit. Implemented on
    top of the memoized word-pair recursion in words.shuffle_words.
    """
    m = _common_alphabet((c, d))
    degree = min(c.max_degree, d.max_degree)
    exact_to = min(c.exact_to, d.exact_to, degree)
    acc = _shuffle_terms(c._terms, d._terms, degree)
    return Series(m, degree, acc, exact_to=exact_to)


class ScalarProduct(NamedTuple):
    value: Coeff
    exact: bool


def scalar_product(c: Series, d: Series) -> ScalarProduct:
    """<c, d> = sum over shared words of the coefficient products.

    The sum runs over words up to the smaller truncation degree; exact is
    False when either operand is not certified that far.
    """
    _common_alphabet((c, d))
    degree = min(c.max_degree, d.max_degree)
    exact = min(c.exact_to, d.exact_to) >= degree
    small, large = (c._terms, d._terms)
    if len(small) > len(large):
        small, large = large, small
    total: Coeff = 0
    for word, coeff in small.items():
        if len(word) <= degree:
            other = large.get(word)
            if other is not None:
                total += coeff * other
    return ScalarProduct(as_coeff(total), exact)


@dataclass(frozen=True)
class MaximalSeriesSpec:
    """Constants (K, M) of a maximal series: every length-k coefficient is K M^k k!."""

    K: Coeff
    M: Coeff

    def __post_init__(self):
        object.__setattr__(self, "K", as_coeff(self.K))
        object.__setattr__(self, "M", as_coeff(self.M))
        if self.K <= 0 or self.M <= 0:
            raise DomainError("maximal series needs K > 0 and M > 0")

    def expand(self, m: int, max_degree: int) -> Series:
        return maximal_series(self.K, self.M, m, max_degree)


def maximal_series(K, M, m: int, max_degree: int) -> Series:
    """The series with <c, eta> = K M^|eta| |eta|! for every word eta."""
    K = as_coeff(K)
    M = as_coeff(M)
    if K <= 0 or M <= 0:
        raise DomainError("maximal series needs K > 0 and M > 0")
    terms: dict[Word, Coeff] = {}
    for k in range(max_degree + 1):
        value = K * M**k * math.factorial(k)
        for word in words_of_length(m, k):
            terms[word] = value
    return Series(m, max_degree, terms)


@dataclass(frozen=True)
class DegreeRatio:
    degree: int
    max_ratio: Coeff
    within: bool


@dataclass(frozen=True)
class GrowthCheck:
    K: Coeff
    M: Coeff
    ratios: tuple[DegreeRatio, ...]
    passed: bool


def check_growth(c: Series, K, M) -> GrowthCheck:
    """Test |<c, eta>| <= K M^|eta| |eta|! degree by degree.

    Only degrees certified exact are examined. The per-degree ratio is
    max |coeff| / (M^k k!), so the check passes iff every ratio is <= K.
    """
    K = as_coeff(K)
    M = as_coeff(M)
    if K <= 0 or M <= 0:
        raise DomainError("growth constants must be positive")
    by_degree: dict[int, Coeff] = {}
    for word, coeff in c._terms.items():
        k = len(word)
        if k > c.exact_to:
            continue
        mag = -coeff if coeff < 0 else coeff
        if mag > by_degree.get(k, 0):
            by_degree[k] = mag
    ratios = []
    passed = True
    for k in range(c.exact_to + 1):
        scale = Fraction(M) ** k * math.factorial(k)
        ratio = as_coeff(Fraction(by_degree.get(k, 0)) / scale)
        within = ratio <= K
        passed = passed and within
        ratios.append(DegreeRatio(k, ratio, within))
    return GrowthCheck(K, M, tuple(ratios), passed)


# -- JSON ----------------------------------------------------------------------


def series_to_json(c: Series) -> dict:
    """Plain-dict form: {"m", "degree", "terms": [{"word", "coeff"}, ...]}."""
    return {
        "m": c.m,
        "degree": c.max_degree,
        "terms": [
            {"word": list(word), "coeff": coeff_str(coeff)}
            for word, coeff in c.items()
        ],
    }


def series_from_json(doc: dict) -> Series:
    try:
        m = int(doc["m"])
        degree = int(doc["degree"])
        entries = doc["terms"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed series document: {exc}") from exc
    terms: dict[Word, Coeff] = {}
    for entry in entries:
        try:
            word = tuple(int(x) for x in entry["word"])
            coeff = as_coeff(entry["coeff"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed series term {entry!r}") from exc
        if word in terms:
            raise ParseError(f"duplicate word {word} in series document")
        terms[word] = coeff
    return Series(m, degree, terms)
