"""Truncated noncommutative formal power series with exact coefficients.

A series is a finite map from words to rational coefficients, explicitly
truncated at a maximum degree. Each grade (the terms of one word length) is
stored as integer numerators over one positive denominator, reduced so that
the denominator and the numerators share no factor. Sums put their operands
over the lcm of their denominators and products multiply denominators, so
the algebra adds and multiplies integers and reduces once per grade instead
of taking a gcd on every operation. Coefficients are canonical int or
Fraction (int for denominator-1 values) at every public accessor: the
constructor, terms, coeff, items and JSON. All algebra here is exact;
floating point only enters at the simulation boundary.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Union

from .errors import AlphabetError, DomainError, ParseError
from .words import Word, check_word, format_word, words_of_length
from .words import _memo_shuffle as shuffle_words  # fills the memo it is passed

if TYPE_CHECKING:  # annotations only; numpy loads on the dense kernel's first call
    import numpy as np

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


# One grade: (denominator, {word: numerator}), den >= 1, no zero numerator,
# gcd(den, *numerators) == 1. Grades maps word length to grade.
Grade = tuple[int, dict[Word, int]]
Grades = dict[int, Grade]


def _value(num: int, den: int) -> Coeff:
    """The canonical coefficient num / den."""
    if den == 1:
        return num
    value = Fraction(num, den)
    return value.numerator if value.denominator == 1 else value


def _grade(coeffs: dict[Word, Coeff]) -> Grade:
    """The grade of nonzero canonical coefficients, over the lcm of their
    denominators (which leaves it reduced)."""
    den = math.lcm(*[c.denominator for c in coeffs.values()])
    return den, {word: c.numerator * (den // c.denominator) for word, c in coeffs.items()}


def _reduced(den: int, nums: dict[Word, int]) -> Optional[Grade]:
    """The grade nums / den with zeros dropped and the common factor divided
    out; None when no numerator is left."""
    if 0 in nums.values():
        nums = {word: c for word, c in nums.items() if c}
    if not nums:
        return None
    g = math.gcd(den, *nums.values())
    if g != 1:
        den //= g
        nums = {word: c // g for word, c in nums.items()}
    return den, nums


def _combine(parts: list[tuple[int, int, Grade]]) -> Optional[Grade]:
    """Reduced sum of (p / q) * grade over the (p, q, grade) parts.

    The operands go over the lcm of their scaled denominators, so the sum
    takes one division per operand, not per term.
    """
    if len(parts) == 1:
        p, q, (d, nums) = parts[0]
        if p == q == 1:
            return parts[0][2]
        return _reduced(q * d, {word: p * c for word, c in nums.items()})
    den = math.lcm(*[q * d for _, q, (d, _) in parts])
    acc: dict[Word, int] = {}
    for p, q, (d, nums) in parts:
        scale = p * (den // (q * d))
        for word, c in nums.items():
            acc[word] = acc.get(word, 0) + scale * c
    return _reduced(den, acc)


def _pair_den(a: Grades, b: Grades, n: int) -> int:
    """lcm of the denominator products of the grade pairs (i, n - i)."""
    return math.lcm(*[da * b[n - i][0] for i, (da, _) in a.items() if n - i in b])


def _check_int(value, what: str, low: int, error: type = DomainError) -> int:
    """The rule for every integer argument: an int, not a bool, at least low."""
    if not isinstance(value, int) or isinstance(value, bool) or value < low:
        raise error(f"{what} must be an integer >= {low}")
    return value


def _float(value: Coeff, what: str) -> float:
    """The rule for every exact value read as a float: one past its range is a DomainError."""
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{what} lies outside the float range") from None


def _check_real(value, what: str, low=None, strict: bool = False) -> float:
    """The rule for every real argument: a finite real, not a bool, >= low (> low if strict)."""
    if type(value) is not float:  # a float skips the isinstance test, ten times dearer
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        value = _float(value, what) if real else math.nan
    if math.isfinite(value) and (low is None or value > low or value == low and not strict):
        return value
    bound = "" if low is None else " and positive" if strict else f" and >= {low}"
    raise DomainError(f"{what} must be finite{bound}")


def _check_size(m, max_degree) -> None:
    """The sizes of every series built: an alphabet x0..xm with m >= 1, and max_degree >= 0."""
    _check_int(m, "m", 1, AlphabetError)
    _check_int(max_degree, "max_degree", 0)


class Series:
    """A formal power series truncated at max_degree.

    terms holds only nonzero coefficients of words of length <= max_degree
    over the alphabet x0..xm. exact_to is the degree through which the
    coefficients are certified exact; operations on truncated operands can
    only certify a prefix of the result (see the individual products).
    Instances are value objects: no method mutates an operand.

    The terms are stored graded by word length, one reduced grade per
    nonempty degree in ascending order, so the products below visit only
    the degree pairs that fit under the truncation. Grades may be shared
    between instances and are never mutated once stored.
    """

    __slots__ = ("m", "max_degree", "exact_to", "_grades")

    def __init__(self, m: int, max_degree: int, terms=None, exact_to=None):
        _check_size(m, max_degree)
        coeffs: dict[int, dict[Word, Coeff]] = {}
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
                    coeffs.setdefault(len(word), {})[word] = coeff
        self.m = m
        self.max_degree = max_degree
        self.exact_to = (
            max_degree if exact_to is None else min(_check_int(exact_to, "exact_to", 0), max_degree)
        )
        self._grades = {n: _grade(coeffs[n]) for n in sorted(coeffs)}

    @classmethod
    def _graded(cls, m: int, max_degree: int, grades: Grades, exact_to) -> "Series":
        """Trusted constructor for grades the package built itself.

        Words are not re-checked: every one is in the alphabet and stored
        under its own length <= max_degree. grades must be in ascending
        degree order, each one reduced (see Grade).
        """
        series = cls.__new__(cls)
        series.m = m
        series.max_degree = max_degree
        series.exact_to = min(exact_to, max_degree)
        series._grades = grades
        return series

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, m: int, max_degree: int) -> "Series":
        return cls(m, max_degree)

    @classmethod
    def one(cls, m: int, max_degree: int) -> "Series":
        return cls(m, max_degree, {(): 1})

    # -- basic queries ---------------------------------------------------------

    @property
    def terms(self):
        flat: dict[Word, Coeff] = {}
        for den, nums in self._grades.values():
            flat.update(
                nums if den == 1 else {w: _value(c, den) for w, c in nums.items()}
            )
        return MappingProxyType(flat)

    def coeff(self, word) -> Coeff:
        word = tuple(word)
        grade = self._grades.get(len(word))
        return _value(grade[1].get(word, 0), grade[0]) if grade else 0

    def support(self) -> set[Word]:
        return {word for _, nums in self._grades.values() for word in nums}

    def is_zero(self) -> bool:
        return not self._grades

    def items(self) -> Iterator[tuple[Word, Coeff]]:
        """Term pairs in graded lexicographic order."""
        for den, nums in self._grades.values():
            for word in sorted(nums):
                yield word, _value(nums[word], den)

    def __len__(self) -> int:
        return sum(len(nums) for _, nums in self._grades.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self.m == other.m
            and self.max_degree == other.max_degree
            and self._grades == other._grades
        )

    __hash__ = None

    def eq_to_degree(self, other: "Series", degree: int) -> bool:
        """Coefficientwise equality on all words of length <= degree."""
        degree = _check_int(degree, "degree", 0)
        keys = self._grades.keys() | other._grades.keys()
        return all(self._grades.get(n) == other._grades.get(n) for n in keys if n <= degree)

    def __repr__(self) -> str:
        if not self._grades:
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
        _check_size(self.m, degree)
        grades = {n: g for n, g in self._grades.items() if n <= degree}
        return Series._graded(self.m, degree, grades, min(self.exact_to, degree))

    def extended(self, max_degree: int, exact_to=None) -> "Series":
        """Raise the truncation degree without adding terms.

        The default keeps the current exactness certificate; pass exact_to
        explicitly for genuinely polynomial series, which are exact at every
        degree.
        """
        _check_size(self.m, max_degree)
        exact_to = self.exact_to if exact_to is None else _check_int(exact_to, "exact_to", 0)
        if max_degree < self.max_degree:
            return self.truncate(max_degree)
        return Series._graded(self.m, max_degree, self._grades, exact_to)

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
            raise TypeError("use concat_product or shuffle_product for series products")
        return linear_combine([(scalar, self)])


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
    parts: dict[int, list[tuple[int, int, Grade]]] = {}
    for scalar, series in pairs:
        scalar = as_coeff(scalar)
        if scalar == 0:
            continue
        p, q = scalar.numerator, scalar.denominator
        for n, grade in series._grades.items():
            if n > degree:
                break
            parts.setdefault(n, []).append((p, q, grade))
    grades: Grades = {}
    for n in sorted(parts):
        grade = _combine(parts[n])
        if grade is not None:
            grades[n] = grade
    return Series._graded(m, degree, grades, exact_to)


def _product(c: Series, d: Series, terms) -> Series:
    """The product whose degree-n numerators over den are terms(a, b, n, den)."""
    m = _common_alphabet((c, d))
    degree = min(c.max_degree, d.max_degree)
    exact_to = min(c.exact_to, d.exact_to, degree)
    grades: Grades = {}
    for n in range(degree + 1):
        den = _pair_den(c._grades, d._grades, n)
        grade = _reduced(den, terms(c._grades, d._grades, n, den))
        if grade is not None:
            grades[n] = grade
    return Series._graded(m, degree, grades, exact_to)


def _concat_terms(a: Grades, b: Grades, n: int, den: int) -> dict[Word, int]:
    acc: dict[Word, int] = {}
    for i, (da, left) in a.items():
        pair = b.get(n - i)
        if pair is None:
            continue
        db, right = pair
        scale = den // (da * db)
        for w1, c1 in left.items():
            c1 *= scale
            for w2, c2 in right.items():
                key = w1 + w2
                acc[key] = acc.get(key, 0) + c1 * c2
    return acc


def concat_product(c: Series, d: Series) -> Series:
    """Concatenation (Cauchy) product: coefficients convolve over word splits.

    Only grade pairs (i, j) with i + j <= degree are visited.
    """
    return _product(c, d, _concat_terms)


# Cost weights of the two shuffle kernels, in dense element operations: one
# update of the word-pair kernel, and the fixed cost of one array operation
# of the dense kernel. Measured on numpy object arrays of Python ints.
_WORD_UPDATE = 5
_ARRAY_CALL = 100


def _dense(nums: dict[Word, int], length: int, s: int, scale: int) -> np.ndarray:
    """scale times the numerators of a grade of words of one length, as an
    object array of s^length Python ints indexed by each word read as a
    base-s number, first letter most significant."""
    import numpy as np

    digits = np.frombuffer(b"".join(map(bytes, nums)), np.uint8).reshape(len(nums), length)
    arr = np.zeros(s**length, dtype=object)
    arr[digits @ s ** np.arange(length - 1, -1, -1)] = (
        list(nums.values()) if scale == 1 else [scale * c for c in nums.values()]
    )
    return arr


def _dense_shuffle(pairs: dict[int, tuple[np.ndarray, np.ndarray]], n: int, s: int) -> list[int]:
    """The sum over i of A_i sh B_(n - i), for pairs[i] = (A_i, B_(n - i)) as
    _dense arrays, as the list of its s^n Python ints in the same order.

    T[p][q] is the sum of (u^-1 A_i) sh (v^-1 B_j) over the pairs with
    i >= p and j >= q, as an (s^p, s^q, s^(n - p - q)) array over the words
    u of length p and v of length q. Where p + q = n it is the outer product
    of A_p and B_q. Elsewhere the left-quotient rule
    xa^-1 (S sh T) = (xa^-1 S) sh T + S sh (xa^-1 T) gives
        T[p][q][u, v, a w] = T[p + 1][q][u a, v, w] + T[p][q + 1][u, v a, w],
    a transpose of the one and a reshape of the other. T[0][0] is the sum.
    row[q] holds T[p][q] (None where no pair reaches), overwritten as p falls.
    """
    import numpy as np

    row: list[Optional[np.ndarray]] = []
    for p in range(n, -1, -1):
        sp = s**p
        pair = pairs.get(p)
        row.append(None if pair is None else np.multiply.outer(*pair)[..., None])
        for q in range(n - p - 1, -1, -1):
            sq, r = s**q, s ** (n - p - q - 1)
            t = None
            if row[q] is not None:
                t = row[q].reshape(sp, s, sq, r).transpose(0, 2, 1, 3)
            if row[q + 1] is not None:
                beside = row[q + 1].reshape(sp, sq, s, r)
                t = beside if t is None else t + beside
            row[q] = None if t is None else t.reshape(sp, sq, s * r)
    return row[0].ravel().tolist()


def _shuffle_terms(
    a: Grades, b: Grades, n: int, den: int, memo: dict, m: int = 1
) -> dict[Word, int]:
    """Numerators over den of the degree-n slice of the shuffle product of
    two graded term maps over the alphabet x0..xm.

    den must be a multiple of every grade pair's denominator product, as
    _pair_den(a, b, n) is. Only grade pairs (i, n - i) are visited, all by
    one kernel. The word-pair kernel takes at most C(n, i) updates per word
    pair through words._memo_shuffle and memo, which the caller owns. The
    dense one takes one array operation on s^n elements per quotient step
    of _dense_shuffle, (n + 1)(n + 2) / 2 of them, and uses no memo; it runs
    when that costs less for the pairs taken together, and when the
    word-pair kernel's floor of one update per word pair reaches s^n too,
    as C(n, i) overcounts drift-heavy words (x0^a sh x0^b is one word).
    Letters are read as bytes, so it needs s <= 256. Returns a flat word ->
    numerator dict of Python ints (zeros from cancellation included). Hot path.
    """
    s = m + 1
    pairs = [(i, a[i], b[n - i]) for i in a if n - i in b]
    sizes = {i: len(left) * len(right) for i, (_, left), (_, right) in pairs}
    updates = sum(size * math.comb(n, i) for i, size in sizes.items())
    if (s <= 256 and 2 * _WORD_UPDATE * updates > (n + 1) * (n + 2) * (s**n + _ARRAY_CALL)
            and _WORD_UPDATE * sum(sizes.values()) >= s**n):
        arrays = {
            i: (_dense(left, i, s, den // (da * db)), _dense(right, n - i, s, 1))
            for i, (da, left), (db, right) in pairs
        }
        return dict(zip(words_of_length(m, n), _dense_shuffle(arrays, n, s)))
    acc: dict[Word, int] = {}
    for i, (da, left), (db, right) in pairs:
        scale = den // (da * db)
        for w1, c1 in left.items():
            c1 *= scale
            for w2, c2 in right.items():
                prod = c1 * c2
                for word, mult in shuffle_words(w1, w2, memo).items():
                    acc[word] = acc.get(word, 0) + (prod if mult == 1 else prod * mult)
    return acc


def shuffle_product(c: Series, d: Series) -> Series:
    """Shuffle product, truncated at the smaller operand degree.

    Commutative and associative; the empty word is the unit. Each degree
    takes the cheaper of the dense quotient kernel and the word-pair
    recursion of words._memo_shuffle for all its grade pairs (see
    _shuffle_terms). The product fills a word-pair memo of its own, which
    goes when it returns.
    """
    return _product(c, d, partial(_shuffle_terms, memo={}, m=_common_alphabet((c, d))))


def positive_constants(K, M) -> tuple[Coeff, Coeff]:
    """Growth constants (K, M) as exact coefficients, both required positive."""
    K = as_coeff(K)
    M = as_coeff(M)
    if K <= 0 or M <= 0:
        raise DomainError("growth constants need K > 0 and M > 0")
    return K, M


@dataclass(frozen=True)
class MaximalSeriesSpec:
    """Constants (K, M) of a maximal series: every length-k coefficient is K M^k k!."""

    K: Coeff
    M: Coeff

    def __post_init__(self):
        K, M = positive_constants(self.K, self.M)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "M", M)

    def expand(self, m: int, max_degree: int) -> Series:
        return maximal_series(self.K, self.M, m, max_degree)


def maximal_series(K, M, m: int, max_degree: int) -> Series:
    """The series with <c, eta> = K M^|eta| |eta|! for every word eta."""
    K, M = positive_constants(K, M)
    _check_size(m, max_degree)
    Kp, Kq, Mp, Mq = K.numerator, K.denominator, M.numerator, M.denominator
    grades: Grades = {}
    for k in range(max_degree + 1):
        num, den = Kp * Mp**k * math.factorial(k), Kq * Mq**k
        g = math.gcd(num, den)
        grades[k] = (den // g, dict.fromkeys(words_of_length(m, k), num // g))
    return Series._graded(m, max_degree, grades, max_degree)


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
    K, M = positive_constants(K, M)
    Mp, Mq = M.numerator, M.denominator
    ratios = []
    passed = True
    for k in range(c.exact_to + 1):
        den, nums = c._grades.get(k, (1, {}))
        top = max(map(abs, nums.values()), default=0)
        ratio = _value(top * Mq**k, den * Mp**k * math.factorial(k))
        within = ratio <= K
        passed = passed and within
        ratios.append(DegreeRatio(k, ratio, within))
    return GrowthCheck(K, M, tuple(ratios), passed)


# -- JSON ----------------------------------------------------------------------


def series_to_json(c: Series) -> dict:
    """Plain-dict form: {"m", "degree", "terms": [{"word", "coeff"}, ...]}, then
    "exact_to" if the series is exact through less than its degree."""
    doc = {
        "m": c.m,
        "degree": c.max_degree,
        "terms": [
            {"word": list(word), "coeff": coeff_str(coeff)}
            for word, coeff in c.items()
        ],
    }
    if c.exact_to < c.max_degree:
        doc["exact_to"] = c.exact_to
    return doc


def _json_field(value, kind: type, what: str):
    """A field of a JSON document that must be an int or a list, as kind
    says; bools, other numbers and strings are rejected, not converted."""
    if type(value) is not kind:
        name = "an integer" if kind is int else "an array"
        raise ParseError(f"{what} must be {name}, not {value!r}")
    return value


def series_from_json(doc: dict) -> Series:
    try:
        m, degree, entries = doc["m"], doc["degree"], doc["terms"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed series document: {exc}") from exc
    terms: dict[Word, Coeff] = {}
    for entry in _json_field(entries, list, "series terms"):
        try:
            word = tuple(_json_field(entry["word"], list, "series word"))
            coeff = as_coeff(entry["coeff"])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed series term {entry!r}") from exc
        if word in terms:
            raise ParseError(f"duplicate word {word} in series document")
        terms[word] = coeff
    exact_to = doc.get("exact_to")
    return Series(_json_field(m, int, "series m"), _json_field(degree, int, "series degree"), terms,
                  None if exact_to is None else _json_field(exact_to, int, "series exact_to"))
