"""Words over the alphabet {x0, ..., xm} and word-level combinatorics.

A word is a tuple of letter indices. Index 0 is the drift letter x0; for
single-input systems the canonical alphabet is {x0, x1}. Words are ordered
graded lexicographically: shorter words first, ties broken letter by letter.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .errors import AlphabetError, ParseError

Word = tuple[int, ...]

EMPTY_WORD: Word = ()


def check_word(word: Word, m: int) -> None:
    """Reject letters outside 0..m."""
    for letter in word:
        if not isinstance(letter, int) or isinstance(letter, bool):
            raise ParseError(f"letter {letter!r} is not an integer index")
        if letter < 0 or letter > m:
            raise AlphabetError(f"letter x{letter} outside alphabet x0..x{m}")


def parse_word(text: str, m: int) -> Word:
    """Parse a space-separated word, accepting tokens like 'x1' or bare '1'.

    The empty string is the empty word.
    """
    tokens = text.split()
    letters = []
    for token in tokens:
        body = token[1:] if token.startswith("x") else token
        try:
            letter = int(body)
        except ValueError:
            raise ParseError(f"cannot parse letter token {token!r}") from None
        if letter < 0:
            raise ParseError(f"negative letter index in token {token!r}")
        if letter > m:
            raise AlphabetError(f"letter x{letter} outside alphabet x0..x{m}")
        letters.append(letter)
    return tuple(letters)


def format_word(word: Word) -> str:
    """Canonical text form, e.g. (0, 1) -> 'x0 x1'. Empty word -> ''."""
    return " ".join(f"x{letter}" for letter in word)


def graded_key(word: Word) -> tuple[int, Word]:
    return (len(word), word)


def words_of_length(m: int, k: int) -> Iterator[Word]:
    """All (m+1)^k words of length k in lexicographic order."""
    return itertools.product(range(m + 1), repeat=k)


def all_words(m: int, max_degree: int) -> Iterator[Word]:
    """All words of length <= max_degree in graded lexicographic order."""
    for k in range(max_degree + 1):
        yield from words_of_length(m, k)


def leading_zeros(word: Word) -> int:
    """Number of x0 letters before the first non-drift letter."""
    count = 0
    for letter in word:
        if letter != 0:
            break
        count += 1
    return count


# Filled by the word-pair kernel of series._shuffle_terms, which takes only
# the slices of sparse or small grades; a slice that takes the dense kernel
# leaves nothing here. Cleared in place when a closed loop starts and when one
# raises, and when shuffle_product or shuffle_words returns: only a loop that
# returned leaves its pairs here, until the next loop starts.
_shuffle_cache: dict[tuple[Word, Word], dict[Word, int]] = {}


def shuffle_words(u: Word, v: Word) -> dict[Word, int]:
    """Shuffle product of two words as a multiplicity map.

    Defined by the recursion
        (a u') sh (b v') = a (u' sh (b v')) + b ((a u') sh v')
    with the empty word as unit. The result sums to C(|u|+|v|, |u|) and every
    output word has length |u| + |v|. The call empties the shuffle memo when
    it returns.
    """
    try:
        return _memo_shuffle(u, v)
    finally:
        _shuffle_cache.clear()


def _memo_shuffle(u: Word, v: Word) -> dict[Word, int]:
    """shuffle_words through the memo, which it leaves filled."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    if u > v:
        u, v = v, u
    cached = _shuffle_cache.get((u, v))
    if cached is not None:
        return cached
    out: dict[Word, int] = {}
    for word, mult in _memo_shuffle(u[1:], v).items():
        key = (u[0],) + word
        out[key] = out.get(key, 0) + mult
    for word, mult in _memo_shuffle(u, v[1:]).items():
        key = (v[0],) + word
        out[key] = out.get(key, 0) + mult
    _shuffle_cache[(u, v)] = out
    return out
