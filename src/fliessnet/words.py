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


def words_of_length(m: int, k: int) -> Iterator[Word]:
    """All (m+1)^k words of length k in lexicographic order."""
    return itertools.product(range(m + 1), repeat=k)


def leading_zeros(word: Word) -> int:
    """Number of x0 letters before the first non-drift letter."""
    count = 0
    for letter in word:
        if letter != 0:
            break
        count += 1
    return count


# The word-pair memo of the closed loop: network hands it to every node's
# composition, in every component and for every input the call settles. Each
# composition counts its words against TERM_CAP after every degree it
# settles, and the loop empties it after each input and when it raises.
# Every other shuffle passes a memo of its own. It is a module global only
# because bench/spans.py reads its size as words.memo_entries.
_shuffle_cache: dict[tuple[Word, Word], dict[Word, int]] = {}


def shuffle_words(u: Word, v: Word) -> dict[Word, int]:
    """Shuffle product of two words as a multiplicity map.

    Defined by the recursion
        (a u') sh (b v') = a (u' sh (b v')) + b ((a u') sh v')
    with the empty word as unit. The result sums to C(|u|+|v|, |u|) and every
    output word has length |u| + |v|. The call keeps its memo to itself.
    """
    return _memo_shuffle(u, v, {})


def _memo_shuffle(u: Word, v: Word, memo: dict) -> dict[Word, int]:
    """shuffle_words through memo, which it fills with every pair it expands."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    if u > v:
        u, v = v, u
    cached = memo.get((u, v))
    if cached is not None:
        return cached
    out: dict[Word, int] = {}
    for word, mult in _memo_shuffle(u[1:], v, memo).items():
        key = (u[0],) + word
        out[key] = out.get(key, 0) + mult
    for word, mult in _memo_shuffle(u, v[1:], memo).items():
        key = (v[0],) + word
        out[key] = out.get(key, 0) + mult
    memo[(u, v)] = out
    return out
