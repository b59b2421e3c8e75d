"""Words over {x0, ..., xm}: parsing, enumeration, shuffles."""

from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fliessnet import (
    AlphabetError,
    ParseError,
    format_word,
    leading_zeros,
    parse_word,
    shuffle_words,
    words_of_length,
)


def brute_shuffle(u: tuple[int, ...], v: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Interleaving count straight from the definition, for cross-checking."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out: dict[tuple[int, ...], int] = {}
    for head, rest_u, rest_v in ((u[0], u[1:], v), (v[0], u, v[1:])):
        for word, count in brute_shuffle(rest_u, rest_v).items():
            key = (head,) + word
            out[key] = out.get(key, 0) + count
    return out


words_st = st.lists(st.integers(min_value=0, max_value=2), max_size=4).map(tuple)


class TestParsing:
    def test_parse_letter_names(self):
        assert parse_word("x0 x1 x0", 1) == (0, 1, 0)

    def test_parse_bare_integers(self):
        assert parse_word("0 2 1", 2) == (0, 2, 1)

    def test_parse_empty(self):
        assert parse_word("", 1) == ()
        assert parse_word("   ", 1) == ()

    def test_roundtrip(self):
        for word in (w for k in range(4) for w in words_of_length(2, k)):
            assert parse_word(format_word(word), 2) == word

    def test_rejects_out_of_alphabet(self):
        with pytest.raises(AlphabetError):
            parse_word("x0 x2", 1)

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_word("x0 banana", 1)

    @pytest.mark.parametrize("token", ["x+1", "+1", "x1_0", "x\u0661"],
                             ids=["plus", "bare plus", "underscore", "arabic-indic one"])
    def test_letters_are_ascii_digits(self, token):
        """int() once read each of these as a letter: x1, x1, x10 and x1."""
        with pytest.raises(ParseError, match=re.escape(f"cannot parse letter token {token!r}")):
            parse_word(f"x0 {token}", 20)


class TestEnumeration:
    def test_counts(self):
        # (m+1)^k words of length k
        assert len(list(words_of_length(2, 3))) == 27

    def test_lexicographic_within_a_length(self):
        assert list(words_of_length(1, 2)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        ws = list(words_of_length(2, 3))
        assert ws == sorted(ws) and len(set(ws)) == len(ws)
        assert list(words_of_length(3, 0)) == [()]

    def test_leading_zeros(self):
        assert leading_zeros((0, 0, 1, 0)) == 2
        assert leading_zeros((1,)) == 0
        assert leading_zeros((0, 0)) == 2
        assert leading_zeros(()) == 0


class TestShuffle:
    def test_empty_is_identity(self):
        assert shuffle_words((), (0, 1)) == {(0, 1): 1}

    def test_single_letters(self):
        assert shuffle_words((0,), (1,)) == {(0, 1): 1, (1, 0): 1}

    def test_square_of_letter(self):
        assert shuffle_words((1,), (1,)) == {(1, 1): 2}

    @given(words_st, words_st)
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, u, v):
        assert dict(shuffle_words(u, v)) == brute_shuffle(u, v)

    @given(words_st, words_st)
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, u, v):
        assert dict(shuffle_words(u, v)) == dict(shuffle_words(v, u))

    @given(words_st)
    @settings(max_examples=40, deadline=None)
    def test_total_multiplicity(self, u):
        # sum of multiplicities is binom(|u|+|v|, |u|)
        v = (0, 1)
        total = sum(shuffle_words(u, v).values())
        assert total == math.comb(len(u) + len(v), len(u))
