"""Cascade and feedback substitution products against a definitional oracle.

The oracle expands psi(eta)(1) literally: reading the word right to left,
the drift letter prepends x0, and the input letter inserts the inner series
through a shuffle (plus a direct copy in the mixed variant). No truncation
tricks, no sharing; it is only usable for tiny inputs, which is the point.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from fliessnet import (
    Series,
    compose_at,
    compose_maximal,
    maximal_series,
    mixed_compose,
    MaximalSeriesSpec,
)
from fliessnet.compose import compose
from conftest import make_random_series
from test_words import brute_shuffle


def oracle_compose(c: Series, d: Series, mixed: bool = False) -> dict:
    out: dict[tuple, Fraction] = {}
    d_terms = dict(d.terms)
    for word, cf in c.terms.items():
        img = {(): Fraction(1)}
        for letter in reversed(word):
            nxt: dict[tuple, Fraction] = {}
            for e, v in img.items():
                if letter == 0:
                    key = (0,) + e
                    nxt[key] = nxt.get(key, Fraction(0)) + v
                else:
                    if mixed:
                        key = (1,) + e
                        nxt[key] = nxt.get(key, Fraction(0)) + v
                    for dw, dv in d_terms.items():
                        for sw, mult in brute_shuffle(dw, e).items():
                            key = (0,) + sw
                            nxt[key] = nxt.get(key, Fraction(0)) + v * Fraction(dv) * mult
            img = nxt
        for w, v in img.items():
            out[w] = out.get(w, Fraction(0)) + Fraction(cf) * v
    return {w: v for w, v in out.items() if v != 0}


def assert_matches_oracle(result: Series, oracle: dict, degree: int):
    for w in set(oracle) | result.support():
        if len(w) <= degree:
            assert result.coeff(w) == oracle.get(w, 0), w


class TestComposeBasics:
    def test_double_integrator_cascade(self):
        x1 = Series(1, 4, {(1,): 1})
        c = Series(1, 4, {(1, 1): 1})
        got = compose(c, x1)
        assert dict(got.terms) == {(0, 1, 0, 1): 1, (0, 0, 1, 1): 2}

    def test_drift_words_pass_through(self):
        c = Series(1, 3, {(0, 0): 5})
        d = make_random_series(random.Random(3), degree=3)
        assert dict(compose(c, d).terms) == {(0, 0): 5}

    def test_empty_word_passes_through(self):
        c = Series(1, 3, {(): 7})
        d = Series(1, 3, {(1,): 1})
        assert dict(compose(c, d).terms) == {(): 7}

    def test_mixed_with_zero_is_identity(self):
        c = Series(1, 4, {(1, 0, 1): 3, (0,): 2, (): 1})
        z = Series.zero(1, 4)
        assert mixed_compose(c, z) == c

    def test_output_degree_camp(self):
        c = Series(1, 2, {(1,): 1})
        d = Series(1, 2, {(1,): 1})
        out = compose_at(c, d, 6)
        assert out.max_degree == 6
        assert out.exact_to == min(c.exact_to, d.exact_to + 1, 6)


class TestComposeOracle:
    def test_random_against_oracle(self, rng: random.Random):
        for _ in range(30):
            c = make_random_series(rng, degree=3, max_terms=3)
            d = make_random_series(rng, degree=2, max_terms=3)
            degree = 6
            got = compose_at(c, d, degree)
            assert_matches_oracle(got, oracle_compose(c, d), min(degree, got.exact_to))

    def test_random_mixed_against_oracle(self, rng: random.Random):
        for _ in range(30):
            c = make_random_series(rng, degree=3, max_terms=3)
            d = make_random_series(rng, degree=2, max_terms=3)
            degree = 6
            got = compose_at(c, d, degree, mixed=True)
            assert_matches_oracle(
                got, oracle_compose(c, d, mixed=True), min(degree, got.exact_to)
            )


class TestComposeStructure:
    def test_linear_in_left_argument(self, rng: random.Random):
        d = make_random_series(rng, degree=3, proper=True)
        a = make_random_series(rng, degree=3)
        b = make_random_series(rng, degree=3)
        left = compose_at(a + b, d, 5)
        right = compose_at(a, d, 5) + compose_at(b, d, 5)
        assert left.eq_to_degree(right, min(left.exact_to, right.exact_to))

    def test_degreewise_causality(self, rng: random.Random):
        # output through degree n depends on d only through degree n - 1
        c = make_random_series(rng, degree=4)
        d_low = make_random_series(rng, degree=2)
        bump = Series(1, 3, {(0, 1, 1): 7})
        d_high = d_low.extended(3) + bump
        n = 3
        a = compose_at(c, d_low.extended(3), n)
        b = compose_at(c, d_high, n)
        assert a.eq_to_degree(b, n)

    def test_composition_associative_with_cascade(self):
        # (c o d) o e == c o (d o e) for small polynomial inputs
        c = Series(1, 3, {(1, 1): 1})
        d = Series(1, 3, {(1,): 2, (0,): 1})
        e = Series(1, 3, {(1,): Fraction(1, 2)})
        n = 7
        left = compose_at(compose_at(c, d, n), e, n)
        right = compose_at(c, compose_at(d, e, n), n)
        assert left.eq_to_degree(right, min(left.exact_to, right.exact_to))


class TestMaximalFastPath:
    @pytest.mark.parametrize("mixed", [False, True])
    def test_matches_general_path(self, mixed, rng: random.Random):
        spec = MaximalSeriesSpec(Fraction(1, 2), 2)
        # An improper d puts 1 + d_0 in the drift quotient of the image;
        # d_0 = -1 leaves that quotient without a degree-0 grade.
        cases = [(make_random_series(rng, degree=3, proper=proper), n)
                 for proper, n in itertools.product((True, False), range(8))]
        cases += [(Series(1, 3, {(): -1, (1,): 2, (0, 1): 3}), n) for n in range(8)]
        for d, n in cases:
            fast = compose_maximal(spec, d, n, mixed)
            slow = compose_at(spec.expand(1, n), d, n, mixed)
            assert fast.eq_to_degree(slow, min(fast.exact_to, slow.exact_to))
            assert fast.exact_to == slow.exact_to

    def test_zero_feedback_recovers_expansion(self):
        spec = MaximalSeriesSpec(3, 1)
        z = Series.zero(1, 4)
        out = compose_maximal(spec, z, 4, mixed=False)
        drift_only = {w: v for w, v in maximal_series(3, 1, 1, 4).terms.items()
                      if all(letter == 0 for letter in w)}
        assert dict(out.terms) == drift_only
