"""Series container semantics and the shuffle/concatenation algebra."""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fliessnet import (
    AlphabetError,
    DomainError,
    Grid,
    MaximalSeriesSpec,
    NetworkSpec,
    ParseError,
    Series,
    as_coeff,
    check_growth,
    coeff_str,
    compose_at,
    compose_maximal,
    concat_product,
    linear_combine,
    maximal_series,
    scalar_product,
    series_from_json,
    series_to_json,
    shuffle_product,
)
from conftest import make_random_series


X1 = Series(1, 3, {(1,): 1})


def series_st(m=1, degree=3):
    coeffs = st.fractions(
        min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
    )
    word = st.lists(st.integers(0, m), max_size=degree).map(tuple)
    return st.dictionaries(word, coeffs, max_size=5).map(
        lambda terms: Series(m, degree, terms)
    )


class TestCoeff:
    def test_int_is_canonical(self):
        assert as_coeff(Fraction(4, 2)) == 2
        assert isinstance(as_coeff(Fraction(4, 2)), int)
        assert as_coeff("6/4") == Fraction(3, 2)

    def test_rejects_bool_and_nonfinite(self):
        with pytest.raises(ParseError):
            as_coeff(True)
        with pytest.raises(ParseError):
            as_coeff(float("inf"))

    def test_float_is_exact(self):
        assert as_coeff(0.5) == Fraction(1, 2)
        assert as_coeff(0.1) == Fraction(0.1)  # the binary value, not 1/10

    def test_str_roundtrip(self):
        for text in ("0", "-7", "3/8", "-22/7"):
            assert coeff_str(as_coeff(text)) == text


class TestSeriesContainer:
    def test_zero_terms_pruned(self):
        c = Series(1, 3, {(0,): 0, (1,): 2})
        assert c.support() == {(1,)}

    def test_coeff_lookup(self):
        c = Series(1, 3, {(0, 1): Fraction(1, 3)})
        assert c.coeff((0, 1)) == Fraction(1, 3)
        assert c.coeff((1, 0)) == 0

    def test_rejects_long_word(self):
        with pytest.raises(DomainError):
            Series(1, 2, {(0, 0, 0): 1})

    def test_rejects_bad_letter(self):
        with pytest.raises(Exception):
            Series(1, 3, {(2,): 1})

    @pytest.mark.parametrize("make,error", [
        (lambda: Series(1, 2.5, {(1,): 1}), DomainError),
        (lambda: Series(1, 2.0), DomainError),
        (lambda: Series(1, True), DomainError),
        (lambda: Series(True, 2), AlphabetError),
        (lambda: Series(1.0, 2), AlphabetError),
        (lambda: NetworkSpec(True, [[0]], [Series(1, 1, {(1,): 1})]), DomainError),
        (lambda: NetworkSpec(1.0, [[0]], [Series(1, 1, {(1,): 1})]), DomainError),
        (lambda: Grid(0.0, 1.0, 2.5), DomainError),
        (lambda: Grid(0.0, 1.0, True), DomainError),
    ], ids=["Series degree 2.5", "Series degree 2.0", "Series degree True", "Series m True",
            "Series m 1.0", "NetworkSpec m True", "NetworkSpec m 1.0", "Grid n 2.5", "Grid n True"])
    def test_rejects_sizes_that_are_not_ints(self, make, error):
        """A size must be an int, not a bool, as for the closed-loop degree:
        Series(1, 2.5) once built a series of max_degree 2.5, and Grid(0, 1, 2.5)
        failed only later, in its times."""
        with pytest.raises(error, match="integer"):
            make()

    @pytest.mark.parametrize("make,error", [
        (lambda: X1.truncate(2.5), DomainError),
        (lambda: X1.truncate(True), DomainError),
        (lambda: X1.extended(5.5), DomainError),
        (lambda: X1.extended(True), DomainError),
        (lambda: maximal_series(1, 1, 0, 2), AlphabetError),
        (lambda: maximal_series(1, 1, 1, -1), DomainError),
        (lambda: compose_at(X1, X1, -1), DomainError),
        (lambda: compose_at(X1, X1, 2.5), DomainError),
        (lambda: compose_maximal(MaximalSeriesSpec(1, 1), X1, -2, False), DomainError),
    ], ids=["truncate 2.5", "truncate True", "extended 5.5", "extended True", "maximal m 0",
            "maximal degree -1", "compose_at -1", "compose_at 2.5", "compose_maximal -2"])
    def test_degree_and_alphabet_arguments_follow_the_constructor_rule(self, make, error):
        """Each of these once built a series of max_degree 2.5, True, -1 or -2,
        or over an alphabet without x1, or raised a bare TypeError."""
        with pytest.raises(error, match="integer"):
            make()

    def test_items_graded_lex(self):
        c = Series(1, 3, {(1, 1): 1, (0,): 2, (): 3, (1,): 4})
        assert [w for w, _ in c.items()] == [(), (0,), (1,), (1, 1)]

    def test_truncate_lowers_exactness(self):
        c = Series(1, 4, {(0, 0, 0): 1, (1,): 1})
        t = c.truncate(2)
        assert t.max_degree == 2
        assert t.exact_to == 2
        assert t.support() == {(1,)}

    def test_extended_keeps_exactness_marker(self):
        c = Series(1, 2, {(1,): 1})
        e = c.extended(5)
        assert e.max_degree == 5
        assert e.exact_to == 2
        p = c.extended(5, exact_to=5)
        assert p.exact_to == 5

    def test_is_proper(self):
        assert Series(1, 2, {(1,): 1}).is_proper()
        assert not Series(1, 2, {(): 1}).is_proper()

    def test_equality_ignores_exactness(self):
        a = Series(1, 3, {(1,): 1}, exact_to=3)
        b = Series(1, 3, {(1,): 1}, exact_to=2)
        assert a == b
        assert a != Series(1, 4, {(1,): 1})

    def test_eq_to_degree(self):
        a = Series(1, 4, {(1,): 1, (0, 0, 0): 5})
        b = Series(1, 4, {(1,): 1})
        assert a.eq_to_degree(b, 2)
        assert not a.eq_to_degree(b, 3)

    def test_series_times_series_raises(self):
        c = Series(1, 2, {(1,): 1})
        with pytest.raises(TypeError):
            c * c  # noqa: B018


class TestAlgebraLaws:
    @given(series_st(), series_st())
    @settings(max_examples=60, deadline=None)
    def test_shuffle_commutative(self, a, b):
        assert shuffle_product(a, b) == shuffle_product(b, a)

    @given(series_st(m=1, degree=2), series_st(m=1, degree=2), series_st(m=1, degree=2))
    @settings(max_examples=40, deadline=None)
    def test_shuffle_associative(self, a, b, c):
        left = shuffle_product(shuffle_product(a, b), c)
        right = shuffle_product(a, shuffle_product(b, c))
        assert left.eq_to_degree(right, 2)

    @given(series_st(), series_st(), series_st())
    @settings(max_examples=40, deadline=None)
    def test_shuffle_distributes_over_sum(self, a, b, c):
        left = shuffle_product(a, b + c)
        right = shuffle_product(a, b) + shuffle_product(a, c)
        assert left == right

    @given(series_st())
    @settings(max_examples=30, deadline=None)
    def test_one_is_shuffle_identity(self, a):
        one = Series.one(a.m, a.max_degree)
        assert shuffle_product(a, one) == a

    @given(series_st(m=1, degree=2), series_st(m=1, degree=2), series_st(m=1, degree=2))
    @settings(max_examples=40, deadline=None)
    def test_concat_associative(self, a, b, c):
        left = concat_product(concat_product(a, b), c)
        right = concat_product(a, concat_product(b, c))
        assert left.eq_to_degree(right, 2)

    @given(series_st(), series_st())
    @settings(max_examples=40, deadline=None)
    def test_concat_not_required_commutative_but_linear(self, a, b):
        two_a = 2 * a
        assert concat_product(two_a, b) == 2 * concat_product(a, b)

    def test_concat_on_words(self):
        a = Series(1, 4, {(0, 1): 2})
        b = Series(1, 4, {(1,): Fraction(1, 2)})
        assert concat_product(a, b).terms == {(0, 1, 1): 1}

    @given(series_st(), series_st())
    @settings(max_examples=40, deadline=None)
    def test_scalar_product_symmetric(self, a, b):
        assert scalar_product(a, b).value == scalar_product(b, a).value

    def test_scalar_product_exactness_flag(self):
        a = Series(1, 4, {(1,): 1})
        b = Series(1, 2, {(1,): 3}, exact_to=1)
        sp = scalar_product(a, b)
        assert sp.value == 3
        assert not sp.exact


class TestMaximalSeries:
    def test_coefficients(self):
        c = maximal_series(2, 3, 1, 3)
        assert c.coeff(()) == 2
        assert c.coeff((0, 1)) == 2 * 9 * 2
        assert c.coeff((1, 1, 0)) == 2 * 27 * 6

    def test_check_growth_tight(self):
        c = maximal_series(1, 2, 2, 4)
        report = check_growth(c, 1, 2)
        assert report.passed
        assert max(r.max_ratio for r in report.ratios) == 1

    def test_check_growth_flags_excess(self):
        c = Series(1, 2, {(0, 1): 10})
        report = check_growth(c, 1, 1)
        assert not report.passed


class TestJsonRoundtrip:
    def test_roundtrip_random(self, rng: random.Random):
        for _ in range(25):
            c = make_random_series(rng, m=rng.randint(1, 3))
            payload = json.loads(json.dumps(series_to_json(c)))
            back = series_from_json(payload)
            assert back == c

    def test_duplicate_words_rejected(self):
        payload = {
            "m": 1,
            "degree": 2,
            "terms": [
                {"word": [1], "coeff": "1"},
                {"word": [1], "coeff": "2"},
            ],
        }
        with pytest.raises(ParseError):
            series_from_json(payload)

    @pytest.mark.parametrize("change", [
        {"degree": 2.7}, {"degree": True}, {"m": 1.0}, {"m": False}, {"terms": 5},
        {"terms": [{"word": [0.0, 1], "coeff": "1"}]},
        {"terms": [{"word": [0, True], "coeff": "1"}]},
        {"terms": [{"word": "01", "coeff": "1"}]},
        {"terms": [{"word": 1, "coeff": "1"}]},
    ], ids=repr)
    def test_malformed_fields_are_rejected_not_coerced(self, change):
        payload = {"m": 1, "degree": 2, "terms": [{"word": [0, 1], "coeff": "1"}]}
        assert series_from_json(payload) == Series(1, 2, {(0, 1): 1})
        with pytest.raises(ParseError):
            series_from_json({**payload, **change})

    def test_coefficients_as_strings(self):
        c = Series(1, 2, {(0, 1): Fraction(-5, 3)})
        payload = series_to_json(c)
        assert payload["terms"][0]["coeff"] == "-5/3"


class TestLinearCombine:
    def test_weighted_sum(self):
        a = Series(1, 3, {(1,): 1})
        b = Series(1, 3, {(1,): 1, (0,): 2})
        c = linear_combine([(2, a), (Fraction(1, 2), b)])
        assert c.coeff((1,)) == Fraction(5, 2)
        assert c.coeff((0,)) == 1

    def test_exactness_is_min(self):
        a = Series(1, 5, {(1,): 1}, exact_to=5)
        b = Series(1, 3, {(0,): 1}, exact_to=2)
        assert linear_combine([(1, a), (1, b)]).exact_to == 2
