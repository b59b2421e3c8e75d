"""Series container semantics and the shuffle/concatenation algebra."""

from __future__ import annotations

import json
import math
import random
import re
from fractions import Fraction

import numpy as np
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
    abel_taylor,
    as_coeff,
    check_growth,
    closed_form_natural_response,
    closed_loop_series,
    coeff_str,
    compose_at,
    compose_maximal,
    concat_product,
    eval_fliess,
    genericity_sample,
    lambert_w_lower,
    linear_combine,
    m_inf_bound,
    maximal_series,
    sample_network,
    series_from_json,
    series_to_json,
    shuffle_product,
    simulate_maximal_ode,
    simulate_picard,
)
from conftest import make_random_series


X1 = Series(1, 3, {(1,): 1})

# (name, call taking the value, argument name in the message, lower bound, error type)
INT_ARGUMENTS = [
    ("Series m", lambda v: Series(v, 2), "m", 1, AlphabetError),
    ("Series max_degree", lambda v: Series(1, v), "max_degree", 0, DomainError),
    ("Series exact_to", lambda v: Series(1, 3, {(1,): 1}, exact_to=v), "exact_to", 0, DomainError),
    ("truncate", lambda v: X1.truncate(v), "max_degree", 0, DomainError),
    ("eq_to_degree", lambda v: X1.eq_to_degree(X1, v), "degree", 0, DomainError),
    ("extended", lambda v: X1.extended(v), "max_degree", 0, DomainError),
    ("extended exact_to", lambda v: X1.extended(5, exact_to=v), "exact_to", 0, DomainError),
    ("maximal_series m", lambda v: maximal_series(1, 1, v, 2), "m", 1, AlphabetError),
    ("maximal_series degree", lambda v: maximal_series(1, 1, 1, v), "max_degree", 0, DomainError),
    ("compose_at", lambda v: compose_at(X1, X1, v), "n_out", 0, DomainError),
    ("compose_maximal", lambda v: compose_maximal(MaximalSeriesSpec(1, 1), X1, v, False),
     "n_out", 0, DomainError),
    ("NetworkSpec m", lambda v: NetworkSpec(v, [[0]], [X1]), "node count m", 1, DomainError),
    ("closed_loop_series", lambda v: closed_loop_series(NetworkSpec(1, [[1]], [X1]), 1, v),
     "truncation degree", 0, DomainError),
    ("m_inf_bound m", lambda v: m_inf_bound(1, 1, v), "node count m", 1, DomainError),
    ("abel_taylor m", lambda v: abel_taylor(v, 1, 1, 3), "node count m", 1, DomainError),
    ("abel_taylor n_max", lambda v: abel_taylor(1, 1, 1, v), "n_max", 0, DomainError),
    ("sample_network seed", lambda v: sample_network([[1]], [X1], v, 0), "seed", 0, DomainError),
    ("sample_network index", lambda v: sample_network([[1]], [X1], 1, v), "index", 0, DomainError),
    ("genericity_sample samples", lambda v: genericity_sample([[1]], [X1], v, 1, 2),
     "samples", 1, DomainError),
    ("genericity_sample bins", lambda v: genericity_sample([[1]], [X1], 1, 1, 2, bins=v),
     "bins", 1, DomainError),
    ("Grid n", lambda v: Grid(0.0, 1.0, v), "n", 1, DomainError),
    ("simulate_picard max_iter",
     lambda v: simulate_picard(NetworkSpec(1, [[0]], [X1]), Grid(0.0, 1.0, 2), max_iter=v),
     "max_iter", 1, DomainError),
]

GRID = Grid(0.0, 0.4, 10)
ONE_MAXIMAL = NetworkSpec(1, [[1]], [MaximalSeriesSpec(1, 1)])
ONE_X1 = NetworkSpec(1, [[0]], [X1])


def trajectory_floats(traj) -> str:
    """Every float a trajectory reports, exactly."""
    return repr((traj.times.tolist(), traj.escape_time, traj.metadata,
                 {k: y.tolist() for k, y in traj.outputs.items()}))


# (name, call taking the value, message for a value that is not a finite real,
#  a plain float the call accepts, a value past the site's bound or None, its message)
REAL_ARGUMENTS = [
    ("Grid t0", lambda v: repr(Grid(v, 1.0, 4)), "t0 must be finite",
     1.0, 1e16, "horizon T must be positive and resolvable at t0"),
    ("Grid T", lambda v: repr(Grid(0.5, v, 4)), "horizon T must be finite",
     2.0, 0.0, "horizon T must be positive and resolvable at t0"),
    ("simulate_maximal_ode threshold",
     lambda v: trajectory_floats(simulate_maximal_ode(ONE_MAXIMAL, GRID, threshold=v)),
     "escape threshold must be finite and positive",
     2.0, 0.0, "escape threshold must be finite and positive"),
    ("simulate_picard tol", lambda v: trajectory_floats(simulate_picard(ONE_X1, GRID, tol=v)),
     "tol must be finite and >= 0", 1.0, -1e-3, "tol must be finite and >= 0"),
    ("closed_form_natural_response t",
     lambda v: repr(closed_form_natural_response(1, 1, Fraction(1, 10), v)), "t must be finite",
     1.0, -0.5, "t must lie in [0, t_star)"),
    ("lambert_w_lower x", lambda v: repr(lambert_w_lower(v)),
     "Lambert W argument x must be finite",
     -0.25, 0.5, "lambert_w_lower needs -1/e <= x < 0"),
    ("eval_fliess input", lambda v: repr(eval_fliess(X1, [v] * 11, GRID).tolist()),
     "input signal must be finite", 2.0, None, None),
    ("simulate_maximal_ode signal",
     lambda v: trajectory_floats(simulate_maximal_ode(ONE_MAXIMAL, GRID, {1: [v] * 11})),
     "signal for node 1 must be finite", 2.0, None, None),
    ("simulate_picard signal",
     lambda v: trajectory_floats(simulate_picard(ONE_X1, GRID, {1: [v] * 11})),
     "signal for node 1 must be finite", 2.0, None, None),
]


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

    def test_coeff_of_a_length_without_terms_is_zero(self):
        """A length with no terms has no grade; its words, the empty word
        included, read 0 of the canonical int type."""
        c = Series(1, 3, {(1,): 1, (0, 1, 1): Fraction(2, 3)})
        for word in ((), (0, 0), (1, 1)):
            assert c.coeff(word) == 0 and type(c.coeff(word)) is int
        assert Series(1, 2, {(): 5}).coeff(()) == 5

    def test_terms_is_a_read_only_view_of_the_items(self):
        c = Series(2, 3, {(2, 0, 1): Fraction(7, 3), (0, 2): 3, (1,): Fraction(-1, 2), (): 2})
        terms = c.terms
        assert dict(terms) == dict(c.items())
        assert all(type(terms[w]) is type(x) for w, x in c.items())
        with pytest.raises(TypeError):
            terms[(1,)] = 1
        assert c.terms == terms and c.coeff((1,)) == Fraction(-1, 2)

    def test_rejects_long_word(self):
        with pytest.raises(DomainError):
            Series(1, 2, {(0, 0, 0): 1})

    def test_rejects_bad_letter(self):
        with pytest.raises(Exception):
            Series(1, 3, {(2,): 1})

    @pytest.mark.parametrize("call,what,low,error,value", [
        pytest.param(call, what, low, error, value, id=f"{name}-{value!r}")
        for name, call, what, low, error in INT_ARGUMENTS
        for value in (True, 2.0, "3", None, low - 1)
        if not (value is None and what == "exact_to")
    ])
    def test_rejects_sizes_that_are_not_ints(self, call, what, low, error, value):
        """Every integer argument is an int, not a bool, at least its bound, with
        one message. Series(1, 2.5) once built a series of max_degree 2.5,
        exact_to=-1 a series reported undetermined at truncation -1, and
        sample_network read index True as sample 1."""
        with pytest.raises(error, match=f"^{re.escape(what)} must be an integer >= {low}$"):
            call(value)

    @pytest.mark.parametrize("call,message,value", [
        pytest.param(call, message, value, id=f"{name}-{value!r}")
        for name, call, message, _, _, _ in REAL_ARGUMENTS
        for value in (True, "1", None, 1 + 0j, math.nan, math.inf, -math.inf)
    ])
    def test_rejects_reals_that_are_not_finite_reals(self, call, message, value):
        """Every real argument is a finite real number, not a bool, with one
        message. Grid("0", 1.0, 10) and lambert_w(None) once raised TypeError,
        threshold=True reported an escape at t = 0, lambert_w("1") and signals
        of bools or numeric strings were read as numbers, and a complex value
        lost its imaginary part behind a ComplexWarning."""
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            call(value)

    @pytest.mark.parametrize("call,value,message", [
        pytest.param(call, past, message, id=name)
        for name, call, _, _, past, message in REAL_ARGUMENTS if past is not None
    ])
    def test_rejects_reals_past_their_bound(self, call, value, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
            call(value)

    @pytest.mark.parametrize("call,value,same", [
        pytest.param(call, good, same, id=f"{name}-{type(same).__name__}")
        for name, call, _, good, _, _ in REAL_ARGUMENTS
        for same in (int(good), Fraction(good), np.float64(good)) if same == good
    ])
    def test_reals_of_every_type_give_the_floats_of_the_float(self, call, value, same):
        """An int, a Fraction or a numpy float is read as the plain float of
        the same value: Grid(Fraction(0), Fraction(1, 2), 4) once raised
        TypeError, and Grid(0, ...) kept an int t0."""
        assert call(same) == call(value)

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
        assert c.extended(5, exact_to=None).exact_to == 2
        assert Series(1, 2, {(1,): 1}, exact_to=None).exact_to == 2
        p = c.extended(5, exact_to=5)
        assert p.exact_to == 5

    def test_extended_to_a_lower_degree_truncates(self):
        c = Series(1, 4, {(0, 0, 0): 1, (1,): 2, (0, 1, 1, 0): 3}, exact_to=3)
        for degree in range(4):
            lower, cut = c.extended(degree), c.truncate(degree)
            assert (lower.max_degree, lower.exact_to, lower.terms) == (
                cut.max_degree, cut.exact_to, cut.terms)

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


class TestRepr:
    def test_zero_series(self):
        assert repr(Series.zero(2, 3)) == "Series(m=2, N=3: 0)"

    def test_terms_in_graded_order_with_canonical_coefficients(self):
        s = Series(2, 3, {(2, 0, 1): Fraction(7, 3), (0, 2): 3, (1,): Fraction(-1, 2), (): 2})
        assert repr(s) == "Series(m=2, N=3: 2*[1] + -1/2*[x1] + 3*[x0 x2] + 7/3*[x2 x0 x1])"


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

    @pytest.mark.parametrize("doc", [
        [1, 2, []], "series", None,
        {"m": 1, "degree": 2, "terms": [5]},
        {"m": 1, "degree": 2, "terms": ["word"]},
    ], ids=repr)
    def test_non_object_document_or_term_is_a_parse_error(self, doc):
        with pytest.raises(ParseError, match="malformed series"):
            series_from_json(doc)

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
