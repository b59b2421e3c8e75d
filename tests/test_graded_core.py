"""Differential tests of the graded series core and the incremental closed loop.

The oracles below are the flat word -> coefficient product loops and the
full-recompute fixed-point sweep the graded core replaced, computing with
int and Fraction coefficients. Each loops over every term pair and skips
those that do not fit under the truncation. The graded products on integer
numerators over one denominator per grade, the layered compositions and the
closed loop that settles one degree at a time must reproduce them
coefficient for coefficient, with the same canonical coefficient types and
the same exact_to. Every stored grade must stay reduced, and each closed
loop must be a fixed point of its own node compositions.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

import fliessnet.compose as compose_module
import fliessnet.network as network
import fliessnet.series as series
import fliessnet.words as words
from fliessnet import (
    DomainError,
    MaximalSeriesSpec,
    NetworkSpec,
    Series,
    all_words,
    closed_loop_series,
    compose_at,
    compose_maximal,
    complete_reldeg,
    concat_product,
    genericity_sample,
    io_map,
    linear_combine,
    maximal_series,
    natural_response,
    predict_io_reldeg,
    series_from_json,
    series_to_json,
    shuffle_product,
    shuffle_words,
    words_of_length,
)
from fliessnet.cli import run
from fliessnet.compose import ComposeLayers, compose, mixed_compose
from fliessnet.series import _pair_den, _reduced
from quotient_oracle import quotient_compose_maximal
from conftest import (
    all_ones_maximal,
    assert_fixed_point,
    criterion7_sample,
    double_diamond_net,
    make_random_series,
    mixed_net,
    sparse_poly_net,
)

# -- flat oracles ------------------------------------------------------------------


def flat_shuffle_terms(a: dict, b: dict, limit: int) -> dict:
    acc: dict = {}
    for w1, c1 in a.items():
        room = limit - len(w1)
        if room < 0:
            continue
        for w2, c2 in b.items():
            if len(w2) > room:
                continue
            prod = c1 * c2
            for word, mult in shuffle_words(w1, w2).items():
                acc[word] = acc.get(word, 0) + prod * mult
    return acc


def flat_shuffle_product(c: Series, d: Series) -> Series:
    degree = min(c.max_degree, d.max_degree)
    acc = flat_shuffle_terms(dict(c.terms), dict(d.terms), degree)
    return Series(c.m, degree, acc, exact_to=min(c.exact_to, d.exact_to, degree))


def flat_concat_product(c: Series, d: Series) -> Series:
    degree = min(c.max_degree, d.max_degree)
    acc: dict = {}
    for w1, a in c.terms.items():
        if len(w1) > degree:
            continue
        room = degree - len(w1)
        for w2, b in d.terms.items():
            if len(w2) > room:
                continue
            acc[w1 + w2] = acc.get(w1 + w2, 0) + a * b
    return Series(c.m, degree, acc, exact_to=min(c.exact_to, d.exact_to, degree))


def flat_linear_combine(pairs) -> Series:
    degree = min(c.max_degree for _, c in pairs)
    acc: dict = {}
    for scalar, series in pairs:
        for word, coeff in series.terms.items():
            if len(word) <= degree:
                acc[word] = acc.get(word, 0) + Fraction(scalar) * coeff
    exact_to = min(c.exact_to for _, c in pairs)
    return Series(pairs[0][1].m, degree, acc, exact_to=exact_to)


def _prepend(letter, e, limit):
    return {(letter,) + w: c for w, c in e.items() if len(w) < limit}


def _add(acc, extra, scale=1):
    for word, coeff in extra.items():
        acc[word] = acc.get(word, 0) + scale * coeff


def _substitute(d_terms, e, limit, mixed):
    out = _prepend(0, flat_shuffle_terms(d_terms, e, limit - 1), limit) if limit >= 1 else {}
    if mixed:
        _add(out, _prepend(1, e, limit))
    return out


def flat_compose_at(c: Series, d: Series, n_out: int, mixed: bool = False) -> Series:
    d_terms = dict(d.terms)
    memo: dict = {}

    def image(word):
        if word not in memo:
            if not word:
                memo[word] = {(): 1}
            elif word[0] == 0:
                memo[word] = _prepend(0, image(word[1:]), n_out)
            else:
                memo[word] = _substitute(d_terms, image(word[1:]), n_out, mixed)
        return memo[word]

    acc: dict = {}
    for word, coeff in c.terms.items():
        if len(word) <= n_out:
            _add(acc, image(word), coeff)
    return Series(1, n_out, acc, exact_to=min(c.exact_to, d.exact_to + 1, n_out))


def flat_compose_maximal(spec, d: Series, n_out: int, mixed: bool) -> Series:
    d_terms = dict(d.terms)
    acc: dict = {}
    e: dict = {(): 1}
    for k in range(n_out + 1):
        _add(acc, e, spec.K * spec.M**k * math.factorial(k))
        if k == n_out:
            break
        stepped = _prepend(0, e, n_out)
        _add(stepped, _substitute(d_terms, e, n_out, mixed))
        e = stepped
    return Series(1, n_out, acc, exact_to=min(d.exact_to + 1, n_out))


def flat_closed_loop(net: NetworkSpec, i: int, degree: int) -> dict:
    """Every sweep recomputes every degree from the previous sweep's series."""
    d = {k: Series.zero(1, 0) for k in range(1, net.m + 1)}
    for t in range(1, degree + 2):
        target = t - 1
        out = {}
        for k in range(1, net.m + 1):
            pairs = [(w, d[l]) for l, w in enumerate(net.W[k - 1], start=1) if w != 0]
            feedback = flat_linear_combine(pairs) if pairs else Series.zero(1, target)
            src = net.nodes[k - 1]
            if isinstance(src, MaximalSeriesSpec):
                out[k] = flat_compose_maximal(src, feedback, target, k == i)
            else:
                out[k] = flat_compose_at(net.node_series(k, target), feedback, target, k == i)
        d = out
    return d


# -- comparison ------------------------------------------------------------------------


def fingerprint(s: Series):
    """Everything a reader of a series can see, coefficient types included."""
    return (
        s.m,
        s.max_degree,
        s.exact_to,
        len(s),
        [(word, type(coeff), coeff) for word, coeff in s.items()],
        dict(s.terms),
    )


def assert_reduced(s: Series) -> None:
    """Each stored grade is (den, {word: numerator}) with den >= 1, no zero
    numerator, no common factor, and every word under its own length; each
    public value is canonical: int, or a Fraction with denominator > 1."""
    assert list(s._grades) == sorted(s._grades)
    for n, (den, nums) in s._grades.items():
        assert type(den) is int and den >= 1
        assert nums and all(type(c) is int and c != 0 for c in nums.values())
        assert math.gcd(den, *nums.values()) == 1
        assert all(len(word) == n for word in nums)
    for word, c in s.items():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
        assert s.terms[word] == c and type(s.terms[word]) is type(c)
        assert s.coeff(word) == c and type(s.coeff(word)) is type(c)


def assert_same(got: Series, want: Series) -> None:
    assert got == want
    assert fingerprint(got) == fingerprint(want)
    assert_reduced(got)


# -- products on seeded random operands ----------------------------------------------------


class TestProducts:
    @pytest.mark.parametrize("m", [1, 2])
    def test_products_match_flat_loops(self, rng, m):
        for _ in range(40):
            a = make_random_series(rng, m=m, degree=rng.randint(0, 5), max_terms=6)
            b = make_random_series(rng, m=m, degree=rng.randint(0, 5), max_terms=6)
            if rng.random() < 0.5:
                a = a.extended(a.max_degree + 2)
            assert_same(shuffle_product(a, b), flat_shuffle_product(a, b))
            assert_same(concat_product(a, b), flat_concat_product(a, b))
            pairs = [(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), a), (2, b), (-1, a)]
            assert_same(linear_combine(pairs), flat_linear_combine(pairs))

    def test_products_keep_grades_reduced_and_routes_agree(self, rng):
        """Every public product leaves reduced grades, and one value reached
        through different routes compares equal, whatever the denominators
        met on the way."""
        dens = [1, 2, 4, 5, 7, 11, 1024]
        for _ in range(30):
            a, b, c = (
                linear_combine([(Fraction(rng.randint(-4, 4) or 1, rng.choice(dens)),
                                 make_random_series(rng, degree=4, max_terms=6))])
                for _ in range(3)
            )
            half, third = Fraction(1, 2), Fraction(1, 3)
            results = [
                shuffle_product(a, b), concat_product(a, b),
                linear_combine([(half, a), (third, b)]), compose(a, b), mixed_compose(a, b),
                a.truncate(2), a.extended(6), -a,
            ]
            for s in results:
                assert_reduced(s)
                assert Series(s.m, s.max_degree, dict(s.terms), exact_to=s.exact_to) == s
                assert series_from_json(series_to_json(s)) == s
            assert shuffle_product(a, b) == shuffle_product(b, a)
            assert shuffle_product(a, b + c) == shuffle_product(a, b) + shuffle_product(a, c)
            ab_c = concat_product(concat_product(a, b), c)
            assert ab_c == concat_product(a, concat_product(b, c))
            assert linear_combine([(third, a), (Fraction(2, 3), a)]) == a
            assert 2 * a - a == a
            assert (a + b) - b == a
        spec = MaximalSeriesSpec(Fraction(9, 5), Fraction(4, 7))
        explicit = Series(1, 5, {w: c for w, c in maximal_series(spec.K, spec.M, 1, 5).items()})
        assert_reduced(maximal_series(spec.K, spec.M, 1, 5))
        assert maximal_series(spec.K, spec.M, 1, 5) == explicit
        for n_out in range(6):
            got = compose_maximal(spec, b, n_out, True)
            assert_reduced(got)
            assert got == compose_at(explicit.truncate(n_out), b, n_out, True)

    def test_cancellation_leaves_canonical_ints(self):
        half = Series(1, 2, {(0,): Fraction(1, 2), (1,): Fraction(3, 2)})
        total = linear_combine([(1, half), (1, half)])
        assert [type(c) for _, c in total.items()] == [int, int]
        assert linear_combine([(1, half), (-1, half)]).is_zero()

    def test_compose_matches_flat_composition(self, rng):
        for _ in range(40):
            c = make_random_series(rng, degree=4, max_terms=4)
            d = make_random_series(rng, degree=3, max_terms=4)
            for n_out in range(5):
                for mixed in (False, True):
                    assert_same(compose_at(c, d, n_out, mixed), flat_compose_at(c, d, n_out, mixed))

    def test_layers_settle_one_degree_per_call(self, rng):
        """Raising n_out by one on kept layers equals a fresh full composition,
        as in a network sweep: the same c at every call, and d exact through
        n_out - 1 at each call."""
        spec = MaximalSeriesSpec(Fraction(3, 2), Fraction(2, 3))
        for _ in range(10):
            c = make_random_series(rng, degree=5, max_terms=5)
            d = make_random_series(rng, degree=6, max_terms=6)
            mixed = rng.random() < 0.5
            poly, maximal = ComposeLayers(), ComposeLayers()
            for n_out in range(7):
                d_now = d.truncate(max(n_out - 1, 0))
                assert_same(compose_at(c, d_now, n_out, mixed, poly),
                            flat_compose_at(c, d_now, n_out, mixed))
                assert_same(compose_maximal(spec, d_now, n_out, mixed, maximal),
                            flat_compose_maximal(spec, d_now, n_out, mixed))


# -- shuffle kernels -------------------------------------------------------------------------

# Word-pair update weights that force each kernel of _shuffle_terms: at 0 no
# call takes the dense kernel, at 10**9 every one with a grade pair does.
KERNELS = {"word_pair": 0, "dense": 10**9}


def random_grades(r: random.Random, m: int, degree: int) -> dict:
    """Graded numerators (den, {word: numerator}) with every length absent,
    sparse or dense at random, and numerators of up to 80 bits."""
    grades = {}
    for n in range(degree + 1):
        kind = r.choice(("absent", "sparse", "dense"))
        if kind == "absent":
            continue
        every = list(words_of_length(m, n))
        chosen = every if kind == "dense" else r.sample(every, min(len(every), r.randint(1, 3)))
        nums = {w: r.choice((-1, 1)) * r.randint(1, 2 ** r.randint(1, 80)) for w in chosen}
        grades[n] = (r.choice((1, 2, 3, 7)), nums)
    return grades


def slice_oracle(a: dict, b: dict, n: int, den: int) -> dict:
    """Nonzero numerators over den of the degree-n slice of a sh b, by the
    word-pair recursion on Fraction coefficients."""
    flat_a = {w: Fraction(c, d) for d, nums in a.values() for w, c in nums.items()}
    flat_b = {w: Fraction(c, d) for d, nums in b.values() for w, c in nums.items()}
    acc: dict = {}
    for w1, c1 in flat_a.items():
        for w2, c2 in flat_b.items():
            if len(w1) + len(w2) == n:
                for word, mult in shuffle_words(w1, w2).items():
                    acc[word] = acc.get(word, 0) + c1 * c2 * mult
    out = {}
    for word, c in acc.items():
        assert (c * den).denominator == 1
        if c:
            out[word] = int(c * den)
    return out


def nonzero(nums: dict) -> dict:
    return {word: c for word, c in nums.items() if c}


def spy_kernels(monkeypatch) -> list[tuple[int, str]]:
    """(n, kernel) for each later _shuffle_terms call, in call order, through
    the bindings by which shuffle_product and the closed loop reach it. The
    kernel is "dense", "word_pair" (also for a call with no grade pair, which
    takes that branch), or "both" when one call used the two."""
    calls = []
    terms, dense_shuffle, shuffle = series._shuffle_terms, series._dense_shuffle, series.shuffle_words
    used = set()

    def spy_terms(a, b, n, den, memo, m=1):
        used.clear()
        out = terms(a, b, n, den, memo, m)
        calls.append((n, "both" if len(used) > 1 else next(iter(used), "word_pair")))
        return out

    def spy_dense(pairs, n, s):
        used.add("dense")
        return dense_shuffle(pairs, n, s)

    def spy_shuffle(u, v, memo):
        used.add("word_pair")
        return shuffle(u, v, memo)

    monkeypatch.setattr(series, "_shuffle_terms", spy_terms)
    monkeypatch.setattr(compose_module, "_shuffle_terms", spy_terms)
    monkeypatch.setattr(series, "_dense_shuffle", spy_dense)
    monkeypatch.setattr(series, "shuffle_words", spy_shuffle)
    return calls


class TestShuffleKernels:
    @pytest.mark.parametrize("m,degree", [(1, 4), (2, 3)])
    def test_kernels_match_the_word_pair_oracle(self, monkeypatch, m, degree):
        """Both kernels, and the cost rule that picks one of them per call,
        give the oracle's exact numerators, as Python ints, on seeded
        operands with absent, sparse and dense grades."""
        r = random.Random(1958 + m)
        calls = spy_kernels(monkeypatch)
        rule = series._WORD_UPDATE
        chosen = set()
        for _ in range(25):
            a, b = random_grades(r, m, degree), random_grades(r, m, degree)
            for n in range(2 * degree + 1):
                if not any(n - i in b for i in a):
                    continue
                den = _pair_den(a, b, n)
                want = slice_oracle(a, b, n, den)
                for weight in [rule, *KERNELS.values()]:
                    monkeypatch.setattr(series, "_WORD_UPDATE", weight)
                    got = series._shuffle_terms(a, b, n, den, {}, m)
                    assert all(type(c) is int for c in got.values())
                    assert nonzero(got) == want
                    if weight == rule:
                        chosen.add(calls[-1][1])
        # The cost rule sent some calls to each kernel, and no call to both.
        assert chosen == {"dense", "word_pair"}
        assert "both" not in {kernel for _, kernel in calls}

    @pytest.mark.parametrize("m,degree", [(1, 16), (2, 13), (3, 11)])
    def test_all_ones_loops_take_the_dense_kernel_at_depth(self, monkeypatch, m, degree):
        """The cost rule sends every slice of the all-ones loops at n >= 7 to
        the dense kernel, and every slice at n <= 4 to the word-pair kernel."""
        calls = spy_kernels(monkeypatch)
        closed_loop_series(all_ones_maximal(m), 1, degree)
        assert {kernel for n, kernel in calls if n >= 7} == {"dense"}
        assert {kernel for n, kernel in calls if n <= 4} == {"word_pair"}

    def test_double_diamond_loop_takes_no_dense_kernel(self, monkeypatch):
        """The double diamond's grades are sparse, so at degree 16 every slice
        stays on the word-pair kernel."""
        calls = spy_kernels(monkeypatch)
        closed_loop_series(double_diamond_net(), 1, 16)
        assert {kernel for _, kernel in calls} == {"word_pair"}

    @pytest.mark.parametrize("kernel", ["word_pair", "dense"])
    def test_pairs_that_cancel_leave_only_zeros(self, monkeypatch, kernel):
        """A_i sh B_j + B_j sh (-A_i) vanishes word by word in either kernel,
        and an empty operand leaves nothing."""
        monkeypatch.setattr(series, "_WORD_UPDATE", KERNELS[kernel])
        r = random.Random(7)
        for m, i, j in [(1, 2, 3), (1, 0, 4), (2, 1, 2)]:
            A = {w: r.randint(1, 9) for w in words_of_length(m, i)}
            B = {w: r.randint(-9, 9) or 1 for w in words_of_length(m, j)}
            a = {i: (3, A), j: (1, B)}
            b = {j: (1, B), i: (3, {w: -c for w, c in A.items()})}
            got = series._shuffle_terms(a, b, i + j, 3, {}, m)
            assert got and set(got.values()) == {0}
            assert _reduced(3, got) is None
            assert series._shuffle_terms({}, b, j, 1, {}, m) == {}

    def test_products_leave_the_memo_empty(self, rng):
        """Every word of length n in maximal_series(1, 1, 1, 11) has
        coefficient n!, so each one of length n in its shuffle square has
        sum_i C(n, i) i! (n - i)! = (n + 1)!. That product once left 18,465
        pairs in the word-pair memo; now no product leaves any."""
        c = maximal_series(1, 1, 1, 11)
        product = shuffle_product(c, c)
        entries = len(words._shuffle_cache)
        assert entries == 0
        assert_same(product, Series(1, 11, {w: math.factorial(len(w) + 1)
                                            for w in all_words(1, 11)}))
        a = make_random_series(rng, degree=8, max_terms=12)
        product = shuffle_product(a, c)
        entries = len(words._shuffle_cache)
        assert entries == 0
        assert_same(product, flat_shuffle_product(a, c))

    def test_word_shuffles_leave_the_memo_empty(self):
        """(x0 x1)^5 ш (x1 x0)^5 once left 100 memo entries holding 9,000
        words through the public shuffle_words; the binding that series
        calls fills the memo it is passed, which its caller empties."""
        u, v = (0, 1) * 5, (1, 0) * 5
        out = shuffle_words(u, v)
        entries = len(words._shuffle_cache)
        assert entries == 0
        assert len(out) == 1024 and sum(out.values()) == math.comb(20, 10)
        memo: dict = {}
        assert series.shuffle_words(u, v, memo) == out
        assert len(memo) == 100
        assert len(words._shuffle_cache) == 0


# -- the shuffle memo ------------------------------------------------------------------------

# c = x1x1x1 + 2 x1x0x1 + x1 and d = x1 + 3 x0x1 + x1x1 + x0x1x1x0x1: compose(c, d)
# at degree 14 once left 700 word pairs in the module's memo.
MEMO_C = Series(1, 8, {(1, 1, 1): 1, (1, 0, 1): 2, (1,): 1})
MEMO_D = Series(1, 8, {(1,): 1, (0, 1): 3, (1, 1): 1, (0, 1, 1, 0, 1): 1})
# Two nodes x1 + x1x1 in a cycle: every loop of the sample shuffles.
X1X1 = Series(1, 2, {(1,): 1, (1, 1): 1})
CYCLE = [[0, 1], [1, 0]]

# Every public entry that shuffles, each on inputs that send slices to the
# word-pair kernel; True marks a closed loop that the cap stops.
MEMO_ENTRIES = {
    "shuffle_words": (lambda: shuffle_words((0, 1) * 5, (1, 0) * 5), False),
    "shuffle_product": (lambda: shuffle_product(MEMO_D, MEMO_D), False),
    "compose": (lambda: compose(MEMO_C, MEMO_D), False),
    "mixed_compose": (lambda: mixed_compose(MEMO_C, MEMO_D), False),
    "compose_at": (lambda: compose_at(MEMO_C, MEMO_D, 8, mixed=True), False),
    "compose_maximal": (lambda: compose_maximal(MaximalSeriesSpec(1, 1), MEMO_D, 8, False), False),
    "closed_loop_series": (lambda: closed_loop_series(double_diamond_net(), 1, 10), False),
    "closed_loop_series_capped": (lambda: closed_loop_series(double_diamond_net(), 1, 30), True),
    "natural_response": (lambda: natural_response(double_diamond_net(), 7, 10), False),
    "io_map": (lambda: io_map(double_diamond_net(), 1, 7, 10), False),
    "predict_io_reldeg": (lambda: predict_io_reldeg(double_diamond_net(), 1, 7), False),
    "complete_reldeg": (lambda: complete_reldeg(double_diamond_net(), 6), False),
    "genericity_sample": (lambda: genericity_sample(CYCLE, [X1X1, X1X1], 3, seed=1, degree=4), False),
}


@pytest.mark.parametrize("entry", MEMO_ENTRIES)
def test_public_shuffles_leave_the_memo_empty(monkeypatch, entry):
    """Only a closed loop fills the module's word-pair memo, and it empties
    it when it returns or raises; every other entry uses a memo of its own."""
    call, capped = MEMO_ENTRIES[entry]
    if capped:
        monkeypatch.setattr(network, "TERM_CAP", 2_000)
        with pytest.raises(DomainError, match="over the cap of 2000"):
            call()
    else:
        call()
    # Counted first: a failing assert on the memo itself would print all of it.
    entries = len(words._shuffle_cache)
    assert entries == 0


# -- closed loops ----------------------------------------------------------------------------


def seeded_maximal_net(seed: int, m: int) -> NetworkSpec:
    r = random.Random(seed)
    specs = [MaximalSeriesSpec(Fraction(r.randint(1, 9), 5), Fraction(r.randint(1, 9), 7))
             for _ in range(m)]
    W = [[Fraction(r.randint(0, 10), 11) for _ in range(m)] for _ in range(m)]
    return NetworkSpec(m, W, specs)


def sevenths_double_diamond() -> NetworkSpec:
    r = random.Random(7)
    return double_diamond_net(tuple(Fraction(r.randint(1, 20), 7) for _ in range(7)))


def truncated_cycle_net() -> NetworkSpec:
    """A maximal node and a polynomial node certified exact only through
    degree 1, in one cycle 1 -> 2 -> 1, so the truncation travels round it."""
    nodes = [
        MaximalSeriesSpec(Fraction(3, 4), Fraction(1, 3)),
        Series(1, 3, {(1,): Fraction(-2, 3), (0, 1): 1, (1, 0, 1): Fraction(5, 2)}, exact_to=1),
    ]
    return NetworkSpec(2, [[0, Fraction(1, 2)], [Fraction(2, 5), 0]], nodes)


CLOSED_LOOPS = [
    ("all_ones_m3", lambda: all_ones_maximal(3), 1, 7),
    ("seeded_maximal", lambda: seeded_maximal_net(2026, 3), 2, 6),
    ("seeded_maximal_m4", lambda: seeded_maximal_net(11, 4), 1, 6),
    ("criterion7_sample", lambda: criterion7_sample(3), 1, 4),
    ("double_diamond", double_diamond_net, 1, 12),
    ("double_diamond_sevenths", sevenths_double_diamond, 1, 12),
    ("mixed", mixed_net, 2, 7),
    ("mixed_from_source", mixed_net, 4, 6),
    ("sparse_poly_n4", lambda: sparse_poly_net(1, 4), 1, 6),
    ("sparse_poly_n5", lambda: sparse_poly_net(2, 5), 2, 6),
    ("sparse_poly_n6", lambda: sparse_poly_net(3, 6), 3, 5),
    ("truncated_cycle", truncated_cycle_net, 1, 6),
    ("truncated_cycle_from_truncated", truncated_cycle_net, 2, 6),
]


@pytest.mark.parametrize("name,make,i,degree", CLOSED_LOOPS, ids=[c[0] for c in CLOSED_LOOPS])
def test_closed_loop_matches_full_recompute(name, make, i, degree):
    net = make()
    got = closed_loop_series(net, i, degree)
    want = flat_closed_loop(net, i, degree)
    assert sorted(got) == sorted(want)
    for k in want:
        assert_same(got[k], want[k])


# The nets whose natural loop (no input channel) runs against the oracle.
NATURAL_LOOPS = [
    (name, make, degree)
    for name, make, _, degree in CLOSED_LOOPS
    if name in {"double_diamond", "mixed", "sparse_poly_n4", "sparse_poly_n5", "sparse_poly_n6",
                "truncated_cycle"}
]


@pytest.mark.parametrize("name,make,degree", NATURAL_LOOPS, ids=[c[0] for c in NATURAL_LOOPS])
def test_natural_loop_matches_full_recompute(name, make, degree):
    net = make()
    got = network._closed_loop(net, None, degree)
    want = flat_closed_loop(net, None, degree)
    assert sorted(got) == sorted(want)
    for k in want:
        assert_same(got[k], want[k])


@pytest.mark.parametrize("name,make,i,degree", CLOSED_LOOPS, ids=[c[0] for c in CLOSED_LOOPS])
def test_feedback_gains_one_grade_per_degree(monkeypatch, name, make, i, degree):
    """Once every node has settled degree n, the feedback of each node with
    in-edges gains one grade, combined from its sources' grade n, at most
    once per node; the grades below n are the very ones the earlier degrees
    built, no feedback series handed to a composition is changed afterwards,
    and linear_combine is not called."""
    net = make()
    fed = [k for k in range(1, net.m + 1) if any(net.W[k - 1])]
    handed: dict[int, list] = {}  # degree -> (feedback, its grades then), in node order
    combined: list[int] = []  # the degree last composed, at each combine

    def spy(route):
        def composed(c, d, n_out, mixed, layers):
            handed.setdefault(n_out, []).append((d, dict(d._grades)))
            return route(c, d, n_out, mixed, layers)
        return composed

    def counted(parts):
        combined.append(max(handed))
        return series._combine(parts)

    def refused(pairs):
        raise AssertionError("the closed loop called linear_combine")

    monkeypatch.setattr(network, "compose_at", spy(compose_at))
    monkeypatch.setattr(network, "compose_maximal", spy(compose_maximal))
    monkeypatch.setattr(network, "_combine", counted)
    monkeypatch.setattr(network, "linear_combine", refused)
    closed_loop_series(net, i, degree)
    assert sorted(handed) == list(range(degree + 1))
    assert all(len(calls) == net.m for calls in handed.values())
    assert all(count <= len(fed) for count in Counter(combined).values())
    for n in range(1, degree + 1):
        for (before, _), (after, _) in zip(handed[n - 1], handed[n]):
            assert set(after._grades) - set(before._grades) <= {n - 1}
            assert all(after._grades[j] is grade for j, grade in before._grades.items())
    for calls in handed.values():
        for d, grades in calls:
            assert d._grades == grades


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("name,make,i,degree", CLOSED_LOOPS, ids=[c[0] for c in CLOSED_LOOPS])
def test_closed_loop_is_the_same_on_either_kernel(monkeypatch, kernel, name, make, i, degree):
    """Every slice of the loop on one kernel gives the loop whose kernels
    the cost rule picks, coefficient for coefficient and exact_to."""
    net = make()
    want = closed_loop_series(net, i, degree)
    monkeypatch.setattr(series, "_WORD_UPDATE", KERNELS[kernel])
    got = closed_loop_series(net, i, degree)
    assert sorted(got) == sorted(want)
    for k in want:
        assert_same(got[k], want[k])


# The closed loops with a maximal node, at depth, for the quotient-route oracle.
MAXIMAL_LOOPS = [
    (name, make, i, 11)
    for name, make, i, _ in CLOSED_LOOPS
    if any(isinstance(node, MaximalSeriesSpec) for node in make().nodes)
] + [
    ("all_ones_m2", lambda: all_ones_maximal(2), 1, 12),
    ("all_ones_m1", lambda: all_ones_maximal(1), 1, 15),
]


@pytest.mark.parametrize("name,make,i,degree", MAXIMAL_LOOPS, ids=[c[0] for c in MAXIMAL_LOOPS])
def test_maximal_nodes_match_the_quotient_route(monkeypatch, name, make, i, degree):
    """One shuffle per degree of M Z against Y gives the grades of the left
    quotient route it replaced, denominators and numerators, and its exact_to."""
    net = make()
    got = closed_loop_series(net, i, degree)
    monkeypatch.setattr(network, "compose_maximal", quotient_compose_maximal)
    want = closed_loop_series(net, i, degree)
    assert sorted(got) == sorted(want)
    for k in want:
        assert got[k]._grades == want[k]._grades
        assert (got[k].max_degree, got[k].exact_to) == (want[k].max_degree, want[k].exact_to)


def test_stabilization_check_still_passes():
    net = mixed_net()
    assert_fixed_point(net, 1, closed_loop_series(net, 1, 5))


# -- term cap --------------------------------------------------------------------------------


class TestTermCap:
    def test_deep_request_fails_after_a_few_degrees(self, monkeypatch):
        monkeypatch.setattr(network, "TERM_CAP", 200)
        with pytest.raises(DomainError, match=r"at degree [3-6], over the cap of 200"):
            closed_loop_series(all_ones_maximal(1), 1, 30)

    @pytest.mark.parametrize("cap", [200, 2000, 20000])
    def test_loop_overshoots_the_cap_by_at_most_one_composition(self, monkeypatch, cap):
        """The cap is checked after each node's composition, so without the
        terms and memo words the last composition added the loop was still
        under it."""
        monkeypatch.setattr(network, "TERM_CAP", cap)
        added = []

        def held(layers):
            return layers.terms + sum(map(len, words._shuffle_cache.values()))

        def counted(spec, d, n_out, mixed, layers):
            before = held(layers)
            out = compose_maximal(spec, d, n_out, mixed, layers)
            added.append(held(layers) - before)
            return out

        monkeypatch.setattr(network, "compose_maximal", counted)
        with pytest.raises(DomainError, match=f"over the cap of {cap}") as err:
            closed_loop_series(all_ones_maximal(3), 1, 30)
        held = int(re.search(r"holds (\d+) terms", str(err.value)).group(1))
        assert held - added[-1] <= cap < held

    def test_cap_counts_the_shuffle_memo(self, monkeypatch):
        """The double diamond's grade pairs stay on the word-pair kernel,
        whose memo holds most of its words (5 in 6 at degree 17); counted,
        it stops that loop under a cap of 20,000 by degree 17, where its
        series and their intermediates hold 3,492 terms."""
        monkeypatch.setattr(network, "TERM_CAP", 20_000)
        with pytest.raises(DomainError, match="over the cap of 20000") as err:
            closed_loop_series(double_diamond_net(), 1, 30)
        assert int(re.search(r"at degree (\d+),", str(err.value)).group(1)) <= 17

    def test_dense_loop_stops_where_its_held_terms_reach_the_cap(self, monkeypatch):
        """The all-ones m=1 loop's large grade pairs take the dense kernel,
        which leaves no memo words, so its held terms alone (about 3 * 2^n
        at degree n) stop it under a cap of 100,000 at degree 16."""
        monkeypatch.setattr(network, "TERM_CAP", 100_000)
        with pytest.raises(DomainError, match="over the cap of 100000") as err:
            closed_loop_series(all_ones_maximal(1), 1, 30)
        held, degree = re.search(r"holds (\d+) terms .* at degree (\d+),", str(err.value)).groups()
        assert int(degree) == 16
        assert 100_000 < int(held) < 200_000

    def test_loop_stopped_by_the_cap_leaves_the_memo_empty(self, monkeypatch):
        monkeypatch.setattr(network, "TERM_CAP", 100_000)
        with pytest.raises(DomainError, match="over the cap of 100000"):
            closed_loop_series(all_ones_maximal(1), 1, 30)
        # Counted first: a failing assert on the memo itself would print all of it.
        entries = len(words._shuffle_cache)
        assert entries == 0

    def test_cli_reports_the_cap_as_a_domain_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(network, "TERM_CAP", 200)
        path = tmp_path / "one.json"
        path.write_text(json.dumps(
            {"m": 1, "W": [["1"]], "nodes": [{"kind": "maximal", "K": "1", "M": "1"}]}))
        code = run(["iomap", "--net", str(path), "--from", "1", "--to", "1", "--degree", "30"])
        assert code == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "DomainError"
        assert "over the cap of 200" in error["message"]
