"""Differential tests of the graded series core and the incremental closed loop.

The oracles below are the flat word -> coefficient product loops and the
full-recompute fixed-point sweep the graded core replaced, computing with
int and Fraction coefficients. Each loops over every term pair and skips
those that do not fit under the truncation. The graded products on integer
numerators over one denominator per grade, the layered compositions and the
closed loop that settles one degree at a time must reproduce them
coefficient for coefficient, with the same canonical coefficient types and
the same exact_to. Every stored grade must stay reduced, and each closed
loop must be a fixed point of its own node compositions. relative_degree,
which reads the stored grades, must give the reports that the flat
coefficient map gave (tests/reldeg_oracle.py).
"""

from __future__ import annotations

import gc
import json
import math
import random
import re
import sys
from fractions import Fraction

import pytest

import fliessnet.compose as compose_module
import fliessnet.network as network
import fliessnet.reldeg as reldeg_module
import fliessnet.series as series
import fliessnet.words as words
from fliessnet import (
    DomainError,
    MaximalSeriesSpec,
    NetworkSpec,
    Series,
    closed_loop_series,
    compose_at,
    compose_maximal,
    complete_reldeg,
    concat_product,
    genericity_sample,
    io_map,
    linear_combine,
    natural_response,
    predict_io_reldeg,
    relative_degree,
    series_from_json,
    series_to_json,
    shuffle_product,
    shuffle_words,
    subgraph_extract,
    words_of_length,
)
from fliessnet.cli import run
from fliessnet.compose import ComposeLayers, compose, mixed_compose
from fliessnet.reldeg import node_degree_report, pair_report
from fliessnet.series import _pair_den, _reduced
from fliessnet.sim import Grid, eval_fliess
from genericity_oracle import per_sample_genericity
from global_loop_oracle import global_closed_loop
from quotient_oracle import quotient_compose_maximal
from reldeg_oracle import flat_relative_degree, formula_node_degree_report
from conftest import (
    all_ones_maximal,
    assert_fixed_point,
    criterion7_sample,
    double_diamond_net,
    ladder_net,
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
    d = {k: Series(1, 0) for k in range(1, net.m + 1)}
    for t in range(1, degree + 2):
        target = t - 1
        out = {}
        for k in range(1, net.m + 1):
            pairs = [(w, d[l]) for l, w in enumerate(net.W[k - 1], start=1) if w != 0]
            feedback = flat_linear_combine(pairs) if pairs else Series(1, target)
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
    terms = s.terms  # a new view on each read
    for word, c in s.items():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
        assert terms[word] == c and type(terms[word]) is type(c)
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
        explicit = Series(1, 5, {w: c for w, c in spec.expand(1, 5).items()})
        assert_reduced(spec.expand(1, 5))
        assert spec.expand(1, 5) == explicit
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
        n_out - 1 at each call. Layers that take the skeleton of a closed
        loop's plan, as the loop builds them, equal a fresh compose_at."""
        spec = MaximalSeriesSpec(Fraction(3, 2), Fraction(2, 3))
        for _ in range(10):
            c = make_random_series(rng, degree=5, max_terms=5)
            d = make_random_series(rng, degree=6, max_terms=6)
            mixed = rng.random() < 0.5
            _, sources, skeletons, _, _ = network._plan(NetworkSpec(1, [[0]], [c]), 6)
            node = sources[1]
            poly, maximal = ComposeLayers(), ComposeLayers()
            planned = ComposeLayers(skeleton=skeletons[1])
            for n_out in range(7):
                d_now = d.truncate(max(n_out - 1, 0))
                assert_same(compose_at(c, d_now, n_out, mixed, poly),
                            flat_compose_at(c, d_now, n_out, mixed))
                assert_same(compose_at(node, d_now, n_out, mixed, planned),
                            compose_at(node, d_now, n_out, mixed))
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

    @pytest.mark.parametrize("degree", [16, 22])
    def test_double_diamond_loop_takes_no_dense_kernel(self, monkeypatch, degree):
        """The double diamond's grades are sparse, so every slice stays on the
        word-pair kernel. Its drift-heavy words shuffle to far fewer than
        C(n, i) words each, so at degree 22 the binomial count alone once sent
        the n = 21 slice to the dense kernel and its 2^21-element arrays."""
        calls = spy_kernels(monkeypatch)
        closed_loop_series(double_diamond_net(), 1, degree)
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
        """Every word of length n in MaximalSeriesSpec(1, 1).expand(1, 11) has
        coefficient n!, so each one of length n in its shuffle square has
        sum_i C(n, i) i! (n - i)! = (n + 1)!. That product once left 18,465
        pairs in the word-pair memo; now no product leaves any."""
        c = MaximalSeriesSpec(1, 1).expand(1, 11)
        product = shuffle_product(c, c)
        entries = len(words._shuffle_cache)
        assert entries == 0
        assert_same(product, Series(1, 11, {w: math.factorial(n + 1)
                                            for n in range(12) for w in words_of_length(1, n)}))
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
X1 = Series(1, 1, {(1,): 1})

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


# A nested function that calls itself holds itself through its closure cell,
# a reference cycle that only the collector frees. These entries, and
# subgraph_extract under complete_reldeg, must free all they build by
# reference counting alone.
CYCLE_FREE = {
    "closed_loop_series": lambda: closed_loop_series(mixed_net(), 2, 5),
    "natural_response": lambda: natural_response(double_diamond_net(), 7, 6),
    "complete_reldeg": lambda: complete_reldeg(criterion7_sample(0), 3),
    "subgraph_extract": lambda: subgraph_extract(double_diamond_net(), 1, 7),
    "eval_fliess": lambda: eval_fliess(MEMO_D, None, Grid(0.0, 0.1, 10)),
}


@pytest.mark.parametrize("entry", CYCLE_FREE)
def test_entries_leave_no_cyclic_garbage(entry):
    """With the collector off, an entry frees all it built by reference
    counting alone, so a collection afterwards finds nothing."""
    CYCLE_FREE[entry]()  # first imports and module-level caches
    gc.collect()
    gc.disable()
    try:
        CYCLE_FREE[entry]()
        assert gc.collect() == 0
    finally:
        gc.enable()


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
    [got] = network._closed_loops(net, degree, (None,))
    want = flat_closed_loop(net, None, degree)
    assert sorted(got) == sorted(want)
    for k in want:
        assert_same(got[k], want[k])


def on_a_cycle(net: NetworkSpec) -> set[int]:
    """The nodes that reach themselves along one or more edges."""
    reach = {k: {l for l in range(1, net.m + 1) if net.W[l - 1][k - 1]} for k in range(1, net.m + 1)}
    for _ in range(net.m):
        for k in reach:
            reach[k] |= {far for near in reach[k] for far in reach[near]}
    return {k for k in reach if k in reach[k]}


@pytest.mark.parametrize("name,make,i,degree", CLOSED_LOOPS, ids=[c[0] for c in CLOSED_LOOPS])
def test_feedback_gains_one_grade_per_degree(monkeypatch, name, make, i, degree):
    """Each node on a cycle is composed once per degree, each other node once,
    at the full degree. Between two degrees of a node on a cycle, its feedback
    gains at most the grade below the new degree and keeps the very grades
    built before; each feedback grade is combined at most once, no feedback
    series handed to a composition is changed afterwards, and linear_combine
    is not called."""
    net = make()
    handed: dict[int, list] = {}  # one list per composition: (n_out, feedback, its grades then)
    kept = []  # every composition's layers, so that no id is reused by a later one
    combined = 0

    def spy(route):
        def composed(c, d, n_out, mixed, layers):
            kept.append(layers)
            handed.setdefault(id(layers), []).append((n_out, d, dict(d._grades)))
            return route(c, d, n_out, mixed, layers)
        return composed

    def counted(parts):
        nonlocal combined
        combined += 1
        return series._combine(parts)

    def refused(pairs):
        raise AssertionError("the closed loop called linear_combine")

    monkeypatch.setattr(network, "compose_at", spy(compose_at))
    monkeypatch.setattr(network, "compose_maximal", spy(compose_maximal))
    monkeypatch.setattr(network, "_combine", counted)
    monkeypatch.setattr(network, "linear_combine", refused)
    closed_loop_series(net, i, degree)
    cyclic = len(on_a_cycle(net))
    schedules = sorted(tuple(n for n, _, _ in calls) for calls in handed.values())
    assert schedules == sorted([tuple(range(degree + 1))] * cyclic + [(degree,)] * (net.m - cyclic))
    in_edges = {tuple((l, w) for l, w in enumerate(row) if w) for row in net.W if any(row)}
    assert combined <= len(in_edges) * degree
    for calls in handed.values():
        for (_, before, _), (n, after, _) in zip(calls, calls[1:]):
            assert set(after._grades) - set(before._grades) <= {n - 1}
            assert all(after._grades[j] is grade for j, grade in before._grades.items())
        for _, d, grades in calls:
            assert d._grades == grades


# -- the global loop as an oracle --------------------------------------------------------------


def x1_chain(m: int) -> NetworkSpec:
    """m nodes x1 on the path 1 -> 2 -> ... -> m."""
    W = [[1 if l == k - 1 else 0 for l in range(m)] for k in range(m)]
    return NetworkSpec(m, W, [Series(1, 1, {(1,): 1})] * m)


def maximal_chain() -> NetworkSpec:
    """Two maximal nodes K = M = 1 on the edge 1 -> 2."""
    return NetworkSpec(2, [[0, 0], [1, 0]], [MaximalSeriesSpec(1, 1)] * 2)


# Every closed loop above, seeded criterion-7 samples, seeded sparse polynomial
# nets (each has a self-loop), and acyclic chains of polynomial and maximal nodes.
ORACLE_NETS = (
    [(name, make, degree) for name, make, i, degree in CLOSED_LOOPS if "_from_" not in name]
    + [(f"criterion7_{index}", lambda index=index: criterion7_sample(index), 4)
       for index in range(4)]
    + [(f"sparse_poly_{seed}", lambda seed=seed: sparse_poly_net(seed, 4 + seed % 3), 5)
       for seed in range(20, 26)]
    + [("x1_chain", lambda: x1_chain(5), 6), ("maximal_chain", maximal_chain, 7),
       ("ladder", lambda: ladder_net(5), 6)]
)


def assert_same_loop(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for k in want:
        assert got[k]._grades == want[k]._grades
        assert (got[k].max_degree, got[k].exact_to) == (want[k].max_degree, want[k].exact_to)


@pytest.mark.parametrize("name,make,degree", ORACLE_NETS, ids=[c[0] for c in ORACLE_NETS])
def test_components_match_the_global_loop(name, make, degree):
    """Settled by component, alone or with the input-free part shared across
    inputs, every loop has the grades and exact_to of the global loop: from
    each input, and with no input channel."""
    net = make()
    shared = list(network._closed_loops(net, degree, range(1, net.m + 1)))
    assert len(shared) == net.m
    for i, loop in enumerate(shared, 1):
        want = global_closed_loop(net, i, degree)
        assert_same_loop(closed_loop_series(net, i, degree), want)
        assert_same_loop(loop, want)
    [natural] = network._closed_loops(net, degree, (None,))
    assert_same_loop(natural, global_closed_loop(net, None, degree))
    assert len(words._shuffle_cache) == 0


def drive_by_the_global_loop(monkeypatch) -> list:
    """Route reldeg's closed loops through the global loop, which ignores the
    plan; the returned list gains one entry per loop it settles, so a test
    can tell that the route it compares really ran."""
    settled = []

    def loops(net, degree, inputs, plan=None):
        for i in inputs:
            settled.append(i)
            yield global_closed_loop(net, i, degree)
    monkeypatch.setattr(reldeg_module, "_closed_loops", loops)
    return settled


@pytest.mark.parametrize("make,degree", [(double_diamond_net, 8), (mixed_net, 5),
                                         (lambda: sparse_poly_net(21, 5), 5),
                                         (lambda: criterion7_sample(2), 4)],
                         ids=["double_diamond", "mixed", "sparse_poly_21", "criterion7_2"])
def test_complete_reldeg_is_the_global_loops(monkeypatch, make, degree):
    net = make()
    got = complete_reldeg(net, degree)
    settled = drive_by_the_global_loop(monkeypatch)
    assert got == complete_reldeg(net, degree)
    assert settled == list(range(1, net.m + 1))


def test_genericity_sample_is_the_global_loops(monkeypatch):
    pattern = [[0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 1, 0]]
    x1 = Series(1, 1, {(1,): 1})
    nodes = [x1, x1, Series(1, 1, {(1,): -1}), x1]
    runs = [(pattern, nodes, (1, 4, (0, 0, 1))), (CYCLE, [X1X1, X1X1], (2, 1, (0, 1)))]
    got = [genericity_sample(p, n, 12, seed=3, degree=4, designated=des) for p, n, des in runs]
    settled = drive_by_the_global_loop(monkeypatch)
    assert got == [genericity_sample(p, n, 12, seed=3, degree=4, designated=des)
                   for p, n, des in runs]
    assert settled == [*range(1, 5)] * 12 + [1, 2] * 12


CRITERION7_PATTERN = [[0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 1, 0]]
CRITERION7_NODES = [X1, X1, Series(1, 1, {(1,): -1}), X1]
# A maximal node on a self-loop feeding a maximal and a polynomial node, one of them on a cycle.
MAXIMAL_PATTERN = [[1, 0, 0], [1, 0, 1], [0, 1, 0]]
MAXIMAL_NODES = [MaximalSeriesSpec(1, Fraction(1, 2)), MaximalSeriesSpec(Fraction(2, 3), 1),
                 Series(1, 2, {(1,): 2, (0, 1): Fraction(-1, 3)})]
# (name, pattern, nodes, designated) of the Monte Carlo runs below.
GENERICITY_RUNS = [
    ("criterion7", CRITERION7_PATTERN, CRITERION7_NODES, (1, 4, (0, 0, 1))),
    ("cycle_x1x1", CYCLE, [X1X1, X1X1], (2, 1, (0, 1))),
    ("maximal", MAXIMAL_PATTERN, MAXIMAL_NODES, (1, 3, (0, 1, 1))),
    ("sparse_poly_22", [[int(w != 0) for w in row] for row in sparse_poly_net(22, 4).W],
     sparse_poly_net(22, 4).nodes, (1, 1, (1,))),
]


@pytest.mark.parametrize("with_designated", [False, True], ids=["counts", "designated"])
@pytest.mark.parametrize("degree", [3, 4, 5])
@pytest.mark.parametrize("name,pattern,nodes,designated", GENERICITY_RUNS,
                         ids=[run[0] for run in GENERICITY_RUNS])
def test_genericity_sample_is_the_per_sample_route(name, pattern, nodes, designated, degree,
                                                   with_designated):
    """The Monte Carlo with its plan built once equals drawing each sample,
    closing each input's loop alone and measuring every output."""
    designated = designated if with_designated else None
    got = genericity_sample(pattern, nodes, 5, seed=41, degree=degree, designated=designated,
                            bins=7)
    want = per_sample_genericity(pattern, nodes, 5, 41, degree, designated, bins=7)
    assert got == want
    assert len(got.values) == (5 if with_designated else 0)


def counting(monkeypatch, module, name: str, calls: list, record=lambda *args: args):
    """Replace module.name by a wrapper that appends record(*args) to calls."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(record(*args))
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("samples", [1, 50])
def test_genericity_sample_plans_once_and_draws_every_sample(monkeypatch, samples):
    """The weight-independent plan of the closed loops, with the skeleton of
    each polynomial node, is built once per call, not per sample or input,
    and every sample is still drawn through sample_network."""
    plans, skeletons, drawn = [], [], []
    counting(monkeypatch, network, "_plan", plans)
    counting(monkeypatch, reldeg_module, "_plan", plans)
    for module in (network, compose_module):
        counting(monkeypatch, module, "_skeleton", skeletons)
    counting(monkeypatch, reldeg_module, "sample_network", drawn, lambda *args: args[3])
    genericity_sample(CRITERION7_PATTERN, CRITERION7_NODES, samples, seed=5, degree=3,
                      designated=(1, 4, (0, 0, 1)))
    assert len(plans) == 1
    assert len(skeletons) == len(CRITERION7_NODES)
    assert drawn == list(range(samples))


@pytest.mark.parametrize("name,make,degree", ORACLE_NETS, ids=[c[0] for c in ORACLE_NETS])
def test_complete_reldeg_reads_its_structure_once(monkeypatch, name, make, degree):
    """One structural pass per net: each node's degree report at most once,
    one ancestor closure of the weight matrix, and one skeleton per
    polynomial node."""
    net = make()
    reports, closures, skeletons = [], [], []
    counting(monkeypatch, reldeg_module, "node_degree_report", reports, lambda net, k: k)
    for module in (network, reldeg_module):
        counting(monkeypatch, module, "_ancestors", closures, lambda W: W is net.W)
    for module in (network, compose_module):
        counting(monkeypatch, module, "_skeleton", skeletons)
    complete_reldeg(net, degree)
    assert len(reports) == len(set(reports)) <= net.m
    assert closures.count(True) == 1
    assert len(skeletons) == sum(isinstance(node, Series) for node in net.nodes)


@pytest.mark.parametrize("m", [8, 12, 16])
def test_complete_reldeg_closes_each_fully_connected_sink_once(monkeypatch, m):
    """The closure short of a fully connected sink depends on the sink alone:
    the complete x1 net takes one per sink and one for the plan, at most
    m + 1, where one per pair took m (m - 1) + 1."""
    net = NetworkSpec(m, [[int(k != l) for l in range(m)] for k in range(m)], [X1] * m)
    closures = []
    for module in (network, reldeg_module):
        counting(monkeypatch, module, "_ancestors", closures)
    reports = complete_reldeg(net, 2)
    assert len(closures) <= m + 1
    assert {rep.predicted.condition for (i, j), rep in reports.items() if i != j} == {
        "fully_connected"}


@pytest.mark.parametrize("make", [lambda: x1_chain(6), lambda: NetworkSpec(2, CYCLE, [X1] * 2),
                                  lambda: ladder_net(4)], ids=["chain", "cycle", "ladder"])
def test_a_loop_of_x1_nodes_takes_no_shuffle(monkeypatch, make):
    """The image of x1 is x0 d (+ x1 at degree 1), read off the feedback."""
    shuffles = []
    counting(monkeypatch, compose_module, "_shuffle_terms", shuffles)
    net = make()
    for i in range(1, net.m + 1):
        assert_same_loop(closed_loop_series(net, i, 6), global_closed_loop(net, i, 6))
    assert shuffles == []


def undefined_node_net() -> NetworkSpec:
    """Node 2, x1 x1, has no relative degree, so every prediction through it fails."""
    W = [[0, 0, 0], [1, 0, 0], [0, 1, Fraction(1, 3)]]
    return NetworkSpec(3, W, [X1, Series(1, 2, {(1, 1): 1}), X1X1])


COMPLETE_RELDEG_NETS = ORACLE_NETS + [("undefined_node", undefined_node_net, 4)]


@pytest.mark.parametrize("budget", [None, 2], ids=["budget", "budget_2"])
@pytest.mark.parametrize("name,make,degree", COMPLETE_RELDEG_NETS,
                         ids=[c[0] for c in COMPLETE_RELDEG_NETS])
def test_complete_reldeg_is_pair_report_pair_by_pair(monkeypatch, name, make, degree, budget):
    """Each report, prediction errors and their strings included, is the one
    pair_report gives on the measured relative degree of the closed loop."""
    if budget is not None:
        monkeypatch.setattr(network, "NODE_BUDGET", budget)
    net = make()
    got = complete_reldeg(net, degree)
    assert list(got) == [(i, j) for i in range(1, net.m + 1) for j in range(1, net.m + 1)]
    for i in range(1, net.m + 1):
        closed = closed_loop_series(net, i, degree)
        for j in range(1, net.m + 1):
            assert got[(i, j)] == pair_report(net, i, j, relative_degree(closed[j]))


def test_complete_reldeg_keeps_both_prediction_errors(monkeypatch):
    """The equality above covers a ConditionError and a SubgraphBudgetError."""
    assert complete_reldeg(undefined_node_net(), 4)[(1, 3)].prediction_error == (
        "relative degree is undefined")
    monkeypatch.setattr(network, "NODE_BUDGET", 2)
    assert complete_reldeg(x1_chain(5), 6)[(1, 5)].prediction_error == (
        "5 candidate nodes exceed the budget of 2")


def test_a_chain_deeper_than_the_recursion_limit_settles():
    """The components come from an iterative search, so a path of more nodes
    than Python's recursion limit settles."""
    m = sys.getrecursionlimit() + 100
    d = closed_loop_series(x1_chain(m), 1, 2)
    assert dict(d[1].terms) == {(1,): 1}
    assert dict(d[2].terms) == {(0, 1): 1}
    assert all(d[k].is_zero() for k in range(3, m + 1))


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


# -- relative degree read off the stored grades ---------------------------------------------

# Seeded loops beside CLOSED_LOOPS: sparse polynomial nets at degree 5,
# criterion-7 samples at degree 3 and all-maximal nets at degree 5.
SEEDED_LOOPS = (
    [(f"sparse_poly_{seed}", lambda seed=seed: sparse_poly_net(seed, 4 + seed % 3),
      1 + seed % 3, 5) for seed in range(10, 18)]
    + [(f"criterion7_{index}", lambda index=index: criterion7_sample(index), 1, 3)
       for index in range(8)]
    + [(f"seeded_maximal_{seed}", lambda seed=seed: seeded_maximal_net(seed, 3), 1 + seed, 5)
       for seed in range(3)]
)

# Series that take the branches few closed loops reach.
BRANCH_SERIES = {
    "zero": Series(1, 5),
    "drift_only": Series(1, 4, {(): 1, (0, 0): Fraction(2, 3)}),
    "refuted": Series(1, 3, {(0, 1, 1): 1, (0, 0): 2}),
    "inexact_tail_defined": Series(1, 5, {(0, 1): Fraction(1, 4), (1, 1, 1): 4}, exact_to=2),
    "inexact_tail_undetermined": Series(1, 5, {(0,): 1, (0, 0, 1): 2, (1, 0): 3}, exact_to=1),
    "zero_below_exact_to": Series(1, 5, {(1, 0, 0, 1): 2}, exact_to=2),
}


def assert_same_report(got, want) -> None:
    """Equal reports, with the leading coefficient of the same canonical type."""
    assert (got, type(got.leading)) == (want, type(want.leading))


@pytest.mark.parametrize("name,make,i,degree", CLOSED_LOOPS + SEEDED_LOOPS,
                         ids=[c[0] for c in CLOSED_LOOPS + SEEDED_LOOPS])
def test_relative_degree_matches_the_flat_map_oracle(name, make, i, degree):
    """Every node's closed-loop series gets the report the flat coefficient
    map gave, and its support is the flat map's word set; every node's own
    degree matches too, maximal nodes included."""
    net = make()
    for d in closed_loop_series(net, i, degree).values():
        assert d.support() == set(d.terms)
        assert_same_report(relative_degree(d), flat_relative_degree(d))
    for k in range(1, net.m + 1):
        assert_same_report(node_degree_report(net, k), formula_node_degree_report(net, k))


@pytest.mark.parametrize("name", sorted(BRANCH_SERIES))
def test_relative_degree_branches_match_the_flat_map_oracle(name):
    c = BRANCH_SERIES[name]
    assert c.support() == set(c.terms)
    assert_same_report(relative_degree(c), flat_relative_degree(c))


@pytest.mark.parametrize("K", [1, Fraction(3, 4), Fraction(7, 3), 5])
@pytest.mark.parametrize("M", [1, Fraction(3, 4), Fraction(7, 3), 5])
def test_maximal_node_degree_is_its_expansion_read(K, M):
    """A maximal node's report, read off its degree-1 expansion, is the
    K M formula's: defined, r = 1, leading K M of the same type, truncation 1."""
    net = NetworkSpec(1, [[0]], [MaximalSeriesSpec(K, M)])
    assert_same_report(node_degree_report(net, 1), formula_node_degree_report(net, 1))


# -- term cap --------------------------------------------------------------------------------


class TestTermCap:
    def test_deep_request_fails_after_a_few_degrees(self, monkeypatch):
        monkeypatch.setattr(network, "TERM_CAP", 200)
        with pytest.raises(DomainError, match=r"at degree [3-6], over the cap of 200"):
            closed_loop_series(all_ones_maximal(1), 1, 30)

    @pytest.mark.parametrize(
        "make,cap",
        [(lambda: all_ones_maximal(3), cap) for cap in (200, 2000, 20000)]
        + [(maximal_chain, cap) for cap in (200, 2000, 20000)],
        ids=["200", "2000", "20000", "chain-200", "chain-2000", "chain-20000"],
    )
    def test_loop_overshoots_the_cap_by_at_most_one_composition(self, monkeypatch, make, cap):
        """The cap is checked after every degree that a composition settles,
        also within the one composition of a node outside every cycle; so
        without the terms and memo words the last settled degree added the
        loop was still under it."""
        monkeypatch.setattr(network, "TERM_CAP", cap)
        counts = []
        check = compose_module._Held.check

        def counted(held, n):
            counts.append(held.terms + sum(map(len, held.memo.values())))
            check(held, n)

        monkeypatch.setattr(compose_module._Held, "check", counted)
        with pytest.raises(DomainError, match=f"over the cap of {cap}") as err:
            closed_loop_series(make(), 1, 30)
        held = int(re.search(r"holds (\d+) terms", str(err.value)).group(1))
        assert counts[-1] == held
        assert counts[-2] <= cap < held

    @pytest.mark.parametrize("make", [
        lambda: NetworkSpec(1, [[0]], [MaximalSeriesSpec(1, 1)]), maximal_chain,
    ], ids=["one_node", "chain"])
    def test_acyclic_maximal_loop_stops_at_degree_5(self, monkeypatch, make):
        """A maximal node off every cycle is composed once, to degree 30; the
        cap stops it after degree 5, where it holds 221 terms and memo words."""
        monkeypatch.setattr(network, "TERM_CAP", 200)
        with pytest.raises(DomainError, match="holds 221 terms and memo words at degree 5,"):
            closed_loop_series(make(), 1, 30)

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
