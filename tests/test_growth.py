"""Envelope growth rates, the lower-branch product log, and the cubic
response ODE, cross-checked against mpmath and an independent Picard oracle."""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from fliessnet import (
    DomainError,
    NoConvergence,
    abel_taylor,
    as_coeff,
    closed_form_natural_response,
    lambert_w_lower,
    m_inf_bound,
)
from abel_oracle import binomial_abel_taylor
from lambert_oracle import oracle_lambert_w_lower

mpmath.mp.dps = 50


def picard_series(m: int, K: Fraction, M: Fraction, n_max: int) -> list[Fraction]:
    """Taylor coefficients of z' = (M/K)(z^2 + m z^3), z(0) = K, by iterating
    the integral form with dense polynomial arithmetic. Slow and independent."""

    def mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * (n_max + 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                if i + j <= n_max:
                    out[i + j] += ai * bj
        return out

    z = [Fraction(K)] + [Fraction(0)] * n_max
    ratio = Fraction(M) / Fraction(K)
    for _ in range(n_max + 1):
        sq = mul(z, z)
        cu = mul(sq, z)
        rhs = [ratio * (sq[k] + m * cu[k]) for k in range(n_max + 1)]
        z = [Fraction(K)] + [rhs[k] / (k + 1) for k in range(n_max)]
    return z


def fraction_abel_taylor(m: int, K, M, n_max: int) -> tuple[list, list, list]:
    """(z, a, mhat) of abel_taylor by the Fraction recursion it replaced:
    (k+1) z_{k+1} = (M/K) (sum_{a+b=k} z_a z_b + m sum_{a+b+c=k} z_a z_b z_c)."""
    K, M = as_coeff(K), as_coeff(M)
    ratio = Fraction(M) / Fraction(K)
    z = [K]
    pair_conv = [K * K]
    for k in range(n_max):
        conv2 = pair_conv[k]
        conv3 = sum(z[c] * pair_conv[k - c] for c in range(k + 1))
        z.append(as_coeff(ratio * (conv2 + m * conv3) / (k + 1)))
        pair_conv.append(sum(z[a] * z[k + 1 - a] for a in range(k + 2)))
    a = [as_coeff(math.factorial(k) * Fraction(zk)) for k, zk in enumerate(z)]
    mhat = [as_coeff(Fraction(z[n]) / Fraction(z[n - 1])) for n in range(1, n_max + 1)]
    return z, a, mhat


def assert_same_coeffs(got, want) -> None:
    assert list(got) == list(want)
    assert [type(x) for x in got] == [type(y) for y in want]


class TestLambertLower:
    def test_against_mpmath(self):
        xs = [-0.36787, -0.36, -0.3, -0.2, -0.1, -1e-2, -1e-4, -1e-8, -1e-30]
        for x in xs:
            ref = float(mpmath.lambertw(x, -1).real)
            assert math.isclose(lambert_w_lower(x), ref, rel_tol=1e-12), x

    def test_residual_and_branch(self):
        for x in [-0.3678, -0.25, -0.05, -1e-6]:
            w = lambert_w_lower(x)
            assert w <= -1.0 + 1e-12
            assert math.isclose(w * math.exp(w), x, rel_tol=1e-12), x

    def test_anchor_points(self):
        """W(-1/e) = -1, and W(w e^w) = w at w = -2 ln 2, -2, -3."""
        assert lambert_w_lower(-math.exp(-1.0)) == -1.0
        for w in (-2.0 * math.log(2.0), -2.0, -3.0):
            assert math.isclose(lambert_w_lower(w * math.exp(w)), w, rel_tol=1e-15), w

    def test_inverts_w_exp_w_along_the_branch(self):
        """From w = -1.5 out to w = -700, where w e^w is about -7e-302."""
        for w in -np.geomspace(1.5, 700.0, 400):
            w = float(w)
            assert math.isclose(lambert_w_lower(w * math.exp(w)), w, rel_tol=1e-14), w

    def test_domain(self):
        for bad in [0.0, 0.5, -1.0, float("inf")]:
            with pytest.raises(DomainError):
                lambert_w_lower(bad)


# Arguments x with e x + 1 log-spaced over [1e-8, 1e-2]: the band next to the
# branch point where the Halley step stalls above its tolerance.
NEAR_BRANCH = [(float(d) - 1.0) / math.e for d in np.geomspace(1e-8, 1e-2, 2000)]
LOWER_POINTS = [-0.36787, -0.36, -0.3, -0.2, -0.1, -1e-2, -1e-4, -1e-8, -1e-30, -0.3678,
                -0.25, -0.05, -1e-6]
BRANCHES = [
    (lambert_w_lower, oracle_lambert_w_lower, -1, LOWER_POINTS),
]
BRANCH_IDS = ["lower"]


class TestLambertNearBranchPoint:
    @pytest.mark.parametrize("w, _oracle, k, _points", BRANCHES, ids=BRANCH_IDS)
    def test_against_mpmath_40_digits(self, w, _oracle, k, _points):
        with mpmath.workdps(40):
            for x in NEAR_BRANCH:
                ref = mpmath.lambertw(mpmath.mpf(x), k).real
                assert abs(mpmath.mpf(w(x)) / ref - 1) <= 1e-12, x

    @pytest.mark.parametrize("w, oracle, _k, points", BRANCHES, ids=BRANCH_IDS)
    def test_same_floats_where_the_old_routine_converges(self, w, oracle, _k, points):
        stalled = 0
        for x in NEAR_BRANCH + points:
            try:
                expected = oracle(x)
            except NoConvergence:
                stalled += 1
                continue
            assert w(x) == expected, x
        assert stalled > 0  # the grid reaches the band where the old loop stalled

    @pytest.mark.parametrize("w, _oracle, _k, points", BRANCHES, ids=BRANCH_IDS)
    def test_strictly_decreasing_away_from_the_branch_point(self, w, _oracle, _k, points):
        """The lower branch falls from -1 as x rises from -1/e towards 0,
        across the band where the kernel hands over from series to Halley."""
        values = [w(x) for x in sorted(NEAR_BRANCH + points)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("w", [lambert_w_lower], ids=BRANCH_IDS)
    def test_guard_band_below_the_branch_point_is_minus_one(self, w):
        """Floats below -1/e but within the 1e-12 guard band, the two ends
        and a seeded sample between, all give W = -1 on the lower branch."""
        branch_point = -math.exp(-1.0)
        edge = branch_point - 1e-12
        rng = np.random.default_rng(20261020)
        band = [branch_point - 1e-12 * u for u in rng.random(500)]
        band += [math.nextafter(branch_point, -1.0), math.nextafter(edge, 0.0)]
        band = [x for x in band if edge < x < branch_point]
        assert len(band) > 400
        for x in band:
            assert repr(w(x)) == "-1.0", x


class TestGrowthRate:
    def test_pinned_three_node_instance(self):
        bound = m_inf_bound(3, 4, 3)
        assert math.isclose(bound.M_inf, 77.28668240617978, rel_tol=1e-14)
        assert math.isclose(bound.t_star, 1.0 / bound.M_inf, rel_tol=1e-15)

    def test_matches_direct_formula(self):
        # M_inf = Mbar / (1 - x log(1 + 1/x)) with x = m * Kbar
        for Kbar, Mbar, m in [(1, 1, 1), (2, 3, 2), (0.5, 1.25, 4), (7, 2, 5), (3, 1, 6)]:
            x = mpmath.mpf(m) * mpmath.mpf(Kbar)
            lam = 1 - x * mpmath.log(1 + 1 / x)
            ref = float(mpmath.mpf(Mbar) / lam)
            got = m_inf_bound(Kbar, Mbar, m).M_inf
            assert math.isclose(got, ref, rel_tol=1e-12), (Kbar, Mbar, m)

    def test_series_branch_agrees_with_log_form(self):
        # the alternating series takes over for m * Kbar >= 8; both branches
        # must match the reference and join continuously at the switch
        for x in (7.999999999, 8.000000001):
            xm = mpmath.mpf(x)
            ref = float(1 / (1 - xm * mpmath.log(1 + 1 / xm)))
            assert math.isclose(m_inf_bound(x, 1, 1).M_inf, ref, rel_tol=1e-12), x
        lo = m_inf_bound(7.999999999, 1, 1).M_inf
        hi = m_inf_bound(8.000000001, 1, 1).M_inf
        assert math.isclose(lo, hi, rel_tol=1e-8)
        ref = float(1 / (1 - mpmath.mpf(40) * mpmath.log(1 + mpmath.mpf(1) / 40)))
        assert math.isclose(m_inf_bound(8, 1, 5).M_inf, ref, rel_tol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            m_inf_bound(0, 1, 1)
        with pytest.raises(DomainError):
            m_inf_bound(1, -2, 1)
        with pytest.raises(DomainError):
            m_inf_bound(1, 1, 0)
        with pytest.raises(DomainError):
            m_inf_bound(1, 1, True)

    @pytest.mark.parametrize("K,M,m", [
        ("1e400", 1, 1), ("1e-400", 1, 1), (1, "1e-400", 1), (1, "1e-310", 1),
        ("1e308", 1, 1), (1, 1, 10**400),
    ])
    def test_constants_outside_the_float_range_are_a_domain_error(self, K, M, m):
        """These once raised OverflowError or ZeroDivisionError, or gave an
        infinite M_inf or t_star."""
        with pytest.raises(DomainError, match="float range"):
            m_inf_bound(K, M, m)


class TestTaylorRecursion:
    def test_matches_picard_oracle(self):
        for m, K, M in [(1, 1, 1), (2, Fraction(3, 2), Fraction(1, 2)), (3, 2, 1)]:
            seq = abel_taylor(m, K, M, 8)
            oracle = picard_series(m, Fraction(K), Fraction(M), 8)
            assert list(seq.z) == oracle, (m, K, M)

    def test_derivatives_are_scaled_coefficients(self):
        seq = abel_taylor(2, 1, 1, 6)
        for k, (zk, ak) in enumerate(zip(seq.z, seq.a)):
            assert ak == math.factorial(k) * zk

    def test_derivative_past_the_float_range_is_a_domain_error(self):
        """a_139 of the all-ones envelope exceeds the float range; a_floats
        once ended in an OverflowError, while the ratio mhat_200 stays a float."""
        seq = abel_taylor(1, 1, 1, 200)
        with pytest.raises(DomainError, match="a_139 lies outside the float range"):
            seq.a_floats()
        assert seq.mhat_float(200) == pytest.approx(3.2507462, rel=1e-7)

    def test_ratio_column_and_float_views(self):
        seq = abel_taylor(1, 1, 1, 5)
        assert list(seq.a) == [1, 2, 10, 82, 938, 13778]
        assert seq.mhat[0] == Fraction(2)
        assert seq.mhat[1] == Fraction(10, 2) / 2
        assert seq.mhat_float(3) == pytest.approx(float(Fraction(82, 3) / 10))
        assert seq.a_floats() == [1.0, 2.0, 10.0, 82.0, 938.0, 13778.0]

    def test_ratios_increase_toward_limit(self):
        for m in (1, 3, 6):
            seq = abel_taylor(m, 1, 1, 60)
            floats = [seq.mhat_float(n) for n in range(1, 61)]
            assert all(a < b for a, b in zip(floats, floats[1:]))
            assert floats[-1] < m_inf_bound(1, 1, m).M_inf

    def test_matches_the_fraction_recursion(self):
        """The integer kernel gives the values and the types (int when
        integral, Fraction otherwise) of the Fraction loop it replaced."""
        constants = [(1, 1), (2, 3), (Fraction(3, 4), Fraction(5, 2)),
                     (Fraction(7, 3), Fraction(1, 4)), (Fraction(1, 6), 7)]
        for m in range(1, 7):
            for K, M in constants:
                for n_max in (0, 1, 2, 9, 60):
                    seq = abel_taylor(m, K, M, n_max)
                    z, a, mhat = fraction_abel_taylor(m, K, M, n_max)
                    assert_same_coeffs(seq.z, z)
                    assert_same_coeffs(seq.a, a)
                    assert_same_coeffs(seq.mhat, mhat)

    @pytest.mark.parametrize("m,K,M,n_max", [
        pytest.param(m, K, M, n_max, id=f"m={m}-K={K}-M={M}-n={n_max}")
        for m, K, M, n_max in [
            *[(m, 1, 1, 150 + 20 * (m - 1)) for m in range(1, 7)],
            *[(m, K, M, 120) for m in (1, 3, 6) for K, M in [
                (Fraction(3, 4), Fraction(5, 2)), (Fraction(7, 3), Fraction(1, 4)), (0.1, 1e-3)]],
        ]
    ])
    def test_matches_the_binomial_kernel(self, m, K, M, n_max):
        """The derivative-polynomial steps give the values and the types of the
        binomial convolution kernel they replaced, at the benchmark's depths and
        with the 52- to 56-bit p and q of float-derived constants."""
        seq = abel_taylor(m, K, M, n_max)
        z, a, mhat = binomial_abel_taylor(m, K, M, n_max)
        assert_same_coeffs(seq.z, z)
        assert_same_coeffs(seq.a, a)
        assert_same_coeffs(seq.mhat, mhat)

    def test_ratio_column_at_depth(self):
        """The envelope has a square-root singularity at t_star, so
        mhat_n = M_inf (1 - 1/(2n) + O(n^-2)); at n = 250 the O(n^-2) term
        is below 5e-7 for every m."""
        for m in range(1, 7):
            ratio = abel_taylor(m, 1, 1, 250).mhat_float(250) / m_inf_bound(1, 1, m).M_inf
            assert abs(ratio - (1 - 1 / 500)) < 1e-5, m

    def test_domain(self):
        with pytest.raises(DomainError):
            abel_taylor(0, 1, 1, 3)
        with pytest.raises(DomainError):
            abel_taylor(1, 0, 1, 3)
        with pytest.raises(DomainError):
            abel_taylor(1, 1, -1, 3)
        for n_max in (-1, 2.0, "3", True, None):
            with pytest.raises(DomainError, match="n_max"):
                abel_taylor(1, 1, 1, n_max)


class TestClosedForm:
    def test_initial_value_exact(self):
        for m, K, M in [(1, 1.0, 1.0), (3, 2.5, 0.5)]:
            assert closed_form_natural_response(m, K, M, 0.0) == K

    def test_matches_taylor_partial_sums(self):
        m, K, M = 2, 1, 1
        seq = abel_taylor(m, K, M, 40)
        t = 0.02
        series_value = sum(float(zk) * t**k for k, zk in enumerate(seq.z))
        closed = closed_form_natural_response(m, K, M, t)
        assert math.isclose(closed, series_value, rel_tol=1e-10)

    def test_monotone_and_blows_up_near_t_star(self):
        # square-root singularity: z ~ (t_star - t)^(-1/2), so 1e-8 of
        # headroom already pushes the value past 1e3
        m, K, M = 1, 1.0, 1.0
        t_star = m_inf_bound(K, M, m).t_star
        fractions_of_range = (0.0, 0.5, 0.9, 0.999, 1.0 - 1e-8)
        samples = [closed_form_natural_response(m, K, M, f * t_star) for f in fractions_of_range]
        assert all(a < b for a, b in zip(samples, samples[1:]))
        assert samples[-1] > 1e3 * K

    def test_just_below_t_star_is_a_domain_error(self):
        """At (m, K, M) = (3, 3, 4) the lower branch rounds to W = -1 on each
        of the 60 floats below t_star, which once raised ZeroDivisionError."""
        t = t_star = m_inf_bound(3, 4, 3).t_star
        for _ in range(60):
            t = math.nextafter(t, 0.0)
            with pytest.raises(DomainError, match=f"too close to t_star = {t_star}"):
                closed_form_natural_response(3, 3, 4, t)

    # (m, K, M, t): for each (m, K, M) below, the t nearest t_star among the
    # 3,000 floats below it at which the lower branch's argument
    # -s exp(M t / (m K) - s), s = 1 + 1/(m K), rounds below -1/e.
    BELOW_BRANCH_POINT = [
        (1, 3, 4, 0.03423844566116432),
        (1, Fraction(1, 2), 2, 0.2253469278329726),
        (2, Fraction(7, 3), Fraction(2, 9), 0.4227236967398932),
        (3, 1, 1, 0.13695378264465727),
        (4, 2, Fraction(1, 4), 0.23094285899572947),
        (4, 5, 7, 0.0034566738016228483),
        (6, Fraction(1, 2), 2, 0.06847689132232863),
    ]

    @pytest.mark.parametrize("m, K, M, t", BELOW_BRANCH_POINT)
    def test_w_argument_below_the_branch_point_is_a_domain_error(self, m, K, M, t):
        t_star = m_inf_bound(K, M, m).t_star
        s = 1.0 + 1.0 / (m * float(K))
        assert -s * math.exp(float(M) * t / (m * float(K)) - s) < -math.exp(-1.0)
        with pytest.raises(DomainError, match=f"t = {t} lies too close to t_star = {t_star}"):
            closed_form_natural_response(m, K, M, t)

    def test_domain(self):
        t_star = m_inf_bound(1, 1, 1).t_star
        with pytest.raises(DomainError):
            closed_form_natural_response(1, 1, 1, t_star)
        with pytest.raises(DomainError):
            closed_form_natural_response(1, 1, 1, -0.1)
        for K, M in [("1e400", 1), ("1e-400", 1), (1, "1e-400")]:
            with pytest.raises(DomainError, match="float range"):
                closed_form_natural_response(1, K, M, 0.0)
