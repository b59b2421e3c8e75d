"""Convergence bounds and the exact blow-up envelope recursion.

The envelope of an m-node network whose nodes all satisfy the factorial
growth bound with constants (Kbar, Mbar) obeys the scalar Abel equation
z' = (Mbar/Kbar)(z^2 + m z^3), z(0) = Kbar. Its Taylor coefficients give the
worst-case output derivatives a_n, the geometric growth rate M_inf, and the
minimal finite escape time t_star = 1/M_inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NoConvergence
from .series import Coeff, _check_int, _check_real, _float, as_coeff, positive_constants

_BRANCH_POINT = -math.exp(-1.0)
_BRANCH_GUARD = 1e-12


def _branch_series(p: float) -> float:
    # W(-exp(-1)(1 - p^2/2 ...)) expanded around the branch point; p <= 0
    # selects the lower branch.
    return -1.0 + p * (
        1.0
        + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (-43.0 / 540.0 + p * (769.0 / 17280.0))))
    )


def _halley(x: float, w: float) -> float:
    prev = math.inf
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= step
        size = abs(step)
        if size <= 1e-14 * (1.0 + abs(w)):
            return w
        # Near -1/e the problem is ill-conditioned and the step stalls above
        # the tolerance: once it stops shrinking at roundoff level, w is as
        # good as double precision allows.
        if prev <= size <= 1e-9 * (1.0 + abs(w)):
            return w
        prev = size
    raise NoConvergence(f"Lambert W iteration did not settle for x = {x}")


def lambert_w_lower(x: float) -> float:
    """Lower real branch: the solution of W e^W = x with W <= -1, for x in [-1/e, 0)."""
    x = _check_real(x, "Lambert W argument x")
    if x >= 0.0 or x <= _BRANCH_POINT - _BRANCH_GUARD:
        raise DomainError(f"lambert_w_lower needs -1/e <= x < 0, got {x}")
    # Every float of the guard band below -1/e gives p_sq <= 0, so W = -1.
    p_sq = 2.0 * (math.e * x + 1.0)
    if p_sq <= 0.0:
        return -1.0
    p = -math.sqrt(p_sq)
    if abs(p) < 1e-3:
        return _branch_series(p)
    if x < -0.33:
        seed = _branch_series(p)
    else:
        # Asymptotic seed, tightened by the contraction w -> log(-x) - log(-w)
        # so Halley starts safely on this branch.
        log_mx = math.log(-x)
        seed = log_mx - math.log(-log_mx)
        for _ in range(8):
            seed = log_mx - math.log(-seed)
    return _halley(x, seed)


def _lambda(x: float) -> float:
    """1 - x log(1 + 1/x) for x > 0, stable for large x."""
    if x < 8.0:
        return 1.0 - x * math.log1p(1.0 / x)
    total = 0.0
    sign = 1.0
    power = x
    for k in range(2, 60):
        term = sign / (k * power)
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
        sign = -sign
        power *= x
    return total


def _envelope_constants(K, M, m) -> tuple[Coeff, Coeff]:
    """Check the envelope's inputs: positive (K, M) and a positive node count m."""
    K, M = positive_constants(K, M)
    _check_int(m, "node count m", 1)
    return K, M


@dataclass(frozen=True)
class GrowthBound:
    Kbar: Coeff
    Mbar: Coeff
    m: int
    M_inf: float
    t_star: float


def m_inf_bound(Kbar, Mbar, m: int) -> GrowthBound:
    """Geometric growth rate M_inf = Mbar / (1 - m Kbar log(1 + 1/(m Kbar))).

    t_star = 1/M_inf lower-bounds the escape time of every network dominated
    by the (Kbar, Mbar) envelope.
    """
    Kbar, Mbar = _envelope_constants(Kbar, Mbar, m)
    try:
        m_inf = _float(Mbar, "Mbar") / _lambda(_float(m * Kbar, "m Kbar"))
        t_star = 1.0 / m_inf
    except (DomainError, ZeroDivisionError):
        m_inf = t_star = math.inf
    if not (math.isfinite(m_inf) and math.isfinite(t_star)):
        raise DomainError("M_inf or t_star of these K, M and m lies outside the float range")
    return GrowthBound(Kbar, Mbar, m, m_inf, t_star)


@dataclass(frozen=True)
class AbelSequence:
    """Exact Taylor data of the envelope: z_k, derivatives a_k = k! z_k, and
    the ratio estimates mhat[n-1] = a_n / (n a_{n-1}) = z_n / z_{n-1}."""

    m: int
    K: Coeff
    M: Coeff
    z: tuple[Coeff, ...]
    a: tuple[Coeff, ...]
    mhat: tuple[Coeff, ...]

    def a_floats(self) -> list[float]:
        return [_float(v, f"a_{k}") for k, v in enumerate(self.a)]

    def mhat_float(self, n: int) -> float:
        if _check_int(n, "n", 1) > len(self.mhat):
            raise DomainError(f"mhat defined for 1 <= n <= {len(self.mhat)}")
        return _float(self.mhat[n - 1], f"mhat_{n}")


def abel_taylor(m: int, K, M, n_max: int) -> AbelSequence:
    """Taylor coefficients of z' = (M/K)(z^2 + m z^3), z(0) = K, in exact arithmetic.

    With z = K w and s = M t the envelope is dw/ds = w^2 + r w^3, w(0) = 1,
    r = m K = p/q. The iterated Lie derivatives Q_0 = w, Q_{k+1} = Q_k' (q w^2 + p w^3)
    give q^k d^k w/ds^k = Q_k(w), with integer coefficients on w^(k+1) .. w^(2k+1),
    so each step multiplies k+1 integers by small ones. With N_k = Q_k(1) = k! q^k w_k,
    a_k = K M^k N_k / q^k, and only the outputs are Fractions.
    """
    K, M = _envelope_constants(K, M, m)
    _check_int(n_max, "n_max", 0)
    p, q = (m * K).as_integer_ratio()
    Q, N = [1], [1]  # Q[i] is the coefficient of w^(k+i) in Q_(k-1)
    for k in range(1, n_max + 1):
        D = [e * c for e, c in enumerate(Q, k)]
        Q = [q * a + p * b for a, b in zip(D + [0], [0] + D)]
        N.append(sum(Q))
    kn, kd = K.as_integer_ratio()
    sn, sd = (M / Fraction(q)).as_integer_ratio()
    a = [Fraction(kn * sn**k * nk, kd * sd**k) for k, nk in enumerate(N)]
    z = [as_coeff(ak / math.factorial(k)) for k, ak in enumerate(a)]
    mhat = [as_coeff(Fraction(z[n]) / z[n - 1]) for n in range(1, n_max + 1)]
    return AbelSequence(m, K, M, tuple(z), tuple(map(as_coeff, a)), tuple(mhat))


def closed_form_natural_response(m: int, K, M, t: float) -> float:
    """Envelope value at the real time t in [0, t_star), via the lower Lambert branch.

    z(t) = (-1/m) / (1 + W(-(1+1/(mK)) exp(M t/(m K) - (1+1/(mK))))), which
    satisfies z(0) = K exactly and blows up as t approaches t_star; a t so
    close to t_star that W rounds to -1 raises DomainError.
    """
    bound = m_inf_bound(K, M, m)
    t = _check_real(t, "t")
    if not 0.0 <= t < bound.t_star:
        raise DomainError(f"t must lie in [0, t_star) with t_star = {bound.t_star}")
    k_f = _float(bound.Kbar, "Kbar")
    m_f = _float(bound.Mbar, "Mbar")
    if t == 0.0:
        # W(-s e^{-s}) = -s on the lower branch, so the formula collapses to K
        return k_f
    s = 1.0 + 1.0 / (m * k_f)
    w = lambert_w_lower(-s * math.exp(m_f * t / (m * k_f) - s))
    if 1.0 + w == 0.0:
        raise DomainError(f"t = {t} lies too close to t_star = {bound.t_star} to resolve")
    return (-1.0 / m) / (1.0 + w)
