"""Independent references for the benchmark's output checks.

Nothing here calls fliessnet. The pinned tables are the paper's numbers as
the acceptance suite freezes them; the recursions are second derivations of
quantities the package computes another way.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Exact zero-input derivatives of the uniform all-ones network (criterion 1).
DERIVATIVE_TABLE = {
    1: [1, 2, 10, 82, 938, 13778, 247210],
    2: [1, 3, 24, 318, 5892, 140304],
    3: [1, 4, 44, 804, 20556, 675588],
    4: [1, 5, 70, 1630, 53120, 2225480],
    5: [1, 6, 102, 2886, 114294, 5819190],
    6: [1, 7, 140, 4662, 217308, 13022688],
}
# M_inf to 4 decimals and the n = 50 ratio estimate to 5 figures (criterion 2).
M_INF_TABLE = [3.2589, 5.2891, 7.3017, 9.3088, 11.3132, 13.3163]
MHAT50_TABLE = [3.22634, 5.23618, 7.22873, 9.21567, 11.2001, 13.1831]
# The three-node bound of criterion 3: (m, K, M) = (3, 3, 4).
THREE_NODE_BOUND = (77.2867, 0.01294)


def exact_text(c) -> str:
    return str(Fraction(c))


def natural_taylor(K, M, W, degree: int) -> list[list[Fraction]]:
    """a[k][n] = <d_k, x0^n> of an all-maximal network, from its state ODE.

    With zero input, node k of an all-maximal network obeys
    z_k' = (M_k/K_k) z_k^2 (1 + sum_l W_kl z_l), z_k(0) = K_k, and its output
    derivatives are a_n = n! z_n, where z_n are the Taylor coefficients. The
    Cauchy products are exact, so this is an exact second route to the
    drift-only coefficients of the closed-loop series.
    """
    m = len(K)
    K = [Fraction(k) for k in K]
    ratio = [Fraction(M[k]) / K[k] for k in range(m)]
    W = [[Fraction(w) for w in row] for row in W]
    z = [[K[k]] for k in range(m)]
    sq = [[K[k] * K[k]] for k in range(m)]
    for n in range(degree):
        nxt = []
        for k in range(m):
            cubic = sum(
                W[k][l] * sum(sq[k][n - c] * z[l][c] for c in range(n + 1))
                for l in range(m)
                if W[k][l]
            )
            nxt.append(ratio[k] * (sq[k][n] + cubic) / (n + 1))
        for k in range(m):
            z[k].append(nxt[k])
        for k in range(m):
            sq[k].append(sum(z[k][a] * z[k][n + 1 - a] for a in range(n + 2)))
    return [[math.factorial(n) * zk[n] for n in range(degree + 1)] for zk in z]


def envelope_time(m: int, K, M, z: float) -> float:
    """The time at which the envelope z' = (M/K)(z^2 + m z^3), z(0) = K, reaches z.

    Separating variables gives (M/K) t = G(z) - G(K) with
    G(x) = -1/x + m log((1 + m x)/x); log1p keeps G accurate for large x.
    """
    k_f = float(Fraction(K))
    m_f = float(Fraction(M))

    def G(x: float) -> float:
        return -1.0 / x + m * (math.log(m) + math.log1p(1.0 / (m * x)))

    return (k_f / m_f) * (G(z) - G(k_f))


def t_star(m: int, K, M) -> float:
    """Escape time of the envelope: the limit of envelope_time as z grows."""
    k_f = float(Fraction(K))
    return (k_f / float(Fraction(M))) * (1.0 / k_f - m * math.log1p(1.0 / (m * k_f)))


def branch_distance(m: int, K, M, t: float) -> float:
    """e x + 1 for the Lambert W argument x of the envelope at time t.

    The closed form is z(t) = (-1/m) / (1 + W(x)) with
    x = -s exp(M t / (m K) - s) and s = 1 + 1/(m K); x reaches the branch
    point -1/e, where e x + 1 = 0, at t_star.
    """
    mk = m * float(Fraction(K))
    s = 1.0 + 1.0 / mk
    return -math.expm1(math.log(s) + float(Fraction(M)) * t / mk - (s - 1.0))


def relative_degree(terms: dict, exact_to: int):
    """(r, leading) of a single-input series from its exact part, or None.

    r - 1 is the fewest leading drift letters over the words that contain an
    input letter; r is defined when x0^(r-1) x1 has a nonzero coefficient.
    """
    forced = [w for w in terms if len(w) <= exact_to and any(w)]
    if not forced:
        return None
    rho = min(next(i for i, letter in enumerate(w) if letter) for w in forced)
    lead = terms.get((0,) * rho + (1,), 0)
    return (rho + 1, lead) if lead != 0 else None


def double_diamond_coefficients(K) -> dict[tuple, Fraction]:
    """The six printed coefficients of d_71 in the double diamond (criterion 6)."""
    K1, K2, K3, K4, K5, K6, K7 = K
    return {
        (0, 0): 4 * K7 + K6 * K7,
        (0, 0, 0): 16 + 4 * K6 - K7,
        (0, 0, 0, 0): -4 + K5 * K7 + 2 * K4 * K6 * K7,
        (0, 0, 0, 0, 0): 4 * K5 + 8 * K4 * K6 - 8 * K4 * K7 + K5 * K7 + 2 * K4 * K6 * K7,
        (0, 0, 0, 0, 0, 0, 1): K1 * K3 * K4 * K6 * K7,
        (0, 0, 0, 0, 0, 0, 0, 1): 4 * K1 * K3 * K4 * K6
        - 6 * K1 * K3 * K4 * K7
        + K1 * K2 * K5 * K7
        + K1 * K2 * K4 * K6 * K7
        + 2 * K3 * K4 * K6 * K7,
    }
