"""The integer kernel that fliessnet.growth.abel_taylor ran before.

Kept as a differential oracle for abel_taylor, which now steps the derivative
polynomials Q_k of the envelope instead. This route scales dw/ds = w^2 + r w^3,
r = m K = p/q, to the integers N_k = k! q^k w_k and reaches N_{k+1} through two
binomial convolutions:
N_{k+1} = q S_k + p sum_c C(k, c) N_c S_{k-c},  S_j = sum_a C(j, a) N_a N_{j-a}.
"""

from __future__ import annotations

import math
from fractions import Fraction

from fliessnet.series import as_coeff, positive_constants


def binomial_abel_taylor(m: int, K, M, n_max: int) -> tuple[list, list, list]:
    """(z, a, mhat) of the envelope z' = (M/K)(z^2 + m z^3), z(0) = K, with the
    output conversion abel_taylor keeps: a_k = K M^k N_k / q^k."""
    K, M = positive_constants(K, M)
    p, q = (m * K).as_integer_ratio()
    N, S, row = [1], [], [1]  # row = C(k, .)
    for k in range(n_max):
        S.append(sum(c * x * y for c, x, y in zip(row, N, reversed(N))))
        N.append(q * S[k] + p * sum(c * x * y for c, x, y in zip(row, N, reversed(S))))
        row = [x + y for x, y in zip([0] + row, row + [0])]
    kn, kd = K.as_integer_ratio()
    sn, sd = (M / Fraction(q)).as_integer_ratio()
    a = [Fraction(kn * sn**k * nk, kd * sd**k) for k, nk in enumerate(N)]
    z = [as_coeff(ak / math.factorial(k)) for k, ak in enumerate(a)]
    mhat = [as_coeff(Fraction(z[n]) / z[n - 1]) for n in range(1, n_max + 1)]
    return z, [as_coeff(ak) for ak in a], mhat
