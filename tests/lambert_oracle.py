"""The two Lambert W routines the package used before their merge.

Kept verbatim as a differential oracle: wherever they converge, the merged
kernel must return the same floats. They raise NoConvergence where their
Halley loop stalls next to the branch point -1/e.
"""

from __future__ import annotations

import math

from fliessnet import DomainError, NoConvergence

_BRANCH_POINT = -math.exp(-1.0)
_BRANCH_GUARD = 1e-12


def _branch_series(p: float) -> float:
    return -1.0 + p * (
        1.0
        + p * (-1.0 / 3.0 + p * (11.0 / 72.0 + p * (-43.0 / 540.0 + p * (769.0 / 17280.0))))
    )


def _halley(x: float, w: float) -> float:
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        wp1 = w + 1.0
        step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= step
        if abs(step) <= 1e-14 * (1.0 + abs(w)):
            return w
    raise NoConvergence(f"Lambert W iteration did not settle for x = {x}")


def oracle_lambert_w(x: float) -> float:
    x = float(x)
    if math.isnan(x):
        raise DomainError("lambert_w of NaN")
    if x < _BRANCH_POINT:
        if x > _BRANCH_POINT - _BRANCH_GUARD:
            return -1.0
        raise DomainError(f"lambert_w needs x >= -1/e, got {x}")
    if x == 0.0:
        return 0.0
    p_sq = 2.0 * (math.e * x + 1.0)
    if p_sq <= 0.0:
        return -1.0
    p = math.sqrt(p_sq)
    if p < 1e-3:
        return _branch_series(p)
    if x < -0.25:
        seed = _branch_series(p)
    elif x < math.e:
        seed = x / (1.0 + x)
    else:
        log_x = math.log(x)
        seed = log_x - math.log(log_x)
    return _halley(x, seed)


def oracle_lambert_w_lower(x: float) -> float:
    x = float(x)
    if math.isnan(x) or x >= 0.0:
        raise DomainError(f"lambert_w_lower needs -1/e <= x < 0, got {x}")
    if x < _BRANCH_POINT:
        if x > _BRANCH_POINT - _BRANCH_GUARD:
            return -1.0
        raise DomainError(f"lambert_w_lower needs x >= -1/e, got {x}")
    p_sq = 2.0 * (math.e * x + 1.0)
    if p_sq <= 0.0:
        return -1.0
    p = -math.sqrt(p_sq)
    if -p < 1e-3:
        return _branch_series(p)
    if x < -0.33:
        seed = _branch_series(p)
    else:
        log_mx = math.log(-x)
        seed = log_mx - math.log(-log_mx)
        for _ in range(8):
            seed = log_mx - math.log(-seed)
    return _halley(x, seed)
