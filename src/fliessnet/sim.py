"""Numerical evaluation of series responses and closed-loop trajectories.

Three routes are provided and kept deliberately independent so they can
cross-check each other: direct evaluation of a truncated series through
iterated trapezoid quadrature, the exact cubic ODE realization available for
all-maximal networks, and Picard iteration on the interconnection equations
for polynomial networks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import AlphabetError, DomainError, ModelError, NoConvergence
from .network import NetworkSpec, io_map
from .series import Series
from .words import Word

# At an escape stop, a node other than the one at the threshold is treated as
# having escaped only if its state has already left the range where bounded
# trajectories live.
_DIVERGENCE_FLOOR = 1e4

# Tolerances of the escape ODE, also reported in the trajectory metadata.
_ODE_TOLERANCES = {"rtol": 1e-9, "atol": 1e-12}


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on first use: scipy.integrate
    dominates the import time of the package and only the ODE route needs it."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


@dataclass(frozen=True)
class Grid:
    """Uniform time grid with n+1 sample points on [t0, t0 + T]."""

    t0: float
    T: float
    n: int

    def __post_init__(self):
        if not np.isfinite(self.t0):
            raise DomainError("t0 must be finite")
        if not (np.isfinite(self.T) and self.T > 0):
            raise DomainError("horizon T must be positive")
        if not np.isfinite(self.t0 + self.T):
            raise DomainError("grid end t0 + T must be finite")
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise DomainError("grid needs an integer number n >= 1 of steps")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t0, self.t0 + self.T, self.n + 1)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    outputs: dict[int, np.ndarray]
    escape_time: Optional[float]
    per_node_escape: dict[int, Optional[float]]
    metadata: dict = field(default_factory=dict)


def eval_fliess(c: Series, u, grid: Grid) -> np.ndarray:
    """Evaluate the response of a SISO series to the sampled input u.

    Iterated integrals are built once per distinct suffix with cumulative
    trapezoid quadrature; the drift letter integrates against the constant 1.
    """
    if c.m != 1:
        raise AlphabetError("direct evaluation expects a single-input series")
    times = grid.times
    n_pts = times.size
    if u is None:
        u_arr = np.zeros(n_pts)
    else:
        u_arr = np.asarray(u, dtype=float)
        if u_arr.shape != (n_pts,):
            raise DomainError(f"input signal must have shape ({n_pts},)")
        if not np.all(np.isfinite(u_arr)):
            raise DomainError("input signal must be finite")
    table: dict[Word, np.ndarray] = {(): np.ones(n_pts)}
    steps = np.diff(times)

    def suffix(word: Word) -> np.ndarray:
        cached = table.get(word)
        if cached is not None:
            return cached
        inner = suffix(word[1:])
        integrand = inner if word[0] == 0 else inner * u_arr
        # Cumulative trapezoid rule, in scipy's cumulative_trapezoid order.
        value = np.concatenate(
            ([0.0], np.cumsum(steps * (integrand[1:] + integrand[:-1]) / 2.0))
        )
        table[word] = value
        return value

    y = np.zeros(n_pts)
    for word, coeff in c.items():
        y += float(Fraction(coeff)) * suffix(word)
    return y


def _input_table(net: NetworkSpec, grid: Grid, v) -> np.ndarray:
    arr = np.zeros((net.m, grid.n + 1))
    if v:
        for k, sig in v.items():
            net.check_node(k)
            row = np.asarray(sig, dtype=float)
            if row.shape != (grid.n + 1,):
                raise DomainError(f"signal for node {k} must have shape ({grid.n + 1},)")
            if not np.all(np.isfinite(row)):
                raise DomainError(f"signal for node {k} must be finite")
            arr[k - 1] = row
    return arr


def _weight_matrix(net: NetworkSpec) -> np.ndarray:
    m = net.m
    return np.array(
        [[float(Fraction(net.weight(r, c))) for c in range(1, m + 1)] for r in range(1, m + 1)]
    )


def simulate_maximal_ode(
    net: NetworkSpec,
    grid: Grid,
    v=None,
    threshold: float = 1e9,
) -> Trajectory:
    """Integrate the exact state realization of an all-maximal network.

    Each node obeys z_k' = (M_k/K_k) z_k^2 (1 + u_k) with z_k(0) = K_k and
    u_k = v_k + sum_l W_kl z_l; the node output equals z_k. The integration
    stops at escape: when max_k |z_k| crosses the threshold, or when the
    integrator halts at the finite-time singularity, whichever the step size
    can still resolve. The stop time is then the escape time, and a node
    escapes at it if its |z_k| is the maximum at a threshold stop or has
    passed _DIVERGENCE_FLOOR at either kind of stop; other nodes report None.
    Samples past the stop time are reported as NaN.
    """
    if not net.all_maximal():
        raise ModelError("the cubic ODE realization needs every node maximal")
    if not 0 < threshold < np.inf:
        raise DomainError("escape threshold must be finite and positive")
    m = net.m
    times = grid.times
    K = np.array([float(Fraction(spec.K)) for spec in net.nodes])
    M = np.array([float(Fraction(spec.M)) for spec in net.nodes])
    W = _weight_matrix(net)
    v_arr = _input_table(net, grid, v)
    forced = v is not None and bool(v)

    def excitation(t: float) -> np.ndarray:
        if not forced:
            return np.zeros(m)
        return np.array([np.interp(t, times, v_arr[k]) for k in range(m)])

    def rhs(t, z):
        u = excitation(t) + W @ z
        return (M / K) * z * z * (1.0 + u)

    def first_escape(t, z):
        return np.max(np.abs(z)) - threshold

    first_escape.terminal = True
    first_escape.direction = 1

    sol = solve_ivp(
        rhs,
        (times[0], times[-1]),
        K,
        method="RK45",
        **_ODE_TOLERANCES,
        dense_output=True,
        events=first_escape,
    )
    if sol.status not in (-1, 0, 1):
        raise ModelError(f"integration failed: {sol.message}")
    t_end = float(sol.t[-1])
    halted = sol.status == -1
    escape_time = None if sol.status == 0 else t_end
    z_end = np.abs(sol.y[:, -1])
    escaped = (z_end >= _DIVERGENCE_FLOOR) | ((sol.status == 1) & (z_end == z_end.max()))
    per_node = {k + 1: escape_time if escaped[k] else None for k in range(m)}
    valid = times <= t_end
    outputs: dict[int, np.ndarray] = {}
    states = np.full((m, times.size), np.nan)
    if valid.any():
        states[:, valid] = sol.sol(times[valid])
    for k in range(m):
        outputs[k + 1] = states[k]
    metadata = {
        "integrator": "RK45",
        **_ODE_TOLERANCES,
        "threshold": threshold,
        "status": int(sol.status),
        "halted_at_singularity": halted,
        "stop_time": t_end,
    }
    return Trajectory(times, outputs, escape_time, per_node, metadata)


def simulate_picard(
    net: NetworkSpec,
    grid: Grid,
    v=None,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> Trajectory:
    """Solve the interconnection equations of a polynomial network by Picard
    iteration on the node inputs, starting from u = v.

    Converges on horizons where the loop is a contraction; raises
    NoConvergence otherwise rather than returning a half-settled answer.
    """
    if not net.all_polynomial():
        raise ModelError("Picard iteration needs polynomial node series")
    if not isinstance(max_iter, int) or isinstance(max_iter, bool) or max_iter < 1:
        raise DomainError("max_iter must be an integer >= 1")
    if not (np.isfinite(tol) and tol >= 0):
        raise DomainError("tol must be finite and >= 0")
    m = net.m
    times = grid.times
    v_arr = _input_table(net, grid, v)
    W = _weight_matrix(net)
    node_series = [net.node(k) for k in range(1, m + 1)]
    u = v_arr.copy()
    y = np.zeros_like(u)
    deltas: list[float] = []
    converged = False
    for _ in range(max_iter):
        for k in range(m):
            y[k] = eval_fliess(node_series[k], u[k], grid)
        u_next = v_arr + W @ y
        delta = float(np.max(np.abs(u_next - u)))
        deltas.append(delta)
        u = u_next
        if delta <= tol:
            converged = True
            break
    if not converged:
        raise NoConvergence(
            f"Picard iteration still moving by {deltas[-1]:.3e} after {max_iter} sweeps"
        )
    outputs = {k + 1: eval_fliess(node_series[k], u[k], grid) for k in range(m)}
    metadata = {
        "method": "picard",
        "iterations": len(deltas),
        "deltas": deltas,
        "tol": tol,
    }
    return Trajectory(times, outputs, None, {k: None for k in range(1, m + 1)}, metadata)


@dataclass(frozen=True)
class ValidationReport:
    degree: int
    grid_points: int
    horizon: float
    max_abs_error: float
    expected_halving_factor: float


def validate_io_map(
    net: NetworkSpec,
    i: int,
    j: int,
    degree: int,
    grid: Grid,
) -> ValidationReport:
    """Compare the truncated closed-loop series response against a Picard
    simulation of the full network, for the constant input v = 1 applied at
    node i.

    The discrepancy is the series truncation remainder, which is of combined
    degree degree + 1 in the horizon; halving T with the same step count
    shrinks it by about 2**(degree + 1).
    """
    net.check_node(i)
    net.check_node(j)
    v_sig = np.ones(grid.n + 1)
    d = io_map(net, i, j, degree)
    series_route = eval_fliess(d, v_sig, grid)
    # A tight fixed point leaves the truncation remainder as the only error.
    traj = simulate_picard(net, grid, {i: v_sig}, tol=1e-12, max_iter=200)
    err = float(np.max(np.abs(series_route - traj.outputs[j])))
    return ValidationReport(
        degree=degree,
        grid_points=grid.n + 1,
        horizon=grid.T,
        max_abs_error=err,
        expected_halving_factor=2.0 ** (degree + 1),
    )
