"""Numerical evaluation of series responses and closed-loop trajectories.

Three routes are provided and kept deliberately independent so they can
cross-check each other: direct evaluation of a truncated series through
iterated trapezoid quadrature, the exact cubic ODE realization available for
all-maximal networks, and Picard iteration on the interconnection equations
for polynomial networks.

The cubic ODE runs on an in-module RK45, the Dormand-Prince 5(4) pair with
its step-size rules and a Brent root for the escape event, which samples the
grid as it steps and keeps no step's interpolant. It performs scipy's RK45
operation for operation and returns the same floats, so the package needs
numpy alone at run time; scipy serves only as a test oracle. Its sums over
the tableau stay scipy's numpy calls, while its scalars (times, step sizes,
step factors, the escape event) are Python floats, which round alike and
skip numpy's dispatch. This is the package's one module that loads numpy on
import, so the package and the CLI import it only when a simulation is
asked for.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .errors import AlphabetError, DomainError, ModelError, NoConvergence
from .network import NetworkSpec, _plan, io_map
from .series import Series, _check_int, _check_real, _float
from .words import Word

# At an escape stop, a node other than the one at the threshold is treated as
# having escaped only if its state has already left the range where bounded
# trajectories live.
_DIVERGENCE_FLOOR = 1e4

# Tolerances of the escape ODE, also reported in the trajectory metadata.
_ODE_TOLERANCES = {"rtol": 1e-9, "atol": 1e-12}


# Dormand-Prince 5(4) pair with Shampine's quartic dense output (Hairer,
# Norsett and Wanner, Solving Ordinary Differential Equations I, Sec. II.4),
# entry for entry as scipy's RK45 writes it.
_RK45_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_RK45_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
_RK45_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_RK45_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
_RK45_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])


def _rms(x: np.ndarray):
    """np.linalg.norm(x) / sqrt(x.size) by the norm's own route, an np.float64."""
    return np.sqrt(x.dot(x)) / x.size ** 0.5


def _step_interpolant(t_old, t, y_old: np.ndarray, K: np.ndarray):
    """Dense output of one step, evaluated at a time or at an array of times."""
    h = t - t_old
    Q = K.T.dot(_RK45_P)

    def at(s):
        x = np.asarray((s - t_old) / h)
        p = np.cumprod(np.repeat(x[None], Q.shape[1], axis=0), axis=0)
        return h * np.dot(Q, p) + (y_old[:, None] if x.ndim else y_old)

    return at


def _brentq(f, xpre, xcur):
    """Root of f bracketed by [xpre, xcur], by Brent's method with the control
    flow of scipy's brentq.c at xtol = rtol = 4 eps and 100 iterations."""
    tol = 4 * np.finfo(float).eps
    xpre, xcur = np.float64(xpre), np.float64(xcur)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ModelError("the escape event is not bracketed by its step")
    xblk = fblk = spre = scur = np.float64(0.0)
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + tol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            # A zero divisor gives an infinite or NaN trial step, which bisects.
            with np.errstate(divide="ignore", invalid="ignore"):
                if xpre == xblk:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if stry is not None and 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise ModelError("the escape time did not converge in 100 iterations")


def solve_ivp(fun, times, y0: np.ndarray, event, rtol: float, atol: float) -> SimpleNamespace:
    """Integrate y' = fun(t, y) forward over the sorted times with the
    Dormand-Prince 5(4) pair, stopping where event(t, y) first rises through
    zero, and sample the solution at the times as it steps.

    Each operation is that of scipy 1.17 solve_ivp(method="RK45",
    t_eval=times, events=event) with a terminal upward event, so the step ends
    t, their states y, the samples and nfev are scipy's bit for bit: a step
    evaluates its quartic interpolant, built only when needed, at the times in
    (t_old, t] (the first step at times[0] too), and at the event only up to
    the root. status is 0 at times[-1], 1 at the event and -1 once the step
    would fall below ten spacings of t; a halt before the first step samples
    times[0] as y0.

    The products with the tableau (np.dot of K's stages with a row of A, B
    or E) and the arithmetic on states stay numpy calls: a sequential sum
    rounds differently from np.dot. The scalars t, h and the step factors
    are Python floats, which round each operation to the same double, and
    the grid is sampled by bisect_right, as searchsorted's right side does.
    The norms are np.float64s by np.linalg.norm's route, so the initial
    step's d2 = rms / h0 gives inf where a Python float division would
    raise; the step's error norm is then read as a float. nfev is counted
    in the loop: 2 for the initial step, plus 6 per attempted step.
    """
    t, t_bound = float(times[0]), float(times[-1])
    y = y0
    fy = fun(t, y)
    # Initial step: Hairer, Norsett and Wanner's rule for an error of order 5.
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(fy / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_bound - t)
    d2 = _rms((fun(t + h0, y + h0 * fy) - fy) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h_abs = float(min(100 * h0, h1, t_bound - t))
    nfev = 2
    # K is filled in place, so each stage's view of it is taken once.
    K = np.empty((7, y.size))
    stages = [(s, K[:s].T, _RK45_A[s, :s], c) for s, c in enumerate(_RK45_C.tolist()) if s]
    K_B, K_E = K[:-1].T, K.T
    ts, ys, samples, sampled = [t], [y0], [], 0  # times[:sampled] are sampled
    g = event(t, y0)
    status = None
    while status is None:
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while not h_abs < min_step:
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = abs(h)
            K[0] = fy
            for s, K_s, a, c in stages:
                K[s] = fun(t + c * h, y + K_s.dot(a) * h)
            y_new = y + h * K_B.dot(_RK45_B)
            K[-1] = f_new = fun(t + h, y_new)
            nfev += 6
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = float(_rms(K_E.dot(_RK45_E) * h / scale))
            # Safety factor 0.9; a step grows at most 10-fold, and not right
            # after a rejection, and shrinks at most 5-fold.
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** -0.2)
            rejected = True
        else:
            status = -1
            break
        t_old, y_old, t, y, fy = t, y, t_new, y_new, f_new
        if t - t_bound >= 0:
            status = 0
        g_new = event(t, y)
        dense = None
        if g <= 0 and g_new >= 0:
            status = 1
            dense = _step_interpolant(t_old, t_new, y_old, K)
            t = _brentq(lambda s: event(s, dense(s)), t_old, t)
            y = dense(t)
        g = g_new
        if not (len(ts) > 1 and ts[-1] == t):
            ts.append(t)
            ys.append(y)
        end = bisect_right(times, t)
        if end > sampled:
            dense = dense or _step_interpolant(t_old, t_new, y_old, K)
            samples.append(dense(times[sampled:end]))
            sampled = end
    return SimpleNamespace(t=np.array(ts), y=np.vstack(ys).T, status=status, nfev=nfev,
                           samples=np.hstack(samples or [y0[:, None]]))


@dataclass(frozen=True)
class Grid:
    """Uniform time grid with n+1 sample points on [t0, t0 + T], t0 and T as floats."""

    t0: float
    T: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "t0", _check_real(self.t0, "t0"))
        object.__setattr__(self, "T", _check_real(self.T, "horizon T"))
        _check_real(self.t0 + self.T, "grid end t0 + T")
        if _check_int(self.n, "n", 1) >= np.iinfo(np.intp).max // np.dtype(float).itemsize:
            raise DomainError(f"grid size n = {self.n} exceeds what a numpy array can hold")
        try:
            increasing = np.all(np.diff(self.times) > 0)
        except MemoryError:
            raise DomainError(f"grid size n = {self.n} is too large to allocate") from None
        if not increasing:
            raise DomainError("horizon T must be positive and resolvable at t0")

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


def _signal(sig, n_pts: int, what: str) -> np.ndarray:
    """A sampled signal: n_pts real arguments (series._check_real), as a float array."""
    try:
        arr = np.asarray(sig)
    except ValueError:  # a ragged nesting has no shape
        arr = None
    if arr is None or arr.shape != (n_pts,):
        raise DomainError(f"{what} must have shape ({n_pts},)")
    if arr.dtype.kind in "iuf" and np.all(np.isfinite(arr)):
        return arr.astype(float, copy=False)
    return np.array([_check_real(v, what) for v in arr.tolist()])


# An overflow is reported as a DomainError rather than warned about.
@np.errstate(over="ignore", invalid="ignore")
def eval_fliess(c: Series, u, grid: Grid) -> np.ndarray:
    """Evaluate the response of a SISO series to the sampled input u.

    Iterated integrals are built once per distinct suffix with cumulative
    trapezoid quadrature; the drift letter integrates against the constant 1.
    A response past the float range raises DomainError.
    """
    if c.m != 1:
        raise AlphabetError("direct evaluation expects a single-input series")
    times = grid.times
    n_pts = times.size
    u_arr = np.zeros(n_pts) if u is None else _signal(u, n_pts, "input signal")
    table: dict[Word, np.ndarray] = {(): np.ones(n_pts)}
    steps = np.diff(times)
    y = np.zeros(n_pts)
    for word, coeff in c.items():
        # Outward from the longest suffix already built, one letter at a time.
        start = next(k for k in range(len(word) + 1) if word[k:] in table)
        value = table[word[start:]]
        for k in range(start - 1, -1, -1):
            integrand = value if word[k] == 0 else value * u_arr
            # Cumulative trapezoid rule, in scipy's cumulative_trapezoid order.
            value = np.concatenate(
                ([0.0], np.cumsum(steps * (integrand[1:] + integrand[:-1]) / 2.0))
            )
            table[word[k:]] = value
        y += _float(coeff, "a series coefficient") * value
    if not np.all(np.isfinite(y)):
        raise DomainError("the series response lies outside the float range")
    return y


def _input_table(net: NetworkSpec, grid: Grid, v) -> np.ndarray:
    arr = np.zeros((net.m, grid.n + 1))
    for k, sig in (v or {}).items():
        net.check_node(k)
        arr[k - 1] = _signal(sig, grid.n + 1, f"signal for node {k}")
    return arr


def _weight_matrix(net: NetworkSpec) -> np.ndarray:
    return np.array([[_float(w, "an interconnection weight") for w in row] for row in net.W])


def _escape_event(threshold: float):
    """The event max_k |z_k| - threshold, as np.max(np.abs(z)) - threshold
    gives it but as a float. Python's max passes over a NaN after the first
    entry, so the sum of |z_k|, NaN exactly when some entry is (a sum of
    nonnegative terms overflows only to inf), decides that case."""

    def first_escape(t, z):
        a = list(map(abs, z.tolist()))
        total = sum(a)
        return (max(a) if total == total else total) - threshold

    return first_escape


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
    Samples past the stop time are reported as NaN. A right-hand side that
    is not finite at t0 (K = M = 1e200, say) raises DomainError.
    """
    if not net.all_maximal():
        raise ModelError("the cubic ODE realization needs every node maximal")
    threshold = _check_real(threshold, "escape threshold", 0, strict=True)
    m = net.m
    times = grid.times
    K = np.array([_float(spec.K, "a node constant K") for spec in net.nodes])
    M = np.array([_float(spec.M, "a node constant M") for spec in net.nodes])
    W = _weight_matrix(net)
    v_arr = _input_table(net, grid, v)
    rate = M / K

    if v:
        def rhs(t, z):
            u = W @ z
            u += np.array([np.interp(t, times, v_arr[k]) for k in range(m)])
            return rate * z * z * (1.0 + u)
    else:
        def rhs(t, z):
            return rate * z * z * (1.0 + W @ z)

    # A state that overflows on the way to a singularity halts the integrator
    # (status -1) quietly; a right-hand side not finite at t0 is refused.
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(rhs(times[0], K)).all():
            raise DomainError("the ODE right-hand side leaves the float range at t0")
        sol = solve_ivp(rhs, times, K, _escape_event(threshold), **_ODE_TOLERANCES)
    t_end = float(sol.t[-1])
    halted = sol.status == -1
    escape_time = None if sol.status == 0 else t_end
    z_end = np.abs(sol.y[:, -1])
    escaped = (z_end >= _DIVERGENCE_FLOOR) | ((sol.status == 1) & (z_end == z_end.max()))
    per_node = {k + 1: escape_time if escaped[k] else None for k in range(m)}
    states = np.full((m, times.size), np.nan)
    states[:, :sol.samples.shape[1]] = sol.samples
    outputs = {k + 1: states[k] for k in range(m)}
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
    NoConvergence otherwise rather than returning a half-settled answer, and
    names the sweep at which a diverging iteration leaves the floats. Only a
    node fed by a cycle can diverge: a response past the float range at a
    node that no cycle feeds, or at any node in sweep 1 (which holds only the
    responses to v), is eval_fliess's DomainError.
    """
    if not net.all_polynomial():
        raise ModelError("Picard iteration needs polynomial node series")
    _check_int(max_iter, "max_iter", 1)
    tol = _check_real(tol, "tol", 0)
    m = net.m
    times = grid.times
    v_arr = _input_table(net, grid, v)
    W = _weight_matrix(net)
    node_series = [net.node(k) for k in range(1, m + 1)]
    _, _, anc, cyclic = _plan(net, 0)
    u = v_arr.copy()
    y = np.zeros_like(u)
    deltas: list[float] = []
    converged = False
    for sweep in range(1, max_iter + 1):
        try:
            for k in range(m):
                y[k] = eval_fliess(node_series[k], u[k], grid)
        except DomainError:
            if sweep == 1 or not anc[k + 1] & cyclic:
                raise
            y[k] = np.inf  # past the floats, which leaves the node inputs below non-finite
        # A diverging sweep overflows; it is reported below rather than warned about.
        with np.errstate(over="ignore", invalid="ignore"):
            u_next = v_arr + W @ y
        if not np.all(np.isfinite(u_next)):
            raise NoConvergence(
                f"Picard iteration diverged: sweep {sweep} left the node inputs non-finite"
            )
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
    try:
        halving = 2.0 ** (_check_int(degree, "truncation degree", 0) + 1)
    except OverflowError:
        raise DomainError(f"halving factor 2**{degree + 1} lies outside the float range") from None
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
        expected_halving_factor=halving,
    )
