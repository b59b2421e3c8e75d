"""Trajectory evaluation routes: quadrature, the cubic ODE, and Picard."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import fliessnet
import fliessnet.sim as sim
from fliessnet import (
    AlphabetError,
    DomainError,
    Grid,
    MaximalSeriesSpec,
    ModelError,
    NetworkSpec,
    NoConvergence,
    Series,
    closed_form_natural_response,
    eval_fliess,
    simulate_maximal_ode,
    simulate_picard,
    validate_io_map,
)

X1 = Series(1, 1, {(1,): 1})


def single_maximal(K=1, M=1, w=1):
    return NetworkSpec(1, [[w]], [MaximalSeriesSpec(K, M)])


class TestGrid:
    def test_times_span_the_horizon(self):
        g = Grid(0.5, 2.0, 4)
        assert g.times.tolist() == [0.5, 1.0, 1.5, 2.0, 2.5]

    def test_validation(self):
        with pytest.raises(DomainError):
            Grid(0.0, 0.0, 10)
        with pytest.raises(DomainError):
            Grid(0.0, -1.0, 10)
        with pytest.raises(DomainError):
            Grid(0.0, 1.0, 0)
        with pytest.raises(DomainError):
            Grid(float("inf"), 1.0, 10)

    def test_end_outside_the_float_range_is_rejected(self):
        """Grid(1e308, 1e308, 4) once sampled [nan, inf, ...]."""
        with pytest.raises(DomainError, match="t0 \\+ T"):
            Grid(1e308, 1e308, 4)
        assert Grid(-1e308, 1.5e308, 2).times[-1] == 0.5e308

    @pytest.mark.parametrize("n", [10**30, 2**63])
    def test_size_numpy_cannot_build_is_rejected(self, n):
        """numpy once refused these sizes with its own ValueError (10**30) or,
        as n + 1 overflowed, built an empty grid that raised IndexError (2**63)."""
        with pytest.raises(DomainError, match=f"grid size n = {n} exceeds"):
            Grid(0.0, 0.1, n)

    @pytest.mark.parametrize("t0,T,n", [(1e16, 1.0, 4), (1e16, 4.0, 4), (1.0, 1e-17, 1)])
    def test_sample_times_must_strictly_increase(self, t0, T, n):
        """Grid(1e16, 1.0, 4).times was once five copies of 1e16."""
        with pytest.raises(DomainError, match="horizon T must be positive"):
            Grid(t0, T, n)
        assert np.all(np.diff(Grid(t0, 1e3 * T, n).times) > 0)


class TestEvalFliess:
    def test_drift_words_integrate_time(self):
        # trapezoid quadrature is exact through the linear integrand of x0 x0
        grid = Grid(0.0, 2.0, 50)
        t = grid.times
        np.testing.assert_allclose(
            eval_fliess(Series(1, 1, {(0,): 1}), None, grid), t, atol=1e-14
        )
        np.testing.assert_allclose(
            eval_fliess(Series(1, 2, {(0, 0): 1}), None, grid), t * t / 2, atol=1e-13
        )

    def test_constant_word(self):
        grid = Grid(0.0, 1.0, 10)
        y = eval_fliess(Series(1, 0, {(): 7}), None, grid)
        np.testing.assert_array_equal(y, np.full(11, 7.0))

    def test_input_letter_integrates_signal(self):
        grid = Grid(0.0, 1.5, 60)
        t = grid.times
        y = eval_fliess(X1, t, grid)
        np.testing.assert_allclose(y, t * t / 2, atol=1e-13)

    def test_iterated_input_word(self):
        grid = Grid(0.0, 1.0, 80)
        t = grid.times
        y = eval_fliess(Series(1, 2, {(1, 1): 1}), np.ones_like(t), grid)
        np.testing.assert_allclose(y, t * t / 2, atol=1e-13)

    def test_quadrature_error_order_two(self):
        # x0^3 builds a quadratic integrand, so refining the grid by 2 must
        # shrink the endpoint error by about 4
        c = Series(1, 3, {(0, 0, 0): 1})
        errs = []
        for n in (40, 80):
            grid = Grid(0.0, 1.0, n)
            y = eval_fliess(c, None, grid)
            errs.append(abs(y[-1] - 1.0 / 6.0))
        ratio = errs[0] / errs[1]
        assert 3.5 < ratio < 4.5

    def test_linearity(self):
        grid = Grid(0.0, 1.0, 30)
        u = np.cos(grid.times)
        a = Series(1, 2, {(0, 1): 2})
        b = Series(1, 2, {(1, 0): -3, (): 1})
        combined = eval_fliess(a + b, u, grid)
        np.testing.assert_allclose(
            combined, eval_fliess(a, u, grid) + eval_fliess(b, u, grid), atol=1e-12
        )

    def test_same_floats_as_scipy_cumulative_trapezoid(self):
        from scipy.integrate import cumulative_trapezoid

        grid = Grid(0.3, 1.7, 97)
        t = grid.times
        u = np.sin(3.0 * t) + 0.25 * t
        expected = np.ones_like(t)
        for letter in reversed((1, 0, 1, 1)):
            integrand = expected if letter == 0 else expected * u
            expected = cumulative_trapezoid(integrand, t, initial=0.0)
        y = eval_fliess(Series(1, 4, {(1, 0, 1, 1): 1}), u, grid)
        np.testing.assert_array_equal(y, expected)

    def test_word_past_the_recursion_limit(self):
        """Each word's integrals are built in a loop, so a word of 1,101
        letters evaluates; under u = 1 its input letter integrates as x0 does,
        and a second word reuses its suffixes."""
        grid = Grid(0.0, 100.0, 50)  # a step of 2 keeps 1,101 nested trapezoid sums finite
        long = (0,) * 1100 + (1,)
        y = eval_fliess(Series(1, 1101, {long: 1}), np.ones(51), grid)
        np.testing.assert_array_equal(y, eval_fliess(Series(1, 1101, {(0,) * 1101: 1}), None, grid))
        assert np.all(np.isfinite(y)) and np.all(np.diff(y) >= 0) and y[-1] > 0
        both = eval_fliess(Series(1, 1102, {long: 1, (1,) + long: 2}), np.ones(51), grid)
        alone = eval_fliess(Series(1, 1102, {(1,) + long: 2}), np.ones(51), grid)
        np.testing.assert_allclose(both, y + alone, rtol=1e-15)

    def test_input_validation(self):
        grid = Grid(0.0, 1.0, 10)
        with pytest.raises(AlphabetError):
            eval_fliess(Series(2, 1, {(2,): 1}), None, grid)
        with pytest.raises(DomainError):
            eval_fliess(X1, np.ones(5), grid)
        bad = np.ones(11)
        bad[3] = np.nan
        with pytest.raises(DomainError):
            eval_fliess(X1, bad, grid)


def test_cli_import_leaves_scipy_integrate_unloaded():
    src = os.path.dirname(os.path.dirname(fliessnet.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    probe = "import sys, fliessnet.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"


class TestMaximalOde:
    def test_rejects_polynomial_nodes(self):
        net = NetworkSpec(1, [[1]], [X1])
        with pytest.raises(ModelError):
            simulate_maximal_ode(net, Grid(0.0, 0.1, 10))

    def test_threshold_validation(self):
        for threshold in (0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="finite and positive"):
                simulate_maximal_ode(single_maximal(), Grid(0.0, 0.1, 10), threshold=threshold)

    def test_short_horizon_stays_bounded(self):
        traj = simulate_maximal_ode(single_maximal(), Grid(0.0, 0.1, 50))
        assert traj.escape_time is None
        assert traj.per_node_escape == {1: None}
        assert np.all(np.isfinite(traj.outputs[1]))

    def test_matches_envelope_closed_form(self):
        # single all-ones node follows z' = z^2 (1 + z), the m = 1 envelope
        grid = Grid(0.0, 0.24, 48)
        traj = simulate_maximal_ode(single_maximal(), grid)
        expected = [closed_form_natural_response(1, 1, 1, t) for t in grid.times]
        np.testing.assert_allclose(traj.outputs[1], expected, rtol=1e-7)

    def test_escape_at_analytic_blowup(self):
        t_blow = 1.0 - math.log(2.0)
        traj = simulate_maximal_ode(single_maximal(), Grid(0.0, 0.4, 100))
        assert traj.escape_time is not None
        assert abs(traj.escape_time - t_blow) < 1e-3
        assert traj.per_node_escape[1] == pytest.approx(traj.escape_time, abs=1e-6)
        assert traj.metadata["halted_at_singularity"] or traj.metadata["status"] == 1

    def test_threshold_stop_reports_the_crossing_node(self):
        traj = simulate_maximal_ode(single_maximal(), Grid(0.0, 0.4, 100), threshold=10)
        assert traj.metadata["status"] == 1
        assert traj.escape_time == traj.metadata["stop_time"]
        assert traj.per_node_escape[1] == traj.escape_time

    def test_cascade_reports_only_the_node_that_crossed(self):
        # node 1 (z' = z^2, blow-up at t = 1) drives node 2, which escapes first
        net = NetworkSpec(2, [[0, 0], [1, 0]], [MaximalSeriesSpec(1, 1)] * 2)
        traj = simulate_maximal_ode(net, Grid(0.0, 0.9, 90), threshold=10)
        assert traj.metadata["status"] == 1
        assert traj.escape_time is not None
        assert traj.per_node_escape == {1: None, 2: traj.escape_time}

    def test_driven_node_square_root_blowup(self):
        # v = -1 cancels the affine drive, leaving z' = z^3: blow-up at 1/2
        grid = Grid(0.0, 0.8, 200)
        v = {1: -np.ones(201)}
        traj = simulate_maximal_ode(single_maximal(), grid, v=v)
        assert traj.escape_time == pytest.approx(0.5, abs=1e-3)
        early = grid.times < 0.45
        expected = 1.0 / np.sqrt(1.0 - 2.0 * grid.times[early])
        np.testing.assert_allclose(traj.outputs[1][early], expected, rtol=1e-6)

    def test_nan_past_stop_time(self):
        traj = simulate_maximal_ode(single_maximal(), Grid(0.0, 0.4, 100))
        times = traj.times
        stopped = times > traj.metadata["stop_time"]
        assert stopped.any()
        assert np.all(np.isnan(traj.outputs[1][stopped]))
        assert np.all(np.isfinite(traj.outputs[1][~stopped]))


class TestPicard:
    def test_rejects_maximal_nodes(self):
        with pytest.raises(ModelError):
            simulate_picard(single_maximal(), Grid(0.0, 0.1, 10))

    def test_self_loop_exponential(self):
        k = 0.7
        net = NetworkSpec(1, [[k]], [X1])
        grid = Grid(0.0, 1.0, 2000)
        v = {1: np.ones(2001)}
        traj = simulate_picard(net, grid, v=v)
        t = grid.times
        expected = (np.exp(k * t) - 1.0) / k
        np.testing.assert_allclose(traj.outputs[1], expected, atol=5e-6)
        deltas = traj.metadata["deltas"]
        assert deltas[-1] <= 1e-10
        assert all(a >= b for a, b in zip(deltas[2:], deltas[3:]))

    def test_cascade_is_exact_on_polynomials(self):
        net = NetworkSpec(2, [[0, 0], [1, 0]], [X1, X1])
        grid = Grid(0.0, 1.0, 40)
        v = {1: np.ones(41)}
        traj = simulate_picard(net, grid, v=v)
        t = grid.times
        np.testing.assert_allclose(traj.outputs[1], t, atol=1e-13)
        np.testing.assert_allclose(traj.outputs[2], t * t / 2, atol=1e-13)

    def test_reports_non_convergence(self):
        net = NetworkSpec(1, [[1]], [X1])
        grid = Grid(0.0, 1.0, 100)
        with pytest.raises(NoConvergence):
            simulate_picard(net, grid, v={1: np.ones(101)}, max_iter=2)

    @pytest.mark.parametrize("kwargs,message", [
        (dict(max_iter=0), "max_iter"),
        (dict(max_iter=-1), "max_iter"),
        (dict(max_iter=2.5), "max_iter"),
        (dict(max_iter=True), "max_iter"),
        (dict(tol=float("nan")), "tol"),
        (dict(tol=float("inf")), "tol"),
        (dict(tol=-1e-3), "tol"),
    ])
    def test_budget_and_tolerance_are_checked(self, kwargs, message):
        """max_iter=0 once raised IndexError from the empty list of sweep
        deltas, and tol=nan reported 'still moving by 0.000e+00'."""
        net = NetworkSpec(1, [[1]], [X1])
        with pytest.raises(DomainError, match=message):
            simulate_picard(net, Grid(0.0, 1.0, 10), **kwargs)


class TestValidation:
    def test_halving_law_on_self_loop(self):
        # closed loop of an integrator with unit feedback has an infinite
        # series, so the degree-N remainder is genuine at every N
        net = NetworkSpec(1, [[1]], [X1])
        n = 400
        degree = 3
        wide = validate_io_map(net, 1, 1, degree, Grid(0.0, 0.2, n))
        narrow = validate_io_map(net, 1, 1, degree, Grid(0.0, 0.1, n))
        assert wide.expected_halving_factor == 16.0
        ratio = wide.max_abs_error / narrow.max_abs_error
        assert 0.8 * 16 < ratio < 1.2 * 16

    def test_degree_past_the_float_range_is_a_domain_error(self, monkeypatch):
        """The halving factor 2**(degree + 1) overflows a float from degree
        1023; that degree, like one that is not an integer >= 0, is refused
        before any closed loop runs."""
        def refused(*args):
            raise AssertionError("validate_io_map ran the closed loop")

        monkeypatch.setattr(sim, "io_map", refused)
        net, grid = NetworkSpec(1, [[1]], [X1]), Grid(0.0, 0.1, 50)
        with pytest.raises(DomainError, match="2\\*\\*1024 lies outside the float range"):
            validate_io_map(net, 1, 1, 1023, grid)
        for degree in (-1, 2.0, True):
            with pytest.raises(DomainError, match="truncation degree must be an integer >= 0"):
                validate_io_map(net, 1, 1, degree, grid)

    def test_error_shrinks_with_degree(self):
        net = NetworkSpec(1, [[1]], [X1])
        grid = Grid(0.0, 0.2, 400)
        errs = [validate_io_map(net, 1, 1, N, grid).max_abs_error for N in (2, 4, 6)]
        assert errs[0] > errs[1] > errs[2]
