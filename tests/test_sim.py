"""Trajectory evaluation routes: quadrature, the cubic ODE, and Picard."""

from __future__ import annotations

import functools
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import fliessnet
import fliessnet.sim as sim
from conftest import four_node_net
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

    def test_size_that_cannot_be_allocated_is_rejected(self, monkeypatch):
        """numpy's MemoryError once ended `simulate --n 1000000000000` in a
        traceback. linspace raises in its stead, so no memory is requested."""
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(np, "linspace", refuse)
        with pytest.raises(DomainError, match=f"grid size n = {10**12} is too large to allocate"):
            Grid(0.0, 0.1, 10**12)

    @pytest.mark.parametrize("t0,T,n", [(1e16, 1.0, 4), (1e16, 4.0, 4), (1.0, 1e-17, 1)])
    def test_sample_times_must_strictly_increase(self, t0, T, n):
        """Grid(1e16, 1.0, 4).times was once five copies of 1e16."""
        with pytest.raises(DomainError, match="horizon T must be positive"):
            Grid(t0, T, n)
        assert np.all(np.diff(Grid(t0, 1e3 * T, n).times) > 0)


# One loop-free node whose response 10**308 t^2 / 2 is past the floats by t = 10.
BIG_RESPONSE = NetworkSpec(1, [[0]], [Series(1, 2, {(0, 0): 10**308})])
PAST_THE_FLOATS = "^the series response lies outside the float range$"
# Node 1 (10**200 x0) feeds node 2 (10**200 x1 x1), whose response to it overflows.
BIG_CASCADE = NetworkSpec(2, [[0, 0], [1, 0]], [Series(1, 1, {(0,): 10**200}),
                                                Series(1, 2, {(1, 1): 10**200})])


class TestEvalFliess:
    def test_response_past_the_floats_is_a_domain_error(self):
        """It once returned inf behind numpy's overflow warning."""
        with pytest.raises(DomainError, match=PAST_THE_FLOATS):
            eval_fliess(BIG_RESPONSE.node(1), None, Grid(0.0, 10.0, 10))

    def test_ragged_input_is_a_domain_error(self):
        """It once ended in numpy's ValueError about an inhomogeneous shape."""
        with pytest.raises(DomainError, match=r"input signal must have shape \(3,\)"):
            eval_fliess(X1, [[1, 2], [3]], Grid(0.0, 0.1, 2))

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


# One call of each subcommand, run in the directory holding four.json and one.json.
SEVEN_COMMANDS = [
    ["iomap", "--net", "four.json", "--from", "1", "--to", "4", "--degree", "3"],
    ["reldeg", "--net", "four.json", "--from", "1", "--to", "4", "--degree", "3"],
    ["montecarlo", "--net", "four.json", "--degree", "3", "--samples", "2", "--seed", "1"],
    ["bounds", "--m", "2", "--K", "1", "--M", "1"],
    ["abel", "--m", "2", "--K", "1", "--M", "1", "--n", "6"],
    ["simulate", "--net", "one.json", "--T", "0.4", "--n", "40", "--out", "traj.csv"],
    ["validate", "--net", "four.json", "--from", "1", "--to", "4", "--degree", "3",
     "--T", "0.2", "--n", "20"],
]


def test_no_command_loads_scipy_or_the_process_pool(tmp_path):
    """In a fresh process, the seven subcommands through cli.run, a call of
    simulate_maximal_ode and a Monte Carlo asked for four jobs load no scipy
    module and no process pool: every sample runs in the calling process."""
    four = four_node_net(Fraction(2, 3), Fraction(1, 5), Fraction(3, 7), Fraction(4, 9))
    (tmp_path / "four.json").write_text(json.dumps(fliessnet.network_to_json(four)))
    (tmp_path / "one.json").write_text(json.dumps(fliessnet.network_to_json(single_maximal())))
    src = os.path.dirname(os.path.dirname(fliessnet.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    probe = textwrap.dedent("""
        import contextlib, io, json, sys
        import fliessnet, fliessnet.cli as cli
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.run(argv) for argv in json.loads(sys.argv[1])]
        net = fliessnet.NetworkSpec(1, [[1]], [fliessnet.MaximalSeriesSpec(1, 1)])
        fliessnet.simulate_maximal_ode(net, fliessnet.Grid(0.0, 0.4, 40))
        fliessnet.genericity_sample([[0, 1], [1, 0]], net.nodes * 2, samples=3, seed=1,
                                    degree=2, jobs=4)
        loaded = [name for name in sys.modules
                  if name.split(".")[0] == "scipy" or name == "concurrent.futures.process"]
        print(json.dumps([codes, loaded]))
    """)
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", probe, json.dumps(SEVEN_COMMANDS)],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert json.loads(out.stdout) == [[0] * 7, []]


def fresh_probe(tmp_path, probe: str) -> list:
    """The JSON that probe prints last, run in a fresh interpreter in
    tmp_path beside four.json and one.json with SEVEN_COMMANDS as argv[1]."""
    four = four_node_net(Fraction(2, 3), Fraction(1, 5), Fraction(3, 7), Fraction(4, 9))
    (tmp_path / "four.json").write_text(json.dumps(fliessnet.network_to_json(four)))
    (tmp_path / "one.json").write_text(json.dumps(fliessnet.network_to_json(single_maximal())))
    src = os.path.dirname(os.path.dirname(fliessnet.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", textwrap.dedent(probe), json.dumps(SEVEN_COMMANDS)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_commands_that_build_no_array_load_no_numpy(tmp_path):
    """Importing the package and the CLI, then running iomap, reldeg, bounds
    and abel, loads no numpy module; simulate then loads it."""
    probe = """
        import contextlib, io, json, sys
        def numpy_loaded():
            return any(name.split(".")[0] == "numpy" for name in sys.modules)
        import fliessnet, fliessnet.cli as cli
        after_import = numpy_loaded()
        commands = [argv for argv in json.loads(sys.argv[1])
                    if argv[0] in ("iomap", "reldeg", "bounds", "abel")]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.run(argv) for argv in commands]
            after_commands = numpy_loaded()
            codes += [cli.run(argv) for argv in json.loads(sys.argv[1]) if argv[0] == "simulate"]
        print(json.dumps([codes, after_import, after_commands, numpy_loaded()]))
    """
    assert fresh_probe(tmp_path, probe) == [[0] * 5, False, False, True]


def test_every_exported_name_resolves_in_a_fresh_process(tmp_path):
    """The sim names load on first access: fliessnet.sim is reachable right
    after import, every name of __all__ resolves, and a star import works."""
    probe = """
        import json, sys
        import fliessnet
        reachable = fliessnet.sim is sys.modules["fliessnet.sim"]
        missing = [name for name in fliessnet.__all__ if not hasattr(fliessnet, name)]
        scope = {}
        exec("from fliessnet import *", scope)
        star = sorted(set(fliessnet.__all__) - set(scope))
        print(json.dumps([reachable, missing, star, fliessnet.Grid is fliessnet.sim.Grid]))
    """
    assert fresh_probe(tmp_path, probe) == [True, [], [], True]


def test_the_public_surface_is_read_off_the_imports():
    """__all__ is __version__, then in sorted order every name the package
    module binds that is neither private nor a module, and the sim names."""
    bound = {name for name, value in vars(fliessnet).items()
             if not name.startswith("_") and not isinstance(value, type(fliessnet))}
    assert fliessnet.__all__[0] == "__version__"
    assert fliessnet.__all__[1:] == sorted(bound | fliessnet._SIM_NAMES)
    assert "sim" not in fliessnet.__all__ and "importlib" not in fliessnet.__all__


def over(rng: random.Random, q: int, top: int) -> Fraction:
    """A rational p/q in (0, top) with p not a multiple of the prime q."""
    p = rng.randint(1, top * q - 1)
    while p % q == 0:
        p = rng.randint(1, top * q - 1)
    return Fraction(p, q)


def seeded_escape_case(seed: int, signed: bool = False):
    """An all-maximal net drawn as the benchmark's maximal_net draws one (K
    over 5, M over 7, weights over 11), with a horizon from well inside to
    well past the escape, a grid, a threshold and, for odd seeds, a forcing
    input at every node. signed draws up to 6 nodes instead of 4, and weights
    of either sign in (-1, 1), so that W @ z can cancel; NetworkSpec refuses
    negative weights, so those are set after it has read their magnitudes,
    for the ODE route, which takes any real W."""
    rng = random.Random(seed)
    m = rng.randint(1, 6 if signed else 4)
    top = rng.choice((1, 2, 3))
    specs = [MaximalSeriesSpec(over(rng, 5, top), over(rng, 7, top)) for _ in range(m)]

    def weight():
        w = over(rng, 11, 1) if rng.random() < 0.7 else 0
        return -w if signed and rng.random() < 0.5 else w

    W = [[weight() for _ in range(m)] for _ in range(m)]
    horizon = rng.choice((0.05, 1.05, 3.0)) * max(1 / float(s.M) for s in specs)
    grid = Grid(rng.choice((0.0, 0.7)), horizon, rng.choice((40, 400)))
    threshold = rng.choice((10.0, 1e3, 1e6, 1e9, 1e12))
    v = None
    if seed % 2:
        t = grid.times
        v = {k: rng.uniform(-1.5, 1.0) * np.sin(rng.uniform(0.0, 6.0) * t) + rng.uniform(-1.0, 0.5)
             for k in range(1, m + 1)}
    net = NetworkSpec(m, [[abs(w) for w in row] for row in W], specs)
    if signed:
        net.W = W
    return net, grid, v, threshold


def brent_outcome(solve, f, a, b):
    """The root's bits, or which way the solver gave up."""
    try:
        return float(solve(f, a, b)).hex()
    except (ModelError, ValueError, RuntimeError) as exc:
        return "unbracketed" if "bracket" in str(exc) or "signs" in str(exc) else "unconverged"


def scipy_brentq(f, a, b):
    from scipy.optimize import brentq
    tol = 4 * np.finfo(float).eps
    return brentq(f, a, b, xtol=tol, rtol=tol, maxiter=100)


def seeded_bracket(seed: int):
    """A cubic, exponential or sine root problem on a random bracket."""
    rng = random.Random(seed)
    kind = seed % 3
    if kind == 0:
        r = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        f = lambda x: (x - r[0]) * (x - r[1]) * (x - r[2])
    elif kind == 1:
        k, c = rng.uniform(-3.0, 3.0), rng.uniform(0.1, 3.0)
        f = lambda x: math.exp(k * x) - c
    else:
        w, s = rng.uniform(1.0, 20.0), rng.uniform(-1.0, 1.0)
        f = lambda x: math.sin(w * x) + s
    a, b = sorted(rng.uniform(-1.5, 1.5) for _ in range(2))
    return f, a, b


class TestBrentq:
    def test_same_roots_as_scipy_brentq(self):
        """sim._brentq against scipy's brentq at the same tolerances: the
        same bits where a root is found, and the same refusal (ModelError
        against ValueError) where the pair does not bracket one."""
        outcomes = []
        for seed in range(300):
            f, a, b = seeded_bracket(seed)
            mine = brent_outcome(sim._brentq, f, a, b)
            assert mine == brent_outcome(scipy_brentq, f, a, b), seed
            outcomes.append(mine)
        assert outcomes.count("unbracketed") > 50 and len(set(outcomes)) > 100

    @pytest.mark.parametrize("f,a,b,expected", [
        (lambda x: x - 0.25, 0.25, 1.0, (0.25).hex()),
        (lambda x: x - 0.25, -1.0, 0.25, (0.25).hex()),
        (lambda x: x * x + 1.0, -1.0, 1.0, "unbracketed"),
        (lambda x: (x - 0.3) ** 3, 0.0, 1.0, "unconverged"),
    ], ids=["root at a", "root at b", "unbracketed", "triple root"])
    def test_edge_cases_as_scipy_brentq(self, f, a, b, expected):
        """A root at either end returns that end; the triple root (x - 0.3)^3
        gives up after 100 iterations in both (ModelError against RuntimeError)."""
        assert brent_outcome(sim._brentq, f, a, b) == expected
        assert brent_outcome(scipy_brentq, f, a, b) == expected


class TestMaximalOde:
    def test_same_floats_as_scipy_rk45(self, monkeypatch):
        """sim.solve_ivp against scipy's RK45 with the same terminal upward
        event: the same bytes in every output, escape time, per-node escape
        and metadata, and the same steps and evaluation count, on nets that
        end at the horizon, at the threshold and at the singularity, with and
        without forcing, and with signed weights on up to 6 nodes. scipy runs
        twice: with t_eval for the samples, and with dense output but no
        t_eval for the step ends, their states, nfev and status."""
        from scipy.integrate import solve_ivp as scipy_solve_ivp

        def scipy_rk45(fun, times, y0, event, rtol, atol):
            event.terminal, event.direction = True, 1
            scipy_run = functools.partial(scipy_solve_ivp, fun, (times[0], times[-1]), y0,
                                          method="RK45", rtol=rtol, atol=atol, events=event)
            sampled, stepped = scipy_run(t_eval=times), scipy_run(dense_output=True)
            # With no step taken scipy samples nothing; t0's sample is then y0.
            samples = sampled.y if sampled.t.size else stepped.y
            return SimpleNamespace(t=stepped.t, y=stepped.y, samples=samples,
                                   nfev=stepped.nfev, status=stepped.status)

        def run(solver, case):
            solved = []

            def recorded(*args, **kwargs):
                solved.append(solver(*args, **kwargs))
                return solved[0]

            monkeypatch.setattr(sim, "solve_ivp", recorded)
            return simulate_maximal_ode(*case), solved[0]

        rk45 = sim.solve_ivp
        endings, cancelling, sizes = set(), 0, set()
        cases = [seeded_escape_case(seed) for seed in range(30)]
        cases += [seeded_escape_case(seed, signed=True) for seed in range(20, 40)]
        for case in cases:
            ours, ours_sol = run(rk45, case)
            theirs, their_sol = run(scipy_rk45, case)
            assert repr(ours.escape_time) == repr(theirs.escape_time)
            assert repr(ours.per_node_escape) == repr(theirs.per_node_escape)
            assert repr(ours.metadata) == repr(theirs.metadata)
            assert [y.tobytes() for y in ours.outputs.values()] == [
                y.tobytes() for y in theirs.outputs.values()]
            assert ours_sol.t.tobytes() == their_sol.t.tobytes()
            assert ours_sol.y.tobytes() == their_sol.y.tobytes()
            assert (ours_sol.nfev, ours_sol.status) == (their_sol.nfev, their_sol.status)
            endings.add((ours_sol.status, case[2] is not None))
            net = case[0]
            cancelling += any(min(row) < 0 < max(row) for row in net.W)
            sizes.add(net.m)
        assert endings == {(status, forced) for status in (-1, 0, 1) for forced in (False, True)}
        assert cancelling >= 10 and sizes == set(range(1, 7))

    def test_flat_start_same_floats_as_scipy_rk45(self):
        """On y' = 0 both derivative estimates of the initial-step rule vanish
        (d1, d2 <= 1e-15), so the first step is max(1e-6, 1e-3 h0). With an
        event that never fires, sim.solve_ivp and scipy's RK45 take the same
        steps to the horizon: the same t, y, nfev and status bytes."""
        from scipy.integrate import solve_ivp as scipy_solve_ivp

        def flat(t, y):
            return np.zeros_like(y)

        def never(t, y):
            return -1.0

        never.terminal, never.direction = True, 1
        times = np.linspace(0.0, 2.0, 5)
        y0 = np.array([1.0, -3.0])
        ours = sim.solve_ivp(flat, times, y0, never, **sim._ODE_TOLERANCES)
        theirs = scipy_solve_ivp(flat, (times[0], times[-1]), y0, method="RK45",
                                 events=never, **sim._ODE_TOLERANCES)
        assert ours.t.size > 2 and ours.t[1] == 1e-6
        assert ours.t.tobytes() == theirs.t.tobytes()
        assert ours.y.tobytes() == theirs.y.tobytes()
        assert (ours.nfev, ours.status) == (theirs.nfev, theirs.status)

    def test_nfev_is_the_number_of_calls_of_fun(self, monkeypatch):
        """nfev, counted in the step loop, equals the calls of a counting fun
        passed straight to sim.solve_ivp, on runs with every kind of ending."""
        solve, runs = sim.solve_ivp, []

        def recorded(*args, **kwargs):
            runs.append((args, kwargs))
            return solve(*args, **kwargs)

        monkeypatch.setattr(sim, "solve_ivp", recorded)
        for seed in range(30):
            simulate_maximal_ode(*seeded_escape_case(seed))
        endings = set()
        for (fun, times, y0, event), kwargs in runs:
            calls = []

            def counted(t, y):
                calls.append(t)
                return fun(t, y)

            with np.errstate(over="ignore", invalid="ignore"):
                sol = solve(counted, times, y0, event, **kwargs)
            assert sol.nfev == len(calls)
            endings.add(int(sol.status))
        assert endings == {-1, 0, 1}

    @pytest.mark.parametrize("z", [
        [math.nan, 3.0, -2e9], [3.0, math.nan, -2e9], [3.0, -2e9, math.nan], [math.nan],
        [math.inf, 1.0], [1.0, -math.inf], [-math.inf, math.nan], [math.inf, math.nan, 2.0],
        [-0.0, 0.0], [5e8, -2e9, 1.5e9], [-7.0],
    ], ids=["nan-first", "nan-middle", "nan-last", "nan-alone", "inf", "-inf", "-inf-nan",
            "inf-nan", "zeros", "finite", "negative"])
    def test_escape_event_is_numpys_max_of_abs(self, z):
        """The event equals np.max(np.abs(z)) - threshold, NaN wherever z holds one."""
        z = np.array(z)
        for threshold in (1e9, 10.0):
            got = sim._escape_event(threshold)(0.0, z)
            assert repr(float(got)) == repr(float(np.max(np.abs(z)) - threshold))

    def test_builds_an_interpolant_only_for_a_step_that_holds_a_sample(self, monkeypatch):
        """An escape run takes more steps than its grid has samples; only a
        step that holds a sample, or the event, builds its interpolant."""
        build, solve = sim._step_interpolant, sim.solve_ivp
        built, solved = [], []

        def counted(*args):
            built.append(args)
            return build(*args)

        def recorded(*args, **kwargs):
            solved.append(solve(*args, **kwargs))
            return solved[0]

        monkeypatch.setattr(sim, "_step_interpolant", counted)
        monkeypatch.setattr(sim, "solve_ivp", recorded)
        traj = simulate_maximal_ode(single_maximal(), Grid(0.0, 0.4, 10), threshold=1e6)
        sol = solved[0]
        assert sol.status == 1 and sol.t.size - 1 > traj.times.size
        sampled = traj.times[traj.times <= sol.t[-1]]
        holding = np.unique(np.searchsorted(sol.t, sampled).clip(1)).size
        assert len(built) <= holding + 1

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
        assert traj.metadata["status"] in (-1, 1)

    def test_threshold_stop_reports_the_crossing_node(self):
        traj = simulate_maximal_ode(single_maximal(), Grid(0.0, 0.4, 100), threshold=10)
        assert traj.metadata["status"] == 1
        assert 0 < traj.escape_time < traj.times[-1]
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

    @pytest.mark.parametrize("K, M, w", [(10**200, 10**200, 0), (10**200, 1, 1)],
                             ids=["K=M=1e200", "K=1e200-self-loop"])
    def test_right_hand_side_past_the_floats_at_t0_is_a_domain_error(self, K, M, w):
        """These nets once printed numpy overflow warnings and ended in an
        IndexError from the dense output, no step having been taken."""
        net = NetworkSpec(1, [[w]], [MaximalSeriesSpec(K, M)])
        with pytest.raises(DomainError, match="right-hand side leaves the float range at t0"):
            simulate_maximal_ode(net, Grid(0.0, 0.3, 30))

    @pytest.mark.parametrize("t0, K, M", [(1e10, 1, 10**6), (0.0, 10**154, 10**154)],
                             ids=["t0=1e10", "K=M=1e154"])
    def test_halt_before_the_first_step_stops_at_t0(self, t0, K, M):
        """A singularity within the smallest step of t0, or a state that
        overflows in the first step, halts at t0 with t0's sample only; both
        once ended in an IndexError."""
        net = NetworkSpec(1, [[0]], [MaximalSeriesSpec(K, M)])
        traj = simulate_maximal_ode(net, Grid(t0, 0.3, 30))
        assert traj.metadata["status"] == -1
        assert traj.escape_time == t0
        assert traj.outputs[1][0] == float(K)
        assert np.all(np.isnan(traj.outputs[1][1:]))

    def test_metadata_keys(self):
        """The ODE route reports its integrator and status, Picard its sweeps;
        neither restates what the status and the escape time say."""
        ode = simulate_maximal_ode(single_maximal(), Grid(0.0, 0.4, 100))
        assert ode.metadata.keys() == {"integrator", "rtol", "atol", "threshold", "status"}
        picard = simulate_picard(NetworkSpec(1, [[0]], [X1]), Grid(0.0, 0.4, 10))
        assert picard.metadata.keys() == {"iterations", "deltas", "tol"}

    def test_nan_past_stop_time(self):
        traj = simulate_maximal_ode(single_maximal(), Grid(0.0, 0.4, 100))
        times = traj.times
        stopped = times > traj.escape_time
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

    def test_response_past_the_floats_at_sweep_1_is_a_domain_error(self):
        """Sweep 1 holds only the responses to v, so nothing has diverged yet:
        this loop-free net once raised 'Picard iteration diverged: sweep 1',
        as 0 * inf in the feedback left a NaN."""
        with pytest.raises(DomainError, match=PAST_THE_FLOATS):
            simulate_picard(BIG_RESPONSE, Grid(0.0, 10.0, 10))

    def test_loop_free_response_past_the_floats_is_a_domain_error(self):
        """Node 2 of this cascade overflows only at sweep 2, once node 1's
        response reaches it; no cycle feeds it, so it cannot diverge. Picard
        and validate_io_map once reported 'Picard iteration diverged: sweep 2'."""
        with pytest.raises(DomainError, match=PAST_THE_FLOATS):
            simulate_picard(BIG_CASCADE, Grid(0.0, 1.0, 10))
        with pytest.raises(DomainError, match=PAST_THE_FLOATS):
            validate_io_map(BIG_CASCADE, 1, 2, 2, Grid(0.0, 1.0, 10))

    def test_overflow_fed_by_a_cycle_is_no_convergence(self):
        """The same cascade with a self-loop on node 1: node 2 now has an
        ancestor on a cycle, so its overflow reads as a divergence."""
        net = NetworkSpec(2, [[1, 0], [1, 0]], BIG_CASCADE.nodes)
        with pytest.raises(NoConvergence, match="diverged: sweep 2"):
            simulate_picard(net, Grid(0.0, 1.0, 10))

    def test_ragged_node_signal_is_a_domain_error(self):
        """It once ended in numpy's ValueError about an inhomogeneous shape."""
        net = NetworkSpec(1, [[0]], [X1])
        with pytest.raises(DomainError, match=r"signal for node 1 must have shape \(3,\)"):
            simulate_picard(net, Grid(0.0, 0.1, 2), v={1: [[1, 2], [3]]})

    def test_diverging_sweep_is_no_convergence(self):
        """1 + 2 x1 x1 under unit self-feedback outputs sec^2 t, which escapes
        at pi/2. On [0, 2] the sweeps overflow: that once printed numpy's
        RuntimeWarning and raised DomainError('input signal must be finite')."""
        net = NetworkSpec(1, [[1]], [Series(1, 2, {(): 1, (1, 1): 2})])
        message = r"diverged: sweep \d+ left the node inputs non-finite"
        with pytest.raises(NoConvergence, match=message):
            simulate_picard(net, Grid(0.0, 2.0, 200))

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
