"""The numpy ports in llgs._ode give SciPy's results bit for bit.

SciPy is a test-only reference here: `brentq` and
`solve_ivp(method="DOP853")` run on the same problems as the ports, and
every output is compared with np.array_equal.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients
from scipy.optimize import brentq as scipy_brentq

import llgs
from llgs import ModelParams, _ode
from llgs.coherent import (CoherentAnsatz, _pendulum, fast_heteroclinic, integrate_stationary,
                           ode_rhs, pendulum_force, slaved_fast_variables)
from llgs.errors import ConfigError, ConvergenceError


def _resonant_sets(n):
    """n random resonant sets (params, Omega = beta/alpha, C), half with C = 0."""
    rng = np.random.default_rng(11)
    for i in range(n):
        params = ModelParams(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0),
                             rng.uniform(-4.0, 8.0), rng.uniform(-2.0, 2.0))
        yield params, params.beta / params.alpha, 0.0 if i % 2 else rng.uniform(-1.5, 1.5)


def test_brentq_equals_scipy_on_the_force_brackets():
    grid = np.linspace(1e-6, math.pi - 1e-6, 2001)
    roots = 0
    for params, Omega, C in _resonant_sets(320):
        force = -_pendulum(grid, C, params, Omega)[1]
        for i in np.flatnonzero(force[:-1] * force[1:] < 0.0):
            args = (C, params, Omega)
            ours = _ode.brentq(lambda t: pendulum_force(t, *args), grid[i], grid[i + 1])
            theirs = scipy_brentq(pendulum_force, grid[i], grid[i + 1], args=args)
            assert type(ours) is float
            assert np.array_equal(ours, theirs), (args, i)
            roots += 1
    assert roots >= 300


def test_brentq_equals_scipy_on_random_polynomials():
    rng = np.random.default_rng(12)
    for _ in range(300):
        coeffs = rng.normal(size=rng.integers(2, 7))
        roots = np.roots(coeffs)
        real = np.sort(roots[np.abs(roots.imag) < 1e-12].real)
        if not len(real):
            continue
        r = real[rng.integers(len(real))]
        a, b = r - rng.uniform(1e-3, 1.0), r + rng.uniform(1e-3, 1.0)
        f = np.poly1d(coeffs)
        if f(a) * f(b) >= 0:
            continue
        assert np.array_equal(_ode.brentq(f, a, b), scipy_brentq(f, a, b))
        tol = 4 * np.finfo(float).eps  # as for the event roots
        assert np.array_equal(_ode.brentq(f, a, b, xtol=tol, rtol=tol),
                              scipy_brentq(f, a, b, xtol=tol, rtol=tol))


@pytest.mark.parametrize("xa, xb", [(1.0, 2.0), (0.0, 1.0)], ids=["root-at-xa", "root-at-xb"])
def test_brentq_root_at_an_endpoint_equals_scipy(xa, xb):
    ours = _ode.brentq(lambda x: x - 1.0, xa, xb)
    assert type(ours) is float and ours == 1.0
    assert np.array_equal(ours, scipy_brentq(lambda x: x - 1.0, xa, xb))


def test_brentq_failures_are_convergence_errors():
    with pytest.raises(ConvergenceError, match="one sign"):
        _ode.brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    # a step function on a huge bracket: about 1000 bisections would be needed
    with pytest.raises(ConvergenceError, match="100 iterations"):
        _ode.brentq(lambda x: -1.0 if x < 1.0 else 1.0, 0.0, 1e300)


def test_tableau_equals_scipy():
    for name in ("A", "C", "E3", "E5", "D"):
        assert np.array_equal(getattr(_ode, name), getattr(dop853_coefficients, name)), name
    assert np.array_equal(_ode.B, dop853_coefficients.B) and _ode.B.base is _ode.A


def _both(*args, **kwargs):
    """Our run and SciPy's; ours always builds the dense output SciPy builds on request."""
    return (_ode.solve_ivp(*args, **kwargs),
            scipy_solve_ivp(*args, method="DOP853", dense_output=True, **kwargs))


def _assert_same(ours, theirs, dense_at=None):
    assert np.array_equal(ours.t, theirs.t)
    assert np.array_equal(ours.y, theirs.y)
    assert (ours.nfev, ours.status, ours.success) == (theirs.nfev, theirs.status, theirs.success)
    assert ours.message == theirs.message
    if theirs.t_events is not None:
        assert np.array_equal(ours.t_events[0], theirs.t_events[0])
    if dense_at is not None:  # and at the step ends, where two segments meet
        assert np.array_equal(ours.sol(dense_at), theirs.sol(dense_at))
        assert np.array_equal(ours.sol(ours.t), theirs.sol(theirs.t))
        for t in dense_at[::97]:
            assert np.array_equal(ours.sol(t), theirs.sol(t))


STATIONARY = [(ModelParams(1.0, 0.0, 1.0, 0.0), 0.0, (1.2, 0.0, 0.5), 100.0),
              (ModelParams(1.0, 1.0, 7.0, 0.0), 1.0, (1.0, 0.3, -0.4), 20.0),
              (ModelParams(0.7, -0.3, -2.5, 1.3), -0.3 / 0.7, (2.0, -0.1, 0.8), 30.0)]


@pytest.mark.parametrize("params, Omega, y0, span", STATIONARY)
def test_t_eval_run_equals_scipy(params, Omega, y0, span):
    # the stationary profile, sampled from the dense output, is SciPy's t_eval run
    ansatz = CoherentAnsatz(0.0, Omega)
    ours = integrate_stationary(params, Omega, *y0, xi_span=span)
    theirs = scipy_solve_ivp(lambda t, y: ode_rhs(y, params, ansatz), (0.0, span), list(y0),
                             method="DOP853", t_eval=np.linspace(0.0, span, 2000), rtol=1e-12,
                             atol=1e-12)
    assert np.array_equal(ours.xi, theirs.t)
    assert np.array_equal([ours.theta, ours.p, ours.q], theirs.y)


@pytest.mark.parametrize("params, Omega, C", [
    (ModelParams(1.0, 1.0, 7.0, 0.0), 1.0, 1.0),  # cohex
    (ModelParams(1.0, 0.0, 1.0, -0.5), 0.0, 0.1),  # wt-cyl-q
    (ModelParams(1.0, 0.0, 1.0, 0.5), 0.0, 0.0),  # phaseplane-a
])
@pytest.mark.parametrize("sgn", [1.0, -1.0])
def test_directed_terminal_event_with_dense_output_and_max_step_equals_scipy(params, Omega, C,
                                                                             sgn):
    ths = 1.7399281884041524 if C == 1.0 else 1.2

    def turning(_, y):
        return y[1]

    turning.terminal = True
    turning.direction = -sgn
    ours, theirs = _both(lambda t, y: [y[1], pendulum_force(y[0], C, params, Omega)],
                         (0.0, 400.0), [ths + sgn * 1e-8, sgn * 1e-8], rtol=1e-12, atol=1e-12,
                         events=turning, max_step=0.5)
    assert ours.status == 1
    _assert_same(ours, theirs, np.linspace(0.0, ours.t_events[0][0], 1000))


@pytest.mark.parametrize("params, Omega", [(ModelParams(1.0, 0.5, 1.0, 0.0), 0.0),
                                           (ModelParams(1.0, -0.5, 1.0, 0.0), 0.3),
                                           (ModelParams(1.0, 0.0, 1.0, 0.0), 0.5)])
def test_event_with_dense_output_equals_scipy(params, Omega):
    ansatz = CoherentAnsatz(0.0, Omega)

    def qzero(_, y):
        return y[2]

    qzero.terminal = True
    ours, theirs = _both(lambda t, y: ode_rhs(y, params, ansatz), (0.0, 30.0), [1.2, 0.0, 0.5],
                         rtol=1e-11, atol=1e-11, events=qzero)
    # with points before t0 and past the last step end, read off the end steps
    _assert_same(ours, theirs, np.concatenate([[-1.0, -1e-3], np.linspace(0.0, ours.t[-1], 1500),
                                               ours.t[-1] + [1e-3, 1.0]]))


def test_fast_front_shots_equal_scipy():
    params = ModelParams(1.0, 0.0, 1.0, 0.0)  # the fast-front preset
    ansatz = CoherentAnsatz(50.0, 0.0)
    target = fast_heteroclinic(params, 0.0, 0.0, 50.0).interior_theta
    for theta0 in (0.0, math.pi):
        into = 1.0 if theta0 == 0.0 else -1.0
        probe = theta0 + into * 1e-3
        drift = math.sin(probe) * slaved_fast_variables(params, ansatz, probe)[0]
        sign = 1.0 if drift * into > 0 else -1.0

        def near_target(_, y):
            return abs(y[0] - target) - 1e-4

        near_target.terminal = True
        near_target.direction = -1
        ours, theirs = _both(
            lambda t, y: [sign * math.sin(y[0]) * slaved_fast_variables(params, ansatz, y[0])[0]],
            (0.0, 8000.0), [theta0 + into * 1e-8], rtol=1e-11, atol=1e-13,
            events=near_target)
        assert ours.status == 1
        tau = np.linspace(0.0, ours.t_events[0][0], 3000)
        _assert_same(ours, theirs, tau[::-1] if sign < 0 else tau)


def test_terminal_event_without_dense_output_equals_scipy():
    def falling(_, y):
        return y[1]

    falling.terminal = True
    falling.direction = -1
    ours, theirs = _both(lambda t, y: [y[1], -math.sin(y[0])], (0.0, 20.0), [0.1, 1.0],
                         rtol=1e-10, atol=1e-10, events=falling)
    assert ours.status == 1
    _assert_same(ours, theirs)


def test_event_that_is_not_terminal_is_a_config_error():
    def crossing(_, y):
        return y[0]

    with pytest.raises(ConfigError, match="one terminal event only"):
        _ode.solve_ivp(lambda t, y: [-1.0], (0.0, 2.0), [1.0], rtol=1e-8, atol=1e-10,
                       events=crossing)


def test_failed_run_reports_scipy_status_and_nfev():
    # y' = y^2 blows up at t = 1: the step size underflows before t = 2;
    # y' = inf underflows before the first step is accepted
    for fun, t_span in [(lambda t, y: y * y, (0.0, 2.0)),
                        (lambda t, y: np.full_like(y, np.inf), (0.0, 1.0))]:
        with np.errstate(invalid="ignore"):
            ours, theirs = _both(fun, t_span, [1.0], rtol=1e-8, atol=1e-10)
        assert ours.status == -1 and not ours.success
        _assert_same(ours, theirs)


def _run_python(code, cwd, timeout=None):
    """Run code in a fresh interpreter that imports this llgs."""
    src = str(Path(llgs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=timeout)


NON_FINITE_START = """
from llgs import ModelParams, _ode
from llgs.coherent import integrate_stationary, monotone_drift_check
from llgs.errors import ConvergenceError

try:
    run = CALL
    print(run.status, run.success, run.t, run.nfev)
except ConvergenceError as exc:
    print(exc)
"""


@pytest.mark.parametrize("call, outcome", [
    ("_ode.solve_ivp(lambda t, y: [float('nan')], (0.0, 1.0), [1.0], rtol=1e-8, atol=1e-10)",
     "-1 False [0.] 2"),
    ("integrate_stationary(ModelParams(1.0), 0.0, 1.2, float('nan'), 0.5, 10.0)",
     "stationary integration failed: " + _ode.MESSAGES[-1]),
    ("integrate_stationary(ModelParams(1.0), 0.0, 1.2, float('inf'), 0.5, 10.0)",
     "stationary integration failed: " + _ode.MESSAGES[-1]),
    ("monotone_drift_check(ModelParams(1.0, 0.5, 1.0, 0.0), float('nan'))",
     "drift integration failed: " + _ode.MESSAGES[-1]),
], ids=["solve_ivp-nan", "stationary-p0-nan", "stationary-p0-inf", "drift-omega-nan"])
def test_non_finite_start_fails_without_hanging(call, outcome, tmp_path):
    # a NaN step size never reads below min_step, and SciPy retries it forever:
    # the child's timeout keeps such a regression from hanging the suite
    done = _run_python(NON_FINITE_START.replace("CALL", call), tmp_path, timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == outcome


NO_SCIPY = """
import contextlib, io, sys
import llgs
from llgs import cli

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

assert not scipy_modules(), ("import llgs", scipy_modules())
for argv in RUNS:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert not scipy_modules(), (argv, scipy_modules())
"""


def test_import_and_cli_runs_load_no_scipy(tmp_path):
    runs = [["classify", "--preset", "hopf"],
            ["wavetrains", "--preset", "wavetrains-a"],
            ["spectrum", "--alpha", "1", "--beta", "0", "--mu", "1", "--h", "0.5", "--k", "0.3"],
            ["coherent", "--preset", "cohex"],
            ["coherent", "--preset", "fast-front"],
            ["simulate", "--preset", "equilibrium"]]
    runs = [argv + ["--out", str(tmp_path / f"run{i}.csv")] for i, argv in enumerate(runs)]
    done = _run_python(f"RUNS = {runs!r}\n" + NO_SCIPY, tmp_path)
    assert done.returncode == 0, done.stderr
