import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid, solve_ivp

from llgs import ModelParams
from llgs.coherent import (
    CoherentAnsatz,
    _pendulum,
    CoherentProfile,
    center_eigenvalue,
    dode_jacobian,
    dode_rhs,
    fast_heteroclinic,
    integrate_stationary,
    lift_to_ode,
    monotone_drift_check,
    ode_rhs,
    pendulum_force,
    pole_q_first_order,
    potential,
    slaved_fast_variables,
    small_amplitude_bifurcation,
    stationary_equilibria,
    stationary_first_integral,
    stationary_homoclinic,
    stationary_portrait,
    superslow_flow,
    NoLocalBifurcation,
    SpeedTooLow,
)
from llgs.errors import ConfigError, ConvergenceError, PoleSingularityError


def test_q_selected():
    params = ModelParams(2.0, 1.0, 0.0, 0.0)  # beta/alpha = 0.5
    ansatz = CoherentAnsatz(s=4.0, Omega=2.5)
    assert ansatz.q_selected(params) == 0.5
    with pytest.raises(ValueError):
        CoherentAnsatz(0.0, 1.0).q_selected(params)


def test_ode_rejects_poles():
    params = ModelParams(1.0)
    with pytest.raises(PoleSingularityError):
        ode_rhs([0.0, 0.1, 0.2], params, CoherentAnsatz(1.0, 0.0))


def test_dode_jacobian_matches_finite_differences():
    params = ModelParams(1.3, 0.4, 1.1, -0.2)
    ansatz = CoherentAnsatz(2.0, 0.7)
    state = np.array([0.9, 0.3, -0.4])
    J = dode_jacobian(state, params, ansatz)
    eps = 1e-7
    for j in range(3):
        dp = np.zeros(3)
        dp[j] = eps
        col = (dode_rhs(state + dp, params, ansatz) - dode_rhs(state - dp, params, ansatz)) / (
            2 * eps
        )
        assert np.max(np.abs(col - J[:, j])) < 1e-6


def test_poles_are_invariant_planes():
    params = ModelParams(1.0, 0.3, 0.8, 0.1)
    ansatz = CoherentAnsatz(3.0, 1.0)
    for theta0 in (0.0, math.pi):
        for pt, q in ((0.0, 0.0), (0.5, -0.3), (-1.0, 2.0)):
            # exactly zero at theta = 0; rounding of sin(pi) at theta = pi
            assert abs(dode_rhs([theta0, pt, q], params, ansatz)[0]) < 1e-15


@pytest.mark.parametrize(
    "params, ansatz, y0, span",
    [
        # bounded stationary pendulum orbit (resonance, C != 0)
        (ModelParams(1.0, 0.0, 1.0, 0.0), CoherentAnsatz(0.0, 0.0), [1.2, 0.1, 0.5], 10.0),
        # short traveling segment; generic orbits of e:ode blow up, so keep it brief
        (ModelParams(1.0, 0.2, 1.0, 0.3), CoherentAnsatz(1.5, 0.8), [1.1, 0.2, 0.4], 1.5),
    ],
)
def test_desingularization_equivalence(params, ansatz, y0, span):
    # e:ode and e:dode agree under p = sin(theta) p_tilde away from the poles
    sol_ode = solve_ivp(
        lambda t, y: ode_rhs(y, params, ansatz), (0, span), y0,
        method="DOP853", rtol=1e-12, atol=1e-12, dense_output=True,
    )
    y0d = [y0[0], y0[1] / math.sin(y0[0]), y0[2]]
    sol_dode = solve_ivp(
        lambda t, y: dode_rhs(y, params, ansatz), (0, span), y0d,
        method="DOP853", rtol=1e-12, atol=1e-12, dense_output=True,
    )
    ts = np.linspace(0, span, 50)
    a = sol_ode.sol(ts)
    b = sol_dode.sol(ts)
    assert np.min(np.abs(np.sin(a[0]))) > 0.05
    assert np.max(np.abs(a[0] - b[0])) < 1e-8
    assert np.max(np.abs(a[1] - np.sin(b[0]) * b[1])) < 1e-8
    assert np.max(np.abs(a[2] - b[2])) < 1e-8


def test_lift_to_ode():
    from llgs.coherent import CoherentProfile

    xi = np.linspace(0, 1, 5)
    prof = CoherentProfile(xi, np.full(5, 0.5), np.full(5, 2.0), np.zeros(5),
                           CoherentAnsatz(1.0, 0.0))
    lifted = lift_to_ode(prof)
    assert np.allclose(lifted.p, math.sin(0.5) * 2.0)
    assert lifted.meta["lifted"]


def test_reflection_symmetry_q_to_minus_q():
    # with s = 0 and Omega = beta/alpha, q -> -q conjugates trajectories
    params = ModelParams(1.0, 0.5, 1.0, 0.2)
    Omega = params.beta / params.alpha
    ansatz = CoherentAnsatz(0.0, Omega)
    y = np.array([1.2, 0.3, 0.7])
    plus = ode_rhs(y, params, ansatz)
    minus = ode_rhs([y[0], y[1], -y[2]], params, ansatz)
    assert abs(plus[0] - minus[0]) < 1e-14
    assert abs(plus[1] - minus[1]) < 1e-14
    assert abs(plus[2] + minus[2]) < 1e-14


@given(
    h=st.floats(-2.0, 2.0),
    Omega=st.floats(-2.0, 2.0),
    mu=st.floats(-2.0, 2.0),
)
@settings(max_examples=100, deadline=None)
def test_potential_pole_difference(h, Omega, mu):
    params = ModelParams(1.0, 0.0, mu, h)
    P0 = potential(0.0, 0.0, params, Omega)[0]
    Ppi = potential(math.pi, 0.0, params, Omega)[0]
    assert abs((P0 - Ppi) - 2 * (h - Omega)) < 1e-13


def test_potential_barrier_with_c():
    params = ModelParams(1.0, 0.0, 1.0, 0.0)
    P, dP = potential(1e-12, 0.5, params, 0.0)
    assert P == math.inf


@pytest.mark.parametrize("params, Omega, C", [
    (ModelParams(1.0, 0.0, 1.0, 0.5), 0.0, 0.0),  # phaseplane-a
    (ModelParams(1.0, 1.0, 7.0, 0.0), 1.0, 1.0),  # cohex
    (ModelParams(0.7, -0.3, -2.5, 1.3), -0.3 / 0.7, -0.6),
])
def test_pendulum_on_the_scan_grid_equals_the_scalar_calls(params, Omega, C):
    grid = np.linspace(1e-6, math.pi - 1e-6, 2001)
    P, dP, slope = _pendulum(grid, C, params, Omega)
    scalar = np.array([potential(t, C, params, Omega) + (pendulum_force(t, C, params, Omega),
                                                          _pendulum(t, C, params, Omega)[2])
                       for t in grid.tolist()])
    for array, each in ((P, scalar[:, 0]), (dP, scalar[:, 1]), (-dP, scalar[:, 2]),
                        (slope, scalar[:, 3])):
        assert np.array_equal(array, each)
        assert np.array_equal(np.signbit(array), np.signbit(each))


def test_first_integral_and_energy_conserved_along_profiles():
    params = ModelParams(1.0, 0.0, 1.0, 0.0)
    Omega = 0.0
    theta0, q0 = 1.2, 0.5
    C = stationary_first_integral(theta0, q0)
    prof = integrate_stationary(params, Omega, theta0, 0.0, q0, xi_span=100.0)
    assert np.max(np.abs(prof.q * np.sin(prof.theta) ** 2 - C)) < 1e-8
    E = 0.5 * prof.p ** 2 + np.array(
        [potential(t, C, params, Omega)[0] for t in prof.theta]
    )
    assert np.max(np.abs(E - E[0])) < 1e-8


def test_pole_barrier_for_nonzero_c():
    # trajectories with C != 0 never reach the poles
    params = ModelParams(1.0, 0.0, 1.0, 0.0)
    prof = integrate_stationary(params, 0.0, 0.4, 0.0, 1.0, xi_span=60.0)
    assert np.min(np.abs(np.sin(prof.theta))) > 1e-3


@pytest.mark.parametrize("theta", [0.0, math.pi])
def test_pendulum_force_at_a_pole_barrier(theta):
    assert pendulum_force(theta, 0.5, ModelParams(1.0, 0.0, 1.0, 0.0), 0.0) == -math.inf


def test_portrait_off_resonance_empty():
    params = ModelParams(1.0, 0.5, 1.0, 0.0)
    portrait = stationary_portrait(params, Omega=0.2, C=0.0)
    assert portrait.equilibria == [] and portrait.connections == []
    assert "Omega != beta/alpha" in portrait.note


def _portrait(mu, h, C=0.0):
    params = ModelParams(1.0, 0.0, mu, h)
    return stationary_portrait(params, Omega=0.0, C=C)


def test_portrait_supercritical_heteroclinics():
    # mu = 1, h = 0.5: saddles at +-pi/3 joined by a heteroclinic pair
    portrait = _portrait(1.0, 0.5)
    saddles = sorted(e.theta for e in portrait.equilibria if e.kind == "saddle")
    assert any(abs(t - math.pi / 3) < 1e-6 for t in saddles)
    kinds = {c.kind for c in portrait.connections}
    assert kinds == {"heteroclinic"}


def test_portrait_degenerate_mu_zero_homoclinics():
    portrait = _portrait(0.0, 0.5)
    saddles = [e for e in portrait.equilibria if e.kind == "saddle"]
    assert len(saddles) == 1 and abs(saddles[0].theta) < 1e-12
    assert {c.kind for c in portrait.connections} == {"homoclinic"}


def test_portrait_subcritical_two_homoclinic_pairs():
    portrait = _portrait(-1.0, 0.5)
    saddle_thetas = sorted(e.theta for e in portrait.equilibria if e.kind == "saddle")
    assert abs(saddle_thetas[0]) < 1e-12 and abs(saddle_thetas[-1] - math.pi) < 1e-12
    homs = [c for c in portrait.connections if c.kind == "homoclinic"]
    assert {round(c.theta_from, 6) for c in homs} == {0.0, round(math.pi, 6)}


def test_portrait_subsubcritical_balanced_heteroclinics():
    portrait = _portrait(-1.0, 0.0)
    kinds = {c.kind for c in portrait.connections}
    assert kinds == {"heteroclinic"}
    froms = {round(c.theta_from, 6) for c in portrait.connections}
    assert froms == {0.0, round(math.pi, 6)}


PI_3 = 1.0471975511965979  # the saddle of phaseplane-a, as the root finder places it


@pytest.mark.parametrize(
    "mu, h, expected",
    [
        (1.0, 0.5, [("heteroclinic", PI_3, -PI_3, "right"),
                    ("heteroclinic", PI_3, -PI_3, "left")]),
        (0.0, 0.5, [("homoclinic", 0.0, 0.0, "right"), ("homoclinic", 0.0, 0.0, "left")]),
        (-1.0, 0.5, [("homoclinic", 0.0, 0.0, "right"), ("homoclinic", 0.0, 0.0, "left"),
                     ("homoclinic", math.pi, math.pi, "right"),
                     ("homoclinic", math.pi, math.pi, "left")]),
        (-1.0, 0.0, [("heteroclinic", 0.0, math.pi, "right"),
                     ("heteroclinic", 0.0, math.pi, "left"),
                     ("heteroclinic", math.pi, 0.0, "right"),
                     ("heteroclinic", math.pi, 0.0, "left")]),
    ],
    ids=["phaseplane-a", "phaseplane-b", "phaseplane-c", "phaseplane-d"],
)
def test_portrait_connection_lists_of_presets(mu, h, expected):
    """The exact connections of the four phaseplane presets (alpha = 1, beta = 0, C = 0)."""
    portrait = _portrait(mu, h)
    assert [(c.kind, c.theta_from, c.theta_to, c.side) for c in portrait.connections] == expected


def test_portrait_nonzero_c_homoclinic_pair():
    # cohex: C = 1 closes (0, pi) with pole barriers; the one saddle loops back to itself
    params = ModelParams(1.0, 1.0, 7.0, 0.0)
    portrait = stationary_portrait(params, Omega=1.0, C=1.0)
    saddles = [e.theta for e in portrait.equilibria if e.kind == "saddle"]
    assert saddles == [stationary_homoclinic(params, Omega=1.0, C=1.0).saddle_theta]
    assert [(c.kind, c.theta_from, c.theta_to, c.side) for c in portrait.connections] == [
        ("homoclinic", saddles[0], saddles[0], "right"),
        ("homoclinic", saddles[0], saddles[0], "left"),
    ]


def test_homoclinic_profile_pair():
    params = ModelParams(1.0, 1.0, 7.0, 0.0)  # resonance Omega = 1, h - Omega = -1
    result = stationary_homoclinic(params, Omega=1.0, C=1.0)
    assert result is not None and not result.degenerate
    assert len(result.profiles) == 2
    assert abs(result.saddle_theta - 1.7399) < 1e-3
    for prof in result.profiles:
        # endpoints return to the saddle
        assert abs(prof.theta[0] - result.saddle_theta) < 1e-6
        assert abs(prof.theta[-1] - result.saddle_theta) < 1e-6
        # C conserved pointwise
        C = prof.q * np.sin(prof.theta) ** 2
        assert np.max(np.abs(C - 1.0)) < 1e-8
    # the two loops leave the saddle to opposite sides
    exc = [prof.theta[len(prof.theta) // 2] - result.saddle_theta
           for prof in result.profiles]
    assert exc[0] * exc[1] < 0


def test_homoclinic_absent_when_no_saddle():
    params = ModelParams(1.0, 0.0, 1.0, -0.5)
    # C large enough that the curve misses the wavetrain branch
    assert stationary_homoclinic(params, Omega=0.0, C=0.4) is None


def test_homoclinic_off_resonance_is_config_error():
    # cohex at Omega = 0.5 != beta/alpha = 1: the pendulum reduction does not hold
    with pytest.raises(ConfigError, match="beta/alpha"):
        stationary_homoclinic(ModelParams(1.0, 1.0, 7.0, 0.0), Omega=0.5, C=1.0)


# mu = 0, h = Omega = beta/alpha = 0 and C = 0: the pendulum force is identically zero
VANISHING_FORCE = ModelParams(1.0, 0.0, 0.0, 0.0)


def test_equilibria_empty_when_force_vanishes():
    assert stationary_equilibria(VANISHING_FORCE, Omega=0.0, C=0.0) == []


def test_portrait_note_when_force_vanishes():
    portrait = stationary_portrait(VANISHING_FORCE, Omega=0.0, C=0.0)
    assert portrait.equilibria == [] and portrait.connections == []
    assert portrait.note == "force vanishes identically: every theta is an equilibrium"


def test_homoclinic_none_when_force_vanishes():
    assert stationary_homoclinic(VANISHING_FORCE, Omega=0.0, C=0.0) is None


def test_homoclinic_none_at_phaseplane_a():
    # the saddle pi/3 joins its mirror -pi/3 by domain walls, not by a homoclinic loop
    assert stationary_homoclinic(ModelParams(1.0, 0.0, 1.0, 0.5), 0.0, 0.0) is None


def test_c_zero_interior_saddles_have_only_walls():
    """At C = 0 the poles lie below an interior saddle theta*, by
    P(theta*) - P(pole) = (mu/2)(cos theta* -+ 1)^2, so its connections are
    walls to its mirror and stationary_homoclinic shoots no profile."""
    rng = np.random.default_rng(3)
    with_saddle = 0
    for _ in range(240):
        params = ModelParams(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0),
                             rng.uniform(-4.0, 8.0), rng.uniform(-2.0, 2.0))
        Omega = params.beta / params.alpha
        portrait = stationary_portrait(params, Omega, 0.0)
        saddles = {e.theta for e in portrait.equilibria
                   if e.kind == "saddle" and 0.0 < e.theta < math.pi}
        with_saddle += bool(saddles)
        assert all(c.kind == "heteroclinic" for c in portrait.connections
                   if c.theta_from in saddles)
        assert stationary_homoclinic(params, Omega, 0.0) is None
    assert with_saddle >= 100


def test_monotone_drift_off_resonance():
    params = ModelParams(1.0, 0.5, 1.0, 0.0)
    report = monotone_drift_check(params, Omega=0.7)
    assert report.monotone
    assert report.expected_sign == math.copysign(
        1.0, (params.alpha * 0.7 - params.beta) / 0.5
    )


def test_superslow_flow_sign_structure():
    # easy-plane, no field/current: flow vanishes at poles and equator
    params = ModelParams(1.0, 0.0, 1.0, 0.0)
    assert superslow_flow(0.0, params, 0.0) == 0.0
    assert abs(superslow_flow(math.pi / 2, params, 0.0)) < 1e-15
    assert superslow_flow(math.pi / 4, params, 0.0) < 0


def test_pole_equilibrium_against_first_order():
    params = ModelParams(1.0, 0.0, 1.0, 0.0)
    s = 50.0
    ansatz = CoherentAnsatz(s, 0.0)
    for theta0 in (0.0, math.pi):
        pt, q = slaved_fast_variables(params, ansatz, theta0)
        q1 = pole_q_first_order(params, 0.0, 0.0, s, theta0)
        assert abs(q - q1) < 5e-4 / s  # agreement to the next order


def test_slow_manifold_transverse_eigenvalues():
    # fast eigenvalues at the pole equilibrium are +-s*sqrt(1+alpha^2) to O(1)
    params = ModelParams(1.0, 0.0, 1.0, 0.0)
    s = 50.0
    ansatz = CoherentAnsatz(s, 0.0)
    pt, q = slaved_fast_variables(params, ansatz, 0.0)
    J = dode_jacobian([0.0, pt, q], params, ansatz)[1:, 1:]
    evals = np.sort(np.linalg.eigvals(J).real)
    fast = s * math.sqrt(1 + params.alpha ** 2)
    assert abs(evals[0] + fast) < 2.0
    assert abs(evals[1] - fast) < 2.0


def test_slaved_fast_variables_residual():
    params = ModelParams(1.0, 0.0, 1.0, 0.0)
    ansatz = CoherentAnsatz(50.0, 0.0)
    pt, q = slaved_fast_variables(params, ansatz, 0.8)
    rhs = dode_rhs([0.8, pt, q], params, ansatz)
    assert abs(rhs[1]) < 1e-9 and abs(rhs[2]) < 1e-9


def test_slaved_fast_variables_array_matches_scalar():
    params = ModelParams(1.3, 0.4, 1.1, -0.2)
    ansatz = CoherentAnsatz(30.0, 2.0)
    thetas = np.linspace(0.0, math.pi, 7)
    pts, qs = slaved_fast_variables(params, ansatz, thetas)
    for theta, pt, q in zip(thetas, pts, qs):
        # the array solve may take one more, rounding-sized Newton step than a scalar one
        pt1, q1 = slaved_fast_variables(params, ansatz, theta)
        assert abs(pt - pt1) <= 1e-15 and abs(q - q1) <= 1e-15
        rhs = dode_rhs([theta, pt, q], params, ansatz)
        assert abs(rhs[1]) < 1e-9 and abs(rhs[2]) < 1e-9


def _slaved_on_float64(params, ansatz, theta):
    """slaved_fast_variables' Newton loop as it ran on np.float64 at a float theta."""
    a, s, Omega = params.alpha, ansatz.s, ansatz.Omega
    c = np.cos(theta)
    q = 0.0 * c + (Omega / s if s else 0.0)
    converged = False
    for _ in range(50):
        den = s - 2.0 * q * c
        assert not (den == 0.0).any()
        pt = (params.beta - a * (Omega - s * q)) / den
        g = params.h + (q * q - params.mu) * c - (Omega - s * q) + a * s * pt - c * pt * pt
        if converged:
            break
        step = g / (s + 2.0 * q * c + (a * s - 2.0 * c * pt) * (a * s + 2.0 * c * pt) / den)
        q = q - step
        converged = (abs(step) <= 1e-13 * (1.0 + abs(q))).all()
    else:
        raise AssertionError("no convergence")
    assert abs(g).max() <= 1e-9
    return pt, q


@pytest.mark.parametrize("model, s, Omega", [
    ((1.0, 0.0, 1.0, 0.0), 50.0, 0.0),  # the fast-front preset
    ((1.3, 0.4, 1.1, -0.2), 30.0, 2.0),
    ((0.7, -0.3, -2.5, 1.3), -20.0, 1.5),
])
def test_slaved_fast_variables_float_equals_float64_loop_bitwise(model, s, Omega):
    # a float theta runs the loop on Python floats; the values keep every bit
    params, ansatz = ModelParams(*model), CoherentAnsatz(s, Omega)
    for theta in np.linspace(0.0, math.pi, 402)[1:-1].tolist():
        got = slaved_fast_variables(params, ansatz, theta)
        want = _slaved_on_float64(params, ansatz, theta)
        assert all(type(v) is np.float64 for v in got)
        assert np.array(got).tobytes() == np.array(want).tobytes(), theta


def test_slaved_fast_variables_small_s_breaks_down():
    # s = 1 at the pole: the first Newton step lands on s - 2 q cos(theta) = 0
    ansatz = CoherentAnsatz(1.0, 0.0)
    with pytest.raises(ConvergenceError, match="slow manifold breaks down"):
        slaved_fast_variables(ModelParams(1.0, 0.0, 1.0, 0.0), ansatz, 0.0)
    # (1 + alpha^2) s^4 = 4 beta^2 at the pole: the first Newton derivative is exactly 0
    for theta in (0.0, np.array([0.0, 0.5])):
        with pytest.raises(ConvergenceError, match="Newton derivative 0"):
            slaved_fast_variables(ModelParams(0.75, 0.625, 1.0, 0.0), ansatz, theta)


def test_fast_heteroclinic_pair():
    params = ModelParams(1.0, 0.0, 1.0, 0.0)
    result = fast_heteroclinic(params, Omega0=0.0, Omega1=0.0, s=50.0)
    assert result.converged and len(result.fronts) == 2
    assert abs(result.interior_theta - math.pi / 2) < 1e-12
    starts = sorted(f.theta_start for f in result.fronts)
    # one front from each pole into the interior wavetrain
    assert starts[0] < 0.01 or starts[1] > math.pi - 0.01
    for front in result.fronts:
        assert {front.theta_start, front.theta_end} != set()
        assert abs(front.theta_end - math.pi / 2) < 1e-3 or abs(
            front.theta_start - math.pi / 2
        ) < 1e-3
        # profile stays in the O(1/s) tube around the slow manifold
        assert front.tube_constant < 5.0
        assert front.max_dtheta < 1.0 / 50.0


def test_fast_front_q_asymptotics():
    params = ModelParams(1.0, 0.0, 1.0, 0.0)
    s = 50.0
    result = fast_heteroclinic(params, 0.0, 0.0, s)
    for front in result.fronts:
        theta0 = 0.0 if min(front.theta_start, front.theta_end) < 1.0 else math.pi
        # pick whichever end sits at the pole
        if abs(front.theta_start - theta0) < abs(front.theta_end - theta0):
            q_at_pole = front.q_start
        else:
            q_at_pole = front.q_end
        predicted = pole_q_first_order(params, 0.0, 0.0, s, theta0)
        assert abs(q_at_pole - predicted) / abs(predicted) < 0.02


def test_small_amplitude_report():
    params = ModelParams(1.0, 0.0, 1.0, 0.5)
    report = small_amplitude_bifurcation(params, s=2.0, theta0=0.0)
    assert abs(report.q ** 2 - 0.5) < 1e-14
    assert report.det_B == pytest.approx(4 * 0.5 - 2 * 4.0)  # = -6
    assert report.det_B < 0
    assert report.kernel_ok
    assert report.branch == "supercritical"
    assert report.Omega == pytest.approx(2.0 * report.q)


def test_small_amplitude_speed_bound():
    params = ModelParams(1.0, 0.0, 1.0, 0.5)
    with pytest.raises(SpeedTooLow):
        small_amplitude_bifurcation(params, s=0.5, theta0=0.0)


def test_small_amplitude_no_bifurcation_cases():
    with pytest.raises(NoLocalBifurcation):
        small_amplitude_bifurcation(ModelParams(1.0, 0.0, 1.0, 0.0), s=5.0, theta0=0.0)
    with pytest.raises(NoLocalBifurcation):
        small_amplitude_bifurcation(ModelParams(1.0, 0.0, -1.0, 0.0), s=5.0, theta0=0.0)


def test_center_eigenvalue_quadratic_scaling():
    params = ModelParams(1.0, 0.0, 1.0, 0.5)
    s = 10.0
    report = small_amplitude_bifurcation(params, s, 0.0)
    for delta in (1e-2, 1e-3):
        lam = center_eigenvalue(params, s, 0.0, report.q, delta)
        predicted = report.center_coefficient_exact * delta ** 2
        assert abs(lam - predicted) / abs(predicted) < 5 * delta ** 2 + 1e-8


def test_small_amplitude_matrix_structure():
    params = ModelParams(1.0, 0.0, 1.0, 0.5)
    A = dode_jacobian([0.0, 0.0, 0.7], params, CoherentAnsatz(2.0, 0.0))
    assert A[0, 1] == 0.0  # sin(0) = 0: pole plane invariant
    B = A[1:, 1:]
    assert abs(np.trace(B)) < 1e-14
    q2, a, s = 0.49, 1.0, 2.0
    assert np.linalg.det(B) == pytest.approx(4 * q2 - (1 + a * a) * s * s)


def test_profile_phi_is_the_trapezoid_rule():
    rng = np.random.default_rng(9)
    for n in (2, 3, 50, 2000):
        xi = np.cumsum(rng.uniform(0.01, 1.0, n))
        q = rng.normal(size=n)
        prof = CoherentProfile(xi, np.zeros(n), np.zeros(n), q, CoherentAnsatz(0.0, 0.0))
        expected = np.concatenate([[0.0], cumulative_trapezoid(q, xi)])
        assert np.array_equal(prof.phi(), expected)
