import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from llgs import (
    Grid1D,
    MagnetizationField,
    ModelParams,
    PerturbationSpec,
    SimConfig,
    build_wavetrain_initial,
    measure_growth_rate,
    simulate,
    verify_coherent_profile,
    wavetrain_at,
)
from llgs.coherent import CoherentAnsatz, CoherentProfile
from llgs.errors import BlowupError, CFLError, CommensurabilityError, ConfigError
from llgs.model import energy, rotate_about_e3, second_derivative
from llgs.simulate import (DENSE_MAX_N, _STEPPERS, Trajectory, _dense_operators, _perturb,
                           _project, cfl_limit, check_commensurate, mode_amplitudes)
from llgs.wavetrains import wavetrain_field

from conftest import (ll_rhs_vector_form, previous_ll_rhs, random_params, random_smooth_field,
                      signed_zero_field)

PARAMS = ModelParams(alpha=1.0, beta=0.5, mu=1.0, h=1.0)  # b = 0.5, supercritical


def test_cfl_validation():
    grid = Grid1D(2 * np.pi, 256)
    limit = cfl_limit(grid, PARAMS)
    with pytest.raises(CFLError):
        SimConfig(dt=2 * limit, t_final=1.0, integrator="rk4").validate(grid, PARAMS)
    SimConfig(dt=0.5 * limit, t_final=1.0, integrator="rk4").validate(grid, PARAMS)
    # the semi-implicit stepper has no dx^2 barrier
    SimConfig(dt=2 * limit, t_final=1.0, integrator="semi-implicit").validate(grid, PARAMS)
    with pytest.raises(ValueError):
        SimConfig(dt=0.01, t_final=1.0, integrator="euler").validate(grid, PARAMS)


def test_commensurability_enforced():
    grid = Grid1D(10.0, 64)
    wt = wavetrain_at(PARAMS, 0.3)
    with pytest.raises(CommensurabilityError):
        build_wavetrain_initial(wt, grid)


def test_sphere_constraint_along_run(rng):
    grid = Grid1D(2 * np.pi, 64)
    initial = random_smooth_field(rng, grid)
    config = SimConfig(dt=0.01, t_final=2.0, integrator="semi-implicit", diag_every=5)
    result = simulate(initial, PARAMS, config)
    assert np.max(result.diagnostics.norm_drift) < 1e-9


def test_rotation_equivariance_of_flow(rng):
    grid = Grid1D(2 * np.pi, 64)
    initial = random_smooth_field(rng, grid)
    config = SimConfig(dt=0.01, t_final=1.0)
    ang = 0.9
    direct = simulate(initial, PARAMS, config).final.values
    rotated = simulate(
        MagnetizationField(grid, rotate_about_e3(initial.values, ang)), PARAMS, config
    ).final.values
    assert np.max(np.abs(rotated - rotate_about_e3(direct, ang))) < 1e-8


def test_energy_decreases_for_variational_flow(rng):
    params = ModelParams(alpha=1.0, beta=0.0, mu=1.0, h=0.3)
    grid = Grid1D(2 * np.pi, 64)
    initial = random_smooth_field(rng, grid)
    config = SimConfig(dt=0.004, t_final=3.0, integrator="rk4", diag_every=5)
    result = simulate(initial, params, config)
    increments = np.diff(result.diagnostics.energy)
    assert np.all(increments < 1e-8)


def test_wavetrain_is_relative_equilibrium():
    wt = wavetrain_at(PARAMS, 0.0)
    grid = Grid1D(2 * np.pi, 32)
    initial = build_wavetrain_initial(wt, grid)
    config = SimConfig(dt=0.01, t_final=5.0, integrator="rk4", diag_every=5)
    result = simulate(initial, PARAMS, config)
    # amplitude preserved and rotation frequency omega = -beta/alpha
    r_final = np.hypot(result.final.values[:, 0], result.final.values[:, 1])
    assert np.max(np.abs(r_final - wt.r)) < 1e-12
    # phi(x, t) = kx - omega*t, so the measured dphi/dt is -omega = beta/alpha
    freq = result.diagnostics.mean_frequency(t_min=0.5)
    assert abs(freq + wt.omega) < 1e-10


def test_dt_convergence_order_rk4(rng):
    grid = Grid1D(2 * np.pi, 16)
    initial = random_smooth_field(rng, grid)
    ref = simulate(initial, PARAMS, SimConfig(dt=1e-4, t_final=0.2, integrator="rk4")).final.values
    errs = []
    for dt in (0.02, 0.01):
        config = SimConfig(dt=dt, t_final=0.2, integrator="rk4")
        out = simulate(initial, PARAMS, config).final.values
        errs.append(np.max(np.abs(out - ref)))
    order = math.log2(errs[0] / errs[1])
    assert abs(order - 4.0) < 0.2


def test_dt_convergence_order_semi_implicit(rng):
    grid = Grid1D(2 * np.pi, 16)
    initial = random_smooth_field(rng, grid)
    ref = simulate(initial, PARAMS, SimConfig(dt=1e-4, t_final=0.2)).final.values
    errs = []
    for dt in (0.02, 0.01):
        out = simulate(initial, PARAMS, SimConfig(dt=dt, t_final=0.2)).final.values
        errs.append(np.max(np.abs(out - ref)))
    order = math.log2(errs[0] / errs[1])
    assert abs(order - 1.0) < 0.2


def test_dx_convergence_order():
    # defect of a k != 0, m3 != 0 wavetrain after T = 1 is dominated by the
    # O(dx^2) shift of the discrete equilibrium angle (k^2 vs. its FD symbol)
    wt = wavetrain_at(PARAMS, 0.5)
    errs = []
    for n in (64, 128):
        grid = Grid1D(4 * np.pi, n)
        initial = build_wavetrain_initial(wt, grid)
        config = SimConfig(dt=2e-4, t_final=1.0, integrator="rk4")
        final = simulate(initial, PARAMS, config).final
        # m(x, t) = exp(i(kx - omega t)): the phase advances by -omega*t
        exact = rotate_about_e3(wavetrain_field(wt, grid).values, -wt.omega * 1.0)
        errs.append(np.max(np.abs(final.values - exact)))
    order = math.log2(errs[0] / errs[1])
    assert abs(order - 2.0) < 0.2


def test_blowup_reported_as_error():
    grid = Grid1D(2 * np.pi, 16)
    values = np.tile([0.0, 0.0, 1.0], (grid.n, 1))
    values[3] = [np.nan, 0.0, 0.0]
    with pytest.raises(BlowupError):
        simulate(MagnetizationField(grid, values), PARAMS, SimConfig(dt=0.01, t_final=0.1))


@pytest.mark.parametrize("scale, noise", [(3.0, 0.01), (0.0, 0.0)])
def test_initial_field_off_the_sphere_is_config_error(rng, scale, noise):
    # a field of norm about 3 used to run, its first record holding the energy of the non-unit
    # field (3.08, then -3.01 one record later); the zero field ended in a BlowupError
    grid = Grid1D(2 * np.pi, 64)
    values = scale * np.array([0.6, 0.0, 0.8]) + noise * rng.normal(size=(grid.n, 3))
    with pytest.raises(ConfigError, match="not unit-norm"):
        simulate(MagnetizationField(grid, values), PARAMS, SimConfig(dt=0.005, t_final=1.0))


def test_project_equals_linalg_norm_bitwise(rng):
    grid = Grid1D(2 * np.pi, 128)
    for _ in range(5):
        m = random_smooth_field(rng, grid).values * rng.uniform(0.5, 2.0, size=(grid.n, 1))
        assert np.array_equal(_project(m), m / np.linalg.norm(m, axis=1, keepdims=True))


def test_sideband_perturbation_structure():
    grid = Grid1D(20 * np.pi, 256)
    wt = wavetrain_at(PARAMS, 0.4)
    spec = PerturbationSpec(kind="sideband", ell=0.1, amplitude=1e-3)
    fld = build_wavetrain_initial(wt, grid, spec)
    assert fld.norm_drift() < 1e-12
    # theta modulated at ell around the carrier angle
    theta = np.arccos(fld.values[:, 2])
    assert abs(np.max(theta) - (wt.theta + 1e-3)) < 1e-6
    with pytest.raises(CommensurabilityError):
        build_wavetrain_initial(wt, grid, PerturbationSpec(kind="sideband", ell=0.1234,
                                                           amplitude=1e-3))


def test_noise_perturbation_deterministic():
    grid = Grid1D(2 * np.pi, 64)
    wt = wavetrain_at(PARAMS, 0.0)
    spec = PerturbationSpec(kind="noise", amplitude=1e-3, seed=11)
    a = build_wavetrain_initial(wt, grid, spec)
    b = build_wavetrain_initial(wt, grid, spec)
    assert np.array_equal(a.values, b.values)
    c = build_wavetrain_initial(wt, grid, PerturbationSpec("noise", amplitude=1e-3, seed=12))
    assert not np.array_equal(a.values, c.values)
    assert a.norm_drift() < 1e-12


def test_negative_noise_amplitude_is_config_error():
    grid = Grid1D(2 * np.pi, 64)
    spec = PerturbationSpec(kind="noise", amplitude=-1e-3, seed=11)
    with pytest.raises(ConfigError, match="noise amplitude must be non-negative"):
        build_wavetrain_initial(wavetrain_at(PARAMS, 0.0), grid, spec)


def test_negative_noise_seed_is_config_error():
    fld = MagnetizationField(Grid1D(2 * np.pi, 64), np.tile([0.0, 0.0, 1.0], (64, 1)))
    spec = PerturbationSpec(kind="noise", amplitude=1e-3, seed=-1)
    with pytest.raises(ConfigError, match="noise seed must be non-negative"):
        _perturb(fld, spec)


def test_measure_growth_rate_on_synthetic_signal():
    grid = Grid1D(20 * np.pi, 256)
    k, ell, sigma = 0.4, 0.1, 0.07
    x = grid.x
    times = np.linspace(0.0, 40.0, 41)
    values = []
    for t in times:
        u = 0.8 * np.exp(1j * k * x) + 1e-5 * math.exp(sigma * t) * np.exp(
            1j * (k + ell) * x
        )
        values.append(np.column_stack([u.real, u.imag, np.full(grid.n, 0.6)]))
    traj = Trajectory(grid, times, values)
    rate = measure_growth_rate(traj, ell, carrier_k=k)
    assert abs(rate.rate - sigma) < 1e-8
    assert rate.max_log_residual < 1e-8


def test_growth_rate_rejects_wavenumbers_off_the_grid():
    # the sideband wavetrain's problem: k = 0.6 and ell = 0.4 are modes 6 and 4 on L = 20 pi;
    # 0.42, 0.37, 0.58 and 0.62 are not modes, and their nearest modes are 6 and 4
    grid = Grid1D(20 * np.pi, 256)
    k, ell, sigma = 0.6, 0.4, 0.0551
    x = grid.x
    times = np.linspace(0.0, 20.0, 41)
    values = []
    for t in times:
        side = 1e-4 * math.exp(sigma * t) * (np.exp(1j * (k + ell) * x)
                                             + np.exp(1j * (k - ell) * x))
        u = 0.8 * np.exp(1j * k * x) + side
        values.append(np.column_stack([u.real, u.imag, np.full(grid.n, 0.6)]))
    traj = Trajectory(grid, times, np.array(values))
    assert abs(measure_growth_rate(traj, ell, carrier_k=k).rate - sigma) < 1e-8
    for off_ell, off_k in ((0.42, k), (0.37, 0.58), (ell, 0.62)):
        with pytest.raises(CommensurabilityError):
            measure_growth_rate(traj, off_ell, carrier_k=off_k)
        with pytest.raises(CommensurabilityError):
            mode_amplitudes(traj, off_ell, off_k)


def test_growth_rate_rejects_saturated_signal():
    grid = Grid1D(20 * np.pi, 128)
    times = np.linspace(0.0, 10.0, 30)
    rng = np.random.default_rng(3)
    values = [np.column_stack([np.cos(0.4 * grid.x) + rng.normal(size=grid.n),
                               np.sin(0.4 * grid.x) + rng.normal(size=grid.n),
                               np.zeros(grid.n)]) for _ in times]
    with pytest.raises(RuntimeError):
        measure_growth_rate(Trajectory(grid, times, values), 0.1, 0.4, residual_tol=1e-6)


def test_verify_wavetrain_as_coherent_profile():
    # a wavetrain is the trivial coherent structure s = 0, Omega = beta/alpha
    wt = wavetrain_at(PARAMS, 0.5)
    xi = np.linspace(-20.0, 20.0, 801)
    profile = CoherentProfile(
        xi=xi,
        theta=np.full_like(xi, wt.theta),
        p=np.zeros_like(xi),
        q=np.full_like(xi, wt.k),
        ansatz=CoherentAnsatz(0.0, PARAMS.beta / PARAMS.alpha),
    )
    report = verify_coherent_profile(profile, PARAMS, window=1.0, dt=5e-4)
    assert report.max_defect < 1e-3
    assert report.onset_time is None


def test_verify_coherent_profile_defaults_to_the_rk4_bound():
    wt = wavetrain_at(PARAMS, 0.5)
    xi = np.linspace(-20.0, 20.0, 801)
    profile = CoherentProfile(xi=xi, theta=np.full_like(xi, wt.theta), p=np.zeros_like(xi),
                              q=np.full_like(xi, wt.k),
                              ansatz=CoherentAnsatz(0.0, PARAMS.beta / PARAMS.alpha))
    default = verify_coherent_profile(profile, PARAMS, window=0.05)
    # the profile spans 40, so the verification grid is 80 long with 2048 points
    bound = verify_coherent_profile(profile, PARAMS, window=0.05,
                                    dt=cfl_limit(Grid1D(80.0, 2048), PARAMS))
    for a, b in zip(dataclasses.astuple(default), dataclasses.astuple(bound)):
        assert np.array_equal(a, b)
    assert len(default.times) > 1


@pytest.mark.parametrize("lower_branch", [False, True])
def test_sideband_initial_of_zero_amplitude_is_the_wavetrain(lower_branch):
    grid = Grid1D(20 * np.pi, 256)
    wt = wavetrain_at(PARAMS, 0.6, lower_branch=lower_branch)
    fld = build_wavetrain_initial(wt, grid, PerturbationSpec("sideband", ell=0.4, amplitude=0.0))
    assert np.max(np.abs(fld.values - wavetrain_field(wt, grid).values)) < 1e-15


def _symbol_denominator(grid, params, dt):
    """1 - dt*c*symbol, the exact symbol of I - dt*c*Lap on the periodic 3-point stencil."""
    symbol = -(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(grid.n) / grid.n)) / grid.dx ** 2
    c = params.alpha / (1.0 + params.alpha ** 2)
    return 1.0 - dt * c * symbol


def _reference_steps(grid, params, dt):
    """The (n, 3) RK4 and semi-implicit steps in the kernel's order, each returning a new array.

    A stage is `ll_rhs_vector_form`: its time step times the right-hand side.  RK4's stages
    take the neighbour sum m[i+1] + m[i-1] with dx^2; their outputs a1..a4 are taken at dt/2,
    dt/2, dt and dt/6, the stage inputs are m + a_i and the update (a1 + 2 a2 + a3)/3 + a4.
    The semi-implicit step is m + P(dt * rhs), P = (I - dt*c*Lap)^{-1}, with the same stage
    at dt.  At n <= DENSE_MAX_N it applies P as a dense matrix to a C-contiguous (3, n) copy,
    in the stepper's layout; above, by the real FFT along axis 0.
    """
    n, dx2 = grid.n, grid.dx ** 2
    denominator = _symbol_denominator(grid, params, dt)
    if n <= DENSE_MAX_N:
        j = np.arange(n)
        p = np.fft.ifft(1.0 / denominator).real
        solve_t = p[(j[None, :] - j[:, None]) % n]

    def rhs(m, h):
        return ll_rhs_vector_form(m, np.roll(m, -1, 0) + np.roll(m, 1, 0), params, h, dx2)

    def rk4(m):
        a1 = rhs(m, 0.5 * dt)
        a2 = rhs(m + a1, 0.5 * dt)
        a3 = rhs(m + a2, dt)
        a4 = rhs(m + a3, dt / 6.0)
        return m + ((a1 + 2 * a2 + a3) * (1.0 / 3.0) + a4)

    def semi_implicit(m):
        if n > DENSE_MAX_N:
            half = denominator[: n // 2 + 1, None]
            return m + np.fft.irfft(np.fft.rfft(rhs(m, dt), axis=0) / half, n, axis=0)
        return m + (np.ascontiguousarray(rhs(m, dt).T) @ solve_t).T

    return {"rk4": rk4, "semi-implicit": semi_implicit}


def _previous_reference_steps(grid, params, dt):
    """The (n, 3) steps in their earlier order: the np.cross right-hand side of the full
    stencil, RK4's m + (dt/6)(k1 + 2 k2 + 2 k3 + k4), and m + P(dt * rhs) with the dense
    Laplacian and P at n <= DENSE_MAX_N and P by the real FFT above."""
    n = grid.n
    denominator = _symbol_denominator(grid, params, dt)
    if n <= DENSE_MAX_N:
        j = np.arange(n)
        lap_t = np.ascontiguousarray(second_derivative(np.eye(n), grid).T)
        p = np.fft.ifft(1.0 / denominator).real
        solve_t = p[(j[None, :] - j[:, None]) % n]

    def rhs(m):
        return previous_ll_rhs(m, second_derivative(m, grid), params)

    def rk4(m):
        k1 = rhs(m)
        k2 = rhs(m + 0.5 * dt * k1)
        k3 = rhs(m + 0.5 * dt * k2)
        k4 = rhs(m + dt * k3)
        return m + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    def semi_implicit(m):
        if n > DENSE_MAX_N:
            half = denominator[: n // 2 + 1, None]
            return m + np.fft.irfft(np.fft.rfft(dt * rhs(m), axis=0) / half, n, axis=0)
        lap = np.ascontiguousarray(m.T) @ lap_t
        update = np.ascontiguousarray((dt * previous_ll_rhs(m, lap.T, params)).T) @ solve_t
        return m + update.T

    return {"rk4": rk4, "semi-implicit": semi_implicit}


def _previous_semi_implicit(grid, params, dt):
    """The semi-implicit step in its earlier form, P(m + dt*(rhs - c*Lap m)) by the FFT, with
    the earlier right-hand side."""
    denominator = _symbol_denominator(grid, params, dt)[:, None]
    c = params.alpha / (1.0 + params.alpha ** 2)

    def step(m):
        lap = second_derivative(m, grid)
        explicit = previous_ll_rhs(m, lap, params) - c * lap
        rhs_hat = np.fft.fft(m + dt * explicit, axis=0)
        return np.real(np.fft.ifft(rhs_hat / denominator, axis=0))

    return step


def _complex_fft_semi_implicit(grid, params, dt):
    """The semi-implicit step m + P(dt*rhs) in its earlier FFT form: P by the complex FFT, with
    the earlier right-hand side."""
    denominator = _symbol_denominator(grid, params, dt)[:, None]

    def step(m):
        rhs = previous_ll_rhs(m, second_derivative(m, grid), params)
        update = np.fft.ifft(np.fft.fft(dt * rhs, axis=0) / denominator, axis=0)
        return m + np.real(update)

    return step


def _reference_simulate(initial, params, config, step_fn=None):
    """simulate() written on (n, 3) arrays: diagnostics, snapshots and the final field.

    step_fn, when given, replaces the config's reference step.
    """
    if step_fn is None:
        step_fn = _reference_steps(initial.grid, params, config.dt)[config.integrator]
    m = initial.values.copy()
    n_steps = int(round(config.t_final / config.dt))
    times, drifts, energies, phis = [], [], [], []
    snap_t, snaps = [initial.time], [m]

    def record(t, m):
        fld = MagnetizationField(initial.grid, m, t)
        times.append(t)
        drifts.append(fld.norm_drift())
        energies.append(energy(fld, params))
        phis.append(math.atan2(m[0, 1], m[0, 0]))

    record(initial.time, m)
    for step in range(1, n_steps + 1):
        m = _project(step_fn(m))
        t = initial.time + step * config.dt
        if step % config.diag_every == 0 or step == n_steps:
            record(t, m)
        if step % config.store_every == 0 or step == n_steps:
            snap_t.append(t)
            snaps.append(m)
    dphi = np.diff(phis)
    dphi -= 2 * np.pi * np.round(dphi / (2 * np.pi))
    phi0 = np.cumsum(np.concatenate([phis[:1], dphi]))
    return (np.array(times), np.array(drifts), np.array(energies), phi0,
            np.array(snap_t), np.array(snaps), m)


def _assert_equals_reference(initial, params, config):
    result = simulate(initial, params, config)
    diag, traj = result.diagnostics, result.trajectory
    got = (diag.times, diag.norm_drift, diag.energy, diag.phi0, traj.times,
           traj.values, result.final.values)
    for a, b in zip(got, _reference_simulate(initial, params, config)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("integrator", ["rk4", "semi-implicit"])
@pytest.mark.parametrize("n", [16, 96, 200, 1024])
def test_simulate_equals_n3_reference_bitwise(rng, integrator, n):
    # n = 96 and 200 are not powers of two, so the row-wise FFT takes another path; the
    # semi-implicit step applies dense operators at 16 and 96, and the FFT at 200 and 1024
    assert 96 <= DENSE_MAX_N < 200
    grid = Grid1D(2 * np.pi, n)
    for zero_beta in (False, True):
        p = random_params(rng)
        params = ModelParams(p.alpha, 0.0 if zero_beta else p.beta, p.mu, p.h)
        initial = random_smooth_field(rng, grid)
        initial.time = 0.25
        dt = 0.5 * cfl_limit(grid, params)
        config = SimConfig(dt=dt, t_final=200 * dt, integrator=integrator,
                           diag_every=7, store_every=30)
        _assert_equals_reference(initial, params, config)


@pytest.mark.parametrize("integrator", ["rk4", "semi-implicit"])
def test_snapshots_own_their_memory(rng, integrator):
    grid = Grid1D(2 * np.pi, 32)
    initial = random_smooth_field(rng, grid)
    before = initial.values.copy()
    dt = 0.5 * cfl_limit(grid, PARAMS)
    result = simulate(initial, PARAMS, SimConfig(dt=dt, t_final=45 * dt, integrator=integrator,
                                                 store_every=10))
    traj = result.trajectory
    assert np.array_equal(initial.values, before)
    assert len(traj.times) == 6  # steps 0, 10, 20, 30, 40 and 45
    assert np.array_equal(traj.values[0], before)
    for j in range(1, len(traj.times)):
        steps = 45 if j == len(traj.times) - 1 else 10 * j
        solo = simulate(initial, PARAMS, SimConfig(dt=dt, t_final=steps * dt,
                                                   integrator=integrator))
        assert np.array_equal(traj.values[j], solo.final.values)
    arrays = [initial.values, result.final.values] + list(traj.values)
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("integrator", ["rk4", "semi-implicit"])
def test_steppers_equal_n3_reference_bytewise_at_shortest_views(rng, integrator, n):
    # n = 3 and 4 make the stencil's shifted, wrap-around and end views shortest;
    # bytes, not values, so that a signed zero counts
    grid = Grid1D(2 * np.pi, n)
    p = random_params(rng)
    for params in (p, ModelParams(p.alpha)):  # beta = mu = h = 0: f is made of signed zeros
        dt = 0.5 * cfl_limit(grid, params)
        reference = _reference_steps(grid, params, dt)[integrator]
        for values in (random_smooth_field(rng, grid).values, signed_zero_field(rng, n)):
            step = _STEPPERS[integrator](grid, params, dt)
            m, state = values, values.T.copy()
            for _ in range(5):
                m = reference(m)
                step(state)
                assert state.T.tobytes() == m.tobytes()
                m = _project(m)  # as simulate does, so that no run leaves the sphere
                state[...] = m.T


@pytest.mark.parametrize("integrator", ["rk4", "semi-implicit"])
@pytest.mark.parametrize("n", [16, 96, 200, 1024])
def test_simulate_equals_previous_order_to_stated_tolerance(rng, integrator, n):
    # the kernel takes the neighbour sum (the diagonal goes into its operator) and folds each
    # stage's scale into g, and RK4 sums the scaled stage outputs; against the earlier np.cross
    # order of the full stencil, measured worst over 10 seeds of these runs: the field (final
    # and snapshots) 4.3e-15, phi0 5.2e-15, the energy 6.5e-14 of the run's largest |E|, the
    # norm drift 2.2e-16
    grid = Grid1D(2 * np.pi, n)
    for params in (PARAMS, ModelParams(1.0)):
        initial = random_smooth_field(rng, grid)
        dt = 0.5 * cfl_limit(grid, params)
        config = SimConfig(dt=dt, t_final=200 * dt, integrator=integrator,
                           diag_every=7, store_every=30)
        result = simulate(initial, params, config)
        previous = _previous_reference_steps(grid, params, dt)[integrator]
        times, drifts, energies, phi0, snap_t, snaps, final = _reference_simulate(
            initial, params, config, previous)
        diag = result.diagnostics
        assert np.array_equal(diag.times, times) and np.array_equal(result.trajectory.times, snap_t)
        assert np.abs(result.trajectory.values - snaps).max() <= 1e-14
        assert np.abs(result.final.values - final).max() <= 1e-14
        assert np.abs(diag.phi0 - phi0).max() <= 2e-14
        assert np.abs(diag.energy - energies).max() <= 2e-13 * np.abs(energies).max()
        assert np.abs(diag.norm_drift - drifts).max() <= 1e-15


def _peak_bytes(fn, repeats=20):
    """The most memory traced at once over repeats calls of fn, above what was traced before."""
    fn()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for _ in range(repeats):
            fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("integrator", ["rk4", "semi-implicit"])
def test_steps_allocate_no_array(rng, integrator):
    # a (3, n) temporary would take 24 KB, and a ufunc that needs numpy's general
    # iterator (a broadcast, or strided 2-D operands) 1.1 KB; a few Python objects fit in 256 bytes
    grid = Grid1D(20 * np.pi, 1024)
    step = _STEPPERS[integrator](grid, PARAMS, 0.5 * cfl_limit(grid, PARAMS))
    m = random_smooth_field(rng, grid).values.T.copy()
    allowed = 256
    if integrator == "semi-implicit":
        # np.fft's wrapper and its gufunc call allocate about 1.5 KB, whatever n is
        signal, spectrum = np.zeros((3, grid.n)), np.zeros((3, grid.n // 2 + 1), complex)
        allowed += _peak_bytes(lambda: (np.fft.rfft(signal, axis=1, out=spectrum),
                                        np.fft.irfft(spectrum, grid.n, axis=1, out=signal)))
    assert _peak_bytes(lambda: step(m)) < allowed


def test_dense_step_allocates_no_array(rng):
    # a (3, n) temporary would take 1.5 KB at n = 64; np.matmul's own call allocates a
    # few small objects whatever the shapes, measured here on the step's shapes
    grid = Grid1D(2 * np.pi, 64)
    assert grid.n <= DENSE_MAX_N
    step = _STEPPERS["semi-implicit"](grid, PARAMS, 0.005)
    m = random_smooth_field(rng, grid).values.T.copy()
    a, b, out = np.ones((3, grid.n)), np.ones((grid.n, grid.n)), np.empty((3, grid.n))
    allowed = 256 + _peak_bytes(lambda: np.matmul(a, b, out))
    assert _peak_bytes(lambda: step(m)) < allowed


@pytest.mark.parametrize("n", [3, 4, 16, 64, 96, DENSE_MAX_N])
def test_dense_operators_equal_fft_and_stencil_to_stated_ulp(rng, n):
    # measured worst over 1800 random cases at n <= 192: 7 ulp
    grid = Grid1D(rng.uniform(0.5, 50.0), n)
    for _ in range(20):
        params = ModelParams(rng.uniform(0.1, 3.0))
        denominator = _symbol_denominator(grid, params, 10 ** rng.uniform(-4, 0))
        solve_t = _dense_operators(grid, denominator)
        y = rng.normal(size=(3, n)) * 10 ** rng.uniform(-6, 2)
        # in ulp of max |y|, as P has nonnegative entries and unit row sums
        fft = np.fft.ifft(np.fft.fft(y, axis=1) / denominator, axis=1).real
        assert np.abs(y @ solve_t - fft).max() <= 16 * np.spacing(np.abs(y).max())
    # the stencil gives 0 exactly on a constant
    for value in (0.0, 1.0, -1.0, 2.0 ** -20, -(2.0 ** 30)):
        assert np.all(second_derivative(np.full((n, 3), value), grid) == 0.0)


def test_semi_implicit_equals_previous_form_to_stated_tolerance(rng):
    # the step form moved from P(m + dt*(rhs - c*Lap m)) by the FFT to m + P(dt*rhs) with a
    # dense P, and the right-hand side to the kernel's order, fed the neighbour sum; measured
    # worst over noise seeds 0-9 of the hopf run and 11 random fields at n = 96: the field
    # (snapshots) by 4.0e-14, the final field by 2.9e-14, the energy by 1.9e-14 of the run's
    # largest |E|, phi0 by 5.0e-14 on these runs (3.2e-13 over the seeds, as with the dense
    # Laplacian: near e3 the azimuth is ill-conditioned).  Rounding: the hopf run lies within
    # 3.2e-14 of the same scheme run in 80-bit long double (7.2e-15 with the dense Laplacian)
    params = ModelParams(1.0, 0.5, 1.0, 1.0)
    grid = Grid1D(2 * np.pi, 64)
    e3 = MagnetizationField(grid, np.tile([0.0, 0.0, 1.0], (grid.n, 1)))
    hopf = _perturb(e3, PerturbationSpec("noise", amplitude=1e-3, seed=7))
    grid = Grid1D(2 * np.pi, 96)
    runs = ((hopf, params, SimConfig(dt=0.005, t_final=80.0)),
            (random_smooth_field(rng, grid), PARAMS, SimConfig(dt=0.01, t_final=2.0)))
    for initial, params, config in runs:
        result = simulate(initial, params, config)
        previous = _previous_semi_implicit(initial.grid, params, config.dt)
        times, drifts, energies, phi0, snap_t, snaps, final = _reference_simulate(
            initial, params, config, previous)
        diag = result.diagnostics
        assert np.array_equal(diag.times, times) and np.array_equal(result.trajectory.times, snap_t)
        assert np.abs(result.trajectory.values - snaps).max() <= 1e-13
        assert np.abs(result.final.values - final).max() <= 1e-13
        assert np.abs(diag.phi0 - phi0).max() <= 1e-13
        assert np.abs(diag.energy - energies).max() <= 5e-14 * np.abs(energies).max()
        assert np.abs(diag.norm_drift - drifts).max() <= 1e-15


@pytest.mark.parametrize("n", [193, 200, 1024, 2048])
def test_semi_implicit_equals_complex_fft_form_to_stated_tolerance(n):
    # above DENSE_MAX_N, P moved from a complex FFT pair to a real one, and the right-hand
    # side to the kernel's order; measured over noise seeds 0-9 on the hopf problem, 400
    # steps: the field (final and snapshots) by at most 6.5e-16, phi0 by 2.0e-12 (the state
    # is near e3, where the azimuth is ill-conditioned), the energy by 5.7e-16 of the run's
    # largest |E| and the norm drift by 1.1e-16
    assert n > DENSE_MAX_N
    params = ModelParams(1.0, 0.5, 1.0, 1.0)
    grid = Grid1D(2 * np.pi, n)
    e3 = MagnetizationField(grid, np.tile([0.0, 0.0, 1.0], (n, 1)))
    initial = _perturb(e3, PerturbationSpec("noise", amplitude=1e-3, seed=13))
    config = SimConfig(dt=0.005, t_final=2.0)
    result = simulate(initial, params, config)
    previous = _complex_fft_semi_implicit(grid, params, config.dt)
    times, drifts, energies, phi0, snap_t, snaps, final = _reference_simulate(
        initial, params, config, previous)
    diag = result.diagnostics
    assert np.array_equal(diag.times, times) and np.array_equal(result.trajectory.times, snap_t)
    assert np.abs(result.trajectory.values - snaps).max() <= 2e-15
    assert np.abs(result.final.values - final).max() <= 2e-15
    assert np.abs(diag.phi0 - phi0).max() <= 1e-11
    assert np.abs(diag.energy - energies).max() <= 2e-15 * np.abs(energies).max()
    assert np.abs(diag.norm_drift - drifts).max() <= 1e-15


# the sideband preset's wavetrain and sideband (modes 6 and 4 on L = 20 pi) on a coarse grid
SIDEBAND_WT = wavetrain_at(PARAMS, 0.6)
SIDEBAND_GRID = Grid1D(20 * np.pi, 64)


@pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
def test_non_finite_sideband_amplitude_is_config_error(amplitude):
    spec = PerturbationSpec("sideband", 0.4, amplitude)
    with pytest.raises(ConfigError, match="sideband amplitude must be finite"):
        build_wavetrain_initial(SIDEBAND_WT, SIDEBAND_GRID, spec)


def test_infinite_noise_amplitude_is_config_error():
    spec = PerturbationSpec("noise", amplitude=math.inf, seed=1)
    with pytest.raises(ConfigError, match="noise amplitude must be finite"):
        build_wavetrain_initial(SIDEBAND_WT, SIDEBAND_GRID, spec)


def test_non_integral_noise_seed_is_config_error():
    spec = PerturbationSpec("noise", amplitude=1e-3, seed=1.5)
    with pytest.raises(ConfigError, match="noise seed must be an integer"):
        build_wavetrain_initial(SIDEBAND_WT, SIDEBAND_GRID, spec)


def test_sideband_needs_a_wavetrain_base():
    e3 = MagnetizationField(SIDEBAND_GRID, np.tile([0.0, 0.0, 1.0], (SIDEBAND_GRID.n, 1)))
    with pytest.raises(ConfigError, match="a sideband perturbation needs initial = wavetrain"):
        _perturb(e3, PerturbationSpec("sideband", 0.4, 1e-4))


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf])
def test_non_finite_wavenumber_is_commensurability_error(k):
    with pytest.raises(CommensurabilityError, match="not a finite wavenumber"):
        check_commensurate(k, SIDEBAND_GRID)
    fld = wavetrain_field(SIDEBAND_WT, SIDEBAND_GRID)
    traj = Trajectory(SIDEBAND_GRID, np.zeros(1), fld.values[None])
    with pytest.raises(CommensurabilityError):
        measure_growth_rate(traj, k, 0.6)
    with pytest.raises(CommensurabilityError):
        measure_growth_rate(traj, 0.4, k)


@pytest.mark.parametrize("n", [16, 15])
def test_grid_modes_lie_below_nyquist(n):
    # on L = 2 pi, k is mode k; a mode at or above n/2 aliases to one below it
    grid = Grid1D(2 * np.pi, n)
    top = (n - 1) // 2
    assert check_commensurate(top, grid) == top and check_commensurate(-top, grid) == -top
    for k in (top + 1, -(top + 1), 10):
        with pytest.raises(CommensurabilityError, match="alias"):
            check_commensurate(k, grid)


def test_sideband_pair_lies_below_nyquist():
    # carrier mode 6: ell = 0.1 puts the pair on modes 5 and 7, ell = 0.2 reaches 8 = n/2
    grid = Grid1D(20 * np.pi, 16)
    fld = build_wavetrain_initial(SIDEBAND_WT, grid, PerturbationSpec("sideband", 0.1, 1e-4))
    traj = Trajectory(grid, np.zeros(1), fld.values[None])
    assert mode_amplitudes(traj, 0.1, 0.6)[0] > 0
    with pytest.raises(CommensurabilityError, match="alias"):
        build_wavetrain_initial(SIDEBAND_WT, grid, PerturbationSpec("sideband", 0.2, 1e-4))
    with pytest.raises(CommensurabilityError, match="alias"):
        mode_amplitudes(traj, 0.2, 0.6)


@pytest.mark.parametrize("ell", [0.0, -0.0, 1e-12])
def test_sideband_at_grid_mode_zero_is_commensurability_error(ell):
    # ell = 0 is the carrier's own mode: the builder returned the wavetrain tilted uniformly,
    # and mode_amplitudes sqrt(2) times the carrier's amplitude, which the growth fit took
    # for a sideband's
    spec = PerturbationSpec("sideband", ell, 1e-3)
    with pytest.raises(CommensurabilityError, match="mode 0"):
        build_wavetrain_initial(SIDEBAND_WT, SIDEBAND_GRID, spec)
    fld = wavetrain_field(SIDEBAND_WT, SIDEBAND_GRID)
    with pytest.raises(CommensurabilityError, match="mode 0"):
        _perturb(fld, spec, SIDEBAND_WT)
    traj = Trajectory(SIDEBAND_GRID, np.linspace(0.0, 1.0, 8), np.repeat(fld.values[None], 8, 0))
    with pytest.raises(CommensurabilityError, match="mode 0"):
        mode_amplitudes(traj, ell, 0.6)
    with pytest.raises(CommensurabilityError, match="mode 0"):
        measure_growth_rate(traj, ell, 0.6)


@pytest.mark.parametrize("counts", [{"diag_every": math.nan}, {"diag_every": 2.5},
                                    {"store_every": 2.5}, {"store_every": math.inf}])
def test_sample_counts_must_be_integers(counts):
    with pytest.raises(ConfigError, match="must be integers"):
        SimConfig(dt=0.1, t_final=1.0, **counts)
