"""Direct PDE integration of the LLGS equation on a periodic 1D grid.

Method of lines with a 3-point Laplacian, projected to the sphere after every
step.  Two time steppers: classical RK4 (convergence studies), and a linearly
implicit scheme, m <- m + P(dt*rhs(m)) with P = (I - dt*c*Lap)^{-1}, treating
the stiff diffusion c d_xx, c = alpha/(1+alpha^2), implicitly (production
runs, no dx^2 step barrier).  Both call `model._LLKernel`, which returns dt
times the right-hand side, and both feed it the neighbour sum m[i+1] + m[i-1]
at every n.  The semi-implicit step applies P as a dense matrix up to
DENSE_MAX_N points and by one real FFT pair above.  Used to cross-validate
wavetrain frequency, sideband growth rates and coherent profiles against the
analytical modules.

The time-stepped state is component-first: a C-contiguous (3, n) array, one
row per component.  The RK4 factory rejects a dt above `cfl_limit` before
any buffer is built; each factory builds its buffers, the kernel, its
(3, 7) operators and, for the semi-implicit step, P once; a step advances
the state in place with ufuncs and matrix products that write to those
buffers (their output passed positionally, as in `model`), allocates no
array, and is bit-equal to the (n, 3) formulas written in the kernel's
operation order.
`simulate` transposes only at entry, when it records diagnostics
or a snapshot, and at exit; everything it returns is (n, 3).  Its loop reads
the config once and takes the time of a step only when it records or
stores; a record takes the norm drift on the (3, n) state, into scratch
allocated once, as its finiteness test, and the energy and phi0 from the
(n, 3) copy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import BlowupError, CFLError, CommensurabilityError, ConfigError, ConvergenceError
from .model import (
    Grid1D,
    MagnetizationField,
    ModelParams,
    _laplacian_symbol,
    _LLKernel,
    _norm_drift,
    _normalize,
    _project,
    _unit_vectors,
    energy,
)
from .wavetrains import Wavetrain, wavetrain_field

CFL_SAFETY = 0.25
# verify_coherent_profile: a defect above DEFECT_THRESHOLD marks the onset of
# instability; the defect is measured over the middle DEFECT_INTERIOR of the
# domain, since periodic wrap-around pollutes the edges.
DEFECT_THRESHOLD = 1e-2
DEFECT_INTERIOR = 0.6
# the largest n at which the semi-implicit step applies P as one dense (n, n) product, not
# the real FFT pair: dense/FFT per step 24.7/28.6 us at 192, 28.7/31.5 at 224, 34.7/31.7
# at 256 and 51.2/38.9 at 384, each in at least 39 of 40 batch pairs (BENCH_pde_feed.json)
DENSE_MAX_N = 192


def cfl_limit(grid: Grid1D, params: ModelParams) -> float:
    """Largest explicit time step: c_safe * dx^2 * (1+alpha^2)/alpha."""
    a = params.alpha
    return CFL_SAFETY * grid.dx ** 2 * (1 + a * a) / a


@dataclass
class SimConfig:
    dt: float
    t_final: float
    integrator: str = "semi-implicit"  # or "rk4"
    diag_every: int = 10  # steps between diagnostic records
    store_every: int = 100  # steps between stored snapshots

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not (self.t_final >= 0 and math.isfinite(self.t_final)):
            raise ConfigError(f"t_final must be non-negative and finite, got {self.t_final}")
        try:
            operator.index(self.diag_every), operator.index(self.store_every)
        except TypeError:
            raise ConfigError(
                f"diag_every and store_every must be integers, got "
                f"{self.diag_every!r} and {self.store_every!r}"
            ) from None
        if self.diag_every < 1 or self.store_every < 1:
            raise ConfigError(
                f"diag_every and store_every must be at least 1, got "
                f"{self.diag_every} and {self.store_every}"
            )

    def validate(self, grid: Grid1D, params: ModelParams):
        """The integrator's step function, which advances a (3, n) field in place."""
        make_step = _STEPPERS.get(self.integrator)
        if make_step is None:
            raise ConfigError(f"unknown integrator {self.integrator!r}")
        return make_step(grid, params, self.dt)


@dataclass
class Diagnostics:
    """Time series recorded along a simulation."""

    times: np.ndarray
    norm_drift: np.ndarray
    energy: np.ndarray
    phi0: np.ndarray  # unwrapped azimuth at the first grid point

    def mean_frequency(self, t_min: float = 0.0) -> float:
        """Rotation frequency d(phi)/dt from a linear fit of phi0."""
        mask = self.times >= t_min
        if np.count_nonzero(mask) < 2:
            raise ConfigError("not enough diagnostic samples for a frequency fit")
        return float(np.polyfit(self.times[mask], self.phi0[mask], 1)[0])


@dataclass
class Trajectory:
    """Snapshots: values[j], one (n, 3) field of a (len(times), n, 3) array, at times[j]."""

    grid: Grid1D
    times: np.ndarray
    values: np.ndarray


def _dense_operators(grid: Grid1D, denominator: np.ndarray) -> np.ndarray:
    """P = F^-1 diag(1/denominator) F as a dense (n, n) matrix, transposed.

    P is circulant, P[i, j] = p[(i - j) mod n], with p the inverse FFT of
    1/denominator, so it is the operator the FFT path applies.  It is
    returned transposed and C-contiguous: a (3, n) state x maps to x @ P.T,
    one matrix product.
    """
    j = np.arange(grid.n)
    p = np.fft.ifft(1.0 / denominator).real
    return p[(j[None, :] - j[:, None]) % grid.n]


def _semi_implicit(grid: Grid1D, params: ModelParams, dt: float):
    """Step m_{n+1} = m_n + P (dt * rhs(m_n)), with P = (I - dt*c*Lap)^{-1}.

    c = alpha/(1+alpha^2) is the ellipticity constant.  In exact arithmetic
    this is P (m_n + dt*(rhs - c*Lap m_n)), as P (I - dt*c*Lap) m_n = m_n.  P
    uses the exact Fourier symbol of the 3-point Laplacian,
    `_laplacian_symbol`, so the split is consistent with the stencil.  The
    kernel, fed the neighbour sum as RK4 feeds it, returns dt * rhs.  One
    step body serves every n; only P's application depends on it: at
    n <= DENSE_MAX_N one product with the dense circulant matrix
    (`_dense_operators`) on the (3, n) state; above it, a real FFT along the
    rows, a divide by the symbol's first n//2 + 1 values and the inverse.
    The kernel, its operator, P and the buffers are built here, once.
    """
    n = grid.n
    c = params.alpha / (1.0 + params.alpha ** 2)
    denominator = 1.0 - dt * c * _laplacian_symbol(grid)
    kernel = _LLKernel(n, params)
    x, lap, k = kernel.m.rows, kernel.lap, np.empty((3, n))
    neighbour_sum, op = kernel.neighbour_sum, kernel.operator(dt, grid.dx ** 2)

    if n <= DENSE_MAX_N:
        solve = partial(np.dot, k, _dense_operators(grid, denominator), lap)  # lap is spent
    else:
        # complex and (3, n//2 + 1), so dividing by it neither casts nor buffers
        half = np.tile(denominator[: n // 2 + 1], (3, 1)).astype(complex)
        spectrum = np.empty_like(half)

        def solve():
            np.fft.rfft(k, axis=1, out=spectrum)
            np.divide(spectrum, half, spectrum)
            return np.fft.irfft(spectrum, n, axis=1, out=lap)  # lap is spent

    def step(m: np.ndarray):
        x[...] = m
        neighbour_sum()
        kernel.rhs(op, k)
        m += solve()

    return step


def _rk4(grid: Grid1D, params: ModelParams, dt: float):
    """Classical RK4 step of the full right-hand side.

    Explicit, so a dt above `cfl_limit` is a CFLError.  The step advances a
    (3, n) field in place.  The kernel returns each stage's slope times
    dt/2, dt/2, dt and dt/6, so the stage inputs are m plus a stage output
    and the update is (a1 + 2 a2 + a3)/3 + a4.  The kernel, its operators
    and the stage and sum buffers are allocated here, once.
    """
    limit = cfl_limit(grid, params)
    if dt > limit:
        raise CFLError(f"dt = {dt:.3e} exceeds the explicit bound {limit:.3e}")
    kernel = _LLKernel(grid.n, params)
    x = kernel.m.rows  # each stage's input
    k, acc = np.empty((3, grid.n)), np.empty((3, grid.n))
    half, full, sixth = (kernel.operator(h, grid.dx ** 2) for h in (0.5 * dt, dt, dt / 6.0))
    third = np.array(1.0 / 3.0)  # 0-d, as a ufunc converts a Python float on every call
    neighbour_sum, kernel_rhs = kernel.neighbour_sum, kernel.rhs

    def stage(op, out):
        neighbour_sum()
        return kernel_rhs(op, out)

    def step(m: np.ndarray):
        x[...] = m
        np.add(m, stage(half, acc), x)  # a1
        np.add(m, stage(half, k), x)  # a2
        np.add(acc, np.add(k, k, k), acc)
        np.add(m, stage(full, k), x)  # a3
        np.add(acc, k, acc)
        stage(sixth, k)  # a4
        np.add(np.multiply(acc, third, acc), k, acc)
        m += acc

    return step


# SimConfig.integrator -> factory (periodic grid, params, dt) -> step(m), in place on
# (3, n); RK4's rejects a dt above cfl_limit before it allocates
_STEPPERS = {"rk4": _rk4, "semi-implicit": _semi_implicit}


@dataclass
class SimResult:
    trajectory: Trajectory
    diagnostics: Diagnostics
    final: MagnetizationField


def simulate(initial: MagnetizationField, params: ModelParams, config: SimConfig) -> SimResult:
    """Advance the field to t_final, projected to the sphere after every step.

    Diagnostics (snapshots) are taken at the start, every diag_every
    (store_every) steps and at the end, so store_every = sys.maxsize keeps
    only the first and last states.  An initial field off the unit sphere is
    a ConfigError; a non-finite one reaches the first record's BlowupError.
    """
    initial.check_unit_norm()
    grid = initial.grid
    step_fn = config.validate(grid, params)
    m = initial.values.T.copy()  # the (3, n) state, stepped in place
    norm, sq = np.empty(grid.n), np.empty((3, grid.n))
    t0, dt = initial.time, config.dt
    diag_every, store_every = config.diag_every, config.store_every
    n_steps = int(round(config.t_final / dt))

    times, drifts, energies, phis = [], [], [], []
    values = initial.values.copy()  # (n, 3): the latest recorded or stored state
    snap_t, snaps = [t0], [values]

    def record(t, values):
        drift = _norm_drift(m, norm, sq)  # not finite exactly when m is not
        if not math.isfinite(drift):
            raise BlowupError(
                f"NaN at t = {t:.4g}: finite-time blow-up or under-resolution"
            )
        times.append(t)
        drifts.append(drift)
        energies.append(energy(MagnetizationField(grid, values, t), params))
        phis.append(math.atan2(values[0, 1], values[0, 0]))

    record(t0, values)
    t = t0
    for step in range(1, n_steps + 1):
        step_fn(m)
        _normalize(m, m, norm, sq)
        recording = step % diag_every == 0 or step == n_steps
        storing = step % store_every == 0 or step == n_steps
        if recording or storing:
            t = t0 + step * dt
            values = m.T.copy()
            if recording:
                record(t, values)
            if storing:
                snap_t.append(t)
                snaps.append(values)

    # jumps between records folded into [-pi, pi] and summed in record order;
    # np.unwrap sums them in another order and moves phi0 by ~1e-13
    dphi = np.diff(phis)
    dphi -= 2 * np.pi * np.round(dphi / (2 * np.pi))
    phi0 = np.cumsum(np.concatenate([phis[:1], dphi]))
    diag = Diagnostics(np.array(times), np.array(drifts), np.array(energies), phi0)
    traj = Trajectory(grid, np.array(snap_t), np.array(snaps))
    return SimResult(traj, diag, MagnetizationField(grid, values, t))


# ---------------------------------------------------------------------------
# Initial data
# ---------------------------------------------------------------------------


@dataclass
class PerturbationSpec:
    kind: str = "none"  # "none" | "sideband" | "noise"
    ell: float = 0.0
    amplitude: float = 0.0
    seed: int | None = None


def check_commensurate(k: float, grid: Grid1D) -> int:
    """The Fourier mode index k*L/(2 pi) of k, which must be an integer to within 1e-9
    and below the Nyquist mode n/2 in modulus (a mode at or above it aliases)."""
    cycles = k * grid.length / (2 * math.pi)
    if not math.isfinite(cycles):
        raise CommensurabilityError(f"k = {k} is not a finite wavenumber on L = {grid.length}")
    if abs(cycles - round(cycles)) > 1e-9:
        raise CommensurabilityError(
            f"k = {k} puts {cycles:.6f} wavelengths on L = {grid.length}; "
            "k*L must be a multiple of 2*pi"
        )
    _check_below_nyquist(f"k = {k}", round(cycles), grid)
    return round(cycles)


def _check_below_nyquist(name: str, mode: int, grid: Grid1D) -> None:
    """Raise a CommensurabilityError naming `name` unless |mode| is below n/2."""
    if abs(mode) >= grid.n / 2:
        raise CommensurabilityError(
            f"{name} reaches grid mode {mode}; n = {grid.n} points alias every mode "
            f"at or above n/2 = {grid.n / 2:g} in modulus"
        )


def _sideband_modes(k: float, ell: float, grid: Grid1D) -> tuple[int, int]:
    """The grid modes of k - ell and k + ell, each below the Nyquist mode n/2, with ell not
    mode 0 (that pair is the carrier itself)."""
    i_k, i_ell = check_commensurate(k, grid), check_commensurate(ell, grid)
    if i_ell == 0:
        raise CommensurabilityError(
            f"ell = {ell} is grid mode 0 on L = {grid.length}: a sideband needs a nonzero mode")
    _check_below_nyquist(f"k +- ell = {k} +- {ell}", abs(i_k) + abs(i_ell), grid)
    return i_k - i_ell, i_k + i_ell


def build_wavetrain_initial(
    wt: Wavetrain, grid: Grid1D, perturbation: PerturbationSpec | None = None
) -> MagnetizationField:
    """The wavetrain sampled on the grid, with `perturbation` applied by `_perturb`."""
    check_commensurate(wt.k, grid)
    return _perturb(wavetrain_field(wt, grid), perturbation, wt)


def _perturb(fld: MagnetizationField, perturbation: PerturbationSpec | None,
             wt: Wavetrain | None = None) -> MagnetizationField:
    """The base field `fld` with `perturbation` applied; the one reader of a PerturbationSpec.

    - "none" (or None): `fld` as is, on any base.
    - "noise": `fld` plus tangent noise of standard deviation `amplitude`
      (finite, >= 0) drawn from `seed` (None or an integer >= 0), on any base.
    - "sideband": theta0 + a*cos(ell*x), k*x + a*sin(ell*x), with a finite;
      needs the wavetrain `wt` that `fld` samples, and ell a nonzero grid
      mode and the pair k +- ell grid modes below n/2 (`_sideband_modes`).
    """
    if perturbation is None or perturbation.kind == "none":
        return fld
    kind, a = perturbation.kind, perturbation.amplitude
    if kind not in ("sideband", "noise"):
        raise ConfigError(f"unknown perturbation kind {kind!r}")
    if not math.isfinite(a):
        raise ConfigError(f"{kind} amplitude must be finite, got {a}")
    if kind == "sideband":
        if wt is None:
            raise ConfigError("a sideband perturbation needs initial = wavetrain, not e3")
        _sideband_modes(wt.k, perturbation.ell, fld.grid)
        x, ell = fld.grid.x, perturbation.ell
        theta0 = -wt.theta if wt.lower_branch else wt.theta
        theta = np.full(fld.grid.n, theta0) + a * np.cos(ell * x)
        return MagnetizationField(fld.grid, _unit_vectors(theta, wt.k * x + a * np.sin(ell * x)))
    if a < 0:
        raise ConfigError(f"noise amplitude must be non-negative, got {a}")
    if perturbation.seed is not None:
        try:
            operator.index(perturbation.seed)
        except TypeError:
            raise ConfigError(f"noise seed must be an integer, got {perturbation.seed!r}") from None
        if perturbation.seed < 0:
            raise ConfigError(f"noise seed must be non-negative, got {perturbation.seed}")
    rng = np.random.default_rng(perturbation.seed)
    noise = rng.normal(scale=a, size=(fld.grid.n, 3))
    m = fld.values
    noise -= np.sum(noise * m, axis=1, keepdims=True) * m  # tangent part
    return MagnetizationField(fld.grid, _project(m + noise))


# ---------------------------------------------------------------------------
# Growth-rate measurement
# ---------------------------------------------------------------------------


def mode_amplitudes(traj: Trajectory, ell: float, carrier_k: float) -> np.ndarray:
    """Magnitude of the +-ell sideband pair of m1 + i*m2 around the carrier.

    Moduli are invariant under the carrier's rotation about e3, so no
    co-rotating demodulation in time is needed.  Both wavenumbers, and the
    pair carrier_k +- ell, must be grid modes below n/2, and ell not mode 0
    (`_sideband_modes`).
    """
    grid = traj.grid
    lo, hi = _sideband_modes(carrier_k, ell, grid)
    m = np.asarray(traj.values)
    u_hat = np.fft.fft(m[..., 0] + 1j * m[..., 1], axis=1) / grid.n
    return np.hypot(np.abs(u_hat[:, lo]), np.abs(u_hat[:, hi]))  # a mode < 0 indexes from the end


@dataclass
class GrowthRate:
    rate: float
    window: tuple
    max_log_residual: float


def measure_growth_rate(
    traj: Trajectory,
    ell: float,
    carrier_k: float,
    t_min: float = 0.0,
    residual_tol: float = 0.1,
) -> GrowthRate:
    """Least-squares slope of log sideband amplitude over a fitted window.

    The fit window shrinks from the late end while the log-linear residual
    exceeds `residual_tol` (nonlinear saturation); fewer than 5 surviving
    samples is an error.
    """
    amps = mode_amplitudes(traj, ell, carrier_k)
    t = traj.times
    mask = (t >= t_min) & (amps > 1e-14)
    t, la = t[mask], np.log(amps[mask])
    while True:
        if len(t) < 5:
            raise ConvergenceError(
                "growth-rate fit failed: saturation before a linear window "
                f"of 5 samples (residual tolerance {residual_tol})"
            )
        slope, intercept = np.polyfit(t, la, 1)
        resid = np.max(np.abs(la - (slope * t + intercept)))
        if resid <= residual_tol:
            return GrowthRate(float(slope), (float(t[0]), float(t[-1])), float(resid))
        cut = max(1, len(t) // 4)
        t, la = t[:-cut], la[:-cut]


# ---------------------------------------------------------------------------
# Coherent-profile cross-validation
# ---------------------------------------------------------------------------


@dataclass
class ProfileVerification:
    times: np.ndarray
    defect: np.ndarray  # interior sup-norm defect per snapshot
    max_defect: float
    drift_rate: float
    onset_time: float | None  # first time defect exceeded the threshold


def verify_coherent_profile(
    profile,
    params: ModelParams,
    window: float,
    dt: float | None = None,
) -> ProfileVerification:
    """Embed a profile as initial data and track the comoving defect.

    The defect is ||m_sim(x, t) - R(Omega t) m_profile(x - s t)||_inf over
    the middle DEFECT_INTERIOR of a periodic grid twice the profile's span,
    integrated by RK4 (at the explicit bound unless dt is given).  Unstable
    endpoints show up as a recorded onset time, not a failure.
    """
    ansatz = profile.ansatz
    xi, theta, phi = profile.xi, profile.theta, profile.phi()
    q0, q1 = profile.q[0], profile.q[-1]

    def field(x, t):
        """R(Omega t) m_profile(x - s t); past the profile's ends phi goes on linearly."""
        xs = x - ansatz.s * t
        phase = (np.interp(xs, xi, phi) + q0 * np.minimum(xs - xi[0], 0.0)
                 + q1 * np.maximum(xs - xi[-1], 0.0))
        return _unit_vectors(np.interp(xs, xi, theta), phase + ansatz.Omega * t)

    length = 2.0 * max(xi[-1] - xi[0], 1.0)
    grid = Grid1D(length, 1 << max(8, int(math.ceil(math.log2(length / 0.05)))))
    x0 = xi[0] - 0.25 * grid.length + 0.25 * (xi[-1] - xi[0])
    x = grid.x + x0
    initial = MagnetizationField(grid, field(x, 0.0))

    if dt is None:
        dt = cfl_limit(grid, params)
    config = SimConfig(dt=dt, t_final=window, integrator="rk4",
                       store_every=max(1, int(round(window / dt / 40))))
    traj = simulate(initial, params, config).trajectory

    interior = slice(int(grid.n * (0.5 - DEFECT_INTERIOR / 2)),
                     int(grid.n * (0.5 + DEFECT_INTERIOR / 2)))
    t = traj.times
    ref = field(x[interior], t[:, None])
    defects = np.max(np.abs(traj.values[:, interior] - ref), axis=(1, 2))
    above = np.flatnonzero(defects > DEFECT_THRESHOLD)
    onset = float(t[above[0]]) if above.size else None
    drift = float(np.polyfit(t, defects, 1)[0]) if len(t) > 1 else 0.0
    return ProfileVerification(t, defects, float(defects.max()), drift, onset)
