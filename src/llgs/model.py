"""Core model: parameters, grids, fields and the LLGS right-hand side.

The equation treated throughout is the axially symmetric
Landau-Lifshitz-Gilbert-Slonczewski equation in one space dimension for a
unit vector field m(x, t),

    dm/dt = m x [ alpha dm/dt - m_xx + (mu*m3 - h) e3 + beta m x e3 ],

with Gilbert damping alpha > 0, anisotropy mu, applied field h*e3 and
current intensity beta.  The equivalent Landau-Lifshitz form used for time
stepping is

    (1 + alpha^2) dm/dt = -m x g - alpha m x (m x g),   g = m_xx - f(m),
    f(m) = (mu*m3 - h) e3 + beta m x e3.

Its one kernel, `_ll_rhs`, evaluates this component by component, without
np.cross.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SouthPoleError

E3 = np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters (alpha, beta, mu, h) of the LLGS equation."""

    alpha: float
    beta: float = 0.0
    mu: float = 0.0
    h: float = 0.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ConfigError(f"Gilbert damping must be positive, got alpha={self.alpha}")

    @property
    def force_balance(self) -> float:
        """b = h - beta/alpha, the field/current balance organizing the regimes."""
        return self.h - self.beta / self.alpha

    @property
    def precession_frequency(self) -> float:
        """beta/alpha, the rotation frequency of all precessional states."""
        return self.beta / self.alpha


class AnisotropyRegime(enum.Enum):
    SUPERCRITICAL = "supercritical"
    SUBCRITICAL = "subcritical"
    SUBSUBCRITICAL = "subsubcritical"
    DEGENERATE_BOUNDARY = "degenerate-boundary"


def classify_anisotropy(params: ModelParams) -> AnisotropyRegime:
    """Classify the anisotropy regime from mu versus |h - beta/alpha|.

    Supercritical: mu > |b|; subcritical: 0 < |mu| < |b|;
    subsubcritical: -mu > |b|.  Equality cases and mu = 0 with |b| > 0 are
    degenerate boundaries.
    """
    b = abs(params.force_balance)
    mu = params.mu
    if mu > b:
        return AnisotropyRegime.SUPERCRITICAL
    if -mu > b:
        return AnisotropyRegime.SUBSUBCRITICAL
    if 0 < abs(mu) < b:
        return AnisotropyRegime.SUBCRITICAL
    return AnisotropyRegime.DEGENERATE_BOUNDARY


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid of length `length` with `n` points.

    Periodic grids omit the duplicate endpoint, so dx = L/n; non-periodic
    grids span [0, L] inclusively with dx = L/(n-1).
    """

    length: float
    n: int
    periodic: bool = True

    def __post_init__(self):
        if self.n < 3:
            raise ConfigError("grid needs at least 3 points for a Laplacian stencil")
        if not 0 < self.length < np.inf:
            raise ConfigError(f"grid length must be positive and finite, got {self.length}")

    @property
    def dx(self) -> float:
        return self.length / self.n if self.periodic else self.length / (self.n - 1)

    @property
    def x(self) -> np.ndarray:
        if self.periodic:
            return self.dx * np.arange(self.n)
        return np.linspace(0.0, self.length, self.n)

    def wavenumbers(self) -> np.ndarray:
        """Fourier wavenumbers of the periodic grid (fftfreq convention)."""
        if not self.periodic:
            raise ConfigError("Fourier wavenumbers require a periodic grid")
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)


def first_derivative(values: np.ndarray, grid: Grid1D, method: str = "fd") -> np.ndarray:
    """d/dx along axis 0, central differences or spectral (periodic only)."""
    if method == "spectral":
        iq = 1j * grid.wavenumbers()
        if values.ndim > 1:
            iq = iq[:, None]
        return np.real(np.fft.ifft(iq * np.fft.fft(values, axis=0), axis=0))
    dx = grid.dx
    out = np.empty_like(values)
    if grid.periodic:
        # v[i+1] - v[i-1], wrapping around; bit-equal to the np.roll stencil
        np.subtract(values[2:], values[:-2], out=out[1:-1])
        np.subtract(values[1:2], values[-1:], out=out[:1])
        np.subtract(values[:1], values[-2:-1], out=out[-1:])
        out /= 2 * dx
    else:
        out[1:-1] = (values[2:] - values[:-2]) / (2 * dx)
        out[0] = (values[1] - values[0]) / dx
        out[-1] = (values[-1] - values[-2]) / dx
    return out


def second_derivative(values: np.ndarray, grid: Grid1D, method: str = "fd") -> np.ndarray:
    """d^2/dx^2 along axis 0, 3-point stencil or spectral (periodic only)."""
    if method == "spectral":
        q2 = grid.wavenumbers() ** 2
        if values.ndim > 1:
            q2 = q2[:, None]
        return np.real(np.fft.ifft(-q2 * np.fft.fft(values, axis=0), axis=0))
    dx2 = grid.dx ** 2
    out = np.empty_like(values)
    if grid.periodic:
        # (v[i+1] - 2 v[i]) + v[i-1], wrapping around, summed in this order so
        # that it is bit-equal to the np.roll stencil
        out[:-1] = values[1:]
        out[-1:] = values[:1]
        out -= 2 * values
        out[1:] += values[:-1]
        out[:1] += values[-1:]
        out /= dx2
        return out
    out[1:-1] = (values[2:] - 2 * values[1:-1] + values[:-2]) / dx2
    # one-sided copies of the adjacent interior stencil
    out[0] = (values[0] - 2 * values[1] + values[2]) / dx2
    out[-1] = (values[-1] - 2 * values[-2] + values[-3]) / dx2
    return out


UNIT_NORM_TOL = 1e-12


def _row_norm(m: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (n, 3) array.

    Sums the squares in np.linalg.norm's order, so it equals
    np.linalg.norm(m, axis=1) bit for bit at about half the cost.
    """
    m1, m2, m3 = m[:, 0], m[:, 1], m[:, 2]
    return np.sqrt(m1 * m1 + m2 * m2 + m3 * m3)


def _project(m: np.ndarray) -> np.ndarray:
    """Each row of a (n, 3) array divided by its norm: the projection to the sphere."""
    return m / _row_norm(m)[:, None]


@dataclass
class MagnetizationField:
    """Discretized sphere-valued field m(x) with a time stamp.

    values has shape (n, 3); every row is a unit vector.
    """

    grid: Grid1D
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n, 3):
            raise ConfigError(
                f"values shape {self.values.shape} does not match grid ({self.grid.n}, 3)"
            )

    def norm_drift(self) -> float:
        return float(np.max(np.abs(_row_norm(self.values) - 1.0)))

    def check_unit_norm(self, tol: float = UNIT_NORM_TOL):
        drift = self.norm_drift()
        if drift > tol:
            raise ConfigError(f"field is not unit-norm: max drift {drift:.3e}")

    def renormalized(self) -> "MagnetizationField":
        return MagnetizationField(self.grid, _project(self.values), self.time)


@dataclass
class SphericalField:
    """Polar angle theta and (unwrapped) azimuth phi on a grid."""

    grid: Grid1D
    theta: np.ndarray
    phi: np.ndarray
    time: float = 0.0


POLE_TOL = 1e-13


def to_spherical(fld: MagnetizationField) -> SphericalField:
    """Convert to spherical angles; phi is unwrapped along the grid.

    At the poles (sin(theta) ~ 0) phi is undefined and continued from the
    previous grid point.
    """
    m = fld.values
    theta = np.arccos(np.clip(m[:, 2], -1.0, 1.0))
    r = np.hypot(m[:, 0], m[:, 1])
    phi_raw = np.arctan2(m[:, 1], m[:, 0])
    degenerate = r < POLE_TOL
    phi = np.unwrap(np.where(degenerate, 0.0, phi_raw))
    # continuation through the poles
    for i in np.flatnonzero(degenerate):
        phi[i] = phi[i - 1] if i > 0 else 0.0
    return SphericalField(fld.grid, theta, phi, fld.time)


def _unit_vectors(theta, phi) -> np.ndarray:
    """(..., 3) unit vectors at polar angles theta and azimuths phi of shape (...)."""
    st, ct = np.sin(theta), np.cos(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)


def from_spherical(sph: SphericalField) -> MagnetizationField:
    return MagnetizationField(sph.grid, _unit_vectors(sph.theta, sph.phi), sph.time)


def local_wavenumber(sph: SphericalField) -> np.ndarray:
    """q(x) = d phi/dx; the unwrapped azimuth is not periodic, so both ends are one-sided."""
    return np.gradient(sph.phi, sph.grid.dx)


def _ll_rhs(m: np.ndarray, lap: np.ndarray, params: ModelParams) -> np.ndarray:
    """Landau-Lifshitz dm/dt of a (n, 3) array m with Laplacian lap.

    The one evaluation of the right-hand side: the time steppers call it
    directly, so a stepper that also needs lap computes it once.  It works
    component by component, with g = lap - f(m) written out and both cross
    products in np.cross's operation order, so it equals the np.cross
    formula bit for bit.
    """
    beta = params.beta
    m1, m2, m3 = m[:, 0], m[:, 1], m[:, 2]
    g1 = lap[:, 0] - beta * m2
    g2 = lap[:, 1] + beta * m1
    g3 = lap[:, 2] - (params.mu * m3 - params.h)
    c1 = m2 * g3 - m3 * g2  # c = m x g
    c2 = m3 * g1 - m1 * g3
    c3 = m1 * g2 - m2 * g1
    alpha = params.alpha
    scale = 1.0 + alpha ** 2
    out = np.empty_like(m)
    out[:, 0] = (-c1 - alpha * (m2 * c3 - m3 * c2)) / scale  # m x c
    out[:, 1] = (-c2 - alpha * (m3 * c1 - m1 * c3)) / scale
    out[:, 2] = (-c3 - alpha * (m1 * c2 - m2 * c1)) / scale
    return out


def rhs_landau_lifshitz(
    fld: MagnetizationField, params: ModelParams, method: str = "fd"
) -> np.ndarray:
    """dm/dt in Landau-Lifshitz form; tangent to the sphere pointwise."""
    fld.check_unit_norm(1e-9)
    return _ll_rhs(fld.values, second_derivative(fld.values, fld.grid, method), params)


def gilbert_residual(
    fld: MagnetizationField,
    mdot: np.ndarray,
    params: ModelParams,
    method: str = "fd",
) -> np.ndarray:
    """Residual of the Gilbert form, evaluated with a given dm/dt.

    alpha*mdot + m x mdot - [ m_xx + (h - mu*m3) e3
        + (|m_x|^2 + mu*m3^2 - h*m3) m - beta m x e3 ].
    Vanishes when mdot is the LLGS right-hand side.
    """
    m = fld.values
    m3 = m[:, 2]
    mx = first_derivative(m, fld.grid, method)
    mxx = second_derivative(m, fld.grid, method)
    grad_sq = np.sum(mx ** 2, axis=1)
    rhs = mxx.copy()
    rhs[:, 2] += params.h - params.mu * m3
    rhs += (grad_sq + params.mu * m3 ** 2 - params.h * m3)[:, None] * m
    rhs -= params.beta * np.cross(m, E3)
    return params.alpha * mdot + np.cross(m, mdot) - rhs


def _integrate(values: np.ndarray, grid: Grid1D) -> float:
    if grid.periodic:
        return float(np.sum(values) * grid.dx)
    # trapezoid rule; np.trapz is gone from numpy 2 and scipy.integrate is slow to import
    return float((np.sum(values) - 0.5 * (values[0] + values[-1])) * grid.dx)


def energy(fld: MagnetizationField, params: ModelParams, method: str = "fd") -> float:
    """E = 1/2 int (|m_x|^2 + mu*m3^2) dx - int h*m3 dx."""
    mx = first_derivative(fld.values, fld.grid, method)
    m3 = fld.values[:, 2]
    density = 0.5 * (np.sum(mx ** 2, axis=1) + params.mu * m3 ** 2) - params.h * m3
    return _integrate(density, fld.grid)


def dissipation_rate(
    fld: MagnetizationField, field_dt: np.ndarray, params: ModelParams
) -> float:
    """-alpha * int |dm/dt|^2 dx, the energy decay rate (variational case).

    Only meaningful for beta = 0; the Slonczewski term is non-variational.
    """
    if params.beta != 0.0:
        raise ConfigError("energy decay identity requires beta = 0")
    return -params.alpha * _integrate(np.sum(field_dt ** 2, axis=1), fld.grid)


def stereographic(fld: MagnetizationField) -> np.ndarray:
    """zeta = (m1 + i m2)/(1 + m3); errors out at the south pole."""
    m = fld.values
    bad = np.flatnonzero(m[:, 2] <= -1.0 + 1e-12)
    if bad.size:
        raise SouthPoleError(int(bad[0]))
    return (m[:, 0] + 1j * m[:, 1]) / (1.0 + m[:, 2])


def rotate_about_e3(values: np.ndarray, angle: float) -> np.ndarray:
    """Rotate a (n, 3) field about the e3 axis by `angle`."""
    c, s = np.cos(angle), np.sin(angle)
    out = values.copy()
    out[:, 0] = c * values[:, 0] - s * values[:, 1]
    out[:, 1] = s * values[:, 0] + c * values[:, 1]
    return out
