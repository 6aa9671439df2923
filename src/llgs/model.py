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

Its one kernel, `_LLKernel`, evaluates dt times this on component-first
(3, n) arrays, one row per component: a stepper keeps its state in that
layout, builds the kernel once and feeds it the neighbours' sum
m[i+1] + m[i-1]; only `_ll_rhs` feeds it Lap m.  It folds -dt/(1 + alpha^2),
f and the stencil's weights into one (3, 7) matrix.  Both cross products use
(5, n) buffers with rows m1 m2 m3 m1 m2, so each is two products and one
difference over (3, n).  The grid is periodic; `second_derivative` is the
3-point stencil along axis 0, and `_laplacian_symbol` gives its
eigenvalues.  The norms behind the projection and the norm drift, `_norms`,
square the (3, n) field in one call and add its rows in np.linalg.norm's
order.  The (n, 3) entry points (`_ll_rhs`, `_project`,
`MagnetizationField.norm_drift`) call the same code on transposed views; the
module keeps no kernel or buffer between calls.  This layout generalises to
(3, B, n) batches.

A kernel's buffers, and any arrays its caller asks for with them (a
stepper's stage buffers, `simulate`'s state and projection scratch), are
views of one block from `_staggered`, each on its own cache line and at its
own page offset.  Allocated one by one, (r, n) float arrays whose size is a
multiple of 4 KiB start at page offsets that the heap's history sets, and
two that start a 16-byte malloc header or two apart modulo 4096 4K-alias
in every ufunc over them: a load that matches an earlier store in its low
12 address bits waits for it, and a (3, 1024) multiply takes 1.7 times as
long.

The code a time step runs passes each ufunc its output positionally or uses
the in-place operator (`a += b` is `np.add(a, b, out=a)`), and copies with
`a[...] = b`: at n = 64 (numpy 2.4) a ufunc call costs about 0.7-0.9 us with
`out=` and 0.2 us less without it, an in-place operator about 0.4 us, and a
copy 0.8 us through `np.copyto` against 0.3 us by assignment.  The operations
are the same either way.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
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
        if not all(map(math.isfinite, (self.alpha, self.beta, self.mu, self.h))):
            raise ConfigError(f"model parameters must be finite, got {self}")

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
    """Uniform periodic 1D grid of length `length` with `n` points.

    The duplicate endpoint x = L is omitted, so dx = L/n.
    """

    length: float
    n: int

    def __post_init__(self):
        try:
            operator.index(self.n)
        except TypeError:
            raise ConfigError(f"grid size must be an integer, got {self.n!r}") from None
        if self.n < 3:
            raise ConfigError("grid needs at least 3 points for a Laplacian stencil")
        if not 0 < self.length < np.inf:
            raise ConfigError(f"grid length must be positive and finite, got {self.length}")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return self.dx * np.arange(self.n)

    def wavenumbers(self) -> np.ndarray:
        """Fourier wavenumbers of the grid (fftfreq convention)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)


def _spectral(method: str) -> bool:
    """Whether a derivative method is "spectral"; "fd" is the other one."""
    if method not in ("fd", "spectral"):
        raise ConfigError(f"unknown derivative method {method!r}; use 'fd' or 'spectral'")
    return method == "spectral"


def _fourier(values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """The Fourier multiplier `symbol` (one entry per wavenumber) applied along axis 0."""
    if values.ndim > 1:
        symbol = symbol[:, None]
    return np.real(np.fft.ifft(symbol * np.fft.fft(values, axis=0), axis=0))


def first_derivative(values: np.ndarray, grid: Grid1D, method: str = "fd") -> np.ndarray:
    """d/dx along axis 0 of the periodic grid, central differences or spectral."""
    if _spectral(method):
        return _fourier(values, 1j * grid.wavenumbers())
    out = np.empty_like(values)
    # v[i+1] - v[i-1], wrapping around; bit-equal to the np.roll stencil
    np.subtract(values[2:], values[:-2], out=out[1:-1])
    np.subtract(values[1:2], values[-1:], out=out[:1])
    np.subtract(values[:1], values[-2:-1], out=out[-1:])
    out /= 2 * grid.dx
    return out


def second_derivative(values: np.ndarray, grid: Grid1D, method: str = "fd") -> np.ndarray:
    """d^2/dx^2 along axis 0 of the periodic grid, 3-point stencil or spectral."""
    if _spectral(method):
        return _fourier(values, -grid.wavenumbers() ** 2)
    twice, out = 2 * values, np.empty_like(values)
    # (v[i+1] - 2 v[i]) + v[i-1], wrapping around, then / dx^2; bit-equal to the np.roll stencil
    np.subtract(values[1:], twice[:-1], out=out[:-1])
    np.subtract(values[:1], twice[-1:], out=out[-1:])
    out[1:] += values[:-1]
    out[:1] += values[-1:]
    out /= grid.dx ** 2
    return out


def _laplacian_symbol(grid: Grid1D) -> np.ndarray:
    """The 3-point Laplacian's eigenvalues, -(2 - 2 cos(2 pi j/n))/dx^2, in FFT order."""
    n = grid.n
    return -(2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)) / grid.dx ** 2


UNIT_NORM_TOL = 1e-12


def _norms(m: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """Euclidean norm of each column of a component-first (3, n) array.

    Sums the squares in np.linalg.norm's order, (m1^2 + m2^2) + m3^2, so it
    equals np.linalg.norm(m, axis=0) bit for bit at about half the cost.  out
    is (n,) and tmp (3, n) scratch, allocated when not given; tmp receives the
    squares and out the norms.
    """
    sq = np.multiply(m, m, tmp)
    out = np.add(sq[0], sq[1], out)
    out += sq[2]
    return np.sqrt(out, out)


def _norm_drift(m: np.ndarray, norm=None, tmp=None) -> float:
    """max |norm - 1| over the columns of a (3, n) array; norm and tmp are `_norms`' scratch."""
    drift = _norms(m, norm, tmp)
    drift -= 1.0
    return float(np.abs(drift, drift).max())


def _normalize(m: np.ndarray, out: np.ndarray, norm=None, tmp=None) -> np.ndarray:
    """Each column of a (3, n) array divided by its norm, into out (m itself is allowed).

    The projection to the sphere; norm and tmp are `_norms`' scratch.  Each
    row of tmp, spent once the norms are summed, then takes a copy of them,
    so the divide broadcasts nothing: numpy 2.4 allocates an iterator buffer
    for a (3, n) by (n,) divide on every call (25.7 KB at n = 1024), which
    lands wherever malloc puts it, and at n = 64 that divide takes about
    three times as long as the copy and the plain divide together.
    """
    if tmp is None:
        tmp = np.empty(m.shape)
    tmp[...] = _norms(m, norm, tmp)
    return np.divide(m, tmp, out)


def _project(m: np.ndarray) -> np.ndarray:
    """Each row of a (n, 3) array divided by its norm: the projection to the sphere."""
    out = np.empty_like(m)
    _normalize(m.T, out.T)
    return out


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
        return _norm_drift(self.values.T)

    def check_unit_norm(self, tol: float = UNIT_NORM_TOL):
        drift = self.norm_drift()
        if drift > tol:
            raise ConfigError(f"field is not unit-norm: max drift {drift:.3e}")


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
    previous grid point; before the first point off the poles it is 0.
    """
    m = fld.values
    theta = np.arccos(np.clip(m[:, 2], -1.0, 1.0))
    pole = np.hypot(m[:, 0], m[:, 1]) < POLE_TOL
    # a pole repeats the raw azimuth of the last point off the poles before it, so the
    # unwrap takes the step across the pole between two points where phi is defined
    last = np.maximum.accumulate(np.where(pole, -1, np.arange(len(m))))
    phi_raw = np.arctan2(m[:, 1], m[:, 0])
    phi = np.unwrap(np.where(last < 0, 0.0, phi_raw[last]))
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


_PAGE, _LINE = 4096, 64


def _staggered(*shapes) -> list[np.ndarray]:
    """C-contiguous float arrays of the given shapes, views of one np.empty block.

    Array j starts at the first byte past array j - 1 whose page offset
    (address mod 4096) is j * spread, spread = 4096 / len(shapes) rounded
    down to a cache line: every array starts on a line, at least spread bytes
    from every other's page offset, and no gap reaches a page.  The module
    docstring says why; up to 64 arrays keep the spread at least a line.
    """
    spread = _PAGE // len(shapes) // _LINE * _LINE // 8  # in floats, as are the bounds
    bounds, end = [], 0
    for j, shape in enumerate(shapes):
        start = end + (j * spread - end) % (_PAGE // 8)
        end = start + math.prod(shape)
        bounds.append((start, end, shape))
    block = np.empty(end + _LINE // 8)
    block = block[-block.ctypes.data % _LINE // 8:]  # from its first cache line
    return [block[start:end].reshape(shape) for start, end, shape in bounds]


class _Extended:
    """A (5, n) buffer whose rows x1 x2 x3 x1 x2 extend a (3, n) field cyclically.

    Write the field into `rows`, then call `extend`.  The views are taken
    once: at small n a slice costs a sixth of a ufunc call.
    """

    def __init__(self, buf: np.ndarray):
        self.rows = buf[:3]
        self._tail, self._head = buf[3:], buf[:2]
        self.shift1 = buf[1:4]  # rows x2 x3 x1
        self.shift2 = buf[2:5]  # rows x3 x1 x2

    def extend(self):
        self._tail[...] = self._head


def _cross(a: _Extended, b: _Extended, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """a x b of two extended fields, written to the (3, n) out.

    a.shift1 * b.shift2 - a.shift2 * b.shift1 is row by row np.cross's
    a2 b3 - a3 b2, a3 b1 - a1 b3, a1 b2 - a2 b1.  tmp is (3, n) scratch.
    """
    np.multiply(a.shift1, b.shift2, out)
    np.multiply(a.shift2, b.shift1, tmp)
    out -= tmp
    return out


class _LLKernel:
    """dt times the Landau-Lifshitz right-hand side on (3, n) arrays, with its scratch.

    With s = -dt/(1 + alpha^2), g' = s g and c' = m x g', the right-hand
    side is dt * dm/dt = c' + alpha m x c': the scale goes into g, so no pass
    negates, scales or divides the result.  g' is one matrix product: a
    (3, 7) matrix from `operator` times the rows lap, 1, m1, m2, m3 of one
    buffer, which applies f(m) = (beta m2, -beta m1, mu m3 - h), the
    Laplacian's scale and, when lap holds the neighbour sum m[i+1] + m[i-1],
    the stencil's diagonal -2 m/dx^2.  The diagonal could be dropped, as
    m x (2 m) is 0, but in the matrix it costs nothing and keeps the rounding
    of the full stencil (dropping it moved the sideband run about six times
    further from an 80-bit run of the same scheme).

    Allocate one per grid size and parameter set and reuse it: a caller
    writes the field into `m.rows` and its Laplacian term into `lap` (or
    calls `neighbour_sum`) before each `rhs` call.  Its three buffers and
    float arrays of the caller's `shapes`, listed in `extra`, come from one
    `_staggered` block, so no two of them start at nearby page offsets.
    """

    def __init__(self, n: int, params: ModelParams, *shapes):
        buf, g, c, *self.extra = _staggered((9, n), (5, n), (5, n), *shapes)
        buf[3] = 1.0  # rows lap1 lap2 lap3 1 m1 m2 m3 m1 m2
        self.lap, self.m, self._operand = buf[:3], _Extended(buf[4:]), buf[:7]
        self._g, self._c = _Extended(g), _Extended(c)
        self._params, self._alpha = params, np.array(float(params.alpha))

    @functools.cached_property
    def _stencil(self):
        """`neighbour_sum`'s three adds as (x, y, out) views, built on its first call:
        `_ll_rhs` builds a kernel for each call and never takes the sum."""
        m, lap = self.m.rows, self.lap
        flat_m, flat_lap = m.reshape(-1), lap.reshape(-1)  # views: both are C-contiguous
        # m[i+1] + m[i-1] along the flat memory; the first and last columns, which the
        # shift takes from the neighbouring rows, are redone
        return ((flat_m[2:], flat_m[:-2], flat_lap[1:-1]),
                (m[:, 1], m[:, -1], lap[:, 0]), (m[:, 0], m[:, -2], lap[:, -1]))

    def operator(self, dt: float, dx2: float | None = None) -> np.ndarray:
        """The (3, 7) matrix from the rows lap, 1, m to g' = s (Lap m - f(m)), s = -dt/(1+alpha^2).

        With dx2, as each stepper takes it, lap holds m[i+1] + m[i-1] and the
        matrix applies the stencil's diagonal -2 m/dx^2 at no extra pass.
        Without it lap holds Lap m, as `_ll_rhs` alone writes it.
        """
        p = self._params
        s = -dt / (1.0 + p.alpha ** 2)
        op = np.zeros((3, 7))
        op[0, 5], op[1, 4] = -s * p.beta, s * p.beta
        op[2, 3], op[2, 6] = s * p.h, -s * p.mu
        flat = op.reshape(-1)  # flat[::8] and flat[4::8] are op[i, i] and op[i, 4 + i]
        flat[::8] = s if dx2 is None else s / dx2
        if dx2 is not None:
            flat[4::8] += -2.0 * flat[0]
        return op

    def neighbour_sum(self):
        """lap = m[i+1] + m[i-1] of the field in m.rows, wrapping around."""
        for args in self._stencil:
            np.add(*args)

    def rhs(self, op: np.ndarray, out: np.ndarray) -> np.ndarray:
        """dt * dm/dt of the field in m.rows and lap, for op = `operator(dt, ...)`, into (3, n) out.

        out may be a strided view; it must not overlap the kernel's buffers.
        """
        m, g, c = self.m, self._g, self._c
        m.extend()
        np.dot(op, self._operand, g.rows)  # np.matmul's gufunc call would allocate about 0.5 KB
        g.extend()
        _cross(m, g, c.rows, out)
        c.extend()
        _cross(m, c, out, g.rows)  # g is spent
        out *= self._alpha
        out += c.rows
        return out


def _ll_rhs(m: np.ndarray, lap: np.ndarray, params: ModelParams) -> np.ndarray:
    """dm/dt of a (n, 3) array m with Laplacian lap: the kernel at dt = 1 on transposed views."""
    kernel = _LLKernel(len(m), params)
    kernel.m.rows[...] = m.T
    kernel.lap[...] = lap.T
    out = np.empty_like(m)
    kernel.rhs(kernel.operator(1.0), out.T)
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
    """Sum times dx: the trapezoid rule on the periodic grid."""
    return float(np.sum(values) * grid.dx)


def energy(fld: MagnetizationField, params: ModelParams, method: str = "fd") -> float:
    """E = 1/2 int (|m_x|^2 + mu*m3^2) dx - int h*m3 dx."""
    sq = first_derivative(fld.values, fld.grid, method)
    np.multiply(sq, sq, out=sq)
    grad_sq = sq[:, 0] + sq[:, 1]  # |m_x|^2 in np.sum's order, without its reduction set-up
    grad_sq += sq[:, 2]
    m3 = fld.values[:, 2]
    density = 0.5 * (grad_sq + params.mu * m3 ** 2) - params.h * m3
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
