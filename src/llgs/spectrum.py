"""Essential spectrum of wavetrains: dispersion relation and sideband boundary.

The linearization about a wavetrain in the comoving frame (time rescaled by
1 + alpha^2) has constant coefficients; an exponential ansatz exp(nu*y)
reduces the eigenvalue problem to the 2x2 matrix A(nu, c_ph).  The L2
spectrum consists of the roots lambda of det(A(i*ell, c_ph) - lambda) = 0
over real Fourier wavenumbers ell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ZeroAmplitudeError
from .model import AnisotropyRegime, ModelParams, classify_anisotropy
from .wavetrains import Wavetrain


def _require_amplitude(base: Wavetrain):
    if base.r <= 0.0:
        raise ZeroAmplitudeError(
            "linearization needs r > 0; use e3_eigenvalues for the constant states"
        )


def linearization(base: Wavetrain, params: ModelParams, nu: complex, c_ph: float = 0.0) -> np.ndarray:
    """The 2x2 matrix A(nu, c_ph) of the comoving-frame linearization."""
    _require_amplitude(base)
    a = params.alpha
    k, m3, r = base.k, base.m3, base.r
    w = nu * (-nu + 2 * a * k * m3)
    diag = a * nu * nu + (c_ph + 2 * k * m3) * nu
    return np.array(
        [
            [diag, -w / r ** 2 + k * k - params.mu],
            [r ** 2 * w, diag + a * r ** 2 * (k * k - params.mu)],
        ],
        dtype=complex,
    )


def trace_closed_form(base: Wavetrain, params: ModelParams, nu: complex) -> complex:
    """tr A(nu, 0) = 2 nu (alpha nu + 2 k m3) + alpha r^2 (k^2 - mu)."""
    a = params.alpha
    return 2 * nu * (a * nu + 2 * base.k * base.m3) + a * base.r ** 2 * (
        base.k ** 2 - params.mu
    )


def det_closed_form(base: Wavetrain, params: ModelParams, nu: complex) -> complex:
    """det A(nu, 0) = (1+alpha^2) nu^2 (nu^2 + 4 k^2 m3^2 + r^2 (k^2 - mu))."""
    a = params.alpha
    return (
        (1 + a * a)
        * nu ** 2
        * (nu ** 2 + 4 * base.k ** 2 * base.m3 ** 2 + base.r ** 2 * (base.k ** 2 - params.mu))
    )


def dispersion(
    base: Wavetrain,
    params: ModelParams,
    lam: complex,
    nu: complex,
    c_ph: float = 0.0,
) -> complex:
    """d_{c_ph}(lambda, nu) = det(A(nu, c_ph) - lambda*I).

    Satisfies the shift identity d_{c_ph}(lambda, nu) = d_0(lambda - c_ph*nu, nu).
    """
    A = linearization(base, params, nu, c_ph)
    return (A[0, 0] - lam) * (A[1, 1] - lam) - A[0, 1] * A[1, 0]


def _roots_at(base, params, nu):
    """(half, disc): the eigenvalues of A(nu, 0) are half +- disc, nu an array or scalar."""
    half = trace_closed_form(base, params, nu) / 2
    return half, np.sqrt(half * half - det_closed_form(base, params, nu) + 0j)


@dataclass
class SpectrumBranch:
    """One continuously ordered branch ell -> lambda(i ell)."""

    ell: np.ndarray
    lam: np.ndarray
    branch_id: int

    def residuals(self, base: Wavetrain, params: ModelParams, c_ph: float = 0.0) -> np.ndarray:
        """|d_{c_ph}(lambda, i ell)| at each sample, from the matrix form A(i ell, c_ph)."""
        return np.abs(dispersion(base, params, self.lam, 1j * self.ell, c_ph))

    def max_residual(self, base: Wavetrain, params: ModelParams, c_ph: float = 0.0) -> float:
        return float(np.max(self.residuals(base, params, c_ph)))


def spectrum_curves(base: Wavetrain, params: ModelParams, ell_max: float, n_samples: int,
                    c_ph: float = 0.0) -> tuple[SpectrumBranch, SpectrumBranch]:
    """Sample both spectrum branches over ell in [0, ell_max], all samples at once.

    Branch 1 passes through the origin (translation mode): at ell = 0 the
    branches are seeded with the eigenvalues {0, alpha r^2 (k^2 - mu)} of
    A(0, 0).  Labels follow the root disc of the c_ph = 0 discriminant, turned
    back where it jumps across its branch cut (Re(disc_i conj(disc_i-1)) < 0);
    on a fine grid this is nearest-neighbour continuation.  The comoving frame
    then adds c_ph * i ell to both, so real parts and labels do not depend on c_ph.
    """
    _require_amplitude(base)
    if n_samples < 2:
        raise ConfigError("need at least 2 samples")
    if not (math.isfinite(ell_max) and math.isfinite(c_ph)):
        raise ConfigError(f"ell_max = {ell_max} and c_ph = {c_ph} must be finite")
    ells = np.linspace(0.0, ell_max, n_samples)
    half, disc = _roots_at(base, params, 1j * ells)
    disc[0] = -half[0]
    turn = (disc[1:] * disc[:-1].conj()).real < 0
    disc[1:] *= np.cumprod(np.where(turn, -1.0, 1.0))
    lam1, lam2 = half + disc, half - disc
    lam1.imag += c_ph * ells
    lam2.imag += c_ph * ells
    return (
        SpectrumBranch(ells, lam1, branch_id=1),
        SpectrumBranch(ells, lam2, branch_id=2),
    )


def physical_growth_rate(lam: complex, params: ModelParams) -> float:
    """Convert a dispersion-relation eigenvalue to a physical-time rate.

    The comoving-frame linearization is posed in the rescaled time
    t/(1 + alpha^2); PDE perturbations grow like exp(Re lam/(1+alpha^2) t).
    """
    return lam.real / (1.0 + params.alpha ** 2)


def sideband_polynomial(params: ModelParams, K: float) -> float:
    """f(K) = (3K + mu) (beta/alpha - h)^2 + (K - mu)^3, K = k^2.

    Sign changes of f mark sideband instabilities.
    """
    b2 = params.force_balance ** 2
    return (3 * K + params.mu) * b2 + (K - params.mu) ** 3


def sideband_polynomial_expanded(params: ModelParams, K: float) -> float:
    """K^3 - 3 mu K^2 + 3 (mu^2 + b^2) K + mu (b^2 - mu^2), same polynomial."""
    mu = params.mu
    b2 = params.force_balance ** 2
    return K ** 3 - 3 * mu * K ** 2 + 3 * (mu * mu + b2) * K + mu * (b2 - mu * mu)


def _sideband_prime(params: ModelParams, K: float) -> float:
    return 3 * params.force_balance ** 2 + 3 * (K - params.mu) ** 2


def curvature_factor(params: ModelParams, k: float) -> float:
    """D = (3k^2 + mu) (beta/alpha - h)^2/(k^2 - mu)^2 + k^2 - mu = f(k^2)/(k^2 - mu)^2.

    The curvature of the spectrum branch through the origin is
    (1 + alpha^2) * D / (alpha r^2 (mu - k^2)); D has the sign of f.
    """
    K = k * k
    return sideband_polynomial(params, K) / (K - params.mu) ** 2


@dataclass
class SidebandReport:
    k_star: float | None
    K_star: float | None
    stable_band: bool
    note: str = ""


def sideband_wavenumber(params: ModelParams) -> SidebandReport:
    """Critical wavenumber k_star of the sideband instability.

    Requires the supercritical regime; K_star is the unique root of f in
    (0, mu).  In x = K - mu, f = x^3 + 3 b^2 x + 4 mu b^2 has one real root,
    x = w - b^2/w with w = -cbrt(2 mu b^2 + sqrt(4 mu^2 b^4 + b^6)) (Cardano,
    free of cancellation), polished by one Newton step.  Outside the
    supercritical regime all wavetrains are unstable and no stable band exists.
    """
    if classify_anisotropy(params) is not AnisotropyRegime.SUPERCRITICAL:  # mu > |b| >= 0
        return SidebandReport(None, None, False, "no stable band outside supercritical regime")
    mu = params.mu
    b2 = params.force_balance ** 2
    if b2 == 0.0:
        # f(K) = (K - mu)^3: the whole band k^2 < mu is sideband-stable
        return SidebandReport(math.sqrt(mu), mu, True, "degenerate balance h = beta/alpha")
    w = -float(np.cbrt(2 * mu * b2 + math.sqrt(4 * mu * mu * b2 * b2 + b2 ** 3)))
    K = mu + w - b2 / w
    K -= sideband_polynomial(params, K) / _sideband_prime(params, K)
    return SidebandReport(math.sqrt(K), K, True)


class WavetrainStability:
    STABLE = "stable"
    UNSTABLE_K2_EXCEEDS_MU = "unstable-k2-exceeds-mu"
    UNSTABLE_EASY_AXIS = "unstable-easy-axis"
    UNSTABLE_SIDEBAND = "unstable-sideband"
    MARGINAL_SIDEBAND = "marginal-sideband"


def classify_wavetrain_stability(base: Wavetrain, params: ModelParams) -> str:
    """Decision tree for the spectral stability of a wavetrain; |k| within
    1e-10 of k_star is marginal."""
    if params.mu < 0:
        return WavetrainStability.UNSTABLE_EASY_AXIS
    if base.k ** 2 > params.mu:
        return WavetrainStability.UNSTABLE_K2_EXCEEDS_MU
    report = sideband_wavenumber(params)
    if report.k_star is None:
        return WavetrainStability.UNSTABLE_SIDEBAND
    if abs(abs(base.k) - report.k_star) <= 1e-10:
        return WavetrainStability.MARGINAL_SIDEBAND
    if abs(base.k) < report.k_star:
        return WavetrainStability.STABLE
    return WavetrainStability.UNSTABLE_SIDEBAND


@dataclass
class ExclusionReport:
    """Confirms the absence of Hopf/Turing/fold marginal configurations."""

    hopf_excluded: bool
    hopf_rhs: float  # r^2 (k^2 - mu); Hopf needs 2 ell^2 equal to this
    turing_excluded: bool
    D: float
    det_roots_ell: tuple  # nonzero real roots of det A(i ell, 0), if any
    origin_curve_count: int


def exclusion_checks(base: Wavetrain, params: ModelParams) -> ExclusionReport:
    """Check that no Hopf or Turing instability can occur for k^2 < mu.

    Hopf would require 2 ell^2 = r^2 (k^2 - mu) with real ell; Turing would
    require a nonzero real root ell of det A(i ell, 0) = (1+alpha^2) ell^2
    (ell^2 - D) with marginal crossing, which implies D > 0 (already
    sideband-unstable).  A single curve of spectrum is attached to the origin.
    """
    _require_amplitude(base)
    hopf_rhs = base.r ** 2 * (base.k ** 2 - params.mu)
    D = curvature_factor(params, base.k)
    roots = (math.sqrt(D), -math.sqrt(D)) if D > 0 else ()
    return ExclusionReport(
        hopf_excluded=hopf_rhs < 0,
        hopf_rhs=hopf_rhs,
        turing_excluded=D < 0,
        D=D,
        det_roots_ell=roots,
        origin_curve_count=1,
    )
