"""Existence and parametrization of wavetrains; stability of +-e3.

Wavetrains are relative equilibria m(x,t) = e^{i(kx - omega t)} m0 rotating
about the e3-axis.  All of them share the frequency omega = -beta/alpha and
their polar angle solves cos(theta) = (h - beta/alpha)/(mu - k^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateFamilyError
from .model import (AnisotropyRegime, Grid1D, MagnetizationField, ModelParams, _unit_vectors,
                    classify_anisotropy)


@dataclass(frozen=True)
class Wavetrain:
    """A wavetrain record: wavenumber k, frequency omega, polar angle theta.

    theta is canonical in [0, pi]; the mirror theta -> -theta partner is the
    same point of the (k, m3)-diagram with reflected azimuthal phase and is
    tracked by `lower_branch`.
    """

    k: float
    omega: float
    theta: float
    lower_branch: bool = False

    @property
    def m3(self) -> float:
        return math.cos(self.theta)

    @property
    def r(self) -> float:
        """sin(theta), and exactly 0 at theta = pi, where sin rounds to 1.2e-16."""
        return 0.0 if self.theta == math.pi else math.sin(self.theta)


def wavetrain_at(params: ModelParams, k: float, lower_branch: bool = False):
    """Wavetrain with wavenumber k, or None if it does not exist.

    Raises DegenerateFamilyError when mu = k^2 and h = beta/alpha (theta is
    unspecified there), and ConfigError when k is not finite.
    """
    if not math.isfinite(k):
        raise ConfigError(f"k = {k} must be finite")
    b = params.force_balance
    denom = params.mu - k * k
    if denom == 0.0:
        if b == 0.0:
            raise DegenerateFamilyError(
                "mu = k^2 with h = beta/alpha: one-parameter family, theta unspecified"
            )
        return None
    # mu - k^2 is rounded, by up to about 2 eps * max(|mu|, k^2): |b| within
    # that of |mu - k^2| is the existence boundary |cos theta| = 1, and more is none
    excess, tol = abs(b) - abs(denom), 4 * math.ulp(1.0) * max(abs(params.mu), k * k)
    if excess > tol:
        return None
    cos = math.copysign(1.0, b / denom) if b != 0.0 and excess >= -tol else b / denom
    return Wavetrain(k=k, omega=-params.beta / params.alpha, theta=math.acos(cos),
                     lower_branch=lower_branch)


@dataclass(frozen=True)
class ExistenceRegion:
    """Admissible wavenumber intervals for k >= 0 (mirror symmetric in k).

    Intervals are open at endpoints where the amplitude r vanishes
    (|cos theta| = 1); those endpoints sit on the boundary parabolas
    mu = k^2 +- (h - beta/alpha) and are listed in `boundary_k`.
    """

    regime: AnisotropyRegime
    intervals: tuple
    boundary_k: tuple
    n_theta_branches: int = 2


def admissible_wavenumbers(params: ModelParams) -> ExistenceRegion:
    """Admissible k-intervals for wavetrain existence: |b| <= |mu - k^2|.

    With lo^2 = mu - |b| and hi^2 = mu + |b|: [0, sqrt(lo^2)) if lo^2 > 0, and
    (sqrt(max(hi^2, 0)), inf), which is all k >= 0 when subsubcritical (two
    theta-branches over the k-axis).  `boundary_k` lists sqrt(lo^2) and
    sqrt(hi^2) where they are >= 0, each value once.
    """
    b = abs(params.force_balance)
    lo2, hi2 = params.mu - b, params.mu + b
    lower = ((0.0, math.sqrt(lo2)),) if lo2 > 0 else ()
    upper = ((math.sqrt(max(hi2, 0.0)), math.inf),)
    boundary = tuple(sorted({math.sqrt(v) for v in (lo2, hi2) if v >= 0}))
    return ExistenceRegion(classify_anisotropy(params), lower + upper, boundary)


def e3_eigenvalues(params: ModelParams, sign: int, ell):
    """Both linearization eigenvalues of the equilibrium sign*e3 at Fourier
    mode ell, a float or an array: a (2,) + shape(ell) complex array.

    (1 + alpha^2) Re(lambda) = alpha*(mu -+ (h - beta/alpha) - ell^2) and
    Im(lambda) = sigma*(-+ Re(lambda) + beta/alpha), sigma = +-1; the upper
    signs belong to +e3.
    """
    if sign not in (1, -1):
        raise ConfigError("sign must be +1 or -1")
    a = params.alpha
    re = a * (params.mu - sign * params.force_balance - ell * ell) / (1.0 + a * a)
    im = -sign * re + params.beta / params.alpha
    lam = np.empty((2,) + np.shape(ell), complex)
    lam.real, lam.imag = re, (im, -im)  # not re + 1j*im, which turns an im of -0 into 0
    return lam


@dataclass(frozen=True)
class EquilibriumStability:
    """Stability verdicts for +-e3; None means marginal (degenerate boundary)."""

    plus_stable: bool | None
    minus_stable: bool | None
    marginal: bool = False
    hopf_frequency: float = 0.0


def e3_stability(params: ModelParams) -> EquilibriumStability:
    """L2-stability of +-e3 from the sign of Re(lambda) at ell = 0.

    Both unstable iff supercritical, both stable iff subsubcritical.  In the
    subcritical regime the equilibrium aligned against the force balance is
    the unstable one: for h > beta/alpha that is -e3.
    """
    b = params.force_balance
    growth = (params.mu - b, params.mu + b)  # +e3, -e3
    plus, minus = (None if g == 0.0 else g < 0 for g in growth)
    return EquilibriumStability(plus, minus, 0.0 in growth, params.precession_frequency)


def wavetrain_field(wt: Wavetrain, grid: Grid1D) -> MagnetizationField:
    """Sample the wavetrain as a magnetization field at t = 0."""
    theta = -wt.theta if wt.lower_branch else wt.theta
    return MagnetizationField(grid, _unit_vectors(np.full(grid.n, theta), wt.k * grid.x))
