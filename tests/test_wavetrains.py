import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llgs import (
    AnisotropyRegime,
    Grid1D,
    ModelParams,
    admissible_wavenumbers,
    e3_eigenvalues,
    e3_stability,
    wavetrain_at,
    wavetrain_field,
)
from llgs.errors import DegenerateFamilyError


def _sample_k(region, rng):
    """A random admissible wavenumber from the region's intervals."""
    lo, hi = region.intervals[rng.integers(len(region.intervals))]
    hi = min(hi, lo + 5.0)
    return rng.uniform(lo + 1e-6, hi - 1e-6)


@given(
    alpha=st.floats(0.1, 5.0),
    beta=st.floats(-2.0, 2.0),
    mu=st.floats(-2.0, 2.0),
    h=st.floats(-2.0, 2.0),
    u=st.floats(0.0, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_frequency_is_minus_beta_over_alpha(alpha, beta, mu, h, u):
    params = ModelParams(alpha, beta, mu, h)
    region = admissible_wavenumbers(params)
    if not region.intervals:
        return
    lo, hi = region.intervals[0]
    k = lo + 1e-6 + u * (min(hi, lo + 5.0) - lo - 2e-6)
    try:
        wt = wavetrain_at(params, k)
    except DegenerateFamilyError:
        return
    if wt is None:
        return
    assert abs(wt.omega - (-beta / alpha)) < 1e-12


def test_angle_solves_force_balance(rng=np.random.default_rng(5)):
    for _ in range(50):
        params = ModelParams(rng.uniform(0.2, 3.0), rng.uniform(-1, 1),
                             rng.uniform(-2, 2), rng.uniform(-2, 2))
        k = rng.uniform(0.0, 3.0)
        try:
            wt = wavetrain_at(params, k)
        except DegenerateFamilyError:
            continue
        if wt is None:
            continue
        assert abs((params.mu - k * k) * wt.m3 - params.force_balance) < 1e-12


def test_existence_supercritical():
    params = ModelParams(1.0, 0.5, 1.0, 1.0)  # b = 0.5
    region = admissible_wavenumbers(params)
    assert region.regime is AnisotropyRegime.SUPERCRITICAL
    (a0, a1), (b0, b1) = region.intervals
    assert (a0, a1) == (0.0, math.sqrt(0.5))
    assert b0 == math.sqrt(1.5) and b1 == math.inf
    assert region.boundary_k == (math.sqrt(0.5), math.sqrt(1.5))


def test_existence_subcritical():
    params = ModelParams(1.0, 0.0, 1.0, 2.0)  # b = 2
    region = admissible_wavenumbers(params)
    assert region.regime is AnisotropyRegime.SUBCRITICAL
    ((lo, hi),) = region.intervals
    assert lo == math.sqrt(3.0) and hi == math.inf


def test_existence_subsubcritical():
    params = ModelParams(1.0, 0.0, -1.0, 0.9)
    region = admissible_wavenumbers(params)
    assert region.regime is AnisotropyRegime.SUBSUBCRITICAL
    assert region.intervals == ((0.0, math.inf),)
    assert region.n_theta_branches == 2


def test_existence_consistency_with_wavetrain_at(rng=np.random.default_rng(7)):
    for _ in range(50):
        params = ModelParams(rng.uniform(0.2, 3.0), rng.uniform(-1, 1),
                             rng.uniform(-2, 2), rng.uniform(-2, 2))
        region = admissible_wavenumbers(params)
        for lo, hi in region.intervals:
            k = rng.uniform(lo + 1e-4, min(hi, lo + 5.0) - 1e-4)
            try:
                wt = wavetrain_at(params, k)
            except DegenerateFamilyError:
                continue
            assert wt is not None, (params, k)
        # sampled non-existence outside the intervals
        for k in np.linspace(0.0, 4.0, 37):
            # intervals are open only at the r = 0 boundary wavenumbers
            inside = any(lo - 1e-12 <= k <= hi for lo, hi in region.intervals) and all(
                abs(k - bk) > 1e-9 for bk in region.boundary_k
            )
            if inside:
                continue
            try:
                wt = wavetrain_at(params, k)
            except DegenerateFamilyError:
                continue
            if wt is not None:
                assert wt.r < 1e-6  # may sit exactly on the r=0 boundary


def test_parameter_involution():
    # (b, theta) -> (-b, pi - theta) maps wavetrains to wavetrains
    alpha, mu, k = 1.3, 1.0, 0.4
    p1 = ModelParams(alpha, 0.0, mu, 0.5)
    p2 = ModelParams(alpha, 0.0, mu, -0.5)
    wt1 = wavetrain_at(p1, k)
    wt2 = wavetrain_at(p2, k)
    assert abs(wt2.theta - (math.pi - wt1.theta)) < 1e-12


def test_degenerate_family_raises():
    params = ModelParams(1.0, 0.5, 1.0, 0.5)  # b = 0
    with pytest.raises(DegenerateFamilyError):
        wavetrain_at(params, 1.0)  # k^2 = mu


def test_e3_growth_is_maximal_at_ell_zero():
    params = ModelParams(0.7, 0.3, 1.0, 0.2)
    for sign in (1, -1):
        re0 = e3_eigenvalues(params, sign, 0.0)[0].real
        for ell in (0.5, 1.0, 2.0):
            assert e3_eigenvalues(params, sign, ell)[0].real < re0


def test_e3_eigenvalue_formula():
    params = ModelParams(2.0, 1.0, 1.5, 0.25)
    # (1+alpha^2) Re = alpha (mu -+ b - ell^2)
    lam = e3_eigenvalues(params, 1, 0.3)
    b = params.force_balance
    expected = params.alpha * (params.mu - b - 0.09) / (1 + params.alpha ** 2)
    assert abs(lam[0].real - expected) < 1e-14
    assert abs(lam[1].real - expected) < 1e-14
    # conjugate pair shifted by the precession frequency
    assert abs(lam[0].imag - (-expected * 1 + params.beta / params.alpha)) < 1e-14


def test_e3_stability_by_regime():
    # supercritical: both unstable
    s = e3_stability(ModelParams(1.0, 0.5, 1.0, 1.0))
    assert s.plus_stable is False and s.minus_stable is False
    # subsubcritical: both stable
    s = e3_stability(ModelParams(1.0, 0.0, -1.0, 0.9))
    assert s.plus_stable is True and s.minus_stable is True
    # subcritical, b > 0: -e3 unstable, +e3 stable
    s = e3_stability(ModelParams(1.0, 0.0, 1.0, 2.0))
    assert s.plus_stable is True and s.minus_stable is False
    # marginal boundary mu = b
    s = e3_stability(ModelParams(1.0, 0.0, 1.0, 1.0))
    assert s.marginal and s.plus_stable is None


def test_hopf_frequency_reported():
    s = e3_stability(ModelParams(2.0, 1.0, 1.0, 0.2))
    assert s.hopf_frequency == 0.5


def test_wavetrain_field_samples():
    params = ModelParams(1.0, 0.5, 1.0, 1.0)
    wt = wavetrain_at(params, 0.5)
    grid = Grid1D(4 * np.pi, 64)
    fld = wavetrain_field(wt, grid)
    assert fld.norm_drift() < 1e-14
    assert np.allclose(fld.values[:, 2], wt.m3)
    # lower branch mirrors the transverse components
    fld2 = wavetrain_field(
        wavetrain_at(params, 0.5, lower_branch=True), grid
    )
    assert np.allclose(fld2.values[:, 0], -fld.values[:, 0])


@pytest.mark.parametrize(
    "mu, h, intervals, boundary",
    [
        # mu = |b| > 0: r = 0 at k = 0; the lower interval is empty
        (0.5, 0.5, ((1.0, math.inf),), (0.0, 1.0)),
        (0.5, -0.5, ((1.0, math.inf),), (0.0, 1.0)),
        # mu = 0 < |b|
        (0.0, 1.0, ((1.0, math.inf),), (1.0,)),
        (0.0, -1.0, ((1.0, math.inf),), (1.0,)),
        # b = 0 < mu: theta = pi/2 for every k but k^2 = mu
        (1.0, 0.0, ((0.0, 1.0), (1.0, math.inf)), (1.0,)),
        # mu = -|b| < 0: r = 0 at k = 0 only
        (-1.0, 1.0, ((0.0, math.inf),), (0.0,)),
        (-1.0, -1.0, ((0.0, math.inf),), (0.0,)),
        # mu = b = 0
        (0.0, 0.0, ((0.0, math.inf),), (0.0,)),
    ],
)
def test_existence_at_regime_ties(mu, h, intervals, boundary):
    params = ModelParams(1.0, 0.0, mu, h)
    region = admissible_wavenumbers(params)
    assert region.intervals == intervals
    assert region.boundary_k == boundary
    assert region.n_theta_branches == 2
    for k in region.boundary_k:
        try:
            wt = wavetrain_at(params, k)
        except DegenerateFamilyError:
            continue
        assert abs(wt.m3) == 1.0


def test_e3_both_marginal_at_zero_balance_and_anisotropy():
    s = e3_stability(ModelParams(1.0, 0.0, 0.0, 0.0))
    assert s.plus_stable is None and s.minus_stable is None and s.marginal
    s = e3_stability(ModelParams(1.0, 0.0, -1.0, 1.0))  # mu = -b: -e3 marginal
    assert s.plus_stable is True and s.minus_stable is None and s.marginal


def test_wavetrain_exists_at_every_boundary_k():
    # mu - k^2 rounds so that |b| exceeds it by an ulp at about 17% of these
    # boundaries; the wavetrain there solves cos(theta)(mu - k^2) = b to rounding
    reproducer = ModelParams(1.0, 0.0, 0.5912229932353066, 0.7377232722869058)
    assert admissible_wavenumbers(reproducer).boundary_k == (1.1527993171069335,)
    assert wavetrain_at(reproducer, 1.1527993171069335 * (1 - 1e-12)) is None
    rng = np.random.default_rng(8)
    sets = [reproducer] + [ModelParams(1.0, 0.0, mu, h)
                           for mu, h in rng.uniform(-2.0, 2.0, (10000, 2))]
    for params in sets:
        for k in admissible_wavenumbers(params).boundary_k:
            wt = wavetrain_at(params, k)
            assert wt is not None, (params, k)
            residual = wt.m3 * (params.mu - k * k) - params.force_balance
            assert abs(residual) <= 1e-14 * max(abs(params.mu), k * k), (params, k)


def test_boundary_wavetrain_sits_at_a_pole():
    # at |b| = |mu - k^2| to rounding the wavetrain is the pole cos(theta) = +-1
    # with r = 0, although acos of the rounded ratio b/(mu - k^2) can miss the
    # pole and math.sin(pi) is 1.2e-16
    reproducer = ModelParams(1.0, 0.0, 1.0, 1.0)
    wt = wavetrain_at(reproducer, 1.4142135623730951)
    assert (wt.theta, wt.r, wt.m3) == (math.pi, 0.0, -1.0)
    rng = np.random.default_rng(1)
    for mu, h in rng.uniform(-2.0, 2.0, (20000, 2)):
        params = ModelParams(1.0, 0.0, mu, h)
        for k in admissible_wavenumbers(params).boundary_k:
            wt = wavetrain_at(params, k)
            assert wt.theta in (0.0, math.pi) and wt.r == 0.0, (params, k, wt)


def test_e3_eigenvalues_on_an_array_equal_the_per_ell_values():
    ell = np.linspace(0.0, 2.0, 2001)
    for params in (ModelParams(1.0, 0.0, -1.0, 2.0), ModelParams(2.0, 1.0, 1.5, 0.25)):
        for sign in (1, -1):
            lam = e3_eigenvalues(params, sign, ell)
            assert lam.shape == (2, ell.size)
            each = np.array([e3_eigenvalues(params, sign, v) for v in ell.tolist()]).T
            for part in (np.real, np.imag):
                assert np.array_equal(part(lam), part(each))
                assert np.array_equal(np.signbit(part(lam)), np.signbit(part(each)))
    # at ell = 1 the -e3 branch of the first set is 0 + 0i and 0 - 0i
    lam = e3_eigenvalues(ModelParams(1.0, 0.0, -1.0, 2.0), -1, 1.0)
    assert lam.real.tolist() == [0.0, 0.0]
    assert np.signbit(lam.imag).tolist() == [False, True]
