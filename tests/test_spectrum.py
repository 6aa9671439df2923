import math

import numpy as np
import pytest

from llgs import (
    ModelParams,
    classify_wavetrain_stability,
    dispersion,
    exclusion_checks,
    linearization,
    sideband_polynomial,
    sideband_wavenumber,
    spectrum_curves,
    wavetrain_at,
)
from llgs.errors import ZeroAmplitudeError
from llgs.spectrum import (
    WavetrainStability,
    curvature_factor,
    det_closed_form,
    physical_growth_rate,
    sideband_polynomial_expanded,
    trace_closed_form,
)
from llgs.wavetrains import Wavetrain

PARAMS = ModelParams(alpha=1.0, beta=0.0, mu=1.0, h=0.5)  # b = 0.5, supercritical


def _stable_band_case(rng):
    alpha = rng.uniform(0.3, 3.0)
    mu = rng.uniform(0.5, 2.0)
    b = rng.uniform(0.05, 0.8) * mu
    params = ModelParams(alpha, 0.0, mu, b)
    k_star = sideband_wavenumber(params).k_star
    k = rng.uniform(0.1, 0.9) * k_star
    return params, wavetrain_at(params, k)


def test_closed_forms_match_matrix():
    wt = wavetrain_at(PARAMS, 0.3)
    for nu in (0.2j, 1.0 + 0.5j, -0.7j):
        A = linearization(wt, PARAMS, nu)
        assert abs(np.trace(A) - trace_closed_form(wt, PARAMS, nu)) < 1e-12
        assert abs(np.linalg.det(A) - det_closed_form(wt, PARAMS, nu)) < 1e-10


def test_translation_mode_at_origin():
    wt = wavetrain_at(PARAMS, 0.3)
    assert abs(dispersion(wt, PARAMS, 0.0, 0.0)) < 1e-14


def test_shift_identity():
    wt = wavetrain_at(PARAMS, 0.3)
    for c_ph in (1.0, -3.0):
        for lam, nu in ((0.1 + 0.2j, 0.4j), (-0.3, 1.0j)):
            lhs = dispersion(wt, PARAMS, lam, nu, c_ph)
            rhs = dispersion(wt, PARAMS, lam - c_ph * nu, nu, 0.0)
            assert abs(lhs - rhs) < 1e-12


def test_real_parts_independent_of_cph():
    wt = wavetrain_at(PARAMS, 0.3)
    curves = {
        c_ph: spectrum_curves(wt, PARAMS, ell_max=1.5, n_samples=200, c_ph=c_ph)
        for c_ph in (0.0, 1.0, -3.0)
    }
    ref = curves[0.0]
    for c_ph in (1.0, -3.0):
        for b_ref, b in zip(ref, curves[c_ph]):
            assert np.max(np.abs(b.lam.real - b_ref.lam.real)) < 1e-10


# (alpha, beta, mu, h), k, ell_max, n_samples: two coarse grids whose nearest-neighbour
# labels changed with c_ph (Re lambda moved by 1.33 and 0.41 at c_ph = 20 and 12), and a fine one
CPH_CASES = [((1.0, 0.0, 1.0, 0.5), 0.3, 2.0, 5),
             ((3.3347, -0.1459, 2.4599, -0.0371), 0.9616, 7.29, 33),
             ((1.0, 0.0, 1.0, 0.5), 0.3, 1.5, 200)]


@pytest.mark.parametrize("model, k, ell_max, n", CPH_CASES, ids=["coarse", "coarse-33", "fine"])
def test_cph_moves_only_imaginary_parts(model, k, ell_max, n):
    params = ModelParams(*model)
    wt = wavetrain_at(params, k)
    ref = spectrum_curves(wt, params, ell_max, n)
    for c_ph in (1.0, -3.0, 12.0, 20.0):
        for b_ref, b in zip(ref, spectrum_curves(wt, params, ell_max, n, c_ph)):
            assert b.lam.real.tobytes() == b_ref.lam.real.tobytes()
            assert np.array_equal(b.lam.imag, b_ref.lam.imag + c_ph * b.ell)
            scale = np.maximum(np.abs(b.lam), 1.0) ** 2  # d is quadratic in lambda
            assert np.all(b.residuals(wt, params, c_ph) <= 1e-14 * scale)


def _nearest_neighbour_curves(base, params, ell_max, n_samples):
    """Both branches at c_ph = 0 in their earlier form: one sample at a time, each root
    pair ordered to stay nearest to the previous pair."""
    ells = np.linspace(0.0, ell_max, n_samples)
    lam1 = np.empty(n_samples, dtype=complex)
    lam2 = np.empty(n_samples, dtype=complex)
    lam1[0] = 0.0
    lam2[0] = params.alpha * base.r ** 2 * (base.k ** 2 - params.mu)
    for i, ell in enumerate(ells[1:], start=1):
        tr = trace_closed_form(base, params, 1j * ell)
        disc = np.sqrt(tr * tr / 4 - det_closed_form(base, params, 1j * ell) + 0j)
        ra, rb = tr / 2 + disc, tr / 2 - disc
        keep = abs(ra - lam1[i - 1]) + abs(rb - lam2[i - 1])
        swap = abs(rb - lam1[i - 1]) + abs(ra - lam2[i - 1])
        lam1[i], lam2[i] = (ra, rb) if keep <= swap else (rb, ra)
    return lam1, lam2


def _random_spectrum_problem(rng, max_spacing):
    """A random wavetrain with r > 0 and an ell-grid no coarser than max_spacing."""
    while True:
        params = ModelParams(rng.uniform(0.1, 3.0), rng.uniform(-1.0, 1.0),
                             rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0))
        wt = wavetrain_at(params, rng.uniform(0.0, 2.0))
        if wt is not None and wt.r > 0.0:
            ell_max = rng.uniform(0.05, 8.0)
            n = math.ceil(ell_max / rng.uniform(0.01, max_spacing)) + 1
            return params, wt, ell_max, n


def test_branch_labels_equal_nearest_neighbour_continuation():
    # on grids with ell spacing <= 0.2 the branch-cut rule and the earlier
    # nearest-neighbour rule pick the same labels, and lambda agrees to 1e-14
    # relative: on all but 1 of 12 000 random sets, where a 10x finer grid
    # sides with the branch-cut rule
    rng = np.random.default_rng(25)
    for _ in range(300):
        params, wt, ell_max, n = _random_spectrum_problem(rng, 0.2)
        for b, ref in zip(spectrum_curves(wt, params, ell_max, n),
                          _nearest_neighbour_curves(wt, params, ell_max, n)):
            assert np.all(np.abs(b.lam - ref) <= 1e-14 * np.maximum(np.abs(ref), 1.0)), (
                params, wt.k, ell_max, n)


def test_branch_residuals_small():
    wt = wavetrain_at(PARAMS, 0.3)
    b1, b2 = spectrum_curves(wt, PARAMS, ell_max=1.0, n_samples=100)
    assert b1.max_residual(wt, PARAMS) < 1e-10
    assert b2.max_residual(wt, PARAMS) < 1e-10
    assert abs(b1.lam[0]) == 0.0  # translation mode seeds branch 1


def test_zero_amplitude_rejected():
    flat = Wavetrain(k=0.0, omega=0.0, theta=0.0)
    with pytest.raises(ZeroAmplitudeError):
        linearization(flat, PARAMS, 0.1j)


def test_curvature_matches_finite_differences():
    rng = np.random.default_rng(42)
    for _ in range(100):
        params, wt = _stable_band_case(rng)
        ell = 1e-3
        b1, _ = spectrum_curves(wt, params, ell_max=ell, n_samples=3)
        fd = b1.lam[-1].real / ell ** 2
        a = params.alpha
        predicted = (
            (1 + a * a)
            * curvature_factor(params, wt.k)
            / (a * wt.r ** 2 * (params.mu - wt.k ** 2))
        )
        assert abs(fd - predicted) / abs(predicted) < 1e-3


def test_sideband_polynomial_forms_agree():
    for K in np.linspace(-1.0, 3.0, 41):
        assert abs(
            sideband_polynomial(PARAMS, K) - sideband_polynomial_expanded(PARAMS, K)
        ) < 1e-12


def test_sideband_root_unique_and_bracketed():
    report = sideband_wavenumber(PARAMS)
    assert report.stable_band
    K = np.linspace(1e-9, PARAMS.mu - 1e-9, 20001)
    f = np.array([sideband_polynomial(PARAMS, x) for x in K])
    changes = np.count_nonzero(np.diff(np.sign(f)))
    assert changes == 1
    assert abs(sideband_polynomial(PARAMS, report.K_star)) < 1e-12
    assert abs(report.k_star - math.sqrt(report.K_star)) < 1e-15


def test_sideband_reference_value():
    report = sideband_wavenumber(PARAMS)
    assert abs(report.K_star - 0.2436273366908357) < 1e-12
    assert abs(report.k_star - 0.49358619985858165) < 1e-12


def test_sideband_outside_supercritical():
    report = sideband_wavenumber(ModelParams(1.0, 0.0, -1.0, 0.5))
    assert report.k_star is None and not report.stable_band


def test_sideband_degenerate_balance():
    params = ModelParams(1.0, 0.0, 1.0, 0.0)  # b = 0
    report = sideband_wavenumber(params)
    assert report.k_star == 1.0 and report.K_star == params.mu


def test_stability_classification():
    k_star = sideband_wavenumber(PARAMS).k_star
    wt = wavetrain_at(PARAMS, 0.3)
    assert classify_wavetrain_stability(wt, PARAMS) == WavetrainStability.STABLE
    wt = wavetrain_at(PARAMS, 0.6)
    assert classify_wavetrain_stability(wt, PARAMS) == WavetrainStability.UNSTABLE_SIDEBAND
    wt = wavetrain_at(PARAMS, 1.5)
    assert (
        classify_wavetrain_stability(wt, PARAMS)
        == WavetrainStability.UNSTABLE_K2_EXCEEDS_MU
    )
    wt = wavetrain_at(PARAMS, k_star)
    assert classify_wavetrain_stability(wt, PARAMS) == WavetrainStability.MARGINAL_SIDEBAND
    easy = ModelParams(1.0, 0.0, -1.0, 0.5)
    wt = wavetrain_at(easy, 0.5)
    assert classify_wavetrain_stability(wt, easy) == WavetrainStability.UNSTABLE_EASY_AXIS


def test_stability_matches_spectrum_sign():
    # stable band: branch curvature negative; above k_star: positive
    for k, expect_positive in ((0.3, False), (0.7, True)):
        wt = wavetrain_at(PARAMS, k)
        b1, _ = spectrum_curves(wt, PARAMS, ell_max=0.05, n_samples=20)
        growth = np.max(b1.lam.real[1:])
        assert (growth > 0) == expect_positive


def test_exclusion_checks_in_stable_band():
    wt = wavetrain_at(PARAMS, 0.3)
    report = exclusion_checks(wt, PARAMS)
    assert report.hopf_excluded
    assert report.turing_excluded
    assert report.det_roots_ell == ()
    assert report.origin_curve_count == 1


def test_exclusion_report_above_kstar():
    wt = wavetrain_at(PARAMS, 0.7)
    report = exclusion_checks(wt, PARAMS)
    assert report.hopf_excluded  # still k^2 < mu
    assert not report.turing_excluded and report.D > 0


def test_physical_growth_rate_rescaling():
    params = ModelParams(alpha=1.0)
    assert physical_growth_rate(0.4 + 1.0j, params) == pytest.approx(0.2)
    params = ModelParams(alpha=2.0)
    assert physical_growth_rate(1.0 + 0.0j, params) == pytest.approx(0.2)


def test_sideband_root_over_many_supercritical_sets():
    # mu spans twelve decades: an absolute stopping tolerance of 1e-12 can
    # never be met once the spacing of the floats near K_star exceeds it
    rng = np.random.default_rng(2026)
    ratios = np.concatenate([[1e-8, 1.0 - 1e-8], 10.0 ** rng.uniform(-8.0, 0.0, 5000),
                             rng.uniform(1e-8, 1.0 - 1e-8, 5000)])
    for ratio in np.minimum(ratios, 1.0 - 1e-8):
        mu = 10.0 ** rng.uniform(-6.0, 6.0)
        b = float(ratio) * mu * rng.choice((-1.0, 1.0))
        params = ModelParams(rng.uniform(0.1, 3.0), 0.0, mu, b)
        report = sideband_wavenumber(params)
        assert 0.0 < report.K_star < mu, (mu, b)
        assert abs(sideband_polynomial(params, report.K_star)) <= 1e-14 * mu ** 3, (mu, b)
        assert report.k_star == math.sqrt(report.K_star)


def test_curvature_factor_is_sideband_polynomial_over_square():
    rng = np.random.default_rng(4)
    for _ in range(200):
        params = ModelParams(1.0, 0.0, rng.uniform(0.1, 2.0), rng.uniform(-1.0, 1.0))
        k = rng.uniform(0.0, 2.0)
        K, mu, b2 = k * k, params.mu, params.force_balance ** 2
        D = curvature_factor(params, k)
        assert D == pytest.approx((3 * K + mu) * b2 / (K - mu) ** 2 + K - mu, rel=1e-12)
        assert np.sign(D) == np.sign(sideband_polynomial(params, K))
