import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llgs import (
    AnisotropyRegime,
    Grid1D,
    MagnetizationField,
    ModelParams,
    classify_anisotropy,
    dissipation_rate,
    energy,
    from_spherical,
    rhs_landau_lifshitz,
    stereographic,
    to_spherical,
)
from llgs.errors import ConfigError, SouthPoleError
from llgs.model import (
    _LLKernel,
    _integrate,
    _laplacian_symbol,
    _ll_rhs,
    _norm_drift,
    _norms,
    _staggered,
    first_derivative,
    gilbert_residual,
    local_wavenumber,
    rotate_about_e3,
    _unit_vectors,
    second_derivative,
)

from conftest import (kernel_operator, ll_rhs_vector_form, previous_ll_rhs, random_params,
                      random_smooth_field, signed_zero_field)


def test_params_reject_nonpositive_alpha():
    with pytest.raises(ValueError):
        ModelParams(alpha=0.0)
    with pytest.raises(ValueError):
        ModelParams(alpha=-1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["alpha", "beta", "mu", "h"])
def test_params_reject_non_finite_values(name, value):
    with pytest.raises(ConfigError):
        ModelParams(**{"alpha": 1.0, name: value})


def test_force_balance_and_frequency():
    p = ModelParams(alpha=2.0, beta=1.0, mu=0.3, h=1.5)
    assert p.force_balance == 1.0
    assert p.precession_frequency == 0.5


finite = st.floats(-5.0, 5.0, allow_nan=False)


@given(alpha=st.floats(0.1, 5.0), beta=finite, mu=finite, h=finite)
@settings(max_examples=200, deadline=None)
def test_regime_classification_is_exhaustive_and_consistent(alpha, beta, mu, h):
    p = ModelParams(alpha, beta, mu, h)
    regime = classify_anisotropy(p)
    b = abs(p.force_balance)
    if regime is AnisotropyRegime.SUPERCRITICAL:
        assert mu > b
    elif regime is AnisotropyRegime.SUBSUBCRITICAL:
        assert -mu > b
    elif regime is AnisotropyRegime.SUBCRITICAL:
        assert 0 < abs(mu) < b
    else:
        assert mu == b or -mu == b or (mu == 0 and b >= 0)


def test_regime_figure_parameter_sets():
    assert classify_anisotropy(ModelParams(1.0, 0.5, 1.0, 1.0)) is AnisotropyRegime.SUPERCRITICAL
    assert classify_anisotropy(ModelParams(1.0, 0.0, 1.0, 2.0)) is AnisotropyRegime.SUBCRITICAL
    assert classify_anisotropy(ModelParams(1.0, 0.0, -1.0, 0.9)) is AnisotropyRegime.SUBSUBCRITICAL
    assert (
        classify_anisotropy(ModelParams(1.0, 0.0, 1.0, 1.0))
        is AnisotropyRegime.DEGENERATE_BOUNDARY
    )


def test_grid_spacing_and_size():
    # the endpoint x = L is omitted, so dx = L/n; a numpy integer is a grid size
    for g in (Grid1D(10.0, 10), Grid1D(10.0, np.int64(10))):
        assert g.dx == 1.0
        assert g.x[-1] == 9.0
    with pytest.raises(ValueError):
        Grid1D(1.0, 2)


def test_derivatives_exact_on_fourier_mode(grid):
    k = 2 * np.pi * 3 / grid.length
    u = np.sin(k * grid.x)
    for method in ("fd", "spectral"):
        d1 = first_derivative(u, grid, method)
        d2 = second_derivative(u, grid, method)
        if method == "spectral":
            assert np.allclose(d1, k * np.cos(k * grid.x), atol=1e-10)
            assert np.allclose(d2, -k * k * u, atol=1e-10)
        else:
            # second order accuracy, coarse check
            assert np.max(np.abs(d1 - k * np.cos(k * grid.x))) < 0.02
            assert np.max(np.abs(d2 + k * k * u)) < 0.05


def test_fd_second_derivative_convergence_order():
    k = 1.0
    errs = []
    for n in (64, 128, 256):
        g = Grid1D(2 * np.pi, n)
        u = np.sin(k * g.x)
        errs.append(np.max(np.abs(second_derivative(u, g) + k * k * u)))
    order = np.log2(errs[0] / errs[1])
    assert abs(order - 2.0) < 0.1
    order = np.log2(errs[1] / errs[2])
    assert abs(order - 2.0) < 0.1


def test_periodic_stencils_equal_roll_formulas_bitwise(rng, grid):
    dx = grid.dx
    m = random_smooth_field(rng, grid).values
    for v in (m, m[:, 0].copy()):  # (n, 3) and 1-D input
        up, down = np.roll(v, -1, axis=0), np.roll(v, 1, axis=0)
        assert np.array_equal(first_derivative(v, grid), (up - down) / (2 * dx))
        assert np.array_equal(second_derivative(v, grid), (up - 2 * v + down) / dx ** 2)


@pytest.mark.parametrize("n", [3, 64, 128])
def test_spectral_derivatives_equal_previous_expressions_bytewise(rng, n):
    # the multipliers i q and -q^2 on the FFT along axis 0, each written out in full
    grid = Grid1D(2 * np.pi, n)
    q = grid.wavenumbers()
    for field in (random_smooth_field(rng, grid).values, signed_zero_field(rng, n)):
        for v in (field, field[:, 0].copy()):  # (n, 3) and 1-D input
            iq, q2 = 1j * q, q ** 2
            if v.ndim > 1:
                iq, q2 = iq[:, None], q2[:, None]
            d1 = np.real(np.fft.ifft(iq * np.fft.fft(v, axis=0), axis=0))
            d2 = np.real(np.fft.ifft(-q2 * np.fft.fft(v, axis=0), axis=0))
            assert first_derivative(v, grid, "spectral").tobytes() == d1.tobytes()
            assert second_derivative(v, grid, "spectral").tobytes() == d2.tobytes()


def test_second_derivative_of_strided_input_equals_contiguous_bytewise(rng):
    # the stencil shifts flat memory, so a column view or an F-ordered field must not mislead it
    grid = Grid1D(2 * np.pi, 33)
    m = random_smooth_field(rng, grid).values
    for v in (m[:, 0], m[::-1], np.asfortranarray(m)):
        want = second_derivative(np.ascontiguousarray(v), grid)
        assert second_derivative(v, grid).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [3, 4, 64, 193])
def test_laplacian_symbol_is_the_stencil_spectrum(rng, n):
    # the stencil is circulant, so its eigenvalues are the FFT of its first column; in ulp
    # of 4/dx^2, the largest |symbol|: measured worst over 1000 random L per n, 3 ulp at
    # n <= 64 and 7.2 at n = 193, a prime size
    grid = Grid1D(rng.uniform(0.5, 50.0), n)
    eigenvalues = np.fft.fft(second_derivative(np.eye(n), grid)[:, 0])
    ulp = np.spacing(4.0 / grid.dx ** 2)
    assert np.abs(_laplacian_symbol(grid) - eigenvalues).max() <= 16 * ulp


@pytest.mark.parametrize("method", ["Spectral", "bogus", "FD", ""])
def test_unknown_derivative_method_is_config_error(rng, grid, method):
    params = random_params(rng)
    fld = random_smooth_field(rng, grid)
    mdot = rhs_landau_lifshitz(fld, params)
    with pytest.raises(ConfigError, match="unknown derivative method"):
        rhs_landau_lifshitz(fld, params, method=method)
    with pytest.raises(ConfigError, match="unknown derivative method"):
        gilbert_residual(fld, mdot, params, method=method)
    with pytest.raises(ConfigError, match="unknown derivative method"):
        energy(fld, params, method=method)


def test_spherical_round_trip(rng, grid):
    fld = random_smooth_field(rng, grid)
    back = from_spherical(to_spherical(fld))
    assert np.max(np.abs(back.values - fld.values)) < 1e-12


def test_to_spherical_continues_phi_through_pole(grid):
    values = np.tile([0.0, 0.0, 1.0], (grid.n, 1))
    values[0] = [np.sin(0.3) * np.cos(1.1), np.sin(0.3) * np.sin(1.1), np.cos(0.3)]
    fld = MagnetizationField(grid, values / np.linalg.norm(values, axis=1, keepdims=True))
    sph = to_spherical(fld)
    assert np.all(np.isfinite(sph.phi))
    assert sph.phi[1] == sph.phi[0]  # continued, not reset


def test_to_spherical_unwraps_phi_across_a_pole():
    # the turn from 2.9 to 3.18 crosses the branch cut at pi right after the pole
    from llgs import SphericalField

    grid = Grid1D(1.0, 5)
    phi = np.array([2.9, 0.0, 3.18, 3.3, 3.4])
    fld = from_spherical(SphericalField(grid, np.array([1.0, 0.0, 1.0, 1.0, 1.0]), phi))
    sph = to_spherical(fld)
    assert np.max(np.abs(sph.phi - [2.9, 2.9, 3.18, 3.3, 3.4])) < 1e-12
    assert np.max(np.abs(local_wavenumber(sph))) < 2.0


def test_local_wavenumber_of_helix(grid):
    from llgs import SphericalField

    k = 2 * np.pi * 2 / grid.length
    theta = np.full(grid.n, 1.0)
    fld = from_spherical(SphericalField(grid, theta, k * grid.x))
    # phi is linear (not periodic), so only the interior stencils are meaningful
    q = local_wavenumber(to_spherical(fld))
    assert np.max(np.abs(q[1:-1] - k)) < 1e-8


def test_local_wavenumber_of_helix_at_both_ends(grid):
    from llgs import SphericalField

    k = 2 * np.pi * 2 / grid.length
    fld = from_spherical(SphericalField(grid, np.full(grid.n, 1.0), k * grid.x))
    q = local_wavenumber(to_spherical(fld))
    assert np.max(np.abs(q - k)) < 1e-8


def test_rhs_is_tangent(rng, grid):
    params = random_params(rng)
    for _ in range(20):
        fld = random_smooth_field(rng, grid)
        mdot = rhs_landau_lifshitz(fld, params)
        assert np.max(np.abs(np.sum(mdot * fld.values, axis=1))) < 1e-12


def test_ll_rhs_equals_vector_form_bitwise(rng, grid):
    for _ in range(20):
        params = random_params(rng)
        assert params.alpha != 1.0
        m = random_smooth_field(rng, grid).values
        lap = second_derivative(m, grid)
        assert np.array_equal(_ll_rhs(m, lap, params), ll_rhs_vector_form(m, lap, params))


def _cross_rows(a, b):
    """a x b of two (3, n) arrays, row by row."""
    return np.stack([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _ll_rhs_row_form(m, lap, params):
    """Reference: the kernel's order on (3, n) rows, each cross product written out row by row."""
    m = m.T
    g = kernel_operator(params) @ np.vstack([lap.T, np.ones(m.shape[1]), m])
    c = _cross_rows(m, g)
    return (c + params.alpha * _cross_rows(m, c)).T


@pytest.mark.parametrize("n", [3, 4, 64])
def test_ll_rhs_equals_row_form_bytewise_on_signed_zeros(rng, n):
    # bytes, so that the sign of a zero counts; with beta = mu = h = 0 and a
    # Laplacian of signed zeros, every term of the right-hand side is a zero
    grid = Grid1D(2 * np.pi, n)
    for params in (random_params(rng), ModelParams(1.5), ModelParams(0.7, -0.0, -0.0, -0.0)):
        for _ in range(10):
            m = signed_zero_field(rng, n)
            for lap in (rng.choice([-0.0, 0.0], size=(n, 3)), second_derivative(m, grid)):
                got, want = _ll_rhs(m, lap, params), _ll_rhs_row_form(m, lap, params)
                assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [3, 4, 64, 1024])
def test_kernel_fed_neighbour_sum_equals_it_fed_the_stencil(rng, n):
    # m x Lap m = m x (m[i+1] + m[i-1])/dx^2 - m x (2 m)/dx^2, and the last term is 0 byte
    # for byte (2 m is exact, so each row of the cross product is x - x): the diagonal
    # changes only rounding.  The kernel fed the neighbour sum, with the diagonal in its
    # operator (as the steppers feed it), matches it fed the full
    # stencil, in ulp of (4/dx^2 + max |f|) (1 + alpha)/(1 + alpha^2): measured worst 3 ulp
    # over 2 x 3200 random and uniform fields at these n
    for _ in range(20):
        grid, params = Grid1D(rng.uniform(0.5, 50.0), n), random_params(rng)
        uniform = np.tile(_unit_vectors(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)), (n, 1))
        for m in (random_smooth_field(rng, grid).values, uniform):
            assert (np.cross(m, 2 * m) / grid.dx ** 2).tobytes() == np.zeros((n, 3)).tobytes()
            kernel, got = _LLKernel(n, params), np.empty((n, 3))
            kernel.m.rows[...] = m.T
            kernel.neighbour_sum()
            kernel.rhs(kernel.operator(1.0, grid.dx ** 2), got.T)
            assert np.array_equal(got, ll_rhs_vector_form(m, np.roll(m, -1, 0) + np.roll(m, 1, 0),
                                                          params, 1.0, grid.dx ** 2))
            f_max = max(abs(params.beta), abs(params.mu) + abs(params.h))
            scale = (4 / grid.dx ** 2 + f_max) * (1 + params.alpha) / (1 + params.alpha ** 2)
            want = _ll_rhs(m, second_derivative(m, grid), params)
            assert np.abs(got - want).max() <= 8 * np.spacing(scale)


def _previous_ll_rhs_row_form(m, lap, params):
    """The earlier row form: f's rows as m2 beta, m1 (-beta) and m3 mu - h, then np.cross."""
    f = np.stack([m[:, 1] * params.beta, m[:, 0] * -params.beta,
                  m[:, 2] * params.mu - params.h], axis=1)
    c = np.cross(m, lap - f)
    return (-c - np.cross(m, c) * params.alpha) / (1.0 + params.alpha ** 2)


@pytest.mark.parametrize("n", [3, 4, 64, 1024])
def test_ll_rhs_equals_previous_forms_to_stated_ulp(rng, n):
    # the kernel scales g by -1/(1 + alpha^2) before the cross products, not their
    # difference after them; in ulp of max |g| (1 + alpha)/(1 + alpha^2), the scale of
    # the terms: measured worst 8.5 ulp over 6500 random fields (2000 at n = 3, 4 and 64,
    # 500 at 1024), fd and spectral Laplacians, both forms
    grid = Grid1D(rng.uniform(0.5, 50.0), n)
    for _ in range(20):
        params = random_params(rng)
        m = random_smooth_field(rng, grid).values
        for method in ("fd", "spectral"):
            lap = second_derivative(m, grid, method)
            got = _ll_rhs(m, lap, params)
            f = np.stack([params.beta * m[:, 1], -params.beta * m[:, 0],
                          params.mu * m[:, 2] - params.h], axis=1)
            g = lap - f
            ulp = np.spacing(np.abs(g).max() * (1 + params.alpha) / (1 + params.alpha ** 2))
            for previous in (previous_ll_rhs, _previous_ll_rhs_row_form):
                assert np.abs(got - previous(m, lap, params)).max() <= 16 * ulp


def test_gilbert_form_equivalence(rng):
    grid = Grid1D(2 * np.pi, 256)
    for _ in range(10):
        params = random_params(rng)
        fld = random_smooth_field(rng, grid)
        mdot = rhs_landau_lifshitz(fld, params, method="spectral")
        res = gilbert_residual(fld, mdot, params, method="spectral")
        assert np.max(np.abs(res)) < 1e-10


def test_rotation_equivariance_of_rhs(rng, grid):
    params = random_params(rng)
    fld = random_smooth_field(rng, grid)
    ang = 0.77
    rotated = MagnetizationField(grid, rotate_about_e3(fld.values, ang))
    lhs = rhs_landau_lifshitz(rotated, params)
    rhs = rotate_about_e3(rhs_landau_lifshitz(fld, params), ang)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_energy_of_uniform_state(grid):
    params = ModelParams(1.0, 0.0, 2.0, 0.5)
    values = np.tile([0.0, 0.0, 1.0], (grid.n, 1))
    fld = MagnetizationField(grid, values)
    # E = (mu/2 - h) * L for m = +e3
    expected = (0.5 * params.mu - params.h) * grid.length
    assert abs(energy(fld, params) - expected) < 1e-12


def test_energy_and_dissipation_of_uniform_tilted_state():
    grid = Grid1D(3.0, 31)
    params = ModelParams(0.7, 0.0, 2.0, 0.5)
    theta0 = 0.4
    values = np.tile([math.sin(theta0), 0.0, math.cos(theta0)], (grid.n, 1))
    fld = MagnetizationField(grid, values)
    m3 = math.cos(theta0)
    expected = (0.5 * params.mu * m3 ** 2 - params.h * m3) * grid.length
    assert energy(fld, params) == pytest.approx(expected, rel=1e-13)
    # a constant |dm/dt|^2 = c^2 decays the energy at -alpha * c^2 * L
    c = 0.3
    mdot = np.zeros((grid.n, 3))
    mdot[:, 0] = c
    rate = dissipation_rate(fld, mdot, params)
    assert rate == pytest.approx(-params.alpha * c ** 2 * grid.length, rel=1e-13)


def _layouts(values):
    """values C-ordered, F-ordered, and as a strided view of a larger array."""
    wide = np.empty((len(values), 6))
    wide[:, ::2] = values
    return values, np.asfortranarray(values), wide[:, ::2]


@pytest.mark.parametrize("n", [3, 4, 64, 1024])
def test_reductions_equal_previous_expressions_bytewise(rng, n):
    # energy's |m_x|^2, the norm drift and _norms against the expressions they replace;
    # bytes, not values, so that a signed zero counts
    grid = Grid1D(2 * np.pi, n)
    params = random_params(rng)
    scaled = random_smooth_field(rng, grid).values * rng.uniform(0.5, 2.0, size=(n, 1))
    for field in (scaled, signed_zero_field(rng, n)):
        for values in _layouts(field):
            fld = MagnetizationField(grid, values)
            drift = np.max(np.abs(np.linalg.norm(values, axis=1) - 1.0))
            assert np.float64(fld.norm_drift()).tobytes() == drift.tobytes()
            assert np.float64(_norm_drift(values.T)).tobytes() == drift.tobytes()
            for m in (values.T, np.ascontiguousarray(values.T)):
                assert _norms(m).tobytes() == np.linalg.norm(m, axis=0).tobytes()
            for method in ("fd", "spectral"):
                mx = first_derivative(values, grid, method)
                m3 = values[:, 2]
                density = 0.5 * (np.sum(mx ** 2, axis=1) + params.mu * m3 ** 2) - params.h * m3
                want = np.float64(_integrate(density, grid))
                assert np.float64(energy(fld, params, method)).tobytes() == want.tobytes()


def test_dissipation_rate_requires_variational_case(rng, grid):
    fld = random_smooth_field(rng, grid)
    params = ModelParams(1.0, 0.0, 1.0, 0.2)
    mdot = rhs_landau_lifshitz(fld, params)
    rate = dissipation_rate(fld, mdot, params)
    assert rate <= 0.0
    with pytest.raises(ValueError):
        dissipation_rate(fld, mdot, ModelParams(1.0, 0.5, 1.0, 0.2))


def test_stereographic_errors_at_south_pole(grid):
    values = np.tile([0.0, 0.0, -1.0], (grid.n, 1))
    fld = MagnetizationField(grid, values)
    with pytest.raises(SouthPoleError):
        stereographic(fld)


def test_stereographic_of_equator(grid):
    values = np.tile([1.0, 0.0, 0.0], (grid.n, 1))
    zeta = stereographic(MagnetizationField(grid, values))
    assert np.allclose(zeta, 1.0)


def test_field_shape_validation(grid):
    with pytest.raises(ValueError):
        MagnetizationField(grid, np.zeros((grid.n, 2)))


@pytest.mark.parametrize("n", [3, 64, 100, 1024])
@pytest.mark.parametrize("count", [1, 3, 9, 32])
def test_staggered_arrays_start_on_lines_spread_over_the_page(n, count):
    shapes = ([(9, n), (n,), (3, n)] * count)[:count]
    arrays = _staggered(*shapes)
    assert [a.shape for a in arrays] == shapes
    assert all(a.flags.c_contiguous and a.flags.writeable and a.dtype == float for a in arrays)
    starts = [a.ctypes.data for a in arrays]
    assert all(s % 64 == 0 for s in starts)
    assert all(a.ctypes.data + a.nbytes <= b for a, b in zip(arrays, starts[1:]))  # in order
    spread = 4096 // count // 64 * 64
    assert all((b - starts[0]) % 4096 == j * spread for j, b in enumerate(starts))
    gaps = [b - (a.ctypes.data + a.nbytes) for a, b in zip(arrays, starts[1:])]
    assert all(0 <= gap < 4096 for gap in gaps)
    if n == 1024:  # sizes are whole pages, so each gap is the spread
        assert gaps == [spread] * (count - 1)
