import numpy as np
import pytest

from llgs import Grid1D, MagnetizationField, ModelParams


def random_params(rng, supercritical=False):
    """A random parameter set; optionally restricted to mu > |b| > 0."""
    alpha = rng.uniform(0.2, 3.0)
    if supercritical:
        mu = rng.uniform(0.4, 2.5)
        b = rng.uniform(0.02, 0.9) * mu
        beta = rng.uniform(-1.0, 1.0)
        h = b + beta / alpha
    else:
        beta = rng.uniform(-2.0, 2.0)
        mu = rng.uniform(-2.0, 2.0)
        h = rng.uniform(-2.0, 2.0)
    return ModelParams(alpha=alpha, beta=beta, mu=mu, h=h)


def random_smooth_field(rng, grid, n_modes=3):
    """A random smooth unit-norm field built from a few Fourier modes."""
    x = grid.x
    theta = np.full(grid.n, rng.uniform(0.4, 2.7))
    phi = np.zeros(grid.n)
    for _ in range(n_modes):
        j = rng.integers(1, 4)
        k = 2 * np.pi * j / grid.length
        theta = theta + rng.uniform(-0.2, 0.2) * np.cos(k * x + rng.uniform(0, 2 * np.pi))
        phi = phi + rng.uniform(-0.5, 0.5) * np.sin(k * x + rng.uniform(0, 2 * np.pi))
    st, ct = np.sin(theta), np.cos(theta)
    values = np.column_stack([st * np.cos(phi), st * np.sin(phi), ct])
    return MagnetizationField(grid, values)


def signed_zero_field(rng, n):
    """(n, 3) unit vectors +-e1, +-e2 or +-e3 at random, each other component a random +-0.0."""
    values = rng.choice([-0.0, 0.0], size=(n, 3))
    values[np.arange(n), rng.integers(0, 3, size=n)] = rng.choice([-1.0, 1.0], size=n)
    return values


def kernel_operator(params, dt=1.0, dx2=None):
    """The kernel's (3, 7) matrix, written out: the rows lap, 1, m1, m2, m3 to
    s (Lap m - f(m)), with s = -dt/(1 + alpha^2) and f(m) = (beta m2, -beta m1, mu m3 - h).
    With dx2, lap is the neighbour sum and Lap m = (lap - 2 m)/dx2."""
    s = -dt / (1.0 + params.alpha ** 2)
    op = np.zeros((3, 7))
    op[0, 5], op[1, 4] = -s * params.beta, s * params.beta
    op[2, 3], op[2, 6] = s * params.h, -s * params.mu
    scale = s if dx2 is None else s / dx2
    op[0, 0] = op[1, 1] = op[2, 2] = scale
    if dx2 is not None:
        op[0, 4] += -2.0 * scale
        op[1, 5] += -2.0 * scale
        op[2, 6] += -2.0 * scale
    return op


def ll_rhs_vector_form(m, lap, params, dt=1.0, dx2=None):
    """Reference: dt * dm/dt of a (n, 3) array m, with Laplacian term lap, in the kernel's order.

    g' = `kernel_operator` @ (the rows lap, 1, m, stacked C-contiguous), c' = m x g' by
    np.cross, and c' + alpha m x c'.
    """
    operand = np.vstack([lap.T, np.ones(len(m)), m.T])
    c = np.cross(m, (kernel_operator(params, dt, dx2) @ operand).T)
    return c + params.alpha * np.cross(m, c)


def previous_ll_rhs(m, lap, params):
    """Reference: dm/dt in its earlier order, np.cross on (n, 3) arrays, then the scale."""
    f = np.zeros_like(m)
    f[:, 2] = params.mu * m[:, 2] - params.h
    f += params.beta * np.cross(m, np.array([0.0, 0.0, 1.0]))
    mxg = np.cross(m, lap - f)
    return (-mxg - params.alpha * np.cross(m, mxg)) / (1.0 + params.alpha ** 2)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def grid():
    return Grid1D(length=2 * np.pi, n=128)
