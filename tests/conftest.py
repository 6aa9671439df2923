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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def grid():
    return Grid1D(length=2 * np.pi, n=128)
