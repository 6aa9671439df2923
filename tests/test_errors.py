"""Library failures are typed: each bad call raises its own LLGSError subclass."""

import math

import numpy as np
import pytest

from llgs import (Diagnostics, Grid1D, MagnetizationField, ModelParams, PerturbationSpec,
                  SimConfig, e3_eigenvalues, small_amplitude_bifurcation, spectrum_curves,
                  stationary_first_integral, wavetrain_at)
from llgs.errors import ConfigError, LLGSError, NoLocalBifurcation, PoleSingularityError
from llgs.simulate import _perturb

PARAMS = ModelParams(1.0, 0.5, 1.0, 1.0)
GRID = Grid1D(2 * math.pi, 8)


def _e3_field():
    values = np.zeros((GRID.n, 3))
    values[:, 2] = 1.0
    return MagnetizationField(GRID, values)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: e3_eigenvalues(PARAMS, 0, np.linspace(0.0, 1.0, 3)), ConfigError),
        (lambda: spectrum_curves(wavetrain_at(PARAMS, 0.6), PARAMS, 2.0, n_samples=1),
         ConfigError),
        (lambda: spectrum_curves(wavetrain_at(PARAMS, 0.6), PARAMS, math.nan, 4), ConfigError),
        (lambda: spectrum_curves(wavetrain_at(PARAMS, 0.6), PARAMS, 2.0, 4, c_ph=math.inf),
         ConfigError),
        (lambda: wavetrain_at(ModelParams(1.0, 0.0, 1.0, 0.5), math.nan), ConfigError),
        (lambda: wavetrain_at(ModelParams(1.0, 0.0, 1.0, 0.5), math.inf), ConfigError),
        (lambda: wavetrain_at(ModelParams(1.0, 0.0, 1.0, 0.0), math.inf), ConfigError),
        (lambda: Grid1D(2 * math.pi, 64.5), ConfigError),
        (lambda: Grid1D(2 * math.pi, 64.0), ConfigError),
        (lambda: MagnetizationField(GRID, 2.0 * _e3_field().values).check_unit_norm(),
         ConfigError),
        (lambda: SimConfig(dt=0.01, t_final=-1), ConfigError),
        (lambda: Diagnostics(*np.zeros((4, 1))).mean_frequency(), ConfigError),
        (lambda: _perturb(_e3_field(), PerturbationSpec("bogus")), ConfigError),
        (lambda: stationary_first_integral(0.0, 1.0), PoleSingularityError),
        # q^2 = mu + (beta/alpha - h) = -2.5 < 0 at theta0 = 0
        (lambda: small_amplitude_bifurcation(ModelParams(1.0, 0.0, -2.0, 0.5), 2.0, 0.0),
         NoLocalBifurcation),
    ],
    ids=["e3-sign-0", "spectrum-1-sample", "spectrum-ell-max-nan", "spectrum-c-ph-inf",
         "wavetrain-k-nan", "wavetrain-k-inf", "wavetrain-k-inf-h0", "grid-size-fractional",
         "grid-size-float",
         "non-unit-field", "t-final-negative", "frequency-1-sample", "perturbation-unknown",
         "integral-at-pole", "no-bifurcation-wavenumber"],
)
def test_bad_call_raises_its_typed_error(call, error):
    assert issubclass(error, LLGSError)
    with pytest.raises(error):
        call()
