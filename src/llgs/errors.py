"""Exception types shared across the package."""


class LLGSError(Exception):
    """Base class for all package-specific errors."""


class SouthPoleError(LLGSError):
    """Stereographic projection hit the south pole (m3 <= -1)."""

    def __init__(self, index):
        self.index = index
        super().__init__(
            f"stereographic projection undefined at grid index {index} (m3 <= -1)"
        )


class ZeroAmplitudeError(LLGSError):
    """Operation requires a wavetrain with r > 0."""


class PoleSingularityError(LLGSError):
    """Coherent-structure ODE evaluated too close to sin(theta) = 0.

    Use the desingularized system instead.
    """


class CFLError(LLGSError):
    """Explicit time step violates the diffusive stability bound."""


class BlowupError(LLGSError):
    """NaN detected during time stepping.

    Either genuine finite-time blow-up or under-resolution; the two cannot be
    distinguished numerically.
    """


class SpeedTooLow(LLGSError):
    """Profile speed below the small-amplitude bound s^2 > 4 q^2/(1+alpha^2)."""


class NoLocalBifurcation(LLGSError):
    """No small-amplitude bifurcation from the pole for these parameters."""


class ConfigError(LLGSError, ValueError):
    """A bad argument or run setting: a parameter out of its range, a
    wavenumber that leaves theta unspecified or does not fit the domain, an
    unknown option or config key, a value that does not parse.

    The CLI exits with code 2.  It is also a ValueError, so code that
    catches ValueError around an argument check still catches it.
    """


class DegenerateFamilyError(ConfigError):
    """mu = k^2 together with h = beta/alpha: theta is unspecified."""


class CommensurabilityError(ConfigError):
    """Wavenumber does not fit the periodic domain (k*L not a multiple of 2*pi)."""


class ConvergenceError(LLGSError, RuntimeError):
    """A numerical method did not reach its goal: an ODE integration failed,
    a shot missed its target, a root solve did not converge or a fit found
    no window.

    The CLI exits with code 3.  It is also a RuntimeError, so code that
    catches RuntimeError around a solver still catches it.
    """
