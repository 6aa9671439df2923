"""Coherent structures: profiles m = e^{i(phi(x-st) + Omega t)} m0(x-st).

The profile (theta, p = theta', q = phi') solves a three-dimensional ODE in
xi = x - s t.  Stationary structures (s = 0) at resonance Omega = beta/alpha
reduce to a pendulum with first integral C = q sin(theta)^2; fast fronts
(|s| >> 1) live near a one-dimensional slow manifold; small-amplitude
structures bifurcate from the poles in a pitchfork.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _ode
from .errors import (ConfigError, ConvergenceError, NoLocalBifurcation, PoleSingularityError,
                     SpeedTooLow)
from .model import ModelParams, _unit_vectors
from .wavetrains import wavetrain_at

SIN_TOL = 1e-8
FRONT_TARGET_TOL = 1e-4  # a fast-front shot ends this close to its target theta


@dataclass(frozen=True)
class CoherentAnsatz:
    """Profile speed s and azimuthal frequency Omega of the ansatz."""

    s: float
    Omega: float

    def q_selected(self, params: ModelParams) -> float:
        """Steady-state wavenumber (Omega - beta/alpha)/s enforced for s != 0."""
        if self.s == 0.0:
            raise ConfigError("selected wavenumber requires s != 0")
        return (self.Omega - params.beta / params.alpha) / self.s


def ode_rhs(state, params: ModelParams, ansatz: CoherentAnsatz) -> np.ndarray:
    """Right-hand side of the coherent-structure ODE in (theta, p, q)."""
    theta, p, q = state
    st = math.sin(theta)
    if abs(st) <= SIN_TOL:
        raise PoleSingularityError(
            f"sin(theta) = {st:.2e} at theta = {theta}; use the desingularized system"
        )
    ct = math.cos(theta)
    s, Omega = ansatz.s, ansatz.Omega
    return np.array(
        [
            p,
            st * (params.h + (q * q - params.mu) * ct - (Omega - s * q)) + params.alpha * s * p,
            params.alpha * (Omega - s * q) - params.beta + (s - 2 * ct * q) * p / st,
        ]
    )


def dode_rhs(state, params: ModelParams, ansatz: CoherentAnsatz) -> np.ndarray:
    """Desingularized system in (theta, p_tilde, q); smooth through the poles."""
    theta, pt, q = state
    st, ct = math.sin(theta), math.cos(theta)
    s, Omega = ansatz.s, ansatz.Omega
    return np.array(
        [
            st * pt,
            params.h + (q * q - params.mu) * ct - (Omega - s * q)
            + params.alpha * s * pt - ct * pt * pt,
            params.alpha * (Omega - s * q) - params.beta + (s - 2 * ct * q) * pt,
        ]
    )


def dode_jacobian(state, params: ModelParams, ansatz: CoherentAnsatz) -> np.ndarray:
    """Jacobian of dode_rhs; at p_tilde = 0 it is the small-amplitude
    linearization (Omega does not enter)."""
    theta, pt, q = state
    st, ct = math.sin(theta), math.cos(theta)
    s = ansatz.s
    a = params.alpha
    return np.array(
        [
            [ct * pt, st, 0.0],
            [-(q * q - params.mu) * st + st * pt * pt, a * s - 2 * ct * pt, 2 * q * ct + s],
            [2 * st * q * pt, s - 2 * ct * q, -a * s - 2 * ct * pt],
        ]
    )


@dataclass
class CoherentProfile:
    """Sampled profile trajectory with its ansatz data."""

    xi: np.ndarray
    theta: np.ndarray
    p: np.ndarray
    q: np.ndarray
    ansatz: CoherentAnsatz
    meta: dict = field(default_factory=dict)

    def phi(self) -> np.ndarray:
        """Azimuth phi(xi) = integral of q by the trapezoid rule, zero at the left end."""
        q = self.q
        return np.concatenate([[0.0], np.cumsum(np.diff(self.xi) * (q[1:] + q[:-1]) / 2.0)])

    def magnetization(self) -> np.ndarray:
        """(n, 3) magnetization samples of the profile at t = 0."""
        return _unit_vectors(self.theta, self.phi())


def lift_to_ode(profile: CoherentProfile) -> CoherentProfile:
    """Map a desingularized profile to (theta, p, q) via p = sin(theta) p_tilde."""
    return CoherentProfile(
        xi=profile.xi,
        theta=profile.theta,
        p=np.sin(profile.theta) * profile.p,
        q=profile.q,
        ansatz=profile.ansatz,
        meta=dict(profile.meta, lifted=True),
    )


# ---------------------------------------------------------------------------
# Stationary structures (s = 0, Omega = beta/alpha)
# ---------------------------------------------------------------------------


def stationary_first_integral(theta0: float, q0: float) -> float:
    """C = q0 sin(theta0)^2, the (signed) first integral at resonance."""
    st = math.sin(theta0)
    if abs(st) <= SIN_TOL:
        raise PoleSingularityError("first integral undefined at the poles")
    return st * st * q0


def _pendulum(theta, C, params, Omega):
    """(P, P', -P'') of `potential` at theta, a float or an array, without its
    pole barriers; the force slope -P'' is > 0 at a saddle, < 0 at a center."""
    # math on a float: the homoclinic ODE passes thousands.  On an array,
    # np.float_power is libm's pow, as ** is on a float; numpy's ** can differ by an ulp
    sin, cos, power = ((np.sin, np.cos, np.float_power) if isinstance(theta, np.ndarray)
                       else (math.sin, math.cos, pow))
    st, ct = sin(theta), cos(theta)
    dh = params.h - Omega
    P = ct * (dh - 0.5 * params.mu * ct)
    slope = ct * (dh - params.mu * ct) + params.mu * st * st
    if C != 0.0:
        cot = ct / st
        P = P + 0.5 * C * C * cot * cot
        # derivative of C^2 cos/sin^3: (-sin^4 - 3 cos^2 sin^2)/sin^6 = -(1+2cos^2)/sin^4
        slope = slope - C * C * (1.0 + 2.0 * ct * ct) / power(st, 4)
    return P, _potential_derivative(st, ct, C, params, Omega, power), slope


def _potential_derivative(st, ct, C, params, Omega, power):
    """P' from st = sin(theta) and ct = cos(theta).  `pendulum_force` calls it
    alone, without the force slope -P'' and its second pow."""
    dP = -st * (params.h - Omega - params.mu * ct)
    return dP if C == 0.0 else dP - C * C * ct / power(st, 3)


def potential(theta: float, C: float, params: ModelParams, Omega: float):
    """Pendulum potential P(theta) and its derivative.

    P = cos(theta)(h - Omega - mu/2 cos(theta)) + C^2 cot(theta)^2 / 2, so
    that theta'' = -P'(theta) is the reduced stationary equation.  With
    C != 0 the potential has infinite barriers at multiples of pi.
    """
    if C != 0.0 and abs(math.sin(theta)) <= SIN_TOL:
        return math.inf, math.inf
    return _pendulum(theta, C, params, Omega)[:2]


def pendulum_force(theta: float, C: float, params: ModelParams, Omega: float) -> float:
    """theta'' = force(theta); equals -dP/dtheta (-inf at a pole barrier)."""
    st = math.sin(theta)
    if C != 0.0 and abs(st) <= SIN_TOL:
        return -math.inf
    return -_potential_derivative(st, math.cos(theta), C, params, Omega, pow)


@dataclass
class StationaryEquilibrium:
    theta: float
    kind: str  # "saddle" | "center" | "degenerate"
    level: float  # potential value (saddle energy)


@dataclass
class Connection:
    kind: str  # "homoclinic" | "heteroclinic"
    theta_from: float
    theta_to: float
    side: str  # "left" | "right"
    level: float


@dataclass
class StationaryPortrait:
    equilibria: list
    connections: list
    note: str = ""


def _off_resonance(params, Omega):  # the pendulum reduction needs Omega = beta/alpha
    return abs(Omega - params.beta / params.alpha) > 1e-12


def _force_vanishes(params, Omega, C):  # the force is then identically zero
    return C == 0.0 and params.mu == 0.0 and params.h == Omega


def _equilibrium(theta, C, params, Omega):
    """The equilibrium at theta, classified by the sign of the force slope."""
    P, _, slope = _pendulum(theta, C, params, Omega)
    kind = "degenerate" if abs(slope) < 1e-12 else "saddle" if slope > 0 else "center"
    return StationaryEquilibrium(theta, kind, P)


def stationary_equilibria(params: ModelParams, Omega: float, C: float):
    """Equilibria of the reduced stationary pendulum on (0, pi), plus the
    poles when C = 0 (domain then the full circle); none if the force is 0.
    brentq polishes each sign change of the force on a 2001-point grid."""
    if _force_vanishes(params, Omega, C):
        return []
    roots = [0.0, math.pi] if C == 0.0 else []
    grid = np.linspace(1e-6, math.pi - 1e-6, 2001)
    force = -_pendulum(grid, C, params, Omega)[1]
    for i in np.flatnonzero((force[:-1] == 0.0) | (force[:-1] * force[1:] < 0.0)):
        roots.append(grid[i] if force[i] == 0.0 else _ode.brentq(
            lambda t: pendulum_force(t, C, params, Omega), grid[i], grid[i + 1]))
    return sorted((_equilibrium(t, C, params, Omega) for t in roots), key=lambda e: e.theta)


def stationary_portrait(params: ModelParams, Omega: float, C: float) -> StationaryPortrait:
    """Equilibria and connection structure of the stationary reduction.

    Connections are read off the equilibrium levels.  The equilibria are
    sorted around the pendulum's domain: the circle for C = 0, where each
    interior equilibrium appears again at its mirror -theta, and otherwise
    the interval (0, pi) closed by the infinite pole barriers.  From each
    saddle, in each direction, the walk stops at the first equilibrium that
    is a saddle at the same level (|difference| <= 1e-9), giving a
    heteroclinic to that position, or that lies above the saddle's level,
    is the saddle itself after a full loop, or is a pole barrier, giving a
    homoclinic.

    Off resonance (Omega != beta/alpha) there are no equilibria and no
    bounded coherent structures; see monotone_drift_check.
    """
    if _off_resonance(params, Omega):
        return StationaryPortrait([], [], "no equilibria: Omega != beta/alpha")
    if _force_vanishes(params, Omega, C):
        return StationaryPortrait([], [],
                                  "force vanishes identically: every theta is an equilibrium")
    eqs = stationary_equilibria(params, Omega, C)
    ring = [(e.theta, e.kind, e.level) for e in eqs]
    if C == 0.0:
        ring = [(-t, kind, lev) for t, kind, lev in reversed(ring) if 0.0 < t < math.pi] + ring
    else:
        ring = [(0.0, "barrier", math.inf)] + ring + [(math.pi, "barrier", math.inf)]
    connections = []
    for i, (theta, kind, level) in enumerate(ring):
        if kind != "saddle" or theta < 0.0:  # start once per saddle, not at a mirror
            continue
        for side, step in (("right", 1), ("left", -1)):
            conn, to = "homoclinic", theta
            j = (i + step) % len(ring)
            while j != i:
                pos, kind_j, level_j = ring[j]
                if kind_j == "saddle" and abs(level_j - level) <= 1e-9:
                    conn, to = "heteroclinic", pos
                    break
                if level_j > level + 1e-12:
                    break
                j = (j + step) % len(ring)
            connections.append(Connection(conn, theta, to, side, level))
    return StationaryPortrait(eqs, connections)


def integrate_stationary(
    params: ModelParams,
    Omega: float,
    theta0: float,
    p0: float,
    q0: float,
    xi_span: float,
) -> CoherentProfile:
    """Integrate the full stationary system (s = 0) in (theta, p, q)."""
    ansatz = CoherentAnsatz(0.0, Omega)
    sol = _ode.solve_ivp(
        lambda t, y: ode_rhs(y, params, ansatz),
        (0.0, xi_span),
        [theta0, p0, q0],
        rtol=1e-12,
        atol=1e-12,
    )
    if not sol.success:
        raise ConvergenceError(f"stationary integration failed: {sol.message}")
    xi = np.linspace(0.0, xi_span, 2000)
    theta, p, q = sol.sol(xi)
    return CoherentProfile(xi, theta, p, q, ansatz)


@dataclass
class HomoclinicResult:
    profiles: list  # one per homoclinic side
    saddle_theta: float
    saddle_q: float
    degenerate: bool = False
    note: str = ""


def stationary_homoclinic(params: ModelParams, Omega: float, C: float) -> HomoclinicResult | None:
    """Homoclinic profiles to the stable wavetrain on q = C/sin^2, one per
    homoclinic side.

    The saddle and its sides are the interior homoclinic connections of
    `stationary_portrait`, at the saddle of largest sin(theta) (the smaller-q
    intersection of the curve C with the wavetrain curve).  Returns None if
    there are none: all profiles periodic, a force identically 0, or C = 0,
    where an interior saddle joins its mirror by domain walls.  A tangential
    intersection is reported as degenerate.  Off resonance (Omega !=
    beta/alpha) the reduction fails: a ConfigError.
    """
    if _off_resonance(params, Omega):
        raise ConfigError(f"homoclinic profiles need Omega = beta/alpha, got Omega = {Omega}")
    portrait = stationary_portrait(params, Omega, C)
    e = next((e for e in portrait.equilibria
              if e.kind == "degenerate" and 0.0 < e.theta < math.pi), None)
    if e is not None:
        return HomoclinicResult([], e.theta, C / math.sin(e.theta) ** 2, degenerate=True,
                                note="tangential intersection (sideband-degenerate)")
    loops = [c for c in portrait.connections
             if c.kind == "homoclinic" and 0.0 < c.theta_from < math.pi]
    if not loops:
        return None
    # smaller q on q = C/sin^2(theta) means sin(theta) largest
    ths = max((c.theta_from for c in loops), key=math.sin)
    lam = math.sqrt(max(_pendulum(ths, C, params, Omega)[2], 0.0))
    profiles = [_integrate_reduced(params, Omega, C, ths, lam, 1.0 if c.side == "right" else -1.0)
                for c in loops if c.theta_from == ths]
    return HomoclinicResult(profiles, ths, C / math.sin(ths) ** 2)


def _integrate_reduced(params, Omega, C, ths, lam, sgn):
    """Half-orbit from the saddle ths (rate lam) on side sgn to the turning point p = 0,
    completed by the reversibility (xi, theta, p) -> (2 xi_t - xi, theta, -p) of the pendulum."""
    delta = min(1e-6 / (1.0 + lam), 1e-8)

    def rhs(_, y):
        return [y[1], pendulum_force(y[0], C, params, Omega)]

    def turning(_, y):
        return y[1]

    turning.terminal = True
    turning.direction = -sgn

    sol = _ode.solve_ivp(
        rhs, (0.0, 400.0), [ths + sgn * delta, sgn * lam * delta], rtol=1e-12, atol=1e-12,
        events=turning, max_step=0.5,
    )
    if not len(sol.t_events[0]):
        raise ConvergenceError("no turning point found; orbit is not a homoclinic loop")
    xi_t = sol.t_events[0][0]
    half = np.linspace(0.0, xi_t, 1000)
    y = sol.sol(half)
    xi = np.concatenate([half, 2 * xi_t - half[-2::-1]])
    theta = np.concatenate([y[0], y[0][-2::-1]])
    p = np.concatenate([y[1], -y[1][-2::-1]])
    q = C / np.sin(theta) ** 2
    return CoherentProfile(xi, theta, p, q, CoherentAnsatz(0.0, Omega), {"C": C})


@dataclass
class DriftReport:
    monotone: bool
    expected_sign: float
    q_crossed_zero: bool
    crossing_xi: float | None
    Q_values: np.ndarray
    xi: np.ndarray


def monotone_drift_check(params: ModelParams, Omega: float) -> DriftReport:
    """Verify Q = log(|q| sin^2 theta) drifts monotonically off resonance.

    Along the stationary system with Omega != beta/alpha, Q' = (alpha*Omega
    - beta)/q has constant sign while q keeps its sign, so no bounded
    coherent structures exist.  The orbit starts at (theta, p, q) =
    (1.2, 0, 0.5) and runs for xi <= 30.
    """
    ansatz = CoherentAnsatz(0.0, Omega)

    def qzero(_, y):
        return y[2]

    qzero.terminal = True
    sol = _ode.solve_ivp(
        lambda t, y: ode_rhs(y, params, ansatz),
        (0.0, 30.0),
        [1.2, 0.0, 0.5],
        rtol=1e-11,
        atol=1e-11,
        events=qzero,
    )
    xi = np.linspace(0.0, sol.t[-1], 1500)
    y = sol.sol(xi)
    Q = np.log(np.abs(y[2]) * np.sin(y[0]) ** 2)
    dQ = np.diff(Q)
    expected = math.copysign(1.0, params.alpha * Omega - params.beta)  # q0 = 0.5 > 0
    return DriftReport(
        monotone=bool(np.all(expected * dQ > 0)),
        expected_sign=expected,
        q_crossed_zero=len(sol.t_events[0]) > 0,
        crossing_xi=float(sol.t_events[0][0]) if len(sol.t_events[0]) else None,
        Q_values=Q,
        xi=xi,
    )


# ---------------------------------------------------------------------------
# Fast fronts (|s| >> 1)
# ---------------------------------------------------------------------------


def superslow_flow(theta: float, params: ModelParams, Omega1: float) -> float:
    """Leading-order flow on the slow manifold, in the stretched variable
    eta = xi/s."""
    a = params.alpha
    return (
        a / (1 + a * a)
        * math.sin(theta)
        * (params.h - params.beta / a + (Omega1 * Omega1 - params.mu) * math.cos(theta))
    )


def pole_q_first_order(params: ModelParams, Omega0: float, Omega1: float,
                       s: float, theta0: float) -> float:
    """First-order asymptotic wavenumber at the pole theta0:
    q = Omega1 + (Omega0 - (h + alpha*beta - sigma*mu)/(1+alpha^2))/s."""
    sigma = math.cos(theta0)
    a = params.alpha
    corr = Omega0 - (params.h + a * params.beta - sigma * params.mu) / (1 + a * a)
    return Omega1 + corr / s


@dataclass
class FastFront:
    profile: CoherentProfile  # desingularized coordinates (theta, p_tilde, q)
    theta_start: float
    theta_end: float
    q_start: float
    q_end: float
    max_dtheta: float
    tube_constant: float  # s * max(|p_tilde| + |q - Omega1|)


@dataclass
class FastFrontResult:
    fronts: list
    interior_theta: float | None
    converged: bool
    note: str = ""


def fast_heteroclinic(
    params: ModelParams,
    Omega0: float,
    Omega1: float,
    s: float,
) -> FastFrontResult:
    """Shoot the pair of front profiles along the slow manifold.

    One front is attached to theta = 0, the other to theta = pi.  When the
    wavetrain equilibrium theta_1 exists for the selected wavenumber, the
    fronts connect each pole with theta_1; otherwise they run from pole to
    pole.  Shooting starts 1e-8 from the pole along the slow manifold and
    terminates on entering a FRONT_TARGET_TOL ball of the target.
    """
    Omega = Omega0 + Omega1 * s
    ansatz = CoherentAnsatz(s, Omega)
    wt = wavetrain_at(params, ansatz.q_selected(params))
    interior = wt.theta if wt is not None and 0 < wt.theta < math.pi else None

    fronts = []
    notes = []
    for theta0 in (0.0, math.pi):
        try:
            fronts.append(_shoot_from_pole(params, ansatz, Omega1, theta0, interior))
        except ConvergenceError as exc:
            notes.append(str(exc))
    return FastFrontResult(fronts, interior, not notes, "; ".join(notes))


def slaved_fast_variables(params, ansatz, theta):
    """(p_tilde, q) on the slow manifold at frozen theta, a float or an array.

    Solves the two fast equations of the desingularized system with theta
    held fixed; this adiabatic slaving parametrizes M_eps up to O(1/s^2)
    (the neglected terms dp_tilde/dxi, dq/dxi are of that order).  With
    c = cos(theta), the q-equation gives p_tilde = (beta - alpha (Omega -
    s q))/(s - 2 q c), which leaves one scalar equation in q:
        g(q) = h + (q^2 - mu) c - (Omega - s q) + alpha s p_tilde - c p_tilde^2 = 0,
    solved by Newton's method from the leading-order q = Omega/s at every
    theta at once.  Raises ConvergenceError ("slow manifold breaks down")
    when s - 2 q c or the Newton derivative reaches 0, when Newton does not
    converge in 50 steps, or when the residual of a fast equation exceeds 1e-9.
    A float theta gives np.float64 results.
    """
    a, s, Omega = params.alpha, ansatz.s, ansatz.Omega
    array = isinstance(theta, np.ndarray)
    # A float theta iterates on Python floats, whose +, -, * and / round as
    # np.float64's do without numpy's per-operation cost: the fast-front shot
    # passes thousands.  np.cos stays, as math.cos may differ by an ulp.
    c = np.cos(theta) if array else float(np.cos(theta))
    any_, all_ = (np.any, np.all) if array else (bool, bool)
    q = 0.0 * c + (Omega / s if s else 0.0)  # shaped like theta
    converged = False
    for _ in range(50):
        den = s - 2.0 * q * c
        if any_(den == 0.0):
            raise ConvergenceError("slow manifold breaks down (s too small?): s - 2 q c = 0")
        pt = (params.beta - a * (Omega - s * q)) / den
        g = params.h + (q * q - params.mu) * c - (Omega - s * q) + a * s * pt - c * pt * pt
        if converged:  # (pt, g) at the last iterate
            break
        slope = s + 2.0 * q * c + (a * s - 2.0 * c * pt) * (a * s + 2.0 * c * pt) / den
        if any_(slope == 0.0):  # a float division by 0 raises; numpy's steps to inf
            raise ConvergenceError("slow manifold breaks down: Newton derivative 0")
        step = g / slope
        q = q - step
        converged = all_(abs(step) <= 1e-13 * (1.0 + abs(q)))
    else:
        raise ConvergenceError("slow manifold breaks down (s too small?): Newton did not converge")
    residual = abs(g).max() if array else abs(g)  # the q-equation holds by construction of pt
    if residual > 1e-9:
        raise ConvergenceError(f"slow manifold breaks down: residual {residual:.1e}")
    return (pt, q) if array else (np.float64(pt), np.float64(q))


def _shoot_from_pole(params, ansatz, Omega1, theta0, interior):
    """Shoot along the slow manifold from the pole equilibrium.

    The fast transverse directions are a saddle (+-s*sqrt(1+alpha^2)), so a
    raw initial-value shot is exponentially ill-conditioned; instead the
    shot integrates the scalar flow theta' = sin(theta) * p_tilde with the
    fast variables slaved to the manifold at every step.
    """
    into = 1.0 if theta0 == 0.0 else -1.0
    theta_probe = theta0 + into * 1e-3
    drift = math.sin(theta_probe) * slaved_fast_variables(params, ansatz, theta_probe)[0]
    sign = 1 if drift * into > 0 else -1  # +1: the pole repels along M_eps in forward xi
    target_theta = interior if interior is not None else math.pi - theta0

    def rhs(_, y):
        return [sign * math.sin(y[0]) * slaved_fast_variables(params, ansatz, y[0])[0]]

    def near_target(_, y):
        return abs(y[0] - target_theta) - FRONT_TARGET_TOL

    near_target.terminal = True
    near_target.direction = -1

    xi_max = 80.0 * abs(ansatz.s) * (1 + params.alpha ** 2) / params.alpha
    sol = _ode.solve_ivp(
        rhs,
        (0.0, xi_max),
        [theta0 + into * 1e-8],
        rtol=1e-11,
        atol=1e-13,
        events=near_target,
    )
    if not len(sol.t_events[0]):
        raise ConvergenceError(
            f"shot from theta0={theta0} did not reach theta={target_theta:.4f} "
            f"within xi={xi_max:.0f}"
        )
    tau = np.linspace(0.0, sol.t_events[0][0], 3000)[::sign]  # xi = sign * tau increases
    theta = sol.sol(tau)[0]
    xi = sign * tau
    pole, far = (0, -1) if sign > 0 else (-1, 0)  # tau = 0 sits at the pole
    pts, qs = slaved_fast_variables(params, ansatz, theta)
    # adiabatic defect: the neglected d(p_tilde)/dxi term, O(1/s^2)
    defect = float(np.max(np.abs(np.gradient(pts, xi))))
    profile = CoherentProfile(
        xi, theta, pts, qs, ansatz,
        {"desingularized": True, "adiabatic_defect": defect},
    )
    return FastFront(
        profile=profile,
        theta_start=float(theta[pole]),
        theta_end=float(theta[far]),
        q_start=float(qs[pole]),
        q_end=float(qs[far]),
        max_dtheta=float(np.max(np.abs(np.sin(theta) * pts))),
        tube_constant=float(abs(ansatz.s) * np.max(np.abs(pts) + np.abs(qs - Omega1))),
    )


# ---------------------------------------------------------------------------
# Small-amplitude bifurcation
# ---------------------------------------------------------------------------


@dataclass
class SmallAmplitudeReport:
    q: float
    Omega: float
    det_B: float
    kernel_ok: bool
    branch: str  # "supercritical" | "subcritical"
    center_coefficient: float  # leading form alpha (q^2 - mu)/((1+alpha^2) s)
    center_coefficient_exact: float  # small root of the characteristic cubic


def small_amplitude_bifurcation(params: ModelParams, s: float, theta0: float) -> SmallAmplitudeReport:
    """Pitchfork-type bifurcation data at the pole theta0 in {0, pi}.

    The bifurcation locus is cos(theta0)(q^2 - mu) = beta/alpha - h with the
    selected wavenumber q, subject to the speed bound s^2 > 4 q^2/(1+alpha^2).
    """
    sigma = math.cos(theta0)
    if abs(abs(sigma) - 1.0) > 1e-12:
        raise ConfigError("theta0 must be 0 or pi")
    a = params.alpha
    q2 = params.mu + sigma * (params.beta / a - params.h)
    if abs(q2 - params.mu) < 1e-14 and abs(params.force_balance) < 1e-14:
        raise NoLocalBifurcation(
            "q^2 = mu with h = beta/alpha: no local bifurcation, at most one equilibrium"
        )
    if q2 < 0:
        raise NoLocalBifurcation(f"no real bifurcation wavenumber (q^2 = {q2} < 0)")
    q = math.sqrt(q2)
    if not s * s > 4 * q2 / (1 + a * a):
        raise SpeedTooLow(f"speed bound violated: s^2 = {s*s} <= {4*q2/(1+a*a)}")
    Omega = params.beta / a + s * q
    det_B = 4 * q2 * sigma * sigma - (1 + a * a) * s * s
    A = dode_jacobian([theta0, 0.0, q], params, CoherentAnsatz(s, Omega))
    kern = np.linalg.norm(A @ np.array([1.0, 0.0, 0.0]))
    # center eigenvalue ~ coeff * delta^2; the characteristic cubic
    # lam^3 + (det B - E) lam - E*alpha*s = 0 with E = (mu - q^2) sin^2(delta)
    # gives the exact prefactor; the leading form drops 4 q^2 cos^2(theta0)
    # against (1+alpha^2) s^2.
    coeff = a * (q2 - params.mu) / ((1 + a * a) * s)
    coeff_exact = a * s * (q2 - params.mu) / ((1 + a * a) * s * s - 4 * q2 * sigma * sigma)
    return SmallAmplitudeReport(
        q=q,
        Omega=Omega,
        det_B=det_B,
        kernel_ok=bool(kern < 1e-10),
        branch="supercritical" if q2 < params.mu else "subcritical",
        center_coefficient=coeff,
        center_coefficient_exact=coeff_exact,
    )


def center_eigenvalue(params: ModelParams, s: float, theta0: float, q: float, delta: float) -> float:
    """Smallest-magnitude eigenvalue of the linearization at theta0 + delta."""
    A = dode_jacobian([theta0 + delta, 0.0, q], params, CoherentAnsatz(s, 0.0))
    evals = np.linalg.eigvals(A)
    return float(np.real(evals[np.argmin(np.abs(evals))]))
