"""Brent's root finder and the DOP853 integrator in numpy: ports of the two
SciPy routines that `llgs.coherent` uses, so that `import llgs` loads no SciPy.

`brentq` is SciPy's C `brentq` line for line (R. P. Brent, *Algorithms for
Minimization without Derivatives*, Prentice-Hall 1973, ch. 4).  `solve_ivp`
is the part of `scipy.integrate.solve_ivp(method="DOP853")` that the call
sites use: the Dormand-Prince 8(5,3) pair with its 7th-order dense output
(E. Hairer, S. P. Norsett and G. Wanner, *Solving Ordinary Differential
Equations I*, 2nd ed., Springer 1993, sec. II.5-6), forward in t, with
scalar rtol and atol, max_step, dense output on every run, and one terminal
event with a direction.

Both keep SciPy's arithmetic operation for operation (the step-size rule,
the error norm, `np.dot` calls on the same array layouts, the dense-output
polynomial), so their results are bit-equal to SciPy's.  The algorithms and
coefficients are from SciPy 1.17 (`optimize/Zeros/brentq.c`, `integrate/_ivp/`),
Copyright (c) 2001-2002 Enthought, Inc. and 2003- SciPy Developers, under the
BSD 3-Clause license.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from .errors import ConfigError, ConvergenceError

EPS = float(np.finfo(float).eps)


def brentq(f, xa, xb, xtol=2e-12, rtol=4 * EPS):
    """A root of f in [xa, xb], where f(xa) and f(xb) differ in sign, within
    xtol + rtol |root| (SciPy's defaults); at most 100 iterations."""
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ConvergenceError(f"brentq: f({xa}) = {fpre} and f({xb}) = {fcur} have one sign")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep xcur the best iterate
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise ConvergenceError(f"brentq did not converge in 100 iterations; last x = {xcur}")


# The DOP853 tableau: the doubles of SciPy's dop853_coefficients.py, each written
# as its shortest literal.  B is a row of A there and here, so every slice below
# has SciPy's memory layout.
N_STAGES, N_STAGES_EXTENDED, INTERPOLATOR_POWER = 12, 16, 7
C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
    1.0, 0.1, 0.2, 0.7777777777777778])
A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
for _row, _cols, _values in [
    (1, [0], [0.05260015195876773]),
    (2, [0, 1], [0.0197250569845379, 0.0591751709536137]),
    (3, [0, 2], [0.02958758547680685, 0.08876275643042054]),
    (4, [0, 2, 3], [0.2413651341592667, -0.8845494793282861, 0.924834003261792]),
    (5, [0, 3, 4], [0.037037037037037035, 0.17082860872947386, 0.12546768756682242]),
    (6, [0, 3, 4, 5], [0.037109375, 0.17025221101954405, 0.06021653898045596, -0.017578125]),
    (7, [0, 3, 4, 5, 6], [0.03709200011850479, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023]),
    (8, [0, 3, 4, 5, 6, 7], [0.6241109587160757, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996]),
    (9, [0, 3, 4, 5, 6, 7, 8], [0.47766253643826434, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486, -0.020331201708508627]),
    (10, [0, 3, 4, 5, 6, 7, 8, 9], [-0.9371424300859873, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505, 2.4936055526796523,
     -3.0467644718982196]),
    (11, [0, 3, 4, 5, 6, 7, 8, 9, 10], [2.273310147516538, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235, -8.87285693353063,
     12.360567175794303, 0.6433927460157636]),
    (12, [0, 5, 6, 7, 8, 9, 10, 11], [0.054293734116568765, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259]),
    (13, [0, 6, 7, 8, 9, 10, 11, 12], [0.056167502283047954, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
     0.007567897660545699, -0.008298]),
    (14, [0, 5, 6, 7, 10, 11, 12, 13], [0.03183464816350214, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325]),
    (15, [0, 5, 6, 7, 8, 12, 13, 14], [-0.42889630158379194, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, -0.0013990241651590145, 2.9475147891527724,
     -9.15095847217987]),
]:
    A[_row, _cols] = _values
B = A[N_STAGES, :N_STAGES]
E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
    0.02265179219836082, 0.0])
E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
    -0.022355307863886294, 0.0])
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))  # F[0:3] are built apart
D[:, [0, *range(5, 16)]] = [
    [-8.428938276109013, 0.5667149535193777, -3.0689499459498917, 2.38466765651207,
     2.117034582445028, -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 242.28349177525817, 165.20045171727028, -374.5467547226902,
     -22.113666853125306, 7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, -387.0373087493518, -189.17813819516758, 527.8081592054236,
     -11.57390253995963, 6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, -154.18974869023643, -231.5293791760455, 357.6391179106141,
     93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564],
]
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10  # step-size factor bounds
ERROR_EXPONENT = -1 / (7 + 1)  # -1/(error estimator order + 1)
MESSAGES = {-1: "Required step size is less than spacing between numbers.",
            0: "The solver successfully reached the end of the integration interval.",
            1: "A termination event occurred."}


def _norm(x):  # RMS norm
    return np.linalg.norm(x) / x.size ** 0.5


class _Segment:
    """Dense output of one step: the 7th-order DOP853 interpolant."""

    def __init__(self, t_old, t, y_old, F):
        self.t_old, self.h, self.y_old, self.F = t_old, t - t_old, y_old, F

    def __call__(self, t):
        t = np.asarray(t)
        x = (t - self.t_old) / self.h
        if t.ndim == 0:
            y = np.zeros_like(self.y_old)
        else:
            x = x[:, None]
            y = np.zeros((len(x), len(self.y_old)), dtype=self.y_old.dtype)
        for i, f in enumerate(reversed(self.F)):
            y += f
            y *= x if i % 2 == 0 else 1 - x
        y += self.y_old
        return y.T


class OdeSolution:
    """The solution over the whole run: each t is read off the segment that
    holds it, the first one at a step end, the end segments beyond the ends."""

    def __init__(self, ts, segments):
        self.ts, self.segments = np.asarray(ts), segments

    def _index(self, t):
        return np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0, len(self.segments) - 1)

    def __call__(self, t):
        t = np.asarray(t)
        if t.ndim == 0:
            return self.segments[self._index(t)](t)
        index = self._index(t)
        y = np.empty((self.segments[0].y_old.size, t.size))
        # the interpolant is elementwise in t; np.unique would import numpy.ma here
        for i in set(index.tolist()):
            y[:, index == i] = self.segments[i](t[index == i])
        return y


class _DOP853:
    """Dormand-Prince 8(5,3) stepper, scipy.integrate.DOP853 going forward."""

    def __init__(self, fun, t0, y0, t_bound, max_step, rtol, atol):
        self.nfev = 0
        self.t, self.y, self.t_bound = t0, np.asarray(y0).astype(float, copy=False), t_bound
        self.max_step, self.rtol, self.atol = max_step, rtol, np.asarray(atol)
        self._fun = fun
        self.f = self.fun(t0, self.y)
        self.h_abs = self._initial_step()
        self.K_extended = np.empty((N_STAGES_EXTENDED, self.y.size))
        self.K = self.K_extended[:N_STAGES + 1]

    def fun(self, t, y):
        self.nfev += 1
        return np.asarray(self._fun(t, y), dtype=float)

    def _initial_step(self):
        """SciPy's select_initial_step (Hairer, Norsett & Wanner, sec. II.4)."""
        t0, y0, f0 = self.t, self.y, self.f
        interval_length = abs(self.t_bound - t0)
        scale = self.atol + np.abs(y0) * self.rtol
        d0, d1 = _norm(y0 / scale), _norm(f0 / scale)
        h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
        h0 = min(h0, interval_length)
        f1 = self.fun(t0 + h0, y0 + h0 * f0)
        d2 = _norm((f1 - f0) / scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1 / (7 + 1))
        return min(100 * h0, h1, interval_length, self.max_step)

    def _error_norm(self, h, scale):
        err5 = np.dot(self.K.T, E5) / scale
        err3 = np.dot(self.K.T, E3) / scale
        err5_norm_2 = np.linalg.norm(err5)**2
        err3_norm_2 = np.linalg.norm(err3)**2
        if err5_norm_2 == 0 and err3_norm_2 == 0:
            return 0.0
        denom = err5_norm_2 + 0.01 * err3_norm_2
        return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))

    def step(self) -> bool:
        """Take one accepted step; False when the step size underflows."""
        t, y, K = self.t, self.y, self.K
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = self.max_step if self.h_abs > self.max_step else max(self.h_abs, min_step)
        step_rejected = False
        while True:
            if h_abs < min_step:
                return False
            t_new = min(t + h_abs, self.t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = self.f
            for s in range(1, N_STAGES):
                dy = np.dot(K[:s].T, A[s, :s]) * h
                K[s] = self.fun(t + C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, B)
            f_new = K[-1] = self.fun(t + h, y_new)
            scale = self.atol + np.maximum(np.abs(y), np.abs(y_new)) * self.rtol
            error_norm = self._error_norm(h, scale)
            if error_norm < 1:
                factor = (MAX_FACTOR if error_norm == 0
                          else min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT))
                h_abs *= min(1, factor) if step_rejected else factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            step_rejected = True
        self.h_previous, self.t_old, self.y_old = h, t, y
        self.t, self.y, self.h_abs, self.f = t_new, y_new, h_abs, f_new
        return True

    def dense_output(self) -> _Segment:
        """The last step's interpolant; it costs three more evaluations."""
        K, h = self.K_extended, self.h_previous
        for s in range(N_STAGES + 1, N_STAGES_EXTENDED):
            dy = np.dot(K[:s].T, A[s, :s]) * h
            K[s] = self.fun(self.t_old + C[s] * h, self.y_old + dy)
        F = np.empty((INTERPOLATOR_POWER, self.y.size))
        f_old = K[0]
        delta_y = self.y - self.y_old
        F[0] = delta_y
        F[1] = h * f_old - delta_y
        F[2] = 2 * delta_y - h * (self.f + f_old)
        F[3:] = h * np.dot(D, K)
        return _Segment(self.t_old, self.t, self.y_old, F)


def solve_ivp(fun, t_span, y0, *, rtol, atol, events=None, max_step=np.inf):
    """Integrate y' = fun(t, y) over t_span = (t0, tf), tf > t0, by DOP853.

    Every step builds its dense output.  `events` is one function
    event(t, y) with `terminal = True` and an optional `direction`; the run
    ends at its first zero crossed in that direction (-1: falling, +1:
    rising, 0: either).  The result has t and y at the step ends, sol (the
    OdeSolution over the run), t_events, nfev, status (-1 failed, 0 reached
    tf, 1 event), message and success, as in a SciPy run with dense output.
    """
    t0, tf = map(float, t_span)
    solver = _DOP853(fun, t0, y0, tf, max_step, rtol, atol)
    ts, ys, segments, t_events = [t0], [solver.y], [], []
    if events is not None:
        if not getattr(events, "terminal", False):
            raise ConfigError("solve_ivp supports one terminal event only")
        direction = getattr(events, "direction", 0)
        g = events(t0, solver.y)
    status = None
    while status is None:
        if not solver.step():
            status = -1
            break
        if solver.t >= tf:
            status = 0
        t, y = solver.t, solver.y
        sol = solver.dense_output()
        segments.append(sol)
        if events is not None:
            g_new = events(t, y)
            if (g <= 0 <= g_new and direction >= 0) or (g >= 0 >= g_new and direction <= 0):
                root = np.float64(brentq(lambda s: events(s, sol(s)), solver.t_old, t,
                                         xtol=4 * EPS, rtol=4 * EPS))
                t_events.append(root)
                status, t, y = 1, root, sol(root)
            g = g_new
        if len(ts) > 1 and ts[-1] == t:  # an event at the last step end
            segments.pop()
        else:
            ts.append(t)
            ys.append(y)
    ts = np.array(ts)
    return SimpleNamespace(
        t=ts, y=np.vstack(ys).T, sol=OdeSolution(ts, segments),
        t_events=[np.asarray(t_events)], nfev=solver.nfev, status=status,
        message=MESSAGES[status], success=status >= 0)
