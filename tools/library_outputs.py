"""Compute a fixed set of library results and keep them as arrays.

    python3 tools/library_outputs.py SRC OUT.npz
    python3 tools/library_outputs.py --compare A.npz B.npz

The first form imports llgs from the source tree SRC and saves the results of
`simulate` (diagnostics, snapshots, final field) on the hopf and sideband
problems and off their grid sizes (semi-implicit at n = 96, which is not a
power of two, and at n = 192 and 193, the last size the step applies its
operators as dense matrices and the first it takes the FFT; the sideband
problem semi-implicit at n = 1024; and 300 RK4 steps at n = 4096), the
initial fields that `build_wavetrain_initial` and `_perturb` build from the
sideband problem's wavetrain on both branches (unperturbed, sideband, noise)
and from +e3 and -e3 (unperturbed, noise), the equilibrium preset's run
(beta = 0, an exact +e3 field) and 300 RK4 steps with beta = 0, where the
kernel's f holds signed zeros, both spectral
derivatives at n = 64 (1-D and (n, 3) input), `to_spherical`'s phi and
`local_wavenumber` of fields with pole points, `norm_drift` and `energy`
("fd" and "spectral") of F-ordered and strided fields, `mode_amplitudes` on
the sideband problem, `verify_coherent_profile` on a wavetrain, the cohex
homoclinic profile and a lifted fast front, the slow manifold
`slaved_fast_variables` at 801 float theta from pole to pole on the
fast-front preset (the call the fast-front shot makes), two
`integrate_stationary` profiles (sampled from the dense output), two
`monotone_drift_check` runs (its terminal event with dense output; the event
stops one of them), and a portrait sweep: the equilibria, connections and
homoclinic saddle of the stationary reduction on the phaseplane, cohex and
wt-cyl-q presets and 320 random resonant sets, half of them with C = 0, and
both `spectrum_curves` branches with their residuals at c_ph = 0, 1 and -3,
on the cli-sweep's spectrum problem and 40 random wavetrains.  The
second form prints, for each array, "equal" when both files hold the same
bytes (so -0.0 and 0.0 differ), "equal values, other bytes" when only signed
zeros or NaN payloads differ, and otherwise the largest absolute difference;
it exits 1 when any array is not byte-equal or is missing from one file.

One run takes about 10 s and peaks near 200 MB of memory.
"""

from __future__ import annotations

import math
import sys

import numpy as np


def _run(prefix, result, out):
    diag, traj = result.diagnostics, result.trajectory
    out[prefix + "diag_times"] = diag.times
    out[prefix + "norm_drift"] = diag.norm_drift
    out[prefix + "energy"] = diag.energy
    out[prefix + "phi0"] = diag.phi0
    out[prefix + "snap_times"] = traj.times
    out[prefix + "snapshots"] = np.asarray(traj.values)
    out[prefix + "final"] = result.final.values


def _verification(prefix, report, out):
    out[prefix + "times"] = report.times
    out[prefix + "defect"] = report.defect
    out[prefix + "max_defect"] = report.max_defect
    out[prefix + "drift_rate"] = report.drift_rate
    out[prefix + "onset_time"] = math.nan if report.onset_time is None else report.onset_time


KINDS = {name: i for i, name in enumerate(
    ("saddle", "center", "degenerate", "homoclinic", "heteroclinic", "left", "right"))}


def _portrait_sweep(out):
    from llgs import coherent
    from llgs.errors import LLGSError
    from llgs.model import ModelParams

    # (alpha, beta, mu, h), C: the phaseplane-a..d, cohex and wt-cyl-q presets
    cases = [((1.0, 0.0, mu, h), 0.0) for mu, h in ((1.0, 0.5), (0.0, 0.5), (-1.0, 0.5),
                                                     (-1.0, 0.0))]
    cases += [((1.0, 1.0, 7.0, 0.0), 1.0), ((1.0, 0.0, 1.0, -0.5), 0.1)]
    rng = np.random.default_rng(5)
    for i in range(320):
        model = (rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(-4.0, 8.0),
                 rng.uniform(-2.0, 2.0))
        cases.append((model, 0.0 if i % 2 else rng.uniform(-1.5, 1.5)))
    equilibria, connections, saddles, profiles = [], [], [], []
    for n, (model, C) in enumerate(cases):
        params = ModelParams(*model)
        Omega = params.beta / params.alpha
        portrait = coherent.stationary_portrait(params, Omega, C)
        equilibria += [(n, e.theta, KINDS[e.kind], e.level) for e in portrait.equilibria]
        connections += [(n, KINDS[c.kind], c.theta_from, c.theta_to, KINDS[c.side], c.level)
                        for c in portrait.connections]
        try:
            result = coherent.stationary_homoclinic(params, Omega, C)
        except LLGSError:  # recorded as -1
            saddles.append((n, -1.0, math.nan, math.nan))
            continue
        if result is None:
            saddles.append((n, 0.0, math.nan, math.nan))
            continue
        saddles.append((n, 1.0 + result.degenerate, result.saddle_theta, result.saddle_q))
        profiles += [np.concatenate([[n], prof.xi[::100], prof.theta[::100], prof.p[::100]])
                     for prof in result.profiles]
    out["portrait.equilibria"] = np.array(equilibria)
    out["portrait.connections"] = np.array(connections)
    out["portrait.saddles"] = np.array(saddles)
    out["portrait.profiles"] = np.array(profiles)


def _spectrum(out):
    from llgs.model import ModelParams
    from llgs.spectrum import spectrum_curves
    from llgs.wavetrains import wavetrain_at

    # (params, wavetrain, ell_max, n_samples): the cli-sweep's spectrum run, then random
    # wavetrains with r > 0 on ell-grids no coarser than 0.2
    params = ModelParams(1.0, 0.0, 1.0, 0.5)
    cases = [(params, wavetrain_at(params, 0.3), 2.0, 2001)]
    rng = np.random.default_rng(29)
    while len(cases) < 41:
        params = ModelParams(rng.uniform(0.1, 3.0), rng.uniform(-1.0, 1.0),
                             rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0))
        k, ell_max = rng.uniform(0.0, 2.0), rng.uniform(0.05, 8.0)
        wt = wavetrain_at(params, k)
        if wt is not None and wt.r > 0.0:
            cases.append((params, wt, ell_max, math.ceil(ell_max / rng.uniform(0.01, 0.2)) + 1))
    for c_ph in (0.0, 1.0, -3.0):
        rows = []
        for params, wt, ell_max, n in cases:
            b1, b2 = spectrum_curves(wt, params, ell_max, n, c_ph)
            rows.append(np.array([b1.lam, b2.lam, b1.residuals(wt, params, c_ph),
                                  b2.residuals(wt, params, c_ph)]))
        out[f"spectrum-sweep.c_ph{c_ph:g}"] = rows[0]
        out[f"spectrum-random.c_ph{c_ph:g}"] = np.concatenate(rows[1:], axis=1)


def compute() -> dict:
    from llgs import coherent
    from llgs.model import (Grid1D, MagnetizationField, ModelParams, SphericalField, energy,
                            first_derivative, from_spherical, local_wavenumber,
                            second_derivative, to_spherical)
    from llgs.simulate import (PerturbationSpec, SimConfig, _perturb, build_wavetrain_initial,
                               cfl_limit, mode_amplitudes, simulate, verify_coherent_profile)
    from llgs.wavetrains import wavetrain_at

    out = {}
    # the hopf preset's run, long enough for phi0 to wrap several times
    params = ModelParams(1.0, 0.5, 1.0, 1.0)
    grid = Grid1D(2 * math.pi, 64)
    values = np.zeros((grid.n, 3))
    values[:, 2] = 1.0
    initial = _perturb(MagnetizationField(grid, values),
                       PerturbationSpec("noise", amplitude=1e-3, seed=7))
    _run("hopf.", simulate(initial, params, SimConfig(dt=0.005, t_final=40.0)), out)

    # the sideband preset's problem, cut short
    grid = Grid1D(20 * math.pi, 1024)
    wt = wavetrain_at(params, 0.6)
    initial = build_wavetrain_initial(wt, grid, PerturbationSpec("sideband", 0.4, 1e-4))
    result = simulate(initial, params, SimConfig(dt=0.0015, t_final=3.0, integrator="rk4",
                                                 diag_every=100, store_every=100))
    _run("sideband.", result, out)
    out["sideband.mode_amplitudes"] = mode_amplitudes(result.trajectory, 0.4, 0.6)

    # the same problems off the shipped grid sizes
    grid = Grid1D(2 * math.pi, 96)
    values = np.zeros((grid.n, 3))
    values[:, 2] = 1.0
    initial = _perturb(MagnetizationField(grid, values),
                       PerturbationSpec("noise", amplitude=1e-3, seed=11))
    _run("hopf-n96.", simulate(initial, params, SimConfig(dt=0.005, t_final=5.0)), out)
    for n in (192, 193):  # either side of the semi-implicit step's DENSE_MAX_N
        grid = Grid1D(2 * math.pi, n)
        e3 = MagnetizationField(grid, np.tile([0.0, 0.0, 1.0], (n, 1)))
        initial = _perturb(e3, PerturbationSpec("noise", amplitude=1e-3, seed=13))
        _run(f"hopf-n{n}.", simulate(initial, params, SimConfig(dt=0.005, t_final=2.0)), out)
    grid = Grid1D(20 * math.pi, 1024)
    initial = build_wavetrain_initial(wt, grid, PerturbationSpec("sideband", 0.4, 1e-4))
    _run("sideband-semi-implicit.", simulate(initial, params, SimConfig(
        dt=0.01, t_final=3.0, store_every=50)), out)
    grid = Grid1D(20 * math.pi, 4096)
    initial = build_wavetrain_initial(wt, grid, PerturbationSpec("sideband", 0.4, 1e-4))
    _run("sideband-n4096.", simulate(initial, params, SimConfig(
        dt=1e-4, t_final=0.03, integrator="rk4", diag_every=50, store_every=100)), out)

    # the initial fields of every base and perturbation kind: the sideband problem's
    # wavetrain on both branches, and +-e3
    grid = Grid1D(20 * math.pi, 64)
    for branch, lower in (("upper", False), ("lower", True)):
        wt = wavetrain_at(params, 0.6, lower_branch=lower)
        for kind, spec in (("none", None), ("sideband", PerturbationSpec("sideband", 0.4, 1e-4)),
                           ("noise", PerturbationSpec("noise", amplitude=1e-4, seed=3))):
            out[f"initial.wavetrain-{branch}-{kind}"] = build_wavetrain_initial(
                wt, grid, spec).values
    for sign, name in ((1.0, "plus"), (-1.0, "minus")):
        e3 = MagnetizationField(grid, np.tile([0.0, 0.0, sign], (grid.n, 1)))
        for kind, spec in (("none", None), ("noise", PerturbationSpec("noise", amplitude=1e-4,
                                                                      seed=3))):
            out[f"initial.e3-{name}-{kind}"] = _perturb(e3, spec).values

    # beta = 0: the equilibrium preset's exact +e3 field, and an RK4 run off +e3
    e3_grid = Grid1D(2 * math.pi, 64)
    e3 = MagnetizationField(e3_grid, np.tile([0.0, 0.0, 1.0], (e3_grid.n, 1)))
    _run("equilibrium.", simulate(e3, ModelParams(1.0, 0.0, -1.0, 0.9),
                                  SimConfig(dt=0.01, t_final=10.0)), out)
    zero_beta = ModelParams(0.5, 0.0, 1.0, 0.3)
    e3_grid = Grid1D(2 * math.pi, 128)
    e3 = MagnetizationField(e3_grid, np.tile([0.0, 0.0, 1.0], (e3_grid.n, 1)))
    initial = _perturb(e3, PerturbationSpec("noise", amplitude=1e-2, seed=19))
    dt = 0.5 * cfl_limit(e3_grid, zero_beta)
    _run("rk4-zero-beta.", simulate(initial, zero_beta, SimConfig(
        dt=dt, t_final=300 * dt, integrator="rk4", diag_every=20, store_every=100)), out)

    # the spectral derivatives
    grid = Grid1D(2 * math.pi, 64)
    values = np.random.default_rng(23).normal(size=(64, 3))
    for name, derivative in (("first", first_derivative), ("second", second_derivative)):
        out[f"{name}-derivative-spectral.n64"] = derivative(values, grid, "spectral")
        out[f"{name}-derivative-spectral.n64-1d"] = derivative(values[:, 0], grid, "spectral")

    # phi across the poles: a turn over the branch cut right after a pole point,
    # and a field whose first point is a pole
    grid = Grid1D(1.0, 5)
    for name, theta, phi in (("crossing", [1.0, 0.0, 1.0, 1.0, 1.0], [2.9, 0.0, 3.18, 3.3, 3.4]),
                             ("first-pole", [0.0, 1.0, 1.0, 0.0, 1.0], [0.0, 3.0, -3.0, 0.0, -2.9])):
        sph = to_spherical(from_spherical(SphericalField(grid, np.array(theta), np.array(phi))))
        out[f"spherical-{name}.phi"] = sph.phi
        out[f"spherical-{name}.local_wavenumber"] = local_wavenumber(sph)

    # energy and norm_drift on the input layouts simulate never passes them: F-ordered
    # and strided fields, one far off the sphere and one just off it
    rng = np.random.default_rng(17)
    for n in (64, 1024):
        grid = Grid1D(2 * math.pi, n)
        far = rng.normal(size=(n, 3))
        near = far / np.linalg.norm(far, axis=1, keepdims=True) + 1e-9 * rng.normal(size=(n, 3))
        for name, field in (("far", far), ("near", near)):
            wide = np.empty((n, 6))
            wide[:, ::2] = field
            for layout, v in (("C", field), ("F", np.asfortranarray(field)),
                              ("strided", wide[:, ::2])):
                fld = MagnetizationField(grid, v)
                out[f"reductions.n{n}-{name}-{layout}"] = np.array(
                    [fld.norm_drift()] + [energy(fld, params, m) for m in ("fd", "spectral")])

    # a wavetrain as the trivial coherent structure s = 0, Omega = beta/alpha
    xi = np.linspace(-20.0, 20.0, 801)
    wt = wavetrain_at(params, 0.5)
    profile = coherent.CoherentProfile(
        xi=xi, theta=np.full_like(xi, wt.theta), p=np.zeros_like(xi),
        q=np.full_like(xi, wt.k), ansatz=coherent.CoherentAnsatz(0.0, 0.5))
    _verification("verify-wavetrain.",
                  verify_coherent_profile(profile, params, window=1.0, dt=5e-4), out)

    params = ModelParams(1.0, 1.0, 7.0, 0.0)  # the cohex preset
    profile = coherent.stationary_homoclinic(params, 1.0, 1.0).profiles[0]
    _verification("verify-cohex.", verify_coherent_profile(profile, params, window=0.5), out)

    params = ModelParams(1.0, 0.0, 1.0, 0.0)  # the fast-front preset
    front = coherent.fast_heteroclinic(params, 0.0, 0.0, 50.0).fronts[0]
    _verification("verify-fast.", verify_coherent_profile(coherent.lift_to_ode(front.profile),
                                                          params, window=0.01), out)
    ansatz = coherent.CoherentAnsatz(50.0, 0.0)
    out["slaved-fast.float-theta"] = np.array(
        [coherent.slaved_fast_variables(params, ansatz, theta)
         for theta in np.linspace(0.0, math.pi, 801).tolist()])

    # profiles sampled from the integrator's dense output, with and without an event
    for name, (model, Omega, y0) in {"a": ((1.0, 0.0, 1.0, 0.0), 0.0, (1.2, 0.0, 0.5)),
                                     "b": ((0.7, -0.3, -2.5, 1.3), -0.3 / 0.7, (2.0, -0.1, 0.8))
                                     }.items():
        prof = coherent.integrate_stationary(ModelParams(*model), Omega, *y0, xi_span=30.0)
        out[f"stationary-{name}.profile"] = np.array([prof.xi, prof.theta, prof.p, prof.q])
    for name, (model, Omega) in {"crossing": ((1.0, 0.5, 1.0, 0.0), 0.0),
                                 "no-crossing": ((1.0, -0.5, 1.0, 0.0), 0.3)}.items():
        report = coherent.monotone_drift_check(ModelParams(*model), Omega)
        crossing = math.nan if report.crossing_xi is None else report.crossing_xi
        out[f"drift-{name}.Q"] = np.array([report.xi, report.Q_values])
        out[f"drift-{name}.crossing"] = np.array([report.monotone, crossing])
    _portrait_sweep(out)
    _spectrum(out)
    return out


def compare(path_a: str, path_b: str) -> int:
    a, b = np.load(path_a), np.load(path_b)
    status = 0
    for name in sorted(set(a.files) | set(b.files)):
        if name not in a.files or name not in b.files:
            print(f"{name}: only in {path_a if name in a.files else path_b}")
            status = 1
        elif a[name].shape != b[name].shape:
            print(f"{name}: shape {a[name].shape} != {b[name].shape}")
            status = 1
        elif a[name].dtype == b[name].dtype and a[name].tobytes() == b[name].tobytes():
            print(f"{name}: equal")
        elif np.array_equal(a[name], b[name], equal_nan=True):
            print(f"{name}: equal values, other bytes (signed zeros or NaN payloads)")
            status = 1
        else:
            print(f"{name}: max |difference| {np.nanmax(np.abs(a[name] - b[name])):.3e}")
            status = 1
    return status


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.path.insert(0, sys.argv[1])
    np.savez(sys.argv[2], **compute())
