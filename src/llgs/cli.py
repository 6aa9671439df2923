"""Command-line interface: classify, wavetrains, spectrum, coherent, simulate.

Runs are configured by INI files (section [model] for alpha/beta/mu/h plus a
section per subcommand) or by mirroring flags; every run is deterministic
given its seed.  Output is CSV (default) or JSON.  Exit codes: 0 success,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import importlib.resources
import json
import math
import os
import sys

import numpy as np

from . import coherent
from . import spectrum as spec
from .errors import ConfigError, LLGSError
from .model import Grid1D, MagnetizationField, ModelParams, classify_anisotropy, to_spherical
from .simulate import PerturbationSpec, SimConfig, _perturb, build_wavetrain_initial, simulate
from .wavetrains import e3_eigenvalues, e3_stability, wavetrain_at


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_rows(path, header, rows, fmt):
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_record(path, record):
    text = json.dumps(record, indent=2, default=_json_default) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def preset_path(name: str):
    """Filesystem path of a shipped preset configuration."""
    ref = importlib.resources.files("llgs") / "presets" / f"{name}.cfg"
    if not ref.is_file():
        available = sorted(
            p.name[:-4] for p in (importlib.resources.files("llgs") / "presets").iterdir()
        )
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(available)}")
    return ref


def load_config(source) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    try:
        with open(source) as fh:
            cp.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {source}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {source}: {exc}") from exc
    return cp


def params_from_config(cp, args) -> ModelParams:
    vals = {}
    for name in ("alpha", "beta", "mu", "h"):
        flag = getattr(args, name, None)
        if flag is not None:
            vals[name] = flag
        elif cp is not None and cp.has_option("model", name):
            try:
                vals[name] = cp.getfloat("model", name)
            except ValueError as exc:
                raise ConfigError(f"model.{name} is not a number") from exc
    if "alpha" not in vals:
        raise ConfigError("missing required parameter alpha")
    try:
        return ModelParams(**vals)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _opt(cp, args, section, key, cast=float, default=None, choices=None):
    """A flag, else the config value, else `default`.  A config value outside
    `choices` is a ConfigError, as argparse makes it one for the flag."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if cp is not None and cp.has_option(section, key):
        raw = cp.get(section, key)
        if choices is not None and raw not in choices:
            raise ConfigError(
                f"{section}.{key}: {raw!r} is not one of {', '.join(choices)}"
            )
        try:
            return cast(raw) if cast is not bool else cp.getboolean(section, key)
        except ValueError as exc:
            raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from exc
    return default


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_classify(args, cp):
    params = params_from_config(cp, args)
    regime = classify_anisotropy(params)
    stab = e3_stability(params)
    record = {
        "regime": regime.value,
        "force_balance": params.force_balance,
        "plus_e3_stable": stab.plus_stable,
        "minus_e3_stable": stab.minus_stable,
        "marginal": stab.marginal,
        "hopf_frequency": stab.hopf_frequency,
    }
    write_record(args.out, record)
    return 0


def cmd_wavetrains(args, cp):
    params = params_from_config(cp, args)
    k_min = _opt(cp, args, "wavetrains", "k_min", default=0.0)
    k_max = _opt(cp, args, "wavetrains", "k_max", default=2.0)
    n_k = int(_opt(cp, args, "wavetrains", "n_k", cast=int, default=81))
    report = spec.sideband_wavenumber(params)
    k_star = report.k_star if report.k_star is not None else math.nan
    header = ("k", "theta", "m3", "r", "omega", "stability_class", "k_star")
    rows = []
    for k in np.linspace(k_min, k_max, n_k):
        try:
            wt = wavetrain_at(params, float(k))
        except LLGSError:
            continue
        if wt is None:
            continue
        cls = spec.classify_wavetrain_stability(wt, params)
        rows.append((wt.k, wt.theta, wt.m3, wt.r, wt.omega, cls, k_star))
        if wt.r > 0:
            # mirror theta -> -theta branch, reported with flipped sign
            rows.append((wt.k, -wt.theta, wt.m3, -wt.r, wt.omega, cls, k_star))
    write_rows(args.out, header, rows, args.format)
    return 0


def cmd_spectrum(args, cp):
    params = params_from_config(cp, args)
    k = _opt(cp, args, "spectrum", "k", default=0.0)
    ell_max = _opt(cp, args, "spectrum", "ell_max", default=2.0)
    n_samples = int(_opt(cp, args, "spectrum", "n_samples", cast=int, default=201))
    c_ph = _opt(cp, args, "spectrum", "c_ph", default=0.0)
    wt = wavetrain_at(params, k)
    header = ("ell", "re_lambda_1", "im_lambda_1", "re_lambda_2", "im_lambda_2",
              "residual_1", "residual_2")
    if wt is None or wt.r == 0.0:
        sign = 1 if (params.force_balance / (params.mu - k * k) if params.mu != k * k else 1) >= 0 else -1
        print(
            f"no wavetrain with r > 0 at k = {k}; emitting the {'+' if sign > 0 else '-'}e3 "
            "constant-state spectrum instead",
            file=sys.stderr,
        )
        rows = []
        for ell in np.linspace(0.0, ell_max, n_samples):
            l1, l2 = e3_eigenvalues(params, sign, float(ell))
            rows.append((float(ell), l1.real, l1.imag, l2.real, l2.imag, 0.0, 0.0))
        write_rows(args.out, header, rows, args.format)
        return 0
    b1, b2 = spec.spectrum_curves(wt, params, ell_max, n_samples, c_ph)
    rows = []
    for i, ell in enumerate(b1.ell):
        r1 = abs(spec.dispersion(wt, params, b1.lam[i], 1j * ell, c_ph))
        r2 = abs(spec.dispersion(wt, params, b2.lam[i], 1j * ell, c_ph))
        rows.append((float(ell), b1.lam[i].real, b1.lam[i].imag,
                     b2.lam[i].real, b2.lam[i].imag, r1, r2))
    write_rows(args.out, header, rows, args.format)
    return 0


PROFILE_HEADER = ("xi", "theta", "p", "q", "m1", "m2", "m3")


def _profile_rows(profile):
    m = profile.magnetization()
    return [
        (float(profile.xi[i]), float(profile.theta[i]), float(profile.p[i]),
         float(profile.q[i]), float(m[i, 0]), float(m[i, 1]), float(m[i, 2]))
        for i in range(len(profile.xi))
    ]


def _out_path(out, tag="", ext=None):
    """A file next to --out: its stem plus `tag`, with `ext` or else its own
    extension (.csv when it has none).  None (stdout) stays None."""
    if out is None:
        return None
    stem, own_ext = os.path.splitext(out)
    return f"{stem}{tag}{ext or own_ext or '.csv'}"


def cmd_coherent(args, cp):
    params = params_from_config(cp, args)
    mode = _opt(cp, args, "coherent", "mode", cast=str, default="portrait")
    Omega = _opt(cp, args, "coherent", "omega_freq", default=params.precession_frequency)
    C = _opt(cp, args, "coherent", "c_integral", default=0.0)

    if mode == "portrait":
        portrait = coherent.stationary_portrait(params, Omega, C)
        record = {
            "mode": "portrait",
            "equilibria": [dataclasses.asdict(e) for e in portrait.equilibria],
            "connections": [dataclasses.asdict(c) for c in portrait.connections],
            "note": portrait.note,
        }
        write_record(args.out, record)
        return 0

    if mode == "homoclinic":
        result = coherent.stationary_homoclinic(params, Omega, C)
        if result is None:
            write_record(args.out, {"mode": "homoclinic", "found": False,
                                    "note": "no saddle: all profiles periodic"})
            return 0
        record = {
            "mode": "homoclinic",
            "found": not result.degenerate,
            "degenerate": result.degenerate,
            "saddle_theta": result.saddle_theta,
            "saddle_q": result.saddle_q,
            "note": result.note,
            "profiles": [],
        }
        for i, prof in enumerate(result.profiles, start=1):
            path = _out_path(args.out, f"_{i}")
            write_rows(path, PROFILE_HEADER, _profile_rows(prof), args.format)
            record["profiles"].append(path)
        if args.out is not None:
            write_record(_out_path(args.out, ext=".json"), record)
        return 0

    if mode == "fast":
        Omega0 = _opt(cp, args, "coherent", "omega0", default=0.0)
        Omega1 = _opt(cp, args, "coherent", "omega1", default=0.0)
        s = _opt(cp, args, "coherent", "s", default=50.0)
        result = coherent.fast_heteroclinic(params, Omega0, Omega1, s)
        if not result.converged:
            raise RuntimeError(f"fast-front shooting failed: {result.note}")
        record = {"mode": "fast", "s": s, "interior_theta": result.interior_theta,
                  "fronts": []}
        for i, front in enumerate(result.fronts, start=1):
            lifted = coherent.lift_to_ode(front.profile)
            path = _out_path(args.out, f"_{i}")
            write_rows(path, PROFILE_HEADER, _profile_rows(lifted), args.format)
            record["fronts"].append({
                "file": path,
                "theta_start": front.theta_start,
                "theta_end": front.theta_end,
                "q_start": front.q_start,
                "q_end": front.q_end,
                "q_first_order_start": coherent.pole_q_first_order(
                    params, Omega0, Omega1, s,
                    0.0 if abs(front.theta_start) < 0.5 else math.pi),
                "max_dtheta_dxi": front.max_dtheta,
                "tube_constant": front.tube_constant,
            })
        write_record(_out_path(args.out, ext=".json"), record)
        return 0

    if mode == "small-amplitude":
        s = _opt(cp, args, "coherent", "s", default=2.0)
        theta0 = _opt(cp, args, "coherent", "theta0", default=0.0)
        report = coherent.small_amplitude_bifurcation(params, s, theta0)
        write_record(args.out, dataclasses.asdict(report))
        return 0

    if mode == "drift":
        report = coherent.monotone_drift_check(params, Omega)
        write_record(args.out, {
            "mode": "drift",
            "monotone": report.monotone,
            "expected_sign": report.expected_sign,
            "q_crossed_zero": report.q_crossed_zero,
            "crossing_xi": report.crossing_xi,
        })
        return 0

    raise ConfigError(f"unknown coherent mode {mode!r}")


# values accepted for simulate's integrator, initial and perturbation, by flag or config
INTEGRATORS = ("rk4", "semi-implicit")
INITIALS = ("wavetrain", "e3")
PERTURBATIONS = ("none", "sideband", "noise")


def cmd_simulate(args, cp):
    params = params_from_config(cp, args)
    section = "simulate"
    L = _opt(cp, args, section, "L", default=2 * math.pi)
    n = int(_opt(cp, args, section, "n", cast=int, default=256))
    dt = _opt(cp, args, section, "dt", default=0.01)
    t_final = _opt(cp, args, section, "t_final", default=10.0)
    integrator = _opt(cp, args, section, "integrator", cast=str, default="semi-implicit",
                      choices=INTEGRATORS)
    initial_kind = _opt(cp, args, section, "initial", cast=str, default="wavetrain",
                        choices=INITIALS)
    k = _opt(cp, args, section, "k", default=0.0)
    sign = int(_opt(cp, args, section, "sign", cast=int, default=1))
    pert_kind = _opt(cp, args, section, "perturbation", cast=str, default="none",
                     choices=PERTURBATIONS)
    pert_ell = _opt(cp, args, section, "ell", default=0.0)
    pert_amp = _opt(cp, args, section, "amplitude", default=0.0)
    seed = args.seed if args.seed is not None else int(_opt(cp, args, section, "seed", cast=int, default=0))
    diag_every = int(_opt(cp, args, section, "diag_every", cast=int, default=10))
    store_every = int(_opt(cp, args, section, "store_every", cast=int, default=100))

    grid = Grid1D(L, n)
    pert = PerturbationSpec(pert_kind, pert_ell, pert_amp, seed)
    if initial_kind == "wavetrain":
        wt = wavetrain_at(params, k)
        if wt is None:
            raise ConfigError(f"no wavetrain exists at k = {k} for these parameters")
        initial = build_wavetrain_initial(wt, grid, pert)
    else:  # e3
        if pert.kind == "sideband":
            raise ConfigError("a sideband perturbation needs initial = wavetrain, not e3")
        values = np.zeros((n, 3))
        values[:, 2] = sign
        initial = _perturb(MagnetizationField(grid, values), pert)

    config = SimConfig(dt=dt, t_final=t_final, integrator=integrator,
                           diag_every=diag_every, store_every=store_every)
    result = simulate(initial, params, config)

    diag = result.diagnostics
    rows = [
        (float(t), float(d), float(e), float(p))
        for t, d, e, p in zip(diag.times, diag.norm_drift, diag.energy, diag.phi0)
    ]
    write_rows(args.out, ("t", "norm_drift", "energy", "phi0"), rows, args.format)
    if args.out is not None:
        final = result.final
        sph = to_spherical(final)
        frows = [
            (float(x), float(m[0]), float(m[1]), float(m[2]), float(th), float(q))
            for x, m, th, q in zip(
                grid.x, final.values, sph.theta,
                np.gradient(sph.phi, grid.dx),
            )
        ]
        write_rows(_out_path(args.out, "_final"), ("x", "m1", "m2", "m3", "theta", "q"), frows,
                   args.format)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="llgs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--preset", help="name of a shipped preset config")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, help="seed for randomized perturbations")
        for name in ("alpha", "beta", "mu", "h"):
            p.add_argument(f"--{name}", type=float)

    p = sub.add_parser("classify", help="regime and constant-state stability")
    common(p)

    p = sub.add_parser("wavetrains", help="wavetrain catalog over a k-grid")
    common(p)
    p.add_argument("--k-min", dest="k_min", type=float)
    p.add_argument("--k-max", dest="k_max", type=float)
    p.add_argument("--n-k", dest="n_k", type=int)

    p = sub.add_parser("spectrum", help="essential spectrum branches of a wavetrain")
    common(p)
    p.add_argument("--k", type=float)
    p.add_argument("--ell-max", dest="ell_max", type=float)
    p.add_argument("--n-samples", dest="n_samples", type=int)
    p.add_argument("--c-ph", dest="c_ph", type=float)

    p = sub.add_parser("coherent", help="coherent-structure analysis")
    common(p)
    p.add_argument("--mode", choices=("portrait", "homoclinic", "fast", "small-amplitude", "drift"))
    p.add_argument("--omega-freq", dest="omega_freq", type=float,
                   help="azimuthal frequency Omega (default beta/alpha)")
    p.add_argument("--c-integral", dest="c_integral", type=float, help="first integral C")
    p.add_argument("--s", type=float, help="profile speed")
    p.add_argument("--omega0", type=float)
    p.add_argument("--omega1", type=float)
    p.add_argument("--theta0", type=float)

    p = sub.add_parser("simulate", help="direct PDE integration")
    common(p)
    p.add_argument("--L", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--t-final", dest="t_final", type=float)
    p.add_argument("--integrator", choices=INTEGRATORS)
    p.add_argument("--initial", choices=INITIALS)
    p.add_argument("--k", type=float)
    p.add_argument("--sign", type=int)
    p.add_argument("--perturbation", choices=PERTURBATIONS)
    p.add_argument("--ell", type=float)
    p.add_argument("--amplitude", type=float)

    return parser


HANDLERS = {
    "classify": cmd_classify,
    "wavetrains": cmd_wavetrains,
    "spectrum": cmd_spectrum,
    "coherent": cmd_coherent,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cp = None
        if args.preset:
            cp = load_config(str(preset_path(args.preset)))
        elif args.config:
            cp = load_config(args.config)
        return HANDLERS[args.command](args, cp)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (LLGSError, RuntimeError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
