"""Command-line interface: classify, wavetrains, spectrum, coherent, simulate.

Runs are configured by INI files (section [model] for alpha/beta/mu/h plus a
section per subcommand) or by mirroring flags; every run is deterministic
given its seed.  Output is CSV (default) or JSON, which writes a non-finite
float as null.  Exit codes: 0 success, 2 bad parameter, unknown key or
out-of-range value, 3 numerical failure.
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
from itertools import chain

import numpy as np

from . import coherent
from . import spectrum as spec
from .errors import ConfigError, ConvergenceError, LLGSError
from .model import (Grid1D, MagnetizationField, ModelParams, classify_anisotropy,
                    local_wavenumber, to_spherical)
from .simulate import (_STEPPERS, PerturbationSpec, SimConfig, _perturb,
                       build_wavetrain_initial, simulate)
from .wavetrains import e3_eigenvalues, e3_stability, wavetrain_at


def _emit(path, text):
    """Write `text` to the file `path`, or to stdout when `path` is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_text(payload):
    """`payload` as indented JSON, each non-finite float as null (JSON has no NaN)."""
    return json.dumps(_finite_or_null(payload), indent=2) + "\n"


def _finite_or_null(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def write_rows(path, header, rows, fmt):
    """Write a table whose columns each hold one type of value, as CSV or JSON.

    CSV writes a float as "%.17g" (it reads back to the same float, and gives
    nan, inf and -0) and any other value as str().  JSON writes a non-finite
    float as null.
    """
    if fmt == "json":
        text = _json_text([dict(zip(header, row)) for row in rows])
    else:
        # one % operation formats the table, with a row format the first row sets
        row = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0]) if rows else ""
        body = (("\n" + row) * len(rows)) % tuple(chain.from_iterable(rows))
        text = ",".join(header) + body + "\n"
    _emit(path, text)


def write_columns(path, header, columns, fmt):
    """write_rows of the rows that equal-length columns (arrays or sequences) form."""
    # tolist() gives one Python type per column, whose "%.17g" is np.float64's
    write_rows(path, header, list(zip(*(np.asarray(c).tolist() for c in columns))), fmt)


def write_record(path, record):
    _emit(path, _json_text(record))


def _out_path(out, tag="", ext=None):
    """A file next to --out: its stem plus `tag`, with `ext` or else its own
    extension (.csv when it has none).  None (stdout) stays None.  Every
    JSON record goes to _out_path(out, ext=".json")."""
    if out is None:
        return None
    stem, own_ext = os.path.splitext(out)
    return f"{stem}{tag}{ext or own_ext or '.csv'}"


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


# Every run option, declared once: section -> key -> (type, default, choices).
# A key is an INI key of its section and the flag --key-name of its
# subcommand; the [model] keys are flags of every subcommand.  A None default
# depends on the mode or the parameters and is filled in by the handler.
OPTIONS = {
    "model": {"alpha": (float, None, None), "beta": (float, 0.0, None),
              "mu": (float, 0.0, None), "h": (float, 0.0, None)},
    "classify": {},
    "wavetrains": {"k_min": (float, 0.0, None), "k_max": (float, 2.0, None),
                   "n_k": (int, 81, None)},
    "spectrum": {"k": (float, 0.0, None), "ell_max": (float, 2.0, None),
                 "n_samples": (int, 201, None), "c_ph": (float, 0.0, None)},
    "coherent": {
        "mode": (str, "portrait", ("portrait", "homoclinic", "fast", "small-amplitude", "drift")),
        "omega_freq": (float, None, None),  # beta/alpha
        "c_integral": (float, 0.0, None),
        "s": (float, None, None),  # 50 for fast, 2 for small-amplitude
        "omega0": (float, 0.0, None), "omega1": (float, 0.0, None),
        "theta0": (float, 0.0, None),
    },
    "simulate": {
        "L": (float, 2 * math.pi, None), "n": (int, 256, None), "dt": (float, 0.01, None),
        "t_final": (float, 10.0, None), "integrator": (str, "semi-implicit", tuple(_STEPPERS)),
        "initial": (str, "wavetrain", ("wavetrain", "e3")), "k": (float, 0.0, None),
        "sign": (int, 1, (1, -1)), "perturbation": (str, "none", ("none", "sideband", "noise")),
        "ell": (float, 0.0, None), "amplitude": (float, 0.0, None), "seed": (int, 0, None),
        "diag_every": (int, 10, None),
    },
}


def params_from_config(cp, args):
    """The model parameters and the options of `args.command`.

    Each value is its flag, else its config value, else its OPTIONS default.
    A key of [model] or of the command's section that OPTIONS does not list,
    and a value that does not parse, is outside its choices or is a float that
    is not finite, is a ConfigError.  Other sections are not read.
    """
    resolved = []
    for section in ("model", args.command):
        table = OPTIONS[section]
        if cp is not None and cp.has_section(section):
            unknown = set(cp.options(section)) - {cp.optionxform(key) for key in table}
            if unknown:
                raise ConfigError(f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}")
        values = {}
        for key, (cast, default, choices) in table.items():
            value = getattr(args, key)
            if value is None and cp is not None and cp.has_option(section, key):
                raw = cp.get(section, key)
                try:
                    value = cast(raw)
                except ValueError as exc:
                    raise ConfigError(f"{section}.{key}: cannot parse {raw!r}") from exc
                if choices is not None and value not in choices:
                    raise ConfigError(
                        f"{section}.{key}: {raw!r} is not one of {', '.join(map(str, choices))}"
                    )
            if cast is float and value is not None and not math.isfinite(value):
                raise ConfigError(f"{section}.{key}: {value} is not finite")
            values[key] = default if value is None else value
        resolved.append(values)
    model, options = resolved
    if model["alpha"] is None:
        raise ConfigError("missing required parameter alpha")
    return ModelParams(**model), options


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_classify(args, cp):
    """Regime and constant-state stability."""
    params, _ = params_from_config(cp, args)
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
    write_record(_out_path(args.out, ext=".json"), record)
    return 0


def cmd_wavetrains(args, cp):
    """Wavetrain catalog over a k-grid."""
    params, opts = params_from_config(cp, args)
    if opts["n_k"] < 1:
        raise ConfigError(f"n_k must be at least 1, got {opts['n_k']}")
    report = spec.sideband_wavenumber(params)
    k_star = report.k_star if report.k_star is not None else math.nan
    header = ("k", "theta", "m3", "r", "omega", "stability_class", "k_star")
    rows = []
    for k in np.linspace(opts["k_min"], opts["k_max"], opts["n_k"]):
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
    """Essential spectrum branches of a wavetrain."""
    params, opts = params_from_config(cp, args)
    k, ell_max, n_samples, c_ph = opts["k"], opts["ell_max"], opts["n_samples"], opts["c_ph"]
    if n_samples < 2:
        raise ConfigError("need at least 2 samples")
    wt = wavetrain_at(params, k)
    header = ("ell", "re_lambda_1", "im_lambda_1", "re_lambda_2", "im_lambda_2",
              "residual_1", "residual_2")
    if wt is None or wt.r == 0.0:
        if c_ph != 0.0:
            raise ConfigError(f"c_ph = {c_ph}: no wavetrain with r > 0 at k = {k}, and the "
                              "constant-state spectrum has no comoving frame")
        sign = 1 if params.force_balance * (params.mu - k * k) >= 0 else -1
        print(
            f"no wavetrain with r > 0 at k = {k}; emitting the {'+' if sign > 0 else '-'}e3 "
            "constant-state spectrum instead",
            file=sys.stderr,
        )
        ell = np.linspace(0.0, ell_max, n_samples)
        lam1, lam2 = e3_eigenvalues(params, sign, ell)
        r1 = r2 = np.zeros(n_samples)
    else:
        b1, b2 = spec.spectrum_curves(wt, params, ell_max, n_samples, c_ph)
        ell, lam1, lam2 = b1.ell, b1.lam, b2.lam
        r1, r2 = b1.residuals(wt, params, c_ph), b2.residuals(wt, params, c_ph)
    write_columns(args.out, header, (ell, lam1.real, lam1.imag, lam2.real, lam2.imag, r1, r2),
                  args.format)
    return 0


PROFILE_HEADER = ("xi", "theta", "p", "q", "m1", "m2", "m3")


def _write_profile(out, i, profile, fmt):
    """Write `profile` to the i-th profile file next to --out; return its path."""
    path = _out_path(out, f"_{i}")
    write_columns(path, PROFILE_HEADER, (profile.xi, profile.theta, profile.p, profile.q,
                                         *profile.magnetization().T), fmt)
    return path


def cmd_coherent(args, cp):
    """Coherent-structure analysis."""
    params, opts = params_from_config(cp, args)
    mode, Omega, C = opts["mode"], opts["omega_freq"], opts["c_integral"]
    if Omega is None:
        Omega = params.precession_frequency

    if mode == "portrait":
        portrait = coherent.stationary_portrait(params, Omega, C)
        record = {"mode": "portrait", **dataclasses.asdict(portrait)}
    elif mode == "homoclinic":
        result = coherent.stationary_homoclinic(params, Omega, C)
        if result is None:
            note = (coherent.stationary_portrait(params, Omega, C).note
                    or "no homoclinic connection in the stationary portrait")
            record = {"mode": "homoclinic", "found": False, "note": note}
        else:
            record = {
                "mode": "homoclinic",
                "found": not result.degenerate,
                "degenerate": result.degenerate,
                "saddle_theta": result.saddle_theta,
                "saddle_q": result.saddle_q,
                "note": result.note,
                "profiles": [_write_profile(args.out, i, prof, args.format)
                             for i, prof in enumerate(result.profiles, start=1)],
            }
    elif mode == "fast":
        Omega0, Omega1 = opts["omega0"], opts["omega1"]
        s = 50.0 if opts["s"] is None else opts["s"]
        result = coherent.fast_heteroclinic(params, Omega0, Omega1, s)
        if not result.converged:
            raise ConvergenceError(f"fast-front shooting failed: {result.note}")
        record = {"mode": "fast", "s": s, "interior_theta": result.interior_theta,
                  "fronts": []}
        for i, front in enumerate(result.fronts, start=1):
            record["fronts"].append({
                "file": _write_profile(args.out, i, coherent.lift_to_ode(front.profile),
                                       args.format),
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
    elif mode == "small-amplitude":
        s = 2.0 if opts["s"] is None else opts["s"]
        report = coherent.small_amplitude_bifurcation(params, s, opts["theta0"])
        record = dataclasses.asdict(report)
    else:  # drift
        report = coherent.monotone_drift_check(params, Omega)
        record = {
            "mode": "drift",
            "monotone": report.monotone,
            "expected_sign": report.expected_sign,
            "q_crossed_zero": report.q_crossed_zero,
            "crossing_xi": report.crossing_xi,
        }
    write_record(_out_path(args.out, ext=".json"), record)
    return 0


def cmd_simulate(args, cp):
    """Direct PDE integration."""
    params, opts = params_from_config(cp, args)
    # the run's snapshots are not written, so it keeps only its first and last
    config = SimConfig(dt=opts["dt"], t_final=opts["t_final"], integrator=opts["integrator"],
                       diag_every=opts["diag_every"], store_every=sys.maxsize)
    grid = Grid1D(opts["L"], opts["n"])
    pert = PerturbationSpec(opts["perturbation"], opts["ell"], opts["amplitude"], opts["seed"])
    if opts["initial"] == "wavetrain":
        wt = wavetrain_at(params, opts["k"])
        if wt is None:
            raise ConfigError(f"no wavetrain exists at k = {opts['k']} for these parameters")
        initial = build_wavetrain_initial(wt, grid, pert)
    else:  # e3
        values = np.zeros((grid.n, 3))
        values[:, 2] = opts["sign"]
        initial = _perturb(MagnetizationField(grid, values), pert)

    result = simulate(initial, params, config)

    diag = result.diagnostics
    write_columns(args.out, ("t", "norm_drift", "energy", "phi0"),
                  (diag.times, diag.norm_drift, diag.energy, diag.phi0), args.format)
    if args.out is not None:
        sph = to_spherical(result.final)
        write_columns(_out_path(args.out, "_final"), ("x", "m1", "m2", "m3", "theta", "q"),
                      (grid.x, *result.final.values.T, sph.theta, local_wavenumber(sph)),
                      args.format)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="llgs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler in HANDLERS.items():
        p = sub.add_parser(command, help=handler.__doc__)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--preset", help="name of a shipped preset config")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        for key, (cast, _, choices) in {**OPTIONS["model"], **OPTIONS[command]}.items():
            p.add_argument("--" + key.replace("_", "-"), type=cast, choices=choices)
    return parser


HANDLERS = {
    "classify": cmd_classify,
    "wavetrains": cmd_wavetrains,
    "spectrum": cmd_spectrum,
    "coherent": cmd_coherent,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
    except LLGSError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
