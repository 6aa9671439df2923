"""The three workloads: what each operation runs and how its output is checked.

An operation is a list of invocations, each run in a fresh interpreter by
`child.py`.  A check returns `(name, error, gate)` triples: the operation
fails when an error exceeds its gate, and `max_rel_err` is the largest error.

- pde-hopf: `llgs simulate --preset hopf` (semi-implicit, n = 64, 16 000
  steps).  At n = 64 a step costs numpy's per-call overhead, and the CLI's
  diagnostics and CSV writing take a visible share.  Bypasses RK4,
  `coherent` and `spectrum`.
- pde-sideband: acceptance criterion 05 through the library on the sideband
  preset's problem (RK4, n = 1024).  The RHS and the stepper take almost all
  of the time; import is a few percent.
- cli-sweep: 13 CLI invocations over the analytic presets.  Import is most
  of each invocation, so lazy imports and analytic-kernel work show here and
  nowhere else; the PDE loop is bypassed apart from a 1 000-step run.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from common import BENCH_DIR

REFERENCE = BENCH_DIR / "reference" / "cli_sweep.json"
# Numeric fields of the recorded cli-sweep outputs must agree to this
# relative error (with a unit floor); they are not compared byte for byte.
FINGERPRINT_TOL = 1e-8

HOPF_R = math.sqrt(3.0) / 2.0
HOPF_FREQ = 0.5

# The sideband experiment: params (alpha, beta, mu, h), a wavetrain at k plus
# an ell sideband, on L = 20 pi.  t_final = 20 leaves the growth-rate fit
# (t >= 10) 17 snapshots and lands within 4% of theory, inside the 10% gate.
SIDEBAND = {"params": [1.0, 0.5, 1.0, 1.0], "L": 20 * math.pi, "n": 1024, "k": 0.6,
            "ell": 0.4, "amplitude": 1e-4, "dt": 1.5e-3, "t_final": 20.0, "t_min": 10.0}
# Linear-theory rate of that problem, recorded from spectrum_curves.
SIDEBAND_THEORY = 0.05848033560490795

SWEEP = (
    ("classify", ["classify", "--preset", "hopf"], ".json"),
    ("wavetrains-a", ["wavetrains", "--preset", "wavetrains-a"], ".csv"),
    ("wavetrains-b", ["wavetrains", "--preset", "wavetrains-b"], ".csv"),
    ("wavetrains-c", ["wavetrains", "--preset", "wavetrains-c"], ".csv"),
    ("spectrum", ["spectrum", "--alpha", "1", "--beta", "0", "--mu", "1", "--h", "0.5",
                  "--k", "0.3", "--n-samples", "2001"], ".csv"),
    ("phaseplane-a", ["coherent", "--preset", "phaseplane-a"], ".json"),
    ("phaseplane-b", ["coherent", "--preset", "phaseplane-b"], ".json"),
    ("phaseplane-c", ["coherent", "--preset", "phaseplane-c"], ".json"),
    ("phaseplane-d", ["coherent", "--preset", "phaseplane-d"], ".json"),
    ("cohex", ["coherent", "--preset", "cohex"], ".csv"),
    ("wt-cyl-q", ["coherent", "--preset", "wt-cyl-q"], ".csv"),
    ("fast-front", ["coherent", "--preset", "fast-front"], ".csv"),
    ("equilibrium", ["simulate", "--preset", "equilibrium"], ".csv"),
)


def invocations(workload: str, seed: int):
    """The invocations of one operation, in order.  A CLI invocation writes
    `<its directory>/<name><ext>`; `out` is that file name."""
    if workload == "pde-hopf":
        return [{"name": "hopf", "kind": "cli", "out": "hopf.csv",
                 "argv": ["simulate", "--preset", "hopf", "--seed", str(seed)]}]
    if workload == "pde-sideband":
        return [{"name": "sideband", "kind": "sideband", "problem": SIDEBAND}]
    if workload == "cli-sweep":
        return [{"name": name, "kind": "cli", "argv": argv, "out": name + ext}
                for name, argv, ext in SWEEP]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Output readers
# ---------------------------------------------------------------------------


def read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}, len(body)


def floats(column):
    return [float(v) for v in column]


def rel(a: float, b: float) -> float:
    """|a - b| relative to |b|, with a unit floor so zeros compare absolutely."""
    return abs(a - b) / max(abs(b), 1.0)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_hopf(invdir: Path, child: dict):
    """Acceptance criterion 06 from the CLI's diagnostics and final CSVs."""
    diag, n_diag = read_csv(invdir / "hopf.csv")
    final, n_final = read_csv(invdir / "hopf_final.csv")
    r = sum(math.hypot(a, b) for a, b in zip(floats(final["m1"]), floats(final["m2"]))) / n_final
    t, phi = floats(diag["t"]), floats(diag["phi0"])
    late = [(ti, pi) for ti, pi in zip(t, phi) if ti >= 60.0]
    freq = _slope(late) if len(late) >= 2 else math.inf
    return [
        ("diag_rows", float(n_diag != 1601), 0.0),
        ("final_rows", float(n_final != 64), 0.0),
        ("r_saturated", abs(r - HOPF_R) / HOPF_R, 0.05),
        ("frequency", abs(abs(freq) - HOPF_FREQ) / HOPF_FREQ, 0.01),
    ]


def _slope(points):
    n = len(points)
    mt = sum(p[0] for p in points) / n
    mp = sum(p[1] for p in points) / n
    num = sum((t - mt) * (p - mp) for t, p in points)
    den = sum((t - mt) ** 2 for t, _ in points)
    return num / den


def check_sideband(invdir: Path, child: dict):
    """Acceptance criterion 05: measured growth within 10% of theory, same sign."""
    measured, theory = child["measured"], child["theory"]
    return [
        ("growth_sign", float(measured * theory <= 0.0), 0.0),
        ("growth_rate", abs(measured - theory) / abs(theory), 0.10),
        ("theory_rate", abs(theory - SIDEBAND_THEORY) / SIDEBAND_THEORY, 1e-8),
    ]


def k_star_closed_form(alpha, beta, mu, h):
    """Cardano's root of f(K) = (3K + mu) b^2 + (K - mu)^3, b = beta/alpha - h.

    With K = mu + u, f = u^3 + 3 b^2 u + 4 mu b^2, a depressed cubic with one
    real root since 3 b^2 > 0.
    """
    b2 = (beta / alpha - h) ** 2
    p, q = 3.0 * b2, 4.0 * mu * b2
    disc = math.sqrt(q * q / 4.0 + p ** 3 / 27.0)
    u = math.cbrt(-q / 2.0 + disc) + math.cbrt(-q / 2.0 - disc)
    return math.sqrt(mu + u)


def _sweep_closed_forms(name: str, outdir: Path):
    """Checks against closed forms, for the invocations that have one."""
    out = []
    if name.startswith("wavetrains"):
        cols, _ = read_csv(outdir / f"{name}.csv")
        unit = max(abs(r * r + m * m - 1.0) for r, m in zip(floats(cols["r"]), floats(cols["m3"])))
        out.append(("unit_sphere", unit, 1e-12))
        if name == "wavetrains-a":
            ref = k_star_closed_form(1.0, 0.5, 1.0, 1.0)
            worst = max(abs(k - ref) / ref for k in floats(cols["k_star"]))
            out.append(("k_star", worst, 1e-12))
    elif name == "spectrum":
        cols, n = read_csv(outdir / "spectrum.csv")
        out.append(("rows", float(n != 2001), 0.0))
        resid = max(floats(cols["residual_1"]) + floats(cols["residual_2"]))
        out.append(("residual", resid, 1e-10))
    elif name == "fast-front":
        record = json.loads((outdir / "fast-front.json").read_text())
        out.append(("fronts", float(len(record["fronts"]) != 2), 0.0))
        for i, front in enumerate(record["fronts"], start=1):
            first = front["q_first_order_start"]
            out.append((f"pole_q_{i}", abs(front["q_start"] - first) / abs(first), 0.02))
    elif name == "equilibrium":
        cols, _ = read_csv(outdir / "equilibrium.csv")
        energy = floats(cols["energy"])
        out.append(("energy_flat", max(abs(e - energy[0]) for e in energy) / max(abs(energy[0]), 1.0), 1e-12))
    return out


def fingerprint(path: Path):
    """Row count and per-column (non-finite count, min, max, mean) of a CSV;
    the flattened leaves of a JSON record.  File paths reduce to their names."""
    if path.suffix == ".json":
        leaves = {}
        _flatten(json.loads(path.read_text()), "", leaves)
        return {"leaves": leaves}
    cols, n = read_csv(path)
    out = {"rows": n, "columns": {}}
    for col, values in cols.items():
        try:
            nums = floats(values)
        except ValueError:
            out["columns"][col] = sorted(set(values))
            continue
        finite = [v for v in nums if math.isfinite(v)]
        stats = [min(finite), max(finite), sum(finite) / len(finite)] if finite else []
        out["columns"][col] = [len(nums) - len(finite)] + stats
    return out


def _flatten(obj, prefix, out):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}.{k}" if prefix else k, out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}[{i}]", out)
    elif isinstance(obj, str) and ("/" in obj or "\\" in obj):
        out[prefix] = Path(obj).name
    else:
        out[prefix] = obj


def compare_fingerprint(got, ref) -> float:
    """Largest relative error between two fingerprints; inf on a shape change."""
    flat_got, flat_ref = {}, {}
    _flatten(got, "", flat_got)
    _flatten(ref, "", flat_ref)
    if flat_got.keys() != flat_ref.keys():
        return math.inf
    worst = 0.0
    for key, b in flat_ref.items():
        a = flat_got[key]
        if isinstance(b, (int, float)) and not isinstance(b, bool) and isinstance(a, (int, float)):
            worst = max(worst, rel(float(a), float(b)))
        elif a != b:
            return math.inf
    return worst


def fingerprints(invdir: Path) -> dict:
    """Fingerprint of every file an invocation wrote, by file name."""
    return {p.name: fingerprint(p) for p in sorted(invdir.iterdir()) if not p.name.startswith("_")}


def check_sweep_invocation(name: str, invdir: Path, reference: dict):
    """Closed forms first, then every output file against the reference."""
    out = _sweep_closed_forms(name, invdir)
    if reference is None:
        return out
    got, ref = fingerprints(invdir), reference[name]
    if got.keys() != ref.keys():
        out.append(("files", math.inf, FINGERPRINT_TOL))
    for fname in sorted(ref.keys() & got.keys()):
        out.append((f"ref:{fname}", compare_fingerprint(got[fname], ref[fname]), FINGERPRINT_TOL))
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def check_invocation(workload: str, name: str, invdir: Path, child: dict, reference):
    if workload == "pde-hopf":
        return check_hopf(invdir, child)
    if workload == "pde-sideband":
        return check_sideband(invdir, child)
    return check_sweep_invocation(name, invdir, reference)
