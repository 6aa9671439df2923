"""Self-tests of the benchmark: every gate is live, and the driver refuses a
checkout without the program.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def failed(checks):
    return any(not (err <= gate) for _, err, gate in checks)


# ---------------------------------------------------------------------------
# pde-sideband
# ---------------------------------------------------------------------------


def test_sideband_gate_passes_near_theory():
    child = {"measured": 0.0566, "theory": workloads.SIDEBAND_THEORY}
    assert not failed(workloads.check_sideband(None, child))


@pytest.mark.parametrize("measured, theory", [
    (-0.0566, workloads.SIDEBAND_THEORY),  # sign of the measured rate flipped
    (0.0500, workloads.SIDEBAND_THEORY),  # 14.5% below theory
    (0.0566, workloads.SIDEBAND_THEORY * 1.01),  # theory itself moved
])
def test_sideband_gate_catches(measured, theory):
    assert failed(workloads.check_sideband(None, {"measured": measured, "theory": theory}))


# ---------------------------------------------------------------------------
# pde-hopf
# ---------------------------------------------------------------------------


def write_hopf(d: Path, r=math.sqrt(3) / 2, freq=-0.5, n_diag=1601, n_final=64):
    lines = ["t,norm_drift,energy,phi0"]
    lines += [f"{0.05 * i!r},0,-1,{freq * 0.05 * i!r}" for i in range(n_diag)]
    (d / "hopf.csv").write_text("\n".join(lines) + "\n")
    lines = ["x,m1,m2,m3,theta,q"]
    lines += [f"{i},{r * math.cos(i)!r},{r * math.sin(i)!r},0.5,1,0" for i in range(n_final)]
    (d / "hopf_final.csv").write_text("\n".join(lines) + "\n")


def test_hopf_gate_passes_on_the_saturated_state(tmp_path):
    write_hopf(tmp_path)
    assert not failed(workloads.check_hopf(tmp_path, {}))


@pytest.mark.parametrize("corruption", [
    {"r": 0.9 * math.sqrt(3) / 2},  # amplitude 10% low
    {"freq": -0.51},  # frequency 2% off
    {"n_final": 60},  # final-state CSV truncated
    {"n_diag": 1500},  # diagnostics CSV truncated
])
def test_hopf_gate_catches(tmp_path, corruption):
    write_hopf(tmp_path, **corruption)
    assert failed(workloads.check_hopf(tmp_path, {}))


# ---------------------------------------------------------------------------
# cli-sweep: real CLI outputs, then corrupted copies
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sweep_outputs(tmp_path_factory):
    """Outputs of the cheap cli-sweep invocations, written in-process."""
    from llgs.cli import main

    base = tmp_path_factory.mktemp("sweep")
    for name, argv, ext in workloads.SWEEP:
        if name in ("wavetrains-a", "spectrum", "cohex", "fast-front", "phaseplane-a"):
            (base / name).mkdir()
            assert main(argv + ["--out", str(base / name / (name + ext))]) == 0
    return base


@pytest.fixture
def outputs(sweep_outputs, tmp_path):
    shutil.copytree(sweep_outputs, tmp_path, dirs_exist_ok=True)
    return tmp_path


def check(name, outdir):
    return workloads.check_sweep_invocation(name, outdir / name, workloads.load_reference())


@pytest.mark.parametrize("name", ["wavetrains-a", "spectrum", "cohex", "fast-front", "phaseplane-a"])
def test_sweep_gate_passes_at_this_commit(outputs, name):
    assert not failed(check(name, outputs))


def rewrite_csv(path: Path, column: str, fn):
    lines = path.read_text().splitlines()
    i = lines[0].split(",").index(column)
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        cells[i] = repr(fn(float(cells[i])))
        out.append(",".join(cells))
    path.write_text("\n".join(out) + "\n")


def test_sweep_gate_catches_k_star_off_by_one_percent(outputs):
    rewrite_csv(outputs / "wavetrains-a" / "wavetrains-a.csv", "k_star", lambda k: 1.01 * k)
    checks = dict((n, (e, g)) for n, e, g in check("wavetrains-a", outputs))
    assert checks["k_star"][0] > checks["k_star"][1]


def test_sweep_gate_catches_truncated_profile(outputs):
    path = outputs / "cohex" / "cohex_1.csv"
    path.write_text("\n".join(path.read_text().splitlines()[:-10]) + "\n")
    assert failed(check("cohex", outputs))


def test_sweep_gate_catches_spectrum_residual(outputs):
    rewrite_csv(outputs / "spectrum" / "spectrum.csv", "residual_2", lambda r: r + 1e-8)
    assert failed(check("spectrum", outputs))


def test_sweep_gate_catches_pole_wavenumber(outputs):
    path = outputs / "fast-front" / "fast-front.json"
    record = json.loads(path.read_text())
    record["fronts"][0]["q_start"] *= 1.03
    path.write_text(json.dumps(record))
    assert failed(check("fast-front", outputs))


def test_sweep_gate_catches_moved_equilibrium(outputs):
    path = outputs / "phaseplane-a" / "phaseplane-a.json"
    record = json.loads(path.read_text())
    record["equilibria"][1]["theta"] += 1e-6
    path.write_text(json.dumps(record))
    assert failed(check("phaseplane-a", outputs))


def test_k_star_closed_form_matches_the_program():
    from llgs import ModelParams, sideband_wavenumber

    k = sideband_wavenumber(ModelParams(1.0, 0.5, 1.0, 1.0)).k_star
    assert abs(workloads.k_star_closed_form(1.0, 0.5, 1.0, 1.0) - k) < 1e-12


def test_driver_counts_a_failed_gate(outputs):
    bench_run = run.Run("cli-sweep", 0, 0.0, False, outputs, workloads.load_reference())
    rewrite_csv(outputs / "wavetrains-a" / "wavetrains-a.csv", "k_star", lambda k: 1.01 * k)
    rec = {"name": "wavetrains-a", "failed": False, "error": None, "values": {}}
    bench_run.check(rec, outputs / "wavetrains-a")
    assert rec["failed"]


# ---------------------------------------------------------------------------
# Tracing and the driver
# ---------------------------------------------------------------------------


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, None], ["b", 1.0, 4.0, 0, None],
             ["c", 2.0, 3.0, 1, None], ["d", 5.0, 6.0, 0, None]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert tracing.top_level_time(spans, 2.0, 20.0) == 8.0


def test_parse_importtime():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       120 |        740 |   scipy.integrate\n"
            "import time:        35 |        926 | llgs.cli\n")
    assert run.parse_importtime(text) == {"scipy.integrate": 740e-6, "llgs.cli": 926e-6}


def test_benchmark_json_names_match_the_driver():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.REPORTED_END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["end_to_end"] + spec["per_layer"])


def test_driver_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pde-hopf", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
