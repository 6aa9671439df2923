"""Run a fixed list of `llgs` CLI invocations and keep everything they leave.

    python3 tools/cli_outputs.py SRC OUT

Each invocation runs in a fresh interpreter with PYTHONPATH=SRC, in its own
directory OUT/<name>.  That directory keeps every file the run writes, plus
<name>.stdout, <name>.stderr and <name>.exit.  Run it on two source trees and
compare with `diff -r OUT_a OUT_b`: an empty diff means every output file,
message and exit code is byte-identical.

The list is the benchmark's cli-sweep (`SWEEP` in perfbench/workloads.py,
read, never edited), six of its runs again with --format json, a few longer
runs, two spectrum runs in a comoving frame, and runs that must fail with
exit 2 (a bad setting) or exit 3 (a numerical failure).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no cache files in perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import SWEEP  # noqa: E402

MODEL = ["--alpha", "1", "--beta", "0", "--mu", "1", "--h", "0.5"]
WAVETRAIN = ["--alpha", "1", "--beta", "0.5", "--mu", "1", "--h", "1"]

# (name, argv, extension of --out ("" for none), or None to write to stdout)
RUNS = [(name, argv, ext) for name, argv, ext in SWEEP] + [
    (name + "-json", argv + ["--format", "json"], ".json") for name, argv, _ in SWEEP
    if name in ("spectrum", "equilibrium", "cohex", "wavetrains-a", "wavetrains-b",
                "fast-front")
] + [
    ("hopf", ["simulate", "--preset", "hopf", "--seed", "1"], ".csv"),
    ("sideband", ["simulate", "--preset", "sideband", "--t-final", "2"], ".csv"),
    # the semi-implicit step at the default n = 256, above DENSE_MAX_N
    ("wavetrain-noise", ["simulate", *WAVETRAIN, "--L", "62.83185307179586", "--k", "0.6",
                         "--perturbation", "noise", "--amplitude", "1e-3", "--seed", "2",
                         "--t-final", "1"], ".csv"),
    # the sideband preset's wavetrain, unperturbed
    ("wavetrain-plain", ["simulate", "--preset", "sideband", "--perturbation", "none",
                         "--t-final", "2"], ".csv"),
    ("small-amplitude", ["coherent", "--mode", "small-amplitude", *MODEL, "--s", "5"], ".json"),
    ("drift", ["coherent", "--mode", "drift", "--alpha", "1", "--beta", "0.5", "--mu", "1",
               "--h", "0", "--omega-freq", "0.7"], ".json"),
    ("spectrum-e3", ["spectrum", "--alpha", "1", "--beta", "0", "--mu", "-1", "--h", "2",
                     "--k", "0", "--n-samples", "2001"], ".csv"),
    ("portrait-force-zero", ["coherent", "--mode", "portrait", "--alpha", "1", "--mu", "0",
                             "--h", "0"], ".json"),
    ("homoclinic-force-zero", ["coherent", "--mode", "homoclinic", "--alpha", "1", "--mu", "0",
                               "--h", "0"], ".json"),
    # C = 0: the interior saddles are joined by domain walls, so no homoclinic is found
    ("homoclinic-walls", ["coherent", "--preset", "phaseplane-a", "--mode", "homoclinic"],
     ".csv"),
    ("classify-marginal", ["classify", "--alpha", "1", "--mu", "1", "--h", "1"], ".json"),
    ("spectrum-e3-plus", ["spectrum", "--alpha", "1", "--mu", "1", "--h", "2", "--k", "0"],
     ".csv"),
    ("spectrum-e3-resonant", ["spectrum", "--alpha", "1", "--mu", "1", "--h", "0.5", "--k", "1"],
     ".csv"),
    ("portrait-c", ["coherent", "--preset", "cohex", "--mode", "portrait"], ".json"),
    # no --out: the two profile tables, then the record, on stdout
    ("cohex-stdout", ["coherent", "--preset", "cohex"], None),
    # the wavetrain at this boundary k has theta = pi: the -e3 spectrum
    ("spectrum-e3-boundary", ["spectrum", "--alpha", "1", "--mu", "1", "--h", "1", "--k",
                              "1.4142135623730951"], ".csv"),
    # a record goes to <stem>.json whatever the extension of --out
    ("portrait", ["coherent", "--preset", "phaseplane-a"], ".csv"),
    ("record", ["classify", "--preset", "hopf"], ""),
    # exit 2: a bad setting
    ("sideband-on-e3", ["simulate", "--preset", "equilibrium", "--perturbation", "sideband",
                        "--ell", "1", "--amplitude", "0.1"], None),
    ("alpha-negative", ["classify", "--alpha", "-1"], None),
    ("preset-unknown", ["classify", "--preset", "nope"], None),
    ("homoclinic-off-resonance", ["coherent", "--preset", "cohex", "--omega-freq", "0.5"], ".csv"),
    ("commensurability", ["simulate", *WAVETRAIN, "--k", "0.3", "--t-final", "0.1"], None),
    ("commensurability-sideband", ["simulate", *WAVETRAIN, "--k", "0", "--perturbation",
                                   "sideband", "--ell", "0.3", "--amplitude", "0.01",
                                   "--t-final", "0.1"], None),
    # ell = 0 is the carrier's own mode, not a sideband
    ("sideband-ell-zero", ["simulate", "--preset", "sideband", "--ell", "0"], None),
    # pi/dx = 8 on n = 16, so mode 10 would alias to mode -6
    ("above-nyquist", ["simulate", *WAVETRAIN, "--k", "10", "--n", "16", "--t-final", "0.05",
                       "--dt", "0.001"], None),
    ("degenerate-family", ["simulate", "--alpha", "1", "--mu", "1", "--k", "1", "--t-final",
                           "0.1"], None),
    ("mu-nan", ["classify", "--alpha", "1", "--mu", "nan"], None),
    ("s-inf", ["coherent", "--mode", "small-amplitude", *MODEL, "--s", "inf"], None),
    ("noise-negative", ["simulate", "--alpha", "1", "--initial", "e3", "--perturbation", "noise",
                        "--amplitude", "-1", "--t-final", "0.05"], None),
    ("seed-negative", ["simulate", "--alpha", "1", "--initial", "e3", "--perturbation", "noise",
                       "--amplitude", "0.1", "--seed", "-1", "--t-final", "0.05"], None),
    # the comoving frame: the sweep's spectrum run, and a coarse grid at a large c_ph
    ("spectrum-c-ph", {n: a for n, a, _ in SWEEP}["spectrum"] + ["--c-ph", "1"], ".csv"),
    ("spectrum-coarse-c-ph", ["spectrum", *MODEL, "--k", "0.3", "--ell-max", "2", "--n-samples",
                              "5", "--c-ph", "20"], ".csv"),
    # the constant-state fallback has no comoving frame
    ("spectrum-e3-c-ph", ["spectrum", "--alpha", "1", "--mu", "-1", "--h", "2", "--k", "0",
                          "--n-samples", "3", "--c-ph", "5"], None),
    # exit 3: a numerical failure
    ("speed-too-low", ["coherent", "--mode", "small-amplitude", "--alpha", "1", "--mu", "1",
                       "--h", "0.5", "--s", "0.01"], None),
    ("cfl", ["simulate", "--alpha", "1", "--mu", "1", "--integrator", "rk4", "--n", "512",
             "--dt", "0.01", "--t-final", "1"], None),
    ("fast-front-s1", ["coherent", "--preset", "fast-front", "--s", "1"], None),
    ("fast-front-s0.5", ["coherent", "--preset", "fast-front", "--s", "0.5"], ".csv"),
]


def run_all(src: Path, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    for name, argv, ext in RUNS:
        rundir = out / name
        rundir.mkdir(parents=True)
        if ext is not None:
            argv = argv + ["--out", name + ext]
        proc = subprocess.run([sys.executable, "-m", "llgs.cli", *argv], cwd=rundir, env=env,
                              capture_output=True)
        (rundir / f"{name}.stdout").write_bytes(proc.stdout)
        (rundir / f"{name}.stderr").write_bytes(proc.stderr)
        (rundir / f"{name}.exit").write_text(f"{proc.returncode}\n")
        print(f"{name}: exit {proc.returncode}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    run_all(Path(sys.argv[1]), Path(sys.argv[2]))
