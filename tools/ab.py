"""Time one PDE layer of two llgs source trees against each other in one interpreter.

    python3 tools/ab.py A_SRC B_SRC --layer {rhs,rk4-step,semi-step,simulate} --n N
                        [--out FILE]

Each tree's `llgs` is imported under its own name (`llgs_a`, `llgs_b`) through
`sys.modules`, so both sit in one process and share its numpy, BLAS and cache
state.  The layers:

- rhs: `rhs_landau_lifshitz(fld, params)` on a fixed unit field, the call
  perfbench's `model.rhs_us` times;
- rk4-step, semi-step: one step of `simulate`'s RK4 or semi-implicit stepper
  plus the projection to the sphere that `simulate` applies after it, at
  dt = cfl_limit/2 (RK4) or 0.005 (semi-implicit), on a state and scratch
  allocated as the tree's `simulate` allocates them;
- simulate: the `simulate` loop with its records on the hopf preset's
  problem at n points (+e3 with noise of amplitude 1e-3 and seed 7 on
  L = 2 pi), semi-implicit at dt = 0.005 for SIMULATE_STEPS steps,
  `diag_every` 10.

PAIRS pairs of timed batches, each about BATCH_S seconds of calls, alternate:
pair i runs A then B when i is even, B then A when it is odd, and each batch
builds a fresh stepper instance and restarts from the same initial field.  A
batch's time is the fastest of five rounds of calls, as the host's load comes
in bursts.  The report gives each tree's median time per call in
microseconds, the per-pair ratios B/A with their median and a 95% bootstrap
interval of that median, and whether the two trees' outputs are byte-equal
(one call of the layer, 200 steps, or one simulate run's diagnostics and
final field, from the same field).  An A/A run (one
tree passed twice) should give an interval that contains 1.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

PARAMS = (1.0, 0.5, 1.0, 1.0)  # alpha, beta, mu, h: the sideband and hopf presets
LENGTH = 20 * math.pi
EQUAL_STEPS = 200
SIMULATE_STEPS = 1000
PAIRS = 40
BATCH_S = 0.05  # seconds of calls in one timed batch


def load(src: str, name: str):
    """The modules model and simulate of the package in SRC/llgs, imported as `name`."""
    root = Path(src).resolve() / "llgs"
    spec = importlib.util.spec_from_file_location(name, root / "__init__.py",
                                                  submodule_search_locations=[str(root)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return (importlib.import_module(f"{name}.model"),
            importlib.import_module(f"{name}.simulate"))


def initial_field(n: int) -> np.ndarray:
    """A smooth unit (n, 3) field: a helix with a modulated tilt."""
    x = LENGTH / n * np.arange(n)
    theta = 0.9 + 0.2 * np.cos(0.1 * x)
    phi = 0.6 * x + 0.2 * np.sin(0.1 * x)
    return np.column_stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                            np.cos(theta)])


def layer_call(modules, layer: str, n: int):
    """(make, output): make() returns a fresh no-argument callable of the layer,
    output() the bytes of the layer's result from the initial field."""
    model, sim = modules
    params = model.ModelParams(*PARAMS)
    grid = model.Grid1D(LENGTH, n)
    values = initial_field(n)
    if layer == "rhs":
        fld = model.MagnetizationField(grid, values)

        def rhs():
            return model.rhs_landau_lifshitz(fld, params)

        return lambda: rhs, lambda: rhs().tobytes()
    if layer == "simulate":
        grid = model.Grid1D(2 * math.pi, n)
        e3 = model.MagnetizationField(grid, np.tile([0.0, 0.0, 1.0], (n, 1)))
        initial = sim._perturb(e3, sim.PerturbationSpec("noise", amplitude=1e-3, seed=7))
        config = sim.SimConfig(dt=0.005, t_final=SIMULATE_STEPS * 0.005, diag_every=10)

        def run():
            return sim.simulate(initial, params, config)

        def output():
            result = run()
            diag = result.diagnostics
            return b"".join(a.tobytes() for a in (diag.times, diag.norm_drift, diag.energy,
                                                  diag.phi0, result.final.values))

        return lambda: run, output
    integrator = "rk4" if layer == "rk4-step" else "semi-implicit"
    dt = 0.5 * sim.cfl_limit(grid, params) if integrator == "rk4" else 0.005
    make_step = sim._STEPPERS[integrator]

    def instance():
        """A fresh stepper and the state it steps; the state and the projection's scratch
        come from where the tree's `simulate` takes them: the stepper's `arrays` when the
        tree's factories allocate them, else np.empty."""
        step = make_step(grid, params, dt)
        if hasattr(step, "arrays"):
            m, norm, sq = step.arrays
        else:
            m, norm, sq = np.empty((3, n)), np.empty(n), np.empty((3, n))
        m[...] = values.T

        def call():
            step(m)
            model._normalize(m, m, norm, sq)

        return call, m

    def output():
        call, m = instance()
        for _ in range(EQUAL_STEPS):
            call()
        return m.tobytes()

    return lambda: instance()[0], output


def batch(make, reps: int, rounds: int = 5) -> float:
    """Time per call of a fresh instance: the fastest of `rounds` runs of reps // rounds calls,
    so that a burst of load from outside the process inflates no batch."""
    call = make()
    call()  # the first call of an instance pays its lazy set-up
    per_round, best = max(1, reps // rounds), math.inf
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(per_round):
            call()
        best = min(best, (time.perf_counter() - t0) / per_round)
    return best


def bootstrap_median(ratios, draws=2000, seed=0):
    rng = np.random.default_rng(seed)
    r = np.asarray(ratios)
    medians = np.median(r[rng.integers(0, len(r), size=(draws, len(r)))], axis=1)
    return float(np.percentile(medians, 2.5)), float(np.percentile(medians, 97.5))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("a_src")
    ap.add_argument("b_src")
    ap.add_argument("--layer", choices=("rhs", "rk4-step", "semi-step", "simulate"),
                    required=True)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    sides = [layer_call(load(src, name), args.layer, args.n)
             for src, name in ((args.a_src, "llgs_a"), (args.b_src, "llgs_b"))]
    equal = sides[0][1]() == sides[1][1]()
    per_call = batch(sides[0][0], 20, 1)
    reps = max(1, int(BATCH_S / per_call))
    times = ([], [])
    for i in range(PAIRS):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            times[side].append(batch(sides[side][0], reps))
    ratios = [b / a for a, b in zip(*times)]
    lo, hi = bootstrap_median(ratios)
    report = {
        "layer": args.layer, "n": args.n, "a_src": args.a_src, "b_src": args.b_src,
        "pairs": PAIRS, "calls_per_batch": reps,
        "a_median_us": 1e6 * statistics.median(times[0]),
        "b_median_us": 1e6 * statistics.median(times[1]),
        "ratio_b_over_a_median": statistics.median(ratios),
        "ratio_ci95": [lo, hi],
        "b_faster_pairs": sum(r < 1 for r in ratios),
        "outputs_byte_equal": equal,
        "a_us": [1e6 * t for t in times[0]], "b_us": [1e6 * t for t in times[1]],
    }
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
