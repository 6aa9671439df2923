"""One operation of a workload, run in a fresh interpreter.

Usage: python3 perfbench/child.py SPEC.json

The spec names the operation (`kind`), its arguments and the file to write
the result to.  The result holds the timestamps the driver needs (the end of
set-up, the end of the solve, entry and exit of `simulate`), the values the
driver checks, and the spans when the spec asks for a traced run.  The exit
code is 0 when the operation returned normally.
"""

from __future__ import annotations

from common import now

T_START = now()

import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from common import SRC  # noqa: E402

# First calls that end set-up: the first time step or analytic kernel call.
KERNEL_ENTRIES = (
    ("llgs.model", "classify_anisotropy"),
    ("llgs.wavetrains", "wavetrain_at"),
    ("llgs.spectrum", "sideband_wavenumber"),
    ("llgs.spectrum", "spectrum_curves"),
    ("llgs.coherent", "stationary_portrait"),
    ("llgs.coherent", "stationary_homoclinic"),
    ("llgs.coherent", "fast_heteroclinic"),
    ("llgs.simulate", "simulate"),
)
LLGS_MODULES = ("llgs", "llgs.model", "llgs.wavetrains", "llgs.spectrum",
                "llgs.coherent", "llgs.simulate", "llgs.cli")


class Marks:
    """Set-up end and simulate() timing, recorded by thin wrappers."""

    def __init__(self):
        self.setup_end = None
        self.sim = []  # [enter, exit, steps] per simulate() call

    def kernel(self, fn, is_simulate):
        marks = self

        def marked(*args, **kwargs):
            t = now()
            if marks.setup_end is None:
                marks.setup_end = t
            if not is_simulate:
                return fn(*args, **kwargs)
            config = kwargs["config"] if "config" in kwargs else args[2]
            result = fn(*args, **kwargs)
            marks.sim.append([t, now(), int(round(config.t_final / config.dt))])
            return result

        marked.__wrapped__ = fn
        return marked

    def install(self):
        """Wrap each kernel entry wherever an llgs module holds it."""
        modules = [importlib.import_module(m) for m in LLGS_MODULES]
        for module_name, attr in KERNEL_ENTRIES:
            original = getattr(importlib.import_module(module_name), attr)
            target = _unwrapped(original)
            wrapped = self.kernel(original, attr == "simulate")
            for module in modules:
                for name, value in list(vars(module).items()):
                    if not name.startswith("_") and callable(value) and _unwrapped(value) is target:
                        setattr(module, name, wrapped)


def _unwrapped(fn):
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    return fn


def run_cli(spec, marks):
    cli = importlib.import_module("llgs.cli")
    marks.install()
    rc = cli.main(spec["argv"])
    return {"rc": rc}


def run_sideband(spec, marks):
    """Acceptance criterion 05 on the sideband preset's problem."""
    model = importlib.import_module("llgs.model")
    wavetrains = importlib.import_module("llgs.wavetrains")
    spectrum = importlib.import_module("llgs.spectrum")
    simulate = importlib.import_module("llgs.simulate")
    p = spec["problem"]
    params = model.ModelParams(*p["params"])
    grid = model.Grid1D(p["L"], p["n"])
    wt = wavetrains.wavetrain_at(params, p["k"])
    pert = simulate.PerturbationSpec("sideband", ell=p["ell"], amplitude=p["amplitude"])
    initial = simulate.build_wavetrain_initial(wt, grid, pert)
    config = simulate.SimConfig(dt=p["dt"], t_final=p["t_final"], integrator="rk4",
                                diag_every=1000, store_every=400)
    marks.install()
    result = simulate.simulate(initial, params, config)
    growth = simulate.measure_growth_rate(result.trajectory, p["ell"], carrier_k=p["k"],
                                          t_min=p["t_min"])
    b1, b2 = spectrum.spectrum_curves(wt, params, ell_max=1.0, n_samples=11)
    top = max(list(b1.lam.real[1:]) + list(b2.lam.real[1:]))
    theory = spectrum.physical_growth_rate(complex(top), params)
    return {"measured": growth.rate, "theory": theory}


def run_probe(spec, marks):
    """RHS kernel timings on a fixed unit field, and its computed bytes."""
    import tracemalloc

    import numpy as np

    model = importlib.import_module("llgs.model")
    params = model.ModelParams(1.0, 0.5, 1.0, 1.0)
    out = {}
    for n in spec["sizes"]:
        grid = model.Grid1D(2 * math.pi, n)
        x = grid.x
        values = np.column_stack([0.6 * np.cos(3 * x), 0.6 * np.sin(3 * x), np.full(n, 0.8)])
        fld = model.MagnetizationField(grid, values)
        rhs = model.rhs_landau_lifshitz
        for _ in range(50):
            rhs(fld, params)
        reps = max(1, int(spec["batch_s"] / _per_call(rhs, fld, params)))
        samples = []
        for _ in range(spec["batches"]):
            t0 = now()
            for _ in range(reps):
                rhs(fld, params)
            samples.append((now() - t0) / reps)
        samples.sort()
        out[f"rhs_us.n{n}"] = 1e6 * samples[len(samples) // 2]
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rhs(fld, params)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        out[f"rhs_bytes_computed.n{n}"] = values.nbytes + peak - base
    return out


def _per_call(rhs, fld, params):
    t0 = now()
    for _ in range(20):
        rhs(fld, params)
    return max((now() - t0) / 20, 1e-7)


KINDS = {"cli": run_cli, "sideband": run_sideband, "probe": run_probe}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    marks = Marks()
    out = {"t_start": T_START}
    tracer = None
    rc = 1
    try:
        llgs = importlib.import_module("llgs")
        if not Path(llgs.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"llgs imported from {llgs.__file__}, not from {SRC}")
        if spec.get("trace"):
            from tracing import Tracer

            tracer = Tracer(spec["run_id"])
            tracer.install()
        out.update(KINDS[spec["kind"]](spec, marks))
        rc = 0
    except Exception:
        out["error"] = traceback.format_exc()
    out["t_solve_end"] = now()
    out["t_setup_end"] = marks.setup_end
    out["sim"] = marks.sim
    if tracer is not None:
        out["trace"] = tracer.dump()
    Path(spec["result"]).write_text(json.dumps(out))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
