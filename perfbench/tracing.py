"""Spans recorded around the public functions of the llgs modules.

`Tracer.install` replaces every public function attribute of the traced
modules with a wrapper that records a span: name, start, end, parent and the
run id of the child it ran in.  The wrapper sits at the module attribute the
caller looks up, so `llgs.cli` calling `simulate` goes through
`llgs.cli.simulate` and `llgs.coherent` calling `fsolve` goes through
`llgs.coherent.fsolve`.  Leading-underscore names are never wrapped, so
private helpers may be renamed or folded without touching the benchmark.

`layer_metrics` turns the spans of one traced operation into the per-module
metrics.  Self time is a span's duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
from collections import Counter, defaultdict

from common import now

MODULES = ("llgs.model", "llgs.wavetrains", "llgs.spectrum", "llgs.coherent",
           "llgs.simulate", "llgs.cli")


def _span_name(module_name: str, attr: str, fn) -> str:
    # A function defined in llgs is named where it is defined, whichever
    # module it was looked up in; a foreign one (scipy) where llgs sees it.
    owner = getattr(fn, "__module__", "") or ""
    if owner.startswith("llgs"):
        return f"{owner}.{fn.__name__}"
    return f"{module_name}.{attr}"


def _fsolve_stats(args, kwargs, result):
    if isinstance(result, tuple) and len(result) == 4:  # full_output=True
        return {"nfev": int(result[1].get("nfev", 0)), "failed": int(result[2] != 1)}
    return None


def _ivp_stats(args, kwargs, result):
    return {"nfev": int(result.nfev), "failed": int(result.status < 0)}


def _simulate_stats(args, kwargs, result):
    config = kwargs["config"] if "config" in kwargs else args[2]
    steps = int(round(config.t_final / config.dt))
    per_step = 4 if config.integrator == "rk4" else 1
    return {"steps": steps, "rhs_evals": steps * per_step,
            "snapshots": len(result.trajectory.values)}


def _sideband_stats(args, kwargs, result):
    return {"params": repr(args[0] if args else kwargs["params"])}


def _written(path, rows):
    return {"rows": rows, "bytes": os.path.getsize(path) if path is not None else 0}


def _write_rows_stats(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    rows = args[2] if len(args) > 2 else kwargs["rows"]
    return _written(path, len(rows))


def _write_record_stats(args, kwargs, result):
    return _written(args[0] if args else kwargs["path"], 1)


# Counts read from a call's arguments and return value, by span name.
CALL_STATS = {
    "llgs.coherent.fsolve": _fsolve_stats,
    "llgs.coherent.solve_ivp": _ivp_stats,
    "llgs.simulate.simulate": _simulate_stats,
    "llgs.spectrum.sideband_wavenumber": _sideband_stats,
    "llgs.cli.write_rows": _write_rows_stats,
    "llgs.cli.write_record": _write_record_stats,
}


class Tracer:
    """In-memory span recorder for one child interpreter."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index or -1, stats]
        self._stack = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        call_stats = CALL_STATS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, now(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = now()
                stack.pop()
            if call_stats is not None:
                span[4] = call_stats(args, kwargs, result)
            return result

        return traced

    def install(self, module_names=MODULES):
        """Wrap every public function attribute of each module."""
        for module_name in module_names:
            module = importlib.import_module(module_name)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                setattr(module, attr, self.wrap(_span_name(module_name, attr, value), value))
        # The CLI dispatches through its HANDLERS table, not by attribute.
        cli = importlib.import_module("llgs.cli")
        for command, handler in list(cli.HANDLERS.items()):
            if not hasattr(handler, "__wrapped__"):
                cli.HANDLERS[command] = self.wrap(
                    _span_name("llgs.cli", handler.__name__, handler), handler)

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans}


# ---------------------------------------------------------------------------
# Analysis, run in the driver
# ---------------------------------------------------------------------------


def self_times(spans):
    """Per-span self time: duration minus the time its children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def top_level_time(spans, lo: float, hi: float) -> float:
    """Time the top-level spans cover inside [lo, hi].

    The self times of a span tree add up to its root's duration, so this is
    the sum of all self times clipped to the window.
    """
    total = 0.0
    for _, start, end, parent, _ in spans:
        if parent < 0:
            total += max(0.0, min(end, hi) - max(start, lo))
    return total


def layer_metrics(spans) -> dict:
    """Per-module counts and seconds of one traced invocation.

    Every value adds up over invocations; `derived` forms the ratios."""
    calls, incl = Counter(), defaultdict(float)
    for name, start, end, _, _ in spans:
        calls[name] += 1
        incl[name] += end - start

    def stats_sum(name, key):
        return sum((s[4] or {}).get(key, 0) for s in spans if s[0] == name)

    # simulate(): its time without its energy children is the step loop;
    # those children are the diagnostics.  initial_s is the time the caller
    # spent building the initial data before entering simulate().
    energy_in_sim = initial = 0.0
    for name, start, end, parent, _ in spans:
        if name == "llgs.model.energy" and parent >= 0 and spans[parent][0] == "llgs.simulate.simulate":
            energy_in_sim += end - start
        elif name == "llgs.simulate.build_wavetrain_initial" and parent < 0:
            initial += end - start
        elif name == "llgs.cli.cmd_simulate":
            sims = [s for s in spans if s[0] == "llgs.simulate.simulate" and s[1] >= start and s[2] <= end]
            configs = sum(e - s for n, s, e, p, _ in spans
                          if n == "llgs.cli.params_from_config" and start <= s and e <= end)
            if sims:
                initial += sims[0][1] - start - configs
    distinct = {(s[4] or {}).get("params") for s in spans if s[0] == "llgs.spectrum.sideband_wavenumber"}

    return {
        "model.energy_calls": calls["llgs.model.energy"],
        "model.energy_s": incl["llgs.model.energy"],
        "simulate.steps": stats_sum("llgs.simulate.simulate", "steps"),
        "simulate.rhs_evals_computed": stats_sum("llgs.simulate.simulate", "rhs_evals"),
        "simulate.loop_s": incl["llgs.simulate.simulate"] - energy_in_sim,
        "simulate.diag_s": energy_in_sim,
        "simulate.snapshots": stats_sum("llgs.simulate.simulate", "snapshots"),
        "simulate.initial_s": initial,
        "simulate.growth_fit_s": incl["llgs.simulate.measure_growth_rate"],
        "spectrum.curves_s": incl["llgs.spectrum.spectrum_curves"],
        "spectrum.curves_calls": calls["llgs.spectrum.spectrum_curves"],
        "spectrum.dispersion_calls": calls["llgs.spectrum.dispersion"],
        "spectrum.dispersion_s": incl["llgs.spectrum.dispersion"],
        "spectrum.sideband_calls": calls["llgs.spectrum.sideband_wavenumber"],
        "spectrum.sideband_distinct": len(distinct),
        "wavetrains.wavetrain_at_calls": calls["llgs.wavetrains.wavetrain_at"],
        "coherent.portrait_s": incl["llgs.coherent.stationary_portrait"],
        "coherent.homoclinic_s": incl["llgs.coherent.stationary_homoclinic"],
        "coherent.fast_s": incl["llgs.coherent.fast_heteroclinic"],
        "coherent.lift_s": incl["llgs.coherent.lift_to_ode"],
        "coherent.force_evals": calls["llgs.coherent.pendulum_force"] + calls["llgs.coherent.potential"],
        "coherent.slaved_calls": calls["llgs.coherent.slaved_fast_variables"],
        "coherent.fsolve_calls": calls["llgs.coherent.fsolve"],
        "coherent.fsolve_nfev": stats_sum("llgs.coherent.fsolve", "nfev"),
        "coherent.fsolve_failed": stats_sum("llgs.coherent.fsolve", "failed"),
        "coherent.ivp_calls": calls["llgs.coherent.solve_ivp"],
        "coherent.ivp_nfev": stats_sum("llgs.coherent.solve_ivp", "nfev"),
        "coherent.ivp_failed": stats_sum("llgs.coherent.solve_ivp", "failed"),
        "cli.config_s": (incl["llgs.cli.preset_path"] + incl["llgs.cli.load_config"]
                         + incl["llgs.cli.params_from_config"]),
        "cli.write_s": incl["llgs.cli.write_rows"] + incl["llgs.cli.write_record"],
        "cli.rows_written": stats_sum("llgs.cli.write_rows", "rows") + stats_sum("llgs.cli.write_record", "rows"),
        "cli.bytes_written": stats_sum("llgs.cli.write_rows", "bytes") + stats_sum("llgs.cli.write_record", "bytes"),
    }


def derived(sums: dict) -> dict:
    """The ratio metrics, from layer sums over the invocations of an operation."""
    steps, calls = sums.get("simulate.steps", 0), sums.get("spectrum.sideband_calls", 0)
    return {
        "simulate.step_us": 1e6 * sums["simulate.loop_s"] / steps if steps else 0.0,
        "spectrum.sideband_useful_ratio": sums["spectrum.sideband_distinct"] / calls if calls else 0.0,
    }
