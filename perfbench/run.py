"""Benchmark driver: runs one workload (or all three) and reports its metrics.

Usage:
    python3 perfbench/run.py --workload pde-hopf|pde-sideband|cli-sweep|all
                             --seed N --seconds S --trace 0|1 [--out FILE]
    python3 perfbench/run.py --record-reference

Every invocation runs in a fresh child interpreter (`child.py`), started one
at a time from this process; each workload is closed-loop, starting its next
operation only after the previous one finished.  Operations repeat while
at least half of the next one is expected to fall within `--seconds`.  With
`--trace 1` untraced and traced operations alternate, and the run adds the
kernel probes and the import breakdown; the per-module metrics come from the
traced operations and the difference in wall time between the two kinds is
the tracing overhead.

The report lists every metric by name and unit, with the median, quartiles
and sample count behind it.  The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics, or with `--trace 1` the per-module ones).  The full result, with
the run record, goes to `--out` (appended) or to `.perfbench/results/`.
The exit code is 1 when a correctness gate failed and 2 when the checkout
has no `src/llgs` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

from common import BENCH_DIR, ROOT, SRC, WORK, child_env, median, now, summary
import record
import tracing
import workloads

WORKLOADS = ("pde-hopf", "pde-sideband", "cli-sweep")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "steps_per_s": "1/s",
                    "max_rel_err": "ratio", "peak_rss_mb": "MB", "failed_frac": "ratio"}
# The end-to-end metrics BENCHMARK.json bounds.  Two more are printed and
# stored: failed_frac is 0 on a correct program (the `failed`/`attempted`
# fields carry it), and steps_per_s is too noisy on cli-sweep, where it times
# a 0.2 s run, to hold any bound; it is reported with the per-module metrics.
REPORTED_END_TO_END = ("wall_s", "setup_s", "solve_s", "max_rel_err", "peak_rss_mb")
RHS_SIZES = (64, 1024, 4096)
# A child still running this long after the run started is killed, so the
# run ends within its 180 s limit even if the program hangs.
RUN_DEADLINE_S = 170.0
IMPORT_MODULES = {"llgs.cli": "import.llgs_cli_s", "scipy.integrate": "import.scipy_integrate_s",
                  "scipy.optimize": "import.scipy_optimize_s"}
IMPORT_SAMPLES = 3


class Run:
    """One run of one workload: spawns the children and keeps their results."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
                 reference=None):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.workdir = workdir
        self.reference = reference
        self.start = now()
        self.ops = []  # per operation: dict of sums, invocation records, checks
        self.spans = []

    # -- children --------------------------------------------------------

    def spawn(self, argv, log: Path):
        """Run a child to completion; returns (wall s, exit code, peak RSS MB, t0)."""
        with open(log, "w") as fh:
            t0 = now()
            proc = subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdout=fh, stderr=fh)
            timer = threading.Timer(max(1.0, RUN_DEADLINE_S - (t0 - self.start)), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t1 = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return t1 - t0, proc.returncode, usage.ru_maxrss / 1024.0, t0

    def invoke(self, inv: dict, invdir: Path, traced: bool, run_id: str) -> dict:
        invdir.mkdir(parents=True)
        spec = dict(inv, trace=traced, run_id=run_id, result=str(invdir / "_result.json"))
        if "out" in inv:
            spec["argv"] = inv["argv"] + ["--out", str(invdir / inv["out"])]
        spec_path = invdir / "_spec.json"
        spec_path.write_text(json.dumps(spec))
        wall, code, rss, t0 = self.spawn([sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
                                         invdir / "_log.txt")
        try:
            child = json.loads(Path(spec["result"]).read_text())
        except (OSError, ValueError):
            child = {"error": "no result written"}
        for name in ("_spec.json", "_result.json"):
            (invdir / name).unlink(missing_ok=True)
        setup_end = child.get("t_setup_end") or child.get("t_solve_end", t0 + wall)
        solve_end = child.get("t_solve_end", t0 + wall)
        sim_s = sum(exit_ - enter for enter, exit_, _ in child.get("sim", []))
        steps = sum(s for _, _, s in child.get("sim", []))
        rec = {"name": inv["name"], "wall_s": wall, "setup_s": setup_end - t0,
               "solve_s": solve_end - setup_end, "sim_s": sim_s, "steps": steps,
               "peak_rss_mb": rss, "exit": code, "rc": child.get("rc", 0),
               "error": child.get("error"),
               "values": {k: v for k, v in child.items() if not k.startswith("t_") and k not in
                          ("sim", "trace", "error", "rc")}}
        if traced and "trace" in child:
            spans = child["trace"]["spans"]
            rec["layers"] = tracing.layer_metrics(spans)
            rec["layers"]["trace.self_sum_s"] = tracing.top_level_time(spans, setup_end, solve_end)
            self.spans.append({"run_id": run_id, "spans": spans})
        rec["failed"] = code != 0 or rec["rc"] != 0 or bool(rec["error"])
        return rec

    def check(self, rec: dict, invdir: Path):
        """Run the workload's gates on an invocation's outputs."""
        checks = []
        if not rec["failed"]:
            try:
                checks = workloads.check_invocation(self.workload, rec["name"], invdir,
                                                    rec["values"], self.reference)
            except Exception as exc:  # a malformed output is a failed operation
                rec["error"] = f"check raised {type(exc).__name__}: {exc}"
        rec["checks"] = [(n, _finite(e), g) for n, e, g in checks]
        rec["failed"] = rec["failed"] or bool(rec["error"]) or any(not (e <= g) for _, e, g in checks)

    # -- operations ------------------------------------------------------

    def operation(self, index: int, traced: bool) -> dict:
        opdir = self.workdir / f"op{index}"
        invs = []
        for inv in workloads.invocations(self.workload, self.seed):
            run_id = f"{self.workload}/seed{self.seed}/op{index}/{inv['name']}"
            rec = self.invoke(inv, opdir / inv["name"], traced, run_id)
            self.check(rec, opdir / inv["name"])
            invs.append(rec)
        shutil.rmtree(opdir, ignore_errors=True)
        sim_s = sum(i["sim_s"] for i in invs)
        errs = [e for i in invs for _, e, _ in i["checks"]]
        op = {
            "traced": traced,
            "wall_s": sum(i["wall_s"] for i in invs),
            "setup_s": sum(i["setup_s"] for i in invs),
            "solve_s": sum(i["solve_s"] for i in invs),
            "steps_per_s": sum(i["steps"] for i in invs) / sim_s if sim_s > 0 else 0.0,
            "max_rel_err": max(errs) if errs else 0.0,
            "peak_rss_mb": max(i["peak_rss_mb"] for i in invs),
            "attempted": len(invs),
            "failed": sum(i["failed"] for i in invs),
            "invocations": invs,
        }
        return op

    def loop(self):
        """Closed loop: the next operation starts after the previous ended,
        while at least half of it is expected to fall within `seconds`, so
        runs last `seconds` on average."""
        index = 0
        while True:
            traced = self.trace and index % 2 == 1
            self.ops.append(self.operation(index, traced))
            index += 1
            elapsed = now() - self.start
            expected = median([op["wall_s"] for op in self.ops])
            enough = index >= (2 if self.trace else 1)
            if enough and (elapsed + expected / 2 > self.seconds or elapsed > RUN_DEADLINE_S / 2):
                return

    # -- probes ----------------------------------------------------------

    def probes(self) -> dict:
        """RHS kernel timings and the import breakdown, each in fresh children."""
        spec = {"name": "probe", "kind": "probe", "sizes": list(RHS_SIZES),
                "batches": 15, "batch_s": 0.02}
        rec = self.invoke(spec, self.workdir / "probe", False, f"{self.workload}/seed{self.seed}/probe")
        if rec["failed"]:
            raise RuntimeError(f"kernel probe failed: {rec['error']}")
        out = {f"model.{k}": v for k, v in rec["values"].items()}
        samples = {metric: [] for metric in IMPORT_MODULES.values()}
        for i in range(IMPORT_SAMPLES):
            log = self.workdir / f"importtime{i}.txt"
            _, code, _, _ = self.spawn([sys.executable, "-X", "importtime", "-c", "import llgs.cli"], log)
            if code != 0:
                raise RuntimeError(f"import llgs.cli failed:\n{log.read_text()}")
            cumulative = parse_importtime(log.read_text())
            for module, metric in IMPORT_MODULES.items():
                samples[metric].append(cumulative.get(module, 0.0))
        out.update({metric: median(v) for metric, v in samples.items()})
        return out


def parse_importtime(text: str) -> dict:
    """Cumulative seconds per module from `python -X importtime` output."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if parts[1].isdigit():
            out.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    return out


def _finite(x: float) -> float:
    return x if math.isfinite(x) else 1e300


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

UNITS_BY_SUFFIX = (("_us", "us"), ("_s", "s"), ("_mb", "MB"), ("_ratio", "ratio"),
                   ("bytes_computed", "B"), ("bytes_written", "B"))
PER_LAYER = (
    "steps_per_s",
    "import.llgs_cli_s", "import.scipy_integrate_s", "import.scipy_optimize_s",
    "model.rhs_us.n64", "model.rhs_us.n1024", "model.rhs_us.n4096",
    "model.rhs_bytes_computed.n1024", "model.energy_calls", "model.energy_s",
    "simulate.steps", "simulate.rhs_evals_computed", "simulate.step_us", "simulate.diag_s",
    "simulate.snapshots", "simulate.initial_s", "simulate.growth_fit_s",
    "spectrum.curves_s", "spectrum.curves_calls", "spectrum.dispersion_calls",
    "spectrum.dispersion_s", "spectrum.sideband_calls", "spectrum.sideband_useful_ratio",
    "wavetrains.wavetrain_at_calls",
    "coherent.portrait_s", "coherent.homoclinic_s", "coherent.fast_s", "coherent.lift_s",
    "coherent.force_evals", "coherent.slaved_calls", "coherent.fsolve_calls",
    "coherent.fsolve_nfev", "coherent.fsolve_failed", "coherent.ivp_calls",
    "coherent.ivp_nfev", "coherent.ivp_failed",
) + tuple(f"cli.invocation_s.{name}" for name, _, _ in workloads.SWEEP) + (
    "cli.config_s", "cli.write_s", "cli.rows_written", "cli.bytes_written", "cli.exit_nonzero",
    "trace.overhead_s", "trace.self_sum_s",
)


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.startswith("cli.invocation_s."):
        return "s"
    stem = re.sub(r"\.n\d+$", "", metric)  # model.rhs_us.n64 -> model.rhs_us
    for suffix, unit in UNITS_BY_SUFFIX:
        if stem.endswith(suffix):
            return unit
    return "count"


def end_to_end_samples(ops) -> dict:
    """Samples of every end-to-end metric: timings from the untraced
    operations, the worst error and the failure share over all of them."""
    untraced = [op for op in ops if not op["traced"]]
    samples = {m: [op[m] for op in untraced]
               for m in ("wall_s", "setup_s", "solve_s", "steps_per_s", "peak_rss_mb")}
    samples["max_rel_err"] = [max(op["max_rel_err"] for op in ops)]
    attempted = sum(op["attempted"] for op in ops)
    samples["failed_frac"] = [sum(op["failed"] for op in ops) / attempted]
    return samples


def per_layer_samples(ops, probes) -> dict:
    """Samples of every per-module metric (one per traced operation)."""
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    samples = {m: [v] for m, v in probes.items()}
    for op in traced:
        sums = {}
        for inv in op["invocations"]:
            for metric, value in inv.get("layers", {}).items():
                sums[metric] = sums.get(metric, 0.0) + value
        sums.update(tracing.derived(sums))
        for metric, value in sums.items():
            samples.setdefault(metric, []).append(value)
    for name, _, _ in workloads.SWEEP:
        samples[f"cli.invocation_s.{name}"] = [
            sum(inv["wall_s"] for inv in op["invocations"] if inv["name"] == name)
            for op in untraced]
    samples["cli.exit_nonzero"] = [sum(inv["exit"] != 0 or inv["rc"] != 0
                                       for op in ops for inv in op["invocations"])]
    samples["trace.overhead_s"] = [median([op["wall_s"] for op in traced])
                                   - median([op["wall_s"] for op in untraced])]
    return samples


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    reference = workloads.load_reference() if workload == "cli-sweep" else None
    run = Run(workload, seed, seconds, trace, workdir, reference)
    try:
        probes = run.probes() if trace else {}
        run.loop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    e2e = end_to_end_samples(run.ops)
    layers = per_layer_samples(run.ops, probes) if trace else {}
    metrics = {}
    for name, values in list(e2e.items()) + list(layers.items()):
        metrics[name] = dict(value=median(values), unit=unit_of(name), **summary(values))
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "record": record.run_record(seed),
        "attempted": sum(op["attempted"] for op in run.ops),
        "failed": sum(op["failed"] for op in run.ops),
        "metrics": metrics,
        "ops": run.ops,
    }
    result["correct"] = result["failed"] == 0
    if trace:
        spans_file = WORK / "spans" / f"{workload}-seed{seed}.json"
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text(json.dumps(run.spans))
        result["spans_file"] = str(spans_file.relative_to(ROOT))
        result["top_self_s"] = top_self_times(run.spans)
    return result


def top_self_times(traces, limit: int = 12) -> dict:
    """Largest total self times by span name over all traced invocations."""
    totals = {}
    for tr in traces:
        spans = tr["spans"]
        for (name, *_), t in zip(spans, tracing.self_times(spans)):
            totals[name] = totals.get(name, 0.0) + t
    ops = max(1, len({tr["run_id"].rsplit("/", 1)[0] for tr in traces}))
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:limit]
    return {name: t / ops for name, t in ranked}


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def print_report(result: dict):
    ops = result["ops"]
    n_traced = sum(op["traced"] for op in ops)
    print(f"== {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"({len(ops)} operations, {n_traced} traced)")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']:6s} "
              f"median of {m['n']}, q1 {m['q1']:.6g}, q3 {m['q3']:.6g}")
    worst = {}
    for op in ops:
        for inv in op["invocations"]:
            for name, err, gate in inv["checks"]:
                key = f"{inv['name']}:{name}"
                if key not in worst or err > worst[key][0]:
                    worst[key] = (err, gate)
            if inv["error"]:
                print(f"  FAILED {inv['name']}: {inv['error'].strip().splitlines()[-1]}")
    print("  checks (worst error / gate): " + ", ".join(
        f"{k} {e:.3g}/{g:.3g}{'' if e <= g else ' FAIL'}" for k, (e, g) in sorted(worst.items())))
    if result["trace"]:
        m = line_metrics(result, ("trace.self_sum_s", "solve_s", "trace.overhead_s"))
        print(f"  trace: top-level spans cover {m['trace.self_sum_s']['value']:.4g} s of the traced "
              f"solve; untraced solve_s + overhead = "
              f"{m['solve_s']['value'] + m['trace.overhead_s']['value']:.4g} s")
        print("  largest self times per operation: " + ", ".join(
            f"{k} {v:.4g} s" for k, v in result["top_self_s"].items()))
    print(f"  correct {result['correct']}: {result['failed']} of {result['attempted']} operations failed")


def line_metrics(result: dict, names) -> dict:
    # A metric is missing only when the operations that feed it failed, and
    # then `correct` is false; it is reported as 0.
    return {n: {"value": result["metrics"].get(n, {}).get("value", 0.0), "unit": unit_of(n)}
            for n in names}


def save(result: dict, out: Path | None):
    if out is None:
        out = WORK / "results" / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
        runs = []
    else:
        runs = json.loads(out.read_text())["runs"] if out.exists() else []
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"runs": runs + [result]}, indent=1))
    return out


def record_reference():
    """Record the cli-sweep output fingerprints at the current commit."""
    workdir = WORK / "work" / f"reference-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    run = Run("cli-sweep", 0, 0.0, False, workdir)
    reference = {}
    try:
        for inv in workloads.invocations("cli-sweep", 0):
            invdir = workdir / inv["name"]
            rec = run.invoke(inv, invdir, False, f"reference/{inv['name']}")
            if rec["failed"]:
                raise SystemExit(f"{inv['name']} failed: {rec['error']}")
            reference[inv["name"]] = workloads.fingerprints(invdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="result file to append this run to")
    parser.add_argument("--record-reference", action="store_true",
                        help="record the cli-sweep reference outputs and exit")
    args = parser.parse_args(argv)
    if not (SRC / "llgs" / "__init__.py").is_file():
        print(f"no llgs package under {SRC}: nothing to benchmark", file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    names = (PER_LAYER if args.trace else REPORTED_END_TO_END)
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in chosen:
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print_report(result)
        print(f"  result: {save(result, args.out)}")
        results.append(result)
    # With one workload the metrics keep their names; with all three they are
    # prefixed by the workload.
    prefix = (lambda r: "") if len(results) == 1 else (lambda r: r["workload"] + ".")
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {prefix(r) + n: m for r in results for n, m in line_metrics(r, names).items()},
    }))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
