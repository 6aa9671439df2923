"""Paths, the shared clock and the summary statistics of the benchmark."""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# CLOCK_MONOTONIC is shared by every process on the machine, so a timestamp
# taken in a child can be subtracted from one taken in the driver.
now = time.monotonic


def child_env() -> dict:
    """Environment of every child interpreter: the checkout's `src` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def median(values):
    return float(statistics.median(values))


def quartiles(values):
    """(q1, median, q3); with fewer than two samples all three coincide."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def summary(values) -> dict:
    """Median and quartiles of `values`, with the sample count behind them."""
    q1, q2, q3 = quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}
