"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each measurement runs in a fresh
interpreter (``worker.py``) with one BLAS/OpenMP thread, one workload at a
time and no worker threads.  A shared host can run the same code up to
about twice as slow for seconds at a time, so times are calibrated: a speed
probe (``probe.py``) times a fixed reference slice during the run, and each
stretch of program time is scaled to the speed of a host on which the slice
takes ``probe.REFERENCE_SLICE_S``.  ``cal_wall_s`` is the median calibrated
round.  ``setup_s`` is the median set-up time of several fresh interpreters,
each scaled by a reference start-up timed just before it.  The uncalibrated
times are in the report.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
run, measured after an untraced run of the same length so that the tracing
overhead can be reported.  The line before it is a fuller report: every
sample count, a tail percentile, the failures and an environment stamp.
The same report and, for traced runs, the span file are written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep-ld", "direct-file", "certify-transform")

SETUP_SAMPLES = 9          # fresh interpreters timed up to READY, median kept
# Set-up is mostly imports, which a loaded host slows less than it slows
# computation, so set-up is calibrated by a reference start-up rather than by
# the speed probe: a fresh interpreter importing numpy, the library's one
# dependency.  REFERENCE_STARTUP_S is its time on an unloaded 2-vCPU Intel
# Xeon; set-up times are reported at that speed.
REFERENCE_STARTUP = [sys.executable, "-c", "import numpy; print('READY', flush=True)"]
REFERENCE_STARTUP_S = 0.1
CHILD_TIMEOUT_S = 150.0    # whole run must end within 180 s

# Self times are reported as shares of the traced round time: a layer that
# a workload never calls has a self time of exactly 0 s on every run, and a
# time that never changes is not a measurement.  The seconds are in the
# report line and the trace file.
PER_LAYER = [
    "trajectory.hermite.calls", "trajectory.hermite.self_share",
    "trajectory.locate.calls", "trajectory.locate.self_share",
    "trajectory.callable.calls",
    "problems.rhs.calls", "problems.rhs.self_share",
    "problems.running_cost.calls", "problems.running_cost.self_share",
    "dde.forward.calls", "dde.forward.self_share",
    "dde.adjoint.calls", "dde.adjoint.self_share",
    "cost.evaluate.calls", "cost.evaluate.self_share",
    "sufficiency.argmax.calls", "sufficiency.argmax.self_share",
    "sufficiency.hamiltonian.calls",
    "sufficiency.verify.self_share",
    "sufficiency.hj_residual.calls", "sufficiency.hj_residual.self_share",
    "numdiff.calls", "numdiff.self_share",
    "solve.gradient.calls", "solve.gradient.self_share",
    "reduction.integrate.calls", "reduction.integrate.self_share",
    "reduction.stacked_rhs.calls", "reduction.cost.self_share",
    "probfile.parse.self_share",
    "probfile.eval.calls", "probfile.eval.self_share",
    "cli.write.self_share", "cli.csv_bytes",
    "lattice.make.calls", "lattice.make.self_share",
    "solve.sweep.iterations", "solve.direct.iterations",
    "run.cpu_util", "trace.overhead",
]
ITERATION_METRICS = {"solve.sweep.iterations": "solve_fbsm",
                     "solve.direct.iterations": "cli solve-direct"}


def _unit(name: str) -> str:
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_share", "_util", ".overhead")):
        return "ratio"
    return "count"


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(PERFBENCH)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"   # same import work on every run
    env["PYTHONHASHSEED"] = "0"
    return env


def _until_ready(cmd: list[str]) -> tuple[float, str]:
    """Run one fresh interpreter to its end; return the time it took to
    print ``READY`` and the rest of its output."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        if not select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)[0]:
            raise RuntimeError("worker set-up timed out")
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:3])} failed with status {proc.returncode}")
    return ready_s, rest


def _setup_sample(args) -> tuple[float, float]:
    """One set-up time in a fresh interpreter, raw and scaled to reference
    speed by a reference start-up timed just before it."""
    reference_s, _ = _until_ready(REFERENCE_STARTUP)
    setup_s, _ = _until_ready(_worker_cmd(args, 0.0, 0) + ["--setup-only"])
    return setup_s, setup_s * REFERENCE_STARTUP_S / reference_s


def _worker_cmd(args, budget: float, trace: int) -> list[str]:
    return [sys.executable, str(PERFBENCH / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--budget", repr(budget), "--trace", str(trace), "--out", str(OUT)]


def _measure(args, budget: float, trace: int) -> dict:
    _, rest = _until_ready(_worker_cmd(args, budget, trace))
    return json.loads(rest.strip().splitlines()[-1])


def tail(samples: list[float]) -> dict:
    """Sample count, minimum, median, the highest whole percentile above
    the median with at least ten samples beyond it (from 21 samples on),
    and the samples themselves."""
    n = len(samples)
    out = {"n": n, "min": min(samples), "median": statistics.median(samples)}
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    if p > 50:
        out[f"p{p}"] = sorted(samples)[math.ceil(p / 100.0 * n) - 1]
    out["samples"] = samples
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "retard_oc" / "__init__.py").is_file():
        print("error: run from a source checkout (src/retard_oc is missing)",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    load_at_start = os.getloadavg()[0]

    # set-up probes before and after the measurement, so that the median is
    # not taken from a single stretch of a shared host's time
    setups = [_setup_sample(args) for _ in range(SETUP_SAMPLES // 2)]
    budget = args.seconds / 2.0 if args.trace else args.seconds
    plain = _measure(args, budget, 0)
    setups += [_setup_sample(args) for _ in range(SETUP_SAMPLES - len(setups))]
    runs = [plain]
    slowdown = plain["slowdown"]
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "loadavg_1m_at_start": load_at_start, "stamp": plain["stamp"],
              "setup_s": tail([cal for _, cal in setups]),
              "setup_raw_s": tail([raw for raw, _ in setups]),
              "cal_wall_s": tail(plain["round_cal_seconds"]),
              "wall_s": tail(plain["round_seconds"]),
              "slowdown": {"n": len(slowdown), "min": min(slowdown),
                           "median": statistics.median(slowdown),
                           "max": max(slowdown)},
              "op_seconds": {k: tail(v) for k, v in plain["op_seconds"].items()},
              "cpu_util": plain["cpu_util"], "failures": plain["failures"]}

    if args.trace:
        traced = _measure(args, budget, 1)
        runs.append(traced)
        layers = dict(traced["layers"])
        for metric, op_prefix in ITERATION_METRICS.items():
            layers[metric] = sum(v for k, v in traced["iterations_per_round"].items()
                                 if k.startswith(op_prefix))
        layers["run.cpu_util"] = plain["cpu_util"]
        layers["trace.overhead"] = (statistics.median(traced["round_cal_seconds"])
                                    / statistics.median(plain["round_cal_seconds"]))
        metrics = {k: {"value": layers.get(k, 0), "unit": _unit(k)} for k in PER_LAYER}
        report["layer_self_s"] = {k: v for k, v in layers.items() if k.endswith(".self_s")}
        report["traced_cal_wall_s"] = tail(traced["round_cal_seconds"])
        report["trace_file"] = traced.get("trace_file")
    else:
        ok_share = 1.0 - plain["failed"] / plain["attempted"]
        metrics = {
            "setup_s": {"value": report["setup_s"]["median"], "unit": "s"},
            "cal_wall_s": {"value": report["cal_wall_s"]["median"], "unit": "s"},
            "ops_ok": {"value": ok_share, "unit": "ratio"},
            "cost_gap": {"value": plain["cost_gap"], "unit": "abs"},
            "control_err": {"value": plain["control_err"], "unit": "abs"},
            "peak_rss_mb": {"value": plain["peak_rss_mb"], "unit": "MB"},
        }

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report["result"] = result
    path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
