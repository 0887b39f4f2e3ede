"""One measured process: set a workload up, run it in a closed loop, report.

``run.py`` starts this file in a fresh interpreter for every measurement.
The protocol on standard output is one ``READY`` line when set-up is done
(the parent times set-up up to that line) and then one JSON line with the
result.  With ``--setup-only`` the process stops after ``READY``.

While the workload runs, a speed probe interrupts it every 0.2 s for one
reference slice.  Operation times are reported with the slices taken out
(``round_seconds``) and scaled to reference speed (``round_cal_seconds``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from probe import REFERENCE_SLICE_S, SpeedProbe

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent

MIN_SLICES = 5      # speed samples a measurement needs to be calibrated

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _stamp() -> dict:
    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {k: os.environ.get(k) for k in BLAS_VARIABLES},
            "loadavg_1m": os.getloadavg()[0]}


def _per_round_layers(deltas: list[dict], round_seconds: list[float]) -> dict:
    """Per-round layer figures.  Counts must repeat exactly from round to
    round.  Self times are medians, in seconds and as a share of the round."""
    out = {}
    for key in deltas[0]:
        values = [d[key] for d in deltas]
        if key.endswith(".self_s"):
            out[key] = statistics.median(values)
            out[key[:-len("_s")] + "_share"] = statistics.median(
                v / wall for v, wall in zip(values, round_seconds))
        else:
            if len(set(values)) != 1:
                raise RuntimeError(f"{key} differs between rounds: {values}")
            out[key] = values[0]
    return out


def measure(workload, budget: float, probe, tracer=None) -> dict:
    """Closed loop: a round starts only after the previous one returned, and
    only if it is expected to finish within ``budget`` seconds."""
    rounds, deltas, ops = [], [], []
    if tracer is not None:
        probe.on_slice = tracer.exclude
    start = time.perf_counter()
    with probe.running():
        while True:
            before = tracer.snapshot() if tracer is not None else None
            round_ops = workload.round(tracer)
            if tracer is not None:
                after = tracer.snapshot()
                deltas.append({k: v - before.get(k, 0) for k, v in after.items()})
            ops.extend(round_ops)
            rounds.append(round_ops)
            elapsed = time.perf_counter() - start
            if elapsed + sum(op.seconds for op in round_ops) > budget:
                break
    return {"rounds": rounds, "ops": ops, "layers": deltas}


def summarize(result: dict, workload, probe) -> dict:
    rounds, ops = result["rounds"], result["ops"]
    if len(probe.took) < MIN_SLICES:
        raise RuntimeError(f"only {len(probe.took)} speed samples; run longer")
    # (slices taken out, and also scaled to reference speed) per operation
    times = {id(op): probe.calibrated(op.start, op.end) for op in ops}
    round_seconds = [sum(times[id(op)][0] for op in r) for r in rounds]
    round_cal_seconds = [sum(times[id(op)][1] for op in r) for r in rounds]
    wall = sum(op.seconds for op in ops)
    cpu = sum(op.cpu_seconds for op in ops)
    gaps = [op.cost_gap for op in ops if op.cost_gap is not None]
    errs = [op.control_err for op in ops if op.control_err is not None]
    errs += workload.run_control_errs()
    by_op: dict[str, list] = {}
    for op in ops:
        by_op.setdefault(op.name, []).append(times[id(op)][0])
    iterations = {}
    for r in rounds:
        for op in r:
            if "iterations" in op.outputs:
                iterations.setdefault(op.name, op.outputs["iterations"])
    return {
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "failures": [f"{op.name}: {op.detail}" for op in ops if not op.ok][:10],
        "round_seconds": round_seconds,
        "round_cal_seconds": round_cal_seconds,
        "slowdown": [t / REFERENCE_SLICE_S for t in probe.took],
        "op_seconds": by_op,
        "cpu_util": cpu / wall if wall > 0 else 0.0,
        "cost_gap": max(gaps) if gaps else None,
        "control_err": max(errs) if errs else None,
        "iterations_per_round": iterations,
        "layers": (_per_round_layers(result["layers"], round_seconds)
                   if result["layers"] else {}),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, help="directory for the trace file")
    args = parser.parse_args(argv)

    import workloads  # imports retard_oc

    out = Path(args.out)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        stamp = _stamp()
        probe = SpeedProbe()
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            with tracer.installed():
                result = measure(workload, args.budget, probe, tracer)
        else:
            result = measure(workload, args.budget, probe)
        summary = summarize(result, workload, probe)
        summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        summary["stamp"] = stamp
        if tracer is not None:
            trace_path = out / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(str(trace_path), {"workload": args.workload,
                                           "seed": args.seed, "stamp": stamp})
            summary["trace_file"] = str(trace_path.relative_to(ROOT))
        print(json.dumps(summary), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
