"""The benchmark's workloads: inputs made from a seed, one closed-loop round
of operations, and the closed-form oracle each operation is checked against.

Every workload drives ``retard_oc`` through its public API or through the
``retard-oc`` command line run in-process (``retard_oc.cli.main``).  Library
functions are looked up on their module at call time, so wrappers the
tracer installs are seen.  A round runs the same operations on the same
inputs every time; the seed picks the inputs.

Oracles use the gates of the library's acceptance suite.  An operation that
raises, exits with an unexpected status or misses its oracle counts as
failed; its time is recorded all the same.
"""

from __future__ import annotations

import contextlib
import csv
import io
import re
import time
from fractions import Fraction
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import retard_oc as rc
from retard_oc import cli, registry

# Four-thousand-and-one points on [a, b], as in acceptance criterion 4.
SUP_POINTS = 4001

# The state-linear benchmark ocp-ld-paper in the problem-file language.
LD_PROBLEM_FILE = """\
problem ld-from-file
kind state-linear
horizon a = 0  b = 4
delays r = 2  s = 1
dims n = 1  m = 1
control-set all
A[0,0] = 1
AD[0,0] = 1
g[0] = 0
gD[0] = -10*v0
f0x = x0
f0u = 100*u0^2
phi[0] = 1
psi[0] = 0
"""


@dataclass
class Op:
    """One timed operation and what its oracle found."""

    name: str
    seconds: float = 0.0
    start: float = 0.0     # perf_counter at the start and end of the call
    end: float = 0.0
    cpu_seconds: float = 0.0
    ok: bool = False
    detail: str = ""
    # bit-exact outputs compared by the transparency test
    outputs: dict = field(default_factory=dict)
    # accuracy figures against the closed forms
    cost_gap: float | None = None
    control_err: float | None = None


def _timed(name: str, run, check, pause) -> Op:
    op = Op(name)
    cpu0, op.start = time.process_time(), time.perf_counter()
    try:
        result = run()
    except Exception as exc:  # a raising operation is a failed operation
        op.end = time.perf_counter()
        op.seconds = op.end - op.start
        op.cpu_seconds = time.process_time() - cpu0
        op.detail = f"raised {type(exc).__name__}: {exc}"
        return op
    op.end = time.perf_counter()
    op.seconds = op.end - op.start
    op.cpu_seconds = time.process_time() - cpu0
    with pause():
        try:
            check(op, result)
        except Exception as exc:
            op.ok = False
            op.detail = f"oracle raised {type(exc).__name__}: {exc}"
    return op


def _gate(op: Op, checks: dict) -> None:
    """Record each named (value, limit) pair; the op passes if all hold."""
    misses = [f"{k}={v:.3e} > {lim:g}" for k, (v, lim) in checks.items()
              if not v <= lim]
    op.ok = not misses
    op.detail = "; ".join(misses)


def _sup(fn, ref, lo: float, hi: float) -> float:
    return max(abs(float(fn(t)) - ref(t))
               for t in np.linspace(lo, hi, SUP_POINTS))


@contextlib.contextmanager
def _no_pause():
    yield


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def operations(self):
        """(name, run, check) triples of one round."""
        raise NotImplementedError

    def run_control_errs(self) -> list[float]:
        """Control errors measured once per run rather than per operation."""
        return []

    def round(self, tracer=None) -> list[Op]:
        """Run every operation once; with a tracer, spans are tagged with
        the operation and the oracle checks are not traced."""
        pause = tracer.paused if tracer is not None else _no_pause
        ops = []
        for name, run, check in self.operations():
            if tracer is not None:
                tracer.request = name
            ops.append(_timed(name, run, check, pause))
        return ops


# ---------------------------------------------------------------------------

# Largest level of the seeded start control.  The zero start (seed 0) is
# about 1 away from the optimum in sup norm; a start this close to zero keeps
# the iteration count within a few of the zero start's 30.
SWEEP_START_AMPLITUDE = 1e-3


class SweepLd(Workload):
    """solve_fbsm on ocp-ld-paper with the default SweepConfig."""

    name = "sweep-ld"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.example = rc.get_example("ocp-ld-paper")
        self.problem = self.example.make_problem()
        self.cfg = rc.SweepConfig()
        self.init_control = None if seed == 0 else self._seeded_control()

    def _seeded_control(self):
        """Small piecewise-constant start, one level per lattice cell (the
        sweep needs control jumps to sit on cell boundaries)."""
        p = self.problem
        levels = np.random.default_rng(self.seed).uniform(
            -SWEEP_START_AMPLITUDE, SWEEP_START_AMPLITUDE, p.lattice().n_cells)
        pieces = [(p.control_history_start, p.a, p.psi)]
        for i, lo, hi in p.lattice().cells():
            pieces.append((lo, hi, lambda t, c=float(levels[i]): np.array([c])))
        return rc.from_pieces(p.m, pieces, main_start=p.a)

    def operations(self):
        def run():
            return rc.solve_fbsm(self.problem, self.init_control, self.cfg)

        def check(op, sol):
            op.cost_gap = abs(sol.cost - self.example.known_cost)
            op.control_err = _sup(lambda t: sol.control.eval(t)[0],
                                  registry.ld_control_value,
                                  float(self.problem.a), float(self.problem.b))
            op.outputs = {"cost": sol.cost, "iterations": sol.iterations,
                          "converged": sol.converged}
            _gate(op, {"not_converged": (0.0 if sol.converged else 1.0, 0.0),
                       "cost_gap": (op.cost_gap, 1e-4),
                       "control_err": (op.control_err, 1e-5)})

        return [("solve_fbsm", run, check)]


# ---------------------------------------------------------------------------

_COST_LINE = re.compile(r"^cost: (\S+)$", re.M)
_ITER_LINE = re.compile(r"^converged: (True|False) after (\d+) iterations$", re.M)


class DirectFile(Workload):
    """Two direct-transcription solves through the CLI: the ld benchmark from
    a generated problem file, and the Goellmann-type benchmark by name."""

    name = "direct-file"
    FLAGS = ["--max-iter", "200", "--tol", "1e-9", "--substeps", "16"]

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.problem_file = workdir / "ld.ocp"
        self.problem_file.write_text(LD_PROBLEM_FILE, encoding="utf-8")
        parsed = rc.load_problem(str(self.problem_file))
        if (parsed.a, parsed.b, parsed.r, parsed.s) != (0, 4, 2, 1):
            raise RuntimeError("generated problem file parsed to the wrong horizon")
        self.ld = rc.get_example("ocp-ld-paper")
        self.goellmann = rc.get_example("ocp-d-goellmann")

    def _solve(self, label, target, n_steps, example, reference, gate):
        out = self.workdir / label
        problem = example.make_problem()
        a, b = float(problem.a), float(problem.b)
        argv = (["solve-direct"] + target
                + ["--N", str(n_steps)] + self.FLAGS
                + ["--seed", str(self.seed), "--out", str(out)])

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        def check(op, result):
            code, stdout = result
            cost = float(_COST_LINE.search(stdout).group(1))
            iterations = int(_ITER_LINE.search(stdout).group(2))
            op.cost_gap = abs(cost - example.known_cost)
            op.control_err = _csv_control_err(out / "trajectories.csv",
                                              reference, a, b)
            op.outputs = {"exit": code, "cost": cost, "iterations": iterations}
            _gate(op, {"exit_status": (float(code), 0.0),
                       "cost_gap": (op.cost_gap, 1e-2),
                       "control_err": (op.control_err, gate)})

        return (f"cli solve-direct {label}", run, check)

    def operations(self):
        return [
            self._solve("ld-file", ["--file", str(self.problem_file)], 2000,
                        self.ld, registry.ld_control_value, 5e-3),
            self._solve("goellmann", ["ocp-d-goellmann"], 1500,
                        self.goellmann, registry.d_control_value, 1e-2),
        ]


def _csv_control_err(path: Path, reference, a: float, b: float) -> float:
    """Sup distance of the u_1 column from the closed form on [a, b]."""
    worst = 0.0
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            t = float(row["t"])
            if a <= t <= b:
                worst = max(worst, abs(float(row["u_1"]) - reference(t)))
    return worst


# ---------------------------------------------------------------------------

class CertifyTransform(Workload):
    """The documented certificate runs, genuine and negative, and the
    delay-free transform round trip on both benchmarks."""

    name = "certify-transform"
    QUADRATURE_STEPS = 512
    SUBSTEPS = 64

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.cfg = rc.VerifyConfig(seed=seed)
        self.ld = rc.get_example("ocp-ld-paper")
        self.ld_problem = self.ld.make_problem()
        self.ld_cand = self.ld.make_candidate()
        self.ld_bumped = registry.make_ld_bumped_candidate()
        self.ld_shifted_adjoint = registry.make_ld_shifted_adjoint()
        self.concave = rc.get_example("concave-cost")
        self.concave_problem = self.concave.make_problem()
        self.concave_cand = self.concave.make_candidate()
        self.d = rc.get_example("ocp-d-goellmann")
        self.d_problem = self.d.make_problem()
        self.d_cand = self.d.make_candidate()
        self.d_zeroed = registry.make_d_zeroed_candidate()
        self.S = self.d.make_value_function()
        self.S_scaled = self.d.make_value_function(eta3_scale=1.1)
        self.S_shifted = self.d.make_value_function(c3_shift=1.0)
        self._references: dict = {}

    # -- certificates ----------------------------------------------------------

    def _certificate(self, label, run, expect_pass, targeted=None, known_cost=None):
        def check(op, cert):
            failed = sorted(c.name for c in cert.checks if not c.passed)
            op.outputs = {"overall": cert.overall, "failed": failed,
                          "cost": cert.metrics["cost"]}
            if expect_pass:
                op.cost_gap = abs(cert.metrics["cost"] - known_cost)
                op.ok = cert.overall
            else:
                op.ok = (not cert.overall) and targeted in failed
            op.detail = "" if op.ok else (
                f"overall={cert.overall} failed={failed}, expected "
                f"{'PASS' if expect_pass else 'FAIL on ' + targeted}")

        return (f"certificate {label}", run, check)

    def _certificates(self):
        verify_sl = lambda *a, **k: rc.verify_state_linear(*a, cfg=self.cfg, **k)
        verify_hj = lambda cand, S: rc.verify_nonlinear_hj(
            self.d_problem, cand, S, self.d.feedback, self.cfg)
        ld, d = self.ld_problem, self.d_problem
        return [
            self._certificate("ld", lambda: verify_sl(ld, self.ld_cand),
                              True, known_cost=self.ld.known_cost),
            self._certificate("ld control-bump",
                              lambda: verify_sl(ld, self.ld_bumped),
                              False, "maximality"),
            self._certificate("ld transversality-shift",
                              lambda: verify_sl(ld, self.ld_cand,
                                                adjoint_override=self.ld_shifted_adjoint),
                              False, "transversality"),
            self._certificate("concave-cost",
                              lambda: verify_sl(self.concave_problem, self.concave_cand),
                              False, "convexity_f0x"),
            self._certificate("goellmann", lambda: verify_hj(self.d_cand, self.S),
                              True, known_cost=self.d.known_cost),
            self._certificate("goellmann zero-control",
                              lambda: verify_hj(self.d_zeroed, self.S),
                              False, "feedback_consistency"),
            self._certificate("goellmann scale-eta3",
                              lambda: verify_hj(self.d_cand, self.S_scaled),
                              False, "hj_residual"),
            self._certificate("goellmann shift-c3",
                              lambda: verify_hj(self.d_cand, self.S_shifted),
                              False, "value_smoothness"),
        ]

    # -- transform round trip --------------------------------------------------

    def _transform(self, label, example, problem, cand):
        integrator = rc.IntegratorConfig(substeps_per_cell=self.SUBSTEPS)

        def run():
            lattice = problem.lattice()
            aug = rc.augment(problem, lattice)
            stacked = rc.stack_candidate(aug, cand)
            back = rc.reassemble(stacked, lattice)
            cost = rc.augmented_cost(aug, stacked, self.QUADRATURE_STEPS)
            integrated = rc.reassemble(rc.integrate_augmented(aug, cand.control,
                                                              integrator), lattice)
            return back, cost, integrated

        def check(op, result):
            back, cost, integrated = result
            direct_cost, forward = self._reference(label, problem, cand, integrator)
            trip = _sup_vec(back.state, cand.state,
                            float(problem.state_history_start), float(problem.b))
            dyn = _sup_vec(integrated.state, forward, float(problem.a), float(problem.b))
            op.cost_gap = abs(cost - example.known_cost)
            op.outputs = {"cost": cost, "round_trip": trip, "dynamics_gap": dyn}
            _gate(op, {"round_trip": (trip, 1e-12),
                       "cost_gap": (abs(cost - direct_cost), 1e-10),
                       "dynamics_gap": (dyn, 1e-8)})

        return (f"transform {label}", run, check)

    def _reference(self, label, problem, cand, integrator):
        """Delayed-problem cost and state the stacked system must reproduce;
        the same for every round, so computed once."""
        if label not in self._references:
            self._references[label] = (
                rc.evaluate_cost(problem, cand, self.QUADRATURE_STEPS),
                rc.integrate_forward(problem, cand.control, integrator))
        return self._references[label]

    def operations(self):
        return self._certificates() + [
            self._transform("ld", self.ld, self.ld_problem, self.ld_cand),
            self._transform("goellmann", self.d, self.d_problem, self.d_cand),
        ]

    def run_control_errs(self) -> list[float]:
        """Sup distance, over the maximality check's rational grid, between
        the argmax built from the integrated ld adjoint and the closed-form
        control: the control this workload's certificate compares against."""
        p, cand = self.ld_problem, self.ld_cand
        eta = rc.integrate_adjoint_linear(p, cand, self.cfg.integrator)
        per_cell = self.cfg.grid_points_per_cell
        times = [lo + (hi - lo) * Fraction(j, per_cell)
                 for _, lo, hi in p.lattice().cells() for j in range(per_cell)]
        times.append(p.b)
        return [max(abs(float(rc.argmax_control_state_linear(p, cand, eta, t)[0])
                        - registry.ld_control_value(float(t))) for t in times)]


def _sup_vec(curve, reference, lo: float, hi: float, points: int = 1001) -> float:
    return max(float(np.max(np.abs(curve.eval(t) - reference.eval(t))))
               for t in np.linspace(lo, hi, points))


WORKLOADS = {w.name: w for w in (SweepLd, DirectFile, CertifyTransform)}
