"""Command-line front end: run solvers and verifiers, export plot-ready CSV.

Exit status: 0 on success (and on an overall-pass certificate), 1 when a
verification certificate fails, 2 on usage or input errors.  Output files
land in ``--out DIR``: ``trajectories.csv`` with header
``t,x_1..x_n,u_1..u_m,eta_1..eta_n`` (history rows keep empty eta fields),
``certificate.txt`` / ``certificate.json`` for verify commands, and a
``summary.txt`` with the final cost.
"""

from __future__ import annotations

import argparse
import itertools
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .cost import evaluate_cost
from .dde import IntegratorConfig, integrate_adjoint_linear, integrate_forward
from .errors import ProblemFileError, RetardOCError
from .problems import CandidateSolution, StateLinearProblem
from .probfile import load_problem, load_value_function
from .reduction import augment, augmented_cost, integrate_augmented, reassemble, stack_candidate
from .registry import get_example, list_examples
from .solve import SweepConfig, TranscriptionConfig, solve_direct_euler, solve_fbsm
from .sufficiency import VerifyConfig, verify_nonlinear_hj, verify_state_linear

log = logging.getLogger(__name__)

SEED_ENV = "RETARD_OC_SEED"
SAMPLES_PER_UNIT_TIME = 500


@dataclass
class RunSpec:
    """One CLI invocation, fully resolved."""

    command: str
    problem_name: Optional[str] = None
    problem_file: Optional[str] = None
    out_dir: Optional[str] = None
    n_steps: Optional[int] = None
    substeps: int = 64
    tol: Optional[float] = None
    seed: int = 0
    analytic: bool = False
    with_s: str = "proposition"
    perturb: Optional[str] = None
    omega: float = 0.5
    max_iterations: int = 200
    quadrature_steps: int = 512


def _resolve_seed(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV)
    return int(env) if env else 0


def _load(spec: RunSpec):
    if spec.problem_file:
        return load_problem(spec.problem_file), None
    if not spec.problem_name:
        raise RetardOCError("no problem given (name or --file)")
    example = get_example(spec.problem_name)
    return example.make_problem(), example


def _format(v: float) -> str:
    return repr(float(v))


def write_trajectories_csv(path: Path, problem, cand: CandidateSolution,
                           eta=None) -> None:
    """Uniform grid at 500 samples per unit time, plus every lattice
    breakpoint; history rows (t < a) are included with empty eta fields and
    empty cells wherever a curve is not defined."""
    lattice = problem.lattice()
    t_lo = float(min(problem.state_history_start, problem.control_history_start))
    t_hi = float(problem.b)
    count = int(round((t_hi - t_lo) * SAMPLES_PER_UNIT_TIME)) + 1
    grid = set(np.linspace(t_lo, t_hi, count).tolist())
    grid.update(float(bp) for bp in lattice.breakpoints)
    grid.update((float(problem.state_history_start),
                 float(problem.control_history_start)))

    n, m = problem.n, problem.m
    header = (["t"] + [f"x_{i+1}" for i in range(n)]
              + [f"u_{j+1}" for j in range(m)]
              + [f"eta_{i+1}" for i in range(n)])
    times = np.array(sorted(grid))
    columns = [_csv_cells(times, cand.state, float(problem.state_history_start), n),
               _csv_cells(times, cand.control, float(problem.control_history_start), m),
               _csv_cells(times, eta, float(problem.a), n)]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for t, *cells in zip(times, *columns):
            fh.write(",".join([_format(t)] + [c for part in cells for c in part]) + "\n")


def _csv_cells(times: np.ndarray, curve, start: float, dim: int):
    """Formatted cells of ``curve`` row by row: empty before ``start`` or
    without a curve, then those of one ``eval_many`` call on the rest."""
    first = int(np.searchsorted(times, start - 1e-12)) if curve is not None else len(times)
    yield from itertools.repeat([""] * dim, first)
    if first < len(times):
        yield from ([_format(v) for v in row] for row in curve.eval_many(times[first:]))


def _write_summary(out: Path, lines: list[str]) -> None:
    with open(out / "summary.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit_certificate(out: Optional[Path], cert) -> None:
    print(cert.to_text(), end="")
    if out is not None:
        (out / "certificate.txt").write_text(cert.to_text(), encoding="utf-8")
        (out / "certificate.json").write_text(cert.to_json(), encoding="utf-8")


def _out_dir(spec: RunSpec) -> Optional[Path]:
    if spec.out_dir is None:
        return None
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- command implementations ---------------------------------------------------

def _cmd_example(spec: RunSpec) -> int:
    if spec.problem_name is None:  # list
        for name, note in list_examples():
            print(f"{name}: {note}")
        return 0
    example = get_example(spec.problem_name)
    problem = example.make_problem()
    integ = IntegratorConfig(substeps_per_cell=spec.substeps)
    if example.make_candidate is None:
        raise RetardOCError(f"{example.name} has no registered candidate")
    cand = example.make_candidate()
    if not spec.analytic:
        state = integrate_forward(problem, cand.control, integ)
        cand = CandidateSolution(state=state, control=cand.control)
    eta = None
    if isinstance(problem, StateLinearProblem):
        eta = integrate_adjoint_linear(problem, cand, integ)
    elif example.make_adjoint is not None:
        adj = example.make_adjoint()
        eta = adj  # Trajectory with eval()
    cost = evaluate_cost(problem, cand, spec.quadrature_steps)
    out = _out_dir(spec)
    print(f"example: {example.name}")
    print(f"cost: {cost!r}")
    if out is not None:
        write_trajectories_csv(out / "trajectories.csv", problem, cand, eta)
        _write_summary(out, [f"example = {example.name}",
                             f"analytic = {spec.analytic}",
                             f"cost = {cost!r}"])
    return 0


def _cmd_cost(spec: RunSpec) -> int:
    problem, example = _load(spec)
    if example is None or example.make_candidate is None:
        raise RetardOCError("cost needs a registered candidate; file-defined "
                            "problems have none (solve them instead)")
    cand = example.make_candidate()
    cost = evaluate_cost(problem, cand, spec.quadrature_steps)
    print(f"cost: {cost!r}")
    out = _out_dir(spec)
    if out is not None:
        _write_summary(out, [f"problem = {problem.name}", f"cost = {cost!r}"])
    return 0


def _cmd_solve_fbsm(spec: RunSpec) -> int:
    problem, _ = _load(spec)
    if not isinstance(problem, StateLinearProblem):
        raise RetardOCError("solve-fbsm applies to state-linear problems")
    cfg = SweepConfig(max_iterations=spec.max_iterations, omega=spec.omega,
                      tol=spec.tol if spec.tol is not None else 1e-9,
                      integrator=IntegratorConfig(substeps_per_cell=spec.substeps))
    sol = solve_fbsm(problem, None, cfg)
    eta = integrate_adjoint_linear(problem, sol, cfg.integrator)
    print(f"converged: {sol.converged} after {sol.iterations} iterations")
    print(f"cost: {sol.cost!r}")
    out = _out_dir(spec)
    if out is not None:
        write_trajectories_csv(out / "trajectories.csv", problem, sol, eta)
        _write_summary(out, [f"problem = {problem.name}",
                             f"converged = {sol.converged}",
                             f"iterations = {sol.iterations}",
                             f"cost = {sol.cost!r}"])
    return 0 if sol.converged else 2


def _cmd_solve_direct(spec: RunSpec) -> int:
    problem, _ = _load(spec)
    lattice = problem.lattice()
    n_steps = spec.n_steps if spec.n_steps else 250 * lattice.n_cells
    cfg = TranscriptionConfig(n_steps=n_steps,
                              max_iterations=spec.max_iterations,
                              grad_tol=spec.tol if spec.tol is not None else 1e-8,
                              seed=spec.seed)
    sol = solve_direct_euler(problem, cfg,
                             IntegratorConfig(substeps_per_cell=spec.substeps))
    eta = None
    if isinstance(problem, StateLinearProblem):
        eta = integrate_adjoint_linear(problem, sol,
                                       IntegratorConfig(substeps_per_cell=spec.substeps))
    print(f"converged: {sol.converged} after {sol.iterations} iterations")
    print(f"discrete objective: {sol.discrete_objective!r}")
    print(f"cost: {sol.cost!r}")
    out = _out_dir(spec)
    if out is not None:
        write_trajectories_csv(out / "trajectories.csv", problem, sol, eta)
        _write_summary(out, [f"problem = {problem.name}",
                             f"n_steps = {n_steps}",
                             f"iterations = {sol.iterations}",
                             f"discrete_objective = {sol.discrete_objective!r}",
                             f"cost = {sol.cost!r}"])
    return 0


def _cmd_verify_linear(spec: RunSpec) -> int:
    problem, example = _load(spec)
    if not isinstance(problem, StateLinearProblem):
        raise RetardOCError("verify-linear applies to state-linear problems")
    if example is None or example.make_candidate is None:
        raise RetardOCError("verify-linear needs a registered candidate")
    cand = example.make_candidate()
    adjoint_override = None
    if spec.perturb == "control-bump":
        from .registry import make_ld_bumped_candidate
        cand = make_ld_bumped_candidate()
    elif spec.perturb == "transversality-shift":
        from .registry import make_ld_shifted_adjoint
        adjoint_override = make_ld_shifted_adjoint()
    elif spec.perturb is not None:
        raise RetardOCError(f"unknown perturbation {spec.perturb!r} for "
                            f"verify-linear")
    cfg = VerifyConfig(seed=spec.seed,
                       integrator=IntegratorConfig(substeps_per_cell=spec.substeps),
                       **({"tol_maximality": spec.tol} if spec.tol else {}))
    cert = verify_state_linear(problem, cand, cfg, adjoint_override=adjoint_override)
    out = _out_dir(spec)
    _emit_certificate(out, cert)
    if out is not None:
        eta = adjoint_override or integrate_adjoint_linear(problem, cand,
                                                           cfg.integrator)
        write_trajectories_csv(out / "trajectories.csv", problem, cand, eta)
        _write_summary(out, [f"problem = {problem.name}",
                             f"overall = {cert.overall}",
                             f"cost = {cert.metrics['cost']!r}"])
    return 0 if cert.overall else 1


def _cmd_verify_hj(spec: RunSpec) -> int:
    problem, example = _load(spec)
    if example is None or example.make_value_function is None:
        raise RetardOCError("verify-hj needs a registered problem with a "
                            "verification function")
    cand = example.make_candidate()
    feedback = example.feedback
    if spec.with_s == "proposition":
        S = example.make_value_function()
    else:
        S = load_value_function(spec.with_s)
    if spec.perturb == "zero-control":
        from .registry import make_d_zeroed_candidate
        cand = make_d_zeroed_candidate()
    elif spec.perturb == "scale-eta3":
        S = example.make_value_function(eta3_scale=1.1)
    elif spec.perturb == "shift-c3":
        S = example.make_value_function(c3_shift=1.0)
    elif spec.perturb is not None:
        raise RetardOCError(f"unknown perturbation {spec.perturb!r} for verify-hj")
    cfg = VerifyConfig(seed=spec.seed,
                       integrator=IntegratorConfig(substeps_per_cell=spec.substeps))
    cert = verify_nonlinear_hj(problem, cand, S, feedback, cfg)
    out = _out_dir(spec)
    _emit_certificate(out, cert)
    if out is not None:
        # the multiplier column carries S_x along the candidate trajectory
        eta = _MultiplierView(S, cand)
        write_trajectories_csv(out / "trajectories.csv", problem, cand, eta)
        _write_summary(out, [f"problem = {problem.name}",
                             f"overall = {cert.overall}",
                             f"cost = {cert.metrics['cost']!r}"])
    return 0 if cert.overall else 1


class _MultiplierView:
    """eta(t) = S_x(t, x(t)) presented through the ``eval_many`` protocol."""

    def __init__(self, S, cand):
        self.S = S
        self.cand = cand

    def eval_many(self, ts):
        xs = self.cand.state.eval_many(ts)
        return np.array([self.S.dx(float(t), x) for t, x in zip(ts, xs)])


def _cmd_transform(spec: RunSpec) -> int:
    problem, example = _load(spec)
    lattice = problem.lattice()
    aug = augment(problem, lattice)
    print(f"blocks: {aug.n_blocks}")
    print(f"block length: {aug.block_length}")
    print(f"stacked state dimension: {aug.stacked_state_dim}")
    print(f"stacked control dimension: {aug.stacked_control_dim}")
    print(f"state offset (cells): {aug.state_offset}")
    print(f"control offset (cells): {aug.control_offset}")
    lines = [f"problem = {problem.name}",
             f"blocks = {aug.n_blocks}",
             f"stacked_state_dim = {aug.stacked_state_dim}",
             f"state_offset = {aug.state_offset}",
             f"control_offset = {aug.control_offset}"]
    if example is not None and example.make_candidate is not None:
        cand = example.make_candidate()
        sol = stack_candidate(aug, cand)
        back = reassemble(sol, lattice)
        ts = np.linspace(float(problem.a), float(problem.b), 801)
        round_trip = max(float(np.max(np.abs(back.state.eval(t) - cand.state.eval(t))))
                         for t in ts)
        cost_gap = abs(augmented_cost(aug, sol, spec.quadrature_steps)
                       - evaluate_cost(problem, cand, spec.quadrature_steps))
        asol = integrate_augmented(aug, cand.control,
                                   IntegratorConfig(substeps_per_cell=spec.substeps))
        re = reassemble(asol, lattice)
        fwd = integrate_forward(problem, cand.control,
                                IntegratorConfig(substeps_per_cell=spec.substeps))
        dyn_gap = max(float(np.max(np.abs(re.state.eval(t) - fwd.eval(t))))
                      for t in ts)
        print(f"round-trip sup error: {round_trip:.3e}")
        print(f"cost gap (augmented vs original): {cost_gap:.3e}")
        print(f"dynamics gap (augmented vs delayed integration): {dyn_gap:.3e}")
        lines += [f"round_trip_sup_error = {round_trip!r}",
                  f"cost_gap = {cost_gap!r}",
                  f"dynamics_gap = {dyn_gap!r}"]
    out = _out_dir(spec)
    if out is not None:
        _write_summary(out, lines)
    return 0


_COMMANDS = {
    "example": _cmd_example,
    "cost": _cmd_cost,
    "solve-fbsm": _cmd_solve_fbsm,
    "solve-direct": _cmd_solve_direct,
    "verify-linear": _cmd_verify_linear,
    "verify-hj": _cmd_verify_hj,
    "transform": _cmd_transform,
}


def run(spec: RunSpec) -> int:
    """Execute one resolved invocation; returns the process exit status."""
    try:
        return _COMMANDS[spec.command](spec)
    except ProblemFileError as exc:
        print(f"error: problem file: {exc}", file=sys.stderr)
        return 2
    except (RetardOCError, KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _add_common(parser: argparse.ArgumentParser, with_file=True):
    if with_file:
        parser.add_argument("name", nargs="?", help="registered problem name")
        parser.add_argument("--file", help="declarative problem file")
    parser.add_argument("--out", help="output directory for artifacts")
    parser.add_argument("--substeps", type=int, default=64,
                        help="integrator substeps per lattice cell")
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None,
                        help=f"random seed (falls back to ${SEED_ENV})")
    parser.add_argument("--quadrature-steps", type=int, default=512)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retard-oc",
        description="Optimal control with constant time delays: integrate, "
                    "verify sufficiency certificates, reduce, solve.")
    parser.add_argument("--verbose", action="store_true",
                        help="stream solver iteration logs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("example", help="list registered problems or run one")
    p.add_argument("action", choices=["list", "run"])
    p.add_argument("name", nargs="?")
    p.add_argument("--analytic", action="store_true",
                   help="emit the registered closed-form candidate instead of "
                        "re-integrating the state")
    _add_common(p, with_file=False)

    p = sub.add_parser("cost", help="quadrature cost of a registered candidate")
    _add_common(p)

    p = sub.add_parser("solve-fbsm", help="forward-backward sweep solver")
    p.add_argument("--omega", type=float, default=0.5, help="relaxation weight")
    p.add_argument("--max-iter", type=int, default=200)
    _add_common(p)

    p = sub.add_parser("solve-direct", help="direct Euler transcription solver")
    p.add_argument("--N", type=int, default=None, dest="n_steps",
                   help="Euler subintervals (multiple of the lattice size)")
    p.add_argument("--max-iter", type=int, default=200)
    _add_common(p)

    p = sub.add_parser("verify-linear", help="state-linear sufficiency certificate")
    p.add_argument("--perturb", choices=["control-bump", "transversality-shift"])
    _add_common(p)

    p = sub.add_parser("verify-hj", help="nonlinear verification certificate")
    p.add_argument("--with-S", dest="with_s", default="proposition",
                   help="'proposition' for the registered verification "
                        "function, or a value-function file path")
    p.add_argument("--perturb", choices=["zero-control", "scale-eta3", "shift-c3"])
    _add_common(p)

    p = sub.add_parser("transform", help="delay-free reduction report")
    _add_common(p)
    return parser


def spec_from_args(args: argparse.Namespace) -> RunSpec:
    command = args.command
    name = getattr(args, "name", None)
    if command == "example":
        if args.action == "list":
            name = None
        elif name is None:
            raise RetardOCError("example run needs a problem name")
    return RunSpec(
        command=command,
        problem_name=name,
        problem_file=getattr(args, "file", None),
        out_dir=args.out,
        n_steps=getattr(args, "n_steps", None),
        substeps=args.substeps,
        tol=args.tol,
        seed=_resolve_seed(args.seed),
        analytic=getattr(args, "analytic", False),
        with_s=getattr(args, "with_s", "proposition"),
        perturb=getattr(args, "perturb", None),
        omega=getattr(args, "omega", 0.5),
        max_iterations=getattr(args, "max_iter", 200),
        quadrature_steps=args.quadrature_steps,
    )


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(name)s %(message)s", stream=sys.stderr)
    try:
        spec = spec_from_args(args)
    except RetardOCError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(spec)


if __name__ == "__main__":
    sys.exit(main())
