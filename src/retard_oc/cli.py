"""Command-line front end: run solvers and verifiers, export plot-ready CSV.

Each subcommand accepts only the options it reads (see ``build_parser``);
``--seed`` (else ``$RETARD_OC_SEED``) pins the certificates' random probes,
and both solvers are deterministic.

Exit status: 0 on success (and on an overall-pass certificate), 1 when a
verification certificate fails, 2 on usage or input errors.  Output files
land in ``--out DIR``: ``trajectories.csv`` with header
``t,x_1..x_n,u_1..u_m,eta_1..eta_n`` (history rows keep empty eta fields),
``certificate.txt`` / ``certificate.json`` for verify commands, and a
``summary.txt`` with the final cost.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import logging
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .cost import evaluate_cost
from .dde import IntegratorConfig, integrate_adjoint_linear, integrate_forward
from .errors import ProblemFileError, RetardOCError
from .problems import CandidateSolution, StateLinearProblem, array_form
from .probfile import load_problem, load_value_function
from .reduction import augment, augmented_cost, integrate_augmented, reassemble, stack_candidate
from .registry import (get_example, list_examples, make_d_zeroed_candidate,
                       make_ld_bumped_candidate, make_ld_shifted_adjoint)
from .solve import SweepConfig, TranscriptionConfig, solve_direct_euler, solve_fbsm
from .sufficiency import VerifyConfig, verify_nonlinear_hj, verify_state_linear

SEED_ENV = "RETARD_OC_SEED"
SAMPLES_PER_UNIT_TIME = 500
# rows formatted and written at a time: the column lists are a block's, never
# the whole file's, which would raise peak memory
CSV_BLOCK_ROWS = 256


def _load(args: argparse.Namespace):
    if args.file:
        return load_problem(args.file), None
    if not args.name:
        raise RetardOCError("no problem given (name or --file)")
    example = get_example(args.name)
    return example.make_problem(), example


def _integrator(args: argparse.Namespace) -> IntegratorConfig:
    return IntegratorConfig(substeps_per_cell=args.substeps)


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
    grid.update(lattice.edges.tolist())
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
        for lo in range(0, len(times), CSV_BLOCK_ROWS):
            hi = lo + CSV_BLOCK_ROWS
            cells = [map(repr, times[lo:hi].tolist())]
            for block in columns:
                cells += block(lo, hi)
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _csv_cells(times: np.ndarray, curve, start: float, dim: int):
    """The formatted cells of ``curve`` on rows lo..hi-1, one iterable per
    component, as a function of (lo, hi): empty before ``start`` or without a
    curve, then those of one ``eval_many`` call on the rest of ``times``."""
    first = int(np.searchsorted(times, start - 1e-12)) if curve is not None else len(times)
    values = curve.eval_many(times[first:]) if first < len(times) else np.empty((0, dim))

    def block(lo: int, hi: int) -> list:
        # blanks up to row first - 1; the writer's zip stops at row hi - 1
        return [itertools.chain(itertools.repeat("", max(first - lo, 0)),
                                map(repr, col.tolist()))
                for col in values[max(lo - first, 0):max(hi - first, 0)].T]
    return block


def _write_artifacts(args: argparse.Namespace, problem, lines: list[str],
                     cand: Optional[CandidateSolution] = None, eta=None,
                     cert=None) -> None:
    """Print ``cert``; under ``--out`` write its ``certificate.txt`` and
    ``certificate.json``, ``trajectories.csv`` when a candidate is given, and
    ``summary.txt`` with ``lines``."""
    if cert is not None:
        print(cert.to_text(), end="")
    if args.out is None:
        return
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if cert is not None:
        (out / "certificate.txt").write_text(cert.to_text(), encoding="utf-8")
        (out / "certificate.json").write_text(cert.to_json(), encoding="utf-8")
    if cand is not None:
        write_trajectories_csv(out / "trajectories.csv", problem, cand, eta)
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- command implementations ---------------------------------------------------

def _cmd_example(args: argparse.Namespace) -> int:
    if args.action == "list":
        for name, note in list_examples():
            print(f"{name}: {note}")
        return 0
    if args.name is None:
        raise RetardOCError("example run needs a problem name")
    example = get_example(args.name)
    problem = example.make_problem()
    integ = _integrator(args)
    if example.make_candidate is None:
        raise RetardOCError(f"{example.name} has no registered candidate")
    cand = example.make_candidate()
    if not args.analytic:
        state = integrate_forward(problem, cand.control, integ)
        cand = CandidateSolution(state=state, control=cand.control)
    eta = None
    if isinstance(problem, StateLinearProblem):
        eta = integrate_adjoint_linear(problem, cand, integ)
    elif example.make_adjoint is not None:
        eta = example.make_adjoint()
    cost = evaluate_cost(problem, cand, args.quadrature_steps)
    print(f"example: {example.name}")
    print(f"cost: {cost!r}")
    _write_artifacts(args, problem, [f"example = {example.name}",
                                     f"analytic = {args.analytic}",
                                     f"cost = {cost!r}"], cand, eta)
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    problem, example = _load(args)
    if example is None or example.make_candidate is None:
        raise RetardOCError("cost needs a registered candidate; file-defined "
                            "problems have none (solve them instead)")
    cand = example.make_candidate()
    cost = evaluate_cost(problem, cand, args.quadrature_steps)
    print(f"cost: {cost!r}")
    _write_artifacts(args, problem, [f"problem = {problem.name}", f"cost = {cost!r}"])
    return 0


def _cmd_solve_fbsm(args: argparse.Namespace) -> int:
    problem, _ = _load(args)
    cfg = SweepConfig(max_iterations=args.max_iter, omega=args.omega,
                      tol=args.tol, integrator=_integrator(args))
    sol = solve_fbsm(problem, None, cfg)
    # the costate is the CSV's eta column, so only written artifacts need it
    eta = integrate_adjoint_linear(problem, sol, cfg.integrator) if args.out else None
    print(f"converged: {sol.converged} after {sol.iterations} iterations")
    print(f"cost: {sol.cost!r}")
    _write_artifacts(args, problem, [f"problem = {problem.name}",
                                     f"converged = {sol.converged}",
                                     f"iterations = {sol.iterations}",
                                     f"cost = {sol.cost!r}"], sol, eta)
    return 0 if sol.converged else 2


def _cmd_solve_direct(args: argparse.Namespace) -> int:
    problem, _ = _load(args)
    n_steps = 250 * problem.lattice().n_cells if args.n_steps is None else args.n_steps
    if n_steps < 1:   # refused with the cell count, which the config cannot name
        raise ValueError(f"n_steps must be a positive multiple of {problem.lattice().n_cells}")
    cfg = TranscriptionConfig(n_steps=n_steps, max_iterations=args.max_iter,
                              grad_tol=args.tol)
    sol = solve_direct_euler(problem, cfg, _integrator(args))
    eta = (integrate_adjoint_linear(problem, sol, _integrator(args))
           if args.out and isinstance(problem, StateLinearProblem) else None)
    print(f"converged: {sol.converged} after {sol.iterations} iterations")
    print(f"discrete objective: {sol.discrete_objective!r}")
    print(f"cost: {sol.cost!r}")
    _write_artifacts(args, problem, [f"problem = {problem.name}",
                                     f"n_steps = {n_steps}",
                                     f"iterations = {sol.iterations}",
                                     f"discrete_objective = {sol.discrete_objective!r}",
                                     f"cost = {sol.cost!r}"], sol, eta)
    return 0


def _check_perturb(args: argparse.Namespace, example, own: str) -> None:
    """Refuse a ``--perturb`` fixture on any problem but its own, ``own``."""
    if args.perturb and example.name != own:
        raise RetardOCError(f"--perturb {args.perturb} is a fixture of {own}, "
                            f"not of {example.name}")


def _cmd_verify_linear(args: argparse.Namespace) -> int:
    problem, example = _load(args)
    if not isinstance(problem, StateLinearProblem):
        raise RetardOCError("verify-linear applies to state-linear problems")
    if example is None or example.make_candidate is None:
        raise RetardOCError("verify-linear needs a registered candidate")
    _check_perturb(args, example, "ocp-ld-paper")
    cand = example.make_candidate()
    if args.perturb == "control-bump":
        cand = make_ld_bumped_candidate()
    cfg = VerifyConfig(seed=args.seed, integrator=_integrator(args),
                       quadrature_steps_per_cell=args.quadrature_steps,
                       **({"tol_maximality": args.tol} if args.tol else {}))
    eta = (make_ld_shifted_adjoint() if args.perturb == "transversality-shift"
           else integrate_adjoint_linear(problem, cand, cfg.integrator))
    cert = verify_state_linear(problem, cand, cfg, adjoint_override=eta)
    _write_artifacts(args, problem, _verdict_lines(problem, cert), cand, eta, cert)
    return 0 if cert.overall else 1


def _cmd_verify_hj(args: argparse.Namespace) -> int:
    problem, example = _load(args)
    if example is None or example.make_value_function is None:
        raise RetardOCError("verify-hj needs a registered problem with a "
                            "verification function")
    _check_perturb(args, example, "ocp-d-goellmann")
    if args.perturb in ("scale-eta3", "shift-c3") and args.with_s != "proposition":
        raise RetardOCError(f"--perturb {args.perturb} perturbs the registered "
                            f"verification function; it cannot be combined "
                            f"with --with-S {args.with_s}")
    cand = example.make_candidate()
    S = (example.make_value_function() if args.with_s == "proposition"
         else load_value_function(args.with_s))
    if args.perturb == "zero-control":
        cand = make_d_zeroed_candidate()
    elif args.perturb == "scale-eta3":
        S = example.make_value_function(eta3_scale=1.1)
    elif args.perturb == "shift-c3":
        S = example.make_value_function(c3_shift=1.0)
    cfg = VerifyConfig(seed=args.seed,
                       quadrature_steps_per_cell=args.quadrature_steps)
    cert = verify_nonlinear_hj(problem, cand, S, example.feedback, cfg)
    # the multiplier column carries S_x along the candidate trajectory
    eta = SimpleNamespace(eval_many=lambda ts: array_form(S.S_x, (problem.n,))(
        ts, cand.state.eval_many(ts)))
    _write_artifacts(args, problem, _verdict_lines(problem, cert), cand, eta, cert)
    return 0 if cert.overall else 1


def _verdict_lines(problem, cert) -> list[str]:
    return [f"problem = {problem.name}", f"overall = {cert.overall}",
            f"cost = {cert.metrics['cost']!r}"]


def _cmd_transform(args: argparse.Namespace) -> int:
    problem, example = _load(args)
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
        round_trip = float(np.max(np.abs(back.state.eval_many(ts)
                                         - cand.state.eval_many(ts))))
        cost_gap = abs(augmented_cost(aug, sol, args.quadrature_steps)
                       - evaluate_cost(problem, cand, args.quadrature_steps))
        integrated = integrate_augmented(aug, cand.control, _integrator(args))
        re = reassemble(integrated, lattice)
        fwd = integrate_forward(problem, cand.control, _integrator(args))
        dyn_gap = float(np.max(np.abs(re.state.eval_many(ts) - fwd.eval_many(ts))))
        print(f"round-trip sup error: {round_trip:.3e}")
        print(f"cost gap (augmented vs original): {cost_gap:.3e}")
        print(f"dynamics gap (augmented vs delayed integration): {dyn_gap:.3e}")
        print(f"stacked ODE residual: {integrated.ode_residual:.3e}")
        lines += [f"round_trip_sup_error = {round_trip!r}",
                  f"cost_gap = {cost_gap!r}",
                  f"dynamics_gap = {dyn_gap!r}",
                  f"stacked_ode_residual = {integrated.ode_residual!r}"]
    _write_artifacts(args, problem, lines)
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


def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation (``main`` resolves ``args.seed``);
    returns the process exit status."""
    try:
        return _COMMANDS[args.command](args)
    except ProblemFileError as exc:
        print(f"error: problem file: {exc}", file=sys.stderr)
        return 2
    except (RetardOCError, KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


_OPTIONS = {
    "--substeps": dict(type=int, default=64,
                       help="integrator substeps per lattice cell"),
    "--quadrature-steps": dict(type=int, default=512,
                               help="cost quadrature steps per lattice cell"),
    "--max-iter": dict(type=int, default=200, help="iteration cap"),
}


def _subcommand(sub, name: str, help: str, *options: str,
                problem: bool = True) -> argparse.ArgumentParser:
    """A subparser with a problem name or ``--file`` (when ``problem``), the
    shared ``options`` it reads, and ``--out`` and ``--seed``."""
    p = sub.add_parser(name, help=help)
    if problem:
        p.add_argument("name", nargs="?", help="registered problem name")
        p.add_argument("--file", help="declarative problem file")
    for option in options:
        p.add_argument(option, **_OPTIONS[option])
    p.add_argument("--out", help="output directory for artifacts")
    p.add_argument("--seed", type=int, default=None,
                   help=f"seed of the certificates' random probes (falls back "
                        f"to ${SEED_ENV}, then 0)")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retard-oc",
        description="Optimal control with constant time delays: integrate, "
                    "verify sufficiency certificates, reduce, solve.")
    parser.add_argument("--verbose", action="store_true",
                        help="stream solver iteration logs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(sub, "example", "list registered problems or run one",
                    "--substeps", "--quadrature-steps", problem=False)
    p.add_argument("action", choices=["list", "run"])
    p.add_argument("name", nargs="?")
    p.add_argument("--analytic", action="store_true",
                   help="emit the registered closed-form candidate instead of "
                        "re-integrating the state")

    _subcommand(sub, "cost", "quadrature cost of a registered candidate",
                "--quadrature-steps")

    p = _subcommand(sub, "solve-fbsm", "forward-backward sweep solver",
                    "--substeps", "--max-iter")
    p.add_argument("--omega", type=float, default=0.5, help="fallback relaxation weight")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="convergence tolerance on the control change")

    p = _subcommand(sub, "solve-direct", "direct Euler transcription solver",
                    "--substeps", "--max-iter")
    p.add_argument("--N", type=int, default=None, dest="n_steps",
                   help="Euler subintervals (multiple of the lattice size)")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="projected-gradient stationarity tolerance")

    p = _subcommand(sub, "verify-linear", "state-linear sufficiency certificate",
                    "--substeps", "--quadrature-steps")
    p.add_argument("--perturb", choices=["control-bump", "transversality-shift"])
    p.add_argument("--tol", type=float, default=None,
                   help="maximality-check tolerance")

    p = _subcommand(sub, "verify-hj", "nonlinear verification certificate",
                    "--quadrature-steps")
    p.add_argument("--with-S", dest="with_s", default="proposition",
                   help="'proposition' for the registered verification "
                        "function, or a value-function file path")
    p.add_argument("--perturb", choices=["zero-control", "scale-eta3", "shift-c3"])

    _subcommand(sub, "transform", "delay-free reduction report",
                "--substeps", "--quadrature-steps")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reads with, built once per process on first
    use; :func:`build_parser` gives a fresh one."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(name)s %(message)s", stream=sys.stderr)
    if args.seed is None:
        try:
            args.seed = int(os.environ.get(SEED_ENV) or 0)
        except ValueError:
            print(f"error: ${SEED_ENV} must be an integer, got "
                  f"{os.environ[SEED_ENV]!r}", file=sys.stderr)
            return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
