import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from retard_oc import cli
from retard_oc.cli import (CSV_BLOCK_ROWS, SAMPLES_PER_UNIT_TIME, main,
                           write_trajectories_csv)
from retard_oc.registry import (D_COST, ld_adjoint_value, ld_control_value,
                                ld_state_value)


def _read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader)


def test_example_list_exit_zero(capsys):
    assert main(["example", "list"]) == 0
    out = capsys.readouterr().out
    assert "ocp-ld-paper" in out
    assert "ocp-d-goellmann" in out


def test_unknown_name_is_usage_error(capsys):
    assert main(["example", "run", "no-such-problem"]) == 2
    assert "unknown registered problem" in capsys.readouterr().err


def test_example_run_analytic_reproduces_curves(tmp_path, capsys):
    code = main(["example", "run", "ocp-ld-paper", "--analytic",
                 "--out", str(tmp_path)])
    assert code == 0
    rows = _read_csv(tmp_path / "trajectories.csv")
    assert rows[0].keys() == {"t", "x_1", "u_1", "eta_1"}
    for row in rows[:: max(1, len(rows) // 100)]:
        t = float(row["t"])
        if row["x_1"]:
            assert float(row["x_1"]) == pytest.approx(ld_state_value(t), abs=1e-9)
        if row["u_1"]:
            assert float(row["u_1"]) == pytest.approx(ld_control_value(t), abs=1e-9)
        if row["eta_1"]:
            assert float(row["eta_1"]) == pytest.approx(ld_adjoint_value(t), abs=1e-7)
    summary = (tmp_path / "summary.txt").read_text()
    assert "cost = 67.4917856" in summary
    # history rows present with empty eta fields
    assert rows[0]["t"] == "-2.0"
    assert rows[0]["eta_1"] == ""
    assert rows[0]["u_1"] == ""          # control history starts at -1
    breakpoints = {float(r["t"]) for r in rows}
    assert {0.0, 1.0, 2.0, 3.0, 4.0} <= breakpoints


def test_csv_round_trip(tmp_path, ld_problem, ld_candidate):
    from retard_oc.dde import integrate_adjoint_linear
    eta = integrate_adjoint_linear(ld_problem, ld_candidate)
    path = tmp_path / "trajectories.csv"
    write_trajectories_csv(path, ld_problem, ld_candidate, eta)
    for row in _read_csv(path)[:: 37]:
        t = float(row["t"])
        if row["x_1"]:
            assert abs(float(row["x_1"]) - ld_candidate.state.eval(t)[0]) <= 1e-12
        if row["u_1"]:
            assert abs(float(row["u_1"]) - ld_candidate.control.eval(t)[0]) <= 1e-12
        if row["eta_1"]:
            assert abs(float(row["eta_1"]) - eta.eval(t)[0]) <= 1e-12


def _per_row_csv(problem, cand, eta) -> bytes:
    """Reference writer: one scalar ``eval`` per row and curve."""
    t_lo = float(min(problem.state_history_start, problem.control_history_start))
    count = int(round((float(problem.b) - t_lo) * SAMPLES_PER_UNIT_TIME)) + 1
    grid = set(np.linspace(t_lo, float(problem.b), count).tolist())
    grid.update(float(bp) for bp in problem.lattice().breakpoints)
    grid.update((float(problem.state_history_start),
                 float(problem.control_history_start)))
    n, m = problem.n, problem.m
    lines = [",".join(["t"] + [f"x_{i + 1}" for i in range(n)] + [f"u_{j + 1}" for j in range(m)]
                      + [f"eta_{i + 1}" for i in range(n)])]
    for t in sorted(grid):
        row = [repr(t)]
        for curve, start, dim in ((cand.state, problem.state_history_start, n),
                                  (cand.control, problem.control_history_start, m),
                                  (eta, problem.a, n)):
            row += ([repr(float(v)) for v in curve.eval(t)]
                    if curve is not None and t >= float(start) - 1e-12 else [""] * dim)
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode()


def test_csv_matches_per_row_evaluation(tmp_path, ld_problem, ld_candidate,
                                        fast_integrator, monkeypatch):
    # history rows (empty eta, and empty u before a - s), breakpoint rows,
    # closed-form and Hermite curves, and no eta at all: the block writer
    # gives the per-row bytes.  The 3001 rows are no whole number of blocks,
    # and u and eta start inside a block, at rows 500 and 1000.
    from retard_oc.dde import integrate_adjoint_linear, integrate_forward
    from retard_oc.problems import CandidateSolution
    cand = CandidateSolution(
        state=integrate_forward(ld_problem, ld_candidate.control, fast_integrator),
        control=ld_candidate.control)
    eta = integrate_adjoint_linear(ld_problem, cand, fast_integrator)
    path = tmp_path / "trajectories.csv"
    for block, curve in ((CSV_BLOCK_ROWS, eta), (7, eta), (CSV_BLOCK_ROWS, None)):
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block)
        write_trajectories_csv(path, ld_problem, cand, curve)
        reference = _per_row_csv(ld_problem, cand, curve)
        rows = reference.split(b"\n")[1:-1]
        assert len(rows) == 3001 and all(n % block for n in (len(rows), 500, 1000))
        assert rows[0] == b"-2.0,1.0,," and rows[1000].startswith(b"0.0,")
        assert b"\n2.0," in reference
        assert rows[1000].endswith(b",") == (curve is None)
        assert path.read_bytes() == reference


TWO_STATE = """\
problem two-state
kind state-linear
horizon a = 0  b = 1
delays r = 1/2  s = 1/4
dims n = 2  m = 2
A[0,1] = 1
AD[1,0] = t
g[0] = u0
g[1] = u1
gD[0] = v1
f0x = x0^2
f0u = u0^2 + u1^2
phi[0] = 1
phi[1] = t
psi[0] = t
psi[1] = 1
"""


def test_two_state_csv_matches_per_row_evaluation(tmp_path, fast_integrator, monkeypatch):
    # two columns per curve, blank before u and eta start, in blocks of 7 rows
    from retard_oc.dde import integrate_adjoint_linear, integrate_forward
    from retard_oc.probfile import parse_problem
    from retard_oc.problems import CandidateSolution
    from retard_oc.trajectory import CallableCurve, cell_trajectory
    problem = parse_problem(TWO_STATE)
    lattice = problem.lattice()
    ramp = CallableCurve(lambda t: np.array([t, 1.0 - t * t]), 2)
    control = cell_trajectory(lattice, 2, [ramp] * lattice.n_cells,
                              problem.control_history_start, problem.psi)
    cand = CandidateSolution(state=integrate_forward(problem, control, fast_integrator),
                             control=control)
    eta = integrate_adjoint_linear(problem, cand, fast_integrator)
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 7)
    path = tmp_path / "trajectories.csv"
    write_trajectories_csv(path, problem, cand, eta)
    reference = _per_row_csv(problem, cand, eta)
    rows = reference.split(b"\n")
    assert rows[0] == b"t,x_1,x_2,u_1,u_2,eta_1,eta_2" and rows[1] == b"-0.5,1.0,-0.5,,,,"
    assert path.read_bytes() == reference


def test_deterministic_output(tmp_path):
    for out in ("a", "b"):
        assert main(["example", "run", "ocp-ld-paper", "--analytic",
                     "--out", str(tmp_path / out), "--seed", "7"]) == 0
    a = (tmp_path / "a" / "trajectories.csv").read_bytes()
    b = (tmp_path / "b" / "trajectories.csv").read_bytes()
    assert a == b


def test_example_run_needs_a_name(capsys):
    assert main(["example", "run"]) == 2
    assert "example run needs a problem name" in capsys.readouterr().err


def test_sweep_without_iterations_is_a_usage_error(capsys):
    assert main(["solve-fbsm", "ocp-ld-paper", "--max-iter", "0"]) == 2
    assert "max_iterations must be >= 1" in capsys.readouterr().err


def test_the_sweep_command_solves_a_general_problem(tmp_path, capsys):
    # the command takes either class, as the library's sweep does
    assert main(["solve-fbsm", "ocp-d-goellmann", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "converged: True after 6 iterations" in out
    cost = float(out.split("cost: ")[1].split()[0])
    assert abs(cost - D_COST) <= 1e-8
    rows = _read_csv(tmp_path / "trajectories.csv")
    history = [row for row in rows if float(row["t"]) < 0.0]   # Goellmann's a = 0
    assert history and all(row["eta_1"] == "" for row in history)
    assert all(row["eta_1"] != "" for row in rows if float(row["t"]) >= 0.0)


def test_direct_solve_without_iterations_is_a_usage_error(capsys):
    assert main(["solve-direct", "ocp-ld-paper", "--max-iter", "-3"]) == 2
    assert "max_iterations must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("n_steps", ["0", "-4"])
def test_direct_solve_on_no_or_negative_steps_is_a_usage_error(n_steps, capsys):
    # --N 0 is a given grid size, not the default one
    assert main(["solve-direct", "ocp-ld-paper", "--N", n_steps]) == 2
    assert "n_steps must be a positive multiple of 4" in capsys.readouterr().err


def test_cost_needs_a_problem(capsys):
    assert main(["cost"]) == 2
    assert "no problem given" in capsys.readouterr().err


def test_flag_on_a_command_that_ignores_it_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cost", "ocp-d-goellmann", "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built, build = [], cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    for _ in range(2):
        assert main(["example", "list"]) == 0
    assert len(built) == 1
    assert cli.build_parser() is not cli.build_parser()   # still a fresh one


def test_module_entry_point_reads_argv():
    import retard_oc
    src = str(Path(retard_oc.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "retard_oc.cli", "example", "list"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "ocp-ld-paper" in proc.stdout


def test_verify_linear_out_integrates_the_costate_once(tmp_path, monkeypatch):
    from retard_oc import cli, dde, sufficiency
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return dde.integrate_adjoint_linear(*args, **kwargs)

    monkeypatch.setattr(cli, "integrate_adjoint_linear", counted)
    monkeypatch.setattr(sufficiency, "integrate_adjoint_linear", counted)
    assert main(["verify-linear", "ocp-ld-paper", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_verify_linear_passes_quadrature_steps_on(tmp_path):
    costs = []
    for flags in ([], ["--quadrature-steps", "8"]):
        out = tmp_path / str(len(flags))
        assert main(["verify-linear", "ocp-ld-paper", "--out", str(out)] + flags) == 0
        costs.append([line for line in (out / "summary.txt").read_text().splitlines()
                      if line.startswith("cost = ")])
    assert costs[0] != costs[1]


def test_verify_linear_pass_and_artifacts(tmp_path):
    code = main(["verify-linear", "ocp-ld-paper", "--out", str(tmp_path)])
    assert code == 0
    report = (tmp_path / "certificate.txt").read_text()
    assert "overall: PASS" in report
    assert (tmp_path / "certificate.json").exists()


def test_verify_hj_pass(capsys):
    assert main(["verify-hj", "ocp-d-goellmann", "--with-S", "proposition"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["verify-linear", "ocp-ld-paper", "--perturb", "control-bump"],
    ["verify-linear", "ocp-ld-paper", "--perturb", "transversality-shift"],
    ["verify-linear", "concave-cost"],
    ["verify-hj", "ocp-d-goellmann", "--perturb", "zero-control"],
    ["verify-hj", "ocp-d-goellmann", "--perturb", "scale-eta3"],
    ["verify-hj", "ocp-d-goellmann", "--perturb", "shift-c3"],
])
def test_documented_perturbations_exit_one(args, capsys):
    assert main(args) == 1
    assert "overall: FAIL" in capsys.readouterr().out


def test_verify_hj_with_value_function_file(tmp_path, capsys):
    vf = tmp_path / "vf.txt"
    q = "(exp(2) + 1)"
    vf.write_text(f"""value-function
dims n = 1
piece 0 1
eta[0] = -2*t + 5 + (2*exp(2) - 2)/{q}^2
c = (2*t*(3*exp(4) + 4*exp(2) + 3) + exp(2*t) - exp(4 - 2*t) - 15*exp(4) - 32*exp(2) - 9)/(2*{q}^2)
piece 1 2
eta[0] = -(4*exp(2)/{q}^2 + 2)*t + (4*exp(2) - 4)/{q}^2 + 6 + (exp(2*t - 2) - exp(6 - 2*t))/{q}^2
c = (2*t*(3*exp(4) + 10*exp(2) + 3) + 2*(exp(6 - 2*t) - exp(2*t - 2)) - 17*exp(4) - 44*exp(2) - 7)/(2*{q}^2)
piece 2 3
eta[0] = (2*exp(4 - t) - 2*exp(t - 2))/{q}
c = (4*exp(2)*(t - 3) + 5*(exp(2*t - 4) - exp(8 - 2*t)))/(2*{q}^2)
""")
    assert main(["verify-hj", "ocp-d-goellmann", "--with-S", str(vf)]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_solve_direct_summary(tmp_path, capsys):
    code = main(["solve-direct", "ocp-ld-paper", "--N", "2000",
                 "--substeps", "16", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    cost = float(out.split("cost: ")[-1].strip())
    assert abs(cost - 67.491786) <= 1e-2
    assert (tmp_path / "trajectories.csv").exists()


def test_solve_fbsm_runs(capsys):
    code = main(["solve-fbsm", "ocp-ld-paper", "--substeps", "16",
                 "--max-iter", "60"])
    assert code == 0
    assert "converged: True" in capsys.readouterr().out


def test_transform_reports_offsets(capsys):
    assert main(["transform", "ocp-d-goellmann", "--substeps", "16"]) == 0
    out = capsys.readouterr().out
    assert "blocks: 3" in out
    assert "state offset (cells): 1" in out
    assert "control offset (cells): 2" in out


def test_transform_reports_the_stacked_ode_residual(tmp_path, capsys):
    assert main(["transform", "ocp-ld-paper", "--substeps", "16",
                 "--out", str(tmp_path)]) == 0
    printed = float(capsys.readouterr().out.split("stacked ODE residual: ")[1].split()[0])
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert "dynamics_gap = " in summary[-2]
    key, written = summary[-1].split(" = ")
    assert key == "stacked_ode_residual"
    assert printed == pytest.approx(float(written), rel=1e-3)
    assert float(written) <= 1e-12


def test_cost_command(capsys):
    assert main(["cost", "ocp-d-goellmann"]) == 0
    cost = float(capsys.readouterr().out.split("cost: ")[-1].strip())
    assert cost == pytest.approx(2.0 + math.tanh(1.0), abs=1e-9)


def test_malformed_file_reports_line(tmp_path, capsys):
    bad = tmp_path / "bad.ocp"
    bad.write_text("problem broken\nkind state-linear\nhorizon a = 0 b = 1\n"
                   "delays r = 1 s = 0\ndims n = 1 m = 1\nf0x = x0 + !\n")
    assert main(["cost", "--file", str(bad)]) == 2
    assert "line 6" in capsys.readouterr().err


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("RETARD_OC_SEED", "99")
    spec_args = ["verify-linear", "ocp-ld-paper", "--out", str(tmp_path)]
    assert main(spec_args) == 0
    assert '"seed": 99' in (tmp_path / "certificate.json").read_text()


def test_a_non_integer_seed_env_is_a_usage_error(monkeypatch, capsys):
    # exit 1 means a certificate failed; a bad seed is an input error
    monkeypatch.setenv("RETARD_OC_SEED", "abc")
    assert main(["cost", "ocp-ld-paper"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "RETARD_OC_SEED" in err and "'abc'" in err


def test_a_negative_seed_is_a_usage_error(capsys):
    # refused when the certificate's config is built, before any probe is drawn
    assert main(["verify-linear", "ocp-ld-paper", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: seed must be >= 0 and an integer, not -1")


def test_goellmann_from_its_text_solves_as_by_name(tmp_path, capsys):
    # the registry's own text, given as a file, is the registered problem
    from retard_oc.registry import D_PROBLEM
    path = tmp_path / "goellmann.ocp"
    path.write_text(D_PROBLEM)
    flags = ["--N", "300", "--max-iter", "200", "--tol", "1e-9", "--substeps", "16"]
    for target, out in ((["--file", str(path)], "file"), (["ocp-d-goellmann"], "name")):
        assert main(["solve-direct", *target, *flags, "--out", str(tmp_path / out)]) == 0
    capsys.readouterr()
    written = [(tmp_path / out / "trajectories.csv").read_bytes() for out in ("file", "name")]
    assert written[0] == written[1] and len(written[0]) > 1000


def test_list_examples_with_empty_registry():
    from retard_oc.registry import list_examples
    assert list_examples(registry={}) == []


def test_example_run_reintegrated_state(tmp_path):
    code = main(["example", "run", "ocp-d-goellmann", "--substeps", "16",
                 "--out", str(tmp_path)])
    assert code == 0
    rows = _read_csv(tmp_path / "trajectories.csv")
    mid = [r for r in rows if abs(float(r["t"]) - 2.5) < 2e-3][0]
    from retard_oc.registry import d_state_value
    assert float(mid["x_1"]) == pytest.approx(d_state_value(float(mid["t"])),
                                              abs=1e-6)


def test_solve_direct_with_problem_file(tmp_path, capsys):
    path = tmp_path / "prob.ocp"
    path.write_text("""problem file-demo
kind state-linear
horizon a = 0  b = 2
delays r = 1  s = 1
dims n = 1  m = 1
control-set all
A[0,0] = 0
AD[0,0] = 0
g[0] = u0
gD[0] = 0
f0x = x0^2
f0u = u0^2
phi[0] = 1
psi[0] = 0
""")
    assert main(["solve-direct", "--file", str(path), "--N", "100",
                 "--substeps", "8"]) == 0
    out = capsys.readouterr().out
    assert "converged: True" in out


@pytest.mark.parametrize("args", [
    ["solve-fbsm", "ocp-ld-paper", "--substeps", "8", "--max-iter", "60"],
    ["solve-direct", "ocp-ld-paper", "--N", "200", "--substeps", "8"],
])
def test_costate_only_for_written_artifacts(args, tmp_path, monkeypatch, capsys):
    # the costate is only the CSV's eta column
    import retard_oc.cli as cli
    from retard_oc.dde import integrate_adjoint_linear
    calls = []

    def counted(*a, **k):
        calls.append(1)
        return integrate_adjoint_linear(*a, **k)

    monkeypatch.setattr(cli, "integrate_adjoint_linear", counted)
    assert main(args) == 0
    assert calls == []
    assert main(args + ["--out", str(tmp_path)]) == 0
    assert calls == [1]
    rows = [r for r in _read_csv(tmp_path / "trajectories.csv") if r["eta_1"]]
    assert float(rows[-1]["t"]) == 4.0 and float(rows[-1]["eta_1"]) == 0.0


@pytest.mark.parametrize("args, own", [
    (["verify-linear", "drift-linear", "--perturb", "control-bump"], "ocp-ld-paper"),
    (["verify-linear", "concave-cost", "--perturb", "transversality-shift"],
     "ocp-ld-paper"),
])
def test_perturb_fixture_refused_on_a_foreign_problem(args, own, capsys):
    assert main(args) == 2
    captured = capsys.readouterr()
    assert f"is a fixture of {own}, not of {args[1]}" in captured.err
    assert "certificate" not in captured.out


@pytest.mark.parametrize("perturb", ["scale-eta3", "shift-c3"])
def test_perturbed_verification_function_refused_with_a_file(perturb, tmp_path,
                                                             capsys):
    # these fixtures rebuild the registered S, which would silently drop the file
    vf = tmp_path / "vf0.txt"
    vf.write_text("value-function\ndims n = 1\npiece 0 3\neta[0] = 0\nc = 0\n")
    args = ["verify-hj", "ocp-d-goellmann", "--with-S", str(vf)]
    assert main(args + ["--perturb", perturb]) == 2
    captured = capsys.readouterr()
    assert f"--perturb {perturb}" in captured.err
    assert f"--with-S {vf}" in captured.err
    assert "certificate" not in captured.out
    # the candidate fixture leaves S alone, so the file's S is certified
    assert main(args + ["--perturb", "zero-control"]) == 1
    assert "overall: FAIL" in capsys.readouterr().out


def _tolerance_lines(text):
    return [line for line in text.splitlines() if line.startswith("tol.")]


def test_certificates_list_the_tolerances_they_gate_on(capsys):
    assert main(["verify-linear", "ocp-ld-paper"]) == 0
    assert _tolerance_lines(capsys.readouterr().out) == [
        "tol.tol_continuity: 1e-05", "tol.tol_convexity: 1e-06",
        "tol.tol_maximality: 1e-06", "tol.tol_transversality: 1e-09"]
    assert main(["verify-hj", "ocp-d-goellmann"]) == 0
    assert _tolerance_lines(capsys.readouterr().out) == [
        "tol.tol_cost: 1e-06", "tol.tol_feedback: 1e-06", "tol.tol_residual: 1e-06",
        "tol.tol_smoothness: 1e-06", "tol.tol_terminal: 1e-08",
        "tol.tube_radius: 1e-06", "tol.tube_tol: 0.01"]
