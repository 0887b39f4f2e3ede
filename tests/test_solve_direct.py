from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from retard_oc import solve
from retard_oc.dde import IntegratorConfig, _affine_scan
from retard_oc.probfile import parse_problem
from retard_oc.problems import (DelayedProblem, as_delayed, batched, dynamics_array,
                                model_partials)
from retard_oc.registry import (D_COST, d_control_value, ld_control_value,
                                make_d_problem, make_ld_problem, make_zero_problem)
from retard_oc.solve import (TranscriptionConfig, _EulerGrid, _euler_forward,
                             discrete_adjoint_gradient, solve_direct_euler)

FAST = IntegratorConfig(substeps_per_cell=16)


@pytest.fixture(scope="module")
def ld_direct(ld_problem):
    cfg = TranscriptionConfig(n_steps=2000, max_iterations=200, grad_tol=1e-9)
    return solve_direct_euler(ld_problem, cfg, FAST)


def test_direct_benchmark_cost(ld_direct):
    assert ld_direct.converged
    assert abs(ld_direct.cost - 67.491786) <= 1e-2


def test_direct_benchmark_control(ld_direct):
    sup = max(abs(ld_direct.control.eval(t)[0] - ld_control_value(t))
              for t in np.linspace(0.0, 4.0, 4001))
    assert sup <= 5e-3


def test_state_linear_state_keeps_its_history_start(ld_problem, ld_direct):
    # the state is integrated for the caller's problem, not its general
    # view, whose state history would start at a - r - s
    assert ld_direct.state.history_start == ld_problem.state_history_start == -2


def test_accepted_costs_monotone(ld_direct):
    costs = [rec["cost"] for rec in ld_direct.history]
    assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))


def test_direct_nonlinear_benchmark(d_problem):
    sol = solve_direct_euler(
        d_problem, TranscriptionConfig(n_steps=1500, max_iterations=200,
                                       grad_tol=1e-9), FAST)
    assert abs(sol.cost - D_COST) <= 1e-2
    for t in np.linspace(0.0, 1.0, 500):
        assert abs(sol.control.eval(t)[0] - d_control_value(t)) <= 1e-2
    for t in np.linspace(1.001, 3.0, 500):
        assert abs(sol.control.eval(t)[0]) <= 1e-2


def test_zero_cost_problem_stops_at_start():
    sol = solve_direct_euler(make_zero_problem(),
                             TranscriptionConfig(n_steps=50, grad_tol=1e-12),
                             FAST)
    assert sol.converged
    assert sol.iterations == 1
    assert sol.discrete_objective == 0.0
    np.testing.assert_array_equal(sol.control_samples, 0.0)


def test_grid_must_align_with_lattice(ld_problem):
    with pytest.raises(ValueError):
        solve_direct_euler(ld_problem, TranscriptionConfig(n_steps=250), FAST)


@pytest.mark.parametrize("which", ["ld", "d"])
def test_gradient_matches_finite_differences(which, ld_problem, d_problem, rng):
    problem = as_delayed(ld_problem if which == "ld" else d_problem)
    steps = 200 if which == "ld" else 150
    cfg = TranscriptionConfig(n_steps=steps)
    u = rng.uniform(-0.5, 0.5, size=(steps, 1))
    grad = discrete_adjoint_gradient(problem, u, cfg)
    grid = _EulerGrid(problem, cfg)
    for j in rng.choice(steps, size=20, replace=False):
        eps = 1e-3 * (1.0 + abs(u[j, 0]))
        up = u.copy(); up[j, 0] += eps
        um = u.copy(); um[j, 0] -= eps
        fd = (_euler_forward(grid, up)[1]
              - _euler_forward(grid, um)[1]) / (2.0 * eps)
        assert abs(fd - grad[j, 0]) <= 1e-6 * max(abs(fd), 1e-9)


@pytest.mark.parametrize("general", [False, True])
def test_ld_gradient_equals_rational_arithmetic(general, ld_problem, rng):
    # ld's Euler objective is quadratic in the control samples, so a central
    # difference of step 1 taken in rational arithmetic is its exact gradient
    M = 40
    df, k_r, k_s = Fraction(4, M), M // 2, M // 4   # a, b, r, s = 0, 4, 2, 1

    def objective(w):
        x, cost = [Fraction(1)], Fraction(0)
        for i in range(M):
            y = x[i - k_r] if i >= k_r else Fraction(1)
            v = w[i - k_s] if i >= k_s else Fraction(0)
            cost += df * (x[i] + 100 * w[i] ** 2)
            x.append(x[i] + df * (x[i] + y - 10 * v))
        return cost

    u = rng.uniform(-0.5, 0.5, size=(M, 1))
    w = [Fraction(float(v)) for v in u[:, 0]]
    exact = [float((objective(w[:j] + [w[j] + 1] + w[j + 1:])
                    - objective(w[:j] + [w[j] - 1] + w[j + 1:])) / 2) for j in range(M)]
    problem = as_delayed(ld_problem) if general else ld_problem
    grad = discrete_adjoint_gradient(problem, u, TranscriptionConfig(n_steps=M))
    np.testing.assert_allclose(grad[:, 0], exact, rtol=1e-12)


@pytest.mark.parametrize("which", ["ld", "d"])
def test_solver_gradient_reuses_the_accepted_forward(which, ld_problem, d_problem,
                                                     monkeypatch):
    # the solver takes each gradient from the states of the accepted trial;
    # they must be the states a fresh forward pass gives, bit for bit
    problem, steps = (ld_problem, 400) if which == "ld" else (d_problem, 300)
    cfg = TranscriptionConfig(n_steps=steps, grad_tol=1e-9)
    seen = []
    adjoint_gradient = solve._adjoint_gradient

    def spy(grid, xs, u):
        seen.append((u.copy(), adjoint_gradient(grid, xs, u)))
        return seen[-1][1]

    monkeypatch.setattr(solve, "_adjoint_gradient", spy)
    sol = solve_direct_euler(problem, cfg, FAST)
    monkeypatch.undo()
    assert len(seen) == sol.iterations >= 2
    for u, grad in seen:
        np.testing.assert_array_equal(grad, discrete_adjoint_gradient(problem, u, cfg))


def test_gradient_zero_for_zero_cost():
    problem = make_zero_problem()
    u = np.full((40, 1), 0.37)
    grad = discrete_adjoint_gradient(problem, u, TranscriptionConfig(n_steps=40))
    np.testing.assert_array_equal(grad, 0.0)


def test_stationarity_at_converged_solution(ld_problem, ld_direct):
    grad = discrete_adjoint_gradient(as_delayed(ld_problem),
                                     ld_direct.control_samples,
                                     TranscriptionConfig(n_steps=2000))
    assert float(np.max(np.abs(grad))) <= 1e-6


def test_discrete_and_quadrature_costs_converge(ld_problem):
    gaps = []
    for steps in (500, 1000):
        sol = solve_direct_euler(
            ld_problem, TranscriptionConfig(n_steps=steps, grad_tol=1e-9), FAST)
        gaps.append(abs(sol.discrete_objective - sol.cost))
    assert gaps[1] < gaps[0]          # O(delta) gap shrinks with refinement
    assert gaps[1] < 0.5 * gaps[0] * 1.2


def test_refinement_toward_benchmark_cost(ld_problem):
    gaps = []
    for steps in (252, 500, 1000, 2000):
        sol = solve_direct_euler(
            ld_problem, TranscriptionConfig(n_steps=steps, grad_tol=1e-9), FAST)
        gaps.append(abs(sol.cost - 67.491786))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_box_constrained_solution_respects_bounds(ld_problem):
    from dataclasses import replace

    from retard_oc.problems import ControlSet
    boxed = replace(ld_problem, control_set=ControlSet.box([-0.02], [0.02]))
    sol = solve_direct_euler(boxed,
                             TranscriptionConfig(n_steps=400, grad_tol=1e-8),
                             FAST)
    assert np.max(sol.control_samples) <= 0.02 + 1e-12
    assert np.min(sol.control_samples) >= -0.02 - 1e-12
    # tighter admissible set cannot beat the unconstrained optimum
    assert sol.discrete_objective > 67.0


def test_iteration_cap_raises_with_best_attached(ld_problem):
    from retard_oc.errors import NoConvergenceError
    with pytest.raises(NoConvergenceError) as err:
        solve_direct_euler(ld_problem,
                           TranscriptionConfig(n_steps=400, max_iterations=1,
                                               grad_tol=1e-16), FAST)
    assert err.value.best is not None
    assert np.isfinite(err.value.best.cost)
    assert err.value.diagnostics["history"]


def test_line_search_reports_unbounded_descent():
    from dataclasses import replace

    from retard_oc.errors import UnboundedDescentError
    from retard_oc.registry import make_zero_problem

    # finite cost only at the initial point, with a declared nonzero gradient:
    # every trial step lands on NaN, so no finite decrease exists
    base = make_zero_problem()
    trap = replace(
        base,
        f0=lambda t, x, y, u, v: 0.0 if abs(float(u[0])) < 1e-300 else float("nan"),
        f0_dx=lambda t, x, y, u, v: np.zeros(1),
        f0_dy=lambda t, x, y, u, v: np.zeros(1),
        f0_du=lambda t, x, y, u, v: np.ones(1),
        f0_dv=lambda t, x, y, u, v: np.zeros(1),
        f_dx=lambda t, x, y, u, v: np.zeros((1, 1)),
        f_dy=lambda t, x, y, u, v: np.zeros((1, 1)),
        f_du=lambda t, x, y, u, v: np.zeros((1, 1)),
        f_dv=lambda t, x, y, u, v: np.zeros((1, 1)))
    with pytest.raises(UnboundedDescentError):
        solve_direct_euler(trap, TranscriptionConfig(n_steps=40, grad_tol=1e-12),
                           FAST)


# -- the array passes against the per-stage recursions they replace -----------------

LD_FILE = """\
problem ld-from-file
kind state-linear
horizon a = 0  b = 4
delays r = 2  s = 1
dims n = 1  m = 1
A[0,0] = 1
AD[0,0] = 1
g[0] = 0
gD[0] = -10*v0
f0x = x0
f0u = 100*u0^2
phi[0] = 1
psi[0] = 0
"""
# r = 0: every state node is the delayed argument of its own stage, so the
# delayed coupling lies inside the costate chain of each cell
LD_FILE_R0 = LD_FILE.replace("delays r = 2  s = 1", "delays r = 0  s = 1")
# every term nonzero and time-varying, n = m = 2: a reordered sum or a
# transposed product shows in the last bits
TWO_BY_TWO = """\
problem two-by-two
kind state-linear
horizon a = 0  b = 2
delays r = 1/2  s = 1/2
dims n = 2  m = 2
A[0,0] = -1 + t/4
A[0,1] = 1/2 - t^3
A[1,0] = (1 + t)/(2 + t^2)
AD[0,1] = t/5
AD[1,1] = 1/3
g[0] = u0 - t*u1^3
g[1] = u1/3
gD[0] = v1/7
gD[1] = 2*v0 - t*v1^2
f0x = x0^2 + t*y1^4 + x1*y0/5
f0u = u0^2 + (1/2)*v1^2 - u1*v0
phi[0] = 1
phi[1] = t^2
psi[0] = t/3
psi[1] = t
"""
# one state, every term nonzero and time-varying: ld has A = 1 and g = 0,
# which hide a reordered sum in the scalar march
SCALAR_FILE = """\
problem scalar-time-varying
kind state-linear
horizon a = 0  b = 2
delays r = 1/2  s = 1/4
dims n = 1  m = 1
A[0,0] = -1 + t/4
AD[0,0] = (1 + t)/(2 + t^2)
g[0] = (1 + t/2)*u0 - t/5
gD[0] = 2*v0 - t^2/3
f0x = x0^2 + t*y0^2/5
f0u = u0^2 + (1/2)*v0^2
phi[0] = 1 - t^2
psi[0] = t/3
"""
LINEAR_FIELDS = ("A", "A_D", "g", "g_D", "f0x", "f0u", "phi", "psi", "f0x_dx",
                 "f0x_dy", "g_du", "gD_dv", "f0u_du", "f0u_dv")
# the Goellmann fields with an array form: all but f
GOELLMANN_ARRAY_FIELDS = ("f0", "f_dx", "f_dy", "f_du", "f_dv",
                          "f0_dx", "f0_dy", "f0_du", "f0_dv")


# The costate recursion is one affine scan per lattice cell, whose rounding
# order differs from the per-stage loop.  Measured over the cases below: the
# gradient is off by at most 2.3e-15 times its largest entry; the solver's
# objectives, costs and control samples by at most 3.2e-15 relative, and its
# logged stationarity by at most 2.3e-14 of the first one.
SCAN_RTOL = 1e-13
# The Barzilai-Borwein step divides by <du, dg>, which near convergence is a
# difference of gradients of size 1e-9: it moves by up to 2.8e-10 relative
# (Goellmann, iteration 9).
BB_STEP_RTOL = 1e-8


def _reference_forward(grid, u):
    """The Euler recursion with one model call per stage and the cost summed
    stage by stage: the reference the array passes equal bit for bit."""
    p, M, k_r, k_s, df = grid.p, grid.M, grid.k_r, grid.k_s, grid.df
    ts = [float(p.a) + df * i for i in range(M)]
    xs = np.empty((M + 1, p.n))
    xs[0] = np.asarray(p.phi(float(p.a)), float).reshape(p.n)
    cost = 0.0
    for i in range(M):
        xd = xs[i - k_r] if i >= k_r else np.asarray(p.phi(ts[i] - float(p.r)), float)
        ud = u[i - k_s] if i >= k_s else np.asarray(p.psi(ts[i] - float(p.s)), float)
        cost += df * p.running_cost(ts[i], xs[i], xd, u[i], ud)
        xs[i + 1] = xs[i] + df * p.dynamics(ts[i], xs[i], xd, u[i], ud)
    return xs, cost + p.terminal_cost(xs[M])


def _reference_gradient(grid, xs, u):
    """The discrete adjoint gradient with each slot partial called once per
    stage, stacked, around the same lambda recursion."""
    p, M, k_r, k_s, df = grid.p, grid.M, grid.k_r, grid.k_s, grid.df
    ts = [float(p.a) + df * i for i in range(M)]
    (f0_dx, f0_dy, f0_du, f0_dv), (f_dx, f_dy, f_du, f_dv), g0_grad = model_partials(p)
    ys = [xs[i - k_r] if i >= k_r else np.asarray(p.phi(ts[i] - float(p.r)), float)
          for i in range(M)]
    vs = [u[i - k_s] if i >= k_s else np.asarray(p.psi(ts[i] - float(p.s)), float)
          for i in range(M)]

    def stages(fn, first=0):   # each array form called on the one row of a stage
        return np.array([fn(np.array([ts[i]]), xs[i][None], ys[i][None], u[i][None],
                            vs[i][None])[0] for i in range(first, M)])

    c_x, c_y = stages(f0_dx), stages(f0_dy, k_r)
    j_x, j_y = stages(f_dx), stages(f_dy, k_r)
    lam = np.zeros((M + 1, p.n))
    if g0_grad is not None:
        lam[M] = g0_grad(xs[M])
    for i in range(M - 1, -1, -1):
        lam[i] = lam[i + 1] + df * (c_x[i] + lam[i + 1] @ j_x[i])
        if i + k_r < M:
            lam[i] += df * (c_y[i] + lam[i + k_r + 1] @ j_y[i])
    grad = df * (stages(f0_du) + np.einsum("ki,kij->kj", lam[1:], stages(f_du)))
    if k_s < M:
        grad[:M - k_s] += df * (stages(f0_dv, k_s) + np.einsum(
            "ki,kij->kj", lam[k_s + 1:], stages(f_dv, k_s)))
    return grad


def _scalar_only(problem, names):
    """``problem`` with each named field rewrapped as a plain function, so no
    array form exists and every consumer loops over scalar calls."""
    return replace(problem, **{name: (lambda fn: lambda *a: fn(*a))(getattr(problem, name))
                               for name in names})


def _with_array_f(problem):
    """The general view of ``problem`` with the array form of its dynamics as
    the ``.many`` of f: an f that declares an array form and reads x."""
    view = as_delayed(problem)
    return replace(view, f=batched(lambda *args: view.f(*args), dynamics_array(problem)))


def _case(name):
    """A problem and its transcription: the ld problem file, the same file
    with r = 0 and its general view, a two-state file, a one-state file with
    every term time-varying and its general view with an array-form f,
    registry ld and Goellmann with native array forms, registry ld with
    scalar fields only, and registry ld with its control partials left to
    finite differences."""
    ld_cfg = TranscriptionConfig(n_steps=400, max_iterations=200, grad_tol=1e-9)
    scalar_cfg = TranscriptionConfig(n_steps=200, max_iterations=200)
    return {
        "file": lambda: (parse_problem(LD_FILE), ld_cfg),
        "file-r0": lambda: (parse_problem(LD_FILE_R0), ld_cfg),
        "general-file-r0": lambda: (as_delayed(parse_problem(LD_FILE_R0)), ld_cfg),
        "two-by-two": lambda: (parse_problem(TWO_BY_TWO), TranscriptionConfig(n_steps=200)),
        "scalar-file": lambda: (parse_problem(SCALAR_FILE), scalar_cfg),
        "general-scalar-file": lambda: (_with_array_f(parse_problem(SCALAR_FILE)), scalar_cfg),
        "ld": lambda: (make_ld_problem(), ld_cfg),
        "goellmann": lambda: (make_d_problem(), TranscriptionConfig(
            n_steps=300, max_iterations=200, grad_tol=1e-9)),
        "scalar-ld": lambda: (_scalar_only(make_ld_problem(), LINEAR_FIELDS), ld_cfg),
        "fd-ld": lambda: (replace(make_ld_problem(), g_du=None, gD_dv=None,
                                  f0u_du=None, f0u_dv=None), ld_cfg),
    }[name]()


CASES = ["file", "file-r0", "general-file-r0", "scalar-file", "general-scalar-file", "ld",
         "goellmann", "scalar-ld", "fd-ld"]


@pytest.mark.parametrize("name", CASES + ["two-by-two"])
def test_array_passes_equal_the_per_stage_reference(name):
    problem, cfg = _case(name)
    grid = _EulerGrid(problem, cfg)
    u = np.random.default_rng(5).uniform(-0.5, 0.5, size=(cfg.n_steps, problem.m))
    xs, cost = _euler_forward(grid, u)
    ref_xs, ref_cost = _reference_forward(grid, u)
    np.testing.assert_array_equal(xs, ref_xs)
    assert repr(cost) == repr(ref_cost)
    want = _reference_gradient(grid, ref_xs, u)
    np.testing.assert_allclose(discrete_adjoint_gradient(problem, u, cfg), want,
                               rtol=0, atol=SCAN_RTOL * np.max(np.abs(want)))


@pytest.mark.parametrize("name", CASES)
def test_direct_solve_equals_the_per_stage_reference(name, monkeypatch):
    problem, cfg = _case(name)
    got = solve_direct_euler(problem, cfg, FAST)
    monkeypatch.setattr(solve, "_euler_forward", _reference_forward)
    monkeypatch.setattr(solve, "_adjoint_gradient", _reference_gradient)
    want = solve_direct_euler(problem, cfg, FAST)
    assert got.iterations == want.iterations >= 2
    assert got.discrete_objective == pytest.approx(want.discrete_objective,
                                                   rel=SCAN_RTOL, abs=0)
    assert got.cost == pytest.approx(want.cost, rel=SCAN_RTOL, abs=0)
    np.testing.assert_allclose(got.control_samples, want.control_samples, rtol=0,
                               atol=SCAN_RTOL * np.max(np.abs(want.control_samples)))
    g_scale = want.history[1]["grad_norm"]
    for mine, ref in zip(got.history, want.history, strict=True):
        assert mine["iteration"] == ref["iteration"]
        assert mine["cost"] == pytest.approx(ref["cost"], rel=SCAN_RTOL, abs=0)
        assert mine["step"] == pytest.approx(ref["step"], rel=BB_STEP_RTOL, abs=0)
        np.testing.assert_allclose(mine["grad_norm"], ref["grad_norm"], rtol=0,
                                   atol=SCAN_RTOL * g_scale)


# -- the costate recursion: one affine scan per lattice cell ----------------------

@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("L", [1, 2, 3, 7, 500])
@pytest.mark.parametrize("reverse", [False, True])
def test_affine_scan_equals_the_sequential_chain(n, L, reverse):
    rng = np.random.default_rng(10 * n + L)
    P = np.eye(n) + 0.01 * rng.standard_normal((L, n, n))
    q, y0 = rng.standard_normal((L, n)), rng.standard_normal(n)
    if reverse:   # the costate's backward chain reads a reversed view
        P, q = P[::-1], q[::-1]
    want, y = np.empty((L, n)), y0
    for j in range(L):
        y = y @ P[j] + q[j]
        want[j] = y
    # doubling reorders the products: at most 3.1e-15 of the largest row
    # measured over these chains, none at L = 1
    np.testing.assert_allclose(_affine_scan(y0, P, q), want, rtol=0,
                               atol=SCAN_RTOL * np.max(np.abs(want)))


@pytest.mark.parametrize("text, n_steps", [
    (LD_FILE, 4), (LD_FILE_R0, 4), (TWO_BY_TWO, 4),   # one stage per cell
    (TWO_BY_TWO.replace("b = 2", "b = 3/2"), 21),      # 3 cells of 7 stages
])
def test_gradient_on_short_cells_equals_the_per_stage_reference(text, n_steps):
    problem = parse_problem(text)
    cfg = TranscriptionConfig(n_steps=n_steps)
    grid = _EulerGrid(problem, cfg)
    u = np.random.default_rng(7).uniform(-0.5, 0.5, size=(n_steps, problem.m))
    want = _reference_gradient(grid, _euler_forward(grid, u)[0], u)
    np.testing.assert_allclose(discrete_adjoint_gradient(problem, u, cfg), want,
                               rtol=0, atol=SCAN_RTOL * np.max(np.abs(want)))


@pytest.mark.parametrize("name", ["file", "file-r0", "goellmann"])
def test_gradient_scans_once_per_lattice_cell(name, monkeypatch):
    problem, cfg = _case(name)
    calls = []
    scan = solve._affine_scan
    monkeypatch.setattr(solve, "_affine_scan",
                        lambda y0, P, q: calls.append(len(q)) or scan(y0, P, q))
    u = np.zeros((cfg.n_steps, problem.m))
    discrete_adjoint_gradient(problem, u, cfg)
    n_cells = problem.lattice().n_cells
    assert calls == [cfg.n_steps // n_cells] * n_cells


def _counted(problem, names):
    """``problem`` with each named field counting its scalar calls; a
    field's array form is kept and not counted."""
    calls = dict.fromkeys(names, 0)

    def wrap(name, fn):
        def scalar(*args):
            calls[name] += 1
            return fn(*args)
        return batched(scalar, fn.many) if hasattr(fn, "many") else scalar
    return replace(problem, **{name: wrap(name, getattr(problem, name))
                               for name in names}), calls


@pytest.mark.parametrize("name", ["file", "ld"])
def test_direct_solve_makes_no_scalar_model_call(name):
    base, cfg = _case(name)
    fields = [f for f in LINEAR_FIELDS if f not in ("phi", "psi")]
    assert all(hasattr(getattr(base, f), "many") for f in fields)
    problem, calls = _counted(base, fields)
    sol = solve_direct_euler(problem, cfg, FAST)
    assert sol.iterations >= 2
    assert calls == dict.fromkeys(fields, 0)


def test_goellmann_forward_pass_is_two_array_calls_of_f_per_cell(monkeypatch):
    # f reads no current state, so each lattice cell is an explicit sum: one
    # array call of f at the cell's start state and one that verifies it
    base, cfg = _case("goellmann")
    assert all(hasattr(getattr(base, f), "many") for f in ("f",) + GOELLMANN_ARRAY_FIELDS)
    problem, calls = _counted(base, ("f",) + GOELLMANN_ARRAY_FIELDS)
    many, calls["f.many"] = problem.f.many, 0

    def counted_many(*args):
        calls["f.many"] += 1
        return many(*args)

    problem.f.many = counted_many
    per_pass = []
    forward = solve._euler_forward

    def spy(grid, u):
        before = dict(calls)
        result = forward(grid, u)
        per_pass.append({f: calls[f] - before[f] for f in calls})
        return result

    monkeypatch.setattr(solve, "_euler_forward", spy)
    solve_direct_euler(problem, cfg, FAST)
    want = dict.fromkeys(calls, 0) | {"f.many": 2 * problem.lattice().n_cells}
    assert len(per_pass) >= 2 and all(counts == want for counts in per_pass)
    assert {f: calls[f] for f in GOELLMANN_ARRAY_FIELDS} == \
        dict.fromkeys(GOELLMANN_ARRAY_FIELDS, 0)


def test_overflowing_cell_is_marched_stage_by_stage():
    # f reads no current state, but its sum overflows in the middle cell: the
    # explicit sum is refused there and the stage march gives the reference's
    # states, inf from the overflow on, with numpy's warning
    big = 1e308
    problem = DelayedProblem(
        a=0, b=6, r=2, s=2, n=1, m=1,
        f0=batched(lambda t, x, y, u, v: 0.0, lambda ts, X, Y, U, V: np.zeros(len(ts))),
        f=batched(lambda t, x, y, u, v: np.array([big if 2.0 <= t < 4.0 else 1.0]),
                  lambda ts, X, Y, U, V: np.where((2.0 <= ts) & (ts < 4.0), big, 1.0)[:, None]),
        phi=lambda t: np.ones(1), psi=lambda t: np.zeros(1))
    grid = _EulerGrid(problem, TranscriptionConfig(n_steps=12))
    u = np.zeros((12, 1))
    with pytest.warns(RuntimeWarning) as got:
        xs, cost = _euler_forward(grid, u)
    with pytest.warns(RuntimeWarning) as want:
        ref_xs, ref_cost = _reference_forward(grid, u)
    assert [str(w.message) for w in got] == [str(w.message) for w in want] == \
        ["overflow encountered in add"]
    np.testing.assert_array_equal(xs, ref_xs)
    assert np.isfinite(xs[:8]).all() and np.isinf(xs[8:]).all()
    assert cost == ref_cost == 0.0


def test_scalar_march_keeps_numpys_signed_zeros():
    # x = -0.0 with every term -0.0: numpy's 1 x 1 matmul sums from 0.0, so
    # A x + A_D y + g + g_D is 0.0 and the next state 0.0, not -0.0
    text = LD_FILE.replace("phi[0] = 1", "phi[0] = -0").replace("g[0] = 0", "g[0] = -u0")
    grid = _EulerGrid(parse_problem(text), TranscriptionConfig(n_steps=8))
    u = np.zeros((8, 1))
    xs, ref_xs = _euler_forward(grid, u)[0], _reference_forward(grid, u)[0]
    assert np.signbit(ref_xs[0, 0]) and not np.signbit(ref_xs[1:]).any()
    assert xs.tobytes() == ref_xs.tobytes()


@pytest.mark.parametrize("cap", [0, -1])
def test_iteration_cap_below_one_rejected(cap):
    # a solve with no iteration would report "within 0 iterations"
    with pytest.raises(ValueError, match="max_iterations"):
        TranscriptionConfig(max_iterations=cap)
