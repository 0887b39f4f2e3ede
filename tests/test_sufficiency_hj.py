from fractions import Fraction

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from retard_oc.cost import evaluate_cost
from retard_oc.errors import LatticePrecisionError
from retard_oc import sufficiency
from retard_oc.lattice import _joined, _lattice_grid, _sample_times, make_lattice
from retard_oc.probfile import parse_value_function
from retard_oc.problems import CandidateSolution, DelayedProblem, batched
from retard_oc.trajectory import from_pieces
from retard_oc.registry import (D_VALUE_FUNCTION, d_feedback, d_state_value,
                                make_d_value_function, make_d_zeroed_candidate,
                                make_zero_candidate, make_zero_problem)
from retard_oc.sufficiency import (ValueFunctionCandidate, VerifyConfig,
                                   active_cells, hj_residual, verify_nonlinear_hj)

NAN = float("nan")


@pytest.fixture(scope="module")
def S():
    return make_d_value_function()


@pytest.fixture(scope="module")
def lattice(d_problem):
    return d_problem.lattice()


def _interior_times(count: int) -> list[Fraction]:
    # 3k/(count+1) is never an integer for count+1 coprime with 3
    return [Fraction(3 * k, count + 1) for k in range(1, count + 1)]


def test_residual_small_along_candidate(d_problem, d_candidate, S, lattice):
    worst = max(abs(hj_residual(d_problem, S, d_feedback, lattice, t,
                                d_candidate.state))
                for t in _interior_times(1000))
    assert worst <= 1e-8


def test_residual_zero_for_trivial_problem():
    problem = make_zero_problem()
    cand = make_zero_candidate()
    zero_S = ValueFunctionCandidate(S=lambda t, x: 0.0,
                                    S_t=lambda t, x: 0.0,
                                    S_x=lambda t, x: np.zeros(1))
    feedback = lambda t, x, y, eta: np.zeros(1)
    lattice = problem.lattice()
    for t in (Fraction(1, 3), Fraction(1), Fraction(7, 4)):
        assert hj_residual(problem, zero_S, feedback, lattice, t,
                           cand.state) == 0.0


def test_shifted_offset_keeps_residual_but_breaks_matching(d_problem,
                                                           d_candidate,
                                                           lattice):
    # adding a constant to the last piece changes nothing under the time
    # derivative inside the piece; only the cross-breakpoint matching breaks
    shifted = make_d_value_function(c3_shift=1.0)
    for t in (Fraction(9, 4), Fraction(5, 2), Fraction(11, 4)):
        res = abs(hj_residual(d_problem, shifted, d_feedback, lattice, t,
                              d_candidate.state))
        assert res <= 1e-8
    cert = verify_nonlinear_hj(d_problem, d_candidate, shifted, d_feedback)
    assert not cert.check("value_smoothness").passed
    assert cert.check("hj_residual").passed
    # the location prints as plain floats in the text and in the JSON
    assert ("check.value_smoothness: FAIL worst=1.000000e+00 at (2.0, (0.148054,))"
            in cert.to_text().splitlines())
    assert cert.to_mapping()["checks"][3]["worst_location"] == "(2.0, (0.148054,))"


def test_scaled_multiplier_breaks_residual(d_problem, d_candidate, lattice):
    scaled = make_d_value_function(eta3_scale=1.1)
    worst = max(abs(hj_residual(d_problem, scaled, d_feedback, lattice, t,
                                d_candidate.state))
                for t in (Fraction(9, 4), Fraction(5, 2), Fraction(11, 4)))
    assert worst >= 1e-2


def test_active_cells_counts_overlap(lattice):
    assert active_cells(lattice, Fraction(1, 2)) == 1
    assert active_cells(lattice, Fraction(1)) == 2  # interior breakpoint
    assert active_cells(lattice, Fraction(0)) == 1
    assert active_cells(lattice, Fraction(3)) == 1


@settings(max_examples=300, deadline=None)
@given(a=st.fractions(-3, 3, max_denominator=7), h=st.fractions(1, 3, max_denominator=5),
       n_cells=st.integers(1, 6), k=st.integers(-2, 8),
       offset=st.sampled_from([Fraction(0), Fraction(1, 10 ** 12), Fraction(-1, 10 ** 12)])
       | st.fractions(-1, 1, max_denominator=97))
def test_active_cells_is_the_closed_cell_count(a, h, n_cells, k, offset):
    # times on, a hair beside and well off the breakpoints a + k h, against
    # the definition: how many closed cells [a + i h, a + (i + 1) h] hold t
    lattice = make_lattice(a, a + n_cells * h, h, 0)
    t = a + k * h + offset * h
    expected = sum(lo <= t <= hi for _, lo, hi in lattice.cells())
    assert active_cells(lattice, t) == expected


def _fraction_grid(lattice, per_cell, form):
    """The sample grid as exact Fractions, one per time: j / per_cell of
    each cell, then b; the interior points only; or both ends of each cell."""
    if form == "both ends":
        return [lo + (hi - lo) * Fraction(j, per_cell)
                for _, lo, hi in lattice.cells() for j in range(per_cell + 1)]
    ts = [lo + (hi - lo) * Fraction(j, per_cell) for _, lo, hi in lattice.cells()
          for j in range(1 if form == "interior" else 0, per_cell)]
    return ts if form == "interior" else ts + [lattice.b]


@settings(max_examples=300, deadline=None)
@given(a=st.fractions(-3, 3, max_denominator=7), h=st.fractions(1, 3, max_denominator=5),
       n_cells=st.integers(1, 6), kr=st.integers(0, 4), ks=st.integers(0, 4),
       per_cell=st.integers(1, 64), form=st.sampled_from(["grid", "interior", "both ends"]),
       stride=st.integers(1, 5))
@example(a=Fraction(-1, 3), h=Fraction(1, 3), n_cells=6, kr=2, ks=1, per_cell=24,
         form="interior", stride=3)
def test_the_integer_grid_is_the_fraction_grid(a, h, n_cells, kr, ks, per_cell, form, stride):
    # r = kr h and s = ks h, so the lattice's amplitude is a multiple of h and
    # need not be an integer; every field must be the one _sample_times
    # gives the same times as Fractions, also on a repeated subset of rows
    lattice = make_lattice(a, a + n_cells * h, kr * h, ks * h if kr or ks else h)
    exact = _fraction_grid(lattice, per_cell, form)
    rows = np.repeat(np.arange(len(exact))[::stride], 4)
    kw = dict(interior_only=form == "interior", both_ends=form == "both ends")
    for got, want in ((_lattice_grid(lattice, per_cell, **kw), _sample_times(lattice, exact)),
                      (_lattice_grid(lattice, per_cell, rows=rows, **kw),
                       _sample_times(lattice, [exact[i] for i in rows]))):
        for name in want.__dataclass_fields__:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert getattr(got, name).dtype == getattr(want, name).dtype, name


def test_the_integer_grid_refuses_numerators_past_2_to_the_53():
    # two cells, a = 2^-47: D = 2^47 per_cell, so b D passes 2^53 at 64
    lattice = make_lattice(Fraction(1, 2 ** 47), 1 + Fraction(1, 2 ** 47), Fraction(1, 2), 0)
    assert lattice.n_cells == 2
    assert _lattice_grid(lattice, 1).t.tolist() == [float(t) for t in lattice.breakpoints]
    with pytest.raises(LatticePrecisionError, match=f"denominator {2 ** 47 * 64} "):
        _lattice_grid(lattice, 64)


@settings(max_examples=300, deadline=None)
@given(a=st.fractions(-3, 3, max_denominator=7), h=st.fractions(1, 3, max_denominator=5),
       n_cells=st.integers(1, 6), k=st.integers(-2, 8),
       near=st.sampled_from([0.0, 1e-13, -1e-13]), off=st.floats(0.01, 0.99))
def test_active_cells_on_float_times_is_the_closed_cell_count(a, h, n_cells, k, near, off):
    # a float on a breakpoint a + k h, or within the 1e-12 snap of one,
    # counts as on it; a float well off any counts by its exact value
    lattice = make_lattice(a, a + n_cells * h, h, 0)
    count = lambda t: sum(lo <= t <= hi for _, lo, hi in lattice.cells())
    bp = a + k * h
    assert active_cells(lattice, float(bp) + near) == count(bp)
    t = float(bp) + off * float(h)
    assert active_cells(lattice, t) == count(Fraction(t))


# The scalar Hamiltonian: the braced term of the reference residual below.
def hamiltonian_nonlinear(problem: DelayedProblem, t, x, y, u, v, eta) -> float:
    """H(t,x,y,u,v,eta) = -f0(t,x,y,u,v) + eta f(t,x,y,u,v)."""
    t = float(t)
    eta = np.asarray(eta, float).reshape(problem.n)
    return (-float(problem.f0(t, x, y, u, v))
            + float(eta @ np.asarray(problem.f(t, x, y, u, v), float).reshape(problem.n)))


def _reference_residual(problem, S, feedback, lattice, t, state, dx):
    """The residual at one rational time, from scalar calls only."""
    x = state.eval(t) + dx
    y = state.eval(t - problem.r)
    eta = S.dx(t, x)
    u = feedback(float(t), x, y, eta)
    ts = t - problem.s
    if ts < problem.a:
        v = problem.psi(float(ts))
    else:
        xs = state.eval(ts)
        v = feedback(float(ts), xs, state.eval(ts - problem.r), S.dx(ts, xs))
    braced = hamiltonian_nonlinear(problem, t, x, y, u, v, eta)
    return S.dt(t, x) + active_cells(lattice, t) * braced


# a law that reads x, x(t - r) and S_x, so that u*(t - s) shows which state it was given
_STATE_LAW = lambda t, x, y, eta: np.array([0.5 * eta[0] * x[0] - y[0]])


_DISPLACEMENTS = {"centerline": None, "one-displacement": np.array([1e-3]),
                  "one-per-time": np.linspace(-1e-3, 1e-3, 27)[:, None]}


@pytest.mark.parametrize("dx, law", [(dx, d_feedback) for dx in _DISPLACEMENTS.values()]
                         + [(dx, _STATE_LAW) for dx in _DISPLACEMENTS.values()],
                         ids=list(_DISPLACEMENTS) + [f"{k}-state-law" for k in _DISPLACEMENTS])
def test_residual_over_times_is_the_stacked_one_time_residuals(d_problem, d_candidate,
                                                               S, lattice, dx, law):
    # the lattice points 0..3 (breakpoints 1 and 2 inside), rational grid
    # times between them, and t - s < a for every t < 2
    times = [Fraction(j, 8) for j in range(25)] + [Fraction(7, 3), Fraction(1, 24)]
    rows = dx if dx is not None and dx.ndim == 2 else [dx] * len(times)
    many = hj_residual(d_problem, S, law, lattice, times, d_candidate.state, dx)
    one = [hj_residual(d_problem, S, law, lattice, t, d_candidate.state, row)
           for t, row in zip(times, rows)]
    assert isinstance(many, np.ndarray) and all(type(r) is float for r in one)
    np.testing.assert_array_equal(many, one)
    reference = [_reference_residual(d_problem, S, law, lattice, t,
                                     d_candidate.state, 0.0 if row is None else row)
                 for t, row in zip(times, rows)]
    np.testing.assert_array_equal(many, reference)


@pytest.mark.parametrize("t", [0.5, Fraction(1, 2), np.float64(0.5), np.array(0.5)],
                         ids=["float", "Fraction", "float64", "0-d array"])
def test_residual_of_one_time_in_any_scalar_form(d_problem, d_candidate, S, lattice, t):
    res = hj_residual(d_problem, S, d_feedback, lattice, t, d_candidate.state)
    assert type(res) is float
    assert res == hj_residual(d_problem, S, d_feedback, lattice, [0.5], d_candidate.state)[0]


@pytest.mark.parametrize("broken, location", [
    (lambda t, x: True, 1 / 24),                        # every sample
    (lambda t, x: t in (1.0, 2.0), 1.0),                # the breakpoint samples only
    (lambda t, x: x[0] != d_state_value(t), 1 / 24),    # the tube samples only
], ids=["everywhere", "breakpoints", "tube"])
def test_a_non_finite_residual_fails_the_check_at_its_first_time(d_problem, d_candidate,
                                                                 S, broken, location):
    nan_S = ValueFunctionCandidate(
        S=S.S, S_x=S.S_x, S_t=lambda t, x: NAN if broken(t, x) else S.S_t(t, x))
    cert = verify_nonlinear_hj(d_problem, d_candidate, nan_S, d_feedback)
    check = cert.check("hj_residual")
    assert not cert.overall and not check.passed
    assert np.isnan(check.worst_residual)
    assert (check.worst_location, check.detail) == (location, "non-finite value")


def test_a_non_finite_feedback_law_fails_at_its_first_time(d_problem, d_candidate, S):
    law = lambda t, x, y, eta: np.array([NAN]) if t >= 1.5 else d_feedback(t, x, y, eta)
    cert = verify_nonlinear_hj(d_problem, d_candidate, S, law)
    assert not cert.overall
    for name in ("hj_residual", "feedback_consistency"):
        check = cert.check(name)
        assert not check.passed and np.isnan(check.worst_residual)
        assert check.worst_location == 1.5


def test_a_non_finite_value_fails_the_smoothness_check(d_problem, d_candidate, S):
    nan_S = ValueFunctionCandidate(S=lambda t, x: NAN if 2.0 <= t < 2.5 else S.S(t, x),
                                   S_t=S.S_t, S_x=S.S_x)
    cert = verify_nonlinear_hj(d_problem, d_candidate, nan_S, d_feedback)
    check = cert.check("value_smoothness")
    assert not cert.overall and not check.passed
    assert np.isnan(check.worst_residual)
    assert check.worst_location[0] == 2.0   # the first breakpoint it spoils


def test_verify_passes_on_benchmark(d_problem, d_candidate, S):
    cert = verify_nonlinear_hj(d_problem, d_candidate, S, d_feedback)
    assert cert.overall
    names = [c.name for c in cert.checks]
    assert names == ["terminal_value", "hj_residual", "feedback_consistency",
                     "value_smoothness", "cost_consistency"]
    assert cert.check("cost_consistency").worst_residual <= 1e-8


def test_verify_zeroed_control_fails_feedback_check(d_problem, S):
    zeroed = make_d_zeroed_candidate()
    cert = verify_nonlinear_hj(d_problem, zeroed, S, d_feedback)
    assert not cert.overall
    fb = cert.check("feedback_consistency")
    assert not fb.passed
    assert 0.0 <= fb.worst_location <= 1.0
    # the residual check stays green: it drives controls from the feedback law
    assert cert.check("hj_residual").passed
    # zeroing the control also shifts the quadrature cost off -S(a, x_a)
    assert not cert.check("cost_consistency").passed


def test_verify_trivial_zero_problem():
    problem = make_zero_problem()
    cand = make_zero_candidate()
    zero_S = ValueFunctionCandidate(S=lambda t, x: 0.0,
                                    S_t=lambda t, x: 0.0,
                                    S_x=lambda t, x: np.zeros(1))
    cert = verify_nonlinear_hj(problem, cand, zero_S,
                               lambda t, x, y, eta: np.zeros(1))
    assert cert.overall
    assert cert.metrics["cost"] == 0.0
    assert cert.metrics["minus_S_at_start"] == 0.0


def test_cost_matches_minus_S_at_start(d_problem, d_candidate, S):
    predicted = -S.value(0.0, [1.0])
    cost = evaluate_cost(d_problem, d_candidate, 512)
    assert abs(cost - predicted) <= 1e-8


def test_fd_gradient_fallback_matches_analytic(S):
    fallback = ValueFunctionCandidate(S=S.S, S_t=None, S_x=None)
    for t in (0.3, 1.4, 2.6):
        for x in (0.7, 1.0, 1.2):
            assert fallback.dx(t, [x])[0] == pytest.approx(
                S.dx(t, [x])[0], abs=1e-6)
            # time derivative away from breakpoints
            assert fallback.dt(t, [x]) == pytest.approx(S.dt(t, [x]), abs=1e-6)


def test_tube_probe_tolerates_affine_value_function(d_problem, d_candidate, S):
    # residual off the centerline grows linearly in the radius; the default
    # tube radius keeps the heuristic gate green for the genuine function
    cfg = VerifyConfig(tube_radius=1e-6, tube_tol=1e-2)
    cert = verify_nonlinear_hj(d_problem, d_candidate, S, d_feedback, cfg)
    assert cert.check("hj_residual").passed
    cfg_wide = VerifyConfig(tube_radius=0.5, tube_tol=1e-8)
    cert = verify_nonlinear_hj(d_problem, d_candidate, S, d_feedback, cfg_wide)
    assert not cert.check("hj_residual").passed


def _counted(fn, calls: list):
    """``fn`` with a scalar form that counts its calls into ``calls``, and
    ``fn``'s own array form if it declares one."""
    def scalar(*args):
        calls.append(fn)
        return fn(*args)
    return batched(scalar, getattr(fn, "many", None))


def test_the_certificate_calls_S_and_the_law_through_their_array_forms(
        d_problem, d_candidate, S):
    calls = []
    counted = ValueFunctionCandidate(*(_counted(fn, calls) for fn in (S.S, S.S_t, S.S_x)))
    cert = verify_nonlinear_hj(d_problem, d_candidate, counted, _counted(d_feedback, calls))
    assert cert.overall
    assert calls == [S.S, S.S]   # S(b, x(b)) for the terminal value, S(a, phi(a))



def _array_counted(fn, calls: list, key: str):
    """``fn`` with an array form that logs ``key`` into ``calls`` on each call."""
    return batched(lambda *args: fn(*args),
                   lambda *args: calls.append(key) or fn.many(*args))


def test_one_residual_pass_per_certificate_and_one_S_x_and_law_pass_per_residual(
        d_problem, d_candidate, S, monkeypatch):
    calls = []
    residual = sufficiency._hj_residual_perturbed

    def spy(*args):
        calls.append("residual(")
        out = residual(*args)
        calls.append(")")
        return out

    monkeypatch.setattr(sufficiency, "_hj_residual_perturbed", spy)
    counted = ValueFunctionCandidate(*(_array_counted(fn, calls, key) for fn, key in
                                       ((S.S, "S"), (S.S_t, "S_t"), (S.S_x, "S_x"))))
    cert = verify_nonlinear_hj(d_problem, d_candidate, counted,
                               _array_counted(d_feedback, calls, "law"))
    assert cert.overall
    assert calls.count("residual(") == 1
    start, end = calls.index("residual("), calls.index(")")
    # u*(t) and u*(t - s) in one law pass, over the grid (interior, breakpoint,
    # a and b rows) and the tube; the feedback check reads u*(t) off its grid rows
    assert calls[start + 1:end] == ["S_x", "law", "S_t"]
    # then one S and one S_x call for the value smoothness
    assert calls[:start] + calls[end + 1:] == ["S", "S_x"]


def test_the_residual_at_a_and_b_is_not_checked(d_problem, d_candidate, S):
    # a and b join the residual pass for the feedback check's u*(t) only
    nan_S = ValueFunctionCandidate(
        S=S.S, S_x=S.S_x, S_t=lambda t, x: NAN if t in (0.0, 3.0) else S.S_t(t, x))
    cert = verify_nonlinear_hj(d_problem, d_candidate, nan_S, d_feedback)
    assert cert.overall
    assert cert.to_text() == verify_nonlinear_hj(d_problem, d_candidate, S,
                                                 d_feedback).to_text()


@pytest.mark.parametrize("per_cell", [1, 5, 24])
def test_the_feedback_check_is_the_closed_loop_over_the_lattice_grid(d_problem, S, per_cell):
    # u*(t) comes from the residual pass; one closed-loop pass of its own
    # over the grid (a, the interior points and breakpoints, b) gives it too
    zeroed = make_d_zeroed_candidate()
    cert = verify_nonlinear_hj(d_problem, zeroed, S, d_feedback,
                               VerifyConfig(grid_points_per_cell=per_cell))
    grid = _lattice_grid(d_problem.lattice(), per_cell)
    u = sufficiency._closed_loop(d_problem, S, d_feedback, zeroed.state, grid.t,
                                 grid.delayed_state)[0]
    gaps = np.max(np.abs(u - zeroed.control.eval_many(grid.t)), axis=1)
    check = cert.check("feedback_consistency")
    assert not check.passed
    assert (check.worst_residual, check.worst_location) == (gaps.max(), grid.t[gaps.argmax()])


def test_residual_over_joined_sample_sets_is_the_per_set_residuals(d_problem, d_candidate,
                                                                   S, lattice):
    # the certificate's three sets: interior grid, breakpoints, and a tube
    # displaced on its rows only, the others taking dx = -0.0
    interior = _lattice_grid(lattice, 6, interior_only=True)
    tube = _lattice_grid(lattice, 6, interior_only=True,
                         rows=np.repeat(np.arange(0, len(interior.t), 4), 3))
    breakpoints = _sample_times(lattice, list(lattice.breakpoints[1:-1]))
    shift = 1e-3 * np.random.default_rng(5).normal(size=(len(tube.t), 1))
    dx = np.concatenate([np.full((len(interior.t) + len(breakpoints.t), 1), -0.0), shift])
    got = hj_residual(d_problem, S, d_feedback, lattice, _joined(interior, breakpoints, tube),
                      d_candidate.state, dx)
    want = np.concatenate([
        hj_residual(d_problem, S, d_feedback, lattice, interior, d_candidate.state),
        hj_residual(d_problem, S, d_feedback, lattice, breakpoints, d_candidate.state),
        hj_residual(d_problem, S, d_feedback, lattice, tube, d_candidate.state, shift)])
    assert got.tobytes() == want.tobytes()


def test_a_minus_zero_state_stays_minus_zero_off_the_tube():
    # S_t reads the sign of x, so x + 0.0 on a -0.0 state would flip the
    # residual from -1 to +1; x + -0.0 is x bit for bit
    problem = make_zero_problem()
    lattice = problem.lattice()
    state = from_pieces(1, [(-2, 2, lambda t: [-0.0])], main_start=0)
    sign_S = ValueFunctionCandidate(S=lambda t, x: 0.0,
                                    S_t=lambda t, x: float(np.copysign(1.0, x[0])),
                                    S_x=lambda t, x: np.zeros(1))
    law = lambda t, x, y, eta: np.zeros(1)
    grid, tube = _lattice_grid(lattice, 4, interior_only=True), _lattice_grid(lattice, 2)
    shift = np.full((len(tube.t), 1), 1e-3)
    dx = np.concatenate([np.full((len(grid.t), 1), -0.0), shift])
    got = hj_residual(problem, sign_S, law, lattice, _joined(grid, tube), state, dx)
    want = np.concatenate([hj_residual(problem, sign_S, law, lattice, grid, state),
                           hj_residual(problem, sign_S, law, lattice, tube, state, shift)])
    assert got.tobytes() == want.tobytes()
    assert got.tolist() == [-1.0] * len(grid.t) + [1.0] * len(tube.t)
    # so does the certificate's one pass: the breakpoint t = 1 reads -1
    cand = CandidateSolution(state=state, control=make_zero_candidate().control)
    cert = verify_nonlinear_hj(problem, cand, sign_S, law)
    assert "t=1: -1.000e+00 (two cells active)" in cert.check("hj_residual").detail


_DELTAS = st.one_of(st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))


@settings(max_examples=30, deadline=None)
@given(piece=st.integers(0, 2), target=st.sampled_from(["eta[0]", "c"]), delta=_DELTAS)
def test_a_perturbed_value_function_never_passes(d_problem, d_candidate, piece, target,
                                                 delta):
    # eta_i scaled by 1 + delta breaks the verification equation inside the
    # piece; c_i shifted by delta leaves it intact and breaks the matching
    # of S across the piece's interior breakpoints
    lines = D_VALUE_FUNCTION.format(scale=1, shift=0).splitlines()
    row = [i for i, line in enumerate(lines) if line.startswith(target + " =")][piece]
    rhs = lines[row].split(" = ", 1)[1]
    number = lambda v: np.format_float_positional(v, trim="-")   # no exponent
    lines[row] = (f"eta[0] = {number(1 + delta)}*({rhs})" if target == "eta[0]"
                  else f"c = ({rhs}) + {number(delta)}")
    S = parse_value_function("\n".join(lines))
    cert = verify_nonlinear_hj(d_problem, d_candidate, S, d_feedback)
    failed = [c.name for c in cert.checks if not c.passed]
    assert not cert.overall
    assert ("hj_residual" if target == "eta[0]" else "value_smoothness") in failed
