"""Print one sha256 over the library's public outputs on the two registry
benchmarks, so that a change claimed to leave every output bit for bit
where it was can be checked: run it on both sides of the change and
compare the two lines.

    PYTHONPATH=src python scripts/output_digest.py

The digest covers the sweep solve of ``ocp-ld-paper``, a direct solve, the
forward and costate integrations of both benchmarks, their quadrature
costs, the delay-free reduction's round trip, stacked integration and
stacked cost, and both certificates' text.  Curves enter by their values
on a fixed time grid and, for Hermite segments, by their nodes.  Only the
public API is used, so the script runs against any earlier version too.
"""

from __future__ import annotations

import hashlib

import numpy as np

import retard_oc as rc


def _curve_bytes(traj) -> bytes:
    """A trajectory's values at 1001 times across its domain, then the
    nodes of its Hermite segments."""
    ts = np.linspace(float(traj.history_start), float(traj.end), 1001)
    parts = [traj.eval_many(ts).tobytes()]
    for seg in traj.segments:
        if isinstance(seg.curve, rc.HermiteCurve):
            parts += [seg.curve.ts.tobytes(), seg.curve.ys.tobytes(), seg.curve.ds.tobytes()]
    return b"".join(parts)


def _number_bytes(*values) -> bytes:
    return np.array([np.nan if v is None else v for v in values], dtype=float).tobytes()


def _outputs():
    """(label, bytes) of every public output the digest covers, in order."""
    ld, d = rc.get_example("ocp-ld-paper"), rc.get_example("ocp-d-goellmann")
    ld_problem, ld_cand = ld.make_problem(), ld.make_candidate()
    d_problem, d_cand = d.make_problem(), d.make_candidate()

    sweep = rc.solve_fbsm(ld_problem)
    yield "solve_fbsm(ld)", (_curve_bytes(sweep.state) + _curve_bytes(sweep.control)
                             + _number_bytes(sweep.cost, sweep.iterations, sweep.converged)
                             + repr(sweep.history).encode())
    try:
        direct = rc.solve_direct_euler(ld_problem, rc.TranscriptionConfig(
            n_steps=400, max_iterations=20))
    except rc.NoConvergenceError as err:
        direct = err.best
    yield "solve_direct_euler(ld)", (
        _curve_bytes(direct.state) + _curve_bytes(direct.control)
        + _number_bytes(direct.cost, direct.iterations, direct.discrete_objective)
        + direct.control_samples.tobytes() + repr(direct.history).encode())

    for name, problem, cand, adjoint in (
            ("ld", ld_problem, ld_cand, rc.integrate_adjoint_linear),
            ("d", d_problem, d_cand, rc.integrate_adjoint_nonlinear)):
        yield f"integrate_forward({name})", _curve_bytes(
            rc.integrate_forward(problem, cand.control))
        eta = adjoint(problem, cand)
        yield f"{adjoint.__name__}({name})", (_curve_bytes(eta.trajectory)
                                              + eta.terminal_value.tobytes())
        yield f"evaluate_cost({name})", _number_bytes(rc.evaluate_cost(problem, cand))

        lattice = problem.lattice()
        aug = rc.augment(problem, lattice)
        stacked = rc.stack_candidate(aug, cand)
        back = rc.reassemble(stacked, lattice)
        integrated = rc.integrate_augmented(aug, cand.control)
        forward = rc.reassemble(integrated, lattice)
        yield f"transform({name})", (
            _curve_bytes(back.state) + _curve_bytes(back.control)
            + _curve_bytes(forward.state) + _curve_bytes(forward.control)
            + _number_bytes(rc.augmented_cost(aug, stacked), stacked.linkage_residual(),
                            integrated.linkage_residual(), integrated.ode_residual))

    yield "verify_state_linear(ld)", rc.verify_state_linear(ld_problem, ld_cand).to_text().encode()
    yield "verify_nonlinear_hj(d)", rc.verify_nonlinear_hj(
        d_problem, d_cand, d.make_value_function(), d.feedback).to_text().encode()


def main() -> None:
    digest = hashlib.sha256()
    for label, data in _outputs():
        digest.update(label.encode() + b"\0" + hashlib.sha256(data).digest())
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
