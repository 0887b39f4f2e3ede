"""Tracing and the speed probe must not change what the library computes,
counts must repeat, and each layer must show up only where a workload uses
it.

    python3 -m pytest -q perfbench/test_transparency.py

Takes about a minute; the sweep workload dominates.
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracer import Tracer, _library_modules  # noqa: E402

SEED = 1

# (workload, layer counter, expectation) pairs from the benchmark's design:
# a layer a workload bypasses must read zero there.
ATTRIBUTION = {
    "sweep-ld": {"numdiff.calls": 0, "probfile.eval.calls": 0,
                 "reduction.integrate.calls": 0, "cli.command.calls": 0,
                 "solve.sweep.calls": 1},
    "direct-file": {"cli.command.calls": 2, "solve.direct.calls": 2,
                    "reduction.integrate.calls": 0, "solve.sweep.calls": 0},
    "certify-transform": {"probfile.eval.calls": 0, "sufficiency.verify.calls": 8,
                          "reduction.integrate.calls": 2, "cli.command.calls": 0},
}
NONZERO = {
    "sweep-ld": ["trajectory.hermite.calls", "sufficiency.argmax.calls"],
    "direct-file": ["probfile.eval.calls", "numdiff.calls", "solve.gradient.calls",
                    "cli.csv_bytes"],
    "certify-transform": ["sufficiency.hj_residual.calls", "reduction.stacked_rhs.calls",
                          "trajectory.callable.calls"],
}


def _results(ops):
    # repr keeps every bit of a float
    return [(op.name, op.ok, repr(op.outputs)) for op in ops]


def _library_bindings():
    """Identity of every module attribute and of every class attribute of
    the classes the library defines."""
    owners = []
    for module in _library_modules():
        owners.append(module)
        owners.extend(v for v in vars(module).values()
                      if isinstance(v, type) and v.__module__ == module.__name__)
    return {(repr(owner), attr): id(value)
            for owner in owners for attr, value in vars(owner).items()}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_is_transparent_and_counts_repeat(name, tmp_path):
    workload = workloads.WORKLOADS[name](SEED, tmp_path)
    plain = workload.round()
    assert all(op.ok for op in plain), [op.detail for op in plain if not op.ok]

    bindings = _library_bindings()
    tracer = Tracer()
    probe = SpeedProbe()
    probe.on_slice = tracer.exclude
    counts = []
    with tracer.installed(), probe.running():
        for _ in range(2):
            before = tracer.snapshot()
            traced = workload.round(tracer)
            after = tracer.snapshot()
            counts.append({k: v - before.get(k, 0) for k, v in after.items()
                           if not k.endswith("_s")})
            assert _results(traced) == _results(plain)
    assert probe.took, "the speed probe must have run during the rounds"
    assert _library_bindings() == bindings, "uninstall must restore every name"

    assert counts[0] == counts[1]
    for key, expected in ATTRIBUTION[name].items():
        assert counts[0][key] == expected, key
    for key in NONZERO[name]:
        assert counts[0][key] > 0, key
    if name != "direct-file":
        assert counts[0]["probfile.eval.calls"] == 0
