"""Per-layer tracing installed from outside the library.

The tracer rebinds public functions and methods of ``retard_oc`` to timing
wrappers.  A function is rebound under every name that refers to it in any
loaded ``retard_oc`` module, because ``solve``, ``sufficiency``, ``cli`` and
``reduction`` import their collaborators with ``from .x import y`` and look
them up in their own namespace; a method is rebound on its class under each
alias (``Trajectory.__call__`` is ``Trajectory.eval``).

Every wrapped call keeps a call count, its total time and its self time:
the duration minus the time spent in traced calls made inside it.  A layer
that re-enters itself (``as_delayed`` dynamics calling the state-linear
dynamics, ``partial_vec_slot`` calling ``jacobian``) is counted once, at
the outermost call.  Coarse calls (solves, integrations, certificates,
quadratures, argmax, CLI commands) also keep one span each in memory.  Leaf
calls that run hundreds of thousands of times (curve evaluation, right-hand
sides) record no span of their own; their count and time are added to the
enclosing span.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager

# (layer, "module:qualified.name", coarse).  One layer may cover several
# functions; a missing name is skipped so the list outlives private helpers.
TARGETS = [
    ("trajectory.hermite", "retard_oc.trajectory:HermiteCurve.__call__", False),
    ("trajectory.locate", "retard_oc.trajectory:Trajectory.eval", False),
    ("trajectory.callable", "retard_oc.trajectory:CallableCurve.__call__", False),
    ("problems.rhs", "retard_oc.problems:DelayedProblem.dynamics", False),
    ("problems.rhs", "retard_oc.problems:StateLinearProblem.dynamics", False),
    ("problems.running_cost", "retard_oc.problems:DelayedProblem.running_cost", False),
    ("problems.running_cost", "retard_oc.problems:StateLinearProblem.running_cost", False),
    ("lattice.make", "retard_oc.lattice:make_lattice", False),
    ("dde.forward", "retard_oc.dde:integrate_forward", True),
    ("dde.adjoint", "retard_oc.dde:integrate_adjoint_linear", True),
    ("dde.adjoint", "retard_oc.dde:integrate_adjoint_nonlinear", True),
    ("cost.evaluate", "retard_oc.cost:evaluate_cost", True),
    ("sufficiency.argmax", "retard_oc.sufficiency:argmax_control_state_linear", True),
    ("sufficiency.hamiltonian", "retard_oc.sufficiency:hamiltonian_state_linear", False),
    ("sufficiency.hamiltonian", "retard_oc.sufficiency:hamiltonian_nonlinear", False),
    ("sufficiency.verify", "retard_oc.sufficiency:verify_state_linear", True),
    ("sufficiency.verify", "retard_oc.sufficiency:verify_nonlinear_hj", True),
    ("sufficiency.hj_residual", "retard_oc.sufficiency:hj_residual", True),
    ("sufficiency.hj_residual", "retard_oc.sufficiency:_hj_residual_perturbed", True),
    ("numdiff", "retard_oc.numdiff:central_scalar", False),
    ("numdiff", "retard_oc.numdiff:gradient", False),
    ("numdiff", "retard_oc.numdiff:jacobian", False),
    ("numdiff", "retard_oc.numdiff:hessian", False),
    ("numdiff", "retard_oc.numdiff:partial_vec_slot", False),
    ("numdiff", "retard_oc.numdiff:grad_scalar_slot", False),
    ("solve.sweep", "retard_oc.solve:solve_fbsm", True),
    ("solve.direct", "retard_oc.solve:solve_direct_euler", True),
    ("solve.gradient", "retard_oc.solve:discrete_adjoint_gradient", True),
    ("reduction.augment", "retard_oc.reduction:augment", True),
    ("reduction.stack", "retard_oc.reduction:stack_candidate", True),
    ("reduction.reassemble", "retard_oc.reduction:reassemble", True),
    ("reduction.integrate", "retard_oc.reduction:integrate_augmented", True),
    ("reduction.stacked_rhs", "retard_oc.reduction:AugmentedProblem.dynamics", False),
    ("reduction.cost", "retard_oc.reduction:augmented_cost", True),
    ("probfile.parse", "retard_oc.probfile:parse_problem", True),
    ("cli.command", "retard_oc.cli:main", True),
    ("cli.write", "retard_oc.cli:write_trajectories_csv", True),
]

# Callable fields of a parsed problem; each is an expression-tree evaluator.
PROBFILE_FIELDS = ("A", "A_D", "g", "g_D", "f0x", "f0u", "phi", "psi",
                   "f0x_dx", "f0x_dy")


class Tracer:
    """Call counts, self times and coarse spans for the wrapped layers."""

    def __init__(self):
        self.enabled = False
        self.stats: dict[str, list] = {}     # layer -> [calls, self_s]
        self.counters: dict[str, int] = {}   # e.g. cli.csv_bytes
        self.spans: list[dict] = []
        self.request = None   # the benchmark operation under way, tags spans
        self._frames: list[list] = []        # [child_s] per open traced call
        self._open_spans: list[dict] = []
        self._depth: dict[str, int] = {}
        self._undo: list[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, layer: str, fn, coarse: bool):
        stats = self.stats.setdefault(layer, [0, 0.0])
        frames, open_spans, depth = self._frames, self._open_spans, self._depth
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or depth.get(layer):
                return fn(*args, **kwargs)
            depth[layer] = 1
            frame = [0.0]
            frames.append(frame)
            span = None
            if coarse:
                span = {"id": len(tracer.spans), "name": layer,
                        "request": tracer.request,
                        "parent": open_spans[-1]["id"] if open_spans else None,
                        "leaves": {}}
                tracer.spans.append(span)
                open_spans.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                depth[layer] = 0
                duration = end - start
                stats[0] += 1
                stats[1] += duration - frame[0]
                if frames:
                    frames[-1][0] += duration
                if span is not None:
                    open_spans.pop()
                    span.update(start=start, end=end, self_s=duration - frame[0])
                elif open_spans:
                    leaf = open_spans[-1]["leaves"].setdefault(layer, [0, 0.0])
                    leaf[0] += 1
                    leaf[1] += duration

        return traced

    def install(self) -> None:
        """Rebind every target under every name the library knows it by."""
        importlib.import_module("retard_oc.cli")
        for layer, path, coarse in TARGETS:
            module_name, qualname = path.split(":")
            owner = importlib.import_module(module_name)
            *class_path, attr = qualname.split(".")
            for name in class_path:
                owner = getattr(owner, name)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(layer, original, coarse)
            if class_path:
                self._rebind_in(owner, original, wrapper)
            else:
                for module in _library_modules():
                    self._rebind_in(module, original, wrapper)
        self._wrap_parsed_problems()
        self._count_csv_bytes()

    def _rebind_in(self, owner, original, wrapper) -> None:
        for name, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, name, wrapper)
                self._undo.append((owner, name, original))

    def _wrap_parsed_problems(self) -> None:
        """Wrap the expression-tree callables of every problem the file
        parser returns (``load_problem`` calls it through the module)."""
        probfile = sys.modules["retard_oc.probfile"]
        parse = probfile.parse_problem
        wrap_field = functools.partial(self.wrap, "probfile.eval", coarse=False)
        self.stats.setdefault("probfile.eval", [0, 0.0])

        @functools.wraps(parse)
        def parse_and_wrap(*args, **kwargs):
            problem = parse(*args, **kwargs)
            fields = {f: wrap_field(getattr(problem, f)) for f in PROBFILE_FIELDS
                      if getattr(problem, f, None) is not None}
            return dataclasses.replace(problem, **fields)

        for module in _library_modules():
            self._rebind_in(module, parse, parse_and_wrap)

    def _count_csv_bytes(self) -> None:
        cli = sys.modules["retard_oc.cli"]
        write = cli.write_trajectories_csv
        counters = self.counters
        counters.setdefault("cli.csv_bytes", 0)
        tracer = self

        @functools.wraps(write)
        def write_and_count(path, *args, **kwargs):
            out = write(path, *args, **kwargs)
            if tracer.enabled:
                counters["cli.csv_bytes"] += os.path.getsize(path)
            return out

        self._rebind_in(cli, write, write_and_count)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    @contextmanager
    def installed(self):
        self.install()
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False
            self.uninstall()

    @contextmanager
    def paused(self):
        """Stop recording, e.g. while the benchmark checks outputs."""
        was = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = was

    def exclude(self, seconds: float) -> None:
        """Take time spent outside the library (a speed-probe slice) out of
        the self time of the innermost open call and of its callers."""
        if self._frames:
            self._frames[-1][0] += seconds

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Flat totals so far: ``<layer>.calls``, ``<layer>.self_s``, counters."""
        out = {}
        for layer, (calls, self_s) in self.stats.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        out.update(self.counters)
        return out

    def write(self, path: str, extra: dict) -> None:
        """Write spans and totals once, when the run ends."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "totals": self.snapshot(), "spans": self.spans}, fh)


def _library_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "retard_oc" or name.startswith("retard_oc."))]
