"""Spans around calls into mfglab's layers, and the per-layer metrics.

The tracer replaces module attributes with timing wrappers for the
length of one command, at the places where the callers look them up:
`solver.newton_solve` is looked up by `continuation_run`, `solver.splu`
by `solve_direct`, `system.blend_eval` by `MFGModels.hamiltonian`, and
so on.  Nothing under `src/` is edited.  Each span is a list
`[name, start, end, parent, op, value]`; `parent` indexes the span list
(-1 for the op's root span) and `value` holds the count the layer
reports for a call that returned: nonzeros of the LU factors or of the
Jacobian, file bytes, momentum points, or 1 for a Newton attempt.  A
call that raised keeps `value` None.
"""

from __future__ import annotations

import importlib
import os
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ROOT = "op"


def _returned(args, result):
    return 1


def _nnz(args, result):
    return int(result.nnz)


def _points(args, result):
    return int(np.size(args[0]))


def _read_bytes(args, result):
    return os.path.getsize(args[0])


def _written_bytes(args, result):
    return os.path.getsize(args[1])


# (span name, module, attribute, value of the call)
TARGETS = (
    ("solver.newton", "mfglab.solver", "newton_solve", _returned),
    ("solver.solve_direct", "mfglab.solver", "solve_direct", None),
    ("solver.factor", "mfglab.solver", "splu", _nnz),
    ("system.residual", "mfglab.solver", "residual", None),
    ("system.jacobian", "mfglab.solver", "assemble_jacobian", _nnz),
    ("system.bilinear", "mfglab.cli", "bilinear_form", None),
    ("hamiltonian.eval", "mfglab.system", "blend_eval", None),
    ("hamiltonian.speed", "mfglab.hamiltonian", "solve_optimal_speed", _points),
    ("diagnostics.estimate", "mfglab.cli", "estimate_suite", None),
    ("diagnostics.certify", "mfglab.cli", "certify", None),
    ("grid.read", "mfglab.cli", "read_field_csv", _read_bytes),
    ("grid.write", "mfglab.cli", "write_field_csv", _written_bytes),
    ("cli.output", "mfglab.cli", "_write_solution_files", None),
)

# per-layer metric -> unit, in the order they are reported
LAYER_UNITS = {
    "solver.factor_s": "s", "solver.factor_calls": "count",
    "solver.factor_fill_nnz": "count", "solver.backsolve_s": "s",
    "solver.newton_iters": "count", "solver.line_search_trials": "count",
    "solver.line_search_accept_ratio": "ratio",
    "solver.continuation_attempts": "count",
    "solver.continuation_accept_ratio": "ratio", "solver.newton_self_s": "s",
    "system.jacobian_s": "s", "system.jacobian_calls": "count",
    "system.jacobian_nnz": "count", "system.residual_s": "s",
    "system.residual_calls": "count", "system.bilinear_s": "s",
    "system.bilinear_calls": "count",
    "hamiltonian.eval_s": "s", "hamiltonian.eval_calls": "count",
    "hamiltonian.speed_s": "s", "hamiltonian.speed_points": "count",
    "diagnostics.estimate_s": "s", "diagnostics.certify_s": "s",
    "grid.read_s": "s", "grid.read_bytes": "B",
    "grid.write_s": "s", "grid.write_bytes": "B",
    "cli.output_s": "s", "cli.self_s": "s",
}


class Tracer:
    """In-memory spans of the traced commands of one run.

    The spans of command k are `spans[first:stop]` for
    `(first, stop) = ops[k]`; its root span comes first.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[tuple[int, int]] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn, value):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1], len(self.ops), None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if value is not None:
                span[5] = value(args, result)
            return result
        return traced

    @contextmanager
    def op(self):
        """Trace one command: install the wrappers, record its root span."""
        saved = []
        for name, module, attr, value in TARGETS:
            mod = importlib.import_module(module)
            if hasattr(mod, attr):
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn, value))
        first = len(self.spans)
        root = [ROOT, 0.0, 0.0, -1, len(self.ops), None]
        self._stack.append(first)
        self.spans.append(root)
        root[1] = perf_counter()
        try:
            yield root
        finally:
            root[2] = perf_counter()
            self._stack.pop()
            self.ops.append((first, len(self.spans)))
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)


def duration(span: list) -> float:
    return span[2] - span[1]


def self_times(spans: list[list], first: int, stop: int) -> dict[int, float]:
    """Span index -> duration minus the time its direct children cover.

    Calls nest on one thread, so children never overlap each other.
    """
    own = {i: duration(spans[i]) for i in range(first, stop)}
    for i in range(first, stop):
        parent = spans[i][3]
        if parent >= 0:
            own[parent] -= duration(spans[i])
    return own


def _newton_steps(spans: list[list], first: int, stop: int) -> tuple[int, int]:
    """(line-search trials, accepted steps) over one command's Newton attempts.

    Inside an attempt each iteration assembles one Jacobian, then
    evaluates trial residuals until one is accepted.  An iteration
    accepted its step if another Jacobian follows it or the attempt
    returned; the residual before the first Jacobian is not a trial.
    """
    groups: dict[int, list[int]] = {}
    for i in range(first, stop):
        name, parent = spans[i][0], spans[i][3]
        if name == "solver.newton":
            groups[i] = []
        elif parent in groups:
            if name == "system.jacobian":
                groups[parent].append(0)
            elif name == "system.residual" and groups[parent]:
                groups[parent][-1] += 1
    trials = accepted = 0
    for i, g in groups.items():
        trials += sum(g)
        accepted += max(len(g) - 1, 0)
        if g and g[-1] > 0 and spans[i][5] == 1:
            accepted += 1
    return trials, accepted


def layer_metrics(tracer: Tracer, op: int) -> dict[str, float]:
    """Every per-layer metric of one traced command."""
    spans = tracer.spans
    first, stop = tracer.ops[op]
    own = self_times(spans, first, stop)
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    values: dict[str, list] = {}
    for i in range(first, stop):
        name, value = spans[i][0], spans[i][5]
        total[name] = total.get(name, 0.0) + duration(spans[i])
        self_s[name] = self_s.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        if value is not None:
            values.setdefault(name, []).append(value)
    trials, accepted = _newton_steps(spans, first, stop)
    attempts = calls.get("solver.newton", 0)

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "solver.factor_s": total.get("solver.factor", 0.0),
        "solver.factor_calls": calls.get("solver.factor", 0),
        "solver.factor_fill_nnz": max(values.get("solver.factor", [0])),
        "solver.backsolve_s": self_s.get("solver.solve_direct", 0.0),
        "solver.newton_iters": calls.get("system.jacobian", 0),
        "solver.line_search_trials": trials,
        "solver.line_search_accept_ratio": ratio(accepted, trials),
        "solver.continuation_attempts": attempts,
        "solver.continuation_accept_ratio": ratio(
            sum(values.get("solver.newton", [])), attempts),
        "solver.newton_self_s": self_s.get("solver.newton", 0.0),
        "system.jacobian_s": total.get("system.jacobian", 0.0),
        "system.jacobian_calls": calls.get("system.jacobian", 0),
        "system.jacobian_nnz": max(values.get("system.jacobian", [0])),
        "system.residual_s": total.get("system.residual", 0.0),
        "system.residual_calls": calls.get("system.residual", 0),
        "system.bilinear_s": total.get("system.bilinear", 0.0),
        "system.bilinear_calls": calls.get("system.bilinear", 0),
        "hamiltonian.eval_s": total.get("hamiltonian.eval", 0.0),
        "hamiltonian.eval_calls": calls.get("hamiltonian.eval", 0),
        "hamiltonian.speed_s": total.get("hamiltonian.speed", 0.0),
        "hamiltonian.speed_points": sum(values.get("hamiltonian.speed", [])),
        "diagnostics.estimate_s": total.get("diagnostics.estimate", 0.0),
        "diagnostics.certify_s": total.get("diagnostics.certify", 0.0),
        "grid.read_s": total.get("grid.read", 0.0),
        "grid.read_bytes": sum(values.get("grid.read", [])),
        "grid.write_s": total.get("grid.write", 0.0),
        "grid.write_bytes": sum(values.get("grid.write", [])),
        "cli.output_s": self_s.get("cli.output", 0.0),
        "cli.self_s": self_s.get(ROOT, 0.0),
    }


def median_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics, each the median over the traced commands."""
    per_op = [layer_metrics(tracer, op) for op in range(len(tracer.ops))]
    return {k: statistics.median(m[k] for m in per_op) for k in LAYER_UNITS}
