"""Tests of the benchmark's own parts: inputs, gates and span accounting.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from mfglab import cli, solver, system  # noqa: E402
from mfglab.grid import TorusGrid, read_field_csv  # noqa: E402
from mfglab.hamiltonian import coefficient_field  # noqa: E402

from tracing import Tracer, duration, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, coefficients, fresh_dir  # noqa: E402


def _read(path):
    with open(path) as fh:
        return fh.read()


def _run(argv, tracer=None):
    trace = tracer.op() if tracer is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(io.StringIO()) as out, trace:
        code = cli.main(argv)
    return code, out.getvalue()


def test_generator_is_deterministic_per_seed(tmp_path):
    assert coefficients(7) == coefficients(7)
    assert coefficients(7) != coefficients(8)
    for w in WORKLOADS.values():
        texts = []
        for rep in range(2):
            work = fresh_dir(str(tmp_path / f"{w.name}-{rep}"))
            with contextlib.redirect_stdout(io.StringIO()):
                w.prepare(work, 3, w.n_warm)
            names = sorted(os.listdir(work))
            texts.append({n: _read(os.path.join(work, n))
                          for n in names if n.endswith((".cfg", ".csv"))})
        assert texts[0] == texts[1]


@pytest.mark.parametrize("seed", range(6))
def test_cost_coefficient_stays_above_one_half(seed):
    a, _ = coefficients(seed)
    assert coefficient_field(TorusGrid(1, 256), a).min() >= 0.5


def test_perturbed_density_fails_the_gate(tmp_path):
    w = WORKLOADS["solve-2d"]
    work, out = fresh_dir(str(tmp_path / "in")), fresh_dir(str(tmp_path / "out"))
    w.prepare(work, 0, w.n_warm)
    code, text = _run(w.argv(work, out))
    assert w.check(work, out, code, text).ok

    m_path = os.path.join(out, "m.csv")
    field = read_field_csv(m_path)
    lines = _read(m_path).splitlines()
    x, y, _ = lines[5].split(",")
    lines[5] = f"{x},{y},{field.values[4] * (1.0 + 1e-6):.17g}"
    with open(m_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    check = w.check(work, out, code, text)
    assert not check.ok and "residual" in check.why


def test_self_times_add_up_to_the_op(tmp_path):
    originals = (solver.splu, solver.residual, system.blend_eval)
    tracer = Tracer()
    for name in ("solve-2d", "certify-2d"):
        w = WORKLOADS[name]
        work = fresh_dir(str(tmp_path / name))
        out = fresh_dir(str(tmp_path / f"{name}-out"))
        with contextlib.redirect_stdout(io.StringIO()):
            w.prepare(work, 1, w.n_warm)
        code, text = _run(w.argv(work, out), tracer)
        assert w.check(work, out, code, text).ok
    assert (solver.splu, solver.residual, system.blend_eval) == originals

    solve, certify = (layer_metrics(tracer, op) for op in range(2))
    assert solve["solver.factor_calls"] > 0
    assert solve["solver.newton_iters"] == solve["system.jacobian_calls"]
    assert certify["solver.factor_calls"] == 0
    assert certify["system.bilinear_calls"] == 8
    for op, (first, stop) in enumerate(tracer.ops):
        own = self_times(tracer.spans, first, stop)
        root = duration(tracer.spans[first])
        assert stop - first > 1
        assert all(t >= 0.0 for t in own.values())
        assert sum(own.values()) == pytest.approx(root, rel=1e-9)
        assert own[first] == layer_metrics(tracer, op)["cli.self_s"]
