"""Command-line entry point: solve, audit, validate, sweep.

Exit codes: 0 success, 2 config/input error or unwritable outputs,
3 solver non-convergence, 4 assumption audit failure, 5 validation
failure.

Only `solve` and `sweep` import the solver, and with it scipy, so
`audit` and `validate` start on numpy alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from .config import ConfigError, RunConfig, load_config, validate_config
from .diagnostics import certify, energy_identity, estimate_suite
from .grid import ScalarField, TorusGrid, read_field_csv, write_field_csv
from .hamiltonian import (admissible_alpha_max, audit_assumptions,
                          check_parameter_admissibility, coefficient_field)
from .system import MFGModels, MFGState, bilinear_form, linearize

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_AUDIT = 4
EXIT_VALIDATE = 5


def format_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: insertion key order, floats at 17 digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  "{k}": {format_json(v, indent + 1)}' for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ", ".join(format_json(v, indent + 1) for v in obj)
        return "[" + items + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # JSON has no inf/nan literals: write those as strings
        x = float(obj)
        return f"{x:.17g}" if math.isfinite(x) else f'"{x}"'
    if obj is None:
        return "null"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _write_json(obj, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_json(obj) + "\n")


def build_setup(cfg: RunConfig):
    """(grid, models, newton.tol, continuation.step_min) of a validated config."""
    grid = TorusGrid(cfg.grid_d, cfg.grid_n)
    try:
        a = coefficient_field(grid, cfg.hamiltonian_a)
        b = coefficient_field(grid, cfg.potential_b)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if np.min(a) <= 0.0:
        raise ConfigError(f"hamiltonian.a = {cfg.hamiltonian_a!r} is not "
                          "strictly positive on the grid")
    models = MFGModels(grid, cfg.congestion_alpha, cfg.hamiltonian_gamma, a, b)
    return grid, models, cfg.newton_tol, cfg.continuation_step_min


def _admissibility_gate(cfg: RunConfig, override: bool) -> bool:
    report = check_parameter_admissibility(
        cfg.hamiltonian_gamma, cfg.congestion_alpha, cfg.grid_d)
    if report.admissible or override:
        return True
    for cond in report.violated():
        print(f"inadmissible parameters: {cond.name} violated "
              f"({cond.statement}; margin {cond.margin:.6g})", file=sys.stderr)
    return False


def _write_solution_files(out_dir, grid, models, path) -> None:
    state = path.final_state
    write_field_csv(ScalarField(grid, state.u), os.path.join(out_dir, "u.csv"))
    write_field_csv(ScalarField(grid, state.m), os.path.join(out_dir, "m.csv"))
    _write_json({"status": path.status,
                 "steps": [s.record() for s in path.steps],
                 "total_iters": path.total_iters},
                os.path.join(out_dir, "path.json"))
    report = estimate_suite(state, models)
    _write_json(dataclasses.asdict(report),
                os.path.join(out_dir, "diagnostics.json"))


def cmd_solve(cfg: RunConfig, out_dir: str | None = None,
              override: bool = False) -> int:
    from .solver import continuation_run

    if not _admissibility_gate(cfg, override):
        return EXIT_CONFIG
    grid, models, tol, step_min = build_setup(cfg)
    out = out_dir or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    path = continuation_run(models, tol, step_min, log=print)
    _write_solution_files(out, grid, models, path)
    if not path.reached_one:
        print(f"continuation stopped: {path.status} at "
              f"lambda={path.steps[-1].lam:.6g}: {path.reason}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_audit(cfg: RunConfig) -> int:
    grid, models, _, _ = build_setup(cfg)
    audit = audit_assumptions(models.gamma, models.a, models.alpha,
                              max(cfg.grid_d, 2))
    adm = check_parameter_admissibility(
        cfg.hamiltonian_gamma, cfg.congestion_alpha, cfg.grid_d)

    print(f"assumption audit: gamma={cfg.hamiltonian_gamma:g} "
          f"alpha={cfg.congestion_alpha:g}")
    for check in audit.checks:
        consts = " ".join(f"{k}={v:.6g}" for k, v in check.constants.items())
        print(f"  [{'pass' if check.passed else 'FAIL'}] {check.name}: "
              f"{check.statement}  ({consts})")
    print(f"  inf alpha_tilde = {audit.alpha_tilde_inf:.6g} "
          f"(requires alpha < inf alpha_tilde)")
    for cond in adm.conditions:
        print(f"  [{'pass' if cond.satisfied else 'FAIL'}] {cond.name}: "
              f"{cond.statement}  (margin {cond.margin:.6g})")
    ok = audit.all_passed and adm.admissible
    return EXIT_OK if ok else EXIT_AUDIT


def cmd_validate(cfg: RunConfig, fields_dir: str, out_dir: str | None = None) -> int:
    grid, models, _, _ = build_setup(cfg)
    try:
        u = read_field_csv(os.path.join(fields_dir, "u.csv"), grid)
        m = read_field_csv(os.path.join(fields_dir, "m.csv"), grid)
    except (OSError, ValueError) as exc:
        print(f"cannot load fields: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if np.min(m.values) <= 0.0:
        print("validation precondition violated: density field has a "
              "non-positive entry", file=sys.stderr)
        return EXIT_CONFIG
    state = MFGState(grid, u.values, m.values, 1.0)
    try:
        # an overflowing certificate is reported by the all_finite verdict
        with np.errstate(over="ignore"):
            report = estimate_suite(state, models)
            lin = linearize(state, models)
    except ValueError as exc:
        print(f"validation failed: the Hamiltonian cannot be evaluated on "
              f"these fields ({exc})", file=sys.stderr)
        return EXIT_VALIDATE
    # bilinear-form spot check over a few fixed perturbations (v, f)
    rng = np.random.default_rng(0)
    bmax = max(bilinear_form(lin, rng.standard_normal(grid.npoints),
                             rng.standard_normal(grid.npoints))
               for _ in range(8))
    verdicts = certify(report, bform_max=bmax)
    for v in verdicts:
        print(f"  [{'pass' if v.passed else 'FAIL'}] {v.name}: "
              f"value={v.value:.6g} threshold={v.threshold:.6g}")
    out = out_dir or fields_dir
    os.makedirs(out, exist_ok=True)
    _write_json(dataclasses.asdict(report),
                os.path.join(out, "diagnostics.json"))
    return EXIT_OK if all(v.passed for v in verdicts) else EXIT_VALIDATE


def _csv_value(v) -> str:
    """A sweep.csv cell: like format_json, but nan stays an unquoted nan
    and a string is written bare."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, str)):
        return str(v)
    return f"{v:.17g}"


def cmd_sweep(cfg: RunConfig, gamma_list, alpha_list,
              out_dir: str | None = None, override: bool = False) -> int:
    from .solver import continuation_run, sweep_guess

    if not gamma_list or not alpha_list:
        print("sweep needs non-empty gamma and alpha lists", file=sys.stderr)
        return EXIT_CONFIG
    _, base, tol, step_min = build_setup(cfg)
    out = out_dir or cfg.output_dir
    os.makedirs(out, exist_ok=True)
    # pairs are visited in snake order, alpha reversed on every other
    # gamma, so each pair follows a neighbour; rows stay gamma-major
    table = {}
    last = None
    alphas = list(enumerate(alpha_list))
    for gi, gamma in enumerate(gamma_list):
        line = []
        for ai, alpha in (alphas if gi % 2 == 0 else reversed(alphas)):
            adm = check_parameter_admissibility(gamma, alpha, cfg.grid_d)
            row = table[gi, ai] = {
                "gamma": gamma, "alpha": alpha, "admissible": adm.admissible,
                "reached_one": False, "iters_total": 0,
                "min_m": float("nan"), "energy_residual": float("nan"),
                "start": "none"}
            if not (adm.admissible or override):
                continue
            try:
                models = dataclasses.replace(base, gamma=gamma, alpha=alpha)
            except ValueError as exc:
                print(f"sweep pair gamma={gamma:g} alpha={alpha:g} "
                      f"failed to set up: {exc}", file=sys.stderr)
                continue
            start, guess = sweep_guess(alpha, line, last)
            path = continuation_run(models, tol, step_min, guess=guess)
            # a path that began at its guess begins at lam = 1
            row["start"] = start if path.steps[0].lam == 1.0 else "continuation"
            row["reached_one"] = path.reached_one
            row["iters_total"] = path.total_iters
            row["min_m"] = min(s.min_m for s in path.steps)
            if path.reached_one:
                last = path.final_state
                line = [*line[-1:], (alpha, last)]
                row["energy_residual"] = energy_identity(last, models)[2]
    rows = [table[key] for key in sorted(table)]

    with open(os.path.join(out, "sweep.csv"), "w") as fh:
        fh.write(",".join(rows[0]) + "\n")
        for r in rows:
            fh.write(",".join(_csv_value(v) for v in r.values()) + "\n")
    # admissibility frontier: supremum of the admissible alpha at each gamma
    with open(os.path.join(out, "frontier.csv"), "w") as fh:
        fh.write("gamma,alpha_max\n")
        for gamma in np.linspace(1.01, 1.99, 99):
            fh.write(f"{gamma:.17g},{admissible_alpha_max(gamma):.17g}\n")
    print(f"sweep complete: {len(rows)} pairs, results in {out}/sweep.csv")
    return EXIT_OK


def _float_list(text: str | None) -> list[float]:
    """The values of a comma-separated `--gamma` or `--alpha` list."""
    try:
        values = [float(t) for t in (text or "").split(",") if t.strip()]
        for v in values:
            if not math.isfinite(v):
                raise ValueError(f"non-finite value {v!r} in {text!r}")
    except ValueError as exc:
        raise ConfigError(f"bad sweep list: {exc}") from exc
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfglab",
        description="Stationary mean-field games with congestion: homotopy "
                    "continuation solver and estimate certification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "audit", "validate", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a section.key = value file")
        if name != "audit":
            p.add_argument("--out", help="output directory override")
        if name in ("solve", "sweep"):
            p.add_argument("--override-admissibility", action="store_true")
        if name == "validate":
            p.add_argument("--fields", help="directory holding u.csv and m.csv")
        if name == "sweep":
            p.add_argument("--gamma", help="comma-separated gamma values")
            p.add_argument("--alpha", help="comma-separated alpha values")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config) if args.config else RunConfig()
        validate_config(cfg)
        if args.command == "solve":
            return cmd_solve(cfg, args.out, args.override_admissibility)
        if args.command == "audit":
            return cmd_audit(cfg)
        if args.command == "validate":
            fields_dir = args.fields or cfg.output_dir
            return cmd_validate(cfg, fields_dir, args.out)
        return cmd_sweep(cfg, _float_list(args.gamma), _float_list(args.alpha),
                         args.out, args.override_admissibility)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
