"""Seeded inputs, commands and correctness gates of the benchmark workloads.

Each workload is one `mfglab` command run on inputs made from a seed.
The program only sees the generated config files and field files; the
gates afterwards read what the command wrote and decide whether the
command succeeded.

Coefficient fields.  Every seed poses one fixed coefficient profile
(amplitudes 0.3/k for `hamiltonian.a`, 0.5/k for `potential.b`,
k = 1, 2) moved by a seeded translation and reflection of the torus.
The inputs differ in every digit from seed to seed, but each seed poses
the same continuous problem, so every seed costs the same number of
Newton iterations.  Independent random phases per mode made the 2D
solve take 10 or 12 iterations depending on the seed, a 20% spread in
op time that says nothing about the program.
"""

from __future__ import annotations

import csv
import json
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

from mfglab import cli
from mfglab.config import load_config
from mfglab.grid import ScalarField, TorusGrid, read_field_csv, write_field_csv
from mfglab.system import MFGState, residual

# (amplitude, phase) of the modes k = 1, 2 along x1; a keeps a constant 1
A_MODES = ((0.3, 0.0), (0.15, 1.0))
B_MODES = ((0.5, 0.5), (0.25, 2.0))

SWEEP_GAMMA = "1.1,1.15,1.2,1.25"
SWEEP_ALPHA = "0.25,0.5,0.75,1.0"
SWEEP_PAIRS = len(SWEEP_GAMMA.split(",")) * len(SWEEP_ALPHA.split(","))


def _fourier(c0: float, modes, tau: float, flip: bool) -> str:
    """`fourier:` descriptor of c0 + sum_k A_k sin(2 pi k x + phi_k) after
    the reflection x -> -x (if flip) and the translation x -> x - tau."""
    tokens = [c0]
    for k, (amp, phase) in enumerate(modes, start=1):
        phi = (math.pi - phase if flip else phase) - 2.0 * math.pi * k * tau
        tokens += [amp * math.cos(phi), amp * math.sin(phi)]
    return "fourier:" + ",".join(repr(float(t)) for t in tokens)


def coefficients(seed: int) -> tuple[str, str]:
    """Seeded `hamiltonian.a` and `potential.b` descriptors; a >= 0.55."""
    rng = np.random.default_rng(seed)
    tau = float(rng.uniform(0.0, 1.0))
    flip = bool(rng.integers(2))
    return (_fourier(1.0, A_MODES, tau, flip),
            _fourier(0.0, B_MODES, tau, flip))


def write_config(path: str, seed: int, d: int, n: int) -> str:
    a, b = coefficients(seed)
    with open(path, "w") as fh:
        fh.write(f"grid.d = {d}\ngrid.n = {n}\n"
                 f"hamiltonian.a = {a}\npotential.b = {b}\n")
    return path


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _exit_failure(code, text: str) -> "Check":
    last = text.strip().splitlines()[-1:] or [""]
    return Check(False, math.nan, f"exit code {code}: {last[0]}")


def _diagnostics_energy(out: str) -> float:
    with open(os.path.join(out, "diagnostics.json")) as fh:
        return float(json.load(fh)["energy_identity_residual"])


@dataclass(frozen=True)
class Check:
    ok: bool
    energy_residual: float
    why: str = ""


class Workload:
    """One command on seeded inputs at grid size n (warm-up size n_warm)."""

    name = ""
    n = 0
    n_warm = 0

    def prepare(self, workdir: str, seed: int, n: int) -> str:
        """Write the inputs into workdir; returns the config path."""
        raise NotImplementedError

    def argv(self, workdir: str, out: str) -> list[str]:
        raise NotImplementedError

    def check(self, workdir: str, out: str, code, text: str) -> Check:
        raise NotImplementedError


class Solve2D(Workload):
    """`mfglab solve`, d=2 n=64: factorization bound, writes the fields."""

    name, n, n_warm = "solve-2d", 64, 16

    def prepare(self, workdir, seed, n):
        return write_config(os.path.join(workdir, "run.cfg"), seed, 2, n)

    def argv(self, workdir, out):
        return ["solve", "--config", os.path.join(workdir, "run.cfg"),
                "--out", out]

    def check(self, workdir, out, code, text):
        if code != cli.EXIT_OK:
            return _exit_failure(code, text)
        return check_solution(os.path.join(workdir, "run.cfg"), out)


def check_solution(config_path: str, out: str) -> Check:
    """Recompute the lam = 1 residual from the written u.csv / m.csv."""
    cfg = load_config(config_path)
    grid, models, _, _ = cli.build_setup(cfg)
    try:
        u = read_field_csv(os.path.join(out, "u.csv"), grid)
        m = read_field_csv(os.path.join(out, "m.csv"), grid)
        state = MFGState(grid, u.values, m.values, 1.0)
        rnorm = residual(state, models).sup_norm
        energy = _diagnostics_energy(out)
    except (OSError, ValueError, KeyError) as exc:
        return Check(False, math.nan, f"unreadable output: {exc}")
    if not rnorm < cfg.newton_tol:
        return Check(False, energy, f"residual {rnorm:.3e} >= newton.tol")
    return Check(True, energy)


class Sweep1D(Workload):
    """`mfglab sweep`, d=1 n=256 over a 4x4 (gamma, alpha) grid."""

    name, n, n_warm = "sweep-1d", 256, 32

    def prepare(self, workdir, seed, n):
        return write_config(os.path.join(workdir, "run.cfg"), seed, 1, n)

    def argv(self, workdir, out):
        return ["sweep", "--config", os.path.join(workdir, "run.cfg"),
                "--gamma", SWEEP_GAMMA, "--alpha", SWEEP_ALPHA, "--out", out]

    def check(self, workdir, out, code, text):
        if code != cli.EXIT_OK:
            return _exit_failure(code, text)
        try:
            with open(os.path.join(out, "sweep.csv")) as fh:
                rows = list(csv.DictReader(fh))
            energies = [float(r["energy_residual"]) for r in rows]
        except (OSError, ValueError, KeyError) as exc:
            return Check(False, math.nan, f"unreadable sweep.csv: {exc}")
        if len(rows) != SWEEP_PAIRS:
            return Check(False, math.nan, f"{len(rows)} sweep rows")
        if any(r["reached_one"] != "true" for r in rows):
            return Check(False, math.nan, "a pair stopped short of lambda = 1")
        if not all(math.isfinite(e) for e in energies):
            return Check(False, math.nan, "non-finite energy residual")
        return Check(True, max(energies))


class Certify2D(Workload):
    """`mfglab validate` on 2D n=256 fields tiled from a 1D n=256 solve.

    The coefficients depend on x1 only, so the 1D solution repeated
    along x2 is a discrete solution of the 2D system.
    """

    name, n, n_warm = "certify-2d", 256, 32

    def prepare(self, workdir, seed, n):
        line = fresh_dir(os.path.join(workdir, "line"))
        cfg_1d = write_config(os.path.join(workdir, "line.cfg"), seed, 1, n)
        code = cli.main(["solve", "--config", cfg_1d, "--out", line])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"1D set-up solve failed with exit code {code}")
        grid = TorusGrid(2, n)
        for name in ("u.csv", "m.csv"):
            values = read_field_csv(os.path.join(line, name)).values
            write_field_csv(ScalarField(grid, np.repeat(values, n)),
                            os.path.join(workdir, name))
        return write_config(os.path.join(workdir, "run.cfg"), seed, 2, n)

    def argv(self, workdir, out):
        return ["validate", "--config", os.path.join(workdir, "run.cfg"),
                "--fields", workdir, "--out", out]

    def check(self, workdir, out, code, text):
        if code != cli.EXIT_OK:
            return _exit_failure(code, text)
        verdicts = [ln.strip() for ln in text.splitlines()
                    if ln.lstrip().startswith(("[pass]", "[FAIL]"))]
        if not verdicts or any(v.startswith("[FAIL]") for v in verdicts):
            return Check(False, math.nan, f"verdicts {verdicts}")
        try:
            return Check(True, _diagnostics_energy(out))
        except (OSError, ValueError, KeyError) as exc:
            return Check(False, math.nan, f"unreadable diagnostics: {exc}")


WORKLOADS = {w.name: w for w in (Solve2D(), Sweep1D(), Certify2D())}
