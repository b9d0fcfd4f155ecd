"""Acceptance gate: the exit criteria of the build, one test per criterion.

Each test prints a `criterion N ...: PASS/FAIL` line (run pytest with -s
to see them on success) and asserts the stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from helpers import (default_models, low_density_models,
                     manufactured_solution, smooth_field,
                     smooth_positive_density, two_dimensional_models)
from mfglab.diagnostics import energy_identity, estimate_suite
from mfglab.grid import TorusGrid
from mfglab.hamiltonian import (check_parameter_admissibility, conjugate_exponent,
                                example_eval, power_eval, solve_optimal_speed)
from mfglab.solver import continuation_run, newton_solve
from mfglab.system import (MFGModels, MFGState, assemble_jacobian,
                           bilinear_form, linearize, residual)


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {number} ({label}): {status}{suffix}")
    assert ok, f"criterion {number} ({label}) failed: {detail}"


@pytest.fixture(scope="module")
def run_128():
    grid = TorusGrid(1, 128)
    models = default_models(grid)
    start = time.perf_counter()
    path = continuation_run(models)
    return grid, models, path, time.perf_counter() - start


@pytest.fixture(scope="module")
def run_64():
    grid = TorusGrid(1, 64)
    models = default_models(grid)
    return grid, models, continuation_run(models)


def test_criterion_1_trivial_solution_exactness():
    grid = TorusGrid(1, 128)
    models = default_models(grid)
    state = models.trivial_state()
    assert state.u[0] == -(1.0 + math.pi / 4.0) and np.all(state.m == 1.0)
    sup = residual(state, models).sup_norm
    report(1, "trivial-solution exactness", sup < 1e-12, f"sup residual {sup:.3e}")


def test_criterion_2_full_continuation(run_128):
    _, _, path, elapsed = run_128
    ok = (path.reached_one
          and path.steps[-1].residual_norm < 1e-10
          and all(s.min_m > 1e-3 for s in path.steps)
          and elapsed < 30.0)
    detail = (f"status={path.status} final residual "
              f"{path.steps[-1].residual_norm:.3e} min_m "
              f"{min(s.min_m for s in path.steps):.3e} in {elapsed:.2f}s")
    report(2, "full continuation, 1D n=128", ok, detail)


def test_criterion_2_two_dimensional_run():
    grid = TorusGrid(2, 64)
    models = default_models(grid)
    start = time.perf_counter()
    path = continuation_run(models)
    elapsed = time.perf_counter() - start
    ok = path.reached_one and elapsed < 300.0
    report(2, "full continuation, 2D n=64", ok,
           f"status={path.status} in {elapsed:.1f}s")


@pytest.mark.parametrize("d, n", [(1, 1024), (1, 2048), (2, 256)])
def test_criterion_2_refined_grid_reaches_one(d, n):
    # the Newton floor and the direct-solve gate scale with the grid: a
    # finer grid must not stop the default run short of lam = 1
    grid = TorusGrid(d, n)
    path = continuation_run(default_models(grid))
    report(2, f"full continuation, {d}D n={n}", path.reached_one,
           f"status={path.status} at lambda={path.lambdas[-1]:.6g} "
           f"{path.reason}")


def test_criterion_3_mass_conservation(run_128):
    grid, _, path, _ = run_128
    worst = max(abs(grid.integrate(s.state.m) - 1.0) for s in path.steps)
    report(3, "mass conservation along the path", worst < 1e-10,
           f"max |mass - 1| = {worst:.3e}")


def test_criterion_4_energy_identity_convergence(run_128, run_64):
    _, models_128, path_128, _ = run_128
    _, models_64, path_64 = run_64
    _, _, res_128 = energy_identity(path_128.final_state, models_128)
    _, _, res_64 = energy_identity(path_64.final_state, models_64)
    ratio = res_64 / res_128
    fine = {}
    for n in (256, 512):
        models = default_models(TorusGrid(1, n))
        path = continuation_run(models)
        assert path.reached_one, f"n={n}: {path.status}: {path.reason}"
        _, _, fine[n] = energy_identity(path.final_state, models)
    fine_ratio = fine[256] / fine[512]
    ok = (res_128 < 1e-3 and 3.2 <= ratio <= 4.8
          and 3.2 <= fine_ratio <= 4.8)
    report(4, "energy identity convergence", ok,
           f"residual n=128 {res_128:.3e}, n=64/n=128 ratio {ratio:.3f}, "
           f"n=256/n=512 ratio {fine_ratio:.3f}")


def test_criterion_5_jacobian_fidelity_and_quadratic_contraction():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(20):
        grid = TorusGrid(1, 32) if trial % 2 == 0 else TorusGrid(2, 16)
        models = default_models(grid)
        n = grid.npoints
        state = MFGState(grid, smooth_field(grid, rng, 0.5),
                         smooth_positive_density(grid, rng),
                         rng.uniform(0.0, 1.0))
        jac = assemble_jacobian(linearize(state, models))
        w = np.concatenate([smooth_field(grid, rng), smooth_field(grid, rng)])
        t = 1e-6
        plus = MFGState(grid, state.u + t * w[:n], state.m + t * w[n:], state.lam)
        minus = MFGState(grid, state.u - t * w[:n], state.m - t * w[n:], state.lam)
        fd = (residual(plus, models).stack()
              - residual(minus, models).stack()) / (2.0 * t)
        jw = jac @ w
        worst = max(worst, float(np.linalg.norm(fd - jw) / np.linalg.norm(jw)))

    grid = TorusGrid(1, 128)
    models = default_models(grid)
    state = models.trivial_state()
    x = grid.coords()[:, 0]
    init = MFGState(grid, state.u + 0.1 * np.sin(2 * np.pi * x), state.m, 0.0)
    hist = newton_solve(init, 0.0, models).history
    late = [(a, b) for a, b in zip(hist, hist[1:]) if a < 1e-3 and b > 5e-15]
    ratios = [np.log(b) / np.log(a) for a, b in late]
    quad_constant = max(b / a**2 for a, b in late) if late else float("nan")
    ok = (worst < 1e-6 and late and min(ratios) >= 1.8
          and math.isfinite(quad_constant))
    report(5, "Jacobian fidelity and quadratic contraction", ok,
           f"max fd mismatch {worst:.3e}, min log-ratio "
           f"{min(ratios) if ratios else float('nan'):.2f}, "
           f"contraction constant {quad_constant:.3g}")


def test_criterion_6_uniqueness_monotone_regime(run_128):
    grid, models, path, _ = run_128
    base = path.final_state
    x = grid.coords()[:, 0]
    g1 = MFGState(grid, base.u + 0.05 * np.sin(2 * np.pi * x),
                  base.m * (1.0 + 0.05 * np.cos(2 * np.pi * x)), 1.0)
    g2 = MFGState(grid, base.u - 0.08 * np.cos(4 * np.pi * x),
                  base.m * (1.0 + 0.04 * np.sin(4 * np.pi * x)), 1.0)
    s1 = newton_solve(g1, 1.0, models).state
    s2 = newton_solve(g2, 1.0, models).state
    gap = max(float(np.max(np.abs(s1.u - s2.u))),
              float(np.max(np.abs(s1.m - s2.m))))
    report(6, "uniqueness in the monotone regime", gap < 1e-8,
           f"sup-norm gap {gap:.3e}")


def test_criterion_7_monotonicity_form(run_128):
    grid, models, path, _ = run_128
    lin = linearize(path.final_state, models)
    rng = np.random.default_rng(77)
    worst = -math.inf
    strict_ok = True
    for _ in range(100):
        v = rng.standard_normal(grid.npoints)
        f = rng.standard_normal(grid.npoints)
        value = bilinear_form(lin, v, f)
        worst = max(worst, value)
        size = (np.linalg.norm(f)
                + np.linalg.norm(grid.gradient(v)))
        if size > 1e-6 and not value < 0.0:
            strict_ok = False
    b_harmonic = bilinear_form(lin, np.zeros(grid.npoints),
                               np.sin(2 * np.pi * grid.coords()[:, 0]))
    ok = worst <= 1e-10 and strict_ok and b_harmonic < 0.0
    report(7, "monotonicity of the bilinear form", ok,
           f"max B[w,w] = {worst:.3e}, B[(0,sin)] = {b_harmonic:.3e}")


def test_criterion_8_hamiltonian_oracle_suite():
    rng = np.random.default_rng(8)
    gamma, a = 1.25, 1.1
    gp = conjugate_exponent(gamma)

    s_true = rng.uniform(0.0, 10.0, size=100) + 1e-6
    p = gp * a * s_true * (1.0 + s_true**2) ** (0.5 * gp - 1.0)
    round_trip = float(np.max(np.abs(solve_optimal_speed(p, a, gp) - s_true)))

    a_field = 1.0 + 0.5 * np.sin(2 * np.pi * np.linspace(0, 1, 64, endpoint=False))
    zero_exact = all(example_eval(np.zeros(2), av, gamma).H == -av
                     for av in a_field)

    fd_worst = 0.0
    step = 1e-5
    for _ in range(10):
        pt = rng.uniform(-4.0, 4.0, size=2)
        ev = example_eval(pt, a, gamma)
        for i in range(2):
            dp = np.zeros(2)
            dp[i] = step
            fd_h = (example_eval(pt + dp, a, gamma).H
                    - example_eval(pt - dp, a, gamma).H) / (2 * step)
            fd_worst = max(fd_worst, abs(fd_h - ev.DpH[i])
                           / max(1.0, abs(ev.DpH[i])))
            fd_g = (example_eval(pt + dp, a, gamma).DpH
                    - example_eval(pt - dp, a, gamma).DpH) / (2 * step)
            fd_worst = max(fd_worst, float(np.max(np.abs(fd_g - ev.DppH[:, i])))
                           / max(1.0, float(np.max(np.abs(ev.DppH)))))

    # admissible-exponent field over a wide momentum sample
    P = np.zeros((400, 2))
    P[:, 0] = np.linspace(0.0, 200.0, 400)
    speed = solve_optimal_speed(P[:, 0], 1.0, gp)
    with np.errstate(divide="ignore"):
        alpha_tilde = 4.0 * (1.0 / (gp * speed**2) + 1.0 / gamma)
    inf_alpha_tilde = float(np.min(alpha_tilde))

    ok = (round_trip < 1e-10 and zero_exact and fd_worst < 1e-6
          and inf_alpha_tilde >= 4.0 / gamma)
    report(8, "Hamiltonian oracle suite", ok,
           f"round-trip {round_trip:.2e}, fd {fd_worst:.2e}, "
           f"inf alpha_tilde {inf_alpha_tilde:.4f} >= {4.0 / gamma:.4f}")


def test_criterion_9_admissibility_gate():
    accept = check_parameter_admissibility(1.25, 1.0, 1)
    reject_a = check_parameter_admissibility(1.9, 1.5, 2)
    reject_b = check_parameter_admissibility(1.25, 2.0, 1)
    ok = (accept.admissible
          and not reject_a.admissible
          and "gamma_alpha_coupling" in {c.name for c in reject_a.violated()}
          and not reject_b.admissible
          and "alpha_range" in {c.name for c in reject_b.violated()})
    names = {c.name for c in reject_a.violated()} | \
        {c.name for c in reject_b.violated()}
    report(9, "admissibility gate", ok, f"violations named: {sorted(names)}")


def test_criterion_10_diagnostics_closed_forms():
    grid = TorusGrid(1, 128)
    models = default_models(grid)
    ok = True
    worst = 0.0
    for c in (0.5, 1.0, 2.0, 3.7):
        state = MFGState(grid, np.zeros(grid.npoints),
                         np.full(grid.npoints, c), 1.0)
        rep = estimate_suite(state, models)
        gap_entropy = abs(rep.entropy[0] - c * math.log(c))
        gaps_inverse = [abs(v - 1.0 / c) for _, v in rep.inverse_moments]
        worst = max(worst, gap_entropy, *gaps_inverse)
        ok = ok and gap_entropy < 1e-12 and all(g < 1e-12 for g in gaps_inverse)
    report(10, "diagnostics closed forms", ok, f"max gap {worst:.3e}")


def test_criterion_11_two_dimensional_energy_identity_convergence():
    residuals, variation = {}, 0.0
    for n in (64, 128):
        grid = TorusGrid(2, n)
        models = two_dimensional_models(grid)
        path = continuation_run(models)
        assert path.reached_one, f"n={n}: {path.status}: {path.reason}"
        state = path.final_state
        _, _, residuals[n] = energy_identity(state, models)
        u = state.u.reshape(grid.shape)
        variation = max(variation, float(np.max(np.ptp(u, axis=1))))
    ratio = residuals[64] / residuals[128]
    ok = residuals[128] < 1e-3 and 3.2 <= ratio <= 4.8 and variation > 1e-3
    report(11, "2D energy identity convergence, data varying along x2", ok,
           f"residual n=128 {residuals[128]:.3e}, n=64/n=128 ratio "
           f"{ratio:.3f}, max x2-variation of u {variation:.3e}")


def test_criterion_12_low_density_refinement():
    # b = 1e4 cos(2 pi x1), gamma = 1.9, alpha = 0.02: the density nearly
    # vanishes, and the paper's estimates must still hold uniformly in h
    residuals, moments, worst_min_m, worst_mass = {}, {}, 0.0, 0.0
    for n in (256, 512, 1024):
        grid = TorusGrid(1, n)
        models = low_density_models(grid)
        path = continuation_run(models)
        assert path.reached_one, f"n={n}: {path.status}: {path.reason}"
        state = path.final_state
        diag = estimate_suite(state, models)
        residuals[n] = diag.energy_identity_residual
        moments[n] = dict(diag.inverse_moments)[8.0]
        worst_min_m = max(worst_min_m, float(np.min(state.m)))
        worst_mass = max(worst_mass, abs(diag.mass - 1.0))
    ratios = (residuals[256] / residuals[512], residuals[512] / residuals[1024])
    drifts = (abs(moments[512] / moments[256] - 1.0),
              abs(moments[1024] / moments[512] - 1.0))
    ok = (worst_min_m < 1e-3 and worst_mass <= 1e-10
          and all(3.2 <= r <= 4.8 for r in ratios)
          and all(d <= 0.01 for d in drifts))
    report(12, "low-density energy identity and inverse moments, 1D", ok,
           f"max min_m {worst_min_m:.3e}, max |mass - 1| {worst_mass:.3e}, "
           f"ratios {ratios[0]:.3f} {ratios[1]:.3f}, ||1/m||_L8 "
           f"{moments[256]:.5g} {moments[512]:.5g} {moments[1024]:.5g}")


def manufactured_errors(nf, sizes, gamma, alpha, amplitude=0.5):
    """Max-norm errors in u and m of the 1D solves at each n in `sizes` of
    `manufactured_solution(nf, gamma, alpha, amplitude)`, and their ratios
    per doubling; every solve must reach lam = 1."""
    u_star, m_star, b = manufactured_solution(nf, gamma, alpha, amplitude)
    errors = {}
    for n in sizes:
        grid = TorusGrid(1, n)
        path = continuation_run(
            MFGModels(grid, alpha, gamma, np.ones(n), b[::nf // n]))
        assert path.reached_one, f"n={n}: {path.status}: {path.reason}"
        state = path.final_state
        errors[n] = (float(np.max(np.abs(state.u - u_star[::nf // n]))),
                     float(np.max(np.abs(state.m - m_star[::nf // n]))))
    ratios = [(errors[n // 2][0] / errors[n][0], errors[n // 2][1] / errors[n][1])
              for n in sizes[1:]]
    return errors, ratios


def refinement_detail(errors, ratios, elapsed):
    first, last = min(errors), max(errors)
    return (f"errors in u {errors[first][0]:.3e} -> {errors[last][0]:.3e}, in m "
            f"{errors[first][1]:.3e} -> {errors[last][1]:.3e}, ratios u "
            + " ".join(f"{r:.3f}" for r, _ in ratios) + ", m "
            + " ".join(f"{r:.3f}" for _, r in ratios) + f", in {elapsed:.2f}s")


def test_criterion_13_manufactured_solution():
    # a known solution of the lam = 1 system (gamma 1.5, alpha 0.25, a = 1,
    # min m* = 0.5): the max-norm errors in u and m fall 4x per doubling
    start = time.perf_counter()
    errors, ratios = manufactured_errors(8192, (64, 128, 256, 512, 1024), 1.5, 0.25)
    elapsed = time.perf_counter() - start
    ok = all(3.6 <= r <= 4.4 for pair in ratios for r in pair) and elapsed < 3.0
    report(13, "manufactured solution, 1D second-order convergence", ok,
           refinement_detail(errors, ratios, elapsed))


def test_criterion_14_odd_two_dimensional_ladder():
    # an odd 2D grid climbs the ladder like an even one, its levels read
    # from the level above by linear interpolation; the x1-only default
    # data has the 1D solution repeated along x2 as its solution
    n = 129
    start = time.perf_counter()
    path = continuation_run(default_models(TorusGrid(2, n)))
    elapsed = time.perf_counter() - start
    assert path.reached_one, f"{path.status}: {path.reason}"
    reference = continuation_run(default_models(TorusGrid(1, n))).final_state
    state = path.final_state
    gaps = [np.max(np.abs(field.reshape(n, n) - ref[:, None]))
            / np.max(np.abs(ref))
            for field, ref in ((state.u, reference.u), (state.m, reference.m))]
    levels = [s.n for s in path.steps]
    ok = levels == [16, 16, 32, 64, 129] and max(gaps) <= 1e-10
    report(14, "odd 2D grid on the ladder, 2D n=129 against 1D", ok,
           f"levels {levels}, relative gap u {gaps[0]:.3e} m {gaps[1]:.3e}, "
           f"in {elapsed:.2f}s")


def test_criterion_15_low_density_manufactured_solution():
    # a known solution with min m* = 0.01 (m* = 1 + 0.99 cos, gamma 1.5,
    # alpha 0.25): every refinement reaches lam = 1 and both max-norm
    # errors fall at every doubling; the ratios are pre-asymptotic, so
    # they have no band
    start = time.perf_counter()
    errors, ratios = manufactured_errors(
        32768, (64, 128, 256, 512, 1024, 2048), 1.5, 0.25, 0.99)
    elapsed = time.perf_counter() - start
    ok = all(r > 1.0 for pair in ratios for r in pair) and elapsed < 3.0
    report(15, "low-density manufactured solution, 1D errors fall", ok,
           refinement_detail(errors, ratios, elapsed))


def test_criterion_16_lowest_density_manufactured_solution():
    # a known solution with min m* = 0.001 in the low-density regime
    # (m* = 1 + 0.999 cos, gamma 1.9, alpha 0.02): every refinement
    # reaches lam = 1 and both max-norm errors fall at every doubling
    # (u 1.39 -> 1.61e-2, m 6.9e-3 -> 3.9e-5); the ratios are
    # pre-asymptotic, so they have no band
    start = time.perf_counter()
    errors, ratios = manufactured_errors(
        32768, (128, 256, 512, 1024, 2048, 4096), 1.9, 0.02, 0.999)
    elapsed = time.perf_counter() - start
    ok = all(r > 1.0 for pair in ratios for r in pair) and elapsed < 3.0
    report(16, "lowest-density manufactured solution, 1D errors fall", ok,
           refinement_detail(errors, ratios, elapsed))
