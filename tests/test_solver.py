"""Newton corrector and continuation driver behavior."""

import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

from helpers import (assert_same_bits, default_models, high_mode_models,
                     low_density_models, smooth_field, two_dimensional_models)
from mfglab import solver, system
from mfglab.config import RunConfig
from mfglab.grid import TorusGrid
from mfglab.solver import (LaggedLU, NewtonDivergenceError,
                           SingularSystemError, SolverError, backward_error,
                           band_layout, chunked_matvec, continuation_run,
                           fourier_resample, gmres, newton_solve, norm2,
                           normwise_backward_error, residual_floor,
                           solve_direct, transfer_matrix, two_grid_cycle)
from mfglab.system import (MFGState, assemble_jacobian, bilinear_form,
                           linearize, residual)


def count_factorizations(monkeypatch, band_calls: list | None = None) -> list:
    """Record the shape of every LU factorization the solver makes from now on.

    SuperLU and band factorizations both land in the returned list; band
    factorizations also in `band_calls` when given.
    """
    calls = []
    real, real_band = solver.splu, solver.dgbsv

    def counted(matrix, **kwargs):
        calls.append(matrix.shape)
        return real(matrix, **kwargs)

    def counted_band(kl, ku, ab, b, **kwargs):
        # ab has one column per column of the matrix
        calls.append((ab.shape[1], ab.shape[1]))
        if band_calls is not None:
            band_calls.append(calls[-1])
        return real_band(kl, ku, ab, b, **kwargs)
    monkeypatch.setattr(solver, "splu", counted)
    monkeypatch.setattr(solver, "dgbsv", counted_band)
    return calls


def count_gmres_iterations(monkeypatch, size: int | None = None) -> list:
    """Record the iterations of every GMRES solve from now on (of systems
    of `size` unknowns only, when given)."""
    iterations = []
    real = solver.gmres

    def counted(matvec, precond, rhs, max_iters, atol):
        x, k, estimate = real(matvec, precond, rhs, max_iters, atol)
        if size is None or rhs.size == size:
            iterations.append(k)
        return x, k, estimate
    monkeypatch.setattr(solver, "gmres", counted)
    return iterations


def record_solves(monkeypatch, n: int) -> list:
    """Record (init, lam, linear) of every Newton solve on a grid of n
    points per axis from now on; each still runs."""
    solves = []
    real = solver.newton_solve

    def recorded(init, lam, models, tol, linear):
        if init.grid.n == n:
            solves.append((init, lam, linear))
        return real(init, lam, models, tol, linear)
    monkeypatch.setattr(solver, "newton_solve", recorded)
    return solves


def fft_resample(values: np.ndarray, src: TorusGrid,
                 dst: TorusGrid) -> np.ndarray:
    """`fourier_resample` computed by FFTs: zero-pad or truncate each axis.

    The reference the per-axis transfer matrices are checked against.
    """
    low = min(src.n, dst.n)
    k = np.arange(-(low // 2), low // 2 + 1)
    weight = np.ones(k.size)
    if low % 2 == 0 and low == src.n:
        weight[[0, -1]] = 0.5
    lead = np.shape(values)[:-1]
    out = np.reshape(values, lead + src.shape)
    for ax in range(-src.d, 0):
        spec = np.moveaxis(np.fft.fft(out, axis=ax), ax, 0)
        terms = weight.reshape((-1,) + (1,) * (spec.ndim - 1)) * spec[k % src.n]
        modes = np.zeros((dst.n,) + spec.shape[1:], dtype=complex)
        modes[k[:-1] % dst.n] = terms[:-1]
        modes[k[-1] % dst.n] += terms[-1]  # k = +-low / 2 meet when restricting
        out = np.moveaxis(np.fft.ifft(modes, axis=0).real, 0, ax)
    return out.reshape(lead + (dst.npoints,)) * (dst.n / src.n) ** src.d


def newton_system(grid: TorusGrid) -> tuple[sp.csr_matrix, np.ndarray]:
    """Newton matrix J and right-hand side -F of the default problem at a
    perturbed state on `grid`."""
    models = default_models(grid)
    base = models.trivial_state()
    rng = np.random.default_rng(4)
    state = MFGState(grid, base.u + 0.1 * smooth_field(grid, rng),
                     base.m * (1.0 + 0.05 * np.tanh(smooth_field(grid, rng))),
                     0.5)
    res = residual(state, models)
    return assemble_jacobian(res.lin), -res.stack()


def jacobian_2d(n: int = 16) -> sp.csr_matrix:
    """Newton matrix of the default problem at a perturbed 2D state."""
    return newton_system(TorusGrid(2, n))[0]


class TestSolveDirect:
    def test_identity_reproduces_rhs(self):
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal(64)
        x, _ = solve_direct(sp.identity(64, format="csr"), rhs)
        assert np.max(np.abs(x - rhs)) < 1e-14

    def test_random_spd_perturbed_system(self):
        rng = np.random.default_rng(1)
        n = 200
        base = sp.diags(2.0 + rng.random(n))
        noise = sp.random(n, n, density=0.02, random_state=3) * 0.1
        mat = (base + noise).tocsr()
        rhs = rng.standard_normal(n)
        x, _ = solve_direct(mat, rhs)
        assert np.linalg.norm(mat @ x - rhs) / np.linalg.norm(rhs) < 1e-10

    def test_returns_a_band_factor_only_for_1d_newton_matrices(self):
        grid = TorusGrid(1, 33)
        jac, rhs = newton_system(grid)
        # a band solve returns no factor: band factors are never held
        assert solve_direct(jac, rhs, grid=grid)[1] is None
        assert isinstance(solve_direct(jac, rhs)[1], SuperLU)
        grid_2d = TorusGrid(2, 8)
        jac, rhs = newton_system(grid_2d)
        assert isinstance(solve_direct(jac, rhs, grid=grid_2d)[1], SuperLU)

    def test_duplicated_row_reported_singular(self):
        mat = sp.identity(8, format="lil")
        mat[3, :] = mat[4, :]
        with pytest.raises(SingularSystemError):
            solve_direct(mat.tocsr(), np.ones(8))

    @pytest.mark.parametrize("band", [True, False])
    def test_gate_is_relative_to_the_matrix_norm(self, band):
        # the first Newton system of the default run at 1D n = 1024: the
        # entries of I - lap are about 4e6, so a backward-stable solution
        # misses a gate relative to ||rhs|| alone
        grid = TorusGrid(1, 1024)
        models = default_models(grid)
        state = replace(models.trivial_state(), lam=1.0)
        res = residual(state, models)
        jac, rhs = assemble_jacobian(res.lin), -res.stack()
        x, factor = solve_direct(jac, rhs, grid if band else None)
        assert (factor is None) == band  # a band solve returns no factor
        assert backward_error(jac, x, rhs) > 1e-10
        assert normwise_backward_error(jac, x, rhs) <= 1e-10

    @pytest.mark.parametrize("empty_rows", [[0], [2], [5], [0, 1, 5]])
    def test_normwise_error_with_empty_rows(self, empty_rows):
        rng = np.random.default_rng(11)
        dense = rng.standard_normal((6, 6))
        dense[empty_rows] = 0.0
        x, rhs = rng.standard_normal(6), rng.standard_normal(6)
        norm_a = np.max(np.sum(np.abs(dense), axis=1))
        expected = np.max(np.abs(dense @ x - rhs)) / (
            norm_a * np.max(np.abs(x)) + np.max(np.abs(rhs)))
        assert normwise_backward_error(sp.csr_matrix(dense), x, rhs) == \
            pytest.approx(expected, rel=1e-14)


class TestGmres:
    @staticmethod
    def system(n: int = 30):
        rng = np.random.default_rng(5)
        mat = 4.0 * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
        assert not np.allclose(mat, mat.T)
        return mat, rng.standard_normal(n)

    def test_exact_preconditioner_converges_in_one_iteration(self):
        mat, rhs = self.system()
        inv = np.linalg.inv(mat)
        x, iters, _ = gmres(mat.__matmul__, inv.__matmul__, rhs, 20, 1e-12)
        assert iters == 1
        assert np.linalg.norm(mat @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_identity_preconditioner_matches_dense_solve(self):
        mat, rhs = self.system()
        x, _, _ = gmres(mat.__matmul__, lambda v: v, rhs, 30, 1e-15)
        assert np.max(np.abs(x - np.linalg.solve(mat, rhs))) <= 1e-12

    @pytest.mark.parametrize("max_iters", [1, 3, 6, 12])
    def test_residual_estimate_is_the_true_residual(self, max_iters):
        mat, rhs = self.system()
        x, iters, estimate = gmres(mat.__matmul__, lambda v: v, rhs,
                                   max_iters, 1e-15)
        assert iters == max_iters
        true = np.linalg.norm(mat @ x - rhs)
        assert estimate == pytest.approx(true, rel=1e-8, abs=1e-13)

    @pytest.mark.parametrize("size", [1, 4096, 4097, 3 * 4096 + 5])
    def test_chunked_reductions_match_blas(self, size):
        rng = np.random.default_rng(15)
        rows, w = rng.standard_normal((3, size)), rng.standard_normal(size)
        if size <= 4096:  # one chunk: the BLAS call itself
            assert np.array_equal(chunked_matvec(rows, w), rows @ w)
            assert norm2(w) == np.linalg.norm(w)
        assert np.allclose(chunked_matvec(rows, w), rows @ w,
                           rtol=0.0, atol=1e-12 * size)
        assert norm2(w) == pytest.approx(np.linalg.norm(w), rel=1e-14)

    def test_zero_rhs_gives_zero(self):
        mat, _ = self.system()
        x, iters, estimate = gmres(mat.__matmul__, lambda v: v,
                                   np.zeros(30), 5, 1e-12)
        assert iters == 0 and estimate == 0.0 and not np.any(x)


class TestLaggedLU:
    def test_unrelated_cached_factor_triggers_refactor(self, monkeypatch):
        jac = jacobian_2d()
        linear = LaggedLU()
        linear.factor = solver.splu(sp.identity(jac.shape[0], format="csc"))
        stale = linear.factor
        calls = count_factorizations(monkeypatch)
        rhs = np.random.default_rng(6).standard_normal(jac.shape[0])
        x = linear.solve(jac, rhs)
        assert len(calls) == 1
        assert backward_error(jac, x, rhs) <= 1e-10
        assert linear.factor is not None and linear.factor is not stale

    def test_held_factor_solves_a_nearby_matrix_without_refactoring(
            self, monkeypatch):
        jac = jacobian_2d()
        linear = LaggedLU()
        rhs = np.random.default_rng(7).standard_normal(jac.shape[0])
        linear.solve(jac, rhs)
        calls = count_factorizations(monkeypatch)
        nearby = (jac + 0.01 * sp.diags(np.cos(np.arange(jac.shape[0])))).tocsr()
        x = linear.solve(nearby, rhs)
        assert calls == []
        assert backward_error(nearby, x, rhs) <= 1e-10

    def test_absolute_threshold_stops_gmres_early(self, monkeypatch):
        jac = jacobian_2d()
        linear = LaggedLU()
        rhs = np.random.default_rng(7).standard_normal(jac.shape[0])
        linear.solve(jac, rhs)
        held = linear.factor
        nearby = (jac + 0.01 * sp.diags(np.cos(np.arange(jac.shape[0])))).tocsr()
        iterations = count_gmres_iterations(monkeypatch)
        x = linear.solve(nearby, rhs, 0.0)
        assert backward_error(nearby, x, rhs) <= 1e-10
        atol = 1e-6 * np.linalg.norm(rhs)
        x = linear.solve(nearby, rhs, atol)
        assert np.linalg.norm(nearby @ x - rhs) <= atol
        assert linear.factor is held  # neither solve refactored
        assert len(iterations) == 2 and iterations[1] < iterations[0]

    def test_singular_matrix_raises_with_cached_factor(self):
        jac = jacobian_2d()
        linear = LaggedLU()
        rhs = np.random.default_rng(8).standard_normal(jac.shape[0])
        linear.solve(jac, rhs)
        assert linear.factor is not None
        singular = jac.tolil()
        singular[3, :] = singular[4, :]
        with pytest.raises(SingularSystemError):
            linear.solve(singular.tocsr(), rhs)

    def test_failed_factorization_clears_cache(self, monkeypatch):
        jac = jacobian_2d()
        linear = LaggedLU()
        rhs = np.random.default_rng(9).standard_normal(jac.shape[0])
        linear.solve(jac, rhs)
        singular = jac.tolil()
        singular[:, 3] = 0.0
        with pytest.raises(SingularSystemError, match="factorization failed"):
            linear.solve(singular.tocsr(), rhs)
        assert linear.factor is None
        calls = count_factorizations(monkeypatch)
        linear.solve(jac, rhs)
        assert len(calls) == 1

    def test_banded_factor_is_not_held(self, monkeypatch):
        grid = TorusGrid(1, 64)
        models = default_models(grid)
        jac = assemble_jacobian(linearize(models.trivial_state(), models))
        linear = LaggedLU(grid)
        band = []
        calls = count_factorizations(monkeypatch, band)
        x = linear.solve(jac, np.ones(jac.shape[0]))
        assert calls == band == [jac.shape]
        assert linear.factor is None
        assert backward_error(jac, x, np.ones(jac.shape[0])) <= 1e-10

    def test_2d_factor_held_at_every_size(self):
        # SuperLU factors are held whatever their fill (4.4x at n = 8)
        for n in (8, 12, 16):
            jac = jacobian_2d(n)
            linear = LaggedLU(TorusGrid(2, n))
            x = linear.solve(jac, np.ones(jac.shape[0]))
            assert isinstance(linear.factor, SuperLU)
            assert backward_error(jac, x, np.ones(jac.shape[0])) <= 1e-10

    def test_coarse_level_preconditions_until_a_gate_miss(self, monkeypatch):
        fine, coarse = TorusGrid(2, 32), TorusGrid(2, 16)
        coarse_jac, coarse_rhs = newton_system(coarse)
        _, coarse_factor = solve_direct(coarse_jac, coarse_rhs)
        jac, rhs = newton_system(fine)
        linear = LaggedLU(fine, (coarse, coarse_factor.solve))
        calls = count_factorizations(monkeypatch)
        x = linear.solve(jac, rhs)
        assert calls == [] and linear.factor is None
        assert backward_error(jac, x, rhs) <= 1e-10
        # one Krylov iteration misses the gate
        monkeypatch.setattr(solver, "KRYLOV_MAX_ITERS", 1)
        x = linear.solve(jac, rhs)
        assert calls == [jac.shape]
        assert isinstance(linear.factor, SuperLU)
        assert linear.factor.shape == jac.shape
        assert backward_error(jac, x, rhs) <= 1e-10

    def test_minimum_degree_ordering_cuts_fill(self):
        jac = jacobian_2d()
        x, factor = solve_direct(jac, np.ones(jac.shape[0]))
        colamd = splu(jac.tocsc(), permc_spec="COLAMD")
        assert factor.nnz <= 0.75 * colamd.nnz
        assert backward_error(jac, x, np.ones(jac.shape[0])) <= 1e-10


class TestBandLU:
    """1D Newton matrices are factored as band matrices in folded order."""

    @pytest.mark.parametrize("n", [8, 9, 33, 256])
    def test_matches_superlu(self, n, monkeypatch):
        grid = TorusGrid(1, n)
        jac, rhs = newton_system(grid)
        layout = band_layout(grid)
        assert (layout.kl, layout.ku) == (9, 7)
        band = []
        calls = count_factorizations(monkeypatch, band)
        x, _ = solve_direct(jac, rhs, grid=grid)
        assert calls == band == [jac.shape]
        reference = splu(jac.tocsc()).solve(rhs)
        assert np.max(np.abs(x - reference)) <= 1e-12 * np.max(np.abs(reference))
        assert backward_error(jac, x, rhs) <= 1e-10

    def test_zero_column_raises(self):
        grid = TorusGrid(1, 33)
        jac, rhs = newton_system(grid)
        singular = jac.copy()
        singular.data[singular.indices == 5] = 0.0
        assert band_layout(grid).fits(singular)
        linear = LaggedLU(grid)
        with pytest.raises(SingularSystemError, match="factorization failed"):
            linear.solve(singular, rhs)
        assert linear.factor is None

    @pytest.mark.parametrize("change", [
        lambda jac: jac.T.tocsr(),
        lambda jac: sp.csr_matrix(jac.toarray() * (np.abs(jac.toarray()) > 1.0)),
    ], ids=["transposed", "entries_dropped"])
    def test_other_pattern_is_not_scattered_into_the_band(self, change,
                                                          monkeypatch):
        grid = TorusGrid(1, 33)
        jac, rhs = newton_system(grid)
        other = change(jac)
        assert not band_layout(grid).fits(other)
        band = []
        calls = count_factorizations(monkeypatch, band)
        x, _ = solve_direct(other, rhs, grid=grid)
        assert band == [] and calls == [other.shape]  # SuperLU's instead
        assert backward_error(other, x, rhs) <= 1e-10
        reference = np.linalg.solve(other.toarray(), rhs)
        assert np.max(np.abs(x - reference)) <= 1e-10 * np.max(np.abs(reference))


class TestFactorReuse:
    @staticmethod
    def run():
        return continuation_run(default_models(TorusGrid(2, 16)))

    def test_fewer_factorizations_than_newton_iterations(self, monkeypatch):
        calls = count_factorizations(monkeypatch)
        path = self.run()
        assert path.reached_one
        assert len(calls) == 1 < path.total_iters

    def test_matches_refactoring_at_every_iteration(self, monkeypatch):
        path = self.run()
        monkeypatch.setattr(LaggedLU, "solve",
                            lambda self, matrix, rhs, atol:
                            solve_direct(matrix, rhs)[0])
        calls = count_factorizations(monkeypatch)
        reference = self.run()
        assert len(calls) == reference.total_iters
        assert path.lambdas == reference.lambdas
        final, ref = path.final_state, reference.final_state
        assert np.max(np.abs(final.u - ref.u)) <= 1e-10
        assert np.max(np.abs(final.m - ref.m)) <= 1e-10

    def test_runs_are_bit_identical(self):
        s1, s2 = self.run().final_state, self.run().final_state
        assert np.array_equal(s1.u, s2.u) and np.array_equal(s1.m, s2.m)

    def test_two_level_run_matches_refactoring_at_every_iteration(
            self, monkeypatch):
        models = default_models(TorusGrid(2, 64))
        with monkeypatch.context() as patch:
            fine = count_gmres_iterations(patch, 2 * 64**2)
            path = continuation_run(models)
        assert [s.n for s in path.steps] == [16, 16, 32, 64]

        def refactor(self, matrix, rhs, atol):
            x, self.factor = solve_direct(matrix, rhs, self.grid)
            self.precond = self.factor.solve
            return x
        with monkeypatch.context() as patch:
            patch.setattr(LaggedLU, "solve", refactor)
            calls = count_factorizations(patch)
            reference = continuation_run(models)
        assert len(calls) == reference.total_iters
        assert path.lambdas == reference.lambdas
        assert [s.iters for s in path.steps] == [s.iters
                                                 for s in reference.steps]
        final, ref = path.final_state, reference.final_state
        assert np.max(np.abs(final.u - ref.u)) <= 1e-10
        assert np.max(np.abs(final.m - ref.m)) <= 1e-10
        # the last fine solve stops at the Newton threshold, not at 1e-10
        # of its small right-hand side
        real = LaggedLU.solve
        monkeypatch.setattr(
            LaggedLU, "solve",
            lambda self, matrix, rhs, atol: real(self, matrix, rhs, 0.0))
        at_zero = count_gmres_iterations(monkeypatch, 2 * 64**2)
        assert continuation_run(models).lambdas == path.lambdas
        assert len(fine) == len(at_zero) == path.steps[-1].iters
        assert fine[-1] < at_zero[-1]

    @pytest.mark.parametrize("n", [8, 12])
    def test_smallest_2d_grids_hold_the_factor_too(self, n, monkeypatch):
        models = default_models(TorusGrid(2, n))
        calls = count_factorizations(monkeypatch)
        path = continuation_run(models)
        assert path.reached_one and path.lambdas == [0.0, 1.0]
        assert len(calls) == 1 < path.total_iters
        monkeypatch.setattr(LaggedLU, "solve",
                            lambda self, matrix, rhs, atol:
                            solve_direct(matrix, rhs)[0])
        reference = continuation_run(models)
        assert reference.lambdas == [0.0, 1.0]
        final, ref = path.final_state, reference.final_state
        assert np.max(np.abs(final.u - ref.u)) <= 1e-10
        assert np.max(np.abs(final.m - ref.m)) <= 1e-10


class TestNewton:
    def test_converges_quadratically_from_perturbed_start(self):
        grid = TorusGrid(1, 128)
        models = default_models(grid)
        state = models.trivial_state()
        x = grid.coords()[:, 0]
        init = MFGState(grid, state.u + 0.1 * np.sin(2 * np.pi * x), state.m, 0.0)
        result = newton_solve(init, 0.0, models)
        assert result.iters <= 5
        assert result.residual_norm < 1e-10
        # late-iteration contraction is quadratic: log r_{k+1} / log r_k >= 1.8
        hist = result.history
        late = [(hist[i], hist[i + 1]) for i in range(len(hist) - 1)
                if hist[i] < 1e-3 and hist[i + 1] > 5e-15]
        assert late, "expected at least one late iteration pair"
        for rk, rk1 in late:
            assert np.log(rk1) / np.log(rk) >= 1.8

    def test_exact_root_returns_immediately(self):
        grid = TorusGrid(1, 64)
        models = default_models(grid)
        result = newton_solve(models.trivial_state(), 0.0, models)
        assert result.iters == 0

    def test_floor_precondition_rejected_distinctly(self):
        grid = TorusGrid(1, 32)
        models = default_models(grid)
        state = models.trivial_state()
        state.m[5] = 1e-9
        with pytest.raises(SolverError) as raised:
            newton_solve(state, 0.0, models)
        assert not isinstance(raised.value, NewtonDivergenceError)

    @pytest.mark.parametrize("field, value", [("u", np.nan), ("m", np.inf)])
    def test_non_finite_start_rejected_before_any_residual(
            self, field, value, monkeypatch):
        models = default_models(TorusGrid(1, 32))
        state = models.trivial_state()
        getattr(state, field)[5] = value
        calls = []
        monkeypatch.setattr(solver, "residual",
                            lambda *args: calls.append(args))
        with pytest.raises(SolverError) as raised:
            newton_solve(state, 0.0, models)
        assert type(raised.value) is SolverError
        assert calls == []

    def test_divergence_signalled_when_budget_too_small(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
        grid = TorusGrid(1, 64)
        models = default_models(grid)
        init = models.trivial_state()
        with pytest.raises(NewtonDivergenceError):
            newton_solve(init, 0.5, models)

    def test_converges_on_the_last_allowed_iteration(self, monkeypatch):
        # the default 1D n = 64 solve at lam = 1 takes 3 iterations: with a
        # budget of 3 the convergence test after the last one accepts it
        models = default_models(TorusGrid(1, 64))
        full = newton_solve(models.trivial_state(), 1.0, models)
        assert full.iters == 3
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 3)
        last = newton_solve(models.trivial_state(), 1.0, models)
        assert last.iters == 3
        assert last.residual_norm == full.residual_norm
        assert last.history == full.history
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 2)
        with pytest.raises(NewtonDivergenceError,
                           match="no convergence in 2 iterations"):
            newton_solve(models.trivial_state(), 1.0, models)

    @pytest.mark.parametrize("grid", [TorusGrid(1, 128), TorusGrid(2, 32)])
    def test_rounding_floor_of_a_state(self, grid):
        state = default_models(grid).trivial_state()  # u = -(1 + pi / 4), m = 1
        expected = (np.finfo(float).eps * (1 + 4 * grid.d * grid.n**2)
                    * (1 + np.pi / 4))
        assert residual_floor(state) == pytest.approx(expected, rel=1e-15)

    def test_converges_at_the_rounding_floor(self):
        # at 1D n = 2048 the floor of the solution, 6.7e-9, is above the
        # default tolerance 1e-10, which no iteration could reach; at
        # n = 128 it is 2.6e-11, so the tolerance decides there
        for n, floor_decides in ((2048, True), (128, False)):
            models = default_models(TorusGrid(1, n))
            result = newton_solve(models.trivial_state(), 1.0, models)
            floor = residual_floor(result.state)
            assert result.residual_norm < max(1e-10, floor)
            assert (result.residual_norm >= 1e-10) == floor_decides

    @pytest.mark.parametrize("grid", [TorusGrid(1, 32), TorusGrid(2, 16)])
    def test_one_hamiltonian_evaluation_per_state(self, grid, monkeypatch):
        calls = {"eval": 0, "residual": 0, "jacobian": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped
        monkeypatch.setattr(system, "blend_eval", counted("eval", system.blend_eval))
        monkeypatch.setattr(solver, "residual", counted("residual", solver.residual))
        monkeypatch.setattr(solver, "assemble_jacobian",
                            counted("jacobian", solver.assemble_jacobian))
        models = default_models(grid)
        result = newton_solve(models.trivial_state(), 0.4, models)
        assert result.iters == calls["jacobian"] >= 2
        assert calls["eval"] == calls["residual"]


class TestContinuation:
    def test_default_run_reaches_target(self):
        grid = TorusGrid(1, 64)
        models = default_models(grid)
        path = continuation_run(models)
        assert path.reached_one
        lams = path.lambdas
        assert lams[-1] == 1.0
        assert all(b > a for a, b in zip(lams, lams[1:]))
        assert all(s.residual_norm < 1e-10 for s in path.steps[1:])
        assert all(s.min_m > 1e-3 for s in path.steps)

    def test_mass_preserved_along_path(self):
        grid = TorusGrid(1, 64)
        models = default_models(grid)
        path = continuation_run(models)
        for step in path.steps:
            assert abs(grid.integrate(step.state.m) - 1.0) < 1e-10

    def test_crippled_corrector_underflows_step(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
        grid = TorusGrid(1, 32)
        models = default_models(grid)
        path = continuation_run(models)
        assert path.status == "step_underflow"
        assert path.lambdas == [0.0]  # retains the last successful weight
        assert path.reason.startswith("no convergence in 1 iterations")

    def test_fixed_step_failure_reports_step_underflow(self, monkeypatch):
        # a failed step already at step_min stops the run like any other
        # halving below step_min
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
        grid = TorusGrid(1, 32)
        models = default_models(grid)
        path = continuation_run(models, step_min=1.0)
        assert path.status == "step_underflow"
        assert path.lambdas == [0.0]
        assert path.reason.startswith("no convergence in 1 iterations")

    @pytest.mark.parametrize("kind", ["reached", "two_level", "fallback",
                                      "stopped"])
    def test_status_is_read_off_the_last_step(self, kind, monkeypatch):
        grid = TorusGrid(2, 64) if kind in ("two_level", "fallback") \
            else TorusGrid(1, 32)
        real = solver.newton_solve

        def fine_solve_fails(init, lam, *args):
            if init.grid.n == 64 and init.lam == 1.0:
                raise NewtonDivergenceError("forced failure")
            return real(init, lam, *args)
        if kind == "fallback":
            monkeypatch.setattr(solver, "newton_solve", fine_solve_fails)
        if kind == "stopped":
            monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
        path = continuation_run(default_models(grid))
        assert [s.n for s in path.steps] == {
            "reached": [32, 32], "two_level": [16, 16, 32, 64],
            "fallback": [64, 64], "stopped": [32]}[kind]
        assert path.reached_one == (kind != "stopped")
        assert path.status == ("reached_one" if path.steps[-1].lam == 1.0
                               else "step_underflow")

    @pytest.mark.parametrize("grid", [TorusGrid(1, 64), TorusGrid(2, 16),
                                      TorusGrid(2, 30)])
    def test_default_run_takes_the_full_step(self, grid, monkeypatch):
        calls = count_factorizations(monkeypatch)
        path = continuation_run(default_models(grid))
        assert path.reached_one
        assert path.lambdas == [0.0, 1.0]
        assert calls and set(calls) == {(2 * grid.npoints, 2 * grid.npoints)}

    def test_rejected_steps_halve_and_accepted_steps_double(self, monkeypatch):
        targets = []
        real = solver.newton_solve

        def short_steps_only(init, lam, *args):
            targets.append(lam)
            if lam - init.lam > 0.3:
                raise NewtonDivergenceError(f"step to {lam} too long")
            return real(init, lam, *args)
        monkeypatch.setattr(solver, "newton_solve", short_steps_only)
        path = continuation_run(default_models(TorusGrid(1, 32)))
        assert path.reached_one
        assert path.lambdas == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert targets == [1.0, 0.5, 0.25, 0.75, 0.5, 1.0, 0.75, 1.0]

    def test_low_density_regime(self, monkeypatch):
        """b = 1e4 cos(2 pi x1), gamma = 1.9, alpha = 0.02 at 1D n = 256: the
        density nearly vanishes, the path needs rejected attempts, and the
        pointwise monotonicity form agrees with the assembled Jacobian."""
        grid = TorusGrid(1, 256)
        models = low_density_models(grid)
        accepted = []
        real = solver.newton_solve

        def recorded(*args):
            try:
                result = real(*args)
            except SolverError:
                accepted.append(False)
                raise
            accepted.append(True)
            return result
        monkeypatch.setattr(solver, "newton_solve", recorded)
        path = continuation_run(models)
        assert path.reached_one and path.lambdas[-1] == 1.0
        assert not all(accepted)
        state = path.final_state
        assert np.min(state.m) < 1e-3
        assert abs(grid.integrate(state.m) - 1.0) <= 1e-10

        lin = linearize(state, models)
        jac = assemble_jacobian(lin)
        n = grid.npoints
        rng = np.random.default_rng(3)
        for _ in range(8):
            v, f = rng.standard_normal(n), rng.standard_normal(n)
            value = bilinear_form(lin, v, f)
            jw = jac @ np.concatenate([v, f])
            quad = grid.integrate(jw[:n] * f - jw[n:] * v)  # h (Pw).(Jw)
            assert value < 0.0
            assert abs(value - quad) <= 1e-12 * abs(quad)

    @pytest.mark.parametrize("step_min", [0.0, -1e-4, 1.5])
    def test_step_min_outside_unit_interval_rejected(self, step_min):
        with pytest.raises(ValueError, match="step_min"):
            continuation_run(default_models(TorusGrid(1, 16)), step_min=step_min)

    def test_path_deterministic(self):
        grid = TorusGrid(1, 64)
        models = default_models(grid)
        p1 = continuation_run(models)
        p2 = continuation_run(models)
        assert p1.lambdas == p2.lambdas
        assert [s.iters for s in p1.steps] == [s.iters for s in p2.steps]
        assert [s.residual_norm for s in p1.steps] == \
            [s.residual_norm for s in p2.steps]

    def test_log_lines_machine_parsable(self):
        grid = TorusGrid(1, 64)
        models = default_models(grid)
        lines = []
        path = continuation_run(models, log=lines.append)
        assert len(lines) == len(path.steps)
        for line in lines:
            fields = dict(tok.split("=") for tok in line.split())
            assert set(fields) == {"lambda", "n", "iters", "residual", "min_m"}
            float(fields["lambda"]), int(fields["n"]), int(fields["iters"])
            float(fields["residual"]), float(fields["min_m"])

    @pytest.mark.parametrize("grid", [TorusGrid(1, 64), TorusGrid(2, 64)])
    def test_every_step_carries_its_residual_history(self, grid):
        path = continuation_run(default_models(grid))
        assert path.reached_one
        assert path.steps[0].history == [path.steps[0].residual_norm]
        for step in path.steps:
            assert step.history[-1] == step.residual_norm
            assert len(step.history) == step.iters + 1

    def test_step_summary_is_read_from_the_state(self):
        step = continuation_run(default_models(TorusGrid(1, 32))).steps[-1]
        assert (step.lam, step.n) == (step.state.lam, 32)
        assert step.min_m == float(np.min(step.state.m))
        with pytest.raises(AttributeError):
            step.lam = 0.5

    def test_final_residual_recomputes(self):
        grid = TorusGrid(1, 64)
        models = default_models(grid)
        path = continuation_run(models)
        state = path.final_state
        assert residual(state, models).sup_norm == \
            pytest.approx(path.steps[-1].residual_norm, rel=1e-12)


class TestGuess:
    """`continuation_run(guess=...)`: one Newton solve at lam = 1 from the
    guess, and the continuation from lam = 0 whenever that cannot be used."""

    @staticmethod
    def assert_same_path(path, reference):
        assert path.lambdas == reference.lambdas
        assert [s.n for s in path.steps] == [s.n for s in reference.steps]
        assert [s.iters for s in path.steps] == \
            [s.iters for s in reference.steps]
        assert np.array_equal(path.final_state.u, reference.final_state.u)
        assert np.array_equal(path.final_state.m, reference.final_state.m)

    @staticmethod
    def record_guess_solves(monkeypatch, guess, fail: bool = False) -> list:
        """Count the Newton solves started from `guess` (failing them if
        `fail`); the others run as usual."""
        calls = []
        real = solver.newton_solve

        def recorded(init, lam, *args):
            if init is guess:
                calls.append(lam)
                if fail:
                    raise NewtonDivergenceError("forced failure")
            return real(init, lam, *args)
        monkeypatch.setattr(solver, "newton_solve", recorded)
        return calls

    def test_solution_as_guess_is_one_step_of_no_iterations(self):
        models = default_models(TorusGrid(1, 64))
        solution = continuation_run(models).final_state
        lines = []
        path = continuation_run(models, guess=solution, log=lines.append)
        assert path.reached_one and path.lambdas == [1.0]
        assert path.total_iters == 0 and path.reason == ""
        assert lines == path.log_lines()
        assert np.array_equal(path.final_state.u, solution.u)
        assert np.array_equal(path.final_state.m, solution.m)

    def test_nearby_guess_reaches_the_cold_solution(self):
        grid = TorusGrid(1, 64)
        guess = continuation_run(default_models(grid, alpha=0.5)).final_state
        models = default_models(grid)
        path = continuation_run(models, guess=guess)
        cold = continuation_run(models).final_state
        assert path.lambdas == [1.0] and path.total_iters > 0
        scale = max(np.abs(cold.u).max(), np.abs(cold.m).max())
        assert np.abs(path.final_state.u - cold.u).max() <= 1e-10 * scale
        assert np.abs(path.final_state.m - cold.m).max() <= 1e-10 * scale

    def test_guess_with_density_at_the_floor_is_not_tried(self, monkeypatch):
        """The guess's solve raises before it evaluates a residual, and the
        run goes on as the cold one."""
        models = default_models(TorusGrid(1, 64))
        reference = continuation_run(models)
        solution = reference.final_state
        m = solution.m.copy()
        m[7] = solver.MIN_M_FLOOR
        guess = MFGState(solution.grid, solution.u, m, 1.0)
        events = []
        real_solve, real_residual = solver.newton_solve, solver.residual

        def recorded(init, lam, *args):
            events.append("guess" if init is guess else "solve")
            try:
                return real_solve(init, lam, *args)
            except SolverError as exc:
                events.append(type(exc))
                raise

        def counted(*args):
            events.append("residual")
            return real_residual(*args)
        monkeypatch.setattr(solver, "newton_solve", recorded)
        monkeypatch.setattr(solver, "residual", counted)
        self.assert_same_path(continuation_run(models, guess=guess),
                              reference)
        assert events[:3] == ["guess", SolverError, "residual"]
        assert events.count("guess") == 1

    def test_secant_density_at_the_floor_starts_at_the_neighbour(self):
        grid = TorusGrid(1, 8)
        u = np.zeros(8)
        m0 = np.ones(8)
        m1 = np.linspace(0.5, 1.5, 8)
        s0, s1 = MFGState(grid, u, m0, 1.0), MFGState(grid, u, m1, 1.0)
        line = [(0.5, s0), (1.0, s1)]
        # the secant to alpha = 1.5 predicts m = 2 m1 - m0, min m = 0
        assert solver.sweep_guess(1.5, line, s1) == ("neighbour", s1)
        start, guess = solver.sweep_guess(1.25, line, s1)
        assert start == "secant" and np.min(guess.m) == 0.25
        assert solver.sweep_guess(1.5, [], None) == ("continuation", None)
        # alphas one subnormal apart: w = inf, and inf * 0 is nan
        tiny = [(5e-324, s0), (1e-323, s1)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert solver.sweep_guess(1.0, tiny, s1) == ("neighbour", s1)

    def test_failed_guess_runs_the_continuation(self, monkeypatch):
        models = default_models(TorusGrid(1, 64))
        reference = continuation_run(models)
        guess = reference.final_state
        calls = self.record_guess_solves(monkeypatch, guess, fail=True)
        path = continuation_run(models, guess=guess)
        assert calls == [1.0]
        self.assert_same_path(path, reference)
        assert path.steps[0].lam == 0.0

    def test_guess_reaches_the_bottom_of_the_ladder(self, monkeypatch):
        """The bottom starts from the guess sampled at every fourth point,
        so no level runs the continuation."""
        grid = TorusGrid(2, 64)
        guess = continuation_run(default_models(grid, alpha=0.5)).final_state
        models = default_models(grid)
        cold = continuation_run(models).final_state
        bottom = record_solves(monkeypatch, 16)
        path = continuation_run(models, guess=guess)
        assert [(init.lam, lam) for init, lam, _ in bottom] == [(1.0, 1.0)]
        sampled = (slice(None, None, 4),) * 2
        init = bottom[0][0]
        for field, full in ((init.u, guess.u), (init.m, guess.m)):
            assert np.array_equal(field,
                                  full.reshape(grid.shape)[sampled].ravel())
        assert path.reached_one and path.lambdas == [1.0, 1.0, 1.0]
        assert [s.n for s in path.steps] == [16, 32, 64]
        scale = max(np.abs(cold.u).max(), np.abs(cold.m).max())
        assert np.abs(path.final_state.u - cold.u).max() <= 1e-10 * scale
        assert np.abs(path.final_state.m - cold.m).max() <= 1e-10 * scale

    def test_level_above_a_failed_bottom_starts_from_the_guess(
            self, monkeypatch):
        """Every solve at n = 16 fails: n = 32 makes one Newton solve from
        the guess sampled at every other point and runs no continuation."""
        grid = TorusGrid(2, 64)
        guess = continuation_run(default_models(grid, alpha=0.5)).final_state
        models = default_models(grid)
        cold = continuation_run(models).final_state
        real = solver.newton_solve

        def bottom_fails(init, lam, *args):
            if init.grid.n == 16:
                raise NewtonDivergenceError("forced failure")
            return real(init, lam, *args)
        monkeypatch.setattr(solver, "newton_solve", bottom_fails)
        level = record_solves(monkeypatch, 32)
        path = continuation_run(models, guess=guess)
        assert len(level) == 1
        init, lam, _ = level[0]
        sampled = (slice(None, None, 2),) * 2
        assert lam == 1.0 and init.lam == guess.lam
        for field, full in ((init.u, guess.u), (init.m, guess.m)):
            assert np.array_equal(field,
                                  full.reshape(grid.shape)[sampled].ravel())
        assert path.reached_one and path.lambdas == [1.0, 1.0]
        assert [s.n for s in path.steps] == [32, 64]
        scale = max(np.abs(cold.u).max(), np.abs(cold.m).max())
        assert np.abs(path.final_state.u - cold.u).max() <= 1e-10 * scale
        assert np.abs(path.final_state.m - cold.m).max() <= 1e-10 * scale

    # n = 32: the level below fails, so the ladder gives no start;
    # n = 64: the ladder's start is given, but its solve fails
    @pytest.mark.parametrize("failing_n", [32, 64])
    def test_ladder_grid_tries_the_guess_when_its_start_fails(
            self, failing_n, monkeypatch):
        grid = TorusGrid(2, 64)
        guess = continuation_run(default_models(grid, alpha=0.5)).final_state
        models = default_models(grid)
        cold = continuation_run(models).final_state
        real = solver.newton_solve

        def ladder_fails(init, lam, *args):
            if init.grid.n == failing_n and init is not guess:
                raise NewtonDivergenceError("forced failure")
            return real(init, lam, *args)
        monkeypatch.setattr(solver, "newton_solve", ladder_fails)
        calls = self.record_guess_solves(monkeypatch, guess)
        lines = []
        path = continuation_run(models, guess=guess, log=lines.append)
        assert calls == [1.0]
        assert path.reached_one and path.lambdas == [1.0]
        assert [s.n for s in path.steps] == [64]
        assert lines == path.log_lines()
        scale = max(np.abs(cold.u).max(), np.abs(cold.m).max())
        assert np.abs(path.final_state.u - cold.u).max() <= 1e-10 * scale
        assert np.abs(path.final_state.m - cold.m).max() <= 1e-10 * scale

    # n // 2 below TWO_LEVEL_MIN_COARSE_N, for an odd and an even n
    @pytest.mark.parametrize("n", [31, 30])
    def test_single_level_2d_grid_tries_the_guess(self, n, monkeypatch):
        grid = TorusGrid(2, n)
        guess = continuation_run(default_models(grid, alpha=0.5)).final_state
        calls = self.record_guess_solves(monkeypatch, guess)
        path = continuation_run(default_models(grid), guess=guess)
        assert calls == [1.0]
        assert path.reached_one and path.lambdas == [1.0]
        assert [s.n for s in path.steps] == [n]


class TestFourierResample:
    @staticmethod
    def polynomial(grid: TorusGrid) -> np.ndarray:
        """A trigonometric polynomial resolved on every grid from n = 8."""
        x = 2 * np.pi * grid.coords()
        value = 1.0 + np.sin(x[:, 0]) + 0.3 * np.cos(3 * x[:, 0])
        if grid.d == 2:
            value += np.sin(x[:, 0]) * np.cos(2 * x[:, 1]) + 0.2 * np.sin(3 * x[:, 1])
        return value

    @pytest.mark.parametrize("d, n_from, n_to", [
        (1, 16, 32), (1, 33, 66), (2, 16, 32), (2, 32, 16), (2, 33, 66),
        (2, 66, 33)])
    def test_polynomial_resampled_exactly(self, d, n_from, n_to):
        src, dst = TorusGrid(d, n_from), TorusGrid(d, n_to)
        out = fourier_resample(np.stack([self.polynomial(src)] * 2), src, dst)
        assert out.shape == (2, dst.npoints)
        assert np.max(np.abs(out - self.polynomial(dst))) <= 1e-13

    @pytest.mark.parametrize("d, n_from, n_to", [(2, 64, 32), (2, 32, 64),
                                                 (1, 66, 33)])
    def test_mean_kept_for_unresolved_fields(self, d, n_from, n_to):
        src, dst = TorusGrid(d, n_from), TorusGrid(d, n_to)
        values = np.random.default_rng(11).random(src.npoints)
        out = fourier_resample(values, src, dst)
        assert abs(dst.integrate(out) - src.integrate(values)) <= 1e-14

    def test_prolongation_then_restriction_is_identity(self):
        coarse, fine = TorusGrid(2, 32), TorusGrid(2, 64)
        values = np.random.default_rng(12).random(coarse.npoints)
        back = fourier_resample(fourier_resample(values, coarse, fine),
                                fine, coarse)
        assert np.max(np.abs(back - values)) <= 1e-14

    @pytest.mark.parametrize("d, n_from, n_to", [
        (1, 16, 32), (1, 33, 66), (2, 16, 32), (2, 32, 16), (2, 33, 66),
        (2, 66, 33), (2, 64, 32), (2, 32, 64), (1, 66, 33), (2, 128, 64),
        (2, 64, 128), (1, 512, 256)])
    def test_matches_the_fft_reference(self, d, n_from, n_to):
        src, dst = TorusGrid(d, n_from), TorusGrid(d, n_to)
        values = np.random.default_rng(13).standard_normal((2, src.npoints))
        out = fourier_resample(values, src, dst)
        assert out.shape == (2, dst.npoints)
        assert np.max(np.abs(out - fft_resample(values, src, dst))) <= \
            1e-13 * np.max(np.abs(values))

    def test_transfer_matrix_is_built_in_quadratic_memory(self):
        tracemalloc.start()
        try:
            T = transfer_matrix.__wrapped__(512, 256)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert T.shape == (512, 256)
        assert peak < 8 * 2**20

    def test_cached_transfer_matrix_is_read_only(self):
        T = transfer_matrix(64, 32)
        assert transfer_matrix(64, 32) is T
        assert not T.flags.writeable
        with pytest.raises(ValueError):
            T[0, 0] = 1.0


class TestTwoLevel:
    """2D n = 64 runs climb the ladder n = 16, 32, 64: a continuation on
    n = 16, then one Newton solve at lam = 1 per level, preconditioned by
    the level below."""

    FINE = TorusGrid(2, 64)

    @staticmethod
    def direct_run(models, monkeypatch) -> solver.SolvePath:
        with monkeypatch.context() as patch:
            patch.setattr(solver, "TWO_LEVEL_MIN_COARSE_N", 10**9)
            return continuation_run(models)

    @pytest.mark.parametrize("make_models", [default_models,
                                             two_dimensional_models,
                                             high_mode_models])
    def test_matches_the_direct_continuation(self, make_models, monkeypatch):
        models = make_models(self.FINE)
        calls = count_factorizations(monkeypatch)
        path = continuation_run(models)
        assert calls == [(2 * 16**2, 2 * 16**2)]
        assert path.reached_one
        assert path.lambdas == [0.0, 1.0, 1.0, 1.0]
        assert [s.n for s in path.steps] == [16, 16, 32, 64]
        reference = self.direct_run(models, monkeypatch)
        assert [s.n for s in reference.steps] == [64, 64]
        final, ref = path.final_state, reference.final_state
        assert final.grid == ref.grid == self.FINE
        assert np.max(np.abs(final.u - ref.u)) <= 1e-10
        assert np.max(np.abs(final.m - ref.m)) <= 1e-10
        assert residual(final, models).sup_norm < 1e-10

    def test_mass_on_every_step_on_its_own_grid(self):
        path = continuation_run(two_dimensional_models(self.FINE))
        for step in path.steps:
            grid = step.state.grid
            assert grid.n == step.n
            assert abs(grid.integrate(step.state.m) - 1.0) <= 1e-10

    def test_log_receives_every_step_once_the_path_succeeds(self):
        lines = []
        path = continuation_run(default_models(self.FINE), log=lines.append)
        assert lines == path.log_lines() and len(lines) == 4

    def test_runs_are_bit_identical(self):
        models = two_dimensional_models(self.FINE)
        s1, s2 = (continuation_run(models).final_state for _ in range(2))
        assert np.array_equal(s1.u, s2.u) and np.array_equal(s1.m, s2.m)

    @pytest.mark.parametrize("fails", [
        lambda init: init.grid.n == 32,                      # coarse run
        lambda init: init.grid.n == 64 and init.lam == 1.0,  # fine solve
    ], ids=["coarse", "fine"])
    def test_failure_falls_back_to_the_fine_continuation(self, fails,
                                                         monkeypatch):
        real = solver.newton_solve

        def failing(init, lam, *args):
            if fails(init):
                raise NewtonDivergenceError("forced failure")
            return real(init, lam, *args)
        monkeypatch.setattr(solver, "newton_solve", failing)
        lines = []
        path = continuation_run(default_models(self.FINE), log=lines.append)
        assert path.reached_one
        assert path.lambdas == [0.0, 1.0]
        assert [s.n for s in path.steps] == [64, 64]
        assert lines == path.log_lines()

    def test_prolonged_density_at_the_floor_falls_back(self, monkeypatch):
        real = solver.fourier_resample

        def dipped(values, src, dst):
            out = real(values, src, dst)
            out[1, 7] = 0.5 * solver.MIN_M_FLOOR
            return out
        monkeypatch.setattr(solver, "fourier_resample", dipped)
        path = continuation_run(default_models(self.FINE))
        assert path.reached_one
        assert [s.n for s in path.steps] == [64, 64]

    def test_fine_gmres_takes_at_most_nine_iterations(self, monkeypatch):
        iterations = count_gmres_iterations(monkeypatch,
                                            2 * self.FINE.npoints)
        calls = count_factorizations(monkeypatch)
        path = continuation_run(default_models(self.FINE))
        assert [s.n for s in path.steps] == [16, 16, 32, 64]
        # no Jacobian above the bottom factored
        assert calls == [(2 * 16**2, 2 * 16**2)]
        assert len(iterations) == path.steps[-1].iters
        assert max(iterations) <= 9

    @staticmethod
    def level_below(models) -> solver.SolvePath:
        """The path of the n / 2 level of a ladder run on `models`."""
        grid = models.grid
        coarse = TorusGrid(grid.d, grid.n // 2)
        every_other = (slice(None, None, 2),) * grid.d

        def inject(field):
            return field.reshape(grid.shape)[every_other].ravel()
        coarse_models = replace(models, grid=coarse, a=inject(models.a),
                                b=inject(models.b))
        return solver._solve_level(coarse_models, RunConfig.newton_tol,
                                   RunConfig.continuation_step_min)[0]

    def test_start_extrapolates_the_two_levels_below(self, monkeypatch):
        """n = 64 starts at P(x_32) + (P(x_32) - P(x_16)) / 4 from the
        path's own lam = 1 states, P being `fourier_resample` onto n = 64;
        n = 32, whose level below is the bottom with no lam = 1 state
        under it, starts at the plain prolongation P(x_16)."""
        models = default_models(self.FINE)
        steps = self.level_below(models).steps
        assert [s.n for s in steps] == [16, 16, 32]
        assert [s.lam for s in steps] == [0.0, 1.0, 1.0]
        solves = {32: [], 64: []}
        real = solver.newton_solve

        def recorded(init, lam, models, tol, linear):
            if init.grid.n in solves:
                solves[init.grid.n].append((init, lam, linear, linear.factor))
            return real(init, lam, models, tol, linear)
        monkeypatch.setattr(solver, "newton_solve", recorded)
        path = continuation_run(models)
        assert len(solves[32]) == len(solves[64]) == 1

        def prolonged(step, grid):
            s = step.state
            return fourier_resample(np.stack([s.u, s.m]), s.grid, grid)
        start, lam, _, _ = solves[32][0]
        u, m = prolonged(steps[1], start.grid)
        assert lam == 1.0 and start.grid == TorusGrid(2, 32)
        assert np.array_equal(start.u, u) and np.array_equal(start.m, m)

        start, lam, linear, factor = solves[64][0]
        fine = prolonged(steps[-1], self.FINE)
        u, m = fine + (fine - prolonged(steps[-2], self.FINE)) / 4
        assert lam == 1.0
        assert start.grid == self.FINE and start.lam == 1.0
        assert np.array_equal(start.u, u) and np.array_equal(start.m, m)
        assert abs(self.FINE.integrate(start.m) - 1.0) <= 1e-12
        assert linear.grid == self.FINE and factor is None
        assert linear.coarse[0] == TorusGrid(2, 32)
        assert len(path.steps) == len(steps) + 1
        for step, coarse_step in zip(path.steps, steps):
            assert np.array_equal(step.state.u, coarse_step.state.u)
            assert np.array_equal(step.state.m, coarse_step.state.m)

    def test_unusable_extrapolation_falls_back_to_the_prolongation(
            self, monkeypatch):
        models = default_models(self.FINE)
        steps = self.level_below(models).steps
        fine, quarter = (fourier_resample(np.stack([s.state.u, s.state.m]),
                                          s.state.grid, self.FINE)
                         for s in (steps[-1], steps[-2]))
        extrapolated = fine + (fine - quarter) / 4
        rejected = []
        real_usable = solver._usable_start

        def usable(state):
            if (np.array_equal(state.u, extrapolated[0])
                    and np.array_equal(state.m, extrapolated[1])):
                rejected.append(state)
                return False
            return real_usable(state)
        monkeypatch.setattr(solver, "_usable_start", usable)
        top = record_solves(monkeypatch, 64)
        path = continuation_run(models)
        assert len(rejected) == 1
        assert len(top) == 1
        start, lam, _ = top[0]
        assert lam == 1.0
        assert np.array_equal(start.u, fine[0])
        assert np.array_equal(start.m, fine[1])
        assert path.reached_one
        assert [s.n for s in path.steps] == [16, 16, 32, 64]

    @pytest.mark.parametrize("make_models, iters", [
        (default_models, [3, 2, 1, 1]),
        (two_dimensional_models, [3, 2, 1, 1]),
        # the aliased n = 16 data brings the n = 64 start no closer
        (high_mode_models, [3, 3, 2, 2]),
    ])
    def test_lam_one_newton_iterations_per_level_at_n_128(self, make_models,
                                                          iters):
        path = continuation_run(make_models(TorusGrid(2, 128)))
        assert [s.n for s in path.steps] == [16, 16, 32, 64, 128]
        assert [s.iters for s in path.steps if s.lam == 1.0] == iters

    def test_level_without_a_factor_hands_up_its_cycle(self, monkeypatch):
        """The n = 32 level holds no factor: the level above gets its
        two-grid cycle around the last Jacobian it solved with, through
        the bottom's factor, and no Jacobian is assembled for it."""
        level = TorusGrid(2, 32)
        matrices = []
        real_solve = LaggedLU.solve

        def recorded(self, matrix, rhs, atol=0.0):
            if self.grid == level:
                matrices.append(matrix)
            return real_solve(self, matrix, rhs, atol)
        with monkeypatch.context() as patch:
            patch.setattr(LaggedLU, "solve", recorded)
            solves = record_solves(patch, 32)
            path = continuation_run(default_models(level))
        assert [s.n for s in path.steps] == [16, 16, 32]
        step = path.steps[-1]
        assert len(solves) == 1
        linear = solves[0][2]
        assert linear.factor is None and len(matrices) == step.iters
        bottom, factor_solve = linear.coarse
        assert bottom == TorusGrid(2, 16)
        assert isinstance(factor_solve.__self__, SuperLU)
        cycle = two_grid_cycle(matrices[-1], factor_solve, level, bottom)
        jacobians = []
        real_jacobian = solver.assemble_jacobian

        def counted(lin):
            jacobians.append(lin)
            return real_jacobian(lin)
        monkeypatch.setattr(solver, "assemble_jacobian", counted)
        top_solves = []
        real = solver.newton_solve

        def top_recorded(init, lam, models, tol, linear):
            if init.grid == self.FINE:
                top_solves.append((linear, len(jacobians)))
            return real(init, lam, models, tol, linear)
        monkeypatch.setattr(solver, "newton_solve", top_recorded)
        steps = continuation_run(default_models(self.FINE)).steps[:-1]
        fine_linear, assembled = top_solves[0]
        # one Jacobian per Newton iteration below the top, none more
        assert assembled == sum(s.iters for s in steps)
        coarse, handed_up = fine_linear.coarse
        assert coarse == level
        r = np.random.default_rng(15).standard_normal(2 * level.npoints)
        assert np.array_equal(handed_up(r), cycle(r))

    def test_no_start_when_the_coarse_level_stops_short(self, monkeypatch):
        real = solver.newton_solve

        def coarse_fails(init, lam, *args):
            if init.grid.n == 32:
                raise NewtonDivergenceError("forced failure")
            return real(init, lam, *args)
        monkeypatch.setattr(solver, "newton_solve", coarse_fails)
        models = default_models(self.FINE)
        assert not self.level_below(models).reached_one
        top = record_solves(monkeypatch, 64)
        path = continuation_run(models)
        # no lam = 1 start: the only solve at n = 64 is the continuation's
        assert [(init.lam, lam) for init, lam, _ in top] == [(0.0, 1.0)]
        assert path.reached_one and [s.n for s in path.steps] == [64, 64]

    def test_unfactored_bottom_hands_up_nothing(self, monkeypatch):
        """A bottom that solved no linear system with its LaggedLU holds
        no preconditioner: the level above runs its own continuation."""
        real = solver.newton_solve

        def bottom(init, lam, models, tol, linear):
            if init.grid.n == 16:  # solve without the shared LaggedLU
                return real(init, lam, models, tol)
            return real(init, lam, models, tol, linear)
        monkeypatch.setattr(solver, "newton_solve", bottom)
        level = record_solves(monkeypatch, 32)
        path = continuation_run(default_models(self.FINE))
        # no lam = 1 start: the only solve at n = 32 is the continuation's
        assert [(init.lam, lam) for init, lam, _ in level] == [(0.0, 1.0)]
        assert path.reached_one and [s.n for s in path.steps] == [32, 32, 64]

    def test_failed_bottom_attempt_runs_the_level_above(self, monkeypatch):
        """The bottom makes only the attempt lam 0 -> 1; when it fails the
        n = 32 level runs its continuation and the n = 64 step follows."""
        real = solver.newton_solve
        bottom = []

        def bottom_fails(init, lam, *args):
            if init.grid.n == 16:
                bottom.append((init.lam, lam))
                raise NewtonDivergenceError("forced failure")
            return real(init, lam, *args)
        monkeypatch.setattr(solver, "newton_solve", bottom_fails)
        path = continuation_run(default_models(self.FINE))
        assert bottom == [(0.0, 1.0)]
        assert path.reached_one
        assert [s.n for s in path.steps] == [32, 32, 64]
        assert path.lambdas == [0.0, 1.0, 1.0]

    def test_only_the_bottom_is_factored_at_n_128(self, monkeypatch):
        models = default_models(TorusGrid(2, 128))
        calls = count_factorizations(monkeypatch)
        path = continuation_run(models)
        assert path.reached_one
        assert [s.n for s in path.steps] == [16, 16, 32, 64, 128]
        assert calls == [(2 * 16**2, 2 * 16**2)]
        assert residual(path.final_state, models).sup_norm < 1e-10

    def test_nested_preconditioner_is_a_fixed_linear_map(self, monkeypatch):
        """GMRES needs M^-1 linear: the n = 128 cycle nests three levels."""
        fine = TorusGrid(2, 128)
        models = default_models(fine)
        top = record_solves(monkeypatch, 128)
        continuation_run(models)
        start, _, linear = top[0]
        coarse, coarse_solve = linear.coarse
        assert coarse == TorusGrid(2, 64)
        matrix = assemble_jacobian(residual(start, models).lin)
        cycle = two_grid_cycle(matrix, coarse_solve, fine, coarse)
        rng = np.random.default_rng(16)
        r1, r2 = rng.standard_normal((2, 2 * fine.npoints))
        a, b = 0.7, -2.3
        combined = cycle(a * r1 + b * r2)
        m1, m2 = cycle(r1), cycle(r2)
        scale = np.max(np.abs(a * m1)) + np.max(np.abs(b * m2))
        assert np.max(np.abs(combined - (a * m1 + b * m2))) <= 1e-12 * scale
        assert np.array_equal(cycle(r1), m1)

    def test_zero_start_cycle_equals_the_full_first_sweep(self):
        """The cycle skips the product with x = 0 and changes no bit."""
        coarse = TorusGrid(2, 32)
        linear = LaggedLU(coarse)
        top = newton_solve(default_models(coarse).trivial_state(), 1.0,
                           default_models(coarse), linear=linear).state
        u, m = fourier_resample(np.stack([top.u, top.m]), coarse, self.FINE)
        models = default_models(self.FINE)
        state = MFGState(self.FINE, u, m, 1.0)
        res = residual(state, models)
        matrix = assemble_jacobian(res.lin)
        cycle = two_grid_cycle(matrix, linear.factor.solve, self.FINE, coarse)
        rng = np.random.default_rng(14)
        for r in [-res.stack(), rng.standard_normal(2 * self.FINE.npoints)]:
            expected = reference_cycle(matrix, linear.factor.solve, r,
                                       self.FINE, coarse)
            assert np.array_equal(cycle(r), expected)

    def test_odd_grid_climbs_from_the_bottom(self, monkeypatch):
        """2D n = 33 takes n // 2 = 16 as its level below, restricted by
        linear interpolation, and holds no factor above it."""
        grid = TorusGrid(2, 33)
        models = default_models(grid)
        direct = solver._continue(models, RunConfig.newton_tol,
                                  RunConfig.continuation_step_min,
                                  LaggedLU(grid))
        assert direct.reached_one
        calls = count_factorizations(monkeypatch)
        path = continuation_run(models)
        assert calls == [(2 * 16**2, 2 * 16**2)]
        assert path.reached_one and path.lambdas == [0.0, 1.0, 1.0]
        assert [s.n for s in path.steps] == [16, 16, 33]
        final, ref = path.final_state, direct.final_state
        scale = max(np.abs(ref.u).max(), np.abs(ref.m).max())
        assert np.abs(final.u - ref.u).max() <= 1e-10 * scale
        assert np.abs(final.m - ref.m).max() <= 1e-10 * scale

    def test_gate_miss_refactors_the_fine_jacobian(self, monkeypatch):
        # one Krylov iteration misses the gate on every grid
        monkeypatch.setattr(solver, "KRYLOV_MAX_ITERS", 1)
        models = default_models(self.FINE)
        calls = count_factorizations(monkeypatch)
        path = continuation_run(models)
        assert path.reached_one
        assert [s.n for s in path.steps] == [16, 16, 32, 64]
        assert (2 * 64**2, 2 * 64**2) in calls
        assert residual(path.final_state, models).sup_norm < 1e-10


class TestRestrict:
    """`solver._restrict`: a ladder level's a, b and guess, read from the
    level above by linear interpolation at the coarse points."""

    @pytest.mark.parametrize("n", [32, 64, 130])
    def test_even_n_is_injection_bit_for_bit(self, n):
        grid, coarse = TorusGrid(2, n), TorusGrid(2, n // 2)
        field = np.random.default_rng(17).standard_normal(grid.npoints)
        assert_same_bits(solver._restrict(field, grid),
                         field.reshape(grid.shape)[::2, ::2].ravel())

    @pytest.mark.parametrize("n", [33, 65, 127])
    def test_odd_n_keeps_a_positive_field_above_its_minimum(self, n):
        grid, coarse = TorusGrid(2, n), TorusGrid(2, n // 2)
        m = 1.0 + np.random.default_rng(18).random(grid.shape)
        # a fine point between two coarse ones, read with weight near 1/3
        i = 2 * (coarse.n // 3) + 1
        m[i, i] = 1e-12
        out = solver._restrict(m.ravel(), grid)
        assert out.shape == (coarse.npoints,)
        assert np.min(out) >= np.min(m) > 0.0

    def test_odd_n_reads_a_smooth_field_to_second_order(self):
        """The error at the coarse points falls about 4x per doubling."""
        errors = []
        for n in (33, 65, 129):
            grid, coarse = TorusGrid(2, n), TorusGrid(2, n // 2)
            field = TestFourierResample.polynomial(grid)
            errors.append(np.abs(solver._restrict(field, grid)
                                 - TestFourierResample.polynomial(coarse)).max())
        assert all(3.5 <= e0 / e1 <= 4.5 for e0, e1 in zip(errors, errors[1:]))


def reference_cycle(matrix, coarse_solve, r, fine, coarse):
    """`two_grid_cycle` applied to r, each sweep from x = 0 included."""
    N = fine.npoints
    diag = matrix.diagonal()
    a, b, c, d = diag[:N], matrix.diagonal(N), matrix.diagonal(-N), diag[N:]
    det = a * d - b * c
    a, b, c, d = a / det, b / det, c / det, d / det

    def smooth(x):
        res = r - matrix @ x
        ru, rm = res[:N], res[N:]
        return x + solver.SMOOTHING_DAMPING * np.concatenate(
            [d * ru - b * rm, a * rm - c * ru])
    x = np.zeros_like(r)
    for _ in range(solver.SMOOTHING_SWEEPS):
        x = smooth(x)
    res = fourier_resample((r - matrix @ x).reshape(2, N), fine, coarse)
    correction = coarse_solve(res.ravel()).reshape(2, coarse.npoints)
    x += fourier_resample(correction, coarse, fine).ravel()
    for _ in range(solver.SMOOTHING_SWEEPS):
        x = smooth(x)
    return x


class TestUniqueness:
    def test_distinct_guesses_reach_the_same_root(self):
        grid = TorusGrid(1, 64)
        models = default_models(grid)
        path = continuation_run(models)
        base = path.final_state
        x = grid.coords()[:, 0]
        g1 = MFGState(grid, base.u + 0.05 * np.sin(2 * np.pi * x),
                      base.m * (1.0 + 0.05 * np.cos(2 * np.pi * x)), 1.0)
        g2 = MFGState(grid, base.u - 0.08 * np.cos(4 * np.pi * x),
                      base.m * (1.0 + 0.04 * np.sin(4 * np.pi * x)), 1.0)
        s1 = newton_solve(g1, 1.0, models).state
        s2 = newton_solve(g2, 1.0, models).state
        assert np.max(np.abs(s1.u - s2.u)) < 1e-8
        assert np.max(np.abs(s1.m - s2.m)) < 1e-8
