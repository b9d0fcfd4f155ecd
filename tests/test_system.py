"""Residual, Jacobian, and bilinear form of the coupled system."""

import dataclasses
import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from helpers import (assert_same_bits, default_models,
                     reference_bilinear_form, reference_jacobian_entries,
                     reference_linearization, smooth_field,
                     smooth_positive_density)
from mfglab.grid import TorusGrid
from mfglab.hamiltonian import conjugate_exponent
from mfglab.system import (MFGState, assemble_jacobian, bilinear_form,
                           jacobian_template, linearize, residual)


def independent_residual(state, models):
    """Straight-line re-evaluation without the grid/hamiltonian operators.

    Rolls, stencils, the optimal-speed inversion (via brentq), and the
    blend formulas are all written out from scratch.
    """
    g = state.grid
    h = g.h
    alpha, gamma, lam = models.alpha, models.gamma, state.lam
    gp = conjugate_exponent(gamma)
    a, b = models.a, models.b

    def grad(values):
        box = values.reshape(g.shape)
        return np.stack([(np.roll(box, -1, ax) - np.roll(box, 1, ax)).ravel()
                         / (2 * h) for ax in range(g.d)], axis=1)

    def lap(values):
        box = values.reshape(g.shape)
        acc = -2.0 * g.d * box
        for ax in range(g.d):
            acc = acc + np.roll(box, -1, ax) + np.roll(box, 1, ax)
        return acc.ravel() / h**2

    def div(vec):
        out = np.zeros(g.npoints)
        for ax in range(g.d):
            box = vec[:, ax].reshape(g.shape)
            out += (np.roll(box, -1, ax) - np.roll(box, 1, ax)).ravel() / (2 * h)
        return out

    u, m = state.u, state.m
    Du = grad(u)
    Q = Du / (m**alpha)[:, None]
    qn = np.linalg.norm(Q, axis=1)

    H_ex = np.empty(g.npoints)
    DpH_ex = np.zeros_like(Q)
    for k in range(g.npoints):
        if qn[k] == 0.0:
            s = 0.0
        else:
            fn = lambda s_: gp * a[k] * s_ * (1 + s_**2) ** (gp / 2 - 1) - qn[k]
            s = brentq(fn, 0.0, 1.0 + qn[k], xtol=1e-15, rtol=1e-15)
        H_ex[k] = a[k] * ((gp - 1) * s**2 - 1) * (1 + s**2) ** (gp / 2 - 1)
        if qn[k] > 0.0:
            DpH_ex[k] = s * Q[k] / qn[k]
    H_pw = (1 + qn**2) ** (gamma / 2)
    DpH_pw = gamma * ((1 + qn**2) ** (gamma / 2 - 1))[:, None] * Q
    H = lam * H_ex + (1 - lam) * H_pw
    DpH = lam * DpH_ex + (1 - lam) * DpH_pw
    V = lam * (b - np.arctan(m)) + (1 - lam) * np.arctan(m)

    r_u = u - lap(u) + m**alpha * H + V
    r_m = m - lap(m) - div(DpH * m[:, None]) - 1.0
    return r_u, r_m


@lru_cache(maxsize=None)
def grid_operator_matrices(grid):
    """Sparse (identity, per-axis gradient, Laplacian) of the grid operators,
    column by column: the operator applied to each unit vector."""
    eye = np.eye(grid.npoints)
    grads = tuple(sp.csr_matrix(np.stack([grid.gradient(e)[:, ax] for e in eye],
                                         axis=1))
                  for ax in range(grid.d))
    lap = sp.csr_matrix(np.stack([grid.laplacian(e) for e in eye], axis=1))
    return sp.identity(grid.npoints, format="csr"), grads, lap


def reference_jacobian(state, models):
    """The Jacobian's block formula as sparse products, sums and a bmat."""
    lin = linearize(state, models)
    eye, grads, lap = grid_operator_matrices(state.grid)
    d = state.grid.d

    duu = eye - lap
    for ax in range(d):
        duu = duu + sp.diags(lin.ev.DpH[:, ax]) @ grads[ax]

    dum = sp.diags(lin.density_coupling)

    dmu = sp.csr_matrix(eye.shape)
    for i in range(d):
        for j in range(d):
            dmu = dmu - grads[i] @ sp.diags(lin.m_scale * lin.ev.DppH[:, i, j]) @ grads[j]

    dmm = eye - lap
    for ax in range(d):
        dmm = dmm - grads[ax] @ sp.diags(lin.W[:, ax])

    return sp.bmat([[duu, dum], [dmu, dmm]], format="csr")


def stencil_action(lin, v, f):
    """The linearized operator applied to w = (v, f) through the grid's
    gradient, divergence and Laplacian, without the sparse template."""
    grid = lin.grid
    Dv = grid.gradient(v)
    row1 = (v - grid.laplacian(v) + lin.density_coupling * f
            + np.einsum("ki,ki->k", lin.ev.DpH, Dv))
    flux = (lin.W * f[:, None]
            + lin.m_scale[:, None] * np.einsum("kij,kj->ki", lin.ev.DppH, Dv))
    row2 = f - grid.laplacian(f) - grid.divergence(flux)
    return row1, row2


class TestResidual:
    def test_trivial_solution_is_exact_root(self):
        grid = TorusGrid(1, 128)
        models = default_models(grid)
        state = models.trivial_state()
        assert state.u[0] == -(1.0 + math.pi / 4.0)
        assert residual(state, models).sup_norm < 1e-13

    @pytest.mark.parametrize("grid", [TorusGrid(1, 32), TorusGrid(2, 8)])
    @pytest.mark.parametrize("gamma, alpha", [(1.1, 0.5), (1.75, 1.5)])
    def test_trivial_root_independent_of_exponents(self, grid, gamma, alpha):
        models = default_models(grid, gamma=gamma, alpha=alpha)
        state = models.trivial_state()
        assert np.all(state.u == -(1.0 + math.pi / 4.0))
        assert np.all(state.m == 1.0)
        assert residual(state, models).sup_norm < 1e-13

    def test_constant_shift_moves_only_the_value_residual(self):
        grid = TorusGrid(1, 64)
        models = default_models(grid)
        state = models.trivial_state()
        eps = 0.125
        shifted = MFGState(grid, state.u + eps, state.m, 0.0)
        res = residual(shifted, models)
        assert np.max(np.abs(res.r_u - eps)) < 1e-14
        assert np.all(res.r_m == 0.0)

    @pytest.mark.parametrize("grid,lam", [
        (TorusGrid(1, 32), 0.0), (TorusGrid(1, 32), 0.37),
        (TorusGrid(1, 32), 1.0), (TorusGrid(2, 8), 0.6),
    ])
    def test_independent_reevaluation(self, grid, lam):
        rng = np.random.default_rng(13)
        models = default_models(grid)
        state = MFGState(grid, smooth_field(grid, rng, 0.5),
                         smooth_positive_density(grid, rng), lam)
        res = residual(state, models)
        r_u, r_m = independent_residual(state, models)
        assert np.max(np.abs(res.r_u - r_u)) < 1e-12
        assert np.max(np.abs(res.r_m - r_m)) < 1e-12

    def test_rejects_nonpositive_density(self):
        grid = TorusGrid(1, 32)
        models = default_models(grid)
        m = np.ones(grid.npoints)
        m[3] = 0.0
        with pytest.raises(ValueError):
            residual(MFGState(grid, np.zeros(grid.npoints), m, 0.5), models)

    def test_blend_affine_in_lambda_for_fixed_fields(self):
        grid = TorusGrid(1, 32)
        models = default_models(grid)
        rng = np.random.default_rng(2)
        u = smooth_field(grid, rng, 0.4)
        m = smooth_positive_density(grid, rng)
        r0 = residual(MFGState(grid, u, m, 0.0), models)
        r1 = residual(MFGState(grid, u, m, 1.0), models)
        for lam in (0.25, 0.8):
            r = residual(MFGState(grid, u, m, lam), models)
            assert np.max(np.abs(r.r_u - (lam * r1.r_u + (1 - lam) * r0.r_u))) < 1e-12
            assert np.max(np.abs(r.r_m - (lam * r1.r_m + (1 - lam) * r0.r_m))) < 1e-12


class TestJacobian:
    def test_block_action_at_trivial_state(self):
        """At the lam = 0 root with alpha = 1 the linearization collapses to
        [[I - lap, 1.5 I], [-gamma div grad, I - lap]]."""
        grid = TorusGrid(1, 64)
        models = default_models(grid)  # alpha = 1, gamma = 1.25
        state = models.trivial_state()
        jac = assemble_jacobian(linearize(state, models))
        rng = np.random.default_rng(31)
        v = rng.standard_normal(grid.npoints)
        f = rng.standard_normal(grid.npoints)
        out = jac @ np.concatenate([v, f])
        row1 = v - grid.laplacian(v) + 1.5 * f
        row2 = -models.gamma * grid.divergence(grid.gradient(v)) \
            + f - grid.laplacian(f)
        assert np.max(np.abs(out[:grid.npoints] - row1)) < 1e-11
        assert np.max(np.abs(out[grid.npoints:] - row2)) < 1e-11

    @pytest.mark.parametrize("grid", [TorusGrid(1, 32), TorusGrid(2, 16)])
    def test_matches_directional_finite_differences(self, grid):
        rng = np.random.default_rng(41)
        models = default_models(grid)
        n = grid.npoints
        for _ in range(5):
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
            assert np.linalg.norm(fd - jw) / np.linalg.norm(jw) < 1e-6

    def test_matrix_matches_operator_action(self):
        grid = TorusGrid(2, 12)
        models = default_models(grid)
        rng = np.random.default_rng(5)
        state = MFGState(grid, smooth_field(grid, rng, 0.5),
                         smooth_positive_density(grid, rng), 0.7)
        lin = linearize(state, models)
        jac = assemble_jacobian(lin)
        v = rng.standard_normal(grid.npoints)
        f = rng.standard_normal(grid.npoints)
        row1, row2 = stencil_action(lin, v, f)
        out = jac @ np.concatenate([v, f])
        assert np.max(np.abs(out[:grid.npoints] - row1)) < 1e-11
        assert np.max(np.abs(out[grid.npoints:] - row2)) < 1e-11

    @pytest.mark.parametrize("grid", [TorusGrid(1, 32), TorusGrid(2, 12)])
    def test_diffusion_part_of_diagonal_blocks_symmetric(self, grid):
        # the -lap carried by both diagonal blocks is an exactly symmetric matrix
        _, _, lap = grid_operator_matrices(grid)
        assert abs(lap - lap.T).max() == 0.0
        models = default_models(grid)
        jac = assemble_jacobian(linearize(models.trivial_state(), models))
        jac = jac.tocsc()
        n = grid.npoints
        duu = jac[:n, :n]
        # at the trivial state the advection coefficient vanishes, so the
        # whole u-block I - lap is symmetric
        assert abs(duu - duu.T).max() < 1e-14

    def test_mass_row_structure(self):
        """Quadrature row of the density block reproduces integrate(f):
        div and lap rows integrate to zero, so Newton preserves mass."""
        grid = TorusGrid(1, 48)
        models = default_models(grid)
        rng = np.random.default_rng(3)
        state = MFGState(grid, smooth_field(grid, rng, 0.5),
                         smooth_positive_density(grid, rng), 0.8)
        jac = assemble_jacobian(linearize(state, models))
        n = grid.npoints
        w = np.concatenate([smooth_field(grid, rng), smooth_field(grid, rng)])
        out = jac @ w
        lhs = grid.integrate(out[n:])
        rhs = grid.integrate(w[n:])
        assert abs(lhs - rhs) < 1e-12


class TestJacobianTemplate:
    @staticmethod
    def random_state(grid, lam, seed=17):
        rng = np.random.default_rng(seed)
        return MFGState(grid, smooth_field(grid, rng, 0.5),
                        smooth_positive_density(grid, rng), lam)

    # on odd grids the sorted column order differs where a step wraps
    @pytest.mark.parametrize("grid", [TorusGrid(1, 16), TorusGrid(2, 8), TorusGrid(1, 9),
                                      TorusGrid(2, 9), TorusGrid(2, 33)])
    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    @pytest.mark.parametrize("gamma", [1.25, 1.75])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_matches_reference_assembly(self, grid, alpha, gamma, lam):
        models = default_models(grid, gamma=gamma, alpha=alpha)
        state = self.random_state(grid, lam)
        if grid.d == 2:  # the fields vary along x2: cross Hessian entries live
            assert np.max(np.abs(linearize(state, models).ev.DppH[:, 0, 1])) > 1e-3
        jac = assemble_jacobian(linearize(state, models))
        ref = reference_jacobian(state, models).toarray()
        rows = np.repeat(np.arange(jac.shape[0]), np.diff(jac.indptr))
        on_pattern = np.zeros(ref.shape, dtype=bool)
        on_pattern[rows, jac.indices] = True
        assert not np.any(ref[~on_pattern])
        n = grid.npoints
        for block in (rows < n) & (jac.indices < n), (rows < n) & (jac.indices >= n), \
                (rows >= n) & (jac.indices < n), (rows >= n) & (jac.indices >= n):
            want = ref[rows[block], jac.indices[block]]
            assert np.max(np.abs(jac.data[block] - want)) \
                <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("grid", [TorusGrid(1, 16), TorusGrid(2, 8)])
    def test_pattern_independent_of_state(self, grid):
        models = default_models(grid)
        trivial = assemble_jacobian(linearize(models.trivial_state(), models))
        for lam in (0.3, 1.0):
            state = self.random_state(grid, lam)
            jac = assemble_jacobian(linearize(state, models))
            assert np.array_equal(jac.indptr, trivial.indptr)
            assert np.array_equal(jac.indices, trivial.indices)
        if grid.d == 2:  # the trivial state's zero cross Hessian stays as zeros
            assert np.count_nonzero(trivial.data) < trivial.nnz

    def test_equal_grids_share_one_template(self):
        grid_a, grid_b = TorusGrid(2, 12), TorusGrid(2, 12)
        assert grid_a is not grid_b
        assert jacobian_template(grid_a) is jacobian_template(grid_b)
        models = default_models(grid_a)
        state_a = self.random_state(grid_a, 0.4)
        state_b = self.random_state(grid_b, 0.9)
        jac_a = assemble_jacobian(linearize(state_a, models))
        jac_b = assemble_jacobian(linearize(state_b, models))
        assert np.shares_memory(jac_a.indices, jac_b.indices)
        assert np.shares_memory(jac_a.indptr, jac_b.indptr)

    @pytest.mark.parametrize("grid", [TorusGrid(1, 32), TorusGrid(2, 16)])
    def test_residual_linearization_gives_same_matrix(self, grid):
        models = default_models(grid, alpha=0.5)
        state = self.random_state(grid, 0.7)
        carried = assemble_jacobian(residual(state, models).lin)
        fresh = assemble_jacobian(linearize(state, models))
        assert np.array_equal(carried.data, fresh.data)
        assert np.array_equal(carried.indices, fresh.indices)
        assert np.array_equal(carried.indptr, fresh.indptr)

    @staticmethod
    def kept_bytes(template):
        """Bytes of every array the template holds, whatever its layout."""
        if isinstance(template, np.ndarray):
            return template.nbytes
        if sp.issparse(template):
            return sum(arr.nbytes for arr in (template.data, template.indices,
                                              template.indptr))
        if dataclasses.is_dataclass(template):
            template = [getattr(template, f.name) for f in dataclasses.fields(template)]
        if isinstance(template, (tuple, list)):
            return sum(map(TestJacobianTemplate.kept_bytes, template))
        return 0

    @pytest.mark.parametrize("grid", [TorusGrid(2, 64), TorusGrid(1, 256)],
                             ids=["2D n=64", "1D n=256"])
    def test_template_keeps_at_most_six_bytes_per_nonzero(self, grid):
        template = jacobian_template(grid)
        per_nonzero = self.kept_bytes(template) / template.indices.size
        assert per_nonzero <= 6.0, f"{per_nonzero:.2f} bytes per nonzero"

    @pytest.mark.parametrize("grid", [TorusGrid(2, 128), TorusGrid(2, 256),
                                      TorusGrid(1, 4096)],
                             ids=["2D n=128", "2D n=256", "1D n=4096"])
    def test_build_peak_is_bounded(self, grid):
        # `__wrapped__` neither reads nor fills the shared cache, and
        # scipy.sparse is imported at module level, so its import is not
        # traced
        tracemalloc.start()
        try:
            template = jacobian_template.__wrapped__(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = self.kept_bytes(template)
        assert peak <= 1.75 * kept, f"peak {peak / kept:.2f}x the kept bytes"

    def test_assembly_peak_is_bounded(self):
        grid = TorusGrid(2, 128)
        lin = linearize(self.random_state(grid, 0.8), default_models(grid, alpha=0.5))
        assemble_jacobian(lin)  # the template is built outside the trace
        tracemalloc.start()
        try:
            jac = assemble_jacobian(lin)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ratio = peak / jac.data.nbytes
        assert ratio <= 1.5, f"peak {ratio:.2f}x the data bytes"

    @pytest.mark.parametrize("grid", [TorusGrid(1, 16), TorusGrid(2, 8)])
    def test_index_arrays_are_int32(self, grid):
        template = jacobian_template(grid)
        for arr in (template.indptr, template.indices):
            assert arr.dtype == np.int32


class TestBilinearForm:
    def test_constant_value_perturbation_annihilated(self):
        grid = TorusGrid(1, 32)
        models = default_models(grid)
        lin = linearize(models.trivial_state(), models)
        v, f = np.full(grid.npoints, 2.5), np.zeros(grid.npoints)
        assert abs(bilinear_form(lin, v, f)) < 1e-13

    def test_two_path_consistency_with_matrix(self):
        grid = TorusGrid(2, 12)
        models = default_models(grid)
        rng = np.random.default_rng(12)
        state = MFGState(grid, smooth_field(grid, rng, 0.5),
                         smooth_positive_density(grid, rng), 0.9)
        lin = linearize(state, models)
        jac = assemble_jacobian(lin)
        n = grid.npoints
        for _ in range(5):
            v, f = rng.standard_normal(n), rng.standard_normal(n)
            direct = bilinear_form(lin, v, f)
            jw = jac @ np.concatenate([v, f])
            # integrate( Jw . (f, -v) )
            quad = grid.integrate(jw[:n] * f - jw[n:] * v)
            assert abs(direct - quad) < 1e-12 * max(1.0, abs(direct))

    def test_two_path_consistency_with_matrix_1d(self):
        grid = TorusGrid(1, 32)
        models = default_models(grid, alpha=0.5)
        rng = np.random.default_rng(13)
        state = MFGState(grid, smooth_field(grid, rng, 0.5),
                         smooth_positive_density(grid, rng), 0.6)
        lin = linearize(state, models)
        assert np.max(np.abs(lin.ev.DpH - lin.W)) > 1e-3  # transport term live
        jac = assemble_jacobian(lin)
        n = grid.npoints
        for _ in range(5):
            v, f = rng.standard_normal(n), rng.standard_normal(n)
            direct = bilinear_form(lin, v, f)
            jw = jac @ np.concatenate([v, f])
            quad = grid.integrate(jw[:n] * f - jw[n:] * v)
            assert abs(direct - quad) < 1e-12 * max(1.0, abs(direct))

    def test_density_only_perturbation_reads_coupling(self):
        # with v = 0 only the c f^2 term is left
        grid = TorusGrid(2, 12)
        models = default_models(grid)
        rng = np.random.default_rng(17)
        state = MFGState(grid, smooth_field(grid, rng, 0.5),
                         smooth_positive_density(grid, rng), 0.8)
        lin = linearize(state, models)
        f = rng.standard_normal(grid.npoints)
        expected = grid.integrate(lin.density_coupling * f * f)
        got = bilinear_form(lin, np.zeros(grid.npoints), f)
        assert abs(got - expected) < 1e-13 * abs(expected)

    def test_value_shift_by_constant_leaves_form(self):
        grid = TorusGrid(2, 12)
        models = default_models(grid, alpha=0.5)
        rng = np.random.default_rng(23)
        state = MFGState(grid, smooth_field(grid, rng, 0.5),
                         smooth_positive_density(grid, rng), 0.5)
        lin = linearize(state, models)
        v = rng.standard_normal(grid.npoints)
        f = rng.standard_normal(grid.npoints)
        base = bilinear_form(lin, v, f)
        assert abs(bilinear_form(lin, v + 3.0, f) - base) < 1e-12 * abs(base)

    def test_passed_linearization_gives_same_value(self):
        # the linearization the residual carries gives the form linearize gives
        grid = TorusGrid(2, 12)
        models = default_models(grid)
        rng = np.random.default_rng(19)
        state = MFGState(grid, smooth_field(grid, rng, 0.5),
                         smooth_positive_density(grid, rng), 1.0)
        carried = residual(state, models).lin
        fresh = linearize(state, models)
        for _ in range(3):
            v = rng.standard_normal(grid.npoints)
            f = rng.standard_normal(grid.npoints)
            assert bilinear_form(carried, v, f) == bilinear_form(fresh, v, f)


class TestComponentKernels:
    """The component-by-component kernels keep the bits of the
    broadcasting and einsum formulas they replace (tests/helpers.py)."""

    @staticmethod
    def state_and_models(grid, seed, amplitude, alpha, gamma, lam):
        rng = np.random.default_rng(seed)
        state = MFGState(grid, smooth_field(grid, rng, amplitude),
                         smooth_positive_density(grid, rng), lam)
        return state, default_models(grid, gamma=gamma, alpha=alpha)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([TorusGrid(1, 16), TorusGrid(2, 8)]),
           st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.5, 3.0]),
           st.floats(0.25, 1.5), st.floats(1.1, 1.9),
           st.sampled_from([0.0, 0.4, 1.0]))
    def test_linearization_residual_and_jacobian_bits(self, grid, seed, amplitude,
                                                      alpha, gamma, lam):
        state, models = self.state_and_models(grid, seed, amplitude, alpha,
                                              gamma, lam)
        res = residual(state, models)
        lin = res.lin
        ref = reference_linearization(state, models)
        for actual, expected in zip((lin.ev.H, lin.ev.DpH, lin.ev.DppH,
                                     lin.density_coupling, lin.W, lin.m_scale), ref):
            assert_same_bits(actual, expected)
        m = state.m
        flux = ref[1] * m[:, None]
        assert_same_bits(res.r_m, m - grid.laplacian(m) - grid.divergence(flux) - 1.0)
        jac = assemble_jacobian(lin)
        rows = np.repeat(np.arange(jac.shape[0]), np.diff(jac.indptr))
        want = reference_jacobian_entries(lin)
        assert set(want) == set(zip(rows.tolist(), jac.indices.tolist()))
        assert_same_bits(jac.data, [want[key] for key in zip(rows, jac.indices)])

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([TorusGrid(1, 16), TorusGrid(2, 8)]),
           st.integers(0, 2**32 - 1), st.floats(0.25, 1.5),
           st.sampled_from([0.0, 0.4, 1.0]))
    def test_bilinear_form_matches_the_einsum_form(self, grid, seed, alpha, lam):
        state, models = self.state_and_models(grid, seed, 0.5, alpha, 1.25, lam)
        lin = linearize(state, models)
        rng = np.random.default_rng(seed)
        for _ in range(3):
            v, f = rng.standard_normal(grid.npoints), rng.standard_normal(grid.npoints)
            want = reference_bilinear_form(lin, v, f)
            assert abs(bilinear_form(lin, v, f) - want) <= 1e-14 * abs(want)


class TestState:
    def test_size_validation(self):
        grid = TorusGrid(1, 32)
        with pytest.raises(ValueError):
            MFGState(grid, np.zeros(10), np.ones(grid.npoints), 0.0)

    def test_lambda_range(self):
        grid = TorusGrid(1, 32)
        with pytest.raises(ValueError):
            MFGState(grid, np.zeros(grid.npoints), np.ones(grid.npoints), 1.5)
