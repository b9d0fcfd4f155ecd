"""Estimate suite closed forms, invariances, and certification logic."""

import math
from dataclasses import asdict, fields

import numpy as np
import pytest

from helpers import default_models, smooth_field, smooth_positive_density
from mfglab import diagnostics
from mfglab.diagnostics import (DiagnosticsReport, certify, energy_identity,
                                estimate_suite, mass_check)
from mfglab.grid import TorusGrid
from mfglab.system import MFGState


def trivial(models):
    return models.trivial_state()


def trivial_report():
    models = default_models(TorusGrid(1, 64))
    return estimate_suite(trivial(models), models)


def leaf_paths(obj, path=()):
    """Key and index path of every scalar in a nest of dicts and tuples."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, (list, tuple)):
        items = enumerate(obj)
    else:
        return [path]
    return [leaf for k, v in items for leaf in leaf_paths(v, path + (k,))]


def replaced(obj, path, value):
    """A copy of the nest `obj` with the scalar at `path` set to value."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(obj, dict):
        return {k: replaced(v, rest, value) if k == head else v
                for k, v in obj.items()}
    return type(obj)(replaced(v, rest, value) if i == head else v
                     for i, v in enumerate(obj))


class TestMass:
    def test_unit_density(self):
        grid = TorusGrid(1, 64)
        models = default_models(grid)
        assert mass_check(trivial(models)) == pytest.approx(1.0, abs=1e-15)

    def test_scaling_reported_not_clamped(self):
        grid = TorusGrid(1, 64)
        models = default_models(grid)
        state = trivial(models)
        state.m = 2.0 * state.m
        assert mass_check(state) == pytest.approx(2.0, abs=1e-14)


class TestEnergyIdentity:
    def test_trivial_state_both_sides_equal_one(self):
        grid = TorusGrid(1, 64)
        models = default_models(grid)
        lhs, rhs, resid = energy_identity(trivial(models), models)
        assert lhs == pytest.approx(1.0, abs=1e-13)
        assert rhs == pytest.approx(1.0, abs=1e-13)
        assert resid < 1e-13

    def test_rejects_nonpositive_density(self):
        grid = TorusGrid(1, 32)
        models = default_models(grid)
        state = trivial(models)
        state.m[0] = -1.0
        with pytest.raises(ValueError):
            energy_identity(state, models)

    @pytest.mark.parametrize("grid", [TorusGrid(1, 32), TorusGrid(2, 12)],
                             ids=["1d", "2d"])
    def test_shared_gradient_is_read_not_modified(self, grid, monkeypatch):
        models = default_models(grid)
        rng = np.random.default_rng(12)
        state = MFGState(grid, smooth_field(grid, rng),
                         smooth_positive_density(grid, rng), 1.0)
        Du = grid.gradient4(state.u)
        kept = Du.copy()
        assert energy_identity(state, models, Du) == \
            energy_identity(state, models)
        assert np.array_equal(Du, kept)
        # the suite computes the gradient of u once, for both of its uses
        real, calls = TorusGrid.gradient4, []

        def counted(self, values):
            calls.append(values)
            return real(self, values)
        monkeypatch.setattr(TorusGrid, "gradient4", counted)
        estimate_suite(state, models)
        assert len(calls) == 4
        assert sum(values is state.u for values in calls) == 1


class TestClosedForms:
    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
    def test_constant_density_entropy_and_inverse_moments(self, c):
        grid = TorusGrid(1, 64)
        models = default_models(grid)
        state = MFGState(grid, np.zeros(grid.npoints),
                         np.full(grid.npoints, c), 1.0)
        report = estimate_suite(state, models)
        assert report.entropy[0] == pytest.approx(c * math.log(c), abs=1e-12)
        assert report.entropy[1] == pytest.approx(0.0, abs=1e-12)
        for _, value in report.inverse_moments:
            assert value == pytest.approx(1.0 / c, abs=1e-12)

    def test_trivial_state_suite(self):
        grid = TorusGrid(1, 64)
        models = default_models(grid)
        report = estimate_suite(trivial(models), models)
        assert report.entropy == (pytest.approx(0.0, abs=1e-14),
                                  pytest.approx(0.0, abs=1e-14))
        assert report.sobolev_m[0] == pytest.approx(1.0, abs=1e-14)
        assert all(v == pytest.approx(1.0, abs=1e-14)
                   for _, v in report.inverse_moments)

    def test_exponent_formulas(self):
        grid = TorusGrid(1, 64)
        models = default_models(grid, gamma=1.25, alpha=1.0)
        report = estimate_suite(trivial(models), models)
        assert report.alpha_bar == (1.25 - 1.0) * 1.0
        assert report.delta_exponent == 2.0 * report.alpha_bar / (2.0 - 1.25)

    def test_beta_zero_entry_matches_lp_norm(self):
        grid = TorusGrid(1, 64)
        models = default_models(grid)
        rng = np.random.default_rng(33)
        state = MFGState(grid, smooth_field(grid, rng, 0.5),
                         smooth_positive_density(grid, rng), 1.0)
        report = estimate_suite(state, models)
        beta0 = dict(report.weighted_gradient_norms)[0.0]
        du_mag = np.linalg.norm(grid.gradient4(state.u), axis=1)
        assert beta0 == pytest.approx(
            grid.lp_norm(du_mag, models.gamma) ** models.gamma, abs=1e-12)


class TestInvariance:
    @pytest.mark.parametrize("grid", [TorusGrid(1, 32), TorusGrid(2, 16)])
    def test_translation_invariance(self, grid):
        rng = np.random.default_rng(44)
        models = default_models(grid)
        u = smooth_field(grid, rng, 0.5)
        m = smooth_positive_density(grid, rng)
        r0 = estimate_suite(MFGState(grid, u, m, 1.0), models)
        shift = {"axis": tuple(range(grid.d)), "shift": (5,) * grid.d}
        u_s = np.roll(u.reshape(grid.shape), **shift).ravel()
        m_s = np.roll(m.reshape(grid.shape), **shift).ravel()
        r1 = estimate_suite(MFGState(grid, u_s, m_s, 1.0), models)
        # quantities that do not involve the x-dependent coefficients are
        # exactly translation invariant
        assert r1.mass == pytest.approx(r0.mass, abs=1e-14)
        assert r1.entropy[0] == pytest.approx(r0.entropy[0], abs=1e-13)
        assert r1.entropy[1] == pytest.approx(r0.entropy[1], abs=1e-13)
        assert r1.sobolev_m[0] == pytest.approx(r0.sobolev_m[0], abs=1e-13)
        assert r1.sobolev_m[1] == pytest.approx(r0.sobolev_m[1], abs=1e-13)
        for (b0, v0), (b1, v1) in zip(r0.weighted_gradient_norms,
                                      r1.weighted_gradient_norms):
            assert b0 == b1 and v1 == pytest.approx(v0, rel=1e-12)
        assert r1.sup_norms == pytest.approx(r0.sup_norms, rel=1e-12)

    def test_suite_rejects_nonpositive_density(self):
        grid = TorusGrid(1, 32)
        models = default_models(grid)
        state = trivial(models)
        state.m[7] = 0.0
        with pytest.raises(ValueError):
            estimate_suite(state, models)


class TestCertify:
    def test_trivial_report_passes(self):
        grid = TorusGrid(1, 64)
        models = default_models(grid)
        report = estimate_suite(trivial(models), models)
        verdicts = certify(report)
        assert all(v.passed for v in verdicts)

    def test_mass_failure_is_isolated(self):
        grid = TorusGrid(1, 64)
        models = default_models(grid)
        state = trivial(models)
        state.m = 1.01 * state.m
        verdicts = certify(estimate_suite(state, models))
        by_name = {v.name: v for v in verdicts}
        assert not by_name["mass_normalized"].passed
        assert by_name["all_finite"].passed
        assert by_name["density_bounded_below"].passed

    def test_monotone_in_thresholds(self, monkeypatch):
        grid = TorusGrid(1, 64)
        models = default_models(grid)
        report = estimate_suite(trivial(models), models)
        monkeypatch.setattr(diagnostics, "MASS_TOL", 1e-16)
        tight = certify(report)
        monkeypatch.setattr(diagnostics, "MASS_TOL", 1e-2)
        loose = certify(report)
        for t, l in zip(tight, loose):
            assert l.passed or not t.passed  # loosening never flips pass -> fail

    @pytest.mark.parametrize(
        "path", leaf_paths(asdict(trivial_report())),
        ids=lambda path: ".".join(map(str, path)))
    def test_nan_in_any_report_number_fails_all_finite(self, path):
        nested = replaced(asdict(trivial_report()), path, math.nan)
        verdicts = certify(DiagnosticsReport(**nested))
        assert not {v.name: v for v in verdicts}["all_finite"].passed

    def test_bform_line_attached_when_provided(self):
        grid = TorusGrid(1, 64)
        models = default_models(grid)
        report = estimate_suite(trivial(models), models)
        verdicts = certify(report, bform_max=-0.5)
        by_name = {v.name: v for v in verdicts}
        assert by_name["monotonicity_form"].passed
        verdicts = certify(report, bform_max=0.5)
        assert not {v.name: v for v in verdicts}["monotonicity_form"].passed


class TestConvergedState:
    def test_suite_finite_on_solved_state(self):
        from mfglab.solver import continuation_run

        grid = TorusGrid(1, 32)
        models = default_models(grid)
        path = continuation_run(models)
        assert path.reached_one
        report = estimate_suite(path.final_state, models)
        assert math.isfinite(report.sup_norms["inv_m"])
        assert 1.0 / report.sup_norms["inv_m"] > 1e-3
        assert all(v.passed for v in certify(report))


class TestReportSerialization:
    def test_dict_round_trip_and_determinism(self):
        from mfglab.cli import format_json

        grid = TorusGrid(1, 64)
        models = default_models(grid)
        report = estimate_suite(trivial(models), models)
        d1 = format_json(asdict(report))
        d2 = format_json(asdict(estimate_suite(trivial(models), models)))
        assert d1 == d2
        import json

        parsed = json.loads(d1)
        assert parsed["mass"] == report.mass
        assert list(parsed) == [f.name for f in fields(report)]
