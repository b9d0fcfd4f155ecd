"""Hamiltonian evaluators: inversion oracle, duality identities, audits."""

import decimal
import math
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (assert_same_bits, reference_blend_eval,
                     reference_solve_optimal_speed)
from mfglab import hamiltonian
from mfglab.grid import TorusGrid
from mfglab.hamiltonian import (admissible_alpha_max, audit_assumptions,
                                blend_eval, check_parameter_admissibility,
                                coefficient_field, conjugate_exponent,
                                example_eval, example_lagrangian,
                                potential_eval, power_eval, solve_optimal_speed)
from mfglab.system import MFGModels

SQRT2 = math.sqrt(2.0)


def speed_forward(s, a, gp):
    # the optimality relation, written out independently of the solver
    return gp * a * s * (1.0 + s * s) ** (0.5 * gp - 1.0)


class TestOptimalSpeed:
    def test_zero_momentum_gives_zero_speed(self):
        assert solve_optimal_speed(0.0, 1.0, 3.0) == 0.0

    def test_known_value(self):
        # forward map at s = 1, a = 1, gamma' = 3 gives |p| = 3 sqrt(2)
        s = solve_optimal_speed(3.0 * SQRT2, 1.0, 3.0)
        assert abs(s - 1.0) < 1e-10

    @pytest.mark.parametrize("gp,a", [(3.0, 1.0), (5.0, 0.7), (2.5, 1.4)])
    def test_round_trip_on_random_speeds(self, gp, a):
        rng = np.random.default_rng(42)
        s_true = rng.uniform(0.0, 10.0, size=100) + 1e-8
        p = speed_forward(s_true, a, gp)
        s_back = solve_optimal_speed(p, a, gp)
        assert np.max(np.abs(s_back - s_true)) < 1e-10

    def test_residual_tolerance(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.0, 60.0, size=200)
        s = solve_optimal_speed(p, 1.3, 4.0)
        assert np.max(np.abs(speed_forward(s, 1.3, 4.0) - p)) < 1e-12

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_optimal_speed(-1.0, 1.0, 3.0)
        with pytest.raises(ValueError):
            solve_optimal_speed(1.0, -1.0, 3.0)
        with pytest.raises(ValueError):
            solve_optimal_speed(1.0, 1.0, 1.5)

    @pytest.mark.parametrize("p", [np.inf, np.nan])
    def test_non_finite_momentum_rejected(self, p):
        with pytest.raises(ValueError, match="finite"):
            solve_optimal_speed(np.array([1.0, p]), 1.0, 3.0)

    def test_steep_map_converges_next_to_the_root(self):
        # gamma = 1.0101: next to the root the map's values at adjacent
        # floats straddle |p| by more than the residual tolerance
        gp, p = 101.0, 1e3
        s = solve_optimal_speed(p, 1.0, gp)
        assert speed_forward(np.nextafter(s, 0.0), 1.0, gp) <= p
        assert speed_forward(np.nextafter(s, np.inf), 1.0, gp) >= p

    @pytest.mark.parametrize("p, gp", [(1e160, 2.01), (1e200, 2.01),
                                       (1e300, 2.2), (1e300, 2.5)])
    def test_huge_speed_converges_without_overflow(self, p, gp):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = solve_optimal_speed(p, 1.0, gp)
        assert isinstance(s, float)
        assert s * s == np.inf  # the root is above 1e154
        # the map, in 40 digits, is within the solver's relative tolerance
        # of |p|; its log-slope is at least 1, so s is within 8 ulps of the
        # root
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            sd, g = decimal.Decimal(s), decimal.Decimal(gp)
            value = g * sd * (1 + sd * sd) ** (g / 2 - 1)
            assert abs(value / decimal.Decimal(p) - 1) <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("p, gp", [(1e300, 101.0), (1.7e308, 2.01)])
    def test_bracket_near_the_float_range_does_not_overflow(self, p, gp):
        # the upper bracket end 2 s0 is never mapped, so a map value
        # beyond the float range there cannot raise
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = solve_optimal_speed(p, 1.0, gp)
        # the map, in 40 digits, straddles |p| between s and its neighbours
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            g = decimal.Decimal(gp)

            def value(t):
                t = decimal.Decimal(float(t))
                return g * t * (1 + t * t) ** (g / 2 - 1)
            assert value(np.nextafter(s, 0.0)) <= decimal.Decimal(p)
            assert value(np.nextafter(s, np.inf)) >= decimal.Decimal(p)

    @pytest.mark.parametrize("gp,a", [(3.0, 1.0), (5.0, 0.7), (2.5, 1.4),
                                      (4.0, 1.3), (2.01, 1.0), (101.0, 1.0)])
    def test_ordinary_speeds_keep_the_plain_map_bits(self, gp, a,
                                                     monkeypatch):
        rng = np.random.default_rng(42)
        p = np.concatenate([[0.0, 3.0 * SQRT2, 1e3, 1e155],
                            rng.uniform(0.0, 60.0, size=200),
                            speed_forward(rng.uniform(0.0, 10.0, 100), a, gp)])
        s = solve_optimal_speed(p, a, gp)
        monkeypatch.setattr(hamiltonian, "_speed_map", speed_forward)
        monkeypatch.setattr(
            hamiltonian, "_speed_map_deriv",
            lambda s, a, gp: gp * a * (1.0 + s * s) ** (0.5 * gp - 2.0)
            * (1.0 + (gp - 1.0) * s * s))
        assert np.array_equal(s, solve_optimal_speed(p, a, gp))

    @pytest.mark.parametrize("gp", [2.01, 3.0, 5.0, 11.0, 101.0])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_start_lies_at_or_above_the_root(self, gp, a):
        p = np.concatenate([[0.0], np.geomspace(1e-300, 1e6, 1200)])
        s0 = hamiltonian._speed_start(p, a, gp)
        assert np.all(s0 >= solve_optimal_speed(p, a, gp))
        # map(s0) >= |p| exactly; x = |p|/(gamma' a) and the map each
        # round, which may leave map(s0) an ulp or two below |p|
        eps = np.finfo(float).eps
        assert np.all(speed_forward(s0, a, gp) >= p * (1.0 - 4.0 * eps))

    @staticmethod
    def _count_map_calls(monkeypatch):
        calls = []
        speed_map = hamiltonian._speed_map

        def counted(*args):
            calls.append(1)
            return speed_map(*args)

        monkeypatch.setattr(hamiltonian, "_speed_map", counted)
        return calls

    @pytest.mark.parametrize("gp", [2.01, 3.0, 5.0, 11.0, 101.0])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_small_momenta_take_at_most_three_map_evaluations(
            self, monkeypatch, gp, a):
        calls = self._count_map_calls(monkeypatch)
        # the start, one Newton step
        for x in np.geomspace(1e-300, 1e-4, 60):
            calls.clear()
            solve_optimal_speed(x * gp * a, a, gp)
            assert len(calls) <= 2, x

    @pytest.mark.parametrize("gp", [2.01, 3.0, 5.0, 11.0, 101.0])
    def test_start_never_costs_more_than_the_large_momentum_guess(
            self, monkeypatch, gp):
        calls = self._count_map_calls(monkeypatch)
        start = hamiltonian._speed_start

        def asymptote(p, a, gp):
            return (p / (gp * a)) ** (1.0 / (gp - 1.0))

        for x in np.geomspace(1e-300, 1e3, 120):
            counts = []
            for guess in (start, asymptote):
                monkeypatch.setattr(hamiltonian, "_speed_start", guess)
                calls.clear()
                solve_optimal_speed(x * gp, 1.0, gp)
                counts.append(len(calls))
            assert counts[0] <= counts[1], x

    @pytest.mark.parametrize("gp", [2.01, 3.0, 101.0])
    @pytest.mark.parametrize("a", [1.0, 0.3, "field"])
    def test_keeps_the_bits_of_the_eager_loop(self, gp, a):
        p = np.concatenate([[0.0, 1e-310, 5e-324, 1e3],
                            np.geomspace(1e-300, 1e300, 601)])
        if a == "field":
            a = np.random.default_rng(3).uniform(0.5, 2.0, p.size)
        assert_same_bits(solve_optimal_speed(p, a, gp),
                         reference_solve_optimal_speed(p, a, gp))

    def test_steep_map_stops_on_a_closed_bracket(self, monkeypatch):
        # gamma' = 101 at |p| = 1e3: no float meets the residual tolerance,
        # and the lazy test must still see the bracket close
        closed = []
        may_be_closed = hamiltonian._bracket_may_be_closed

        def spy(lo, hi):
            idx = may_be_closed(lo, hi)
            closed.extend(idx[np.nextafter(lo[idx], hi[idx]) >= hi[idx]])
            return idx

        monkeypatch.setattr(hamiltonian, "_bracket_may_be_closed", spy)
        p = np.array([1e3, 2.0, 1e3 * (1.0 + 1e-9)])
        s = solve_optimal_speed(p, 1.0, 101.0)
        assert 0 in closed
        assert_same_bits(s, reference_solve_optimal_speed(p, 1.0, 101.0))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1e308), st.integers(-4, 4),
           st.floats(0.0, 1.0, exclude_max=True))
    @example(1.0, 1, 0.5)
    @example(1e-3, 1, 0.0)
    @example(2.0**-1022, 1, 0.0)
    @example(2.0**-1022 + 5e-324, 1, 0.0)
    @example(2.0**1023, -2, 0.0)
    def test_bracket_prefilter_keeps_every_closed_bracket(self, hi, ulps, scale):
        # lo a few floats below hi (above it for ulps < 0), also where hi
        # is scaled into the subnormals, and lo a fraction of hi
        hi = np.array([hi, hi * 1e-310, 5e-324 * 4, hi])
        lo = np.array([hi[0], hi[1], 5e-324 * (4 + ulps), hi[0] * scale])
        for _ in range(abs(ulps)):
            lo[:2] = np.nextafter(lo[:2], -np.inf if ulps > 0 else np.inf)
        closed = np.flatnonzero(np.nextafter(lo, hi) >= hi)
        assert set(closed) <= set(hamiltonian._bracket_may_be_closed(lo, hi))


class TestExampleHamiltonian:
    def test_zero_momentum(self):
        a = 1.7
        ev = example_eval(np.zeros(2), a, 1.25)
        assert ev.H == -a  # exact: the supremum sits at v = 0
        assert np.all(ev.DpH == 0.0)

    def test_known_value(self):
        # gamma' = 3  <=>  gamma = 1.5; |p| = 3 sqrt(2) puts the optimum at s = 1
        gamma = 1.5
        assert conjugate_exponent(gamma) == pytest.approx(3.0)
        ev = example_eval(np.array([3.0 * SQRT2, 0.0]), 1.0, gamma)
        assert abs(ev.H - SQRT2) < 1e-10

    @pytest.mark.parametrize("gamma,a", [(1.25, 0.8), (1.5, 1.0), (1.8, 1.3)])
    def test_gradient_matches_finite_differences(self, gamma, a):
        rng = np.random.default_rng(7)
        step = 1e-5
        for _ in range(10):
            p = rng.uniform(-4.0, 4.0, size=2)
            ev = example_eval(p, a, gamma)
            for i in range(2):
                dp = np.zeros(2)
                dp[i] = step
                hp = example_eval(p + dp, a, gamma).H
                hm = example_eval(p - dp, a, gamma).H
                fd = (hp - hm) / (2.0 * step)
                assert abs(fd - ev.DpH[i]) < 1e-6 * max(1.0, abs(ev.DpH[i]))

    @pytest.mark.parametrize("gamma,a", [(1.25, 0.8), (1.5, 1.0)])
    def test_hessian_matches_finite_differences(self, gamma, a):
        rng = np.random.default_rng(8)
        step = 1e-5
        for _ in range(6):
            p = rng.uniform(-4.0, 4.0, size=2)
            ev = example_eval(p, a, gamma)
            for j in range(2):
                dp = np.zeros(2)
                dp[j] = step
                gp_ = example_eval(p + dp, a, gamma).DpH
                gm_ = example_eval(p - dp, a, gamma).DpH
                fd = (gp_ - gm_) / (2.0 * step)
                assert np.max(np.abs(fd - ev.DppH[:, j])) < 1e-6 * max(
                    1.0, np.max(np.abs(ev.DppH)))

    def test_legendre_duality_identities(self):
        """H = -v.p - L(v), p = -DvL(v), DppH DvvL = I, DpH.p - H = L."""
        rng = np.random.default_rng(21)
        gamma, a = 1.25, 1.1
        gp = conjugate_exponent(gamma)
        for _ in range(100):
            p = rng.uniform(-8.0, 8.0, size=2)
            ev = example_eval(p, a, gamma)
            v = -ev.DpH
            s = solve_optimal_speed(np.linalg.norm(p), a, gp)
            L = example_lagrangian(v, a, gamma)
            scale = max(1.0, abs(ev.H))
            # Legendre value
            assert abs(ev.H - (-np.dot(v, p) - L)) < 1e-10 * scale
            # first-order optimality: p = -DvL(v)
            DvL = gp * a * v * (1.0 + s * s) ** (0.5 * gp - 1.0)
            assert np.max(np.abs(p + DvL)) < 1e-10 * max(1.0, np.linalg.norm(p))
            # inverse-Hessian relation
            eye = np.eye(2)
            DvvL = gp * a * (1.0 + s * s) ** (0.5 * gp - 1.0) * (
                eye + (gp - 2.0) * np.outer(v, v) / (1.0 + s * s))
            assert np.max(np.abs(ev.DppH @ DvvL - eye)) < 1e-10
            # the action equals DpH.p - H exactly at the matched pair
            assert abs(np.dot(ev.DpH, p) - ev.H - L) < 1e-10 * max(1.0, L)

    def test_hessian_positive_definite(self):
        rng = np.random.default_rng(2)
        P = rng.uniform(-20.0, 20.0, size=(50, 2))
        ev = example_eval(P, 0.9, 1.4)
        assert np.min(np.linalg.eigvalsh(ev.DppH)) > 0.0


class TestPowerHamiltonian:
    def test_origin_values(self):
        gamma = 1.25
        ev = power_eval(np.zeros(2), gamma)
        assert ev.H == 1.0
        assert np.all(ev.DpH == 0.0)
        assert np.allclose(ev.DppH, gamma * np.eye(2), atol=1e-15)

    def test_known_value(self):
        ev = power_eval(np.array([1.0]), 1.5)
        assert ev.H == pytest.approx(2.0**0.75, abs=1e-12)

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(6)
        gamma, step = 1.25, 1e-5
        for _ in range(10):
            p = rng.uniform(-4.0, 4.0, size=2)
            ev = power_eval(p, gamma)
            for i in range(2):
                dp = np.zeros(2)
                dp[i] = step
                fd_h = (power_eval(p + dp, gamma).H - power_eval(p - dp, gamma).H) / (2 * step)
                assert abs(fd_h - ev.DpH[i]) < 1e-6 * max(1.0, abs(ev.DpH[i]))
                fd_g = (power_eval(p + dp, gamma).DpH - power_eval(p - dp, gamma).DpH) / (2 * step)
                assert np.max(np.abs(fd_g - ev.DppH[:, i])) < 1e-6


class TestBlend:
    def test_endpoints_are_exact(self):
        rng = np.random.default_rng(4)
        P = rng.uniform(-3.0, 3.0, size=(20, 2))
        a = rng.uniform(0.5, 1.5, size=20)
        ex = example_eval(P, a, 1.25)
        pw = power_eval(P, 1.25)
        b1 = blend_eval(P, a, 1.25, 1.0)
        b0 = blend_eval(P, a, 1.25, 0.0)
        assert np.array_equal(b1.H, ex.H) and np.array_equal(b1.DppH, ex.DppH)
        assert np.array_equal(b0.H, pw.H) and np.array_equal(b0.DppH, pw.DppH)

    def test_midpoint_is_arithmetic_mean(self):
        p = np.array([0.7, -1.2])
        a = 1.3
        b = blend_eval(p, a, 1.25, 0.5)
        ex = example_eval(p, a, 1.25)
        pw = power_eval(p, 1.25)
        assert b.H == pytest.approx(0.5 * (ex.H + pw.H), abs=1e-14)

    def test_affine_in_lambda(self):
        p = np.array([0.4, 0.9])
        ex = example_eval(p, 1.0, 1.25)
        pw = power_eval(p, 1.25)
        for lam in (0.25, 0.6, 0.9):
            b = blend_eval(p, 1.0, 1.25, lam)
            assert b.H == pytest.approx(lam * ex.H + (1 - lam) * pw.H, abs=1e-13)
            assert np.allclose(b.DpH, lam * ex.DpH + (1 - lam) * pw.DpH, atol=1e-13)

    def test_rejects_weight_outside_unit_interval(self):
        with pytest.raises(ValueError):
            blend_eval(np.zeros(1), 1.0, 1.25, 1.5)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([0.0, 0.4, 1.0]), st.sampled_from([1, 2]),
           st.floats(1.05, 1.95), st.data())
    def test_bits_of_the_broadcasting_formulas(self, lam, d, gamma, data):
        n = data.draw(st.integers(1, 12))
        p = data.draw(hnp.arrays(float, (n, d), elements=st.floats(-1e4, 1e4)))
        still = data.draw(hnp.arrays(bool, n))
        p[still] *= 0.0  # p = 0 rows, with the signs of zero kept
        a = data.draw(hnp.arrays(float, n, elements=st.floats(0.2, 5.0)))
        got = blend_eval(p, a, gamma, lam)
        for actual, expected in zip((got.H, got.DpH, got.DppH),
                                    reference_blend_eval(p, a, gamma, lam)):
            assert_same_bits(actual, expected)


class TestPotential:
    def test_pure_arctan_leg(self):
        V, DmV = potential_eval(1.0, 0.0, 0.0)
        assert V == pytest.approx(math.pi / 4.0, abs=1e-15)
        assert DmV == pytest.approx(0.5, abs=1e-15)

    def test_target_potential(self):
        V, DmV = potential_eval(1.0, 0.0, 1.0)
        assert V == pytest.approx(-math.pi / 4.0, abs=1e-15)
        assert DmV == pytest.approx(-0.5, abs=1e-15)

    @pytest.mark.parametrize("lam, slope", [(0.0, 1.0), (0.5, 0.0), (1.0, -1.0)])
    def test_density_slope_of_the_blend(self, lam, slope):
        # the arctan leg increases in m, the target potential decreases
        m = np.linspace(0.2, 5.0, 50)
        _, DmV = potential_eval(m, 0.0, lam)
        assert np.all(DmV == slope / (1.0 + m * m))

    def test_rejects_nonpositive_density(self):
        with pytest.raises(ValueError):
            potential_eval(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            potential_eval(np.array([1.0, -0.5]), 0.0, 1.0)


class TestAssumptionAudit:
    def test_example_model_passes(self):
        grid = TorusGrid(1, 64)
        a = coefficient_field(grid, "sin_bump")
        audit = audit_assumptions(1.25, a, alpha=1.0, d=2)
        assert audit.all_passed
        zero = [c for c in audit.checks if c.name == "zero_momentum_sign"][0]
        assert zero.constants["max_H_at_zero"] == pytest.approx(-np.min(a), abs=1e-12)
        assert audit.alpha_tilde_inf >= 4.0 / 1.25

    @pytest.mark.parametrize("gamma", [1.25, 1.75])
    def test_congestion_margin_fails_above_exponent_infimum(self, gamma):
        a = coefficient_field(TorusGrid(1, 32), "sin_bump")
        alpha_inf = audit_assumptions(gamma, a, alpha=1.0, d=2).alpha_tilde_inf
        audit = audit_assumptions(gamma, a, alpha=alpha_inf + 0.05, d=2)
        failed = [c for c in audit.checks if not c.passed]
        assert [c.name for c in failed] == ["hessian_and_congestion_margin"]
        assert failed[0].constants["min_margin"] < 0.0
        assert failed[0].constants["min_eig_DppH"] > 0.0
        assert not audit.all_passed

    def test_fitted_constants_reported(self):
        grid = TorusGrid(1, 32)
        audit = audit_assumptions(1.25, coefficient_field(grid, "one"),
                                  alpha=1.0, d=2)
        action = [c for c in audit.checks if c.name == "action_controls_energy"][0]
        assert action.constants["c"] > 0.0
        growth = [c for c in audit.checks if c.name == "gamma_growth"][0]
        assert growth.constants["c"] > 0.0 and np.isfinite(growth.constants["C"])


class TestAdmissibility:
    def test_default_parameters_admissible(self):
        report = check_parameter_admissibility(1.25, 1.0, 1)
        assert report.admissible
        assert all(c.margin > 0 for c in report.conditions)

    def test_steep_gamma_with_large_alpha_rejected(self):
        report = check_parameter_admissibility(1.9, 1.5, 2)
        assert not report.admissible
        names = {c.name for c in report.violated()}
        assert "gamma_alpha_coupling" in names  # 1.9 >= 1 + 1/(1+3) = 1.25

    def test_alpha_two_rejected_strictly(self):
        report = check_parameter_admissibility(1.25, 2.0, 1)
        assert not report.admissible
        assert "alpha_range" in {c.name for c in report.violated()}

    def test_interpolation_condition_vacuous_in_low_dimension(self):
        report = check_parameter_admissibility(1.25, 1.0, 2)
        cond = [c for c in report.conditions
                if c.name == "second_order_interpolation"][0]
        assert cond.satisfied and math.isinf(cond.margin)

    def test_margins_quantify_distance(self):
        report = check_parameter_admissibility(1.25, 1.0, 1)
        coupling = [c for c in report.conditions
                    if c.name == "gamma_alpha_coupling"][0]
        assert coupling.margin == pytest.approx(1 + 1 / 3 - 1.25, abs=1e-12)

    @pytest.mark.parametrize("d", [1, 2])
    def test_alpha_max_is_the_admissible_supremum(self, d):
        for gamma in np.linspace(1.01, 1.99, 99):  # the frontier.csv gammas
            amax = admissible_alpha_max(gamma)
            below = check_parameter_admissibility(gamma, amax * (1 - 1e-9), d)
            above = check_parameter_admissibility(gamma, amax * (1 + 1e-9), d)
            assert below.admissible and not above.admissible


class TestModelContainers:
    """MFGModels, the one container of the problem data."""

    GRID = TorusGrid(2, 8)

    def models(self, gamma=1.25, a=1.1, b=0.25):
        n = self.GRID.npoints
        return MFGModels(self.GRID, 1.0, gamma, np.full(n, a), np.full(n, b))

    def test_hamiltonian_model_dispatch(self):
        rng = np.random.default_rng(14)
        p = rng.uniform(-2.0, 2.0, size=(self.GRID.npoints, 2))
        models = self.models()
        assert np.array_equal(models.hamiltonian(p, 1.0).H,
                              example_eval(p, 1.1, 1.25).H)
        assert np.array_equal(models.hamiltonian(p, 0.0).H, power_eval(p, 1.25).H)
        assert np.allclose(models.hamiltonian(p, 0.3).H,
                           blend_eval(p, 1.1, 1.25, 0.3).H)
        assert conjugate_exponent(models.gamma) == pytest.approx(5.0)

    def test_hamiltonian_model_validation(self):
        with pytest.raises(ValueError):
            self.models(a=-1.0)

    def test_gamma_outside_range_rejected(self):
        for gamma in (1.0, 2.0, 2.5):
            with pytest.raises(ValueError, match="growth exponent"):
                self.models(gamma=gamma)

    def test_potential_model(self):
        models = self.models()
        V, DmV = models.potential(np.ones(self.GRID.npoints), 0.5)
        V2, DmV2 = potential_eval(1.0, 0.25, 0.5)
        assert np.all(V == V2) and np.all(DmV == DmV2)
        V3, _ = models.potential(1.0, 1.0)
        assert V3[0] == pytest.approx(0.25 - math.pi / 4.0, abs=1e-15)


class TestCoefficientFields:
    def test_presets(self):
        grid = TorusGrid(1, 64)
        x = grid.coords()[:, 0]
        assert np.array_equal(coefficient_field(grid, "one"), np.ones(64))
        assert np.allclose(coefficient_field(grid, "sin_bump"),
                           1 + 0.5 * np.sin(2 * np.pi * x), atol=0.0)
        assert np.allclose(coefficient_field(grid, "cos_bump"),
                           0.5 * np.cos(2 * np.pi * x), atol=0.0)

    def test_inline_fourier(self):
        grid = TorusGrid(1, 64)
        x = grid.coords()[:, 0]
        f = coefficient_field(grid, "fourier:1.0,0.5,0.0,0.0,0.25")
        expected = 1 + 0.5 * np.sin(2 * np.pi * x) + 0.25 * np.cos(4 * np.pi * x)
        assert np.allclose(f, expected, atol=1e-15)

    @pytest.mark.parametrize("descriptor, formula", [
        ("one", lambda x: np.ones_like(x)),
        ("sin_bump", lambda x: 1.0 + 0.5 * np.sin(2.0 * np.pi * x)),
        ("cos_bump", lambda x: 0.5 * np.cos(2.0 * np.pi * x)),
        ("fourier:1.0,0.5,-0.2,0.0,0.25",
         lambda x: (1.0 + 0.5 * np.sin(2.0 * np.pi * x)
                    + -0.2 * np.cos(2.0 * np.pi * x)
                    + 0.0 * np.sin(2.0 * np.pi * 2 * x)
                    + 0.25 * np.cos(2.0 * np.pi * 2 * x))),
    ], ids=["one", "sin_bump", "cos_bump", "fourier"])
    def test_2d_field_equals_the_pointwise_formula_bit_for_bit(
            self, descriptor, formula):
        # evaluated on the x1 axis and repeated along x2, the field must
        # equal the formula evaluated at every one of the N points
        grid = TorusGrid(2, 24)
        x1 = grid.coords()[:, 0]
        assert np.array_equal(coefficient_field(grid, descriptor), formula(x1))

    def test_unknown_descriptor_rejected(self):
        with pytest.raises(ValueError):
            coefficient_field(TorusGrid(1, 32), "bump")

    @pytest.mark.parametrize("descriptor", ["fourier:", "fourier:,"])
    def test_empty_coefficient_rejected(self, descriptor):
        with pytest.raises(ValueError, match="bad Fourier coefficient list"):
            coefficient_field(TorusGrid(1, 32), descriptor)

    @pytest.mark.parametrize("descriptor", ["fourier:nan", "fourier:1,0,inf"])
    def test_non_finite_coefficient_rejected(self, descriptor):
        with pytest.raises(ValueError, match="non-finite"):
            coefficient_field(TorusGrid(1, 32), descriptor)
