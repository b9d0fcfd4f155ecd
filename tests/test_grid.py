"""Grid calculus: stencils, adjointness, quadrature, serialization."""

import math
import warnings

import numpy as np
import pytest

from mfglab.grid import (ScalarField, TorusGrid, _shift, pointwise_dot,
                         pointwise_form, read_field_csv, write_field_csv)

# values whose 17-digit text is easy to get wrong: signed zero, the
# smallest subnormal, both ends of the exponent range, non-finite values
SPECIAL_VALUES = [-0.0, 5e-324, 1e-300, 1e300, -1e300, math.nan, math.inf,
                  -math.inf]


def sin_wave(grid, k=1, ax=0):
    return np.sin(2 * np.pi * k * grid.coords()[:, ax])


def cos_wave(grid, k=1, ax=0):
    return np.cos(2 * np.pi * k * grid.coords()[:, ax])


class TestGridBasics:
    def test_spacing_is_exact_reciprocal(self):
        grid = TorusGrid(1, 128)
        assert grid.h * grid.n == 1.0
        assert grid.npoints == 128
        assert TorusGrid(2, 16).npoints == 256

    def test_rejects_bad_dimension_and_size(self):
        with pytest.raises(ValueError):
            TorusGrid(3, 16)
        with pytest.raises(ValueError):
            TorusGrid(1, 4)

    def test_coords_row_major(self):
        grid = TorusGrid(2, 8)
        xs = grid.coords()
        # row-major: second axis varies fastest
        assert xs[1, 0] == 0.0 and xs[1, 1] == grid.h
        assert xs[8, 0] == grid.h and xs[8, 1] == 0.0


class TestGradient:
    def test_constant_field_has_zero_gradient(self):
        for grid in (TorusGrid(1, 32), TorusGrid(2, 16)):
            g = grid.gradient(np.full(grid.npoints, 3.0))
            assert np.all(g == 0.0)

    def test_matches_analytic_derivative(self):
        grid = TorusGrid(1, 128)
        g = grid.gradient(sin_wave(grid))[:, 0]
        exact = 2 * np.pi * cos_wave(grid)
        assert np.max(np.abs(g - exact)) < 3e-3

    def test_second_order_convergence(self):
        errs = []
        for n in (64, 128):
            grid = TorusGrid(1, n)
            g = grid.gradient(sin_wave(grid))[:, 0]
            errs.append(np.max(np.abs(g - 2 * np.pi * cos_wave(grid))))
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_2d_axes_are_independent(self):
        grid = TorusGrid(2, 32)
        f = sin_wave(grid, ax=1)
        g = grid.gradient(f)
        assert np.max(np.abs(g[:, 0])) == 0.0
        assert np.max(np.abs(g[:, 1] - 2 * np.pi * cos_wave(grid, ax=1))) < 0.05

    def test_fourth_order_stencil_converges_faster(self):
        errs = []
        for n in (32, 64):
            grid = TorusGrid(1, n)
            g = grid.gradient4(sin_wave(grid))[:, 0]
            errs.append(np.max(np.abs(g - 2 * np.pi * cos_wave(grid))))
        assert errs[0] / errs[1] > 12.0  # ~16 for a fourth-order stencil


class TestDivergence:
    def test_constant_vector_field(self):
        grid = TorusGrid(2, 16)
        g = np.ones((grid.npoints, 2))
        assert np.all(grid.divergence(g) == 0.0)

    @pytest.mark.parametrize("grid", [TorusGrid(1, 32), TorusGrid(2, 32)])
    def test_summation_by_parts(self, grid):
        rng = np.random.default_rng(11)
        f = rng.standard_normal(grid.npoints)
        g = rng.standard_normal((grid.npoints, grid.d))
        lhs = grid.integrate(grid.divergence(g) * f)
        rhs = -grid.integrate(np.sum(g * grid.gradient(f), axis=1))
        assert abs(lhs - rhs) < 1e-14

    @pytest.mark.parametrize("grid", [TorusGrid(1, 32), TorusGrid(2, 16)])
    def test_divergence_integrates_to_zero(self, grid):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((grid.npoints, grid.d))
        assert abs(grid.integrate(grid.divergence(g))) < 1e-14

    def test_shape_check(self):
        grid = TorusGrid(1, 32)
        with pytest.raises(ValueError):
            grid.divergence(np.ones(grid.npoints))


class TestLaplacian:
    def test_constant_field(self):
        grid = TorusGrid(2, 16)
        assert np.all(grid.laplacian(np.full(grid.npoints, 7.5)) == 0.0)

    def test_second_order_convergence(self):
        errs = []
        for n in (64, 128):
            grid = TorusGrid(1, n)
            lap = grid.laplacian(sin_wave(grid))
            errs.append(np.max(np.abs(lap + (2 * np.pi) ** 2 * sin_wave(grid))))
        assert 3.5 < errs[0] / errs[1] < 4.5

    @pytest.mark.parametrize("grid", [TorusGrid(1, 32), TorusGrid(2, 16)])
    def test_symmetry(self, grid):
        rng = np.random.default_rng(3)
        f = rng.standard_normal(grid.npoints)
        g = rng.standard_normal(grid.npoints)
        assert abs(grid.integrate(grid.laplacian(f) * g)
                   - grid.integrate(f * grid.laplacian(g))) < 1e-12

    @pytest.mark.parametrize("grid", [TorusGrid(1, 32), TorusGrid(2, 16)])
    def test_composite_is_the_wide_stencil(self, grid):
        # div(grad f) telescopes to the 2h-spaced stencil, not the compact one
        rng = np.random.default_rng(9)
        f = rng.standard_normal(grid.npoints)
        composite = grid.divergence(grid.gradient(f))
        box = f.reshape(grid.shape)
        wide = np.zeros(grid.shape)
        for ax in range(grid.d):
            wide = wide + (np.roll(box, -2, axis=ax) - 2 * box
                           + np.roll(box, 2, axis=ax)) / (2 * grid.h) ** 2
        assert np.max(np.abs(composite - wide.ravel())) < 1e-10
        assert np.max(np.abs(composite - grid.laplacian(f))) > 0.1


SHIFT_GRIDS = [TorusGrid(1, 8), TorusGrid(1, 9), TorusGrid(1, 256),
               TorusGrid(2, 8), TorusGrid(2, 9), TorusGrid(2, 64)]


class TestShiftedStencils:
    """The slice-based shift and every stencil against np.roll, bit for bit."""

    @pytest.mark.parametrize("grid", SHIFT_GRIDS, ids=str)
    @pytest.mark.parametrize("k", [-2, -1, 1, 2])
    def test_shift_is_roll(self, grid, k):
        box = np.random.default_rng(3).standard_normal(grid.shape)
        for ax in range(grid.d):
            shifted = _shift(box, k, ax)
            assert shifted.dtype == box.dtype
            assert np.array_equal(shifted, np.roll(box, k, axis=ax))

    @pytest.mark.parametrize("grid", SHIFT_GRIDS, ids=str)
    def test_stencils_equal_roll_reference(self, grid):
        rng = np.random.default_rng(4)
        f = rng.standard_normal(grid.npoints)
        g = rng.standard_normal((grid.npoints, grid.d))
        box = f.reshape(grid.shape)
        h = grid.h

        def roll(b, k, ax):
            return np.roll(b, k, axis=ax)

        # the stencils of grid.py written out with np.roll, same arithmetic
        grad = np.empty((grid.npoints, grid.d))
        grad4 = np.empty((grid.npoints, grid.d))
        div = np.zeros(grid.npoints)
        lap = -2.0 * grid.d * box
        for ax in range(grid.d):
            grad[:, ax] = (roll(box, -1, ax) - roll(box, 1, ax)).ravel() / (2.0 * h)
            grad4[:, ax] = (-roll(box, -2, ax) + 8.0 * roll(box, -1, ax)
                            - 8.0 * roll(box, 1, ax)
                            + roll(box, 2, ax)).ravel() / (12.0 * h)
            comp = g[:, ax].reshape(grid.shape)
            div += (roll(comp, -1, ax) - roll(comp, 1, ax)).ravel() / (2.0 * h)
            lap = lap + roll(box, -1, ax) + roll(box, 1, ax)
        assert np.array_equal(grid.gradient(f), grad)
        assert np.array_equal(grid.gradient4(f), grad4)
        assert np.array_equal(grid.divergence(g), div)
        assert np.array_equal(grid.laplacian(f), lap.ravel() / h**2)


class TestPointwiseContractions:
    @pytest.mark.parametrize("d", [1, 2])
    def test_bits_of_einsum(self, d):
        # magnitudes over 60 decades, signed zeros and subnormals
        rng = np.random.default_rng(d)
        n = 4000
        x, y = (rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-30, 30, (n, d))
                for _ in range(2))
        a = rng.standard_normal((n, d, d)) * 10.0 ** rng.uniform(-30, 30, (n, d, d))
        x[:10], y[10:20], a[20:30] = -0.0, 0.0, 1e-310
        for got, want in ((pointwise_dot(x, y), np.einsum("ki,ki->k", x, y)),
                          (pointwise_form(x, a), np.einsum("ki,kij,kj->k", x, a, x))):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestQuadrature:
    def test_unit_volume(self):
        for grid in (TorusGrid(1, 32), TorusGrid(2, 16)):
            assert grid.integrate(np.ones(grid.npoints)) == pytest.approx(1.0, abs=1e-15)

    def test_full_period_harmonic_vanishes(self):
        grid = TorusGrid(1, 64)
        assert abs(grid.integrate(sin_wave(grid))) < 1e-14

    def test_unit_density_mass(self):
        grid = TorusGrid(2, 16)
        assert grid.integrate(np.ones(grid.npoints)) == pytest.approx(1.0, abs=1e-15)

    def test_lp_norm_constant(self):
        grid = TorusGrid(1, 32)
        ones = np.ones(grid.npoints)
        for p in (1.0, 2.0, 3.5, math.inf):
            assert grid.lp_norm(ones, p) == pytest.approx(1.0, abs=1e-14)

    def test_lp_norm_harmonic(self):
        grid = TorusGrid(1, 128)
        f = sin_wave(grid)
        # rectangle rule integrates sin^2 exactly on a full period
        assert grid.lp_norm(f, 2.0) == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert grid.lp_norm(f, math.inf) == pytest.approx(1.0, abs=0.0)

    def test_lp_norm_of_huge_values_stays_finite(self):
        grid = TorusGrid(1, 128)
        f = np.ones(grid.npoints)
        f[3] = 1e40  # 1e40^8 overflows; the norm itself does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = grid.lp_norm(f, 8.0)
        assert norm == pytest.approx(1e40 * 128 ** (-1.0 / 8.0), rel=1e-14)
        assert grid.lp_norm(np.full(grid.npoints, 1e-200), 4.0) == \
            pytest.approx(1e-200, rel=1e-14)

    def test_lp_norm_of_zero_field_is_zero(self):
        grid = TorusGrid(2, 8)
        for p in (1.0, 2.0, 8.0, math.inf):
            assert grid.lp_norm(np.zeros(grid.npoints), p) == 0.0

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0, 8.0, 16.0, 3.5])
    def test_lp_norm_of_ordinary_values_is_the_plain_sum(self, p):
        grid = TorusGrid(2, 16)
        f = 1.0 + 0.5 * np.random.default_rng(5).standard_normal(grid.npoints)
        plain = grid.integrate(np.abs(f) ** p) ** (1.0 / p)
        assert grid.lp_norm(f, p) == plain

    def test_lp_norm_rejects_p_below_one(self):
        grid = TorusGrid(1, 32)
        with pytest.raises(ValueError):
            grid.lp_norm(np.ones(grid.npoints), 0.5)


def table_lines(path):
    # a list of lines, so that pytest reports a mismatch by line index
    # instead of diffing two long strings
    with open(path, newline="") as fh:
        return fh.read().splitlines(keepends=True)


def reference_table(grid, names, columns):
    """The table formatted cell by cell with f"{v:.17g}", line by line."""
    rows = [",".join(["x", "y"][:grid.d] + list(names))]
    for k, point in enumerate(grid.coords()):
        cells = list(point) + [col[k] for col in columns]
        rows.append(",".join(f"{v:.17g}" for v in cells))
    return [row + "\n" for row in rows]


def special_column(grid, seed, finite=False):
    rng = np.random.default_rng(seed)
    col = rng.standard_normal(grid.npoints) * 10.0 ** rng.integers(-8, 9, grid.npoints)
    specials = [v for v in SPECIAL_VALUES if math.isfinite(v) or not finite]
    col[rng.choice(grid.npoints, len(specials), replace=False)] = specials
    return col


SERIALIZATION_GRIDS = [TorusGrid(1, 8), TorusGrid(1, 37), TorusGrid(1, 256),
                       TorusGrid(2, 8), TorusGrid(2, 9), TorusGrid(2, 64)]


class TestFieldSerialization:
    @pytest.mark.parametrize("grid", SERIALIZATION_GRIDS)
    def test_field_bytes_match_per_cell_formatting(self, grid, tmp_path):
        values = special_column(grid, 3)
        path = tmp_path / "f.csv"
        write_field_csv(ScalarField(grid, values), path)
        assert table_lines(path) == reference_table(grid, ["value"], [values])

    def test_coordinates_carry_17_digits(self, tmp_path):
        grid = TorusGrid(2, 37)
        path = tmp_path / "f.csv"
        write_field_csv(ScalarField(grid, np.zeros(grid.npoints)), path)
        row = path.read_text().splitlines()[1 + 37 * 5 + 7]
        assert row == f"{5 * grid.h:.17g},{7 * grid.h:.17g},0"
        assert row.split(",")[0] == "0.13513513513513514"

    @pytest.mark.parametrize("grid", [TorusGrid(1, 32), TorusGrid(2, 16)]
                             + SERIALIZATION_GRIDS)
    def test_csv_round_trip_bit_exact(self, grid, tmp_path):
        field = ScalarField(grid, special_column(grid, 17, finite=True))
        path = tmp_path / "f.csv"
        write_field_csv(field, path)
        back = read_field_csv(path)
        assert back.grid == grid
        assert np.array_equal(back.values, field.values)
        assert np.array_equal(np.signbit(back.values), np.signbit(field.values))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected_with_file_and_row(self, bad, tmp_path):
        grid = TorusGrid(2, 8)
        values = np.ones(grid.npoints)
        values[12] = bad
        path = tmp_path / "m.csv"
        write_field_csv(ScalarField(grid, values), path)
        with pytest.raises(ValueError, match=r"m\.csv: data row 13 holds a "
                                             r"non-finite value"):
            read_field_csv(path)

    def test_header_only_file_rejected_without_warning(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x,value\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no data row"):
                read_field_csv(path)

    @pytest.mark.parametrize("offset, ok", [(5e-13, True), (-5e-13, True),
                                            (2e-12, False), (-2e-12, False)])
    def test_coordinate_tolerance_is_absolute_1e_12(self, offset, ok, tmp_path):
        grid = TorusGrid(2, 8)
        path = tmp_path / "f.csv"
        write_field_csv(ScalarField(grid, np.ones(grid.npoints)), path)
        lines = path.read_text().splitlines()
        x, y, value = lines[1 + 8 * 3 + 5].split(",")
        lines[1 + 8 * 3 + 5] = f"{x},{float(y) + offset!r},{value}"
        path.write_text("\n".join(lines) + "\n")
        if ok:
            assert np.array_equal(read_field_csv(path, grid).values,
                                  np.ones(grid.npoints))
        else:
            with pytest.raises(ValueError, match="row-major unit-torus lattice"):
                read_field_csv(path, grid)

    def test_header_names_axes(self, tmp_path):
        grid = TorusGrid(2, 8)
        path = tmp_path / "f.csv"
        write_field_csv(ScalarField(grid, np.zeros(grid.npoints)), path)
        assert path.read_text().splitlines()[0] == "x,y,value"

    def test_grid_mismatch_rejected(self, tmp_path):
        grid = TorusGrid(1, 32)
        path = tmp_path / "f.csv"
        write_field_csv(ScalarField(grid, np.zeros(grid.npoints)), path)
        with pytest.raises(ValueError):
            read_field_csv(path, TorusGrid(1, 64))

    def test_field_size_validation(self):
        with pytest.raises(ValueError):
            ScalarField(TorusGrid(1, 32), np.zeros(31))
