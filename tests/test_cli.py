"""Command-line behavior: exit codes, files, config parsing."""

import csv
import json
import math
import os
import warnings

import numpy as np
import pytest

from mfglab import system
from mfglab.cli import main
from mfglab.config import (ConfigError, RunConfig, load_config,
                           parse_config_text, validate_config)
from mfglab.grid import TorusGrid, read_field_csv, write_field_csv

DEFAULT_CONFIG = os.path.join(os.path.dirname(__file__), os.pardir,
                              "configs", "default.cfg")

FAST_CONFIG = """
grid.d = 1
grid.n = 32
hamiltonian.gamma = 1.25
congestion.alpha = 1.0
newton.tol = 1e-10
"""


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FAST_CONFIG)
    return str(path)


def assert_cannot_write(err: str) -> None:
    """One stderr line that reports an unwritable output directory."""
    assert err.startswith("cannot write outputs: ")
    assert len(err.splitlines()) == 1


@pytest.fixture
def blocked_out(tmp_path):
    """An --out path that is an existing file, so no directory can be made."""
    path = tmp_path / "blocker"
    path.write_text("")
    return str(path)


class TestConfig:
    def test_defaults_match_documented_values(self):
        cfg = RunConfig()
        assert cfg.grid_n == 128 and cfg.grid_d == 1
        assert cfg.hamiltonian_gamma == 1.25 and cfg.congestion_alpha == 1.0
        assert cfg.hamiltonian_a == "sin_bump" and cfg.potential_b == "cos_bump"
        validate_config(cfg)

    def test_parse_error_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("grid.n = 32\nnot a config line\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unrecognized key"):
            parse_config_text("grid.m = 12\n")

    @pytest.mark.parametrize("key", ["output.formats", "continuation.step_init",
                                     "continuation.grow", "continuation.shrink",
                                     "hamiltonian.kind", "newton.min_m_floor",
                                     "potential.sign", "newton.max_iters",
                                     "overrides.allow_inadmissible"])
    def test_removed_key_rejected(self, key):
        with pytest.raises(ConfigError,
                           match=f"line 2: unrecognized key '{key}'"):
            parse_config_text(f"grid.n = 32\n{key} = 0.5\n")
        with pytest.raises(ConfigError, match=f"unrecognized key '{key}'"):
            parse_config_text(f"{key} = quadratic\n")

    def test_default_config_file_matches_builtin_defaults(self):
        assert load_config(DEFAULT_CONFIG) == RunConfig()

    @pytest.mark.parametrize("step_min", ["0", "1.5"])
    def test_step_min_outside_unit_interval_rejected(self, step_min):
        with pytest.raises(ConfigError, match="continuation.step_min"):
            validate_config(parse_config_text(
                f"continuation.step_min = {step_min}\n"))

    def test_every_key_sets_its_field(self):
        cfg = parse_config_text(
            "grid.d = 2\ngrid.n = 33\nhamiltonian.gamma = 1.1000000000000001\n"
            "hamiltonian.a = fourier:1,0.25\npotential.b = fourier:0,0,-0.5\n"
            "congestion.alpha = 0.30000000000000004\nnewton.tol = 5e-324\n"
            "continuation.step_min = 0.125\noutput.dir = runs/a b\n")
        assert cfg == RunConfig(2, 33, 1.1000000000000001, "fourier:1,0.25",
                                "fourier:0,0,-0.5", 0.30000000000000004,
                                5e-324, 0.125, "runs/a b")

    @pytest.mark.parametrize("key", ["hamiltonian.gamma", "congestion.alpha",
                                     "newton.tol", "continuation.step_min"])
    def test_non_finite_float_rejected_naming_its_key(self, key):
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError,
                               match=f"^{key} must be finite, got {value}$"):
                validate_config(parse_config_text(f"{key} = {value}\n"))

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text("# comment\n\ngrid.n = 16  # trailing\n")
        assert cfg.grid_n == 16

    def test_value_validation(self):
        with pytest.raises(ConfigError):
            validate_config(parse_config_text("hamiltonian.gamma = 2.5\n"))


class TestSolveCommand:
    def test_default_small_run_writes_artifacts(self, fast_config, tmp_path):
        out = str(tmp_path / "out")
        code = main(["solve", "--config", fast_config, "--out", out])
        assert code == 0
        for name in ("u.csv", "m.csv", "path.json", "diagnostics.json"):
            assert os.path.exists(os.path.join(out, name)), name
        # u.csv and m.csv are joined by row, path.json holds the steps
        for name in ("solution.csv", "path.csv"):
            assert not os.path.exists(os.path.join(out, name)), name
        with open(os.path.join(out, "path.json")) as fh:
            summary = json.load(fh)
        assert summary["status"] == "reached_one"
        assert summary["steps"][-1]["lambda"] == 1.0

    def test_progress_lines_on_stdout(self, fast_config, tmp_path, capsys):
        main(["solve", "--config", fast_config, "--out", str(tmp_path / "o")])
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("lambda=")]
        assert lines
        fields = dict(tok.split("=") for tok in lines[-1].split())
        assert float(fields["lambda"]) == 1.0

    def test_inadmissible_config_exits_2_and_names_inequality(
            self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("hamiltonian.gamma = 1.9\ncongestion.alpha = 1.5\n"
                        "grid.n = 16\n")
        code = main(["solve", "--config", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "gamma_alpha_coupling" in err and "gamma < 1 + 1/(1 + 2 alpha)" in err

    def test_override_flag_solves_inadmissible_config(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("hamiltonian.gamma = 1.9\ncongestion.alpha = 1.5\n"
                        "grid.n = 16\n")
        out = tmp_path / "o"
        assert main(["solve", "--config", str(path), "--out", str(out),
                     "--override-admissibility"]) == 0
        assert (out / "u.csv").exists()

    def test_unparseable_config_exits_2_with_location(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text("grid.n = 32\nwhat even is this\n")
        code = main(["solve", "--config", str(path)])
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_builtin_defaults_run(self, tmp_path):
        out = str(tmp_path / "default_out")
        assert main(["solve", "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "u.csv"))
        field = read_field_csv(os.path.join(out, "m.csv"))
        assert field.grid == TorusGrid(1, 128)

    def test_solver_failure_maps_to_exit_3(self, tmp_path, capsys,
                                           monkeypatch):
        from mfglab import solver

        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
        path = tmp_path / "hard.cfg"
        path.write_text("grid.n = 32\n")
        code = main(["solve", "--config", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "step_underflow" in err
        assert "no convergence in 1 iterations" in err

    @pytest.mark.parametrize("line", [
        "newton.tol = nan", "newton.tol = inf", "congestion.alpha = nan"])
    def test_escaping_value_exits_2_with_config_error(self, line, tmp_path,
                                                      capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(f"grid.n = 16\n{line}\n")
        code = main(["solve", "--config", str(path), "--out",
                     str(tmp_path / "o"), "--override-admissibility"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: {line.split(' =')[0]} must be" in err

    @pytest.mark.parametrize("line, message", [
        ("hamiltonian.a = bogus", "unknown coefficient field descriptor"),
        ("hamiltonian.a = fourier:nan", "non-finite Fourier coefficient"),
        ("potential.b = fourier:0,inf", "non-finite Fourier coefficient"),
        ("hamiltonian.a = fourier:0.1,1", "hamiltonian.a = 'fourier:0.1,1' "
         "is not strictly positive on the grid")])
    def test_bad_coefficient_field_exits_2_with_config_error(
            self, line, message, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(f"grid.n = 16\n{line}\n")
        assert main(["solve", "--config", str(path), "--out",
                     str(tmp_path / "o")]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_two_level_run_records_the_grid_of_each_step(self, tmp_path,
                                                         capsys):
        path = tmp_path / "run2d.cfg"
        path.write_text("grid.d = 2\ngrid.n = 64\n")
        out = str(tmp_path / "out")
        assert main(["solve", "--config", str(path), "--out", out]) == 0
        with open(os.path.join(out, "path.json")) as fh:
            steps = json.load(fh)["steps"]
        assert [(s["lambda"], s["n"]) for s in steps] == \
            [(0.0, 16), (1.0, 16), (1.0, 32), (1.0, 64)]
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("lambda=")]
        assert len(lines) == 4
        fields = [dict(tok.split("=") for tok in line.split())
                  for line in lines]
        for f in fields:
            assert set(f) == {"lambda", "n", "iters", "residual", "min_m"}
        assert [int(f["n"]) for f in fields] == [s["n"] for s in steps]
        assert read_field_csv(os.path.join(out, "u.csv")).grid == TorusGrid(2, 64)

    @pytest.mark.parametrize("grid_lines", ["", "grid.d = 2\ngrid.n = 16\n"],
                             ids=["1d", "2d"])
    def test_field_rows_carry_the_same_coordinates(self, grid_lines,
                                                   tmp_path):
        """u.csv and m.csv can be joined by row."""
        cfg = tmp_path / "side.cfg"
        cfg.write_text(FAST_CONFIG + grid_lines)
        out = str(tmp_path / "out")
        assert main(["solve", "--config", str(cfg), "--out", out]) == 0

        def lines(name):
            with open(os.path.join(out, name)) as fh:
                return fh.read().splitlines()
        u, m = lines("u.csv"), lines("m.csv")
        axes = "x," if not grid_lines else "x,y,"
        assert u[0] == m[0] == axes + "value"
        assert len(u) == len(m)
        for urow, mrow in zip(u[1:], m[1:]):
            assert urow.rsplit(",", 1)[0] == mrow.rsplit(",", 1)[0]

    def test_deterministic_outputs(self, fast_config, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        main(["solve", "--config", fast_config, "--out", out1])
        main(["solve", "--config", fast_config, "--out", out2])
        for name in ("u.csv", "m.csv", "path.json", "diagnostics.json"):
            with open(os.path.join(out1, name), "rb") as f1, \
                    open(os.path.join(out2, name), "rb") as f2:
                assert f1.read() == f2.read(), name

    def test_unwritable_out_exits_2_before_solving(self, fast_config,
                                                    blocked_out, capsys):
        assert main(["solve", "--config", fast_config,
                     "--out", blocked_out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no continuation step was taken
        assert_cannot_write(captured.err)


class TestAuditCommand:
    def test_default_example_model_passes(self, fast_config, capsys):
        assert main(["audit", "--config", fast_config]) == 0
        out = capsys.readouterr().out
        assert "zero_momentum_sign" in out and "[pass]" in out

    def test_alpha_out_of_range_fails(self, tmp_path, capsys):
        path = tmp_path / "alpha3.cfg"
        path.write_text("congestion.alpha = 3.0\ngrid.n = 16\n")
        assert main(["audit", "--config", str(path)]) == 4
        out = capsys.readouterr().out
        assert "[FAIL] alpha_range" in out
        assert "inf alpha_tilde = " in out

    def test_audits_the_hamiltonian_that_solve_solves(self, fast_config,
                                                      capsys):
        assert main(["audit", "--config", fast_config]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "assumption audit: gamma=1.25 alpha=1"
        assert not any("kind=" in line for line in lines)
        tilde = [l for l in lines if l.startswith("  inf alpha_tilde = ")]
        assert len(tilde) == 1
        assert tilde[0].endswith("(requires alpha < inf alpha_tilde)")


class TestValidateCommand:
    @pytest.fixture
    def solved_dir(self, fast_config, tmp_path):
        out = str(tmp_path / "out")
        assert main(["solve", "--config", fast_config, "--out", out]) == 0
        return out

    def test_self_consistency(self, fast_config, solved_dir):
        assert main(["validate", "--config", fast_config,
                     "--fields", solved_dir]) == 0
        assert os.path.exists(os.path.join(solved_dir, "diagnostics.json"))

    def test_out_directory_created(self, fast_config, solved_dir, tmp_path):
        out = str(tmp_path / "missing" / "dir")
        assert main(["validate", "--config", fast_config,
                     "--fields", solved_dir, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "diagnostics.json"))

    def test_bilinear_spot_check_linearizes_once(self, fast_config, solved_dir,
                                                 monkeypatch):
        calls = []
        real = system.blend_eval

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(system, "blend_eval", counted)
        assert main(["validate", "--config", fast_config,
                     "--fields", solved_dir]) == 0
        # one evaluation for the energy identity, one linearization shared
        # by all eight perturbations of the bilinear-form check
        assert len(calls) == 2

    def test_scaled_mass_fails_validation(self, fast_config, solved_dir, capsys):
        field = read_field_csv(os.path.join(solved_dir, "m.csv"))
        field.values *= 1.01
        write_field_csv(field, os.path.join(solved_dir, "m.csv"))
        assert main(["validate", "--config", fast_config,
                     "--fields", solved_dir]) == 5
        assert "[FAIL] mass_normalized" in capsys.readouterr().out

    def test_negative_entry_rejected_as_input_error(
            self, fast_config, solved_dir, capsys):
        field = read_field_csv(os.path.join(solved_dir, "m.csv"))
        field.values[3] = -0.1
        write_field_csv(field, os.path.join(solved_dir, "m.csv"))
        assert main(["validate", "--config", fast_config,
                     "--fields", solved_dir]) == 2
        assert "non-positive" in capsys.readouterr().err

    @pytest.mark.parametrize("name, bad", [("m.csv", np.nan), ("u.csv", np.inf)])
    def test_non_finite_entry_rejected_as_input_error(
            self, fast_config, solved_dir, name, bad, capsys):
        field = read_field_csv(os.path.join(solved_dir, name))
        field.values[4] = bad
        write_field_csv(field, os.path.join(solved_dir, name))
        assert main(["validate", "--config", fast_config,
                     "--fields", solved_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot load fields: ")
        assert f"{name}: data row 5 holds a non-finite value" in err

    def test_header_only_field_rejected_as_input_error(
            self, fast_config, solved_dir, capsys):
        with open(os.path.join(solved_dir, "m.csv"), "w") as fh:
            fh.write("x,value\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--config", fast_config,
                         "--fields", solved_dir]) == 2
        assert "cannot load fields: " in capsys.readouterr().err

    def test_tiny_density_fails_validation_with_one_line(
            self, fast_config, solved_dir, capsys):
        field = read_field_csv(os.path.join(solved_dir, "m.csv"))
        field.values[3] = 1e-300
        write_field_csv(field, os.path.join(solved_dir, "m.csv"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--config", fast_config,
                         "--fields", solved_dir]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "the Hamiltonian cannot be evaluated on these fields" in err[0]

    def test_overflowing_certificates_written_as_valid_json(
            self, fast_config, solved_dir, capsys):
        # 1/m overflows at m = 1e-310; with u = 0 the Hamiltonian is
        # still evaluated (at zero momentum), so the certificates are
        # computed and the inverse moments are genuinely infinite
        field = read_field_csv(os.path.join(solved_dir, "m.csv"))
        field.values[3] = 1e-310
        write_field_csv(field, os.path.join(solved_dir, "m.csv"))
        field = read_field_csv(os.path.join(solved_dir, "u.csv"))
        field.values[:] = 0.0
        write_field_csv(field, os.path.join(solved_dir, "u.csv"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--config", fast_config,
                         "--fields", solved_dir]) == 5
        assert "[FAIL] all_finite" in capsys.readouterr().out
        with open(os.path.join(solved_dir, "diagnostics.json")) as fh:
            report = json.load(fh)
        assert report["inverse_moments"][-1][1] == "inf"
        assert isinstance(report["mass"], float)

    def test_large_inverse_moment_stays_finite(self, tmp_path, capsys):
        solved = str(tmp_path / "default")
        assert main(["solve", "--config", DEFAULT_CONFIG, "--out", solved]) == 0
        field = read_field_csv(os.path.join(solved, "m.csv"))
        field.values[3] = 1e-40
        write_field_csv(field, os.path.join(solved, "m.csv"))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--config", DEFAULT_CONFIG,
                         "--fields", solved]) == 5
        out = capsys.readouterr().out
        assert "[pass] all_finite" in out
        assert "[FAIL] density_bounded_below" in out
        with open(os.path.join(solved, "diagnostics.json")) as fh:
            report = json.load(fh)
        # ||1/m||_8 = (h (1e320 + ...))^(1/8), about 1e40 * 128^(-1/8)
        assert report["inverse_moments"][-1] == [8, pytest.approx(5.4525e39,
                                                                   rel=1e-4)]

    def test_dimension_mismatch_rejected(self, fast_config, solved_dir,
                                         tmp_path, capsys):
        cfg = tmp_path / "other.cfg"
        cfg.write_text("grid.n = 64\n")
        assert main(["validate", "--config", str(cfg),
                     "--fields", solved_dir]) == 2

    def test_unwritable_out_exits_2(self, fast_config, solved_dir,
                                    blocked_out, capsys):
        assert main(["validate", "--config", fast_config,
                     "--fields", solved_dir, "--out", blocked_out]) == 2
        assert_cannot_write(capsys.readouterr().err)


class TestSweepCommand:
    def test_small_sweep_table(self, fast_config, tmp_path):
        out = str(tmp_path / "sweep")
        code = main(["sweep", "--config", fast_config, "--out", out,
                     "--gamma", "1.1,1.25", "--alpha", "0.5,1.0"])
        assert code == 0
        with open(os.path.join(out, "sweep.csv")) as fh:
            rows = fh.read().splitlines()
        assert rows[0] == ("gamma,alpha,admissible,reached_one,iters_total,"
                           "min_m,energy_residual,start")
        assert len(rows) == 5
        for row in rows[1:]:
            cells = row.split(",")
            assert cells[2] == "true" and cells[3] == "true"
        assert os.path.exists(os.path.join(out, "frontier.csv"))

    def test_inadmissible_pair_skipped_not_attempted(self, fast_config, tmp_path):
        out = str(tmp_path / "sweep")
        code = main(["sweep", "--config", fast_config, "--out", out,
                     "--gamma", "1.9", "--alpha", "1.5"])
        assert code == 0
        with open(os.path.join(out, "sweep.csv")) as fh:
            row = fh.read().splitlines()[1].split(",")
        assert row[2] == "false" and row[3] == "false"
        assert row[4] == "0"  # no solve attempted
        assert row[5] == row[6] == "nan"

    def test_override_flag_attempts_inadmissible_pair(self, fast_config,
                                                      tmp_path):
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--config", fast_config, "--out", out,
                     "--gamma", "1.9", "--alpha", "1.5",
                     "--override-admissibility"]) == 0
        with open(os.path.join(out, "sweep.csv")) as fh:
            row = fh.read().splitlines()[1].split(",")
        assert row[2] == "false" and row[3] == "true"
        assert int(row[4]) > 0

    def test_empty_list_is_config_error(self, fast_config, tmp_path, capsys):
        assert main(["sweep", "--config", fast_config,
                     "--out", str(tmp_path / "s"), "--gamma", "1.25",
                     "--alpha", ""]) == 2

    @pytest.mark.parametrize("flag,bad", [("--gamma", "nan"), ("--gamma", "1.2,inf"),
                                          ("--alpha", "-inf")])
    def test_non_finite_list_is_config_error(self, fast_config, tmp_path,
                                             capsys, flag, bad):
        lists = {"--gamma": "1.25", "--alpha": "0.5", flag: bad}
        out = tmp_path / "s"
        assert main(["sweep", "--config", fast_config, "--out", str(out),
                     *(f"{k}={v}" for k, v in lists.items())]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: bad sweep list: ")
        assert not out.exists()

    def test_sets_up_once_for_all_pairs(self, fast_config, tmp_path,
                                        monkeypatch):
        from mfglab import cli

        calls = []
        real = cli.build_setup

        def counted(cfg):
            calls.append(cfg)
            return real(cfg)
        monkeypatch.setattr(cli, "build_setup", counted)
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--config", fast_config, "--out", out,
                     "--gamma", "1.1,1.25", "--alpha", "0.5,1.0"]) == 0
        assert len(calls) == 1
        with open(os.path.join(out, "sweep.csv")) as fh:
            rows = fh.read().splitlines()[1:]
        assert [r.split(",")[3] for r in rows] == ["true"] * 4

    def test_pair_the_models_reject_is_a_setup_failure(
            self, fast_config, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--config", fast_config, "--out", out,
                     "--override-admissibility",
                     "--gamma", "2.5", "--alpha", "1.0"]) == 0
        err = capsys.readouterr().err
        assert err.startswith("sweep pair gamma=2.5 alpha=1 failed to set up: ")
        with open(os.path.join(out, "sweep.csv")) as fh:
            row = fh.read().splitlines()[1].split(",")
        assert row[3] == "false" and row[4] == "0"

    def test_bad_coefficient_field_exits_2_before_any_pair(self, tmp_path,
                                                           capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("grid.n = 16\nhamiltonian.a = bogus\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", str(path), "--out", str(out),
                     "--gamma", "1.1,1.25", "--alpha", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown coefficient field")
        assert not out.exists()

    def test_unwritable_out_exits_2(self, fast_config, blocked_out, capsys):
        assert main(["sweep", "--config", fast_config, "--out", blocked_out,
                     "--gamma", "1.25", "--alpha", "0.5"]) == 2
        assert_cannot_write(capsys.readouterr().err)

    def test_energy_residual_is_the_suite_certificate(
            self, fast_config, tmp_path, monkeypatch):
        from mfglab import cli
        from mfglab.diagnostics import estimate_suite

        def no_suite(*args):
            raise AssertionError("sweep builds the whole estimate suite")

        finals = []
        certificate = cli.energy_identity

        def energy_identity(state, models):
            finals.append((state, models))
            return certificate(state, models)

        monkeypatch.setattr(cli, "estimate_suite", no_suite)
        monkeypatch.setattr(cli, "energy_identity", energy_identity)
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--config", fast_config, "--out", out,
                     "--gamma", "1.1,1.25", "--alpha", "0.5"]) == 0
        with open(os.path.join(out, "sweep.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(finals) == len(rows) == 2
        for row, (state, models) in zip(rows, finals):
            written = float(row["energy_residual"])
            assert written == estimate_suite(state, models).energy_identity_residual

    @staticmethod
    def capture_finals(monkeypatch) -> dict:
        """The final state of every solved pair, by (gamma, alpha), as the
        sweep hands it to `energy_identity`."""
        from mfglab import cli

        finals = {}
        certificate = cli.energy_identity

        def energy_identity(state, models):
            finals[models.gamma, models.alpha] = (state, models)
            return certificate(state, models)
        monkeypatch.setattr(cli, "energy_identity", energy_identity)
        return finals

    @staticmethod
    def record_runs(monkeypatch) -> list:
        """(gamma, alpha, guess) of every `continuation_run` call, in order."""
        from mfglab import solver

        runs = []
        real = solver.continuation_run

        def recorded(models, *args, guess=None):
            runs.append((models.gamma, models.alpha, guess))
            return real(models, *args, guess=guess)
        monkeypatch.setattr(solver, "continuation_run", recorded)
        return runs

    def test_warm_started_pairs_match_cold_continuations(self, tmp_path,
                                                         monkeypatch):
        from mfglab.solver import continuation_run

        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid.d = 1\ngrid.n = 64\n")
        finals = self.capture_finals(monkeypatch)
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--config", str(cfg), "--out", out,
                     "--gamma", "1.1,1.15,1.2",
                     "--alpha", "0.25,0.5,0.75"]) == 0
        with open(os.path.join(out, "sweep.csv")) as fh:
            rows = list(csv.DictReader(fh))
        # snake order: the first pair is cold, each gamma line's first two
        # pairs start at the last solved pair, its third at the secant
        assert [r["start"] for r in rows] == [
            "continuation", "neighbour", "secant",
            "secant", "neighbour", "neighbour",
            "neighbour", "neighbour", "secant"]
        assert all(r["reached_one"] == "true" for r in rows)
        assert len(finals) == 9
        for state, models in finals.values():
            cold = continuation_run(models).final_state
            scale = max(np.abs(cold.u).max(), np.abs(cold.m).max())
            assert np.abs(state.u - cold.u).max() <= 1e-10 * scale
            assert np.abs(state.m - cold.m).max() <= 1e-10 * scale

    def test_pairs_are_visited_in_snake_order(self, fast_config, tmp_path,
                                              monkeypatch):
        runs = self.record_runs(monkeypatch)
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--config", fast_config, "--out", out,
                     "--gamma", "1.1,1.25", "--alpha", "0.25,0.5,1.0"]) == 0
        assert [(g, a) for g, a, _ in runs] == [
            (1.1, 0.25), (1.1, 0.5), (1.1, 1.0),
            (1.25, 1.0), (1.25, 0.5), (1.25, 0.25)]
        assert runs[0][2] is None
        with open(os.path.join(out, "sweep.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert [(float(r["gamma"]), float(r["alpha"])) for r in rows] == [
            (1.1, 0.25), (1.1, 0.5), (1.1, 1.0),
            (1.25, 0.25), (1.25, 0.5), (1.25, 1.0)]

    def test_duplicate_alphas_start_at_the_neighbour(self, fast_config,
                                                     tmp_path):
        out = str(tmp_path / "sweep")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--config", fast_config, "--out", out,
                         "--gamma", "1.25", "--alpha", "0.5,0.5,1.0"]) == 0
        with open(os.path.join(out, "sweep.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["start"] for r in rows] == [
            "continuation", "neighbour", "neighbour"]
        assert all(r["reached_one"] == "true" for r in rows)

    def test_secant_passes_over_a_skipped_pair(self, fast_config, tmp_path,
                                               monkeypatch):
        # alpha = 2 is inadmissible at gamma = 1.25 (alpha_max = 1.5)
        finals = self.capture_finals(monkeypatch)
        runs = self.record_runs(monkeypatch)
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--config", fast_config, "--out", out,
                     "--gamma", "1.25", "--alpha", "0.5,2.0,1.0,1.25"]) == 0
        with open(os.path.join(out, "sweep.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["start"] for r in rows] == [
            "continuation", "none", "neighbour", "secant"]
        assert [a for _, a, _ in runs] == [0.5, 1.0, 1.25]
        s0, s1 = finals[1.25, 0.5][0], finals[1.25, 1.0][0]
        guess = runs[-1][2]
        # w = (1.25 - 1.0) / (1.0 - 0.5)
        assert np.array_equal(guess.u, s1.u + 0.5 * (s1.u - s0.u))
        assert np.array_equal(guess.m, s1.m + 0.5 * (s1.m - s0.m))

    def test_pair_whose_guess_fails_reads_continuation(self, fast_config,
                                                       tmp_path, monkeypatch):
        from mfglab import solver
        from mfglab.solver import continuation_run

        real = solver.newton_solve

        def guess_fails(init, lam, *args):
            # only a guess starts a Newton solve at lam = 1
            if init.lam == 1.0:
                raise solver.NewtonDivergenceError("forced failure")
            return real(init, lam, *args)
        finals = self.capture_finals(monkeypatch)
        monkeypatch.setattr(solver, "newton_solve", guess_fails)
        out = str(tmp_path / "sweep")
        assert main(["sweep", "--config", fast_config, "--out", out,
                     "--gamma", "1.1,1.25", "--alpha", "0.5,1.0"]) == 0
        with open(os.path.join(out, "sweep.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["start"] for r in rows] == ["continuation"] * 4
        for r in rows:
            models = finals[float(r["gamma"]), float(r["alpha"])][1]
            assert int(r["iters_total"]) == continuation_run(models).total_iters

    def test_low_density_sweep_reaches_one_from_its_neighbours(
            self, tmp_path):
        import time

        cfg = tmp_path / "lowdens.cfg"
        cfg.write_text("grid.d = 1\ngrid.n = 256\n"
                       "potential.b = fourier:0,0,1e4\n")
        out = str(tmp_path / "sweep")
        start = time.perf_counter()
        assert main(["sweep", "--config", str(cfg), "--out", out,
                     "--gamma", "1.8,1.85,1.9",
                     "--alpha", "0.01,0.02,0.03"]) == 0
        elapsed = time.perf_counter() - start
        with open(os.path.join(out, "sweep.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        assert all(r["reached_one"] == "true" for r in rows)
        # cold continuations from lam = 0 take 469 iterations on these pairs
        assert sum(int(r["iters_total"]) for r in rows) <= 120
        assert elapsed < 1.0


class TestCommandFlags:
    @pytest.mark.parametrize("argv", [
        ["audit", "--out", "x"],
        ["audit", "--override-admissibility"],
        ["validate", "--override-admissibility"],
    ], ids=["audit_out", "audit_override", "validate_override"])
    def test_flag_the_command_does_not_read_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestConfigValidation:
    @pytest.mark.parametrize("command", ["solve", "audit", "validate", "sweep"])
    def test_each_command_validates_the_config_once(
            self, command, fast_config, tmp_path, monkeypatch):
        from mfglab import cli

        out = str(tmp_path / "out")
        if command == "validate":
            assert main(["solve", "--config", fast_config, "--out", out]) == 0
        calls = []
        real = cli.validate_config

        def counted(cfg):
            calls.append(cfg)
            return real(cfg)
        monkeypatch.setattr(cli, "validate_config", counted)
        flags = {"solve": ["--out", out], "audit": [],
                 "validate": ["--fields", out],
                 "sweep": ["--out", out, "--gamma", "1.25", "--alpha", "1.0"]}
        assert main([command, "--config", fast_config, *flags[command]]) == 0
        assert len(calls) == 1


class TestConsoleEntryPoint:
    def test_installed_script_runs(self, tmp_path):
        import subprocess
        import sys

        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("grid.n = 16\n")
        proc = subprocess.run(
            [sys.executable, "-m", "mfglab.cli", "audit", "--config", str(cfg)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "zero_momentum_sign" in proc.stdout


class TestStartup:
    """`audit` and `validate` build no matrix, so they run without scipy."""

    @pytest.mark.parametrize("block_scipy", [True, False],
                             ids=["scipy_unimportable", "scipy_importable"])
    def test_audit_and_validate_load_no_scipy(self, fast_config, tmp_path,
                                              block_scipy):
        import subprocess
        import sys

        import mfglab

        fields = str(tmp_path / "fields")
        here = str(tmp_path / "here")
        assert main(["solve", "--config", fast_config, "--out", fields]) == 0
        assert main(["validate", "--config", fast_config, "--fields", fields,
                     "--out", here]) == 0
        there = str(tmp_path / "there")
        script = "\n".join([
            "import sys",
            "sys.modules['scipy'] = None" if block_scipy else "",
            "def loaded():",
            "    return [k for k, v in sys.modules.items()",
            "            if k.split('.')[0] == 'scipy' and v is not None]",
            "from mfglab import cli",
            "assert not loaded(), loaded()",
            f"assert cli.main(['audit', '--config', {fast_config!r}]) == 0",
            f"assert cli.main(['validate', '--config', {fast_config!r},"
            f" '--fields', {fields!r}, '--out', {there!r}]) == 0",
            "assert not loaded(), loaded()",
        ])
        src = os.path.dirname(os.path.dirname(mfglab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-W", "error", "-c", script],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        with open(os.path.join(here, "diagnostics.json"), "rb") as fh:
            expected = fh.read()
        with open(os.path.join(there, "diagnostics.json"), "rb") as fh:
            assert fh.read() == expected

    def test_solver_names_resolve_to_the_solver_module(self):
        import mfglab
        from mfglab import solver

        assert mfglab.continuation_run is solver.continuation_run
        assert mfglab.newton_solve is solver.newton_solve
        assert mfglab.SolvePath is solver.SolvePath
        with pytest.raises(AttributeError, match="no_such_name"):
            mfglab.no_such_name


class TestBlasThreads:
    def test_outputs_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        """At 2D n = 128 (2N = 32768 unknowns) OpenBLAS splits a GMRES
        product among 2 threads; unchunked, the runs differ in the last
        digits."""
        import subprocess
        import sys

        import mfglab

        cfg = tmp_path / "run2d128.cfg"
        cfg.write_text("grid.d = 2\ngrid.n = 128\n")
        src = os.path.dirname(os.path.dirname(mfglab.__file__))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, PYTHONPATH=src,
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-W", "error", "-m", "mfglab.cli", "solve",
                 "--config", str(cfg), "--out", str(out)],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append((proc.stdout, {p.name: p.read_bytes()
                                          for p in sorted(out.iterdir())}))
        assert sorted(outputs[0][1]) == ["diagnostics.json", "m.csv",
                                         "path.json", "u.csv"]
        assert outputs[0] == outputs[1]


class TestJsonFormatting:
    @pytest.mark.parametrize("value, cell", [
        (True, "true"), (False, "false"), (7, "7"),
        (0.1, "0.10000000000000001"), (math.nan, "nan")])
    def test_sweep_csv_cell(self, value, cell):
        from mfglab.cli import _csv_value

        assert _csv_value(value) == cell

    def test_floats_rendered_at_17_digits(self):
        from mfglab.cli import format_json

        text = format_json({"x": 0.1, "flag": True, "n": 3, "s": "a\"b"})
        assert '"x": 0.10000000000000001' in text
        assert '"flag": true' in text
        assert '"s": "a\\"b"' in text

    def test_non_finite_floats_rendered_as_strings(self):
        from mfglab.cli import format_json

        text = format_json({"a": [math.inf, -math.inf, math.nan],
                            "b": np.float64(math.inf), "c": 1e300, "d": -0.0})
        assert json.loads(text) == {"a": ["inf", "-inf", "nan"], "b": "inf",
                                    "c": 1e300, "d": 0.0}
        assert '"c": 1.0000000000000001e+300' in text
        assert '"d": -0' in text
