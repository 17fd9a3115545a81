import json

import pytest

from corrwishart import extended
from corrwishart.cli import main
from corrwishart.detform import EvalConfig, cdf_max, cdf_min
from corrwishart.model import Dimensions, RowCorrelated, validate_spectrum


def run(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestCdfCommand:
    def test_csv_table_monotone(self, capsys):
        rc, out, _ = run(capsys, "cdf", "--case", "row", "--n", "3", "--m", "2",
                         "--spectrum", "1,2", "--stat", "max",
                         "--grid", "0.1:10:50:log", "--format", "csv")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,value,abs_error,cancel_digits,warnings"
        assert len(lines) == 51
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_json_echoes_jobspec(self, capsys):
        rc, out, _ = run(capsys, "cdf", "--case", "row", "--n", "2", "--m", "1",
                         "--spectrum", "1", "--grid", "0.5:2:3:linear",
                         "--format", "json")
        assert rc == 0
        payload = json.loads(out)
        assert payload["jobspec"]["case"] == "row"
        assert payload["jobspec"]["command"] == "cdf"
        assert len(payload["rows"]) == 3

    def test_output_file_deterministic(self, tmp_path, capsys):
        target1 = tmp_path / "a.csv"
        target2 = tmp_path / "b.csv"
        args = ["cdf", "--case", "column", "--n", "3", "--m", "2",
                "--spectrum", "1,2,3", "--stat", "min", "--grid", "0.1:4:20:log"]
        assert main(args + ["--output", str(target1)]) == 0
        assert main(args + ["--output", str(target2)]) == 0
        capsys.readouterr()
        assert target1.read_bytes() == target2.read_bytes()

    def test_covariance_file_input(self, tmp_path, capsys):
        cov = {"hermitian": [[{"re": 1.0}, {"re": 0.0}], [{"re": 0.0}, {"re": 0.5}]]}
        path = tmp_path / "cov.json"
        path.write_text(json.dumps(cov))
        rc, out, _ = run(capsys, "cdf", "--case", "row", "--n", "3", "--m", "2",
                         "--covariance", str(path), "--grid", "1:1:1")
        assert rc == 0
        assert len(out.strip().splitlines()) == 2


class TestErrorPaths:
    def test_missing_spectrum_is_argument_error(self, capsys):
        rc, _, err = run(capsys, "cdf", "--case", "row", "--n", "2", "--m", "1")
        assert rc == 2
        assert "error" in err

    def test_doubly_min_rectangular_rejected(self, capsys):
        rc, _, err = run(capsys, "cdf", "--case", "double", "--n", "3", "--m", "2",
                         "--r", "1,2", "--s", "1,2,3", "--stat", "min")
        assert rc == 2
        assert "m = n" in err

    def test_bad_grid(self, capsys):
        rc, _, err = run(capsys, "cdf", "--case", "row", "--n", "2", "--m", "1",
                         "--spectrum", "1", "--grid", "0:1:5")
        assert rc == 2

    @pytest.mark.parametrize("command,grids", [
        ("gap", ["--a", "0.1:inf:2", "--b", "1:2:2"]),
        ("gap", ["--a", "0.1:0.2:2", "--b", "nan:2:2"]),
        ("cdf", ["--grid", "0.1:inf:3:linear"]),
        ("cdf", ["--grid", "0.1:nan:3"]),
        ("pdf", ["--grid", "inf:inf:1"])])
    def test_non_finite_grid_end(self, command, grids, capsys):
        # a = inf used to be dropped by the b > a filter, and inf reached
        # numpy's linspace with a RuntimeWarning
        rc, out, err = run(capsys, command, "--case", "row", "--n", "3", "--m", "2",
                           "--spectrum", "1,2", *grids)
        assert rc == 2 and "finite" in err and out == ""

    def test_gap_rejects_non_row_case(self, capsys):
        rc, _, err = run(capsys, "gap", "--case", "column", "--n", "3", "--m", "2",
                         "--spectrum", "1,2,3", "--a", "0.1:0.2:2:linear",
                         "--b", "1:2:2:linear")
        assert rc == 2
        assert "row" in err

    @pytest.mark.parametrize("command", [["gap"], ["pdf", "--stat", "joint"]])
    def test_no_pair_with_b_above_a(self, command, capsys):
        # every a of the grid lies above every b: no point to evaluate
        rc, out, err = run(capsys, *command, "--case", "row", "--n", "3", "--m", "2",
                           "--spectrum", "1,2", "--a", "5:6:2", "--b", "1:2:2")
        assert rc == 2 and "b > a" in err and out == ""

    def test_joint_rejects_non_row_case(self, capsys):
        rc, _, err = run(capsys, "pdf", "--case", "double", "--n", "2", "--m", "2",
                         "--r", "1,2", "--s", "1,3", "--stat", "joint",
                         "--a", "0.1:0.2:2:linear", "--b", "1:2:2:linear")
        assert rc == 2

    @pytest.mark.parametrize("command", ["cdf", "validate"])
    def test_joint_stat_rejected(self, command, capsys):
        # only pdf has a joint law; cdf used to print the min table for it
        with pytest.raises(SystemExit) as info:
            main([command, "--case", "row", "--n", "3", "--m", "2",
                  "--spectrum", "1,2", "--stat", "joint"])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", [("pdf", "stat", "bogus"),
                                                   ("cdf", "stat", "joint"),
                                                   ("cdf", "format", "xml"),
                                                   ("cdf", "precision", "quad"),
                                                   ("cdf", "case", "diagonal")])
    def test_config_value_outside_choices(self, command, key, value, tmp_path, capsys):
        cfg = {"case": "row", "n": 3, "m": 2, "spectrum": "1,2", key: value}
        path = tmp_path / "job.json"
        path.write_text(json.dumps(cfg))
        rc, out, err = run(capsys, command, "--config", str(path))
        assert rc == 2
        assert key in err and repr(value) in err and out == ""

    @pytest.mark.parametrize("command,key,value", [("cdf", "stats", "min"),
                                                   ("gap", "stat", "min"),
                                                   ("cdf", "func", 1)])
    def test_config_key_names_no_option(self, command, key, value, tmp_path, capsys):
        cfg = {"case": "row", "n": 3, "m": 2, "spectrum": "1,2", key: value}
        if command == "gap":
            cfg.update(a="0.1:0.2:2", b="1:2:2")
        path = tmp_path / "job.json"
        path.write_text(json.dumps(cfg))
        rc, out, err = run(capsys, command, "--config", str(path))
        assert rc == 2
        assert key in err and out == ""

    def test_strict_mode_ignores_perturbed(self, capsys):
        # a nudged spectrum losing fewer digits than the threshold is not an error
        rc, out, _ = run(capsys, "cdf", "--case", "row", "--n", "3", "--m", "2",
                         "--spectrum", "1,1", "--grid", "0.7:0.7:1", "--strict")
        assert rc == 0
        assert "perturbed:" in out and "cancellation:" not in out

    def test_strict_mode_flags_cancellation(self, capsys):
        rc, out, _ = run(capsys, "cdf", "--case", "row", "--n", "5", "--m", "3",
                         "--spectrum", "1,1.0001,1.0002", "--stat", "min",
                         "--grid", "0.3:0.3:1", "--strict")
        assert rc == 3


class TestOtherCommands:
    def test_pdf_joint(self, capsys):
        rc, out, _ = run(capsys, "pdf", "--case", "row", "--n", "2", "--m", "2",
                         "--spectrum", "1,2", "--stat", "joint",
                         "--a", "0.2:0.4:2:linear", "--b", "1:2:2:linear")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a,b,value,abs_error,cancel_digits,warnings"
        assert len(lines) == 5

    def test_gap_grid(self, capsys):
        rc, out, _ = run(capsys, "gap", "--case", "row", "--n", "3", "--m", "2",
                         "--spectrum", "1,2", "--a", "0.1:0.3:2:linear",
                         "--b", "1:3:2:linear")
        assert rc == 0
        assert len(out.strip().splitlines()) == 5

    def test_crosscheck_passes(self, capsys):
        rc, out, _ = run(capsys, "crosscheck", "--case", "row", "--n", "4",
                         "--m", "3", "--spectrum", "1,2,3")
        assert rc == 0
        assert "PASS" in out

    def test_crosscheck_rejects_column(self, capsys):
        rc, _, err = run(capsys, "crosscheck", "--case", "column", "--n", "3",
                         "--m", "2", "--spectrum", "1,2,3")
        assert rc == 2

    def test_crosscheck_failure_exit_code(self, capsys):
        # an unattainable tolerance must surface as a validation failure
        rc, out, _ = run(capsys, "crosscheck", "--case", "row", "--n", "4",
                         "--m", "3", "--spectrum", "1,2,3", "--tol", "1e-18")
        assert rc == 4
        assert "FAIL" in out

    def test_env_var_sets_precision(self, capsys, monkeypatch):
        monkeypatch.setenv("CORRWISHART_PRECISION", "extended")
        rc, out, _ = run(capsys, "cdf", "--case", "row", "--n", "5", "--m", "3",
                         "--spectrum", "1,1.0001,1.0002", "--stat", "min",
                         "--grid", "0.3:0.3:1")
        assert rc == 0
        assert "extended:" in out.strip().splitlines()[1]

    def test_validate_passes(self, capsys):
        rc, out, _ = run(capsys, "validate", "--case", "double", "--n", "2",
                         "--m", "2", "--r", "1,2", "--s", "1.001,2.001",
                         "--stat", "min", "--samples", "20000", "--seed", "42")
        assert rc == 0
        assert "PASS" in out

    def test_validate_rejects_zero_samples(self, capsys):
        rc, out, err = run(capsys, "validate", "--case", "row", "--n", "3", "--m", "2",
                           "--spectrum", "1,2", "--samples", "0")
        assert rc == 2
        assert "samples" in err and out == ""

    def test_validate_rejects_zero_confidence(self, capsys):
        rc, out, err = run(capsys, "validate", "--case", "row", "--n", "3", "--m", "2",
                           "--spectrum", "1,2", "--samples", "1000", "--confidence", "0")
        assert rc == 2
        assert "confidence" in err and out == ""

    def test_config_file_supplies_defaults(self, tmp_path, capsys):
        cfg = {"case": "row", "n": 2, "m": 1, "spectrum": "1",
               "grid": "0.5:2:4:linear"}
        path = tmp_path / "job.json"
        path.write_text(json.dumps(cfg))
        rc, out, _ = run(capsys, "cdf", "--config", str(path))
        assert rc == 0
        assert len(out.strip().splitlines()) == 5

    def test_config_stat_selects_the_table(self, tmp_path, capsys):
        job = ["--case", "row", "--n", "3", "--m", "2", "--spectrum", "1,2",
               "--grid", "0.5:2:4:linear"]
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"stat": "min"}))
        rc, from_config, _ = run(capsys, "cdf", "--config", str(path), *job)
        assert rc == 0
        assert from_config == run(capsys, "cdf", "--stat", "min", *job)[1]
        assert from_config != run(capsys, "cdf", "--stat", "max", *job)[1]

    def test_precision_flag_accepted(self, capsys):
        rc, out, _ = run(capsys, "cdf", "--case", "row", "--n", "5", "--m", "3",
                         "--spectrum", "1,1.0001,1.0002", "--stat", "min",
                         "--grid", "0.3:0.3:1", "--precision", "extended")
        assert rc == 0
        value = float(out.strip().splitlines()[1].split(",")[1])
        from corrwishart.schur_series import cdf_min_schur
        from corrwishart.model import Dimensions
        oracle = cdf_min_schur(0.3, Dimensions(5, 3), [1.0, 1.0001, 1.0002])
        assert abs(value - oracle) <= 1e-8 * oracle


class TestWarningsCell:
    # the CSV cell joins a report's warnings with ";", and no warning text
    # holds a ";" or a ",", so the cell splits back into exactly those warnings
    @pytest.mark.parametrize("n,m,spectrum,stat,lam,prefixes", [
        (5, 3, "1,1,1.0002", "min", 0.3, ["perturbed", "cancellation", "extended"]),
        (3, 1, "1", "max", 1e-200, ["underflow"]),
        (16, 12, ",".join(str(0.5 + 3.5 * k / 11) for k in range(12)), "max", 0.5,
         ["cancellation", "nonconverged"])])
    def test_splits_into_the_reports_warnings(self, n, m, spectrum, stat, lam, prefixes,
                                              capsys, monkeypatch):
        # a 60-digit limit leaves row 16x12 unconverged after one round
        monkeypatch.setattr(extended, "_MAX_DPS", 60)
        rc, out, _ = run(capsys, "cdf", "--case", "row", "--n", str(n), "--m", str(m),
                         "--spectrum", spectrum, "--stat", stat, "--grid", f"{lam}:{lam}:1",
                         "--precision", "extended")
        assert rc == 0
        cell = out.splitlines()[1].split(",")[4]
        case = RowCorrelated(Dimensions(n, m), validate_spectrum(
            [float(v) for v in spectrum.split(",")]))
        rep = {"max": cdf_max, "min": cdf_min}[stat](case, lam, EvalConfig(precision="extended"))
        assert cell.split(";") == rep.warnings
        assert [w.split(":", 1)[0] for w in rep.warnings] == prefixes
