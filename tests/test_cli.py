import json
import math
import os
import subprocess
import sys

import pytest

import corrwishart
from corrwishart import detform, extended, schur_series
from corrwishart.cli import main
from corrwishart.detform import (EvalConfig, EvalReport, cdf_max, cdf_min, pdf_joint_minmax,
                                 pdf_max, pdf_min, prob_gap)
from corrwishart.model import (ColumnCorrelated, Dimensions, DoublyCorrelated, RowCorrelated,
                               validate_spectrum)


def never(*args, **kwargs):
    raise AssertionError("must not be called")


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

    @pytest.mark.parametrize("argv,nulls", [
        (["cdf", "--case", "column", "--n", "3", "--m", "2", "--spectrum",
          "1e-200,2e-200,3e-200", "--stat", "min", "--grid", "1:1:1"],
         ["abs_error", "cancel_digits"]),
        (["pdf", "--case", "row", "--n", "1", "--m", "1", "--spectrum", "1.5e308",
          "--stat", "max", "--grid", "1e-310:1e-310:1"], ["abs_error", "value"])])
    def test_json_nonfinite_numbers_are_null(self, argv, nulls, capsys):
        # Infinity and NaN are not JSON (RFC 8259): a strict parser must read the output
        def strict(name):
            raise ValueError(f"non-JSON constant {name}")

        rc, out, _ = run(capsys, *argv, "--format", "json")
        assert rc == 0
        (row,) = json.loads(out, parse_constant=strict)["rows"]
        assert sorted(k for k, v in row.items() if v is None) == nulls
        assert row["warnings"]

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

    @pytest.mark.parametrize("grid,message", [
        ("0.1:1:5:cubic", "spacing must be linear or log"),
        ("0.1:1:0", "at least one point"),
        ("1:0.5:5", "stop must exceed start")])
    def test_bad_grid_spec(self, grid, message, capsys):
        rc, out, err = run(capsys, "cdf", "--case", "row", "--n", "2", "--m", "1",
                           "--spectrum", "1", "--grid", grid)
        assert rc == 2 and message in err and out == ""

    @pytest.mark.parametrize("argv,message", [
        (["--n", "3", "--m", "2", "--spectrum", "1,2"], "--case is required"),
        (["--case", "row", "--m", "2", "--spectrum", "1,2"], "--n and --m are required"),
        (["--case", "row", "--n", "3", "--spectrum", "1,2"], "--n and --m are required")])
    def test_table_without_case_or_dimensions(self, argv, message, capsys):
        rc, out, err = run(capsys, "cdf", *argv)
        assert rc == 2 and message in err and out == ""

    @pytest.mark.parametrize("command,what", [(["gap"], "gap"),
                                              (["pdf", "--stat", "joint"], "--stat joint")])
    def test_pair_grids_required(self, command, what, capsys):
        rc, out, err = run(capsys, *command, "--case", "row", "--n", "3", "--m", "2",
                           "--spectrum", "1,2", "--a", "0.1:0.2:2")
        assert rc == 2 and f"{what} needs --a and --b grids" in err and out == ""

    def test_validate_doubly_min_rectangular_rejected_before_sampling(self, capsys,
                                                                       monkeypatch):
        from corrwishart import montecarlo
        monkeypatch.setattr(montecarlo, "_extreme_eigs", never)
        monkeypatch.setattr(montecarlo, "empirical_extreme_cdf", never)
        rc, out, err = run(capsys, "validate", "--case", "double", "--n", "3", "--m", "2",
                           "--r", "1,2", "--s", "1,2,3", "--stat", "min")
        assert rc == 2 and "requires m = n" in err and out == ""

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

    # row 8x4 at 0.5,1,2,3 in double precision: 8 of the 24 values carry a
    # cancellation warning, and the worst of them is off by 6e-7
    WIDE = ["crosscheck", "--case", "row", "--n", "8", "--m", "4", "--spectrum", "0.5,1,2,3"]

    def test_crosscheck_skips_flagged_values(self, capsys):
        rc, out, _ = run(capsys, *self.WIDE)
        assert rc == 0 and "PASS" in out
        assert "8 flagged values skipped, 16 compared" in out

    def test_crosscheck_compares_escalated_values(self, capsys):
        rc, out, _ = run(capsys, *self.WIDE, "--precision", "extended")
        assert rc == 0 and "PASS" in out
        assert "0 flagged values skipped, 24 compared" in out

    def test_crosscheck_fails_with_nothing_compared(self, capsys, monkeypatch):
        def flagged(case, stat, points, cfg, density=False):
            return [EvalReport(0.5, 1e-3, 9.0, ["cancellation:9.0 digits lost"])
                    for _ in points]

        monkeypatch.setattr(detform, "_grid", flagged)
        monkeypatch.setattr(schur_series, "cdf_max_schur", never)
        monkeypatch.setattr(schur_series, "cdf_min_schur", never)
        rc, out, _ = run(capsys, "crosscheck", "--case", "row", "--n", "4",
                         "--m", "3", "--spectrum", "1,2,3")
        assert rc == 4
        assert "24 flagged values skipped, 0 compared" in out
        assert "FAIL (no value to compare)" in out

    @pytest.mark.parametrize("n,m", [(9, 4), (7, 5)])
    def test_crosscheck_refuses_sizes_beyond_the_oracle(self, n, m, capsys, monkeypatch):
        # refused before any evaluation: neither the engine nor the oracle runs
        for module, name in ((detform, "_grid"), (schur_series, "cdf_max_schur"),
                             (schur_series, "cdf_min_schur")):
            monkeypatch.setattr(module, name, never)
        rc, out, err = run(capsys, "crosscheck", "--case", "row", "--n", str(n), "--m", str(m),
                           "--spectrum", ",".join(str(v + 1) for v in range(m)))
        assert rc == 2 and out == ""
        assert "the series oracle covers m <= 4 and n <= 8" in err

    def test_environment_leaves_precision_alone(self, capsys, monkeypatch):
        # a flagged value stays a double-precision one whatever the environment holds
        argv = ("cdf", "--case", "row", "--n", "5", "--m", "3", "--spectrum", "1,1.0001,1.0002",
                "--stat", "min", "--grid", "0.3:0.3:1")
        monkeypatch.delenv("CORRWISHART_PRECISION", raising=False)
        plain = run(capsys, *argv)
        monkeypatch.setenv("CORRWISHART_PRECISION", "extended")
        assert run(capsys, *argv) == plain
        assert plain[0] == 0 and "extended:" not in plain[1]

    def test_validate_passes(self, capsys):
        rc, out, _ = run(capsys, "validate", "--case", "double", "--n", "2",
                         "--m", "2", "--r", "1,2", "--s", "1.001,2.001",
                         "--stat", "min", "--samples", "20000", "--seed", "42")
        assert rc == 0
        assert "PASS" in out

    def test_validate_explicit_grid(self, capsys):
        rc, out, _ = run(capsys, "validate", "--case", "row", "--n", "3", "--m", "2",
                         "--spectrum", "1,2", "--grid", "0.5:4:5:linear",
                         "--samples", "2000", "--seed", "1")
        lines = out.strip().splitlines()
        assert rc == 0 and lines[-1] == "validate: PASS"
        assert [float(line.split(",")[0]) for line in lines[2:-1]] == \
            [0.5, 1.375, 2.25, 3.125, 4.0]

    @pytest.mark.parametrize("scale,stat", [(1e15, "max"), (1e11, "min")])
    def test_validate_default_grid_is_scale_free(self, scale, stat, capsys):
        # scaling the spectrum by c scales the eigenvalues by 1/c: the default
        # grid follows them down, and the fractions are those of the unscaled
        # case, with no floor at an absolute 1e-12
        def table(spectrum):
            rc, out, _ = run(capsys, "validate", "--case", "row", "--n", "3", "--m", "2",
                             "--spectrum", spectrum, "--stat", stat, "--samples", "500",
                             "--seed", "1")
            assert rc == 0
            return [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[2:-1]]

        plain, scaled = table("1,2"), table(f"{scale:g},{2 * scale:g}")
        assert len(scaled) == len(plain) > 0
        for (lam, frac, ana, _), (slam, sfrac, sana, _) in zip(plain, scaled):
            assert slam * scale == pytest.approx(lam, rel=1e-5)
            assert sfrac == frac and abs(sana - ana) <= 2e-6

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


class TestRowsMatchTheApi:
    # every table row carries exactly the fields of the matching one-point call
    @pytest.mark.parametrize("argv,call", [
        (["cdf", "--case", "row", "--n", "4", "--m", "3", "--spectrum", "1,2,3",
          "--stat", "max", "--grid", "1e-30:20:6:log"], cdf_max),
        (["cdf", "--case", "column", "--n", "5", "--m", "3", "--spectrum", "0.5,1,2,3,4",
          "--stat", "min", "--grid", "0.01:3:6:log"], cdf_min),
        (["pdf", "--case", "double", "--n", "3", "--m", "3", "--r", "1,2,3",
          "--s", "0.6,0.9,1.8", "--stat", "max", "--grid", "0.05:200:6:log"], pdf_max),
        (["pdf", "--case", "row", "--n", "5", "--m", "3", "--spectrum", "1,1.0001,3",
          "--stat", "min", "--grid", "0.1:40:6:log"], pdf_min),
        (["gap", "--case", "row", "--n", "4", "--m", "3", "--spectrum", "1,1,2",
          "--a", "0.05:0.5:3", "--b", "1:8:3"], prob_gap),
        (["pdf", "--case", "row", "--n", "4", "--m", "2", "--spectrum", "1,2",
          "--stat", "joint", "--a", "0.1:2:3:linear", "--b", "1:4:3:linear"],
         pdf_joint_minmax)],
        ids=["row-cdf-max", "column-cdf-min", "double-pdf-max", "row-pdf-min", "row-gap",
             "row-pdf-joint"])
    def test_csv_and_json_rows(self, argv, call, capsys):
        opts = dict(zip(argv[1::2], argv[2::2]))
        dims = Dimensions(int(opts["--n"]), int(opts["--m"]))

        def spectrum(key):
            return validate_spectrum([float(v) for v in opts[key].split(",")])
        if opts["--case"] == "double":
            case = DoublyCorrelated(dims, spectrum("--r"), spectrum("--s"))
        else:
            model = {"row": RowCorrelated, "column": ColumnCorrelated}[opts["--case"]]
            case = model(dims, spectrum("--spectrum"))
        rc, out, _ = run(capsys, *argv, "--format", "csv")
        assert rc == 0
        header, *lines = out.splitlines()
        width = len(header.split(",")) - 4
        reports = []
        for line in lines:
            *point, value, abs_error, cancel, cell = line.split(",")
            rep = call(case, *map(float, point))
            assert [float(value).hex(), float(abs_error).hex(), float(cancel).hex()] == [
                rep.value.hex(), rep.abs_error_estimate.hex(), rep.cancellation_digits.hex()]
            assert (cell.split(";") if cell else []) == rep.warnings
            reports.append(([float(x) for x in point], rep))
        assert len(point) == width and len(reports) >= 6
        rc, out, _ = run(capsys, *argv, "--format", "json")
        assert rc == 0
        rows = json.loads(out)["rows"]
        keys = header.split(",")[:width]

        def number(x):  # JSON writes a nonfinite number as null
            return x if math.isfinite(x) else None
        assert [([row[k] for k in keys], row["value"], row["abs_error"],
                 row["cancel_digits"], row["warnings"]) for row in rows] == [
            (point, *map(number, (rep.value, rep.abs_error_estimate, rep.cancellation_digits)),
             rep.warnings)
            for point, rep in reports]


class TestConfigValues:
    # a config value is read as the command line reads the option
    JOB = {"case": "row", "n": 3, "m": 2, "spectrum": "1,2", "grid": "0.5:2:3"}

    def run_config(self, capsys, tmp_path, command, cfg, *argv):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(cfg))
        return run(capsys, command, "--config", str(path), *argv)

    def test_list_spectrum_is_argument_error(self, capsys, tmp_path):
        rc, out, err = self.run_config(capsys, tmp_path, "cdf",
                                       dict(self.JOB, spectrum=[1.0, 2.0]))
        assert rc == 2 and "config spectrum" in err and out == ""

    def test_number_grid_is_argument_error(self, capsys, tmp_path):
        rc, out, err = self.run_config(capsys, tmp_path, "cdf", dict(self.JOB, grid=5))
        assert rc == 2 and "grid" in err and out == ""

    def test_fractional_m_is_rejected(self, capsys, tmp_path):
        # as `--m 2.5` is; it used to become m = 2
        rc, out, err = self.run_config(capsys, tmp_path, "cdf", dict(self.JOB, m=2.5))
        assert rc == 2 and "config m" in err and "2.5" in err and out == ""

    def test_strict_takes_only_true_or_false(self, capsys, tmp_path):
        job = dict(self.JOB, n=5, m=3, spectrum="1,1.0001,1.0002", stat="min",
                   grid="0.3:0.3:1")
        rc, out, err = self.run_config(capsys, tmp_path, "cdf", dict(job, strict="no"))
        assert rc == 2 and "config strict" in err and out == ""
        assert self.run_config(capsys, tmp_path, "cdf", dict(job, strict=False))[0] == 0
        assert self.run_config(capsys, tmp_path, "cdf", dict(job, strict=True))[0] == 3

    def test_config_must_be_an_object(self, capsys, tmp_path):
        rc, out, err = self.run_config(capsys, tmp_path, "cdf", [self.JOB])
        assert rc == 2 and "not a JSON object" in err and out == ""

    def test_string_samples_read_as_int(self, capsys, tmp_path):
        job = ["--case", "row", "--n", "3", "--m", "2", "--spectrum", "1,2", "--seed", "7"]
        rc, out, err = self.run_config(capsys, tmp_path, "validate", {"samples": "3000"}, *job)
        assert rc == 0 and err == ""
        assert out == run(capsys, "validate", "--samples", "3000", *job)[1]

    def test_number_tol_is_applied(self, capsys, tmp_path):
        # an option with a non-None default used to ignore its config value
        job = ["--case", "row", "--n", "4", "--m", "3", "--spectrum", "1,2,3"]
        rc, out, _ = self.run_config(capsys, tmp_path, "crosscheck", {"tol": 1e-18}, *job)
        assert rc == 4 and "tolerance 1e-18" in out
        rc, out, _ = self.run_config(capsys, tmp_path, "crosscheck", {"tol": 1e-18},
                                     *job, "--tol", "1e-8")
        assert rc == 0 and "tolerance 1e-08" in out


class TestReportCommandOptions:
    # crosscheck and validate print a fixed report: no table options
    JOB = ["--case", "row", "--n", "3", "--m", "2", "--spectrum", "1,2"]

    @pytest.mark.parametrize("command", ["crosscheck", "validate"])
    @pytest.mark.parametrize("option", [["--output", "out.txt"], ["--format", "json"],
                                        ["--strict"]], ids=["output", "format", "strict"])
    def test_table_option_rejected(self, command, option, capsys):
        with pytest.raises(SystemExit) as info:
            main([command, *self.JOB, *option])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["crosscheck", "validate"])
    @pytest.mark.parametrize("key,value", [("output", "out.txt"), ("format", "json"),
                                           ("strict", True)])
    def test_table_option_in_config_rejected(self, command, key, value, tmp_path, capsys):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({key: value}))
        rc, out, err = run(capsys, command, "--config", str(path), *self.JOB)
        assert rc == 2 and f"config {key}: not an option of {command}" in err and out == ""


class TestShellRun:
    # `python -m corrwishart.cli` as a shell runs it: sys.exit(main()) and
    # argparse's own exit, with no traceback on any argument error
    ROW = ["--case", "row", "--n", "3", "--m", "2", "--spectrum", "1,2"]

    @pytest.mark.parametrize("argv,code", [
        (["cdf", *ROW, "--grid", "0.5:2:3"], 0),
        (["cdf", "--case", "row", "--n", "3", "--m", "2.5", "--spectrum", "1,2"], 2),
        (["cdf", *ROW, "--config", "{config}"], 2),
        (["cdf", "--case", "row", "--n", "5", "--m", "3", "--spectrum", "1,1.0001,1.0002",
          "--stat", "min", "--grid", "0.3:0.3:1", "--strict"], 3)],
        ids=["table", "fractional-m", "bad-config-value", "strict-flagged"])
    def test_exit_code(self, argv, code, tmp_path):
        config = tmp_path / "job.json"
        config.write_text(json.dumps({"grid": 5}))
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(corrwishart.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "corrwishart.cli",
             *[a.format(config=config) for a in argv]],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert (proc.stdout.startswith("lambda,value,") if code in (0, 3)
                else proc.stdout == "" and proc.stderr)
