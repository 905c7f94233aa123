"""Batch CLI: flags, config files, report formats, exit codes, determinism."""

import csv
import io
import json
import os

import pytest

from octoplane import suites
from octoplane.cli import build_config, main
from octoplane.errors import NumericsError
from octoplane.report import (
    CheckResult,
    VerificationReport,
    render_csv,
    render_json,
    strip_wall_times,
)


def run_cli(args):
    return main(args)


class TestConfigParsing:
    def test_defaults(self):
        cfg = build_config([])
        assert cfg.suite == "all"
        assert cfg.lambdas == (0.5, 1.0, 2.0)
        assert cfg.seed == 0
        assert cfg.fmt == "json"

    def test_flags(self):
        cfg = build_config(
            ["--suite", "algebra", "--lambda", "0.25,3", "--lmax", "6",
             "--rgrid", "0.5,0.9", "--tgrid", "4,8", "--nmc", "1000",
             "--ngauss", "64", "--seed", "11", "--format", "csv"]
        )
        assert cfg.suite == "algebra"
        assert cfg.lambdas == (0.25, 3.0)
        assert cfg.l_max == 6
        assert cfg.r_grid == (0.5, 0.9)
        assert cfg.t_grid == (4.0, 8.0)
        assert cfg.n_mc == 1000
        assert cfg.n_gauss == 64
        assert cfg.seed == 11
        assert cfg.fmt == "csv"

    def test_tolerance_flags(self):
        cfg = build_config(["--suite", "algebra", "--tol.alg-norm-mult=1e-10"])
        assert cfg.tolerances == {"alg-norm-mult": 1e-10}

    def test_config_file_with_flag_override(self, tmp_path):
        cfile = tmp_path / "cfg.txt"
        cfile.write_text(
            "suite = algebra\nseed = 5\nnmc = 2000\ntol.alg-norm-mult = 1e-9\n"
            "# a comment\n"
        )
        cfg = build_config(["--config", str(cfile), "--seed", "9"])
        assert cfg.suite == "algebra"
        assert cfg.seed == 9          # flag wins
        assert cfg.n_mc == 2000
        assert cfg.tolerances == {"alg-norm-mult": 1e-9}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_tolerance_rejected(self, value, capsys):
        # nan fails every check and puts a bare NaN into the JSON; inf passes every check
        args = ["--suite", "special", "--quiet", f"--tol.sp-pochhammer-720={value}"]
        with pytest.raises(ValueError, match="finite"):
            build_config(args)
        assert run_cli(args) == 2

    @pytest.mark.parametrize("args,match", [
        (["--suite", "invert", "--tgrid=0,4"], "t_grid"),
        (["--suite", "invert", "--tgrid=-4,8"], "t_grid"),
        (["--suite", "invert", "--tgrid=inf"], "t_grid"),
        (["--suite", "cz", "--rgrid", "1.5"], "r grid"),
        (["--suite", "poisson", "--rgrid", "1.5"], "r grid"),
        (["--suite", "cz", "--rgrid=-0.5"], "r grid"),
        (["--suite", "algebra", "--nmc", "0"], "n_mc"),
        (["--suite", "invert", "--ngauss", "1"], "n_gauss"),
        (["--suite", "special", "--lmax", "-1"], "l_max"),
        (["--suite", "special", "--lambda", "nan"], "lambda"),
        (["--suite", "invert", "--tgrid=4,400"], "t_grid"),
        (["--suite", "poisson", "--tgrid=400"], "t_grid"),
    ])
    def test_out_of_range_setting_rejected(self, args, match, capsys):
        with pytest.raises(ValueError, match=match):
            build_config(args)
        assert run_cli(args + ["--quiet"]) == 2

    @pytest.mark.parametrize("suite", ["cz", "invert", "all"])
    def test_repeated_lambda_rejected(self, suite, capsys):
        # a repeated lambda would write each of its check ids twice
        args = ["--suite", suite, "--lambda", "1.0,2,1", "--nmc", "1000"]
        with pytest.raises(ValueError, match="distinct"):
            build_config(args)
        assert run_cli(args + ["--quiet"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_zero_lambda_rejected_for_spectral_suites(self):
        with pytest.raises(ValueError):
            build_config(["--suite", "special", "--lambda", "0,1"])

    def test_unknown_config_key(self, tmp_path):
        cfile = tmp_path / "bad.txt"
        cfile.write_text("mystery = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            build_config(["--config", str(cfile)])


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run_cli(["--suite", "algebra", "--seed", "7", "--quiet",
                        "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["overall_status"] == "pass"
        assert all(c["measured"].get("violations", 0) == 0
                   for c in rep["checks"] if "violations" in c["measured"])

    def test_forced_tolerance_failure_is_one(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run_cli(["--suite", "algebra", "--seed", "7", "--quiet",
                        "--tol.alg-norm-mult=1e-30", "--out", str(out)])
        assert code == 1
        rep = json.loads(out.read_text())
        assert rep["overall_status"] == "fail"
        failed = {c["check_id"] for c in rep["checks"] if c["status"] == "fail"}
        assert failed == {"alg-norm-mult"}

    def test_usage_error_is_two(self, capsys):
        assert run_cli(["--suite", "nonsense"]) == 2
        assert run_cli(["--suite", "special", "--lambda", "0"]) == 2
        assert run_cli(["--tol.alg-norm-mult"]) == 2

    def test_io_error_is_three(self, capsys):
        code = run_cli(["--suite", "algebra", "--seed", "1", "--quiet",
                        "--out", "/nonexistent-dir/report.json"])
        assert code == 3


class TestDefaultBudgets:
    @pytest.mark.parametrize("seed", range(5))
    def test_algebra_and_geometry_pass(self, seed, tmp_path, capsys):
        for suite in ("algebra", "geometry"):
            out = tmp_path / f"{suite}.json"
            code = run_cli(["--suite", suite, "--seed", str(seed), "--quiet", "--out", str(out)])
            rep = json.loads(out.read_text())
            bad = [c["check_id"] for c in rep["checks"] if c["status"] in ("fail", "error")]
            assert (code, bad) == (0, [])


class TestReportContents:
    def test_json_schema_fields(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        run_cli(["--suite", "special", "--seed", "3", "--quiet", "--out", str(out)])
        rep = json.loads(out.read_text())
        assert set(rep) == {"meta", "overall_status", "checks"}
        for key in ("suite", "lambdas", "l_max", "r_grid", "t_grid",
                    "n_mc", "n_gauss", "seed", "format_version"):
            assert key in rep["meta"]
        for c in rep["checks"]:
            assert set(c) == {"check_id", "anchor", "status", "measured",
                              "tolerance", "n_samples", "seed", "wall_time"}
            assert c["anchor"]  # every record names the statement it verifies
        assert rep["meta"]["format_version"] == 3
        # each record is timed on its own, not given a share of the suite's time
        walls = [c["wall_time"] for c in rep["checks"]]
        assert len(set(walls)) > 1
        assert sum(walls) <= rep["meta"]["total_wall_time"] + 1e-4
        ids = [c["check_id"] for c in rep["checks"]]
        assert "sp-harmonic-unity" in ids
        assert "sp-2f1-seam" in ids

    def test_poisson_suite_includes_quadrature_cross_check(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        run_cli(["--suite", "poisson", "--seed", "3", "--quiet", "--out", str(out),
                 "--nmc", "50000"])
        rep = json.loads(out.read_text())
        byid = {c["check_id"]: c for c in rep["checks"]}
        assert byid["po-quadrature-vs-series"]["status"] == "pass"
        assert byid["po-quadrature-vs-series"]["tolerance"] == 1e-6

    def test_poisson_suite_m2_without_small_t(self, tmp_path, capsys):
        # po-m2-vs-hardy keeps t <= 16; a grid with none takes its smallest t
        out = tmp_path / "r.json"
        code = run_cli(["--suite", "poisson", "--tgrid", "64,32", "--rgrid", "0.5",
                        "--nmc", "20000", "--ngauss", "120", "--quiet", "--out", str(out)])
        byid = {c["check_id"]: c for c in json.loads(out.read_text())["checks"]}
        assert code in (0, 1)
        assert byid["po-m2-vs-hardy"]["measured"]["fitted_constant"] > 0

    def test_invert_suite_at_the_largest_t(self, tmp_path, capsys):
        # t = 350 is the largest accepted radius (above ~355.6 cosh(t)^2 overflows)
        out = tmp_path / "r.json"
        code = run_cli(["--suite", "invert", "--tgrid", "4,350", "--quiet", "--out", str(out)])
        byid = {c["check_id"]: c for c in json.loads(out.read_text())["checks"]}
        assert code in (0, 1)
        assert byid["inv-gt-profile-1.0"]["measured"]["g_t350.0"] > 0

    def test_cz_suite_records(self, tmp_path, capsys):
        # the lambda-free checks are recorded once, the rest once per lambda
        lam_free = ["cz-shift-exact", "cz-difference-exact", "cz-size"]
        per_lam = ["cz-smooth-{}", "cz-truncated-{}", "cz-hormander-{}"]
        for lams, extra in (([0.5, 1.0, 2.0], []), ([1.0], ["--lambda", "1.0"])):
            out = tmp_path / "r.json"
            run_cli(["--suite", "cz", "--nmc", "20000", "--quiet", "--out", str(out)] + extra)
            ids = [c["check_id"] for c in json.loads(out.read_text())["checks"]]
            assert ids == lam_free + [f.format(lam) for lam in lams for f in per_lam]

    def test_csv_row_count(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        run_cli(["--suite", "algebra", "--seed", "2", "--quiet",
                 "--format", "csv", "--out", str(out)])
        rows = list(csv.reader(io.StringIO(out.read_text())))
        jout = tmp_path / "r.json"
        run_cli(["--suite", "algebra", "--seed", "2", "--quiet", "--out", str(jout)])
        n_checks = len(json.loads(jout.read_text())["checks"])
        assert len(rows) == n_checks + 1
        assert rows[0] == ["check_id", "anchor", "status", "measured",
                           "tolerance", "n_samples", "seed", "wall_time"]

    def test_empty_report_is_valid(self):
        rep = VerificationReport(meta={"suite": "none"}, checks=[])
        obj = json.loads(render_json(rep))
        assert obj["checks"] == []
        assert obj["overall_status"] == "pass"
        assert render_csv(rep).count("\n") == 1

    def test_failed_check_marks_report(self):
        rep = VerificationReport(
            meta={},
            checks=[CheckResult("x", "some identity", "fail", {"defect": 1.0}, 0.5)],
        )
        assert rep.overall_status == "fail"


class TestSuiteErrors:
    def test_numerics_error_keeps_the_report(self, tmp_path, monkeypatch, capsys):
        def ok(config, rec):
            rec.exact(f"{config.suite}-fake", "a check that passes", 0, 1)

        def broken(config, rec):
            rec.tol("alg-before", "a check recorded before the error", 0.0, 1e-12, 1)
            raise NumericsError("no convergence in 500 steps")

        for name in suites._SUITES:
            monkeypatch.setitem(suites._SUITES, name, ok)
        monkeypatch.setitem(suites._SUITES, "algebra", broken)
        out = tmp_path / "r.json"
        assert run_cli(["--suite", "all", "--out", str(out)]) == 1
        rep = json.loads(out.read_text())
        assert rep["overall_status"] == "fail"
        statuses = [(c["check_id"], c["status"]) for c in rep["checks"]]
        assert statuses[:2] == [("alg-before", "pass"), ("algebra-error", "error")]
        assert rep["checks"][1]["anchor"] == "no convergence in 500 steps"
        # the other suites still ran
        assert statuses[2:] == [("all-fake", "pass")] * (len(suites._SUITES) - 1)
        assert "[ERR ] algebra-error: no convergence in 500 steps" in capsys.readouterr().err

    def test_other_exceptions_propagate(self, monkeypatch):
        def broken(config, rec):
            raise ValueError("a programming error, not a numerical one")

        monkeypatch.setitem(suites._SUITES, "algebra", broken)
        with pytest.raises(ValueError, match="programming error"):
            run_cli(["--suite", "algebra", "--quiet"])


class TestDeterminism:
    def test_rerun_identical_apart_from_wall_time(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["--suite", "special", "--seed", "13", "--quiet"]
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b)])
        assert strip_wall_times(a.read_text()) == strip_wall_times(b.read_text())
        assert a.read_text() != "" and b.read_text()

    def test_quiet_prefix_suppresses_summary(self, tmp_path, capsys):
        # argparse accepts unambiguous prefixes, so --qui means --quiet
        code = run_cli(["--suite", "algebra", "--seed", "1", "--nmc", "1000", "--qui",
                        "--out", str(tmp_path / "r.json")])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_stdout_default(self, capsys):
        code = run_cli(["--suite", "algebra", "--seed", "1", "--quiet", "--nmc", "1000"])
        captured = capsys.readouterr()
        assert code == 0
        rep = json.loads(captured.out)
        assert rep["meta"]["suite"] == "algebra"
