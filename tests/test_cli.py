import json

import numpy as np
import pytest

from nsp_lab import solver
from nsp_lab.cli import main
from nsp_lab.measures import SparsenessMeasure
from nsp_lab.subspaces import write_matrix_csv
from nsp_lab.suite import run_suite


@pytest.fixture
def null_111_matrix(tmp_path):
    g = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    q, _ = np.linalg.qr(np.column_stack([g, np.eye(3)[:, :2]]))
    path = tmp_path / "A.csv"
    write_matrix_csv(path, q[:, 1:].T)
    return path


class TestCommands:
    def test_nsc(self, null_111_matrix, tmp_path, capsys):
        out = tmp_path / "nsc.json"
        code = main(["nsc", "--matrix", str(null_111_matrix), "--measure", "l1",
                     "--k", "1", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert float(payload["theta"]) == pytest.approx(0.5, abs=1e-12)
        assert payload["method"] == "exact_1d"

    def test_probe(self, null_111_matrix, tmp_path):
        out = tmp_path / "probe.json"
        code = main(["probe", "--matrix", str(null_111_matrix), "--measure", "l1",
                     "--k", "1", "--d", "0.05", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        # the line through (1, 1, 1) has certified l1 radius 1/3 > 0.05
        assert payload["outcome"] == "passed_sound"
        assert "exact_radius" not in payload
        # its exact l1 radius is 1/3 too, and decides beyond it
        code = main(["probe", "--matrix", str(null_111_matrix), "--measure", "l1",
                     "--k", "1", "--d", "0.34", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert (code, payload["outcome"]) == (0, "violated")
        assert payload["exact_radius"] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_recover(self, null_111_matrix, tmp_path):
        a = np.loadtxt(null_111_matrix, delimiter=",", skiprows=1)
        x_bar = np.array([5.0, 0.0, 0.0])
        y_path = tmp_path / "y.csv"
        write_matrix_csv(y_path, (a @ x_bar).reshape(1, -1))
        out = tmp_path / "recover.json"
        code = main(["recover", "--matrix", str(null_111_matrix), "--y", str(y_path),
                     "--measure", "lp(p=1)", "--k", "1", "--method", "enumerate",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert np.allclose(payload["x_hat"], x_bar, atol=1e-8)

    def test_recover_noisy_l1(self, null_111_matrix, tmp_path):
        a = np.loadtxt(null_111_matrix, delimiter=",", skiprows=1)
        y_path = tmp_path / "y.csv"
        write_matrix_csv(y_path, (a @ np.array([5.0, 0.0, 0.0]) + [0.01, 0.0]).reshape(1, -1))
        out = tmp_path / "recover.json"
        code = main(["recover", "--matrix", str(null_111_matrix), "--y", str(y_path),
                     "--measure", "l1", "--k", "1", "--eps", "0.1", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == "homotopy" and payload["optimal_guaranteed"]
        assert float(payload["kkt_residual"]) <= 1e-9
        assert float(payload["residual"]) <= 0.1

    def test_width(self, tmp_path):
        out = tmp_path / "width.json"
        code = main(["width", "--measure", "lp(p=1)", "--n", "4", "--k", "4",
                     "--draws", "2000", "--seed", "1", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["inner_search"] == "whole_sphere"
        assert 1.5 < float(payload["mean"]) < 2.2

    def test_json_is_strict(self, capsys):
        # one draw has no standard error; strict JSON has no token for inf
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        assert main(["width", "--measure", "l1", "--n", "4", "--k", "1", "--draws", "1"]) == 0
        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["std_error"] is None

    def test_width_with_extension(self, tmp_path):
        out = tmp_path / "width.json"
        code = main(["width", "--measure", "l1", "--n", "4", "--k", "1",
                     "--draws", "1000", "--d", "0.1", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert float(payload["extended_mean"]) >= float(payload["mean"])

    def test_tradeoff_sweep_csv(self, tmp_path):
        out = tmp_path / "tradeoff.csv"
        code = main(["tradeoff", "--beta", "100", "--gamma-sweep", "63:79:2",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:3] == ["gamma", "delta", "C"]
        cs = [float(ln.split(",")[2]) for ln in lines[1:]]
        assert all(a > b for a, b in zip(cs, cs[1:]))

    def test_mc_deterministic_bytes(self, tmp_path):
        args = ["mc", "--n", "4", "--m", "2", "--k", "1", "--trials", "40",
                "--seed", "9", "--d-grid", "0.001"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_boundary(self, tmp_path):
        out = tmp_path / "region.csv"
        code = main(["boundary", "--measure", "mcp_zap(alpha=2)", "--grid", "8x8",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# nsp-lab boundary_map")
        assert len([ln for ln in lines if not ln.startswith("#")]) == 64

    def test_boundary_l1_staircase(self, tmp_path):
        # F(x) + F(y) <= F(a x + b y) is satisfiable for l1 iff a >= 1 or b >= 1
        out = tmp_path / "region.dat"
        assert main(["boundary", "--measure", "l1", "--grid", "10x10", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# nsp-lab boundary_map"
        assert lines[1].startswith("# seed=0 config=")
        rows = [ln.split() for ln in lines if not ln.startswith("#")]
        assert len(rows) == 100
        for a_s, b_s, flag in rows:
            assert int(flag) == int(float(a_s) >= 1.0 or float(b_s) >= 1.0)

    def test_ce1(self, tmp_path):
        out = tmp_path / "ce1.json"
        code = main(["ce1", "--d-list", "0.1,0.01", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert all(entry["found"] for entry in payload)

    def test_config_file_with_flag_override(self, null_111_matrix, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("measure=l1\nk=1\nseed=3\n")
        code = main(["nsc", "--matrix", str(null_111_matrix), "--config", str(cfg),
                     "--measure", "lp(p=0.5)"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # flag wins over config: worst split of the half power is 1/2
        assert float(payload["theta"]) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("command, flags", [
        ("nsc", ["--matrix", "A", "--measure", "lp(p=0.5)", "--k", "1", "--seed", "2"]),
        ("probe", ["--matrix", "A", "--measure", "exp_ce1", "--k", "1", "--d", "0.5",
                   "--budget", "3000"]),
        ("width", ["--measure", "l1", "--n", "4", "--k", "1", "--draws", "300", "--d", "0.1"]),
        ("mc", ["--n", "4", "--m", "2", "--k", "1", "--trials", "20", "--d-grid", "0.001,0.05",
                "--seed", "5", "--format", "json"]),
        ("tradeoff", ["--beta", "100", "--gamma-sweep", "63:67:2"]),
        ("ce1", ["--d-list", "0.1,0.01"]),
    ])
    def test_config_file_matches_flags(self, null_111_matrix, tmp_path, command, flags):
        flags = [str(null_111_matrix) if f == "A" else f for f in flags]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key[2:].replace('-', '_')}={val}\n"
                               for key, val in zip(flags[::2], flags[1::2])))
        by_flags, by_file = tmp_path / "flags.out", tmp_path / "file.out"
        assert main([command, *flags, "--out", str(by_flags)]) == 0
        assert main([command, "--config", str(cfg), "--out", str(by_file)]) == 0
        # the config hash included: it names the run, not the input path
        assert by_file.read_bytes() == by_flags.read_bytes()


class TestExitCodes:
    def test_usage_error_unknown_command(self):
        assert main(["frobnicate"]) == 2

    def test_usage_error_missing_required(self, capsys):
        assert main(["nsc", "--measure", "l1"]) == 2
        assert "missing required" in capsys.readouterr().err

    def test_usage_error_bad_measure(self, null_111_matrix):
        assert main(["nsc", "--matrix", str(null_111_matrix), "--measure", "zap!",
                     "--k", "1"]) == 2

    @pytest.mark.parametrize("spec", ["l1(p=2)", "lp", "lp(q=1)", "mcp_zap", "scad(b=1)",
                                      "l0(x=1)", "exp_ce1(a=1)", "foo"])
    def test_bad_measure_parameters_are_usage_errors(self, null_111_matrix, spec, capsys):
        assert main(["nsc", "--matrix", str(null_111_matrix), "--measure", spec,
                     "--k", "1"]) == 2
        assert capsys.readouterr().err.startswith("nsp-lab: error: ")

    def test_boundary_grid_too_small_is_usage_error(self, tmp_path):
        out = tmp_path / "region.dat"
        assert main(["boundary", "--measure", "l1", "--grid", "1x1", "--out", str(out)]) == 2
        assert not out.exists()

    def test_non_finite_radius_is_usage_error(self, capsys):
        assert main(["mc", "--n", "4", "--m", "2", "--k", "1", "--trials", "2",
                     "--d-grid", "nan"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_mc_all_trials_failed(self, monkeypatch, capsys):
        from nsp_lab import experiments

        def fails(*args):
            raise ValueError("scan failed")

        monkeypatch.setattr(experiments, "_validated_scans", fails)
        assert main(["mc", "--n", "4", "--m", "2", "--k", "1", "--trials", "3"]) == 1
        out = capsys.readouterr()
        assert "all 3 trials failed" in out.err
        assert out.out == ""

    @pytest.mark.parametrize("args, reason", [
        (["--n", "24", "--m", "12", "--k", "8"], "enumeration cap"),
        (["--n", "6", "--m", "3", "--k", "1", "--source", "file"], "is 3x5, not m x n = 3x6"),
        (["--n", "5", "--m", "2", "--k", "1", "--source", "file"], "is 3x5, not m x n = 2x5"),
    ])
    def test_mc_rejects_a_bad_problem_before_any_trial(self, tmp_path, capsys, args, reason):
        # past the support cap, or with a file matrix of another shape than
        # m x n, no trial runs: the run exits 2 with the reason, not 1
        # with every trial failed, nor 0 with a config hash for the wrong m
        path = tmp_path / "P.csv"
        write_matrix_csv(path, np.array([[1, 2, -3, 2, 0], [0, 1, -1, 3, -3],
                                         [-2, -1, 0, -1, -3]], dtype=float))
        assert main(["mc", *args, "--trials", "3", "--matrix", str(path)]) == 2
        out = capsys.readouterr()
        assert reason in out.err and out.out == ""

    def test_mc_rejects_repeated_radii(self, capsys):
        assert main(["mc", "--n", "5", "--m", "3", "--k", "1", "--trials", "3",
                     "--d-grid", "0.05,0.05"]) == 2
        out = capsys.readouterr()
        assert "distinct" in out.err and out.out == ""

    def test_non_finite_matrix_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "A.csv"
        path.write_text("# 2 3\n1,0,inf\n0,1,1\n")
        assert main(["nsc", "--matrix", str(path), "--measure", "l1", "--k", "1"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_non_finite_noise_level_is_usage_error(self, null_111_matrix, tmp_path, capsys):
        y_path = tmp_path / "y.csv"
        write_matrix_csv(y_path, np.array([[1.0, 2.0]]))
        for eps in ("nan", "inf"):
            assert main(["recover", "--matrix", str(null_111_matrix), "--y", str(y_path),
                         "--measure", "l1", "--k", "1", "--eps", eps]) == 2
            assert "finite" in capsys.readouterr().err

    def test_noisy_recover_takes_no_method(self, null_111_matrix, tmp_path, capsys):
        # --method names a noiseless solver; the noisy solve has one
        y_path = tmp_path / "y.csv"
        write_matrix_csv(y_path, np.array([[1.0, 2.0]]))
        assert main(["recover", "--matrix", str(null_111_matrix), "--y", str(y_path),
                     "--measure", "l1", "--k", "1", "--eps", "0.1", "--method", "descent"]) == 2
        out = capsys.readouterr()
        assert "--eps 0" in out.err and out.out == ""

    def test_infeasible_solve_is_usage_error(self, null_111_matrix, tmp_path, capsys,
                                             monkeypatch):
        y_path = tmp_path / "y.csv"
        write_matrix_csv(y_path, np.array([[1.0, 2.0]]))
        monkeypatch.setattr(solver, "_project_columns", lambda a, x, y, radius: x)
        assert main(["recover", "--matrix", str(null_111_matrix), "--y", str(y_path),
                     "--measure", "lp(p=0.5)", "--k", "1", "--eps", "0.1"]) == 2
        assert "within epsilon" in capsys.readouterr().err

    def test_infeasible_homotopy_solve_is_usage_error(self, null_111_matrix, tmp_path, capsys,
                                                      monkeypatch):
        y_path = tmp_path / "y.csv"
        write_matrix_csv(y_path, np.array([[1.0, 2.0]]))
        monkeypatch.setattr(solver, "_lasso_path", lambda a, y, radius: (np.zeros(3), 1.0, 1))
        assert main(["recover", "--matrix", str(null_111_matrix), "--y", str(y_path),
                     "--measure", "l1", "--k", "1", "--eps", "0.1"]) == 2
        assert "within epsilon" in capsys.readouterr().err

    def test_non_finite_width_radius_is_usage_error(self, capsys):
        assert main(["width", "--measure", "l1", "--n", "4", "--k", "1", "--draws", "50",
                     "--d", "nan"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_suite_unknown_name_is_usage_error(self):
        assert main(["suite", "--name", "everything"]) == 2

    @pytest.mark.parametrize("command, lines", [
        ("nsc", "matrix={a}\nmeasure=l1\nk=1\nformat=xml\n"),
        ("mc", "n=4\nm=2\nk=1\ntrials=2\ntrails=5\n"),
        ("probe", "matrix={a}\nmeasure=l1\nk=1\nd=nan\n"),
    ])
    def test_bad_config_value_is_usage_error(self, null_111_matrix, tmp_path, capsys,
                                             command, lines):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines.format(a=null_111_matrix))
        out = tmp_path / "out.txt"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--beta", "inf", "--gamma", "2"],
        ["--beta", "100", "--gamma-sweep", "62:inf:1"],
    ])
    def test_non_finite_tradeoff_is_usage_error(self, flags, capsys):
        assert main(["tradeoff", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("nsp-lab: error:") and err.count("\n") == 1
        assert "finite" in err

    @pytest.mark.parametrize("domain", ["nan,2", "inf,2"])
    def test_non_finite_boundary_domain_is_usage_error(self, tmp_path, capsys, domain):
        out = tmp_path / "region.dat"
        assert main(["boundary", "--measure", "l1", "--grid", "3x3", "--domain", domain,
                     "--out", str(out)]) == 2
        assert not out.exists()
        assert "finite" in capsys.readouterr().err


class TestSuiteRuns:
    def test_quick_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "bundle.json"
        code = main(["suite", "--name", "quick", "--out", str(out)])
        assert code == 0
        bundle = json.loads(out.read_text())
        assert bundle["passed"] is True
        names = [c["name"] for c in bundle["criteria"]]
        assert "counterexample" in names
        text = capsys.readouterr().out
        assert text.count("[PASS]") == len(names)

    def test_corrupted_mcp_fails_comparison_rules(self, tmp_path):
        # mutation test: flipping the sign of the knee parameter destroys
        # the positive slope limit at zero, and the suite must notice
        def corrupted(t, _a=-2.0):
            u = _a * t
            return np.where(u < 1.0, u * (2.0 - u), 1.0)

        bad = SparsenessMeasure("mcp_zap", fn=corrupted, params={"alpha": -2.0},
                                non_decreasing=True, subadditive=True)
        out = tmp_path / "bundle.json"
        report = run_suite("quick", seed=0, out_path=out,
                           overrides={"mcp_zap": bad}, verbose=False)
        assert report.exit_status == 1
        failed = [r.name for r in report.results if not r.passed]
        assert "comparison_rules" in failed
