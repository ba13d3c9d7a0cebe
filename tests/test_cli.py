import dataclasses

import numpy as np
import pytest

from disco import SolverConfig, solver
from disco.harness import write_libsvm
from disco.harness.cli import build_parser, main
from disco.harness.trace import TRACE_HEADER

from conftest import make_dense_instance


def run_cli(*args):
    return main(list(args))


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    assert lines[0] == TRACE_HEADER
    return [line.split(",") for line in lines[1:]]


def strip_wall(path):
    """Trace content without the (timing-dependent) wall_ms column."""
    return ["," .join(row[:-1]) for row in read_rows(path)]


class TestRuns:
    def test_synthetic_both_modes_agree_at_one_node(self, tmp_path, capsys):
        ws = {}
        for mode in ("samples", "features"):
            trace = tmp_path / f"{mode}.csv"
            code = run_cli(
                "--synthetic", "10,40,0.5,0.1,3", "--partition", mode, "--nodes", "1",
                "--lambda", "0.1", "--mu", "0.1", "--tol", "1e-9", "--trace", str(trace),
            )
            assert code == 0
            ws[mode] = read_rows(trace)[-1][1]  # final grad norm column
        out = capsys.readouterr().out
        assert "converged" in out
        # identical final gradient norms at m=1 (bit-identical trajectories)
        assert ws["samples"] == ws["features"]

    def test_trace_rows_match_outer_iterations(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        assert run_cli("--synthetic", "8,30,0.6,0.1,4", "--trace", str(trace), "--tol", "1e-9") == 0
        out = capsys.readouterr().out
        n_updates = int(out.split("outer iterations: ")[1].split(" ")[0])
        assert "inner solves stopped at max_inner: 0" in out
        rows = read_rows(trace)
        assert len(rows) == n_updates + 1  # one row per gradient evaluation

    def test_feature_mode_communicates_less_on_wide_data(self, tmp_path, capsys):
        # d > n: the feature layout exchanges length-n payloads instead of
        # length-d ones
        totals = {}
        for mode in ("samples", "features"):
            assert run_cli(
                "--synthetic", "300,50,0.1,0.1,5", "--partition", mode, "--nodes", "4",
                "--tau", "12", "--tol", "1e-7",
            ) == 0
            out = capsys.readouterr().out
            totals[mode] = int(out.split("total bytes: ")[1].split("\n")[0])
        assert totals["features"] < totals["samples"]

    @pytest.mark.parametrize("mode", ["samples", "features"])
    def test_synthetic_logistic(self, capsys, mode):
        # the generated real-valued labels are mapped to y > 0 -> +1, else -1
        assert run_cli(
            "--synthetic", "20,50,0.3,0.1,1", "--loss", "logistic", "--partition", mode, "--nodes", "2",
        ) == 0
        assert "(converged)" in capsys.readouterr().out

    def test_default_tau_shared_by_both_layouts(self, monkeypatch):
        # tau defaults to min(1000, master's sample shard) in both layouts, so
        # they build the same preconditioner: every build of either layout's
        # builder resolves the master's 25 samples
        taus = {"samples": [], "features": []}
        block_preconditioner = solver._block_preconditioner

        def recording(config, part, tau, margins):
            taus[config.partition_mode.value].append(tau)
            return block_preconditioner(config, part, tau, margins)

        monkeypatch.setattr(solver, "_block_preconditioner", recording)
        for mode in taus:
            assert run_cli(
                "--synthetic", "20,50,0.3,0.1,1", "--loss", "logistic", "--partition", mode, "--nodes", "2",
            ) == 0
        assert taus["samples"] and set(taus["samples"]) == set(taus["features"]) == {25}, taus

    def test_synthetic_seed_defaults_to_zero(self, capsys):
        assert run_cli("--synthetic", "10,40,0.5,0.1", "--nodes", "2") == 0
        omitted = capsys.readouterr().out
        assert run_cli("--synthetic", "10,40,0.5,0.1,0", "--nodes", "2") == 0
        assert capsys.readouterr().out == omitted

    def test_libsvm_input(self, tmp_path, capsys):
        ds, _ = make_dense_instance(d=6, n=20, seed=170)
        data = tmp_path / "data.txt"
        write_libsvm(data, ds)
        assert run_cli("--data", str(data), "--lambda", "0.2", "--tol", "1e-8") == 0
        assert "d=6, n=20" in capsys.readouterr().out


def test_parser_defaults_are_solver_config_defaults():
    args = build_parser().parse_args(["--synthetic", "4,8,0.5,0.1"])
    defaults = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
    parsed = {"mu": args.mu, "tau": args.tau, "loss": args.loss, "theta": args.theta, "outer_tol": args.tol,
              "max_outer": args.max_outer, "max_inner": args.max_inner, "partition_mode": args.partition}
    assert parsed == {name: defaults[name] for name in parsed}


class TestDeterminism:
    def test_identical_runs_identical_traces(self, tmp_path):
        args = ["--synthetic", "12,48,0.4,0.05,7", "--nodes", "3", "--partition", "features",
                "--tau", "10", "--tol", "1e-9"]
        t1, t2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert run_cli(*args, "--trace", str(t1)) == 0
        assert run_cli(*args, "--trace", str(t2)) == 0
        assert strip_wall(t1) == strip_wall(t2)


class TestErrors:
    def test_missing_source_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("--nodes", "2")
        assert exc.value.code == 2

    def test_scheduler_flag_is_unknown(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("--synthetic", "10,20,0.5,0.1", "--scheduler", "parallel")
        assert exc.value.code == 2

    def test_seed_flag_is_unknown(self):
        # the seed is the optional fifth field of --synthetic
        with pytest.raises(SystemExit) as exc:
            run_cli("--synthetic", "10,20,0.5,0.1,1", "--seed", "9")
        assert exc.value.code == 2

    def test_dim_with_synthetic_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--synthetic", "10,20,0.5,0.1,1", "--dim", "12")
        assert exc.value.code == 2
        assert "--dim" in capsys.readouterr().err

    def test_infinite_tolerance_rejected(self, capsys):
        # before, every gradient norm passed the test and the run "converged"
        # after 0 iterations
        assert run_cli("--synthetic", "20,50,0.3,0.1,1", "--nodes", "2", "--tol", "inf") == 1
        assert "outer_tol must be finite" in capsys.readouterr().err

    def test_theta_of_one_rejected(self, capsys):
        # before, eps_k = ||grad|| accepted the zero direction at every step:
        # 50 outer iterations that changed nothing, and exit code 0
        assert run_cli("--synthetic", "20,40,0.5,0.1,1", "--nodes", "2", "--theta", "1") == 1
        assert "theta must be below 1" in capsys.readouterr().err

    def test_mu_of_zero_rejected(self, capsys):
        # DiSCO's preconditioner is curvature plus mu*I with mu > 0
        assert run_cli("--synthetic", "20,40,0.5,0.1,1", "--nodes", "2", "--mu", "0") == 1
        assert "mu must be positive" in capsys.readouterr().err

    def test_nan_noise_rejected(self, capsys):
        # before, a NaN noise level solved the noise-free problem
        assert run_cli("--synthetic", "40,30,0.2,nan,1") == 1
        assert "noise must be non-negative and finite" in capsys.readouterr().err

    def test_negative_seed_is_named(self, capsys):
        # before, numpy's "expected non-negative integer" named no field
        assert run_cli("--synthetic", "10,20,0.3,0.1,-1") == 1
        assert "error: seed must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_bad_synthetic_spec(self, capsys):
        assert run_cli("--synthetic", "10,20") == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, field, text", [
        ("4e1,40,0.5,0.1", "d", "4e1"),
        ("40,4.5,0.5,0.1", "n", "4.5"),
        ("40,40,half,0.1", "density", "half"),
        ("40,40,0.5,,1", "noise", ""),
        ("40,40,0.5,0.1,x", "seed", "x"),
    ], ids=["d", "n", "density", "noise", "seed"])
    def test_bad_synthetic_field_is_named(self, capsys, spec, field, text):
        # before, "40,4.5,0.5,0.1" printed only int()'s own message
        assert run_cli("--synthetic", spec) == 1
        expected = "a number" if field in ("density", "noise") else "an integer"
        assert f"error: --synthetic field {field} must be {expected}, got {text!r}" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run_cli("--data", "/nonexistent/file.txt") == 1
        assert "error" in capsys.readouterr().err

    def test_impossible_partition(self, capsys):
        # more nodes than samples
        assert run_cli("--synthetic", "10,3,0.5,0.0,1", "--nodes", "4") == 1
        assert "error" in capsys.readouterr().err


    def test_non_finite_data_names_path_and_line(self, tmp_path, capsys):
        data = tmp_path / "data.txt"
        data.write_text("1 1:0.5\n-1 2:nan\n")
        assert run_cli("--data", str(data)) == 1
        assert f"{data}:2: non-finite" in capsys.readouterr().err
