"""Command line flows and exit codes, driven in-process through main()."""

import dataclasses
import json

import pytest

from varnpf.cli import main
from varnpf.harness import ExperimentConfig, RunMetrics
from varnpf.io import load_config_file, read_summary_csv, write_config_file

SUMMARY_FIELDS = [f.name for f in dataclasses.fields(RunMetrics)]


def write_config(tmp_path, **kwargs):
    kwargs.setdefault("particles", 3)
    kwargs.setdefault("t_final", 0.5)
    path = tmp_path / "config.yaml"
    write_config_file(ExperimentConfig(**kwargs), path)
    return path


def assert_config_error(tmp_path, capsys, text, key, command):
    """``command`` on a var_npf config with ``text`` appended exits 1 with
    a config error naming ``key``, before writing anything."""
    path = tmp_path / "bad.yaml"
    path.write_text(f"filter_name: var_npf\nt_final: 0.5\n{text}\n")
    out = tmp_path / "out"
    argv = ["--config", str(path), "--out", str(out)]
    if command == "mc":
        argv += ["--runs", "1", "--filters", "pf"]
    code = main([command, *argv])
    captured = capsys.readouterr()
    assert code == 1
    assert "config error" in captured.err
    assert key in captured.err
    assert not out.exists()


class TestRunCommand:
    def test_run_writes_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed=70)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert (out / "record.csv").exists()
        assert (out / "meta.json").exists()
        assert "rmse=" in captured.out
        meta = json.loads((out / "meta.json").read_text())
        assert meta["kind"] == "run"

    def test_filter_and_seed_overrides(self, tmp_path):
        cfg = write_config(tmp_path, seed=70)
        out = tmp_path / "out"
        code = main([
            "run", "--config", str(cfg), "--filter", "var-npf",
            "--seed", "99", "--out", str(out),
        ])
        assert code == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["config"]["filter_name"] == "var_npf"
        assert meta["config"]["seed"] == 99

    def test_run_without_out_prints_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed=71)
        code = main(["run", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 0
        assert "wrote" not in captured.out

    def test_failed_run_exits_two(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, seed=72, ensemble_mean=(1e8, 1e8, 1e8)
        )
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "run failed" in captured.err
        # artifacts still land for post-mortem reading
        assert (out / "record.csv").exists()


class TestMcCommand:
    def test_sweep_and_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed=73)
        out = tmp_path / "sweep"
        code = main([
            "mc", "--config", str(cfg), "--runs", "1", "--ics", "0,1",
            "--filters", "pf", "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert (out / "summary.csv").exists()
        assert (out / "meta.json").exists()
        assert "pooled over initial conditions:" in captured.out

        code = main(["report", "--in", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "pooled over initial conditions:" in captured.out

    def test_progress_line_per_pair_on_stderr(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed=75)
        out = tmp_path / "sweep"
        code = main([
            "mc", "--config", str(cfg), "--runs", "2", "--ics", "0,1",
            "--filters", "pf,npf", "--out", str(out),
        ])
        assert code == 0
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 4
        for done, (ic, run) in enumerate(
            [(0, 0), (0, 1), (1, 0), (1, 1)], 1
        ):
            line = lines[done - 1]
            assert line.startswith(
                f"mc: pair {done}/4 done (ic {ic}, run {run}), "
            )
            assert line.endswith(" s") and " elapsed, eta " in line
        assert lines[-1].endswith("eta 0.0 s")
        # stdout keeps only the table and the paths; summary.csv its rows
        assert "mc: pair" not in captured.out
        assert captured.out.splitlines()[-1].startswith("wrote ")
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == ",".join(SUMMARY_FIELDS)
        assert len(summary) == 1 + 4 * 2

    def test_all_failed_exits_two(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, seed=74, ensemble_mean=(1e8, 1e8, 1e8)
        )
        out = tmp_path / "sweep"
        code = main([
            "mc", "--config", str(cfg), "--runs", "1", "--filters", "pf",
            "--out", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "every run failed" in captured.err

    def test_selected_condition_runs_as_in_the_full_sweep(
        self, tmp_path, capsys
    ):
        cfg = write_config(tmp_path, seed=0)
        rows = {}
        for ics in ("3", "all"):
            out = tmp_path / ics
            code = main([
                "mc", "--config", str(cfg), "--runs", "1", "--ics", ics,
                "--filters", "pf", "--out", str(out),
            ])
            assert code == 0
            rows[ics] = read_summary_csv(out / "summary.csv")
        [row] = rows["3"]
        [want] = [r for r in rows["all"] if r.ic_index == 3]
        assert row.ic_index == 3
        assert row.truth_digest == want.truth_digest
        assert row.rmse == want.rmse and row.avg_ness == want.avg_ness
        meta = json.loads((tmp_path / "3" / "meta.json").read_text())
        assert meta["ic_indices"] == [3]
        assert [r["ic_index"] for r in meta["aggregate"]] == [3]
        # the report shows the condition that ran and no others
        capsys.readouterr()
        assert main(["report", "--in", str(tmp_path / "3")]) == 0
        table = capsys.readouterr().out.splitlines()
        rows = table[1:table.index("")]
        assert [line.split()[:2] for line in rows] == [["3", "pf"]]

    def test_repeated_ics_index_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed=75)
        code = main([
            "mc", "--config", str(cfg), "--runs", "1", "--ics", "3,1,3",
            "--out", str(tmp_path / "x"),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "repeats" in captured.err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("spec", ["pf,pf", "var-npf,var_npf"])
    def test_repeated_filter_exits_one(self, tmp_path, capsys, spec):
        cfg = write_config(tmp_path, seed=75)
        code = main([
            "mc", "--config", str(cfg), "--runs", "1", "--ics", "3",
            "--filters", spec, "--out", str(tmp_path / "x"),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "config error" in captured.err and "twice" in captured.err
        assert not (tmp_path / "x").exists()

    def test_bad_ics_value_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed=75)
        code = main([
            "mc", "--config", str(cfg), "--runs", "1", "--ics", "99",
            "--out", str(tmp_path / "x"),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "config error" in captured.err


class TestErrorPaths:
    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("bogus_key: 1\n")
        code = main(["run", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "bogus_key" in captured.err

    @pytest.mark.parametrize("key, value", [
        ("max_iterations", -5),
        ("regularization_eps", 0.0),
        ("bound_sigmas", -1.0),
    ])
    def test_bad_variational_setting_exits_one(
        self, tmp_path, capsys, key, value
    ):
        path = tmp_path / "bad.yaml"
        path.write_text(
            f"filter_name: var_npf\nt_final: 0.5\nvariational:\n"
            f"  {key}: {value}\n"
        )
        code = main(["run", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "config error" in captured.err
        assert key in captured.err

    @pytest.mark.parametrize("text, key", [
        ("seed: -1", "seed"),
        ("ic_index: -1", "ic_index"),
        ("run_index: -2", "run_index"),
        ("particles: 2.5", "particles"),
        ("seed: true", "seed"),
        ("nudging:\n  subintervals: 2.5", "subintervals"),
        ("nudging:\n  batch_size: 1.5", "batch_size"),
        ("nudging:\n  max_batches: 3.0", "max_batches"),
        ("variational:\n  max_iterations: 10.5", "max_iterations"),
    ])
    @pytest.mark.parametrize("command", ["run", "mc"])
    def test_bad_integer_setting_exits_one(
        self, tmp_path, capsys, text, key, command
    ):
        assert_config_error(tmp_path, capsys, text, key, command)

    @pytest.mark.parametrize("text, key", [
        ("t_final: .inf", "t_final"),
        ("dt: .nan", "dt"),
        ("dt_obs: .inf", "dt_obs"),
        ("obs_operator: [[1, 0, 0], [0, 1, 0]]", "obs_noise_cov"),
        ("obs_operator: [1, 0, 0]", "obs_operator"),
        ("obs_operator: [[1, 0], [0, 1]]\nobs_noise_cov: [[1, 0], [0, 1]]",
         "obs_operator"),
        ("ensemble_mean: [1.0, 2.0]", "ensemble_mean"),
        ("truth_init: [a, b, c]", "truth_init"),
        ("resample_threshold: .nan", "resample_threshold"),
        ("nudging:\n  rollback_log_threshold: .nan", "rollback_log_threshold"),
        ("ensemble_cov_scale: .inf", "ensemble_cov_scale"),
        ("model:\n  diffusion: [[2, 1], [1, 2]]", "diffusion"),
        ("truth_init: [.nan, -1.5, 25.0]", "truth_init"),
        ("ensemble_mean: [1.5, .inf, 25.0]", "ensemble_mean"),
        # removed switches: unknown keys
        ('resample: "false"', "resample"),
        ("resample: 0", "resample"),
        ("variational:\n  skip_variational: 1", "skip_variational"),
        ('variational:\n  reweight_with_pseudo: "true"',
         "reweight_with_pseudo"),
        ("variational:\n  resolve_per_subinterval: yes_please",
         "resolve_per_subinterval"),
        ('variational:\n  resolve_per_subinterval: "false"',
         "resolve_per_subinterval"),
        ("variational:\n  reweight_with_pseudo: 0", "reweight_with_pseudo"),
        ("variational:\n  resolve_per_subinterval: 1",
         "resolve_per_subinterval"),
    ])
    @pytest.mark.parametrize("command", ["run", "mc"])
    def test_malformed_setting_exits_one(
        self, tmp_path, capsys, text, key, command
    ):
        assert_config_error(tmp_path, capsys, text, key, command)

    def test_negative_seed_override_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed=70)
        code = main(["run", "--config", str(cfg), "--seed", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "seed must be >= 0" in captured.err

    def test_usage_error_exits_one(self, capsys):
        assert main(["run"]) == 1
        capsys.readouterr()

    def test_unknown_command_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_report_without_summary_exits_one(self, tmp_path, capsys):
        code = main(["report", "--in", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "config error" in captured.err

    @pytest.mark.parametrize("text,problem", [
        (",".join(SUMMARY_FIELDS) + "\npf,0,0\n", "line 2"),
        (
            ",".join(SUMMARY_FIELDS) + "\npf,0,0,0,abc"
            + ",0" * (len(SUMMARY_FIELDS) - 5) + "\n",
            "line 2",
        ),
        ("", "header"),
    ], ids=["short_row", "non_numeric_cell", "empty_file"])
    def test_report_on_malformed_summary_exits_one(
        self, tmp_path, capsys, text, problem
    ):
        (tmp_path / "summary.csv").write_text(text)
        code = main(["report", "--in", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert problem in captured.err

    def test_undecodable_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"seed: 3\n# \xff\n")
        code = main(["run", "--config", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "config error" in captured.err
        assert f"{path} is not UTF-8 text" in captured.err

    def test_report_on_undecodable_summary_exits_one(self, tmp_path, capsys):
        path = tmp_path / "summary.csv"
        path.write_bytes(",".join(SUMMARY_FIELDS).encode() + b"\n\xff\n")
        code = main(["report", "--in", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert f"{path} is not UTF-8 text" in captured.err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestConfigFidelity:
    def test_cli_round_trip_preserves_config(self, tmp_path):
        cfg_path = write_config(
            tmp_path, seed=76, filter_name="npf", particles=5
        )
        loaded = load_config_file(cfg_path)
        assert loaded.filter_name == "npf"
        assert loaded.particles == 5
        assert loaded.seed == 76
