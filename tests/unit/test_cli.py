"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["run", "fig6a"]).scenario == "fig6a"
        assert parser.parse_args(["run", "--list"]).list_scenarios

    def test_lint_is_listed_and_dispatched(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "lint" in capsys.readouterr().out
        assert main(["lint", "--list-rules"]) == 0
        assert "R001" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["motivational", "synthetic", "cruise-control"])
    def test_removed_legacy_subcommands_are_rejected(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])

    def test_run_accepts_config_flags(self):
        arguments = build_parser().parse_args(
            ["run", "fig6a", "--preset", "smoke", "--jobs", "2", "--seed", "9"]
        )
        assert arguments.preset == "smoke"
        assert arguments.jobs == 2
        assert arguments.seed == 9

    @pytest.mark.parametrize("flag", ["--sfp-kernel", "--sched-kernel"])
    def test_removed_kernel_flags_are_rejected(self, flag, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["run", "fig6a", flag, "reference"])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_run_accepts_repeated_param_flags(self):
        arguments = build_parser().parse_args(
            ["run", "synthetic-random",
             "--param", "n_processes=100", "--param", "seed=7"]
        )
        assert arguments.params == [("n_processes", "100"), ("seed", "7")]

    def test_param_values_may_contain_equals_signs(self):
        arguments = build_parser().parse_args(
            ["run", "synthetic-random", "--param", "label=a=b"]
        )
        assert arguments.params == [("label", "a=b")]

    def test_malformed_param_rejected_at_parse_time(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "synthetic-random", "--param", "n_processes"])
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "synthetic-random", "--param", "=5"])


class TestRunCommand:
    def test_list_prints_all_scenarios(self, capsys):
        exit_code = main(["run", "--list"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        for scenario_id in ("fig6a", "fig6b", "fig6c", "fig6d",
                            "motivational", "cruise-control"):
            assert scenario_id in captured

    def test_list_shows_parameter_schemas(self, capsys):
        exit_code = main(["run", "--list"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "--param n_processes:int=20 [1..2000]" in captured
        assert "--param runs:int=20000" in captured

    def test_param_overrides_reach_the_scenario(self, tmp_path, capsys):
        output = tmp_path / "report.json"
        exit_code = main(
            ["run", "synthetic-random", "--preset", "smoke", "--output", str(output),
             "--param", "n_processes=8", "--param", "seed=3"]
        )
        capsys.readouterr()
        assert exit_code == 0
        report = json.loads(output.read_text(encoding="utf-8"))
        assert report["params"]["n_processes"] == 8
        assert report["params"]["seed"] == 3
        assert report["params"]["n_node_types"] == 4  # declared default
        assert report["config"]["scenario_params"] == {"n_processes": "8", "seed": "3"}
        assert report["results"]["benchmark"]["n_processes"] == 8

    def test_cache_dir_run_releases_the_store_lock(self, tmp_path, capsys):
        """A store-backed CLI run holds the store's single-flight lock; the
        lock must be gone afterwards, or the next run sharing the store waits."""
        store = tmp_path / "store"
        reports = []
        for name in ("cold.json", "warm.json"):
            output = tmp_path / name
            exit_code = main(
                ["run", "synthetic-random", "--preset", "smoke", "--output", str(output),
                 "--cache-dir", str(store), "--param", "n_processes=8", "--param", "seed=3"]
            )
            capsys.readouterr()
            assert exit_code == 0
            assert not list(store.glob("*.lock"))
            reports.append(json.loads(output.read_text(encoding="utf-8")))
        cold, warm = reports
        assert warm["cache"]["points_computed"] == 0
        assert warm["cache"]["disk_hits"] > 0
        assert warm["results"] == cold["results"]

    def test_invalid_param_value_is_a_clean_error(self, capsys):
        exit_code = main(
            ["run", "synthetic-random", "--param", "n_processes=zero"]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "expects int" in captured.err

    def test_param_on_parameterless_scenario_is_a_clean_error(self, capsys):
        exit_code = main(["run", "fig6a", "--param", "n_processes=5"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "accepts no parameters" in captured.err

    def test_negative_seed_is_a_clean_error(self, capsys):
        exit_code = main(["run", "fig6a", "--seed", "-3"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "seed must be >= 0" in captured.err

    def test_missing_scenario_is_an_error(self, capsys):
        exit_code = main(["run"])
        assert exit_code == 2
        assert "scenario id is required" in capsys.readouterr().err

    def test_unwritable_output_is_a_clean_error_before_the_run(self, tmp_path, capsys):
        output = tmp_path / "missing" / "report.json"
        exit_code = main(["run", "motivational", "--output", str(output)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith(f"error: cannot write the report to {output}")
        assert captured.out == ""  # the scenario never ran
        assert not output.exists()

    def test_unusable_cache_dir_is_a_clean_error_before_the_run(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        cache_dir = blocker / "store"
        exit_code = main(["run", "fig6a", "--preset", "smoke", "--cache-dir", str(cache_dir)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith(f"error: cannot use the cache directory {cache_dir}")
        assert captured.out == ""

    def test_unknown_scenario_is_a_clean_error(self, capsys):
        exit_code = main(["run", "fig6x"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "Unknown scenario" in captured.err
        assert "fig6a" in captured.err  # the known list helps recovery

    @pytest.mark.parametrize("variable", ["REPRO_SFP_KERNEL", "REPRO_SCHED_KERNEL"])
    def test_former_kernel_env_vars_are_ignored(self, variable, monkeypatch, capsys):
        # A name no backend ever had: read by anything, it would be an error.
        monkeypatch.setenv(variable, "no-such-backend")
        assert main(["run", "motivational"]) == 0
        assert "evaluation engine: " in capsys.readouterr().out

    def test_runs_a_scenario_and_prints_summary(self, capsys):
        exit_code = main(["run", "fig6a", "--preset", "smoke"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Fig. 6a" in captured
        assert "evaluation engine: " in captured
        assert "kernel" not in captured
        assert "scenario fig6a" in captured

    def test_writes_a_structured_report(self, tmp_path, capsys):
        output = tmp_path / "report.json"
        exit_code = main(
            ["run", "fig6a", "--preset", "smoke", "--output", str(output)]
        )
        assert exit_code == 0
        report = json.loads(output.read_text(encoding="utf-8"))
        assert report["scenario"] == "fig6a"
        assert report["config"]["preset"] == "smoke"
        assert "acceptance" in report["results"]

    def test_motivational_prints_fig3_and_fig4_tables(self, capsys):
        exit_code = main(["run", "motivational"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Fig. 3" in captured
        assert "Fig. 4" in captured
        assert "Appendix A.2" in captured
        assert "680.0" in captured  # the unschedulable N1^1 alternative

    def test_motivational_writes_json_output(self, tmp_path, capsys):
        output = tmp_path / "motivational.json"
        exit_code = main(["run", "motivational", "--output", str(output)])
        capsys.readouterr()
        assert exit_code == 0
        report = json.loads(output.read_text(encoding="utf-8"))
        assert report["scenario"] == "motivational"
        assert set(report["results"]) == {"fig3", "fig4", "appendix"}

    def test_cruise_control_writes_json_output(self, tmp_path, capsys):
        output = tmp_path / "cruise.json"
        exit_code = main(["run", "cruise-control", "--output", str(output)])
        capsys.readouterr()
        assert exit_code == 0
        report = json.loads(output.read_text(encoding="utf-8"))
        assert report["scenario"] == "cruise-control"
        assert set(report["results"]) == {"outcomes", "opt_saving_vs_max"}

    def test_cruise_control_prints_study_table(self, capsys):
        exit_code = main(["run", "cruise-control"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Cruise controller" in captured
        assert "OPT cost saving over MAX" in captured


class TestServeCommand:
    def test_serve_flags_parse(self):
        parser = build_parser()
        arguments = parser.parse_args(
            [
                "serve",
                "--port", "9000",
                "--workers", "4",
                "--queue-size", "8",
                "--job-timeout", "30",
                "--sanitize",
            ]
        )
        assert arguments.command == "serve"
        assert arguments.port == 9000
        assert arguments.workers == 4
        assert arguments.queue_size == 8
        assert arguments.job_timeout == 30.0
        assert arguments.sanitize is True

    @pytest.mark.parametrize("flag", ["--workers", "--queue-size"])
    def test_degenerate_counts_rejected_at_parse_time(self, flag):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", flag, "0"])

    def test_serve_builds_the_config_and_delegates(self, monkeypatch, tmp_path):
        import repro.serve

        seen = {}

        def fake_run_server(config):
            seen["config"] = config
            return 0

        monkeypatch.setattr(repro.serve, "run_server", fake_run_server)
        exit_code = main(
            [
                "serve",
                "--port", "9100",
                "--workers", "3",
                "--spool-dir", str(tmp_path / "spool"),
            ]
        )
        assert exit_code == 0
        config = seen["config"]
        assert config.host == "127.0.0.1"
        assert config.port == 9100
        assert config.workers == 3
        assert config.spool_dir == tmp_path / "spool"

    def test_degenerate_timeout_is_a_clean_error(self, capsys):
        exit_code = main(["serve", "--job-timeout", "-1"])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, role", [("--cache-dir", "cache"), ("--spool-dir", "spool")])
    def test_unusable_serve_directory_is_a_clean_error_before_serving(
        self, monkeypatch, tmp_path, capsys, flag, role
    ):
        import repro.serve

        served = []
        monkeypatch.setattr(repro.serve, "run_server", lambda config: served.append(config) or 0)
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        directory = blocker / "x"
        exit_code = main(["serve", "--port", "0", flag, str(directory)])
        assert exit_code == 2
        assert served == []
        assert capsys.readouterr().err.startswith(
            f"error: cannot use the {role} directory {directory}"
        )

    @pytest.mark.parametrize(
        "flags",
        [["--job-timeout", "nan"], ["--job-timeout", "inf"], ["--port", "70000"], ["--port", "-1"]],
        ids=["nan-timeout", "inf-timeout", "port-above", "port-below"],
    )
    def test_out_of_range_serve_flags_exit_2_before_serving(self, monkeypatch, capsys, flags):
        import repro.serve

        served = []
        monkeypatch.setattr(repro.serve, "run_server", lambda config: served.append(config) or 0)
        assert main(["serve", *flags]) == 2
        assert served == []
        assert "error:" in capsys.readouterr().err
