"""Tests for the rtdvs command-line interface."""

import pytest

from repro.cli import main


class TestList:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table4" in out
        assert "laedf" in out
        assert "machine0" in out

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()


class TestSimulate:
    def test_paper_example(self, capsys):
        code = main(["simulate", "--tasks", "3:8,3:10,1:14",
                     "--policy", "laEDF", "--duration", "16"])
        assert code == 0
        assert "laEDF" in capsys.readouterr().out

    def test_trace_output(self, capsys):
        code = main(["simulate", "--tasks", "2:10", "--policy", "ccEDF",
                     "--duration", "20", "--trace"])
        assert code == 0
        assert "freq" in capsys.readouterr().out

    def test_fractional_demand(self, capsys):
        code = main(["simulate", "--tasks", "3:8", "--demand", "0.5",
                     "--duration", "16"])
        assert code == 0

    def test_machine_choice(self, capsys):
        code = main(["simulate", "--tasks", "3:8", "--machine", "k6-2+",
                     "--duration", "16"])
        assert code == 0

    def test_bad_task_spec(self, capsys):
        assert main(["simulate", "--tasks", "oops"]) == 2

    def test_misses_reported_as_failure(self, capsys):
        # Overloaded set at a fixed half speed: misses -> exit code 1.
        code = main(["simulate", "--tasks", "9:10,5:10",
                     "--policy", "EDF", "--duration", "20"])
        assert code == 1


class TestRun:
    @pytest.mark.parametrize("command", [
        ["run", "fig9"], ["run-all"], ["submit", "fig9"],
        ["worker", "--connect", ":9"]])
    def test_batch_engine_is_an_argparse_error(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--engine", "batch"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'batch'" in capsys.readouterr().err

    def test_run_table4(self, capsys):
        assert main(["run", "table4", "--no-charts"]) == 0
        out = capsys.readouterr().out
        assert "0.440" in out

    def test_run_with_csv(self, capsys, tmp_path):
        code = main(["run", "table1", "--csv", str(tmp_path)])
        assert code == 0
        assert list(tmp_path.glob("table1*.csv"))


class TestRunAll:
    def test_run_all_with_output(self, capsys, tmp_path, monkeypatch):
        import repro.experiments.runall as runall_module
        from repro.experiments import table1
        monkeypatch.setattr(runall_module, "ALL_EXPERIMENTS",
                            {"table1": table1.run})
        code = main(["run-all", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "report.md").exists()
        assert "table1" in capsys.readouterr().out


class TestWorkloads:
    def test_list(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "camcorder" in out and "U=" in out

    def test_simulate_named(self, capsys):
        assert main(["workloads", "medical", "--policy", "ccEDF"]) == 0
        assert "ccEDF" in capsys.readouterr().out

    def test_unknown_workload(self, capsys):
        assert main(["workloads", "toaster"]) == 2


class TestCompare:
    def test_compare_tasks(self, capsys):
        code = main(["compare", "--tasks", "3:8,3:10,1:14",
                     "--demand", "0.5",
                     "--policies", "EDF,laEDF"])
        assert code == 0
        out = capsys.readouterr().out
        assert "| EDF |" in out and "| laEDF |" in out

    def test_compare_workload(self, capsys):
        code = main(["compare", "--workload", "medical"])
        assert code == 0
        assert "vs ref" in capsys.readouterr().out

    def test_unknown_workload(self, capsys):
        assert main(["compare", "--workload", "toaster"]) == 2

    def test_bad_tasks(self, capsys):
        assert main(["compare", "--tasks", "zzz"]) == 2


class TestValidate:
    def test_valid_schedule(self, capsys):
        code = main(["validate", "--tasks", "3:8,3:10,1:14",
                     "--policy", "laEDF", "--duration", "56"])
        assert code == 0
        assert "validated" in capsys.readouterr().out

    def test_bad_spec(self, capsys):
        assert main(["validate", "--tasks", "nope"]) == 2

    def test_fractional_demand(self, capsys):
        code = main(["validate", "--tasks", "2:10", "--demand", "0.5",
                     "--duration", "40"])
        assert code == 0


class TestObs:
    def _archive(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        for policy in ("ccEDF", "laEDF"):
            code = main(["simulate", "--tasks", "3:8,3:10,1:14",
                         "--policy", policy, "--duration", "56",
                         "--metrics", str(path)])
            assert code == 0
        return path

    def test_simulate_metrics_to_stdout(self, capsys):
        code = main(["simulate", "--tasks", "3:8,3:10,1:14",
                     "--policy", "ccEDF", "--duration", "56",
                     "--metrics", "-"])
        assert code == 0
        out = capsys.readouterr().out
        assert "frequency residency:" in out

    def test_simulate_metrics_appends_jsonl(self, capsys, tmp_path):
        path = self._archive(tmp_path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert "appended metrics to" in capsys.readouterr().out

    def test_summarize_archive(self, capsys, tmp_path):
        path = self._archive(tmp_path)
        capsys.readouterr()
        assert main(["obs", "summarize", str(path)]) == 0
        out = capsys.readouterr().out
        assert "per-policy rollup:" in out
        assert "ccEDF" in out and "laEDF" in out

    def test_summarize_exports_csvs(self, capsys, tmp_path):
        path = self._archive(tmp_path)
        csv_path = tmp_path / "runs.csv"
        res_path = tmp_path / "residency.csv"
        code = main(["obs", "summarize", str(path),
                     "--csv", str(csv_path),
                     "--residency-csv", str(res_path)])
        assert code == 0
        assert csv_path.read_text().startswith("policy,")
        assert "frequency" in res_path.read_text().splitlines()[0]

    def test_summarize_missing_file(self, capsys, tmp_path):
        assert main(["obs", "summarize", str(tmp_path / "nope.jsonl")]) == 2

    def test_summarize_empty_archive(self, capsys, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["obs", "summarize", str(path)]) == 1
        assert "no metrics records" in capsys.readouterr().out

    def test_obs_without_subcommand_shows_help(self, capsys):
        assert main(["obs"]) == 2
