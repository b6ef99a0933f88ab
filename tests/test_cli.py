"""Tests for the command-line interface."""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.cli import main


class TestCLIBasics:
    def test_no_command_prints_help_and_fails(self, capsys):
        assert main([]) == 1
        assert "experiment" in capsys.readouterr().out

    def test_datasets_command_lists_registry(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "gun" in out
        assert "50words" in out


class TestDistanceCommand:
    def test_distance_between_two_series(self, capsys):
        code = main([
            "distance", "gun-small", "0", "1", "--constraint", "fc,fw",
            "--constraint", "ac,aw",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fc,fw" in out
        assert "ac,aw" in out
        assert "distance=" in out

    def test_distance_default_constraints_include_full(self, capsys):
        assert main(["distance", "gun-small", "0", "2"]) == 0
        out = capsys.readouterr().out
        assert "full" in out

    def test_out_of_range_index_reports_error(self, capsys):
        assert main(["distance", "gun-small", "0", "999"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_dataset_reports_error(self, capsys):
        assert main(["distance", "no-such-dataset", "0", "1"]) == 2
        assert "error" in capsys.readouterr().err


class TestExperimentCommand:
    def test_table1_runs_and_prints(self, capsys):
        assert main(["experiment", "table1", "--num-series", "4"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_unknown_experiment_reports_error(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_csv_output_written(self, tmp_path, capsys):
        target = tmp_path / "table1.csv"
        code = main([
            "experiment", "table1", "--num-series", "4", "--csv", str(target)
        ])
        assert code == 0
        assert target.exists()
        assert target.read_text().startswith("Data Set,")


class TestEngineCommand:
    def test_engine_prints_cascade_and_timing(self, capsys):
        code = main([
            "engine", "gun-small", "--num-series", "8", "--num-queries", "2",
            "--k", "2", "--constraint", "fc,fw",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Pruning cascade" in out
        assert "LB_Kim" in out
        assert "Time breakdown" in out
        assert "nearest=" in out

    def test_engine_multiprocessing_backend(self, capsys):
        code = main([
            "engine", "gun-small", "--num-series", "8", "--num-queries", "2",
            "--k", "2", "--constraint", "fc,fw",
            "--backend", "multiprocessing", "--workers", "2",
        ])
        assert code == 0
        assert "backend=multiprocessing" in capsys.readouterr().out

    def test_engine_no_cascade_flag(self, capsys):
        code = main([
            "engine", "gun-small", "--num-series", "6", "--num-queries", "1",
            "--k", "2", "--constraint", "full", "--no-cascade", "--no-abandon",
        ])
        assert code == 0
        out = capsys.readouterr().out
        import re

        match = re.search(r"pruned by LB_Kim\s*\|\s*(\d+)", out)
        assert match is not None and match.group(1) == "0"

    def test_engine_unknown_dataset_reports_error(self, capsys):
        assert main(["engine", "no-such-dataset"]) == 2
        assert "error" in capsys.readouterr().err

    def test_engine_unknown_constraint_reports_error(self, capsys):
        code = main(["engine", "gun-small", "--constraint", "bogus"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestStreamCommand:
    def test_stream_sliding_reports_matches_and_stats(self, capsys):
        code = main([
            "stream", "--length", "700", "--patterns", "2",
            "--pattern-length", "48", "--mode", "sliding", "--seed", "7",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "points/sec" in out
        assert "Reported matches" in out
        assert "pruned by LB_Keogh" in out
        assert "detected" in out

    def test_stream_spring_mode(self, capsys):
        code = main([
            "stream", "--length", "500", "--patterns", "1",
            "--pattern-length", "32", "--mode", "spring", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mode=spring" in out
        assert "pattern-0" in out

    def test_stream_explicit_threshold_and_no_cascade(self, capsys):
        code = main([
            "stream", "--length", "400", "--patterns", "1",
            "--pattern-length", "32", "--threshold", "3.5",
            "--no-cascade", "--seed", "5",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "threshold 3.500" in out
        import re

        match = re.search(r"pruned by LB_Kim\s*\|\s*(\d+)", out)
        assert match is not None and match.group(1) == "0"

    def test_stream_unknown_constraint_reports_error(self, capsys):
        code = main([
            "stream", "--length", "300", "--pattern-length", "32",
            "--constraint", "bogus",
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_stream_itakura_autocalibration(self, capsys):
        # Regression: auto-calibration used to crash on the itakura label.
        code = main([
            "stream", "--length", "400", "--patterns", "1",
            "--pattern-length", "32", "--constraint", "itakura",
            "--seed", "6",
        ])
        assert code == 0
        assert "constraint=itakura" in capsys.readouterr().out


class TestWorkspaceCompactCommand:
    """``workspace compact`` is the CLI's one index-maintenance command;
    the standalone ``index`` command group is gone."""

    @staticmethod
    def _full_budget_answers(path):
        from repro.service import Workspace

        with Workspace.open(path) as workspace:
            return [
                workspace.query(
                    workspace.series_of(identifier), 3, mode="indexed",
                    candidates=len(workspace), exclude_identifier=identifier,
                ).to_dict(include_trace=False)["hits"]
                for identifier in workspace.identifiers
            ]

    def test_index_command_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["index"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'index'" in capsys.readouterr().err

    def test_compact_folds_delta_shards(self, tmp_path, capsys):
        from repro.service import Workspace

        path = str(tmp_path / "ws")
        assert main(["workspace", "init", path, "--codewords", "32",
                     "--shards", "2", "--candidates", "5"]) == 0
        assert main(["workspace", "add", path, "gun-small",
                     "--num-series", "10", "--build-index"]) == 0
        assert main(["workspace", "add", path, "50words-tiny",
                     "--num-series", "4"]) == 0
        with Workspace.open(path) as workspace:
            assert workspace.stats()["index"]["delta_shards"] == 4
        before = self._full_budget_answers(path)
        capsys.readouterr()

        assert main(["workspace", "compact", path]) == 0
        out = capsys.readouterr().out
        assert "Compacted 4 delta shards and 0 tombstones" in out
        assert "over 14 series" in out
        with Workspace.open(path) as workspace:
            index = workspace.stats()["index"]
            assert index["delta_shards"] == 0
            assert index["num_live"] == index["num_slots"] == 14
        assert self._full_budget_answers(path) == before
        assert main(["workspace", "doctor", path]) == 0
        assert "-> healthy" in capsys.readouterr().out

        assert main(["workspace", "compact", path]) == 0
        assert "nothing to compact" in capsys.readouterr().out

    def test_compact_without_fresh_index_exits_two(self, tmp_path, capsys):
        from repro.service import IndexConfig, Workspace, WorkspaceConfig

        path = str(tmp_path / "ws")
        assert main(["workspace", "init", path]) == 0
        assert main(["workspace", "add", path, "gun-small",
                     "--num-series", "6"]) == 0
        capsys.readouterr()
        assert main(["workspace", "compact", path]) == 2
        assert "no fresh index" in capsys.readouterr().err

        stale = str(tmp_path / "stale")
        config = WorkspaceConfig(
            index=IndexConfig(num_codewords=16, incremental=False)
        )
        with Workspace.create(stale, config) as workspace:
            workspace.add_batch([np.sin(np.linspace(0.0, 6.0, 48) + shift)
                                 for shift in range(4)])
            workspace.build_index()
            workspace.add(np.cos(np.linspace(0.0, 6.0, 48)))
            assert workspace.stats()["index"]["stale"]
        assert main(["workspace", "compact", stale]) == 2
        assert "no fresh index" in capsys.readouterr().err


class TestWorkspaceCommand:
    def test_workspace_requires_subcommand(self, capsys):
        assert main(["workspace"]) == 2
        assert "subcommand" in capsys.readouterr().err

    def test_init_add_query_stats_round_trip(self, tmp_path, capsys):
        ws_dir = str(tmp_path / "ws")
        assert main([
            "workspace", "init", ws_dir, "--constraint", "fc,fw",
            "--codewords", "24", "--shards", "2", "--candidates", "5",
        ]) == 0
        assert "Created workspace" in capsys.readouterr().out

        assert main([
            "workspace", "add", ws_dir, "gun-small", "--num-series", "10",
            "--build-index",
        ]) == 0
        out = capsys.readouterr().out
        assert "Added 10 series" in out
        assert "index: built" in out

        assert main([
            "workspace", "query", ws_dir, "--k", "3", "--num-queries", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "indexed C=" in out
        assert "nearest" in out

        assert main([
            "workspace", "query", ws_dir, "--k", "3", "--num-queries", "1",
            "--mode", "exact",
        ]) == 0
        assert "exact" in capsys.readouterr().out

        assert main(["workspace", "stats", ws_dir]) == 0
        out = capsys.readouterr().out
        assert "series: 10" in out
        assert "postings" in out

    def test_add_without_index_leaves_exact_mode(self, tmp_path, capsys):
        ws_dir = str(tmp_path / "ws")
        assert main(["workspace", "init", ws_dir]) == 0
        assert main([
            "workspace", "add", ws_dir, "gun-small", "--num-series", "6",
        ]) == 0
        assert "exact scans" in capsys.readouterr().out
        assert main([
            "workspace", "query", ws_dir, "--k", "2", "--num-queries", "1",
        ]) == 0
        assert "exact" in capsys.readouterr().out

    def test_init_twice_reports_clean_error(self, tmp_path, capsys):
        ws_dir = str(tmp_path / "ws")
        assert main(["workspace", "init", ws_dir]) == 0
        capsys.readouterr()
        assert main(["workspace", "init", ws_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_open_missing_workspace_reports_clean_error(self, tmp_path, capsys):
        assert main(["workspace", "stats", str(tmp_path / "nope")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_query_on_empty_workspace_reports_error(self, tmp_path, capsys):
        ws_dir = str(tmp_path / "ws")
        assert main(["workspace", "init", ws_dir]) == 0
        capsys.readouterr()
        assert main(["workspace", "query", ws_dir]) == 2
        assert "no series" in capsys.readouterr().err

    def test_indexed_mode_without_index_reports_error(self, tmp_path, capsys):
        ws_dir = str(tmp_path / "ws")
        assert main(["workspace", "init", ws_dir]) == 0
        assert main([
            "workspace", "add", ws_dir, "gun-small", "--num-series", "6",
        ]) == 0
        capsys.readouterr()
        assert main([
            "workspace", "query", ws_dir, "--mode", "indexed",
        ]) == 2
        assert "error" in capsys.readouterr().err


class TestWorkspaceTelemetryCLI:
    """The PR 7 surfaces end to end: traced queries and metric exports."""

    @pytest.fixture(scope="class")
    def ws_dir(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("cli-telemetry") / "ws")
        assert main([
            "workspace", "init", path, "--codewords", "24", "--shards", "2",
            "--candidates", "5",
        ]) == 0
        assert main([
            "workspace", "add", path, "gun-small", "--num-series", "8",
            "--build-index",
        ]) == 0
        return path

    def test_query_trace_prints_stage_table(self, ws_dir, capsys):
        capsys.readouterr()
        assert main([
            "workspace", "query", ws_dir, "--k", "2", "--num-queries", "1",
            "--mode", "exact", "--trace",
        ]) == 0
        out = capsys.readouterr().out
        assert "Trace of" in out
        assert "stage" in out
        # The exact path's stages (cascade bounds + DP) must be listed
        # with millisecond timings.
        assert "dp" in out
        assert "bounds" in out
        assert "ms" in out

    def test_stats_metrics_json_parses_end_to_end(self, ws_dir, capsys):
        capsys.readouterr()
        assert main([
            "workspace", "stats", ws_dir, "--metrics", "--probe", "2",
            "--format", "json",
        ]) == 0
        exported = json.loads(capsys.readouterr().out)
        assert "repro_queries_total" in exported["counters"]
        total = exported["counters"]["repro_queries_total"]
        assert total["labels"] == ["mode"]
        assert sum(total["values"].values()) >= 2  # the probe queries

    def test_stats_metrics_prom_is_valid_exposition(self, ws_dir, capsys):
        capsys.readouterr()
        assert main([
            "workspace", "stats", ws_dir, "--metrics", "--probe", "2",
            "--format", "prom",
        ]) == 0
        out = capsys.readouterr().out
        assert "# HELP repro_queries_total" in out
        assert "# TYPE repro_query_seconds histogram" in out
        for line in out.strip().splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE ")), line
            else:
                name, _, value = line.rpartition(" ")
                assert name, line
                float(value)  # every sample value must be numeric
        assert 'le="+Inf"' in out


class TestDiagnosticsCLI:
    @pytest.fixture(scope="class")
    def ws_dir(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("cli-diagnostics") / "ws")
        assert main([
            "workspace", "init", path, "--codewords", "24", "--shards", "2",
            "--candidates", "5", "--slow-query-threshold", "0",
        ]) == 0
        assert main([
            "workspace", "add", path, "gun-small", "--num-series", "8",
            "--build-index",
        ]) == 0
        return path

    def test_version_flag_and_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        flag_out = capsys.readouterr().out
        assert main(["version"]) == 0
        sub_out = capsys.readouterr().out
        for out in (flag_out, sub_out):
            out = " ".join(out.split())  # argparse wraps --version output
            assert "repro-sdtw" in out
            assert "workspace format v" in out
            assert "index format v" in out
            assert "feature-store format v" in out

    def test_doctor_healthy_workspace_exits_zero(self, ws_dir, capsys):
        capsys.readouterr()
        assert main(["workspace", "doctor", ws_dir]) == 0
        out = capsys.readouterr().out
        assert "index_accounting" in out
        assert "FAIL" not in out
        assert "healthy" in out

    def test_doctor_json_output(self, ws_dir, capsys):
        capsys.readouterr()
        assert main(["workspace", "doctor", ws_dir, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["healthy"] is True
        names = {check["name"] for check in report["checks"]}
        assert {"manifest", "store", "index_accounting"} <= names

    def test_doctor_detects_corruption_and_exits_one(
        self, ws_dir, tmp_path, capsys
    ):
        corrupt = str(tmp_path / "corrupt-ws")
        shutil.copytree(ws_dir, corrupt)
        with open(f"{corrupt}/events.jsonl", "a", encoding="utf-8") as handle:
            handle.write("{definitely not json\n")
        capsys.readouterr()
        assert main(["workspace", "doctor", corrupt]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "UNHEALTHY" in out

    def test_slow_query_log_captures_cli_queries(self, ws_dir, capsys):
        capsys.readouterr()
        assert main([
            "workspace", "query", ws_dir, "--k", "2", "--num-queries", "2",
        ]) == 0
        with open(f"{ws_dir}/events.jsonl", encoding="utf-8") as handle:
            records = [
                event["fields"] for event in map(json.loads, handle)
                if event["name"] == "slow_query"
            ]
        assert len(records) >= 2
        assert records[-1]["trace"]["stages"]

    def test_flight_record_to_stdout_and_file(self, ws_dir, tmp_path, capsys):
        capsys.readouterr()
        assert main(["workspace", "flight-record", ws_dir]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["format"] == "repro-flight-record"
        assert record["workspace"]["num_series"] == 8

        target = str(tmp_path / "flight.json")
        assert main([
            "workspace", "flight-record", ws_dir, "--output", target,
        ]) == 0
        assert "written" in capsys.readouterr().out
        with open(target, encoding="utf-8") as handle:
            assert json.load(handle)["format"] == "repro-flight-record"

    def test_query_profile_flag_prints_hottest_frames(self, ws_dir, capsys):
        capsys.readouterr()
        assert main([
            "workspace", "query", ws_dir, "--k", "2", "--num-queries", "2",
            "--mode", "exact", "--profile",
        ]) == 0
        out = capsys.readouterr().out
        assert "profiler:" in out
        assert "samples" in out
        assert "coverage" in out

    def test_profile_command_writes_collapsed_stacks(
        self, ws_dir, tmp_path, capsys
    ):
        stacks = str(tmp_path / "stacks.txt")
        capsys.readouterr()
        assert main([
            "workspace", "profile", ws_dir, "--num-queries", "2",
            "--repeat", "2", "--mode", "exact", "--interval", "0.002",
            "--output", stacks,
        ]) == 0
        out = capsys.readouterr().out
        assert "Profiled 4 exact queries" in out
        assert "profiler:" in out
        assert "coverage" in out
        with open(stacks, encoding="utf-8") as handle:
            for line in handle.read().splitlines():
                stack, count = line.rsplit(" ", 1)
                assert int(count) > 0

    def test_profile_on_empty_workspace_reports_error(self, tmp_path, capsys):
        empty = str(tmp_path / "empty-ws")
        assert main(["workspace", "init", empty]) == 0
        capsys.readouterr()
        assert main(["workspace", "profile", empty]) == 2
        assert "no series" in capsys.readouterr().err


class TestErrorExitCodes:
    def test_os_errors_map_to_exit_3_without_traceback(self, tmp_path, capsys):
        target = str(tmp_path / "no-such-dir" / "table1.csv")
        code = main([
            "experiment", "table1", "--num-series", "4", "--csv", target,
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_repro_errors_map_to_exit_2(self, capsys):
        assert main(["engine", "no-such-dataset"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
