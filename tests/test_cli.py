"""The command-line interface."""

import pytest

from repro.cli import main


def small_args(*extra):
    return [
        "--target", "180.2,181.0,0.2,1.0",
        "--density", "250", "--clusters", "8", "--seed", "4",
        "--z-step", "0.01",
        *extra,
    ]


class TestRun:
    def test_run_reports(self, capsys):
        assert main(["run", *small_args()]) == 0
        out = capsys.readouterr().out
        assert "candidates:" in out
        assert "fBCGCandidate" in out

    def test_run_cursor_method(self, capsys):
        assert main(["run", *small_args(), "--method", "cursor"]) == 0

    def test_run_with_members(self, capsys):
        assert main(["run", *small_args(), "--members"]) == 0
        assert "member links:" in capsys.readouterr().out


class TestPartition:
    def test_partition_checks_invariant(self, capsys):
        assert main(["partition", *small_args(), "--servers", "2"]) == 0
        out = capsys.readouterr().out
        assert "invariant OK" in out
        assert "speedup" in out


class TestCompare:
    def test_compare_sql_wins(self, capsys):
        assert main(["compare", *small_args()]) == 0
        out = capsys.readouterr().out
        assert "TAM" in out and "SQL" in out and "speedup" in out


class TestSql:
    def test_execute_statement(self, capsys):
        code = main([
            "sql", *small_args(),
            "-e", "SELECT COUNT(*) AS n FROM galaxy_source",
        ])
        assert code == 0
        assert "n" in capsys.readouterr().out

    def test_script_file(self, tmp_path, capsys):
        script = tmp_path / "demo.sql"
        script.write_text(
            "EXEC spImportGalaxy 179, 182, -1, 2;\n"
            "EXEC spZone;\n"
            "SELECT COUNT(*) AS n FROM Galaxy;\n"
        )
        assert main(["sql", *small_args(), "--script", str(script)]) == 0

    def test_bad_region_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--target", "not-a-box"])


class TestEngineFlags:
    """The shared --optimizer/--backend/--cache/... parent parser."""

    def test_sql_accepts_cache_flag(self, capsys):
        code = main([
            "sql", *small_args(), "--cache",
            "-e", "SELECT COUNT(*) AS n FROM galaxy_source",
        ])
        assert code == 0
        assert "n" in capsys.readouterr().out

    def test_sql_script_materialized_view(self, tmp_path, capsys):
        script = tmp_path / "matview.sql"
        script.write_text(
            "EXEC spImportGalaxy 179, 182, -1, 2;\n"
            "EXEC spZone;\n"
            "CREATE MATERIALIZED VIEW galaxy_total AS "
            "SELECT COUNT(*) AS n FROM Galaxy;\n"
            "SELECT n FROM galaxy_total;\n"
        )
        assert main(["sql", *small_args(), "--script", str(script)]) == 0
        assert "n" in capsys.readouterr().out

    def test_explain_accepts_shared_flags(self, capsys):
        code = main([
            "explain", *small_args(), "--no-rewrites", "--cache",
            "--optimizer", "cost",
            "SELECT COUNT(*) AS c FROM Galaxy WHERE i < 18",
        ])
        assert code == 0
        assert "est=" in capsys.readouterr().out

    def test_partition_rejects_removed_parallel_flag(self):
        with pytest.raises(SystemExit):
            main(["partition", *small_args(), "--parallel"])

    @pytest.mark.parametrize("flag", [["--workers", "2"],
                                      ["--no-page-compression"]])
    def test_sql_rejects_removed_engine_flags(self, flag):
        with pytest.raises(SystemExit) as exc:
            main(["sql", *small_args(), *flag,
                  "-e", "SELECT COUNT(*) AS n FROM galaxy_source"])
        assert exc.value.code == 2  # argparse usage error

    def test_casjobs_serve_keeps_pool_workers(self, capsys):
        code = main(["casjobs", "serve", "--workers", "2", "--jobs", "6",
                     "--users", "2"])
        assert code == 0
        assert "2 workers" in capsys.readouterr().out

    def test_sql_accepts_feedback_flag(self, capsys):
        code = main([
            "sql", *small_args(), "--feedback",
            "-e", "SELECT COUNT(*) AS n FROM galaxy_source",
        ])
        assert code == 0
        assert "n" in capsys.readouterr().out


class TestMemo:
    def test_memo_reports_decisions(self, capsys):
        assert main(["memo", *small_args(), "--repeat", "3"]) == 0
        out = capsys.readouterr().out
        assert "memo=miss" in out
        assert "memo=hit" in out
        assert "plan memo" in out
        assert "feedback store" in out

    def test_memo_shift_invalidates(self, capsys):
        code = main(["memo", *small_args(), "--shift", "--repeat", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "shifted" in out
        cycles = [line.split() for line in out.splitlines()
                  if line.startswith("cycle ")]
        decisions = [words[2] for words in cycles]
        # the write leaves the plan bound and fresh: cycle 1 runs it
        # over the new rows, breaches the q-error ceiling, and the
        # feedback loop retires it before cycle 2
        assert decisions[:2] == ["memo=miss", "memo=hit"]
        assert decisions[2] in ("memo=replan", "memo=learned-override")
        assert decisions[3] == "memo=hit"
        # the kept plan answers what the fresh plan does
        answers = [words[4] for words in cycles]
        assert answers[0] != answers[1]
        assert answers[1] == answers[2] == answers[3]


class TestQueryStore:
    def test_demo_records_replan_and_forcing(self, capsys):
        main(["querystore", "--demo"])
        out = capsys.readouterr().out
        # the exit code folds in wall-clock verdicts (CI's to judge);
        # these lines are deterministic
        for claim in (
            "feedback re-plan recorded as a plan change",
            "forcing recorded as a plan change",
            "SELECT over sys_query_store_queries matches the store",
            "sys_query_store_plans flags exactly the forced plan",
            "post-unforce execution is not forced",
            "every answer byte-identical",
        ):
            assert f"[ok] {claim}" in out
        assert out.count("memo=forced") == 3


class TestAnalyze:
    def test_explain_analyze_output(self, capsys):
        code = main([
            "analyze", *small_args(),
            "-e", "SELECT COUNT(*) AS c FROM Galaxy WHERE i < 18",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "rows=" in out and "total:" in out


class TestWorkloads:
    def test_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "small" in out and "paper" in out


class TestTraceCommand:
    def test_trace_demo_writes_valid_chrome_trace(self, tmp_path, capsys):
        import json

        from repro.obs.export import validate_chrome_trace

        out = tmp_path / "trace.json"
        code = main([
            "trace", *small_args(), "--demo",
            "--backend", "sequential", "--servers", "2",
            "--out", str(out),
        ])
        assert code == 0
        text = capsys.readouterr().out
        assert "casjobs.job" in text
        assert "cluster.partition" in text
        assert "engine.task:fBCGCandidate" in text
        assert validate_chrome_trace(json.loads(out.read_text())) > 0

    def test_trace_tree_format_needs_no_file(self, tmp_path, capsys):
        code = main([
            "trace", *small_args(), "--demo",
            "--backend", "sequential", "--servers", "2",
            "--format", "tree", "--out", str(tmp_path / "unused.json"),
        ])
        assert code == 0
        assert not (tmp_path / "unused.json").exists()
        assert "cluster.run" in capsys.readouterr().out

    def test_trace_jsonl_format(self, tmp_path, capsys):
        import json

        out = tmp_path / "spans.jsonl"
        code = main([
            "trace", *small_args(), "--demo",
            "--backend", "sequential", "--servers", "2",
            "--format", "jsonl", "--out", str(out),
        ])
        assert code == 0
        lines = [json.loads(l) for l in out.read_text().splitlines() if l]
        assert any(d["name"] == "casjobs.job" for d in lines)

    def test_trace_slow_ms_populates_slow_log(self, tmp_path, capsys):
        from repro.obs.slowlog import get_slow_log

        old = get_slow_log().threshold_s
        try:
            code = main([
                "trace", *small_args(), "--demo",
                "--backend", "sequential", "--servers", "2",
                "--slow-ms", "0", "--out", str(tmp_path / "t.json"),
            ])
        finally:
            get_slow_log().set_threshold(old)
            get_slow_log().clear()
        assert code == 0
        assert "slow-query log" in capsys.readouterr().out


class TestMetricsCommand:
    def test_metrics_dumps_registry(self, capsys):
        code = main([
            "metrics", *small_args(), "--demo", "--servers", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "casjobs.finished" in out
        assert "cluster.partitions" in out
        assert "engine.pool.hits" in out
