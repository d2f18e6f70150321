"""Tests for the interactive shell."""

import io

import pytest

from repro.cli import Shell, format_rows, make_demo_database


@pytest.fixture
def shell():
    out = io.StringIO()
    return Shell(make_demo_database(), out=out), out


def output_of(shell_and_out, *statements):
    shell, out = shell_and_out
    for statement in statements:
        if not shell.handle(statement):
            break
    return out.getvalue()


class TestFormatting:
    def test_format_rows_aligns(self):
        lines = format_rows(["a", "long_name"], [(1, 2.5), (100, 3.0)])
        assert lines[0].startswith("a ")
        assert "(2 rows)" in lines[-1]

    def test_single_row_grammar(self):
        lines = format_rows(["x"], [(1,)])
        assert lines[-1] == "(1 row)"

    def test_float_rendering(self):
        lines = format_rows(["x"], [(1.23456,)])
        assert "1.23" in lines[2]


class TestShell:
    def test_select_prints_table_and_io(self, shell):
        text = output_of(
            shell, "select e.dno from emp e where e.dno = 1 limit 2;"
        )
        assert "dno" in text
        assert "page IOs" in text

    def test_list_relations(self, shell):
        text = output_of(shell, "\\d")
        assert "table emp" in text
        assert "table dept" in text

    def test_describe_table(self, shell):
        text = output_of(shell, "\\d emp")
        assert "eno int (pk)" in text
        assert "fk (dno) -> dept(dno)" in text

    def test_describe_missing_table(self, shell):
        assert "no table" in output_of(shell, "\\d nothere")

    def test_explain(self, shell):
        text = output_of(
            shell, "\\explain select e.sal from emp e where e.dno = 3"
        )
        assert "Scan emp" in text
        assert "estimated cost" in text

    def test_analyze(self, shell):
        text = output_of(
            shell, "\\analyze select e.sal from emp e where e.dno = 3"
        )
        assert "actual rows=" in text

    def test_switch_optimizer(self, shell):
        text = output_of(shell, "\\e traditional")
        assert "optimizer level: traditional" in text

    def test_bad_optimizer_level(self, shell):
        text = output_of(shell, "\\e warp9")
        assert "unknown level" in text

    def test_sql_error_reported_not_raised(self, shell):
        text = output_of(shell, "select nope from emp e;")
        assert "error:" in text

    def test_unknown_meta_command(self, shell):
        assert "unknown command" in output_of(shell, "\\frobnicate")

    def test_quit_returns_false(self, shell):
        interpreter, _ = shell
        assert interpreter.handle("\\q") is False

    def test_empty_statement_noop(self, shell):
        interpreter, out = shell
        assert interpreter.handle("   ;  ") is True

    def test_run_reads_stream(self):
        out = io.StringIO()
        interpreter = Shell(make_demo_database(), out=out)
        source = io.StringIO("\\d\n\\q\n")
        interpreter.run(source)
        text = out.getvalue()
        assert "table emp" in text
        assert text.rstrip().endswith("bye")

    def test_run_script_file(self, tmp_path):
        import io

        from repro import Database
        from repro.cli import Shell

        script = tmp_path / "setup.sql"
        script.write_text(
            "create table t (a int);\n"
            "insert into t values (1), (2), (3);\n"
            "select t.a from t where t.a > 1;\n"
        )
        out = io.StringIO()
        shell = Shell(Database(), out=out)
        shell.handle(f"\\i {script}")
        text = out.getvalue()
        assert "(2 rows)" in text

    def test_run_script_splits_with_the_lexer(self, tmp_path):
        from repro import Database

        script = tmp_path / "quoted.sql"
        script.write_text(
            "-- a ';' in a string or a comment ends nothing\n"
            "create table t (a int, b text);\n"
            "insert into t values (1, 'a;b'), (2, 'it''s');\n"
            "select nope from t;  -- fails; the next one still runs\n"
            "select t.b from t where t.a = 1;\n"
        )
        out = io.StringIO()
        Shell(Database(), out=out).handle(f"\\i {script};")
        text = out.getvalue()
        assert "a;b" in text and "(1 row)" in text
        assert text.count("error:") == 1
        assert "unterminated" not in text

    def test_explain_is_a_statement_too(self, shell):
        sql = "select e.sal from emp e where e.dno = 3"
        once = output_of(shell, f"EXPLAIN {sql};")
        assert "Scan emp" in once and "estimated cost" in once
        assert output_of(shell, f"\\explain {sql};") == once * 2
        assert "actual rows=" in output_of(shell, f"explain analyze {sql};")

    def test_several_statements_on_one_line(self, shell):
        text = output_of(
            shell,
            "select d.dno from dept d where d.dno = 1; "
            "select d.dno from dept d where d.dno = 2;",
        )
        assert text.count("(1 row)") == 2

    def test_run_script_missing_file(self, shell):
        assert "cannot read" in output_of(shell, "\\i /no/such/file.sql")

    def test_run_script_usage(self, shell):
        assert "usage" in output_of(shell, "\\i")

    def test_multiline_statement(self):
        out = io.StringIO()
        interpreter = Shell(make_demo_database(), out=out)
        source = io.StringIO(
            "select e.dno\nfrom emp e\nwhere e.dno = 2\nlimit 1;\n\\q\n"
        )
        interpreter.run(source)
        assert "(1 row)" in out.getvalue()

    def test_stats_panel_counts_text_front_hits(self):
        out = io.StringIO()
        interpreter = Shell(make_demo_database(), out=out, show_stats=True)
        statement = "select e.sal from emp e where e.dno = 3;"
        for _ in range(3):
            interpreter.handle(statement)
        panels = [
            line
            for line in out.getvalue().splitlines()
            if line.startswith("plan-cache: ")
        ]
        assert len(panels) == 3
        assert " hits=0 text_hits=0 misses=1 " in panels[0]
        assert " hits=2 text_hits=2 misses=1 " in panels[2]
        assert " entries=1 texts=1 " in panels[2]


class TestFuzzCommand:
    """Exit codes and outputs of ``python -m repro fuzz``."""

    def test_clean_run_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        report_path = tmp_path / "report.json"
        code = main(
            [
                "fuzz",
                "--seeds", "1",
                "--profile", "smoke",
                "--quiet",
                "--report", str(report_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "no divergences" in out
        decoded = __import__("json").loads(report_path.read_text())
        assert decoded["seeds_run"] == 1

    def test_unknown_profile_exits_two(self, capsys):
        from repro.cli import main

        code = main(["fuzz", "--profile", "warp-speed", "--quiet"])
        assert code == 2
        assert "unknown fuzz profile" in capsys.readouterr().err

    def test_bad_flag_exits_two(self, capsys):
        from repro.cli import main

        assert main(["fuzz", "--bogus"]) == 2

    def test_help_exits_zero(self, capsys):
        from repro.cli import fuzz_main

        assert fuzz_main(["--help"]) == 0
        assert "--seeds" in capsys.readouterr().out

    def test_divergences_exit_one(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        from repro.testing import CONFIGS, metamorphic, runner
        from repro.testing.metamorphic import EngineConfig

        bogus = EngineConfig("bogus", optimizer="nosuch")

        def patched_check(script, **kwargs):
            return metamorphic.check_script(
                script, configs=(CONFIGS[0], bogus)
            )

        monkeypatch.setattr(runner, "check_script", patched_check)
        code = main(
            [
                "fuzz",
                "--seeds", "1",
                "--profile", "smoke",
                "--quiet",
                "--no-shrink",
                "--corpus", str(tmp_path / "corpus"),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "DIVERGENCE" in out
        assert list((tmp_path / "corpus").glob("*.sql"))
