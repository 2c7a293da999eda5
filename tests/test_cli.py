import json
import re
from pathlib import Path

from gstrat.cli import main

from .catalan_helpers import complete_graph, cycle_graph, serialize_level

ASSETS = Path(__file__).parent.parent / "assets"

RELABEL_SCRIPT = """
graph g1 { v 0 "a"; v 1 "a"; e 0 1 "b"; }
rule p { context { v 0 "a"; v 1 "a"; e 0 1 "b" "c"; } }
strategy main = addSubset(g1) -> rule p
"""


class TestRun:
    def test_run_with_exports(self, tmp_path, capsys):
        script = tmp_path / "s.gs"
        script.write_text(RELABEL_SCRIPT)
        dot = tmp_path / "out.dot"
        js = tmp_path / "out.json"
        code = main(["run", str(script), "--dot", str(dot), "--json", str(js),
                     "--stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 new graphs through 1 derivations" in out
        assert "universe size" in out
        assert dot.read_text().startswith("digraph")
        assert json.loads(js.read_text())["format"] == 1

    def test_stats_print_export_time(self, tmp_path, capsys):
        script = tmp_path / "s.gs"
        script.write_text(RELABEL_SCRIPT)
        code = main(["run", str(script), "--json", str(tmp_path / "out.json"),
                     "--stats"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        wall = next(i for i, line in enumerate(lines)
                    if line.startswith("  wall time:"))
        assert re.fullmatch(r"  export time:   \d+\.\d{3}s", lines[wall + 1])

    def test_max_repeat_flag(self, tmp_path, capsys):
        script = tmp_path / "s.gs"
        script.write_text(
            'graph g1 { v 0 "a"; v 1 "a"; e 0 1 "b"; }\n'
            'graph g2 { v 0 "a"; v 1 "a"; v 2 "a"; e 0 1 "b"; e 1 2 "b"; }\n'
            'rule p { context { v 0 "a"; v 1 "a"; e 0 1 "b" "c"; } }\n'
            "strategy main = addSubset(g1, g2) -> repeat[] { rule p }\n")
        assert main(["run", str(script), "--max-repeat", "1"]) == 0
        capped = capsys.readouterr().out
        assert main(["run", str(script)]) == 0
        full = capsys.readouterr().out
        assert capped != full

    def test_negative_max_repeat_rejected(self, tmp_path, capsys):
        script = tmp_path / "s.gs"
        script.write_text('graph g1 { v 0 "a"; }\n'
                          'rule p { context { v 0 "a" "b"; } }\n'
                          "strategy main = addSubset(g1) -> repeat[] { rule p }\n")
        assert main(["run", str(script), "--max-repeat", "-5"]) == 1
        assert ("--max-repeat must not be negative, got -5"
                in capsys.readouterr().err)

    def test_script_error_exit_code(self, tmp_path, capsys):
        script = tmp_path / "bad.gs"
        script.write_text("strategy main = rule missing\n")
        assert main(["run", str(script)]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_rule_is_located(self, tmp_path, capsys):
        # The BFS script without the include that defines its rule.
        text = (ASSETS / "diels_bfs.gs").read_text(encoding="utf-8")
        script = tmp_path / "no_include.gs"
        script.write_text("\n".join(line for line in text.splitlines()
                                    if not line.startswith("include")))
        assert main(["run", str(script)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \d+:\d+: unknown rule 'dielsAlder'\n", err)

    def test_predicate_cycle_exit_code(self, tmp_path, capsys):
        script = tmp_path / "cycle.gs"
        script.write_text(RELABEL_SCRIPT.replace("-> rule p", "-> filterSubset[p]")
                          + "predicate p = q\npredicate q = p\n")
        assert main(["run", str(script)]) == 1
        err = capsys.readouterr().err
        assert err == "error: 6:15: predicate definitions form a cycle at 'p'\n"
        assert "Traceback" not in err

    def test_deep_nesting_exit_code(self, tmp_path, capsys):
        script = tmp_path / "deep.gs"
        script.write_text(RELABEL_SCRIPT.replace(
            "-> rule p", "-> filterSubset[" + "not " * 5000 + "isGraph(0, g1)]"))
        assert main(["run", str(script)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nesting deeper than" in err
        assert "Traceback" not in err

    def test_include_errors_name_the_file(self, tmp_path, capsys):
        (tmp_path / "main.gs").write_text('include "lib.gs"\n')
        for lib, message in (
                ("strategy s = rule missing\nstrategy main = s\n",
                 "lib.gs:1:19: unknown rule 'missing'"),
                ("strategy s =\n", "lib.gs:2:1: expected 'name', got 'end of input'"),
                ('graph g { v 0 "a"; v 1 "a"; }\n', "lib.gs:1:7: graph 'g' must be connected")):
            (tmp_path / "lib.gs").write_text(lib)
            assert main(["run", str(tmp_path / "main.gs")]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_undecodable_script_names_the_file(self, tmp_path, monkeypatch,
                                               capsys):
        (tmp_path / "bad.gs").write_bytes(b"\xff")
        monkeypatch.chdir(tmp_path)
        assert main(["run", "bad.gs"]) == 1
        assert capsys.readouterr().err == (
            "error: cannot read 'bad.gs': 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte\n")

    def test_parse_error_exit_code(self, tmp_path, capsys):
        script = tmp_path / "bad.gs"
        script.write_text("strategy main = take [1]\n")
        assert main(["run", str(script)]) == 1

    def test_io_error_exit_code(self, capsys):
        assert main(["run", "/nonexistent/path.gs"]) == 2
        assert "i/o error" in capsys.readouterr().err


class TestCatalanSolve:
    def test_solve_k4(self, tmp_path, capsys):
        level = tmp_path / "k4.gl"
        level.write_text(serialize_level(complete_graph(4), "k4"))
        dot = tmp_path / "space.dot"
        assert main(["catalan", "solve", str(level), "--dot", str(dot)]) == 0
        out = capsys.readouterr().out
        assert "solved in 1 move(s)" in out
        assert dot.read_text().startswith("digraph")

    def test_solve_level_that_is_the_goal(self, tmp_path, capsys):
        level = tmp_path / "one.gl"
        level.write_text('level one { v 0 "0"; }\n')
        dot = tmp_path / "space.dot"
        assert main(["catalan", "solve", str(level), "--dot", str(dot)]) == 0
        assert capsys.readouterr().out == (
            "solved in 0 move(s)\n# start\ngraph position0 {\n  v 0 \"0\";\n}\n")
        assert dot.read_bytes() == b"digraph derivations {\n}\n"

    def test_solve_unsolvable(self, tmp_path, capsys):
        level = tmp_path / "c6.gl"
        level.write_text(serialize_level(cycle_graph(6), "c6"))
        assert main(["catalan", "solve", str(level)]) == 0
        assert "no solution" in capsys.readouterr().out

    def test_bad_level_exit_code(self, tmp_path, capsys):
        level = tmp_path / "bad.gl"
        level.write_text('level l { v 0 "A"; }')
        assert main(["catalan", "solve", str(level)]) == 1

    def test_shipped_levels_parse_and_solve(self, capsys):
        for path in sorted((ASSETS / "levels").glob("*.gl")):
            assert main(["catalan", "solve", str(path)]) == 0
