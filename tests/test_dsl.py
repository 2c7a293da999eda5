import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from gstrat import dsl, lex
from gstrat.cli import main
from gstrat.dsl import (MAX_DEPTH, ScriptError, format_script, load_script,
                        parse_script, run_script, write_atomic)
from gstrat.graphs import Graph, serialize_graph
from gstrat.lex import ParseError
from gstrat.rules import parse_rules
from gstrat.strategies import EvalContext

from . import oracles

ASSETS = Path(__file__).parent.parent / "assets"

RELABEL_SCRIPT = """
graph g1 { v 0 "a"; v 1 "a"; e 0 1 "b"; }
graph g2 { v 0 "a"; v 1 "a"; v 2 "a"; e 0 1 "b"; e 1 2 "b"; }

rule p {
  context { v 0 "a"; v 1 "a"; e 0 1 "b" "c"; }
}

strategy main = addSubset(g1, g2) -> repeat[] { revive { rule p } }
"""


class TestParse:
    def test_bfs_script_shape(self):
        script = load_script(str(ASSETS / "diels_bfs.gs"))
        from gstrat.dsl import SSequence

        mains = [i for i in script.items
                 if i.keyword == "strategy" and i.name == "main"]
        assert len(mains) == 1
        assert isinstance(mains[0].body, SSequence)
        assert len(mains[0].body.parts) == 2  # addSubset -> repeat

    def test_repeat_zero(self):
        script = parse_script("strategy main = repeat[0] { rule r }")
        from gstrat.dsl import STerm

        (item,) = script.items
        assert item.keyword == "strategy"
        assert item.body == STerm("repeat", (0, STerm("rule", ("r",))))

    def test_take_without_variant_is_an_error(self):
        for term in ("take [3]", "filter[componentCount == 1]", "sort[text]",
                     "add(g)"):
            with pytest.raises(ParseError, match="needs a Subset or Universe variant"):
                parse_script("strategy main = " + term)

    @pytest.mark.parametrize("text, message", [
        ("strategy parallel = rule p",
         "1:10: 'parallel' is a reserved word and cannot name a strategy"),
        ("strategy take = rule p",
         "1:10: 'take' is a reserved word and cannot name a strategy"),
        ("graph g { v 0 \"a\"; }\nstrategy filterSubset = addSubset(g)",
         "2:10: 'filterSubset' is a reserved word and cannot name a strategy"),
        ("predicate not = componentCount == 1",
         "1:11: 'not' is a reserved word and cannot name a predicate"),
        *[(f"predicate {word} = componentCount == 1",
           f"1:11: {word!r} is a reserved word and cannot name a predicate")
          for word in dsl.ATOMS],
    ])
    def test_unreferenceable_definition_name_is_an_error(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_script(text)
        assert str(info.value) == message

    def test_reserved_words_cannot_be_referenced(self):
        for word in set(dsl.TERMS) | {"take", "filter", "sort", "add"}:
            with pytest.raises(ParseError):
                parse_script(f"strategy main = {word}")
        for word in ("not", *dsl.ATOMS):
            with pytest.raises(ParseError):
                parse_script(f"strategy main = filterSubset[{word}]")

    def test_unknown_keyword(self):
        with pytest.raises(ParseError):
            parse_script("wibble x")

    def test_predicate_type_errors(self):
        with pytest.raises(ParseError):
            parse_script("predicate p = vertexCount(0)")
        with pytest.raises(ParseError):
            parse_script("predicate p = componentCount == hasVertexLabel(0, \"x\")")

    def test_unknown_names_fail_at_run(self):
        script = parse_script("strategy main = rule nope")
        with pytest.raises(ScriptError):
            run_script(script)
        script = parse_script("strategy main = addSubset(nope)")
        with pytest.raises(ScriptError):
            run_script(script)
        script = parse_script(
            'graph g { v 0 "a"; }\n'
            "strategy main = addSubset(g) -> filterSubset[isGraph(0, other)]")
        with pytest.raises(ScriptError):
            run_script(script)

    def test_strategy_cycle_detected(self):
        script = parse_script("strategy a = b\nstrategy b = a\nstrategy main = a")
        with pytest.raises(ScriptError):
            run_script(script)

    def test_predicate_cycle_detected(self):
        script = parse_script(
            'graph g { v 0 "a"; }\n'
            "predicate p = q\npredicate q = p\n"
            "strategy main = addSubset(g) -> filterSubset[p]")
        with pytest.raises(ScriptError,
                           match="predicate definitions form a cycle at 'p'"):
            run_script(script)


# Malformed terms of `strategy main = <term>` and the exact error of each:
# every argument form and the bare stems.
TERM_ERRORS = [
    ("rule", "1:21: expected 'name', got 'end of input'"),
    ("rule {", "1:22: expected 'name', got '{'"),
    ("parallel rule p", "1:26: expected '{', got 'rule'"),
    ("parallel { rule p, }", "1:36: expected 'name', got '}'"),
    ("parallel { rule p", "1:34: expected '}', got 'end of input'"),
    ("revive rule p", "1:24: expected '{', got 'rule'"),
    ("altRuleApp { }", "1:30: expected 'name', got '}'"),
    ("repeat { rule p }", "1:24: expected '[', got '{'"),
    ("repeat[x] { rule p }", "1:24: expected ']', got 'x'"),
    ("repeat[2 { rule p }", "1:26: expected ']', got '{'"),
    ("repeat[2]", "1:26: expected '{', got 'end of input'"),
    ("takeSubset[]", "1:28: expected 'int', got ']'"),
    ("takeUniverse 3", "1:30: expected '[', got '3'"),
    ("takeSubset[-1]", "1:28: unexpected character '-'"),
    ("filterSubset[]", "1:30: expected 'name', got ']'"),
    ("filterUniverse componentCount == 1", "1:32: expected '[', got 'componentCount'"),
    ("leftPredicate[componentCount] { rule p }",
     "1:45: integer expression needs a comparison operator"),
    ("rightPredicate[componentCount == 1]", "1:52: expected '{', got 'end of input'"),
    ("sortSubset[size]", "1:28: unknown sort key 'size'"),
    ("sortSubset[text, asc]", "1:34: expected 'desc', got 'asc'"),
    ("sortUniverse[text,]", "1:35: expected 'desc', got ']'"),
    ("sortUniverse[3]", "1:30: expected 'name', got '3'"),
    ("addSubset()", "1:27: expected 'name', got ')'"),
    ("addUniverse(g,)", "1:31: expected 'name', got ')'"),
    ("addSubset g", "1:27: expected '(', got 'g'"),
    ("addSubset(g", "1:28: expected ')', got 'end of input'"),
    ("take[3]", "1:17: 'take' needs a Subset or Universe variant"),
    ("filter[componentCount == 1]", "1:17: 'filter' needs a Subset or Universe variant"),
    ("sort[text]", "1:17: 'sort' needs a Subset or Universe variant"),
    ("add(g)", "1:17: 'add' needs a Subset or Universe variant"),
    ("rule p ->", "1:26: expected 'name', got 'end of input'"),
    ("3", "1:17: expected 'name', got '3'"),
]

# A term inside MAX_DEPTH revives (the column of its first token is 593):
# braces and predicate brackets count toward the depth, other brackets not.
DEEP_TERMS = {
    "filterSubset[componentCount == 1]": "1:605: nesting deeper than 64 levels",
    "repeat[2] { rule p }": "1:603: nesting deeper than 64 levels",
    "parallel { rule p }": "1:602: nesting deeper than 64 levels",
    "sortSubset[text]": None,
    "takeSubset[1]": None,
}


# Scripts that reference a name nothing defines, after one defining graph
# g on line 1, and the exact error of each: one per kind of reference.
UNKNOWN_NAMES = [
    ("strategy main = rule nope", "2:22: unknown rule 'nope'"),
    ("strategy main = addSubset(g, nope)", "2:30: unknown graph name 'nope'"),
    ("strategy main = addSubset(g) ->\n  filterUniverse[isGraph(0, nope)]",
     "3:29: unknown graph name 'nope'"),
    ("strategy main = addSubset(g) -> filterSubset[not nope]",
     "2:50: unknown predicate 'nope'"),
    ("strategy main = parallel { addSubset(g), nope }",
     "2:42: unknown strategy 'nope'"),
]


class TestUnknownNames:
    @pytest.mark.parametrize("text, message", UNKNOWN_NAMES)
    def test_error_text_and_location(self, text, message):
        script = parse_script('graph g { v 0 "a"; }\n' + text)
        with pytest.raises(ScriptError) as info:
            run_script(script)
        assert str(info.value) == message

    def test_location_does_not_change_the_ast(self):
        for text, _ in UNKNOWN_NAMES:
            script = parse_script(text)
            printed = format_script(script)
            again = parse_script("\n\n  " + printed)
            assert again == script
            assert format_script(again) == printed


# Scripts that fail while their items are defined, after one defining graph
# g on line 1, and the exact error of each, at the item's name or path.
LOAD_ERRORS = [
    ('graph g { v 0 "b"; }', "2:7: duplicate graph name 'g'"),
    ('molecule g "C"', "2:10: duplicate graph name 'g'"),
    ('rule r { context { v 0 "a"; } }\nrule r { context { v 0 "a"; } }',
     "3:6: duplicate rule name 'r'"),
    ("predicate p = componentCount == 1\npredicate p = componentCount == 2",
     "3:11: duplicate predicate name 'p'"),
    ("strategy s = takeSubset[1]\nstrategy s = takeSubset[2]",
     "3:10: duplicate strategy name 's'"),
    ('graph h { v 0 "a"; v 1 "a"; }', "2:7: graph 'h' must be connected"),
    ('molecule m "C1CC"', "2:10: molecule m: unclosed ring bond 1 opened at position 1"),
    ('molecule m "C1C1"',
     "2:10: molecule m: ring bond 1 at position 3 repeats the bond between atoms 0 and 1"),
    ('include "main.gs"', "2:9: circular include of 'main.gs'"),
    ('include "nope.gs"', "2:9: cannot include 'nope.gs': No such file or directory"),
]


class TestLoadErrors:
    @pytest.mark.parametrize("text, message", LOAD_ERRORS)
    def test_error_text_and_location(self, tmp_path, capsys, text, message):
        script = tmp_path / "main.gs"
        script.write_text('graph g { v 0 "a"; }\n' + text)
        with pytest.raises(ScriptError) as info:
            run_script(load_script(str(script)))
        assert str(info.value) == message
        assert main(["run", str(script)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


# Scripts whose references cannot be followed, after one defining graph g
# on line 1, and the exact error of each, at the reference that closes the
# cycle or goes too deep.
REFERENCE_ERRORS = [
    ("strategy a = b\nstrategy b = a\nstrategy main = a",
     "3:14: strategy definitions form a cycle at 'a'"),
    ("strategy main = main", "2:17: strategy definitions form a cycle at 'main'"),
    ("predicate p = q\npredicate q = p\n"
     "strategy main = addSubset(g) -> filterSubset[p]",
     "3:15: predicate definitions form a cycle at 'p'"),
    ("".join(f"strategy d{i} = d{i + 1}\n" for i in range(99))
     + "strategy d99 = takeSubset[1]\nstrategy main = addSubset(g) -> d0",
     "63:16: strategy references nest too deeply"),
    ("".join(f"predicate d{i} = d{i + 1}\n" for i in range(99))
     + "predicate d99 = isGraph(0, g)\n"
     "strategy main = addSubset(g) -> filterSubset[d0]",
     "62:17: predicate references nest too deeply"),
]


class TestReferenceErrors:
    @pytest.mark.parametrize("text, message", REFERENCE_ERRORS)
    def test_error_text_and_location(self, text, message):
        script = parse_script('graph g { v 0 "a"; }\n' + text)
        with pytest.raises(ScriptError) as info:
            run_script(script)
        assert str(info.value) == message


class TestTermErrors:
    @pytest.mark.parametrize("term, message", TERM_ERRORS)
    def test_error_text_and_location(self, term, message):
        with pytest.raises(ParseError) as info:
            parse_script("strategy main = " + term)
        assert str(info.value) == message

    @pytest.mark.parametrize("term", DEEP_TERMS)
    def test_which_forms_count_toward_the_depth(self, term):
        text = ("strategy main = " + "revive { " * MAX_DEPTH + term
                + " }" * MAX_DEPTH)
        if DEEP_TERMS[term] is None:
            parse_script(text)
            return
        with pytest.raises(ParseError) as info:
            parse_script(text)
        assert str(info.value) == DEEP_TERMS[term]


class TestPrintReparse:
    def test_fixpoint_on_shipped_scripts(self):
        for name in ("diels_bfs.gs", "diels_subspace.gs"):
            script = load_script(str(ASSETS / name))
            printed = format_script(script)
            again = parse_script(printed, script.base_dir)
            assert again == script
            assert format_script(again) == printed

    def test_fixpoint_on_inline_script(self):
        script = parse_script(RELABEL_SCRIPT)
        printed = format_script(script)
        assert parse_script(printed) == script

    def test_fixpoint_covers_all_terms(self):
        text = (
            'graph g { v 0 "a"; }\n'
            "predicate small = vertexCount(0) <= 3 and not isGraph(0, g)\n"
            "strategy main = addUniverse(g) -> addSubset(g)\n"
            "    -> parallel { filterSubset[small], filterUniverse[componentCount == 1] }\n"
            "    -> sortSubset[vertexCount, desc] -> sortUniverse[text]\n"
            "    -> takeSubset[2] -> takeUniverse[3]\n"
            "    -> altRuleApp { revive { repeat[5] { small2 } } }\n"
            "strategy small2 = filterSubset[small or not small]\n"
            'export dot "out.dot"\n'
            'export json "out.json"\n')
        script = parse_script(text)
        printed = format_script(script)
        assert parse_script(printed) == script


# One term per script keyword; each names the relabel script's items.
KEYWORD_TERMS = {
    "rule": "rule p",
    "parallel": "parallel { rule p, rule p }",
    "repeat": "repeat[2] { rule p }",
    "revive": "revive { rule p }",
    "leftPredicate": "leftPredicate[componentCount == 1] { rule p }",
    "rightPredicate": "rightPredicate[vertexCount(0) < 3] { rule p }",
    "filterSubset": "filterSubset[isGraph(0, g1)]",
    "filterUniverse": "filterUniverse[not isGraph(0, g1)]",
    "sortSubset": "sortSubset[vertexCount, desc]",
    "sortUniverse": "sortUniverse[text]",
    "takeSubset": "takeSubset[1]",
    "takeUniverse": "takeUniverse[0]",
    "addSubset": "addSubset(g1, g2)",
    "addUniverse": "addUniverse(g2)",
    "altRuleApp": "altRuleApp { revive { rule p } }",
}


class TestSharedVocabulary:
    def test_every_keyword_term_is_covered(self):
        assert set(KEYWORD_TERMS) == set(dsl.TERMS)

    def test_every_keyword_is_documented(self):
        readme = (ASSETS.parent / "README.md").read_text(encoding="utf-8")
        grammar = readme.split("Terms chain left-to-right with `->`:")[1].split("```")[1]
        for doc in (grammar, dsl.__doc__):
            assert set(dsl.TERMS) <= set(re.findall(r"\w+", doc))

    @pytest.mark.parametrize("keyword", KEYWORD_TERMS)
    def test_label_starts_with_the_script_keyword(self, keyword):
        text = RELABEL_SCRIPT + f"strategy t = {KEYWORD_TERMS[keyword]}\n"
        compiler = dsl._Compiler(EvalContext())
        compiler.load(parse_script(text))
        strat = compiler.compile_strategy(dsl.SRef("t"))
        assert strat.label().startswith(keyword)

    @pytest.mark.parametrize("keyword", KEYWORD_TERMS)
    def test_printed_term_parses_back(self, keyword):
        (item,) = parse_script(f"strategy t = {KEYWORD_TERMS[keyword]}").items
        printed = dsl.format_strategy(item.body)
        assert printed.startswith(keyword)
        (again,) = parse_script(f"strategy t = {printed}").items
        assert again.body == item.body


class TestRunScript:
    def test_relabel_revive_run(self):
        report = run_script(parse_script(RELABEL_SCRIPT))
        assert report.new_graphs == 3  # g3, g4, g5
        assert report.derivations == 3
        assert report.subset_size == 2  # g3 and g5

    def test_empty_script_reports_zero(self):
        report = run_script(parse_script(""))
        assert (report.new_graphs, report.derivations) == (0, 0)
        assert report.universe_size == 0

    def test_script_without_main_runs_nothing(self):
        report = run_script(parse_script('graph g { v 0 "a"; }'))
        assert report.universe_size == 0

    def test_exports_written(self, tmp_path):
        dot = tmp_path / "out.dot"
        js = tmp_path / "out.json"
        run_script(parse_script(RELABEL_SCRIPT), dot_path=str(dot),
                   json_path=str(js))
        assert dot.read_text().startswith("digraph")
        payload = json.loads(js.read_text())
        assert payload["format"] == 1
        assert len(payload["edges"]) == 3

    def test_script_export_directives(self, tmp_path):
        text = RELABEL_SCRIPT + '\nexport json "from_script.json"\n'
        script = parse_script(text, str(tmp_path))
        run_script(script)
        assert (tmp_path / "from_script.json").exists()

    def test_determinism_byte_identical_exports(self, tmp_path):
        for name in ("a", "b"):
            run_script(parse_script(RELABEL_SCRIPT),
                       json_path=str(tmp_path / f"{name}.json"),
                       dot_path=str(tmp_path / f"{name}.dot"))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.dot").read_bytes() == (tmp_path / "b.dot").read_bytes()

    def test_max_repeat_cap(self):
        script = parse_script(RELABEL_SCRIPT)
        capped = run_script(script, ctx=EvalContext(max_repeat=1))
        full = run_script(script)
        assert capped.derivations < full.derivations

    def test_invalid_rule_rejected(self):
        text = 'rule r { right { v 0 "x"; } }\nstrategy main = rule r'
        with pytest.raises(ParseError) as info:
            parse_script(text)
        assert str(info.value) == "1:6: rule r: rule has an empty left side"

    def test_disconnected_graph_rejected(self):
        text = 'graph g { v 0 "a"; v 1 "a"; }'
        with pytest.raises(ScriptError):
            run_script(parse_script(text))

    def test_runtime_error_carries_path(self):
        # filter with an out-of-range isGraph is fine (False); force an
        # error through a rule whose application cannot fail -> use an
        # unknown predicate reference inside a nested strategy instead
        text = ('graph g { v 0 "a"; }\n'
                "strategy main = addSubset(g) -> repeat[2] { filterSubset[nope] }")
        with pytest.raises(ScriptError):
            run_script(parse_script(text))


class TestWriteAtomic:
    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        real_open = open

        class FailingWrite:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                raise OSError("no space left on device")

        monkeypatch.setattr(dsl, "open",
                            lambda *a, **kw: FailingWrite(real_open(*a, **kw)),
                            raising=False)
        target = tmp_path / "out.json"
        with pytest.raises(OSError, match="no space left"):
            write_atomic(str(target), "{}")
        assert list(tmp_path.iterdir()) == []


# Scripts whose error lies in an included file, and the exact error of
# each: the included file's path below the main script's directory leads.
INCLUDE_ERRORS = [
    ({"main.gs": 'include "lib.gs"\nstrategy main = s\n',
      "lib.gs": "strategy s = rule missing\n"},
     ScriptError, "lib.gs:1:19: unknown rule 'missing'"),
    ({"main.gs": 'include "lib.gs"\n', "lib.gs": "strategy s =\n"},
     ParseError, "lib.gs:2:1: expected 'name', got 'end of input'"),
    ({"main.gs": 'include "lib/a.gs"\nstrategy main = s\n',
      "lib/a.gs": 'include "b.gs"\n',
      "lib/b.gs": "predicate p = q\nstrategy s = filterSubset[p]\n"},
     ScriptError, "lib/b.gs:1:15: unknown predicate 'q'"),
    # Back in the main script after an included definition: no file.
    ({"main.gs": 'include "lib.gs"\nstrategy main = s -> rule nope\n',
      "lib.gs": "strategy s = takeSubset[1]\n"},
     ScriptError, "2:27: unknown rule 'nope'"),
    # Errors while the included items are defined, at the item's name.
    ({"main.gs": 'include "lib5.gs"\n', "lib5.gs": 'graph g { v 0 "a"; v 1 "a"; }\n'},
     ScriptError, "lib5.gs:1:7: graph 'g' must be connected"),
    ({"main.gs": 'include "lib.gs"\n', "lib.gs": 'molecule m "C1CC"\n'},
     ScriptError, "lib.gs:1:10: molecule m: unclosed ring bond 1 opened at position 1"),
    ({"main.gs": 'include "lib.gs"\n', "lib.gs": 'graph g { v 0 "a"; }\nmolecule g "C"\n'},
     ScriptError, "lib.gs:2:10: duplicate graph name 'g'"),
    ({"main.gs": 'rule r { context { v 0 "a"; } }\ninclude "lib.gs"\n',
      "lib.gs": 'rule r { context { v 0 "b"; } }\n'},
     ScriptError, "lib.gs:1:6: duplicate rule name 'r'"),
    ({"main.gs": 'include "lib.gs"\npredicate p = componentCount == 1\n',
      "lib.gs": "predicate p = componentCount == 2\n"},
     ScriptError, "2:11: duplicate predicate name 'p'"),
    # A cycle fails at the include that closes it, the main script included.
    ({"main.gs": 'include "x.gs"\n', "x.gs": 'include "main.gs"\n'},
     ScriptError, "x.gs:1:9: circular include of 'main.gs'"),
    ({"main.gs": 'include "lib/a.gs"\n', "lib/a.gs": 'include "b.gs"\n',
      "lib/b.gs": 'include "a.gs"\n'},
     ScriptError, "lib/b.gs:1:9: circular include of 'a.gs'"),
    # A diamond is no cycle: the shared file defines its names twice.
    ({"main.gs": 'include "lib/a.gs"\ninclude "lib/b.gs"\n',
      "lib/a.gs": 'include "c.gs"\n', "lib/b.gs": 'include "c.gs"\n',
      "lib/c.gs": "strategy s = takeSubset[1]\n"},
     ScriptError, "lib/c.gs:1:10: duplicate strategy name 's'"),
    ({"main.gs": 'include "lib/a.gs"\n', "lib/a.gs": 'include "nope.gs"\n'},
     ScriptError, "lib/a.gs:1:9: cannot include 'nope.gs': No such file or directory"),
    # Files are written in Latin-1, so this "é" is no UTF-8.
    ({"main.gs": 'include "lib.gs"\n', "lib.gs": 'graph g { v 0 "é"; }\n'},
     ScriptError, "1:9: cannot include 'lib.gs': 'utf-8' codec can't decode byte 0xe9 "
                  "in position 15: invalid continuation byte"),
    # The path of a file reached through ".." is normalised.
    ({"main.gs": 'include "lib/a.gs"\n', "lib/a.gs": 'include "../b.gs"\n',
      "b.gs": 'graph g { v 0 "a"; v 1 "a"; }\n'},
     ScriptError, "b.gs:1:7: graph 'g' must be connected"),
]


class TestIncludes:
    def test_include_rules(self, tmp_path):
        (tmp_path / "r.gr").write_text(
            'rule p { context { v 0 "a"; v 1 "a"; e 0 1 "b" "c"; } }\n')
        main = tmp_path / "main.gs"
        main.write_text('include "r.gr"\n'
                        'graph g { v 0 "a"; v 1 "a"; e 0 1 "b"; }\n'
                        "strategy main = addSubset(g) -> rule p\n")
        report = run_script(load_script(str(main)))
        assert report.new_graphs == 1

    def test_missing_include(self, tmp_path):
        main = tmp_path / "main.gs"
        main.write_text('include "nope.gr"\n')
        with pytest.raises(ScriptError):
            run_script(load_script(str(main)))

    def test_circular_include(self, tmp_path):
        (tmp_path / "a.gs").write_text('include "b.gs"\n')
        (tmp_path / "b.gs").write_text('include "a.gs"\n')
        with pytest.raises(ScriptError):
            run_script(load_script(str(tmp_path / "a.gs")))

    def test_repeated_include_is_not_a_cycle(self, tmp_path):
        for name, text in (("main.gs", 'include "a.gs"\ninclude "b.gs"\n'),
                           ("a.gs", 'include "c.gs"\n'), ("b.gs", 'include "c.gs"\n'),
                           ("c.gs", "# defines nothing\n")):
            (tmp_path / name).write_text(text)
        assert run_script(load_script(str(tmp_path / "main.gs"))).universe_size == 0

    @pytest.mark.parametrize("files, error, message", INCLUDE_ERRORS)
    def test_error_in_an_included_file_names_it(self, tmp_path, capsys, files, error,
                                                message):
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text, encoding="latin-1")
        with pytest.raises(error) as info:
            run_script(load_script(str(tmp_path / "main.gs")))
        assert str(info.value) == message
        assert main(["run", str(tmp_path / "main.gs")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_ill_formed_rule_is_located_by_every_reader(self, tmp_path):
        # parse_rules, an inline script rule and an included rule file all
        # reject the rule as it is read, at its name.
        text = ('rule ok { context { v 0 "a"; } }\n'
                'rule r {\n  left { v 2 "a"; }\n  context { v 1 "a"; }\n'
                '  right { v 3 "b"; e 2 3 "x"; } }\n')
        (tmp_path / "r.gr").write_text(text)
        (tmp_path / "main.gs").write_text('include "r.gr"\n')
        message = "2:6: rule r: right edge 2-3 touches left-only vertex 2"
        for read, where in ((parse_rules, ""), (parse_script, ""),
                            (lambda _: load_script(str(tmp_path / "main.gs")),
                             "r.gr:")):
            with pytest.raises(ParseError) as info:
                run_script(read(text))
            assert str(info.value) == where + message
            assert (info.value.line, info.value.column) == (2, 6)


ONE_GRAPH = 'graph g { v 0 "a"; }\n'
FILTER = "strategy main = addSubset(g) -> filterSubset["


def _chain(kind, length, body, last):
    """length definitions, each naming the next one inside body."""
    return "".join(f"{kind} d{i} = {body.format(f'd{i + 1}')}\n"
                   for i in range(length - 1)) + f"{kind} d{length - 1} = {last}\n"


TOO_DEEP = {
    "not": (ParseError, FILTER + "not " * 5000 + "isGraph(0, g)]"),
    "parentheses": (ParseError, FILTER + "(" * 5000 + "isGraph(0, g)"
                    + ")" * 5000 + "]"),
    "revive": (ParseError, "strategy main = " + "revive { " * 3000
               + "takeSubset[1]" + " }" * 3000),
    "predicate chain": (ScriptError, _chain("predicate", 3000, "{}", "isGraph(0, g)")
                        + FILTER + "d0]"),
    "strategy chain": (ScriptError, _chain("strategy", 3000, "{}", "takeSubset[1]")
                       + "strategy main = addSubset(g) -> d0"),
    "not-wrapped chain": (ScriptError, _chain("predicate", 60, "not " * 60 + "{}",
                                              "isGraph(0, g)") + FILTER + "d0]"),
}


class TestNestingBound:
    @pytest.mark.parametrize("case", sorted(TOO_DEEP))
    def test_too_deep_fails_with_a_located_error(self, case):
        error, text = TOO_DEEP[case]
        with pytest.raises(error) as info:
            run_script(parse_script(ONE_GRAPH + text))
        assert re.match(r"\d+:\d+: ", str(info.value))

    def test_bound_is_reported_at_the_offending_token(self):
        prefix = FILTER
        ok = prefix + "not " * (MAX_DEPTH - 1) + "isGraph(0, g)]"
        kept = 1 - (MAX_DEPTH - 1) % 2  # an even count of nots keeps g
        assert run_script(parse_script(ONE_GRAPH + ok)).subset_size == kept
        with pytest.raises(ParseError) as info:
            parse_script(ONE_GRAPH + prefix + "not " * MAX_DEPTH + "isGraph(0, g)]")
        assert (info.value.line, info.value.column) == (
            2, len(prefix) + 4 * (MAX_DEPTH - 1) + 1)

    def test_reference_chain_fails_before_the_run(self):
        # Evaluation errors reach run_script as StrategyError; a ScriptError
        # means the chain was rejected while compiling.
        text = ONE_GRAPH + _chain("predicate", 100, "{}", "isGraph(0, g)") + FILTER + "d0]"
        with pytest.raises(ScriptError, match="predicate references nest too deeply"):
            run_script(parse_script(text))

    def test_shared_references_compile_once(self, monkeypatch):
        # d0 = d1 and d1, d1 = d2 and d2, ...: 2^12 paths, 12 definitions
        calls = []
        real = dsl._Compiler._compile_pred
        monkeypatch.setattr(dsl._Compiler, "_compile_pred",
                            lambda self, *a: calls.append(a) or real(self, *a))
        text = ONE_GRAPH + _chain("predicate", 12, "{0} and {0}", "isGraph(0, g)")
        assert run_script(parse_script(text + FILTER + "d0]")).subset_size == 1
        assert len(calls) < 50

    def test_shared_references_evaluate_once_per_call(self, monkeypatch):
        # d0 = d1 and d1, ... over 30 levels has 2^30 paths; a reference
        # replays its last answer, so the shared one below runs once.
        calls = []
        real = dsl._Compiler._compile_pred

        def counting(self, *args):
            pred = real(self, *args)

            def counted(ids, ctx):
                calls.append(1)
                assert len(calls) < 200, "a shared reference ran once per path"
                return pred(ids, ctx)
            return counted

        monkeypatch.setattr(dsl._Compiler, "_compile_pred", counting)
        text = ONE_GRAPH + _chain("predicate", 30, "{0} and {0}", "isGraph(0, g)")
        assert run_script(parse_script(text + FILTER + "d0]")).subset_size == 1
        assert 0 < len(calls) < 200


# -- predicate properties -------------------------------------------------------

PRED_NAMES = ("p0", "p1", "p2")
GRAPHS = {"g0": Graph([(0, "a")]),
          "g1": Graph([(0, "a"), (1, "b")], [(0, 1, "x")]),
          "g2": Graph([(0, "b"), (1, "b"), (2, 'q"\\')], [(0, 1, "x"), (1, 2, "y")])}

_indexes = hs.integers(0, 3)  # multisets hold up to 3 ids: 3 is out of range
_ints = hs.one_of(
    hs.builds(dsl.IntLit, hs.integers(0, 4)),
    hs.just(dsl.Atom("componentCount", ())),
    hs.builds(lambda word, index: dsl.Atom(word, (index,)),
              hs.sampled_from(("vertexCount", "edgeCount")), _indexes))


def _flat(cls):
    """cls over two or three parts, parts of the same kind spliced in as the
    parser would read them."""
    def build(parts):
        return cls(tuple(q for p in parts
                         for q in (p.parts if isinstance(p, cls) else (p,))))
    return build


def predicates(refs=PRED_NAMES):
    atoms = [hs.builds(dsl.Compare, hs.sampled_from(tuple(dsl.CMP_OPS)), _ints, _ints),
             hs.builds(lambda index, label: dsl.Atom("hasVertexLabel", (index, label)),
                       _indexes, hs.sampled_from(("a", "b", 'q"\\', ""))),
             hs.builds(lambda index, name: dsl.Atom("isGraph", (index, name)),
                       _indexes, hs.sampled_from(tuple(GRAPHS)))]
    if refs:
        atoms.append(hs.builds(dsl.PredRef, hs.sampled_from(refs)))
    return hs.recursive(hs.one_of(atoms), lambda inner: hs.one_of(
        hs.builds(dsl.Not, inner),
        hs.lists(inner, min_size=2, max_size=3).map(_flat(dsl.And)),
        hs.lists(inner, min_size=2, max_size=3).map(_flat(dsl.Or))),
        max_leaves=8)


class TestPredicateProperties:
    def test_oracle_evaluates_every_atom(self):
        # The reference evaluates each atom word with its own code; a word
        # added to ATOMS needs a case there, of the same type.
        is_int = {word: entry[1] for word, entry in dsl.ATOMS.items()}
        assert {word for word, yes in is_int.items() if yes} == oracles.INT_ATOMS.keys()
        assert {word for word, yes in is_int.items() if not yes} == oracles.BOOL_ATOMS.keys()

    @settings(max_examples=300, deadline=None)
    @given(predicates())
    def test_format_then_parse_is_identity(self, expr):
        ts = lex.TokenStream(lex.tokenize(dsl.format_pred(expr)))
        assert dsl._parse_pred(ts) == expr
        ts.expect_eof()

    @settings(max_examples=200, deadline=None)
    @given(hs.tuples(predicates(()), predicates(PRED_NAMES[:1]),
                     predicates(PRED_NAMES[:2])),
           predicates(),
           hs.lists(hs.lists(hs.integers(0, 3), max_size=3), min_size=1, max_size=6))
    def test_compiled_closure_equals_reference(self, defs, expr, multisets):
        ctx = EvalContext()
        compiler = dsl._Compiler(ctx)
        compiler.load(dsl.Script(
            tuple(dsl.Item("graph", name, g) for name, g in GRAPHS.items())
            + tuple(dsl.Item("predicate", name, d) for name, d in zip(PRED_NAMES, defs))))
        extra, _ = ctx.repo.intern(Graph([(0, "b"), (1, "a")], [(0, 1, "y")]))
        gids = sorted(ctx.names.values()) + [extra]
        pred = compiler._compile_pred(expr, (), 0)
        for picks in multisets:
            ids = tuple(sorted(gids[i] for i in picks))
            assert pred(ids, ctx) == oracles.eval_pred(expr, ids, ctx,
                                                       compiler.predicates)


# -- script properties ----------------------------------------------------------

_SCOPES = hs.sampled_from(("Subset", "Universe"))
_PRED_TEXT = predicates().map(dsl.format_pred)
_TERM_LEAVES = hs.one_of(
    hs.sampled_from(("rule r", "s0", "main")),
    hs.builds("filter{}[{}]".format, _SCOPES, _PRED_TEXT),
    hs.builds("sort{}[{}{}]".format, _SCOPES, hs.sampled_from(tuple(dsl.SORT_KEYS)),
              hs.sampled_from(("", ", desc"))),
    hs.builds("take{}[{}]".format, _SCOPES, hs.integers(0, 12)),
    hs.builds("add{}({})".format, _SCOPES, hs.lists(
        hs.sampled_from(tuple(GRAPHS)), min_size=1, max_size=3).map(", ".join)))


def _term_nodes(inner):
    return hs.one_of(
        hs.lists(inner, min_size=2, max_size=3).map(" -> ".join),
        hs.lists(inner, min_size=1, max_size=3).map(
            lambda branches: "parallel { " + ", ".join(branches) + " }"),
        hs.builds("repeat[{}] {{ {} }}".format, hs.sampled_from(("", "0", "7")), inner),
        hs.builds("revive {{ {} }}".format, inner),
        hs.builds("{}Predicate[{}] {{ {} }}".format, hs.sampled_from(("left", "right")),
                  _PRED_TEXT, inner),
        hs.builds("altRuleApp {{ {} }}".format, inner))


_SCRIPT_ITEMS = hs.one_of(
    hs.sampled_from([serialize_graph(g, name) for name, g in GRAPHS.items()]
                    + ['rule r { left { v 2 "x"; e 0 2 "y"; }\n'
                       'context { v 0 "a"; v 1 "a" "b"; e 0 1 "y" "z"; } }',
                       'molecule m "C=C"', 'include "r.gr"',
                       'export dot "out.dot"', 'export json "out.json"']),
    hs.builds("predicate {} = {}".format, hs.sampled_from(PRED_NAMES), _PRED_TEXT),
    hs.builds("strategy {} = {}".format, hs.sampled_from(("s0", "main")),
              hs.recursive(_TERM_LEAVES, _term_nodes, max_leaves=10)))


class TestScriptProperties:
    @settings(max_examples=200, deadline=None)
    @given(hs.lists(_SCRIPT_ITEMS, min_size=1, max_size=6))
    def test_print_reparse_round_trip(self, items):
        script = parse_script("\n".join(items))
        printed = format_script(script)
        again = parse_script(printed)
        assert again == script
        assert format_script(again) == printed
