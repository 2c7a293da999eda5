import ast
import importlib
import importlib.util
import inspect
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import gstrat


def test_every_exported_name_resolves():
    missing = [name for name in gstrat.__all__ if not hasattr(gstrat, name)]
    assert missing == []
    assert len(set(gstrat.__all__)) == len(gstrat.__all__)


def test_runtime_imports_stdlib_only():
    # The engine and the CLI must load without the test-only packages.
    src = Path(__file__).parent.parent / "src"
    probe = ("import sys, gstrat, gstrat.cli; "
             "print(sorted({'networkx', 'hypothesis'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def load_perfbench(name):
    """perfbench/<name>.py, loaded by path; nothing is wrapped until
    ``Probes.install`` runs, and these tests never call it."""
    path = Path(__file__).parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_boundaries_resolve():
    # perfbench wraps these names; a rename in src/ would break the
    # benchmark while every other test passes.
    probes = load_perfbench("probes")
    for owner, attr, *_ in probes.BOUNDARIES:
        assert inspect.getattr_static(probes._resolve(owner), attr), (owner, attr)
    for module_name, attr in probes.IMPORT_SITES:
        assert hasattr(importlib.import_module(module_name), attr), (module_name, attr)


def test_benchmark_gate_equals_acceptance_gate():
    # perfbench checks each diels_bfs run against its own copy of the
    # criterion 2 counts and the golden hashes; the two must not drift.
    from .test_acceptance import BFS_DERIVATIONS, BFS_NEW_GRAPHS, GOLDEN_EXPORTS

    workloads = load_perfbench("workloads")
    assert workloads.BFS_NEW_GRAPHS == BFS_NEW_GRAPHS
    assert workloads.BFS_DERIVATIONS == BFS_DERIVATIONS
    assert workloads.BFS_JSON_SHA256 == GOLDEN_EXPORTS["bfs.json"]
    assert workloads.BFS_DOT_SHA256 == GOLDEN_EXPORTS["bfs.dot"]


def scopes_in_src(matches) -> set[str]:
    """The functions in src/gstrat holding a node that matches, as
    module.scope paths."""
    def scopes(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from scopes(child, scope + (child.name,))
                continue
            if matches(child):
                yield ".".join(scope)
            yield from scopes(child, scope)

    src = Path(__file__).parent.parent / "src" / "gstrat"
    return {found for path in sorted(src.glob("*.py"))
            for found in scopes(ast.parse(path.read_text()), (path.stem,))}


def callers_in_src(name: str) -> set[str]:
    """The functions in src/gstrat that call name, as module.scope paths."""
    return scopes_in_src(lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_only_counted_boundaries_run_the_embedding_search():
    # perfbench counts the embedding search at enumerate_embeddings, and
    # Rule.automorphisms searches each rule once.  Any other caller of a
    # plan's compiled search would run it past the counted boundary.
    assert callers_in_src("search") == {"matching.enumerate_embeddings",
                                        "rules.Rule.automorphisms"}
    assert callers_in_src("_compile") == {"matching._plan"}


def test_every_application_passes_the_derivation_memo():
    # Rules are applied only to complete matches that iter_proper_derivations
    # has looked up in its MatchCache's derivation memo, and every
    # application passes perfbench's counted complete and apply boundaries.
    assert callers_in_src("apply_at") == {"rewrite.complete_derivation"}
    assert callers_in_src("complete_derivation") == {
        "rewrite.iter_proper_derivations"}


def test_only_apply_at_builds_from_a_layout():
    # Graph takes a private positional layout as given, unchecked, and
    # records the graph as connected; apply_at's one-component layouts are
    # its only source.
    def passes_layout(node):
        return isinstance(node, ast.Call) and any(
            k.arg == "_dense" for k in node.keywords)
    assert scopes_in_src(passes_layout) == {"rewrite.apply_at"}


def test_graph_storage_has_known_readers():
    # A Graph holds its ids, labels and neighbour dicts by position (or by
    # id, for sparse ids); outside graphs.py only these functions read
    # that storage, so a change to the layout has these readers to review.
    def reads_storage(node):
        return isinstance(node, ast.Attribute) and node.attr in (
            "_ids", "_labels", "_adj")
    assert {scope for scope in scopes_in_src(reads_storage)
            if not scope.startswith("graphs.")} == {
        "rewrite.apply_at", "rewrite._gluing_ok", "matching._compile.search"}


def assignment_targets(node):
    """The targets of an assignment or delete statement, with the elements
    of tuple and list targets; nothing for any other node."""
    if isinstance(node, (ast.Assign, ast.Delete)):
        found = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        found = [node.target]
    else:
        return []
    for t in found:
        if isinstance(t, (ast.Tuple, ast.List)):
            found += t.elts
    return found


def adjacency_writes(function):
    """The containers of the subscript stores and deletes in a function
    (nested ones included) that may write into a graph's neighbour dict: a
    container that reads ``_adj`` or ``neighbors``, that is an element or
    a call's result (``nbrs[raw][n] = ``, ``own(raw)[n] = ``, shown as
    ``own(...)``), or a name bound to a read of ``_adj`` or ``neighbors``
    or to an element of such a name."""
    def reads_adjacency(expr):
        return any(getattr(n, "attr", None) in ("_adj", "neighbors")
                   for n in ast.walk(expr))

    nodes = list(ast.walk(function))
    assigned = [(n.value, t.id) for n in nodes
                if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign))
                and n.value is not None
                for t in assignment_targets(n) if isinstance(t, ast.Name)]
    bound = {name for value, name in assigned if reads_adjacency(value)}
    bound |= {name for value, name in assigned if isinstance(value, ast.Subscript)
              and getattr(value.value, "id", None) in bound}
    for n in nodes:
        for t in assignment_targets(n):
            if not isinstance(t, ast.Subscript):
                continue
            c = t.value
            if isinstance(c, ast.Call):
                yield ast.unparse(c.func) + "(...)"
            elif (isinstance(c, ast.Subscript) or reads_adjacency(c)
                  or getattr(c, "id", None) in bound):
                yield ast.unparse(c)


def test_no_stored_neighbour_dict_is_written():
    # Stored graphs share unchanged neighbour dicts, so none may be written
    # to.  The only writes near one are apply_at's: into the copy that its
    # copy-on-write own(raw) returns, and into slots of its nbrs list.
    src = Path(__file__).parent.parent / "src" / "gstrat"
    writes = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        functions += [node for cls in tree.body if isinstance(cls, ast.ClassDef)
                      for node in cls.body if isinstance(node, ast.FunctionDef)]
        writes |= {(f"{path.stem}.{f.name}", container)
                   for f in functions for container in adjacency_writes(f)}
    assert writes == {("rewrite.apply_at", "own(...)"),
                      ("rewrite.apply_at", "nbrs")}


def test_private_names_cross_modules_only_where_listed():
    # A private name that another module imports is part of its module's
    # interface in all but name; these are the only ones.
    src = Path(__file__).parent.parent / "src" / "gstrat"
    imported = {(path.stem, (node.module or "").removeprefix("gstrat."), alias.name)
                for path in sorted(src.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").startswith("gstrat."))
                for alias in node.names if alias.name.startswith("_")}
    assert imported == {("catalan", "graphs", "_parse_graph_body"),
                        ("dsl", "graphs", "_parse_graph_body"),
                        ("rules", "graphs", "_edge_key"),
                        ("rules", "matching", "_plan")}


def test_script_errors_are_built_in_one_place():
    # Every ScriptError leads with the location (and the included file) of
    # the name it is about, because _Compiler.error builds them all.
    assert callers_in_src("ScriptError") == {"dsl._Compiler.error"}


def test_a_class_symmetry_has_one_owner():
    # A class's known automorphisms are those its stored graph's labelling
    # recorded: a graph starts with none, only canonical_form records them,
    # and every host key is the stored graph's orbit_key, asked for by the
    # match key alone.
    def writes_symmetry(none):
        def matches(node):
            value = getattr(node, "value", None)
            is_none = isinstance(value, ast.Constant) and value.value is None
            return is_none == none and any(getattr(t, "attr", None) == "_symmetry"
                                           for t in assignment_targets(node))
        return matches
    assert scopes_in_src(writes_symmetry(True)) == {"graphs.Graph.__init__"}
    assert scopes_in_src(writes_symmetry(False)) == {"graphs.Graph.canonical_form"}
    assert callers_in_src("orbit_key") == {"rewrite._orbit_key"}


def test_rule_declarations_follow_one_policy():
    # Rule.build and the rule reader declare each entry through _declare,
    # the only place that makes rule elements besides inversion.
    assert callers_in_src("_declare") == {"rules.Rule.build",
                                          "rules.parse_rule_body"}
    assert callers_in_src("RuleElement") == {"rules._declare",
                                             "rules.RuleElement.inverted"}


# Definitions that nothing in src/ names, each with the reason it stays.
UNREFERENCED_DEFINITIONS = {
    "graphs.Graph.refinement_colors":
        "perfbench's graphs.refine boundary wraps it (ROADMAP item 2)",
    "catalan.oracle_solve": "the catalan_solve workload's oracle",
    "catalan.random_level": "the catalan_solve workload's corpus",
    "rules.Rule.inverted":
        "the public inversion API of the README and the inversion_sweep "
        "workload",
}


def test_no_dead_definitions_in_src():
    # Every def and class in src/gstrat is named somewhere in src/ outside
    # its own body, or exported by gstrat.__all__, or listed above.
    # Dunder methods are called by the language.
    def names(node):
        found = Counter()
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                found[n.id] += 1
            elif isinstance(n, ast.Attribute):
                found[n.attr] += 1
            elif isinstance(n, ast.alias):
                found[n.name] += 1
        return found

    def definitions(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield ".".join(scope + (child.name,)), child
                yield from definitions(child, scope + (child.name,))
            else:
                yield from definitions(child, scope)

    src = Path(__file__).parent.parent / "src" / "gstrat"
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    named = sum((names(tree) for tree in trees.values()), Counter())
    unreferenced = {
        path for module, tree in trees.items()
        for path, node in definitions(tree, (module,))
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in gstrat.__all__
        and named[node.name] == names(node)[node.name]}
    assert unreferenced == set(UNREFERENCED_DEFINITIONS)


def test_script_predicates_reach_strategies_unwrapped():
    # The DSL compiles every predicate to the strategy layer's one
    # predicate shape, (ids, ctx) -> bool, so it passes them on as they are.
    from gstrat import dsl
    from gstrat import strategies as st

    assert dsl._SCOPED["filter"][1] is st.Filter
    for side in ("left", "right"):
        assert dsl.TERMS[f"{side}Predicate"][1].func is st.Predicate


def test_every_script_construct_is_documented():
    # Each keyword term, top-level item and predicate atom word must appear
    # in the README's script-language section, so that none ships
    # undocumented.
    from gstrat import dsl

    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Strategy scripts\n")[1].split("\n## ")[0]
    words = set(re.findall(r"\w+", section))
    assert set(dsl.TERMS) | set(dsl.ITEMS) | set(dsl.ATOMS) <= words
