import json
import random

from hypothesis import given, settings
from hypothesis import strategies as hs

from gstrat.derivations import DerivationGraph
from gstrat.graphs import Graph, GraphRepository, LineEnds, serialize_graph
from gstrat.rewrite import enumerate_proper_derivations
from gstrat.rules import Rule

from . import oracles
from .test_rules import relabel_rule


def two_to_one_rule():
    # 2 H2 + O2 -> 2 H2O analogue on tiny labeled graphs: two "h" vertices
    # and one "o" vertex merge into two "w" components.
    return Rule.build(
        "burn",
        context_vertices=[(0, "h", "w"), (1, "h", "w"), (2, "o", "o")],
        right_edges=[(0, 2, "")],
    )


class TestRecord:
    def test_multiplicities_recorded(self):
        repo = GraphRepository()
        h2, _ = repo.intern(Graph([(0, "h")]))
        o2, _ = repo.intern(Graph([(0, "o")]))
        rule = two_to_one_rule()
        derivations = enumerate_proper_derivations(rule, [h2, o2], repo=repo)
        with_two_h = [d for d in derivations if d.inputs.count(h2) == 2]
        assert with_two_h
        sink = DerivationGraph()
        assert sink.record(with_two_h[0])
        (edge,) = sink.edges
        assert dict(edge.inputs)[h2] == 2

    def test_duplicate_returns_false(self):
        repo = GraphRepository()
        g1, _ = repo.intern(Graph([(0, "a"), (1, "a")], [(0, 1, "b")]))
        (d,) = enumerate_proper_derivations(relabel_rule(), [g1], repo=repo)
        sink = DerivationGraph()
        assert sink.record(d)
        assert not sink.record(d)
        assert len(sink) == 1

    def test_vertices_cover_recorded_graphs(self):
        repo = GraphRepository()
        g1, _ = repo.intern(Graph([(0, "a"), (1, "a")], [(0, 1, "b")]))
        (d,) = enumerate_proper_derivations(relabel_rule(), [g1], repo=repo)
        sink = DerivationGraph()
        sink.record(d)
        assert set(sink.vertex_ids) == set(d.inputs) | set(d.outputs)


class TestDotExport:
    def _sink_with(self, repo):
        g1, _ = repo.intern(Graph([(0, "a"), (1, "a")], [(0, 1, "b")]))
        (d,) = enumerate_proper_derivations(relabel_rule(), [g1], repo=repo)
        sink = DerivationGraph()
        sink.record(d)
        return sink, d

    def test_one_to_one_direct_arc(self):
        repo = GraphRepository()
        sink, d = self._sink_with(repo)
        dot = sink.to_dot(repo)
        assert f"g{d.inputs[0]} -> g{d.outputs[0]} [label=\"p\"];" in dot
        assert "shape=box" not in dot

    def test_multi_input_box_node(self):
        repo = GraphRepository()
        h2, _ = repo.intern(Graph([(0, "h")]))
        o2, _ = repo.intern(Graph([(0, "o")]))
        derivations = enumerate_proper_derivations(two_to_one_rule(), [h2, o2],
                                                   repo=repo)
        sink = DerivationGraph()
        for d in derivations:
            sink.record(d)
        dot = sink.to_dot(repo)
        assert "shape=box" in dot
        two_h = [d for d in derivations if d.inputs.count(h2) == 2]
        assert two_h  # multiplicity renders as repeated arcs
        idx = sink.edges.index(
            next(e for e in sink.edges if dict(e.inputs).get(h2) == 2))
        assert dot.count(f"g{h2} -> e{idx};") == 2

    def test_empty_hypergraph_is_valid_dot(self):
        dot = DerivationGraph().to_dot(GraphRepository())
        assert dot == "digraph derivations {\n}\n"

    def test_dot_output_is_syntactically_valid(self):
        import re

        repo = GraphRepository()
        h2, _ = repo.intern(Graph([(0, "h")]))
        o2, _ = repo.intern(Graph([(0, "o")]))
        sink = DerivationGraph()
        for d in enumerate_proper_derivations(two_to_one_rule(), [h2, o2],
                                              repo=repo):
            sink.record(d)
        g1, _ = repo.intern(Graph([(0, "a"), (1, "a")], [(0, 1, "b")]))
        for d in enumerate_proper_derivations(relabel_rule(), [g1], repo=repo):
            sink.record(d)
        # Names with a quote or a backslash, as GraphRepository.set_name and
        # Rule.build accept them, are escaped inside the DOT string.
        repo.set_name(g1, 'say "hi" \\')
        sink.record(Fake('r"\\', (g1,), (h2,)))
        sink.record(Fake('s\\"', (g1, h2), (o2,)))
        lines = sink.to_dot(repo).splitlines()
        assert lines[0] == "digraph derivations {"
        assert lines[-1] == "}"
        string = r'"(?:[^"\\]|\\.)*"'
        node = re.compile(rf'^  \w+ \[(shape=box, )?label={string}\];$')
        arc = re.compile(rf'^  \w+ -> \w+( \[label={string}\])?;$')
        for line in lines[1:-1]:
            assert node.match(line) or arc.match(line), line
        assert f'  g{g1} [label="say \\"hi\\" \\\\"];' in lines
        assert f'  g{g1} -> g{h2} [label="r\\"\\\\"];' in lines

    def test_box_count_matches_non_one_to_one_edges(self):
        repo = GraphRepository()
        h2, _ = repo.intern(Graph([(0, "h")]))
        o2, _ = repo.intern(Graph([(0, "o")]))
        sink = DerivationGraph()
        for d in enumerate_proper_derivations(two_to_one_rule(), [h2, o2],
                                              repo=repo):
            sink.record(d)
        dot = sink.to_dot(repo)
        boxes = dot.count("shape=box")
        assert boxes == sum(1 for e in sink.edges if not e.is_one_to_one)


class TestJsonExport:
    def test_schema(self):
        repo = GraphRepository()
        g1, _ = repo.intern(Graph([(0, "a"), (1, "a")], [(0, 1, "b")]))
        (d,) = enumerate_proper_derivations(relabel_rule(), [g1], repo=repo)
        sink = DerivationGraph()
        sink.record(d)
        payload = json.loads(sink.to_json(repo))
        assert payload["format"] == 1
        assert {g["id"] for g in payload["graphs"]} == set(sink.vertex_ids)
        assert all(set(g) == {"id", "name", "gml"} for g in payload["graphs"])
        (edge,) = payload["edges"]
        assert edge["rule"] == "p"
        assert edge["in"][0]["count"] == 1


class Fake:
    """Just what DerivationGraph.record reads of a derivation."""

    def __init__(self, rule_name, inputs, outputs):
        self.rule = type("R", (), {"name": rule_name})()
        self.inputs = inputs
        self.outputs = outputs

    @property
    def key(self):
        return (self.rule.name, self.inputs, self.outputs)


# Labels and names that exercise every escaping rule: quotes, backslashes,
# control characters, non-ASCII and astral characters, the empty string.
TEXTS = hs.one_of(hs.sampled_from(["", '"', "\\", "\t", "\n", "é", "\U0001d11e",
                                   'a "b" \\c', "C", "H"]),
                  hs.text(max_size=4))


@hs.composite
def graphs(draw, min_vertices: int = 0, connected: bool = False) -> Graph:
    """A graph on sparse vertex ids (two- and three-digit ids sort
    differently as text), connected through a random tree if asked."""
    ids = draw(hs.lists(hs.integers(0, 150), min_size=min_vertices,
                        max_size=7, unique=True))
    vertices = [(vid, draw(TEXTS)) for vid in ids]
    edges: dict[tuple[int, int], str] = {}
    if connected:
        for k in range(1, len(ids)):
            u, v = ids[draw(hs.integers(0, k - 1))], ids[k]
            edges[min(u, v), max(u, v)] = draw(TEXTS)
    if len(ids) > 1:
        for u, v in draw(hs.lists(hs.tuples(hs.sampled_from(ids),
                                            hs.sampled_from(ids)), max_size=8)):
            if u != v:
                edges.setdefault((min(u, v), max(u, v)), draw(TEXTS))
    return Graph(vertices, [(u, v, el) for (u, v), el in edges.items()])


@hs.composite
def derivation_graphs(draw) -> tuple[DerivationGraph, GraphRepository]:
    """A recorded hypergraph over interned graphs, some renamed: possibly
    empty, with empty sides, multiplicities above 1 and one-to-one edges."""
    repo = GraphRepository()
    ids = []
    for _ in range(draw(hs.integers(0, 4))):
        gid, _ = repo.intern(draw(graphs(min_vertices=1, connected=True)))
        if draw(hs.booleans()):
            repo.set_name(gid, draw(TEXTS))
        ids.append(gid)
    sink = DerivationGraph()
    if ids:
        side = hs.lists(hs.sampled_from(ids), max_size=3)
        for _ in range(draw(hs.integers(0, 6))):
            sink.record(Fake(draw(TEXTS), tuple(sorted(draw(side))),
                             tuple(sorted(draw(side)))))
    return sink, repo


class TestExportEqualsReference:
    @settings(max_examples=300, deadline=None)
    @given(graphs(), TEXTS)
    def test_serialize_graph(self, g, name):
        assert serialize_graph(g, name) == oracles.serialize_graph(g, name)
        ends = LineEnds()
        assert serialize_graph(g, name, ends) == oracles.serialize_graph(g, name)
        assert serialize_graph(g, name, ends) == oracles.serialize_graph(g, name)

    @settings(max_examples=300, deadline=None)
    @given(derivation_graphs())
    def test_json(self, sink_repo):
        sink, repo = sink_repo
        assert sink.to_json(repo) == oracles.json_export(sink, repo)

    def test_json_named_shapes(self):
        # The shapes the layout treats apart, each present for certain: an
        # empty sink, empty sides, multiplicities above 1, one-to-one edges,
        # and names and labels that need escaping.
        assert DerivationGraph().to_json(GraphRepository()) == \
            oracles.json_export(DerivationGraph(), GraphRepository())
        repo = GraphRepository()
        a, _ = repo.intern(Graph([(0, 'q"\\'), (1, "\U0001d11e")],
                                 [(0, 1, "\t\n")]))
        b, _ = repo.intern(Graph([(0, "")]))
        repo.set_name(a, 'x "y" \\ é')
        sink = DerivationGraph()
        sink.record(Fake("one", (a,), (b,)))
        sink.record(Fake('two\\"', (a, a), (b, b, b)))
        sink.record(Fake("", (b,), ()))
        assert [e.is_one_to_one for e in sink.edges] == [True, False, False]
        assert sink.to_json(repo) == oracles.json_export(sink, repo)
        assert json.loads(sink.to_json(repo))["edges"][2]["out"] == []


class TestFindPath:
    def _chain_sink(self):
        # a -> b -> c as 1-to-1 edges plus a detour needing a free input
        repo = GraphRepository()
        ids = {}
        for name in "abcf":
            ids[name], _ = repo.intern(Graph([(0, name)]))
        sink = DerivationGraph()
        sink.record(Fake("p", (ids["a"],), (ids["b"],)))
        sink.record(Fake("q", tuple(sorted((ids["b"], ids["f"]))), (ids["c"],)))
        return sink, ids

    def test_source_equals_target(self):
        sink, ids = self._chain_sink()
        assert sink.find_path(ids["a"], ids["a"]) == []

    def test_unreachable_without_free_input(self):
        sink, ids = self._chain_sink()
        assert sink.find_path(ids["a"], ids["c"]) is None

    def test_free_input_enables_path(self):
        sink, ids = self._chain_sink()
        path = sink.find_path(ids["a"], ids["c"], free_inputs=(ids["f"],))
        assert path is not None
        assert [e.rule_name for e in path] == ["p", "q"]

    def test_free_target_is_reached_before_any_edge_fires(self):
        # The answer must not depend on whether some edge fires at all.
        sink = DerivationGraph()
        sink.record(Fake("p", (1,), (2,)))
        assert sink.find_path(1, 5, free_inputs=(5,)) == []
        assert sink.find_path(3, 5, free_inputs=(5,)) == []

    def test_path_through_reaction_space_with_free_coreactant(self):
        # with isoprene always available, every depth-2 product is reachable
        # from cyclohexadiene through the recorded bimolecular derivations
        from gstrat.chem import diels_alder_rule, parse_molecule
        from gstrat.strategies import (Add, EMPTY_STATE, EvalContext,
                                       Predicate, Repeat, RuleApplication,
                                       Sequence)

        ctx = EvalContext()
        iso, _ = ctx.repo.intern(parse_molecule("CC(=C)C=C"))
        chx, _ = ctx.repo.intern(parse_molecule("C1=CC=CCC1"))
        bimol = lambda ids_, c: len(ids_) == 2
        Sequence([
            Add("subset", (parse_molecule("CC(=C)C=C"),
                           parse_molecule("C1=CC=CCC1"))),
            Repeat(Predicate("left", bimol,
                             RuleApplication(diels_alder_rule())), 2),
        ]).apply(EMPTY_STATE, ctx)
        second_generation = [e for e in ctx.sink.edges
                             if iso in {g for g, _ in e.inputs}
                             and chx not in {g for g, _ in e.inputs}]
        assert second_generation
        target = second_generation[0].outputs[0][0]
        path = ctx.sink.find_path(chx, target, free_inputs=(iso,))
        assert path is not None
        assert any(target == g for g, _ in path[-1].outputs)

    def test_long_chain_needs_no_recursion(self):
        # 5000 layers: each edge fires once its one input is reached
        sink = DerivationGraph()
        for gid in range(5000):
            sink.record(Fake("step", (gid,), (gid + 1,)))
        path = sink.find_path(0, 5000)
        assert [e.inputs[0][0] for e in path] == list(range(5000))

    def test_equals_reference_on_random_hypergraphs(self):
        rng = random.Random(71)
        found = unreachable = 0
        for _ in range(400):
            sink = DerivationGraph()
            n = rng.randint(2, 9)
            for k in range(rng.randint(1, 14)):
                inputs = tuple(sorted(rng.choices(range(n), k=rng.randint(1, 3))))
                outputs = tuple(sorted(rng.choices(range(n), k=rng.randint(1, 3))))
                sink.record(Fake(f"r{k % 3}", inputs, outputs))
            source, target = rng.randrange(n), rng.randrange(n)
            free = tuple(rng.sample(range(n), rng.randint(0, 2)))
            banned = f"r{rng.randrange(4)}"
            keep = None if rng.random() < 0.5 else (
                lambda e, banned=banned: e.rule_name != banned)
            got = sink.find_path(source, target, free, keep)
            assert got == oracles.find_path(sink, source, target, free, keep)
            if got is None:
                unreachable += 1
            elif got:
                found += 1
        assert found > 60 and unreachable > 60, (found, unreachable)
