import math
import random
from pathlib import Path

import pytest

from gstrat.catalan import (GOAL, LevelError, catalan_rules, contract_move,
                            is_goal, oracle_solve, parse_level, random_level,
                            solve_level, validate_level)
from gstrat.graphs import Graph, GraphRepository, isomorphic
from gstrat.lex import ParseError
from gstrat.rewrite import (MatchCache, _complete_matches, bind_graph,
                            enumerate_proper_derivations)
from gstrat.strategies import EvalContext

from .catalan_helpers import (complete_graph, cycle_graph, move_successors,
                              pipeline_move, serialize_level)
from .oracles import oracle_successors

LEVELS = Path(__file__).parent.parent / "assets" / "levels"


def wheel4():
    return Graph([(i, "0") for i in range(5)],
                 [(0, i, "") for i in range(1, 5)] +
                 [(i, i % 4 + 1, "") for i in range(1, 5)])


def star3():
    return Graph([(i, "0") for i in range(4)], [(0, i, "") for i in range(1, 4)])


def path4():
    return Graph([(i, "0") for i in range(4)],
                 [(i, i + 1, "") for i in range(3)])


class TestRules:
    def test_seven_rules(self):
        rules = catalan_rules()
        assert [r.name for r in rules] == [
            "mark", "markForFail", "removeInterR", "reattachExternal",
            "removeAttached", "removeR", "unmark"]

    def test_mark_on_k4_single_class(self):
        # K4 is vertex-transitive: every marking is isomorphic.
        ctx = EvalContext()
        k4, _ = ctx.repo.intern(complete_graph(4))
        mark = catalan_rules()[0]
        derivations = enumerate_proper_derivations(mark, [k4], [k4],
                                                   repo=ctx.repo, cache=ctx.cache)
        assert len(derivations) == 1
        outputs = {gid for d in derivations for gid in d.outputs}
        assert len(outputs) == 1

    def test_mark_binds_once_per_rule_orbit(self):
        # mark's six automorphisms permute the three neighbours it marks, so
        # the binding loop sees one complete match per centre and 3-subset
        # of its neighbours, and bind_graph every ordering of them.
        total = 0
        mark = catalan_rules()[0]
        for path in sorted(LEVELS.glob("*.gl")):
            repo = GraphRepository()
            gid, _ = repo.intern(parse_level(path.read_text()))
            g = repo.graph(gid)
            want = sum(math.comb(g.degree(v), 3) for v in g.vertex_ids())
            cache = MatchCache()
            matches = list(_complete_matches(mark, [gid], (), repo, cache))
            assert len(matches) == want, path.name
            assert len(bind_graph(mark, gid, repo, cache)) == 6 * want
            total += want
        assert total > 0

    def test_remove_r_rejects_attached_r(self):
        # an R vertex with an extra edge must dangle, guarding the pipeline
        ctx = EvalContext()
        host = Graph([(0, "A"), (1, "R"), (2, "R"), (3, "R"), (4, "0")],
                     [(0, 1, ""), (0, 2, ""), (0, 3, ""), (1, 4, "")])
        gid, _ = ctx.repo.intern(host)
        remove_r = catalan_rules()[5]
        assert enumerate_proper_derivations(remove_r, [gid], [gid],
                                            repo=ctx.repo) == []

    def test_unmark_without_marked_vertex(self):
        ctx = EvalContext()
        gid, _ = ctx.repo.intern(complete_graph(3))
        unmark = catalan_rules()[6]
        assert enumerate_proper_derivations(unmark, [gid], [gid],
                                            repo=ctx.repo) == []


class TestContractMove:
    def test_k4_collapses_to_goal(self):
        for v in range(4):
            moved = contract_move(complete_graph(4), v)
            assert moved is not None and is_goal(moved)

    def test_star_center(self):
        moved = contract_move(star3(), 0)
        assert moved is not None and is_goal(moved)

    def test_wrong_degree_rejected(self):
        assert contract_move(path4(), 1) is None  # degree 2
        assert contract_move(wheel4(), 0) is None  # degree 4

    def test_external_edges_collapse(self):
        # two triangles sharing a path; contraction keeps simplicity
        g = Graph([(i, "0") for i in range(5)],
                  [(0, 1, ""), (0, 2, ""), (1, 2, ""), (1, 3, ""),
                   (2, 4, ""), (3, 4, "")])
        moved = contract_move(g, 1)
        assert moved is not None
        assert moved.vertex_count == 2
        assert moved.edge_count <= 3
        for u, v, _ in moved.edges():
            assert moved.has_edge(u, v)


class TestPipelineAgainstOracle:
    def test_known_shapes(self):
        for g in (complete_graph(4), cycle_graph(5), cycle_graph(6),
                  wheel4(), star3(), path4()):
            pipe = move_successors(g)
            oracle = oracle_successors(g)
            assert len(pipe) == len(oracle)
            for p in pipe:
                assert any(isomorphic(p, o) for o in oracle)

    def test_per_vertex_restriction(self):
        rng = random.Random(53)
        for _ in range(12):
            g = random_level(rng, rng.randint(3, 8))
            for v in g.vertex_ids():
                expected = contract_move(g, v)
                got = pipeline_move(g, v)
                if expected is None:
                    assert got == []
                else:
                    assert len(got) == 1
                    assert isomorphic(got[0], expected)

    def test_high_degree_vertices_never_survive(self):
        # every marking of a degree>=4 vertex gains FAIL and is filtered
        g = wheel4()
        got = pipeline_move(g, 0)
        assert got == []
        assert oracle_successors(g)  # rim moves exist, hub does not

    def test_intermediates_use_game_alphabet(self):
        ctx = EvalContext()
        solve_level(wheel4(), ctx)
        for gid in range(len(ctx.repo)):
            g = ctx.repo.graph(gid)
            assert all(l in ("0", "A", "R", "FAIL") for _, l in g.vertices())
            assert all(l == "" for _, _, l in g.edges())


class TestSolve:
    def test_k4_one_move(self):
        solution = solve_level(complete_graph(4))
        assert solution is not None and solution.moves == 1

    def test_c6_unsolvable(self):
        assert solve_level(cycle_graph(6)) is None
        assert oracle_solve(cycle_graph(6)) is None

    def test_goal_level_trivial(self):
        solution = solve_level(GOAL)
        assert solution is not None and solution.moves == 0

    def test_wheel_unsolvable_both_ways(self):
        assert oracle_solve(wheel4()) is None
        assert solve_level(wheel4()) is None

    def test_random_levels_agree_with_oracle(self):
        rng = random.Random(59)
        solvable = unsolvable = 0
        for _ in range(15):
            level = random_level(rng, rng.randint(3, 8))
            expected = oracle_solve(level)
            got = solve_level(level)
            if expected is None:
                assert got is None
                unsolvable += 1
            else:
                assert got is not None
                solvable += 1
                # replay is validated inside solve_level; spot-check anyway
                for a, b in zip(got.positions, got.positions[1:]):
                    assert any(
                        contract_move(a, v) is not None
                        and isomorphic(contract_move(a, v), b)
                        for v in a.vertex_ids())
        assert solvable and unsolvable


class TestMoveSpaceStructure:
    def test_marked_intermediates_form_per_move_islands(self):
        # The explored space decomposes into clusters of marked
        # intermediates that touch the rest only through unmarked
        # positions: removing the positions disconnects the drains.
        rng = random.Random(67)
        level = None
        while level is None or oracle_solve(level) is None:
            level = random_level(rng, 7)
        ctx = EvalContext()
        solve_level(level, ctx)
        from gstrat.catalan import is_unmarked

        marked = {gid for gid in ctx.sink.vertex_ids
                  if not is_unmarked(ctx.repo.graph(gid))}
        adjacency = {gid: set() for gid in marked}
        for edge in ctx.sink.edges:
            ins = [g for g, _ in edge.inputs if g in marked]
            outs = [g for g, _ in edge.outputs if g in marked]
            for a in ins:
                for b in outs:
                    adjacency[a].add(b)
                    adjacency[b].add(a)
        components = 0
        unvisited = set(marked)
        while unvisited:
            components += 1
            stack = [unvisited.pop()]
            while stack:
                node = stack.pop()
                for nxt in adjacency[node]:
                    if nxt in unvisited:
                        unvisited.remove(nxt)
                        stack.append(nxt)
        moves = sum(1 for e in ctx.sink.edges if e.rule_name == "mark")
        assert components > 1
        assert components <= moves


class TestLevels:
    def test_level_round_trip(self):
        g = wheel4()
        text = serialize_level(g, "wheel")
        again = parse_level(text)
        assert isomorphic(g, again)

    def test_level_requires_level_keyword(self):
        with pytest.raises(ParseError):
            parse_level('graph g { v 0 "0"; }')

    def test_level_label_validation(self):
        with pytest.raises(ParseError):
            parse_level('level l { v 0 "A"; }')
        with pytest.raises(ParseError):
            parse_level('level l { v 0 "0"; v 1 "0"; e 0 1 "x"; }')
        with pytest.raises(ParseError):
            parse_level('level l { v 0 "0"; v 1 "0"; }')  # disconnected

    def test_invalid_level_is_located_at_its_label(self):
        text = '# a comment line\n\n  level l {\n  v 0 "0";\n  v 1 "A"; e 0 1 "";\n}\n'
        with pytest.raises(ParseError, match="level vertex labels") as err:
            parse_level(text)
        assert (err.value.line, err.value.column) == (5, 7)
        text = 'level l {\n  v 0 "0"; v 1 "0";\n  e 0 1 "x";\n}\n'
        with pytest.raises(ParseError, match="level edge labels") as err:
            parse_level(text)
        assert (err.value.line, err.value.column) == (3, 9)
        # connectivity belongs to no one entry: reported at the keyword
        text = '\n  level l {\n  v 0 "0";\n  v 1 "0";\n}\n'
        with pytest.raises(ParseError, match="connected") as err:
            parse_level(text)
        assert (err.value.line, err.value.column) == (2, 3)

    def test_validate_level_direct(self):
        with pytest.raises(LevelError):
            validate_level(Graph([(0, "0"), (1, "0")]))

    def test_random_levels_are_valid(self):
        rng = random.Random(61)
        for _ in range(20):
            validate_level(random_level(rng, rng.randint(1, 10)))
