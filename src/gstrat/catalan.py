"""The Catalan puzzle: contract a degree-3 vertex with its neighbours.

One game move cannot be a single DPO rule (it rewires arbitrarily many
edges), so it is staged through seven small rules driven by a strategy:
mark a candidate vertex and three neighbours, kill markings that have a
fourth neighbour, drain the marked region edge by edge, then delete the
marked neighbours and unmark.  A direct contraction oracle is provided as
the independent ground truth for all of it.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from gstrat import lex
from gstrat.graphs import Graph, GraphRepository, serialize_graph
from gstrat.lex import ParseError, TokenStream
from gstrat.matching import find_isomorphism
from gstrat.rewrite import bind_graph, complete_derivation
from gstrat.rules import Rule
from gstrat.strategies import (AddSubset, AltRuleApplication, EMPTY_STATE,
                               EvalContext, FilterUniverse, GraphState,
                               Repeat, Revive, RuleApplication, Sequence,
                               Strategy)


class LevelError(ValueError):
    pass


# Rules are immutable, so every level shares this one set; each EvalContext
# keeps its own MatchCache.
_RULES = (
    Rule.build(
        "mark",
        context_vertices=[(0, "0", "A"), (1, "0", "R"), (2, "0", "R"), (3, "0", "R")],
        context_edges=[(0, 1, "", ""), (0, 2, "", ""), (0, 3, "", "")],
    ),
    Rule.build(
        "markForFail",
        context_vertices=[(0, "A", "FAIL"), (1, "0", "0")],
        context_edges=[(0, 1, "", "")],
    ),
    Rule.build(
        "removeInterR",
        context_vertices=[(0, "R", "R"), (1, "R", "R")],
        left_edges=[(0, 1, "")],
    ),
    # u-r is replaced by u-v; simplicity rejection skips hosts where u-v
    # already exists (handled by removeAttached instead).
    Rule.build(
        "reattachExternal",
        context_vertices=[(0, "0", "0"), (1, "R", "R"), (2, "A", "A")],
        left_edges=[(0, 1, "")],
        context_edges=[(1, 2, "", "")],
        right_edges=[(0, 2, "")],
    ),
    Rule.build(
        "removeAttached",
        context_vertices=[(0, "0", "0"), (1, "R", "R"), (2, "A", "A")],
        left_edges=[(0, 1, "")],
        context_edges=[(1, 2, "", ""), (0, 2, "", "")],
    ),
    Rule.build(
        "removeR",
        context_vertices=[(0, "A", "A")],
        left_vertices=[(1, "R"), (2, "R"), (3, "R")],
        left_edges=[(0, 1, ""), (0, 2, ""), (0, 3, "")],
    ),
    Rule.build("unmark", context_vertices=[(0, "A", "0")]),
)


def catalan_rules() -> tuple[Rule, ...]:
    """The seven move-pipeline rules, in pipeline order of first use."""
    return _RULES


def _no_fail_vertex(gid: int, state, ctx) -> bool:
    g = ctx.repo.graph(gid)
    return all(label != "FAIL" for _, label in g.vertices())


def move_pipeline() -> Strategy:
    """One full game move as a rule sequence (run under alternate mode)."""
    mark, fail, inter, reattach, attached, remove, unmark = catalan_rules()
    return Sequence([
        RuleApplication(mark),
        Revive(RuleApplication(fail)),
        FilterUniverse(_no_fail_vertex),
        Repeat(Revive(RuleApplication(inter))),
        Repeat(Revive(RuleApplication(reattach))),
        Repeat(Revive(RuleApplication(attached))),
        RuleApplication(remove),
        RuleApplication(unmark),
    ])


def catalan_strategy(level: Graph) -> Strategy:
    """Expand the whole move space reachable from the level graph."""
    return Sequence([
        AddSubset((level,)),
        AltRuleApplication(Repeat(move_pipeline())),
    ])


def validate_level(g: Graph) -> None:
    if not g.is_connected:
        raise LevelError("level graphs must be connected and non-empty")
    for _, label in g.vertices():
        if label != "0":
            raise LevelError(f'level vertex labels must be "0", found {label!r}')
    for _, _, label in g.edges():
        if label != "":
            raise LevelError("level edge labels must be empty")


GOAL = Graph([(0, "0")])


def is_goal(g: Graph) -> bool:
    return g.vertex_count == 1 and g.label(g.vertex_ids()[0]) == "0"


def is_unmarked(g: Graph) -> bool:
    return all(label == "0" for _, label in g.vertices())


# -- the independent move oracle ----------------------------------------------


def contract_move(g: Graph, v: int) -> Graph | None:
    """One game move at v: merge v with its neighbours into one vertex,
    collapsing parallel edges and dropping loops.  None unless deg(v) = 3."""
    if g.degree(v) != 3:
        return None
    cluster = {v, *g.neighbors(v)}
    vertices = [(u, "0") for u in g.vertex_ids() if u not in cluster]
    vertices.append((v, "0"))
    edges = {}
    for a, b, _ in g.edges():
        a2 = v if a in cluster else a
        b2 = v if b in cluster else b
        if a2 == b2:
            continue
        edges[(min(a2, b2), max(a2, b2))] = ""
    return Graph(vertices, [(a, b, l) for (a, b), l in edges.items()])


def oracle_successors(g: Graph) -> list[Graph]:
    """All one-move results, deduplicated up to isomorphism."""
    out: list[Graph] = []
    for v in g.vertex_ids():
        moved = contract_move(g, v)
        if moved is None:
            continue
        if not any(find_isomorphism(moved, seen) for seen in out):
            out.append(moved)
    return out


def oracle_solve(level: Graph) -> list[Graph] | None:
    """Breadth-first search over contract_move; a shortest solution as the
    sequence of positions from the level to the single vertex, or None."""
    validate_level(level)
    repo = GraphRepository()
    start, _ = repo.intern(level)
    goal_id = None
    parents: dict[int, int | None] = {start: None}
    frontier = [start]
    while frontier and goal_id is None:
        next_frontier = []
        for gid in frontier:
            g = repo.graph(gid)
            for v in g.vertex_ids():
                moved = contract_move(g, v)
                if moved is None:
                    continue
                mid, new = repo.intern(moved)
                if not new and mid in parents:
                    continue
                parents[mid] = gid
                next_frontier.append(mid)
                if is_goal(moved):
                    goal_id = mid
                    break
            if goal_id is not None:
                break
        frontier = next_frontier
    if goal_id is None:
        return None
    path = []
    cur: int | None = goal_id
    while cur is not None:
        path.append(repo.graph(cur))
        cur = parents[cur]
    return list(reversed(path))


# -- pipeline-side helpers -----------------------------------------------------


def move_successors(level: Graph, ctx: EvalContext | None = None) -> list[Graph]:
    """One-move successor positions computed through the rule pipeline."""
    validate_level(level)
    if ctx is None:
        ctx = EvalContext()
    strat = Sequence([AddSubset((level,)), AltRuleApplication(move_pipeline())])
    final = strat.apply(EMPTY_STATE, ctx)
    return [ctx.repo.graph(gid) for gid in final.subset]


def pipeline_move(level: Graph, v: int) -> list[Graph]:
    """The pipeline restricted to marking vertex v; the surviving results.

    Returns the move outcomes as graphs (deduplicated up to isomorphism by
    interning); empty when marking v cannot survive (wrong degree).
    """
    validate_level(level)
    ctx = EvalContext()
    repo = ctx.repo
    level_id, _, into_stored = repo.intern_mapped(level)
    ctx.register_known(level_id)
    mark = _RULES[0]
    marked_ids: list[int] = []
    # Matches are enumerated per morphism (bind_graph does not deduplicate
    # isomorphic outcomes), so symmetric centers cannot shadow v.
    for partial in bind_graph(mark, level_id, repo, ctx.cache):
        if dict(partial.bound[0].vertex_map)[0] != into_stored[v]:
            continue
        d = complete_derivation(partial, repo)
        if d is None:
            continue
        ctx.sink.record(d)
        marked_ids.extend(d.outputs)
    if not marked_ids:
        return []
    seen = []
    for gid in marked_ids:
        if gid not in seen:
            seen.append(gid)
    rest = Sequence(list(move_pipeline().parts[1:]))
    state = GraphState((level_id, *seen), tuple(seen))
    final = AltRuleApplication(rest).apply(state, ctx)
    return [repo.graph(gid) for gid in final.subset]


@dataclass
class Solution:
    """A validated solution: positions from the level down to the goal."""

    positions: list[Graph]

    @property
    def moves(self) -> int:
        return len(self.positions) - 1


def _starts_whole_move(edge, repo) -> bool:
    """Is this a mark edge whose marked vertex had degree exactly three?

    A fresh marking of a higher-degree vertex leaves the "A" vertex with an
    unmarked neighbour; such markings are destined to fail, yet the same
    isomorphism class can reappear as a mid-drain intermediate of a
    legitimate move elsewhere (reattaching externals raises A's degree).
    Paths entering through such a mark edge would splice two different
    moves together, so solution extraction must skip them.
    """
    if edge.rule_name != "mark":
        return True
    (out_id, _), = edge.outputs
    g = repo.graph(out_id)
    for v, label in g.vertices():
        if label == "A":
            return all(g.label(n) == "R" for n in g.neighbors(v))
    return False


def solve_level(level: Graph, ctx: EvalContext | None = None) -> Solution | None:
    """Expand the move space with the strategy, then extract a solution as
    the unmarked positions along a path in the derivation hypergraph."""
    validate_level(level)
    if ctx is None:
        ctx = EvalContext()
    if is_goal(level):
        gid, _ = ctx.repo.intern(level)
        return Solution([ctx.repo.graph(gid)])
    strat = catalan_strategy(level)
    strat.apply(EMPTY_STATE, ctx)
    repo = ctx.repo
    level_id = repo.find(level)
    goal_id = repo.find(GOAL)
    if level_id is None or goal_id is None:
        return None
    path = ctx.sink.find_path(level_id, goal_id,
                              edge_filter=lambda e: _starts_whole_move(e, repo))
    if path is None:
        return None
    positions = [repo.graph(level_id)]
    current = level_id
    for edge in path:
        (out_id, _), = edge.outputs
        current = out_id
        g = repo.graph(current)
        if is_unmarked(g):
            positions.append(g)
    solution = Solution(positions)
    _validate_replay(solution)
    return solution


def _validate_replay(solution: Solution) -> None:
    for before, after in zip(solution.positions, solution.positions[1:]):
        moves = (contract_move(before, v) for v in before.vertex_ids())
        if not any(m is not None and find_isomorphism(m, after) is not None
                   for m in moves):
            raise LevelError("extracted solution does not replay under the oracle")


# -- level files and synthetic levels -------------------------------------------
#
# level <name> { v <id> "0"; ... e <id> <id> ""; ... }


def parse_level(text: str) -> Graph:
    from gstrat.graphs import _parse_graph_body

    ts = TokenStream(lex.tokenize(text))
    ts.expect(lex.NAME, "level")
    ts.expect(lex.NAME)
    ts.expect(lex.PUNCT, "{")
    g = _parse_graph_body(ts)
    ts.expect(lex.PUNCT, "}")
    ts.expect_eof()
    try:
        validate_level(g)
    except LevelError as err:
        raise ParseError(str(err), 1, 1) from err
    return g


def serialize_level(g: Graph, name: str = "level") -> str:
    body = serialize_graph(g, name)
    return "level" + body[len("graph"):]


def random_level(rng: random.Random, vertices: int) -> Graph:
    """A random connected level graph biased towards degree-3 vertices."""
    if vertices < 1:
        raise ValueError("levels need at least one vertex")
    ids = list(range(vertices))
    edges: set[tuple[int, int]] = set()
    for i in range(1, vertices):
        j = rng.randrange(i)
        edges.add((j, i))
    degree = {i: 0 for i in ids}
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    attempts = vertices * 3
    for _ in range(attempts):
        u, v = rng.sample(ids, 2) if vertices > 1 else (0, 0)
        key = (min(u, v), max(u, v))
        if u == v or key in edges:
            continue
        if degree[u] >= 3 or degree[v] >= 3:
            continue
        edges.add(key)
        degree[u] += 1
        degree[v] += 1
    return Graph([(i, "0") for i in ids], [(u, v, "") for u, v in sorted(edges)])


def complete_graph(n: int) -> Graph:
    return Graph([(i, "0") for i in range(n)],
                 [(i, j, "") for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph([(i, "0") for i in range(n)],
                 [(i, (i + 1) % n, "") for i in range(n)])
