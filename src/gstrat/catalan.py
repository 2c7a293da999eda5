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
from gstrat.graphs import Graph, GraphRepository, _parse_graph_body
from gstrat.lex import TokenStream
from gstrat.matching import find_isomorphism
# Unused here: perfbench's IMPORT_SITES check that these names are wrapped.
from gstrat.rewrite import bind_graph, complete_derivation
from gstrat.rules import Rule
from gstrat.strategies import (Add, AltRuleApplication, EMPTY_STATE,
                               EvalContext, Filter, Repeat, Revive,
                               RuleApplication, Sequence, Strategy)


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


def _no_fail_vertex(ids: tuple[int, ...], ctx) -> bool:
    """Filter predicate: the graph of the 1-tuple has no FAIL vertex."""
    return all(label != "FAIL"
               for _, label in ctx.repo.graph(ids[0]).vertices())


def move_pipeline() -> Strategy:
    """One full game move as a rule sequence (run under alternate mode)."""
    mark, fail, inter, reattach, attached, remove, unmark = catalan_rules()
    return Sequence([
        RuleApplication(mark),
        Revive(RuleApplication(fail)),
        Filter("universe", _no_fail_vertex),
        Repeat(Revive(RuleApplication(inter))),
        Repeat(Revive(RuleApplication(reattach))),
        Repeat(Revive(RuleApplication(attached))),
        RuleApplication(remove),
        RuleApplication(unmark),
    ])


def catalan_strategy(level: Graph) -> Strategy:
    """Expand the whole move space reachable from the level graph."""
    return Sequence([
        Add("subset", (level,)),
        AltRuleApplication(Repeat(move_pipeline())),
    ])


def _check_label(label: str, vertex: bool) -> None:
    if vertex and label != "0":
        raise LevelError(f'level vertex labels must be "0", found {label!r}')
    if not vertex and label != "":
        raise LevelError("level edge labels must be empty")


def validate_level(g: Graph) -> None:
    if not g.is_connected:
        raise LevelError("level graphs must be connected and non-empty")
    for _, label in g.vertices():
        _check_label(label, vertex=True)
    for _, _, label in g.edges():
        _check_label(label, vertex=False)


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
    """Parse a level in one pass, reporting its first fault in reading
    order: at the bad label or entry, or, for a level that is not
    connected, at the keyword."""
    ts = TokenStream(lex.tokenize(text))
    kw = ts.expect(lex.NAME, "level")
    ts.expect(lex.NAME)
    ts.expect(lex.PUNCT, "{")
    g = _parse_graph_body(ts, _check_label)
    ts.expect(lex.PUNCT, "}")
    ts.expect_eof()
    try:
        validate_level(g)
    except LevelError as err:
        raise kw.error(str(err)) from err
    return g


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
    return Graph([(i, "0") for i in ids], [(u, v, "") for u, v in edges])

