"""Catalan helpers that only the tests use: one move through the rule
pipeline, level text and the small named levels."""
from __future__ import annotations

from gstrat.catalan import catalan_rules, move_pipeline, validate_level
from gstrat.graphs import Graph, serialize_graph
from gstrat.rewrite import bind_graph, complete_derivation
from gstrat.strategies import (Add, AltRuleApplication, EMPTY_STATE,
                               EvalContext, GraphState, Sequence)


def move_successors(level: Graph, ctx: EvalContext | None = None) -> list[Graph]:
    """One-move successor positions computed through the rule pipeline."""
    validate_level(level)
    if ctx is None:
        ctx = EvalContext()
    strat = Sequence([Add("subset", (level,)), AltRuleApplication(move_pipeline())])
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
    mark = catalan_rules()[0]
    marked_ids: list[int] = []
    # Matches are enumerated per morphism (bind_graph does not deduplicate
    # isomorphic outcomes), so symmetric centers cannot shadow v.
    for partial in bind_graph(mark, level_id, repo, ctx.cache):
        if partial.copies[0][1][0] != into_stored[v]:
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


def serialize_level(g: Graph, name: str = "level") -> str:
    body = serialize_graph(g, name)
    return "level" + body[len("graph"):]


def complete_graph(n: int) -> Graph:
    return Graph([(i, "0") for i in range(n)],
                 [(i, j, "") for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph([(i, "0") for i in range(n)],
                 [(i, (i + 1) % n, "") for i in range(n)])
