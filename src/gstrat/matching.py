"""Enumeration of injective label-preserving subgraph embeddings.

The search is a VF2-style backtracking over a static, connectivity-first
ordering of the pattern vertices.  Embeddings are monomorphisms: every
pattern edge must map to a host edge with the same label, but extra host
edges between image vertices are allowed.  Candidate host vertices are
visited in ascending id order, so results are deterministic for a fixed
vertex numbering.
"""
from __future__ import annotations

import heapq
from collections.abc import Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from gstrat.graphs import Graph


class MatchError(ValueError):
    pass


class QueryCounter:
    """Monotone counter of embedding-enumeration calls."""

    def __init__(self) -> None:
        self._value = 0

    def bump(self) -> None:
        self._value += 1

    @property
    def value(self) -> int:
        return self._value


#: Global counter: one unit per enumerate_embeddings call.  Reported run
#: statistics use deltas of this counter, never resets.
queries = QueryCounter()


def _pattern_order(pattern: Graph) -> list[int]:
    """Static search order: start at a max-degree vertex, then always extend
    with the vertex most constrained by already-ordered neighbors.

    The next vertex maximises (placed neighbours, degree, -id); a heap with
    lazily discarded stale entries finds it without rescanning every vertex.
    """
    ids = pattern.vertex_ids()
    if not ids:
        return []
    start = max(ids, key=lambda v: (pattern.degree(v), -v))
    anchored = dict.fromkeys(ids, 0)
    heap = [(0, -pattern.degree(v), v) for v in ids if v != start]
    heapq.heapify(heap)
    order = [start]
    placed = {start}
    while len(order) < len(ids):
        for u in pattern.neighbors(order[-1]):
            if u not in placed:
                anchored[u] += 1
                heapq.heappush(heap, (-anchored[u], -pattern.degree(u), u))
        while True:
            neg_anchored, _, v = heapq.heappop(heap)
            if v not in placed and -neg_anchored == anchored[v]:
                break
        order.append(v)
        placed.add(v)
    return order


def enumerate_embeddings(pattern: Graph, host: Graph) -> list[dict[int, int]]:
    """All injective label- and edge-preserving maps of pattern into host.

    The pattern must be connected.  Returns vertex maps (pattern id -> host
    id) in a deterministic order; empty list when nothing matches.
    """
    if not pattern.is_connected:
        raise MatchError("pattern must be a connected non-empty graph")
    queries.bump()

    order = _pattern_order(pattern)
    # For each position: the pattern neighbors already placed, with edge labels.
    placed_before: list[list[tuple[int, str]]] = []
    seen: set[int] = set()
    for v in order:
        placed_before.append(
            [(u, el) for u, el in sorted(pattern.neighbors(v).items()) if u in seen])
        seen.add(v)

    results: list[dict[int, int]] = []
    assignment: dict[int, int] = {}
    used: set[int] = set()
    host_ids = host.vertex_ids()

    def candidates(i: int) -> Sequence[int]:
        anchors = placed_before[i]
        if anchors:
            return host.sorted_neighbors(assignment[anchors[0][0]])
        return host_ids

    # Iterative depth-first search (no recursion limit on large patterns):
    # position i scans cands[i], computed when the search enters i, from
    # next_idx[i]; a full assignment is recorded, then the search backs up.
    cands = [candidates(0)] + [()] * (len(order) - 1)
    next_idx = [0] * len(order)
    i = 0
    while i >= 0:
        if i == len(order):
            results.append(dict(assignment))
            i -= 1
            used.discard(assignment.pop(order[i]))
            continue
        pv = order[i]
        plabel = pattern.label(pv)
        pdeg = pattern.degree(pv)
        anchors = placed_before[i]
        cs = cands[i]
        j = next_idx[i]
        fit = None
        while fit is None and j < len(cs):
            c = cs[j]
            j += 1
            if c in used or host.label(c) != plabel or host.degree(c) < pdeg:
                continue
            fit = c
            for pn, el in anchors:
                mapped = assignment[pn]
                if not host.has_edge(mapped, c) or host.edge_label(mapped, c) != el:
                    fit = None
                    break
        next_idx[i] = j
        if fit is None:
            i -= 1
            if i >= 0:
                used.discard(assignment.pop(order[i]))
            continue
        assignment[pv] = fit
        used.add(fit)
        i += 1
        if i < len(order):
            cands[i] = candidates(i)
            next_idx[i] = 0
    return results


def find_isomorphism(g: Graph, h: Graph) -> dict[int, int] | None:
    """A label-preserving vertex bijection inducing an edge bijection, or None.

    Fast rejections first (counts, structural signature, refinement-color
    histogram), then a backtracking search with candidates restricted to
    equal refinement colors.  With equal vertex and edge counts, any
    edge-preserving injection is automatically an isomorphism.
    """
    if g.vertex_count != h.vertex_count or g.edge_count != h.edge_count:
        return None
    if g.vertex_count == 0:
        return {}
    if g.signature != h.signature:
        return None
    gc = g.refinement_colors()
    hc = h.refinement_colors()
    if g.color_histogram() != h.color_histogram():
        return None

    by_color: dict[int, list[int]] = {}
    for v in h.vertex_ids():
        by_color.setdefault(hc[v], []).append(v)

    # Cheap connectivity-first order: breadth-first from a max-degree vertex,
    # restarting per component.  Color-class pruning does the heavy lifting.
    order: list[int] = []
    seen: set[int] = set()
    for root in sorted(g.vertex_ids(), key=lambda v: (-g.degree(v), v)):
        if root in seen:
            continue
        queue = [root]
        seen.add(root)
        while queue:
            v = queue.pop(0)
            order.append(v)
            for u in g.sorted_neighbors(v):
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
    placed_before: list[list[tuple[int, str]]] = []
    seen = set()
    for v in order:
        placed_before.append(
            [(u, el) for u, el in sorted(g.neighbors(v).items()) if u in seen])
        seen.add(v)

    # Iterative backtracking (no recursion limit on large graphs): next_idx[i]
    # is where the scan of position i's candidate list resumes.
    candidates = [by_color.get(gc[v], ()) for v in order]
    next_idx = [0] * len(order)
    assignment: dict[int, int] = {}
    used: set[int] = set()
    i = 0
    while i < len(order):
        gv = order[i]
        gdeg = g.degree(gv)
        anchors = placed_before[i]
        cands = candidates[i]
        j = next_idx[i]
        fit = None
        while fit is None and j < len(cands):
            c = cands[j]
            j += 1
            if c in used or h.degree(c) != gdeg:
                continue
            fit = c
            for pn, el in anchors:
                mapped = assignment[pn]
                if not h.has_edge(mapped, c) or h.edge_label(mapped, c) != el:
                    fit = None
                    break
        if fit is None:
            next_idx[i] = 0
            if i == 0:
                return None
            i -= 1
            used.discard(assignment.pop(order[i]))
            continue
        next_idx[i] = j
        assignment[gv] = fit
        used.add(fit)
        i += 1
    return assignment
