"""Injective label-preserving graph maps: subgraph embeddings and isomorphisms.

One VF2-style backtracking search over a static, connectivity-first
ordering of the pattern vertices serves both (Cordella et al., TPAMI
2004).  Embeddings are monomorphisms: every pattern edge must map to a host
edge with the same label, but extra host edges between image vertices are
allowed.  An isomorphism is such a map between graphs with equal vertex and
edge counts.  Candidate host vertices are visited in ascending id order, so
results are deterministic for a fixed vertex numbering.
"""
from __future__ import annotations

import heapq
from collections import Counter
from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from gstrat.graphs import Graph


class MatchError(ValueError):
    pass


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


def _maps(pattern: Graph, host: Graph, order: list[int],
          colors: tuple[dict[int, int], dict[int, int]] | None = None
          ) -> Iterator[dict[int, int]]:
    """Injective label- and edge-preserving maps of pattern into host, in the
    order a depth-first search over the nonempty ``order`` finds them.

    Each pattern vertex goes to an unused host vertex with its label and at
    least its degree, joined by the right edge labels to the images of its
    placed neighbours; the candidates are the sorted neighbours of the first
    placed neighbour's image, else every host vertex.  With ``colors``
    (pattern colours, host colours) a candidate must also have the vertex's
    colour and exactly its degree.
    """
    exact = colors is not None
    pattern_colors, host_colors = colors or ({}, {})
    # For each position: the pattern neighbors already placed, with edge labels.
    placed_before: list[list[tuple[int, str]]] = []
    seen: set[int] = set()
    for v in order:
        placed_before.append(
            [(u, el) for u, el in sorted(pattern.neighbors(v).items()) if u in seen])
        seen.add(v)

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
    # next_idx[i]; a full assignment is yielded, then the search backs up.
    cands = [candidates(0)] + [()] * (len(order) - 1)
    next_idx = [0] * len(order)
    i = 0
    while i >= 0:
        if i == len(order):
            yield dict(assignment)
            i -= 1
            used.discard(assignment.pop(order[i]))
            continue
        pv = order[i]
        plabel = pattern.label(pv)
        pdeg = pattern.degree(pv)
        pcolor = pattern_colors.get(pv)
        anchors = placed_before[i]
        cs = cands[i]
        j = next_idx[i]
        fit = None
        while fit is None and j < len(cs):
            c = cs[j]
            j += 1
            if (c in used or host.label(c) != plabel or host.degree(c) < pdeg
                    or exact and (host.degree(c) != pdeg or host_colors[c] != pcolor)):
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


def enumerate_embeddings(pattern: Graph, host: Graph) -> list[dict[int, int]]:
    """All injective label- and edge-preserving maps of pattern into host.

    The pattern must be connected.  Returns vertex maps (pattern id -> host
    id) in a deterministic order; empty list when nothing matches.
    """
    if not pattern.is_connected:
        raise MatchError("pattern must be a connected non-empty graph")
    return list(_maps(pattern, host, _pattern_order(pattern)))


def find_isomorphism(g: Graph, h: Graph) -> dict[int, int] | None:
    """A label-preserving vertex bijection inducing an edge bijection, or None.

    Fast rejections first (counts, structural signature, refinement-colour
    class sizes), then the first map of the embedding search with
    candidates restricted to equal refinement colour and degree.  With equal
    vertex and edge counts, any edge-preserving injection is automatically
    an isomorphism.
    """
    if g.vertex_count != h.vertex_count or g.edge_count != h.edge_count:
        return None
    if g.vertex_count == 0:
        return {}
    if g.signature != h.signature:
        return None
    gc = g.refinement_colors()
    hc = h.refinement_colors()
    if Counter(gc.values()) != Counter(hc.values()):
        return None
    return next(_maps(g, h, _pattern_order(g), (gc, hc)), None)
