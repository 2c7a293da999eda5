"""Injective label-preserving graph maps: subgraph embeddings and isomorphisms.

Embeddings come from a VF2-style backtracking search over a static,
connectivity-first ordering of the pattern vertices (Cordella et al., TPAMI
2004).  They are monomorphisms: every pattern edge must map to a host edge
with the same label, but extra host edges between image vertices are
allowed.  Candidate host vertices are visited in ascending id order, so
results are deterministic for a fixed vertex numbering: maps come in the
lexicographic order of their images along the search order.

A ``SearchPlan`` fixes a pattern's search order, the label and degree
of the vertex at each position, the placed neighbours each position is
joined to, and optionally symmetry-breaking conditions for
a group of pattern automorphisms (Grochow & Kellis, RECOMB 2007): the image
of each vertex must be below the images of the other members of its orbit
under the automorphisms that fix every vertex placed before it.  The search
then yields one map per orbit ``{m . sigma}``, the one it would find first
without the conditions, and ``SearchPlan.orbit_members`` gives the rest
back.  ``search_plan`` checks once that the pattern is connected and
nonempty.  The tests on each candidate host vertex then read only the
plan and the host's label and adjacency dicts, since the cost per
candidate decides the speed of the search (Juttner & Madarasi, VF2++,
Discrete Applied Math. 2018).

Isomorphisms run no search: two graphs are isomorphic exactly when their
canonical certificates are equal (``Graph.canonical_form``), and pairing the
canonical orders is then the map.
"""
from __future__ import annotations

import heapq
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, NamedTuple

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


class SearchPlan(NamedTuple):
    """How ``_maps`` searches for one pattern, fixed once per pattern.

    - order: the static search order, ``_pattern_order``;
    - labels, degrees: per position, the label and degree of its pattern
      vertex, the first tests on each candidate;
    - anchors: per position, the pattern vertices placed before it that it
      is joined to, with the edge labels, in ascending id order;
    - floors: per position, the vertices placed before it whose images
      must be below its image: the symmetry-breaking conditions;
    - symmetries: the group of pattern automorphisms the conditions break,
      identity first, or empty when there are no conditions.

    Plans are shared by every search that uses them, so they are read-only.
    """
    order: Sequence[int]
    labels: Sequence[str]
    degrees: Sequence[int]
    anchors: Sequence[Sequence[tuple[int, str]]]
    floors: Sequence[Sequence[int]]
    symmetries: Sequence[dict[int, int]]

    def orbit_members(self, maps: Iterable[dict[int, int]]
                      ) -> list[dict[int, int]]:
        """Every ``m . sigma`` of the kept maps m (in search order) and the
        symmetries sigma, in the order the search without conditions yields
        them: ascending images along the search order."""
        if not self.symmetries:
            return list(maps)
        members = [{v: m[sigma[v]] for v in self.order}
                   for m in maps for sigma in self.symmetries]
        members.sort(key=lambda m: [m[v] for v in self.order])
        return members


def search_plan(pattern: Graph, symmetries: Sequence[dict[int, int]] = ()
                ) -> SearchPlan:
    """The plan of a connected nonempty pattern, breaking the given
    automorphisms; ``MatchError`` for any other pattern.

    The pattern is checked here, once per plan, so that a search with a
    plan walks nothing but the host.
    """
    if not pattern.is_connected:
        raise MatchError("pattern must be a connected non-empty graph")
    return _plan(pattern, symmetries)


def _plan(pattern: Graph, symmetries: Sequence[dict[int, int]] = ()
          ) -> SearchPlan:
    """``search_plan`` without the connectivity check, for a nonempty
    pattern.  A disconnected pattern (a rule's span graph) is searched too:
    each position without anchors takes every host vertex as a candidate.

    symmetries must be empty or a group of automorphisms of the pattern,
    each given on all of its vertices.  Position i's orbit is taken under
    the members that fix ``order[:i]`` pointwise; it holds no vertex placed
    before i, so each condition is checked when its larger vertex is placed.
    """
    order = _pattern_order(pattern)
    anchors = []
    seen: set[int] = set()
    for v in order:
        anchors.append([(u, el) for u, el in pattern.neighbors(v).items()
                        if u in seen])
        seen.add(v)
    floors: list[list[int]] = [[] for _ in order]
    if symmetries:
        position = {v: i for i, v in enumerate(order)}
        fixing = symmetries
        for v in order:
            for w in {sigma[v] for sigma in fixing} - {v}:
                floors[position[w]].append(v)
            fixing = [sigma for sigma in fixing if sigma[v] == v]
    return SearchPlan(order, [pattern.label(v) for v in order],
                      [pattern.degree(v) for v in order], anchors, floors,
                      tuple(symmetries))


def _maps(host: Graph, plan: SearchPlan) -> Iterator[dict[int, int]]:
    """Injective label- and edge-preserving maps of the plan's pattern into
    host that meet the plan's conditions, in the order a depth-first search
    over the plan's order finds them.

    Each pattern vertex goes to an unused host vertex with its label and at
    least its degree, joined by the right edge labels to the images of its
    anchors; the candidates are the sorted neighbours of the first anchor's
    image, else every host vertex, cut to those above the images of its
    floors.  The per-candidate tests read the host's label and adjacency
    dicts and the plan's per-position constants, and nothing else.
    """
    order, all_anchors, all_floors = plan.order, plan.anchors, plan.floors
    plabels, pdegrees = plan.labels, plan.degrees
    labels, adj = host._labels, host._adj
    assignment: dict[int, int] = {}
    used: set[int] = set()
    host_ids = host.vertex_ids()

    def candidates(i: int) -> Sequence[int]:
        anchors = all_anchors[i]
        cs = (host.sorted_neighbors(assignment[anchors[0][0]]) if anchors
              else host_ids)
        floors = all_floors[i]
        if floors:
            cs = cs[bisect_right(cs, max(assignment[u] for u in floors)):]
        return cs

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
        plabel = plabels[i]
        pdeg = pdegrees[i]
        anchors = all_anchors[i]
        cs = cands[i]
        j = next_idx[i]
        fit = None
        while j < len(cs):
            c = cs[j]
            j += 1
            if c in used or labels[c] != plabel:
                continue
            nbrs = adj[c]
            if len(nbrs) < pdeg:
                continue
            for pn, el in anchors:
                if nbrs.get(assignment[pn]) != el:
                    break
            else:
                fit = c
                break
        next_idx[i] = j
        if fit is None:
            i -= 1
            if i >= 0:
                used.discard(assignment.pop(order[i]))
            continue
        assignment[order[i]] = fit
        used.add(fit)
        i += 1
        if i < len(order):
            cands[i] = candidates(i)
            next_idx[i] = 0


def enumerate_embeddings(pattern: Graph, host: Graph,
                         plan: SearchPlan | None = None) -> list[dict[int, int]]:
    """All injective label- and edge-preserving maps of pattern into host,
    or, given the pattern's plan, the first of each orbit of them under the
    plan's symmetries.

    The pattern must be connected and nonempty (``search_plan`` checks it
    when it builds the plan, so a given plan is not checked again).
    Returns vertex maps (pattern id -> host id) in a deterministic order;
    empty list when nothing matches.
    """
    return list(_maps(host, plan or search_plan(pattern)))


def find_isomorphism(g: Graph, h: Graph) -> dict[int, int] | None:
    """A label-preserving vertex bijection inducing an edge bijection, or None.

    After the count check, g and h are isomorphic exactly when their
    canonical certificates are equal; the map pairs their canonical orders
    position by position.
    """
    if g.vertex_count != h.vertex_count or g.edge_count != h.edge_count:
        return None
    g_cert, g_order = g.canonical_form()
    h_cert, h_order = h.canonical_form()
    if g_cert != h_cert:
        return None
    return dict(zip(g_order, h_order))
