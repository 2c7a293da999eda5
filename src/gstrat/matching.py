"""Injective label-preserving graph maps: subgraph embeddings and isomorphisms.

Embeddings come from a VF2-style backtracking search over a static,
connectivity-first ordering of the pattern vertices (Cordella et al., TPAMI
2004).  They are monomorphisms: every pattern edge must map to a host edge
with the same label, but extra host edges between image vertices are
allowed.  Candidate host vertices are visited in ascending id order, so
results are deterministic for a fixed vertex numbering: maps come in the
lexicographic order of their images along the search order.

A ``SearchPlan`` fixes a pattern's search order and optionally
symmetry-breaking conditions for
a group of pattern automorphisms (Grochow & Kellis, RECOMB 2007): the image
of each vertex must be below the images of the other members of its orbit
under the automorphisms that fix every vertex placed before it.  The search
then yields one map per orbit ``{m . sigma}``, the one it would find first
without the conditions, and ``SearchPlan.orbit_members`` gives the rest
back.  ``search_plan`` checks once that the pattern is connected and
nonempty.  The plan is compiled once into Python generator code, as GrGen
compiles its search plans (Geiss et al., ICGT 2006): one loop per position,
with the position's label, degree, anchor edges and floors as constants,
so that the tests on each candidate host vertex read only the host's label
and adjacency dicts; the cost per candidate decides the speed of the
search (Juttner & Madarasi, VF2++, Discrete Applied Math. 2018).  Python
allows 20 nested blocks in a function, so the loops come in chunks of at
most 15 positions, run by an explicit stack of chunk generators: a
pattern of any size is searched without recursion.

Isomorphisms run no search: two graphs are isomorphic exactly when their
canonical certificates are equal (``Graph.canonical_form``), and pairing the
canonical orders is then the map.
"""
from __future__ import annotations

import heapq
from collections.abc import Callable, Iterable, Iterator, Sequence
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
    """How to search for one pattern, fixed and compiled once per pattern.

    - order: the static search order, ``_pattern_order``;
    - floors: per position, the vertices placed before it whose images
      must be below its image: the symmetry-breaking conditions;
    - symmetries: the group of pattern automorphisms the conditions break,
      identity first, or empty when there are no conditions;
    - search: host -> the injective label- and edge-preserving maps of
      the pattern into host that meet the conditions, in search order: the
      plan compiled by ``_compile`` when it is built, as generators of at
      most ``_CHUNK`` nested loops each, since Python nests at most 20
      blocks in a function.

    Plans are shared by every search that uses them, so they are read-only.
    """
    order: Sequence[int]
    floors: Sequence[Sequence[int]]
    symmetries: Sequence[dict[int, int]]
    search: Callable[[Graph], Iterator[dict[int, int]]]

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
    floors: list[list[int]] = [[] for _ in order]
    if symmetries:
        position = {v: i for i, v in enumerate(order)}
        fixing = symmetries
        for v in order:
            for w in {sigma[v] for sigma in fixing} - {v}:
                floors[position[w]].append(v)
            fixing = [sigma for sigma in fixing if sigma[v] == v]
    return SearchPlan(order, floors, tuple(symmetries),
                      _compile(pattern, order, floors))


# Python allows 20 statically nested blocks (loops here) in a function; a
# chunk nests one loop per position.
_CHUNK = 15


def _compile(pattern: Graph, order: Sequence[int],
             floors: Sequence[Sequence[int]]
             ) -> Callable[[Graph], Iterator[dict[int, int]]]:
    """The search of the plan as one generator function per chunk of
    ``_CHUNK`` positions, run by an explicit stack of chunk generators.

    Each position is a loop over its candidates: the neighbours of its
    first anchor's image (the placed neighbour of least id) whose edge
    carries the anchor's label, else every host vertex, in ascending id
    order.  A candidate must have the position's label and at least its
    degree, differ from the images placed before it, lie above the images
    of its floors and be joined to its other anchors' images by their edge
    labels.  A chunk that is not the last writes its images into ``img``
    and ``used`` and yields to the next; the last yields the map.  Labels,
    edge labels and vertex ids are bound as names, never written as source.
    """
    position = {v: i for i, v in enumerate(order)}
    n = len(order)
    names: dict[str, object] = {}
    source = []

    def image(q: int) -> str:
        """Position q's image in the code of the chunk starting at s."""
        return f"x{q}" if q >= s else f"img[{q}]"

    for s in range(0, n, _CHUNK):
        e = min(s + _CHUNK, n)
        source.append(f"def chunk{s}(labels, adj, ids, img, used):")
        for p in range(s, e):
            v = order[p]
            anchors = [(position[u], el) for u, el in pattern.neighbors(v).items()
                       if position[u] < p]
            names[f"L{p}"], names[f"V{p}"] = pattern.label(v), v
            pad = " " * (p - s + 1)
            tests = []
            if anchors:
                names[f"E{p}"] = anchors[0][1]
                source.append(f"{pad}for x{p}, e in adj[{image(anchors[0][0])}].items():")
                tests.append(f"e != E{p}")
            else:
                source.append(f"{pad}for x{p} in ids:")
            joined = {a for a, _ in anchors}
            tests += [f"x{p} == x{q}" for q in range(s, p) if q not in joined]
            tests.append(f"labels[x{p}] != L{p}")
            if pattern.degree(v) > len(anchors):
                tests.append(f"len(adj[x{p}]) < {pattern.degree(v)}")
            if s:
                tests.append(f"x{p} in used")
            tests += [f"x{p} <= {image(position[u])}" for u in floors[p]]
            for k, (a, el) in enumerate(anchors[1:]):
                names[f"E{p}_{k}"] = el
                tests.append(f"adj[x{p}].get({image(a)}) != E{p}_{k}")
            source.append(f"{pad} if {' or '.join(tests)}: continue")
        pad = " " * (e - s + 1)
        if e == n:
            pairs = ", ".join(f"V{q}: {image(q)}" for q in range(n))
            source.append(f"{pad}yield {{{pairs}}}")
        else:
            placed = f"img[{s}:{e}]"
            source += [f"{pad}{placed} = {', '.join(map(image, range(s, e)))}",
                       f"{pad}used.update({placed})", f"{pad}yield",
                       f"{pad}used.difference_update({placed})"]
    exec(compile("\n".join(source), "<search plan>", "exec"), names)
    chunks = [names[f"chunk{s}"] for s in range(0, n, _CHUNK)]

    def search(host: Graph) -> Iterator[dict[int, int]]:
        state = (host._labels, host._adj, host._ids, [0] * n, set())
        stack = [chunks[0](*state)]
        while stack:
            for found in stack[-1]:
                if len(stack) == len(chunks):
                    yield found
                else:
                    stack.append(chunks[len(stack)](*state))
                    break
            else:
                stack.pop()
    return search


def enumerate_embeddings(pattern: Graph, host: Graph,
                         plan: SearchPlan | None = None) -> list[dict[int, int]]:
    """All injective label- and edge-preserving maps of pattern into host,
    or, given the pattern's plan, the first of each orbit of them under the
    plan's symmetries.

    The pattern must be connected and nonempty; ``search_plan`` checks it
    when it builds the plan.  Without a plan, each call builds and compiles
    one, so a caller that searches one pattern many times builds its plan
    once with ``search_plan``.
    Returns vertex maps (pattern id -> host id) in a deterministic order;
    empty list when nothing matches.
    """
    return list((plan or search_plan(pattern)).search(host))


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
