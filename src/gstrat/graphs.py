"""Labeled simple graphs, canonical-form interning, and the graph text format.

Graphs are undirected and simple (no loops, no parallel edges) with arbitrary
string labels on vertices and edges.  Instances are immutable once built;
the canonical form is computed on first use and cached, which is what makes
interning and isomorphism tests cheap: two graphs are isomorphic exactly
when their certificates are equal.

The canonical form is an individualisation-refinement labelling in the style
of McKay & Piperno, "Practical graph isomorphism, II" (2014): refine the
vertex colouring until it is stable; while some colour class is not a
*symmetric cell* (one whose every permutation is an automorphism), branch on
individualising each of its members; each leaf orders the vertices, and the
smallest resulting relabelled graph is the certificate.  Automorphisms found
when two leaves agree prune the sibling branches they relate.  The labelling
keeps those generators and the symmetric cells of the stable partition, and
``GraphRepository`` keeps them per class as a ``HostSymmetry``.  Together
with the swaps of twin leaves, it keys vertex tuples so that equal keys
imply an automorphism between them; rule application uses the key to apply
one match per host orbit.

Before labelling, each degree-1 vertex hanging off a vertex of degree 2 or
more is folded into that neighbour's starting colour, as hydrogen-suppressed
canonical SMILES does (Weininger et al., "SMILES 2", 1989).  The search then
runs on the remaining core only, which in the explicit-hydrogen molecules of
the Diels-Alder scripts is about 40% of the vertices.  The certificate opens
with run-length counts of the core vertices' (label, folded vertices) keys;
see ``Graph.canonical_form``.

Neighbour dicts list their neighbours in ascending id order, whatever the
edge order.  ``rewrite.apply_at`` builds its results from its laid-out
dicts, so stored graphs may share unchanged dicts, and none is written to.
The labelling reads only a graph's content (ids, labels and labelled
adjacency), never the order its dicts were built in: every step sorts or
keeps cells in ascending index order.  ``GraphRepository`` interns a graph
whose content equals a stored graph's, as inverting a derivation gives
back, without labelling either: the identity maps it onto the stored graph.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence

from gstrat import lex
from gstrat.lex import TokenStream


class GraphError(ValueError):
    """Structurally invalid graph (duplicate vertex, loop, parallel edge...)."""


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


# -- colour refinement and canonical labelling on dense indices ----------------
#
# A graph with n vertices is handled as vertex indices 0..n-1 (ascending id
# order).  adj[i] holds one (offset, j) pair per neighbour j, where offset is
# the rank of the edge label times n: offset + colour then names an
# (edge label, neighbour colour) pair by a single int.  A colouring is an
# ordered partition into cells, each listing its members in ascending index
# order; a vertex's colour is the position of its cell, so every colour is
# local to its graph.

Adjacency = list[tuple[tuple[int, int], ...]]


def _colors(cells: list[list[int]], n: int) -> list[int]:
    colors = [0] * n
    for c, cell in enumerate(cells):
        for i in cell:
            colors[i] = c
    return colors


def _refine(adj: Adjacency, cells: list[list[int]],
            changed: Iterable[int] | None = None) -> list[list[int]]:
    """Refine an ordered partition until no cell splits.

    Each round splits every cell by the members' sorted neighbour keys and
    puts the parts in key order, so a vertex's new colour is the rank of
    (its colour, sorted neighbour keys) among this graph's distinct values,
    and the result is equivariant: relabelling the graph relabels the
    colouring the same way.  A cell can only split when a member has a
    neighbour whose cell split in the previous round; ``changed`` names the
    vertices whose cells changed before the first round (None: all cells
    are examined).
    """
    n = len(adj)
    colors = _colors(cells, n)
    while len(cells) < n:
        if changed is None:
            touched = None
        else:
            touched = {colors[j] for i in changed for _, j in adj[i]}
        out: list[list[int]] = []
        changed = []
        for c, cell in enumerate(cells):
            if len(cell) == 1 or (touched is not None and c not in touched):
                out.append(cell)
                continue
            parts: dict[tuple[int, ...], list[int]] = {}
            for i in cell:
                key = tuple(sorted([off + colors[j] for off, j in adj[i]]))
                parts.setdefault(key, []).append(i)
            if len(parts) == 1:
                out.append(cell)
                continue
            out.extend(parts[key] for key in sorted(parts))
            changed.extend(cell)
        if not changed:
            break
        cells = out
        colors = _colors(cells, n)
    return cells


def _adjacency(vertices: list[int], nbrs: Mapping[int, Mapping[int, str]]
               ) -> tuple[Adjacency, list[str]]:
    """The dense adjacency of the subgraph induced on vertices (index i is
    vertices[i]), and the sorted labels of every edge at those vertices,
    whose ranks give the offsets."""
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    edge_labels = sorted({el for v in vertices for el in nbrs[v].values()})
    offset = {el: r * n for r, el in enumerate(edge_labels)}
    adj = [tuple((offset[el], index[u]) for u, el in nbrs[v].items() if u in index)
           for v in vertices]
    return adj, edge_labels


def _is_symmetric(cell: list[int], adj: Adjacency) -> bool:
    """Is every permutation of this cell an automorphism?

    True when all members have the same neighbours outside the cell, with
    the same edge labels, and the edges inside the cell are either all
    present with one label or all absent.
    """
    members = set(cell)
    outside = {tuple(sorted((j, off) for off, j in adj[y] if j not in members))
               for y in cell}
    inner = [off for y in cell for off, j in adj[y] if j in members]
    return len(outside) == 1 and (
        not inner or (len(inner) == len(cell) * (len(cell) - 1)
                      and len(set(inner)) == 1))


def _target_cell(adj: Adjacency, cells: list[list[int]]) -> int | None:
    """Position of the first cell that is neither a singleton nor symmetric."""
    for c, cell in enumerate(cells):
        if len(cell) > 1 and not _is_symmetric(cell, adj):
            return c
    return None


def _orbit(w: int, generators: list[list[int]]) -> set[int]:
    orbit = {w}
    todo = [w]
    while todo:
        x = todo.pop()
        for gamma in generators:
            y = gamma[x]
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit


def _canonical_order(adj: Adjacency, cells: list[list[int]],
                     edge_label_count: int
                     ) -> tuple[tuple[int, ...], list[int], list[list[int]]]:
    """The smallest leaf of the individualisation-refinement search tree.

    Takes a refined partition.  Returns (edge codes, order, generators):
    order lists the vertex indices by canonical position, each edge is coded
    as (position pair, edge label rank) in one int, and generators are the
    automorphisms the search found, each as the image of every index.  A
    node is a leaf when all its non-singleton cells are symmetric; otherwise
    its children individualise each member of its target cell, placing it
    in a cell of its own just after the rest.  The search is iterative; a
    frame is [cells, target position, children explored, next member].
    When a leaf's codes equal those of the first or the best leaf, the two
    orders differ by an automorphism, a generator.  A child is skipped, or
    its subtree abandoned, once the automorphisms that fix the frame's
    individualised prefix map it onto an earlier sibling: both subtrees
    then hold the same leaf codes.
    """
    n = len(adj)
    kinds = max(1, edge_label_count)
    edges = [(i, j, off // n) for i in range(n) for off, j in adj[i] if i < j]

    def leaf(cells: list[list[int]]) -> tuple[tuple[int, ...], list[int]]:
        order = [i for cell in cells for i in cell]
        pos = [0] * n
        for p, i in enumerate(order):
            pos[i] = p
        codes = []
        for i, j, e in edges:
            a, b = pos[i], pos[j]
            if a > b:
                a, b = b, a
            codes.append((a * n + b) * kinds + e)
        codes.sort()
        return tuple(codes), order

    target = _target_cell(adj, cells)
    if target is None:
        return (*leaf(cells), [])
    first = best = None
    generators: list[list[int]] = []
    stack = [[cells, target, [], 0]]

    def fixing(depth: int) -> list[list[int]]:
        prefix = [frame[2][-1] for frame in stack[:depth]]
        return [g for g in generators if all(g[p] == p for p in prefix)]

    while stack:
        frame = stack[-1]
        cells, target, explored, nxt = frame
        cell = cells[target]
        gens = fixing(len(stack) - 1) if explored else []
        child = None
        while child is None and nxt < len(cell):
            w = cell[nxt]
            nxt += 1
            if not explored or _orbit(w, gens).isdisjoint(explored):
                child = w
        frame[3] = nxt
        if child is None:
            stack.pop()
            continue
        explored.append(child)
        split = cells[:target] + [[i for i in cell if i != child], [child]]
        split += cells[target + 1:]
        child_cells = _refine(adj, split, [child])
        child_target = _target_cell(adj, child_cells)
        if child_target is not None:
            stack.append([child_cells, child_target, [], 0])
            continue
        codes, order = leaf(child_cells)
        if first is None:
            first = best = (codes, order)
            continue
        ref = first if codes == first[0] else best if codes == best[0] else None
        if ref is None:
            if codes < best[0]:
                best = (codes, order)
            continue
        gamma = [0] * n
        for a, b in zip(ref[1], order):
            gamma[a] = b
        generators.append(gamma)
        # Abandon the shallowest current branch that the new automorphism
        # maps onto an earlier sibling.
        for depth, (_, _, done, _) in enumerate(stack):
            if len(done) > 1 and not _orbit(done[-1], fixing(depth)).isdisjoint(done[:-1]):
                del stack[depth + 1:]
                break
    return (*best, generators)


class Graph:
    """Immutable simple undirected graph with string vertex and edge labels;
    neighbour dicts ascend by id, and stored graphs may share unchanged ones."""

    __slots__ = ("_labels", "_adj", "_edge_count", "_connected", "_canon",
                 "_symmetry")

    def __init__(self, vertices: Iterable[tuple[int, str]],
                 edges: Iterable[tuple[int, int, str]] = (), *,
                 _adj: dict[int, dict[int, str]] | None = None):
        # _adj is rewrite.apply_at's layout of one connected component:
        # simple, with ascending neighbour dicts, so it is taken as given.
        self._connected: bool | None = True if _adj is not None else None
        if _adj is None:
            vertices = list(vertices)
        labels: dict[int, str] = dict(vertices)
        if _adj is None:
            if len(labels) != len(vertices):
                seen: set[int] = set()
                for vid, _ in vertices:
                    if vid in seen:
                        raise GraphError(f"duplicate vertex id {vid}")
                    seen.add(vid)
            adj: dict[int, dict[int, str]] = {v: {} for v in labels}
            for u, v, label in edges:
                nu, nv = adj.get(u), adj.get(v)
                if nu is None or nv is None or v in nu or u == v:
                    if u == v:
                        raise GraphError(f"self-loop on vertex {u}")
                    if nu is None or nv is None:
                        raise GraphError(f"edge {u}-{v} references an undeclared vertex")
                    raise GraphError(f"parallel edge {u}-{v}")
                nu[v] = label
                nv[u] = label
            _adj = {v: dict(sorted(nb.items())) for v, nb in adj.items()}
        self._labels = labels
        self._adj = _adj
        self._edge_count = sum(map(len, _adj.values())) // 2
        self._canon: tuple[tuple, tuple[int, ...]] | None = None
        self._symmetry: tuple[tuple[dict[int, int], ...], tuple] | None = None

    @property
    def vertex_count(self) -> int:
        return len(self._labels)

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def vertex_ids(self) -> list[int]:
        return sorted(self._labels)

    def vertices(self) -> Iterator[tuple[int, str]]:
        """Yield (id, label) in ascending id order."""
        for vid in sorted(self._labels):
            yield vid, self._labels[vid]

    def edges(self) -> Iterator[tuple[int, int, str]]:
        """Yield (u, v, label) with u < v, in ascending (u, v) order."""
        for u in sorted(self._adj):
            nbrs = self._adj[u]
            for v in nbrs:
                if u < v:
                    yield u, v, nbrs[v]

    def label(self, vid: int) -> str:
        return self._labels[vid]

    def has_vertex(self, vid: int) -> bool:
        return vid in self._labels

    def neighbors(self, vid: int) -> Mapping[int, str]:
        """Adjacency of vid as a read-only neighbor -> edge label mapping."""
        return self._adj[vid]

    def degree(self, vid: int) -> int:
        return len(self._adj[vid])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, ())

    def edge_label(self, u: int, v: int) -> str:
        return self._adj[u][v]

    def refinement_colors(self) -> dict[int, int]:
        """Stable vertex colors from iterated neighborhood refinement.

        Colors are ranks local to this graph, starting from the vertex-label
        ranks; the refinement runs until the partition stops splitting.  An
        isomorphism maps each vertex to one of the same color.
        """
        ids = sorted(self._labels)
        adj, _ = _adjacency(ids, self._adj)
        by_label: dict[str, list[int]] = {}
        for i, v in enumerate(ids):
            by_label.setdefault(self._labels[v], []).append(i)
        cells = [by_label[label] for label in sorted(by_label)]
        return dict(zip(ids, _colors(_refine(adj, cells), len(ids))))

    def canonical_form(self) -> tuple[tuple, tuple[int, ...]]:
        """(certificate, vertex ids in canonical order).

        Two graphs have equal certificates exactly when they are isomorphic,
        and pairing their canonical orders position by position is then a
        label-preserving isomorphism.

        Only the core is labelled.  A leaf is a vertex of degree 1 whose
        neighbour has degree 2 or more (so K2 has none); every other vertex
        is core.  A core vertex's key is (its label, the sorted (edge label,
        leaf label) pairs of its leaves), and the core vertices start in one
        cell per key, in key order.  The canonical order is the core's
        canonical order, then each core vertex's leaves in that order, each
        group sorted by (edge label, leaf label, id): twin leaves are
        interchangeable, so any order among them gives an isomorphism.

        The certificate is the (key, count) runs in key order, the sorted
        edge labels, and the core edges coded by canonical position pair
        and edge-label rank.  Canonical positions keep the initial cells in
        order, so the runs fix the key at every position, and the core with
        its keys fixes the whole graph.
        """
        if self._canon is None:
            labels, nbrs = self._labels, self._adj
            core: list[int] = []
            leaves: dict[int, list[tuple[str, str, int]]] = {}
            for v in sorted(labels):
                around = nbrs[v]
                if len(around) == 1:
                    u = next(iter(around))
                    if len(nbrs[u]) > 1:
                        leaves.setdefault(u, []).append((around[u], labels[v], v))
                        continue
                core.append(v)
            adj, edge_labels = _adjacency(core, nbrs)
            for group in leaves.values():
                group.sort()
            by_key: dict[tuple, list[int]] = {}
            for i, v in enumerate(core):
                key = (labels[v], tuple([(el, label) for el, label, _ in leaves.get(v, ())]))
                by_key.setdefault(key, []).append(i)
            keys = sorted(by_key)
            cells = _refine(adj, [by_key[key] for key in keys])
            codes, positions, generators = _canonical_order(
                adj, cells, len(edge_labels))
            core_order = [core[i] for i in positions]
            order = core_order + [leaf for v in core_order
                                  for _, _, leaf in leaves.get(v, ())]
            certificate = (tuple((key, len(by_key[key])) for key in keys),
                           tuple(edge_labels), codes)
            self._canon = (certificate, tuple(order))
            self._symmetry = (
                tuple({core[i]: core[j] for i, j in enumerate(gamma) if i != j}
                      for gamma in generators),
                tuple(tuple(core[i] for i in cell) for cell in cells
                      if len(cell) > 1 and _is_symmetric(cell, adj)))
        return self._canon

    def core_symmetry(self) -> tuple[tuple[dict[int, int], ...],
                                     tuple[tuple[int, ...], ...]]:
        """(generators, symmetric cells) that canonical labelling found for
        the core: each generator as the core vertices it moves -> their
        images, each cell as its members, ascending.  With the leaves
        following their parents, both are automorphisms of the graph; they
        need not generate all of them."""
        self.canonical_form()
        return self._symmetry

    @property
    def is_connected(self) -> bool:
        if self._connected is None:
            self._connected = bool(self._labels) and len(
                self._reach(next(iter(self._labels)))) == len(self._labels)
        return self._connected

    def _reach(self, start: int) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for u in self._adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return seen

    def connected_components(self) -> list[Graph]:
        """Split into connected components, preserving original vertex ids.

        Components are returned in ascending order of their smallest vertex
        id; the identity on vertex ids is the mapping back into this graph.
        """
        remaining = set(self._labels)
        components = []
        for vid in sorted(self._labels):
            if vid not in remaining:
                continue
            seen = self._reach(vid)
            remaining -= seen
            verts = [(v, self._labels[v]) for v in sorted(seen)]
            edges = [(u, v, el) for u, v, el in self.edges() if u in seen]
            components.append(Graph(verts, edges))
        return components

    def renumbered(self) -> tuple[Graph, dict[int, int]]:
        """Copy with dense ids 0..n-1 (sorted order); returns (graph, old->new)."""
        mapping = {vid: i for i, vid in enumerate(sorted(self._labels))}
        verts = [(mapping[v], l) for v, l in self.vertices()]
        edges = [(mapping[u], mapping[v], el) for u, v, el in self.edges()]
        return Graph(verts, edges), mapping

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count} vertices, {self.edge_count} edges)"


def isomorphic(g: Graph, h: Graph) -> bool:
    """Label-preserving isomorphism test: equal canonical certificates."""
    return g.canonical_form()[0] == h.canonical_form()[0]


def _leaf_parent(g: Graph, v: int) -> int | None:
    """The neighbour of v when v is a leaf in the sense of canonical_form."""
    nbrs = g.neighbors(v)
    if len(nbrs) == 1:
        (p,) = nbrs
        if g.degree(p) > 1:
            return p
    return None


class HostSymmetry:
    """Automorphisms of one stored graph that are known without a search,
    for keying vertex tuples up to them: the ``core_symmetry`` of its own
    labelling, and the swaps of twin leaves (leaves of one parent with the
    same edge label and label), which are recognised from degrees.  Each
    of ``generators`` maps the core vertices it moves to their images
    (every other vertex, leaves included, is fixed); ``moved`` holds the
    core vertices a generator or a cell moves.
    """

    __slots__ = ("graph", "generators", "cells", "_cell_of", "moved")

    def __init__(self, graph: Graph):
        self.graph = graph
        self.generators, self.cells = graph.core_symmetry()
        self._cell_of = {v: c for c, cell in enumerate(self.cells) for v in cell}
        self.moved = {v for move in self.generators for v in move}
        self.moved.update(self._cell_of)

    def _twins(self, leaf: int, parent: int, at: int) -> list[int]:
        """The leaves of at with the edge label and label of leaf (a leaf
        of parent), ascending."""
        g = self.graph
        el, label = g.edge_label(leaf, parent), g.label(leaf)
        return [u for u, e in g.neighbors(at).items()
                if e == el and g.degree(u) == 1 and g.label(u) == label]

    def moves_any(self, vertices: Iterable[int]) -> bool:
        """Can a known automorphism move one of these vertices?  When none
        can, a tuple of them is its own ``orbit_key``."""
        for v in vertices:
            if v in self.moved:
                return True
            p = _leaf_parent(self.graph, v)
            if p is not None and (p in self.moved
                                  or len(self._twins(v, p, p)) > 1):
                return True
        return False

    def orbit_key(self, vertices: Sequence[int]) -> tuple[int, ...]:
        """A key of an injective vertex tuple under the known automorphisms.

        The least of the canonical images of the tuple and of its images
        under each generator.  The canonical image renames, in order of
        first appearance, the members of each symmetric cell to the cell's
        members in ascending order, and each leaf to the leaves of its
        group at its parent's new name; a parent is named when its leaf is,
        if not before.  Each step is an automorphism, so equal keys imply
        one that maps one tuple onto the other; the converse may fail.
        A tuple that ``moves_any`` says no known automorphism moves is its
        own key.
        """
        if not self.moves_any(vertices):
            return tuple(vertices)
        return min(self._canonical(vertices, perm)
                   for perm in ({}, *self.generators))

    def _canonical(self, vertices: Sequence[int], perm: Mapping[int, int]
                   ) -> tuple[int, ...]:
        names: dict[int, int] = {}         # core vertex (after perm) -> name
        cells_taken: dict[int, int] = {}   # per cell: members named so far
        leaves_taken: dict[int, int] = {}  # per leaf group, by first leaf
        out = []
        for v in vertices:
            p = _leaf_parent(self.graph, v)
            core = v if p is None else p
            core = perm.get(core, core)
            name = names.get(core)
            if name is None:
                name = core
                c = self._cell_of.get(core)
                if c is not None:
                    k = cells_taken.get(c, 0)
                    cells_taken[c] = k + 1
                    name = self.cells[c][k]
                names[core] = name
            if p is None:
                out.append(name)
                continue
            group = self._twins(v, p, name)
            k = leaves_taken.get(group[0], 0)
            leaves_taken[group[0]] = k + 1
            out.append(group[k])
        return tuple(out)


class GraphRepository:
    """Interning store mapping isomorphism classes to dense integer ids.

    Stored graphs have dense vertex ids 0..n-1 and are never mutated; the
    first graph interned for a class, renumbered if its ids are not dense,
    is its representative.  Each class is indexed by its canonical
    certificate, so interning is one canonical form and one dict lookup,
    and no two stored ids are isomorphic.  A graph whose content equals a
    stored graph's is found without the canonical form, by a cheap key of
    labels and degrees and a dict comparison.  A stored graph is the graph
    that was labelled, so it keeps its class's canonical order and core
    symmetry itself; its ``HostSymmetry`` reads them from it.
    """

    def __init__(self) -> None:
        self._graphs: list[Graph] = []
        self._by_cert: dict[tuple, int] = {}
        # Per ``_layout`` key: the ids whose stored graph has it.
        self._by_layout: dict[tuple, list[int]] = {}
        self._symmetries: list[HostSymmetry] = []
        self._names: dict[int, str] = {}

    def __len__(self) -> int:
        return len(self._graphs)

    @staticmethod
    def _layout(g: Graph) -> tuple[tuple[str, ...], tuple[int, ...]]:
        """The vertex labels and degrees of g in its dict order: equal for
        graphs with equal content built in the same vertex order."""
        return tuple(g._labels.values()), tuple(map(len, g._adj.values()))

    def graph(self, gid: int) -> Graph:
        return self._graphs[gid]

    def intern(self, g: Graph) -> tuple[int, bool]:
        gid, is_new, _ = self.intern_mapped(g)
        return gid, is_new

    def intern_mapped(self, g: Graph) -> tuple[int, bool, dict[int, int]]:
        """Intern g; also return the vertex map from g into the stored graph.

        A graph whose ids are not 0..n-1 is interned as its ``renumbered()``
        copy, and the map composed with the renumbering.  A graph with a
        stored graph's ids, labels and labelled adjacency is not labelled:
        the stored graphs with its ``_layout`` key are compared with it, and
        one with equal dicts is g itself, vertex for vertex, so the identity
        answers.  A key that collides costs one comparison.  Otherwise a
        certificate hit pairs g's canonical order with the stored graph's
        own, and a miss, connected, stores g: certificates are complete and
        every stored class is connected, so a hit is connected too.
        """
        ids = g._labels
        if ids and (min(ids) != 0 or max(ids) != len(ids) - 1):
            dense, renumber = g.renumbered()
            gid, is_new, into = self._intern_dense(dense)
            return gid, is_new, {v: into[i] for v, i in renumber.items()}
        return self._intern_dense(g)

    def _intern_dense(self, g: Graph) -> tuple[int, bool, dict[int, int]]:
        """``intern_mapped`` of a graph with ids 0..n-1."""
        layout = self._layout(g)
        for gid in self._by_layout.get(layout, ()):
            stored = self._graphs[gid]
            if stored._adj == g._adj and stored._labels == g._labels:
                return gid, False, {v: v for v in range(len(g._labels))}
        certificate, order = g.canonical_form()
        gid = self._by_cert.get(certificate)
        if gid is not None:
            return gid, False, dict(zip(order, self._graphs[gid].canonical_form()[1]))
        if not g.is_connected:
            raise GraphError("cannot intern a disconnected (or empty) graph")
        gid = len(self._graphs)
        self._graphs.append(g)
        self._by_cert[certificate] = gid
        self._by_layout.setdefault(layout, []).append(gid)
        self._symmetries.append(HostSymmetry(g))
        return gid, True, {v: v for v in range(len(g._labels))}

    def symmetry(self, gid: int) -> HostSymmetry:
        """The known automorphisms of a stored class: those its labelling
        found, if any, and the swaps of its twin leaves."""
        return self._symmetries[gid]

    def find(self, g: Graph) -> int | None:
        """Id of the stored graph isomorphic to g, if any (no interning)."""
        if not g.is_connected:
            return None
        return self._by_cert.get(g.canonical_form()[0])

    def set_name(self, gid: int, name: str) -> None:
        """Attach a display name; the first name for an id wins."""
        self._names.setdefault(gid, name)

    def name(self, gid: int) -> str:
        return self._names.get(gid, f"g{gid}")


# -- text format --------------------------------------------------------------
#
# graph <name> {
#   v <id> "<label>"; ...
#   e <id> <id> "<label>"; ...
# }
#
# '#' starts a comment; multiple graphs per file; names unique per file.


def read_entries(ts: TokenStream, vertex_ids: set[int], pair: bool = False
                 ) -> Iterator[tuple[lex.Token, tuple[int, ...], tuple[lex.Token, ...]]]:
    """Yield the keyword token, vertex ids and label tokens of each ``v <id>
    "<label>";`` or ``e <id> <id> "<label>";`` entry that follows.  With
    pair, the labels are a pair whose second defaults to the first.  A
    vertex id already in vertex_ids (which collects them) or a self-loop
    is an error at the keyword; ';' is read after the caller's checks."""
    while ts.peek().kind == lex.NAME and ts.peek().value in ("v", "e"):
        tok = ts.next()
        ids = tuple(ts.expect_int() for _ in range(1 if tok.value == "v" else 2))
        labels = (ts.expect(lex.STRING),)
        if pair:
            labels += (ts.next() if ts.at(lex.STRING) else labels[0],)
        if len(ids) == 1:
            if ids[0] in vertex_ids:
                raise tok.error(f"duplicate vertex id {ids[0]}")
            vertex_ids.add(ids[0])
        elif ids[0] == ids[1]:
            raise tok.error(f"self-loop on vertex {ids[0]}")
        yield tok, ids, labels
        ts.expect(lex.PUNCT, ";")


def _parse_graph_body(ts: TokenStream,
                      check_label: Callable[[str, bool], None] | None = None
                      ) -> Graph:
    """Read a graph's entries.  check_label(label, is vertex) runs after an
    entry's other checks; a ``ValueError`` it raises is located at the label."""
    vertices: list[tuple[int, str]] = []
    edges: list[tuple[int, int, str]] = []
    seen_ids: set[int] = set()
    seen_edges: set[tuple[int, int]] = set()
    for tok, ids, (label,) in read_entries(ts, seen_ids):
        if len(ids) == 2:
            u, v = ids
            if u not in seen_ids or v not in seen_ids:
                raise tok.error(f"edge {u}-{v} references an unknown vertex")
            key = _edge_key(u, v)
            if key in seen_edges:
                raise tok.error(f"parallel edge {u}-{v}")
            seen_edges.add(key)
        if check_label is not None:
            try:
                check_label(label.value, len(ids) == 1)
            except ValueError as err:
                raise label.error(str(err)) from err
        (vertices if len(ids) == 1 else edges).append((*ids, label.value))
    return Graph(vertices, edges)


def parse_blocks(text: str, keyword: str, read_body: Callable) -> dict:
    """Parse a file of ``<keyword> <name> { ... }`` blocks into an ordered
    name -> read_body(ts, name token) mapping; names are unique per file."""
    ts = TokenStream(lex.tokenize(text))
    blocks: dict = {}
    while not ts.at(lex.EOF):
        kw = ts.expect(lex.NAME, keyword)
        name = ts.expect(lex.NAME)
        if name.value in blocks:
            raise kw.error(f"duplicate {keyword} name {name.value!r}")
        ts.expect(lex.PUNCT, "{")
        blocks[name.value] = read_body(ts, name)
        ts.expect(lex.PUNCT, "}")
    return blocks


def parse_graphs(text: str) -> dict[str, Graph]:
    """Parse a graph file into an ordered name -> graph mapping."""
    return parse_blocks(text, "graph", lambda ts, name: _parse_graph_body(ts))


def parse_graph(text: str) -> Graph:
    """Parse a single graph: either one `graph name { ... }` or a bare body."""
    ts = TokenStream(lex.tokenize(text))
    if ts.accept(lex.NAME, "graph"):
        ts.expect(lex.NAME)
        ts.expect(lex.PUNCT, "{")
        g = _parse_graph_body(ts)
        ts.expect(lex.PUNCT, "}")
        if ts.at(lex.NAME, "graph"):
            raise ts.peek().error("expected exactly one graph")
    else:
        g = _parse_graph_body(ts)
    ts.expect_eof()
    return g


class LineEnds(dict):
    """Label -> the ``' "<label>";\\n'`` end of a vertex or edge line in the
    text format, quoted on first use.  Pass one to several
    ``serialize_graph`` calls to quote each distinct label once across
    them."""

    def __missing__(self, label: str) -> str:
        end = self[label] = f" {lex.quote(label)};\n"
        return end


def serialize_graph(g: Graph, name: str = "g",
                    ends: LineEnds | None = None) -> str:
    """Render in the graph file format; vertices then edges in ascending order."""
    if ends is None:
        ends = LineEnds()
    lines = [f"graph {name} {{\n"]
    lines += [f"  v {v}{ends[label]}" for v, label in sorted(g._labels.items())]
    lines += [f"  e {u} {v}{ends[el]}" for u, v, el in g.edges()]
    lines.append("}\n")
    return "".join(lines)
