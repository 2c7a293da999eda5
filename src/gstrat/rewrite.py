"""Rule application and discovery of proper derivations by partial binding.

A rule is applied to a multiset of interned graphs.  The multiset is
assembled into one disjoint-union host; a full match maps every left-graph
vertex into that union.  Instead of testing every k-multisubset of a
universe, derivations are enumerated by binding host graphs to the rule one
copy at a time: each copy receives a nonempty subset of the remaining left
components, so every produced derivation is automatically proper.

One routine, ``_gluing_ok``, checks the DPO gluing conditions for the part
of a match it is given: each copy as it is bound, and the full match before
``apply_at`` builds the result.  One recursive generator, ``_completions``,
extends partial rules over the universe until they are complete.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from gstrat.graphs import Graph, GraphRepository, _edge_key
from gstrat.matching import enumerate_embeddings
from gstrat.rules import CONTEXT, LEFT, RIGHT, Rule


@dataclass(frozen=True)
class Assembly:
    """Concrete disjoint union of stored graph copies.

    Copy i contributes vertices offset[i] .. offset[i] + n_i - 1, i.e. the
    stored graph's dense ids shifted by the copy offset.
    """

    graph_ids: tuple[int, ...]
    graph: Graph
    offsets: tuple[int, ...]

    def copy_of(self, union_vid: int) -> int:
        for i in range(len(self.offsets) - 1, -1, -1):
            if union_vid >= self.offsets[i]:
                return i
        raise ValueError(f"vertex {union_vid} not in assembly")


def assemble(repo: GraphRepository, graph_ids: Sequence[int]) -> Assembly:
    vertices: list[tuple[int, str]] = []
    edges: list[tuple[int, int, str]] = []
    offsets: list[int] = []
    offset = 0
    for gid in graph_ids:
        g = repo.graph(gid)
        offsets.append(offset)
        vertices.extend((v + offset, l) for v, l in g.vertices())
        edges.extend((u + offset, v + offset, el) for u, v, el in g.edges())
        offset += g.vertex_count
    return Assembly(tuple(graph_ids), Graph(vertices, edges), tuple(offsets))


class Morphism:
    """A match of (part of) a rule's left graph into an assembled host."""

    __slots__ = ("assembly", "vertex_map")

    def __init__(self, assembly: Assembly, vertex_map: dict[int, int]):
        self.assembly = assembly
        self.vertex_map = vertex_map

    def touched_copies(self) -> set[int]:
        return {self.assembly.copy_of(v) for v in self.vertex_map.values()}

    def __repr__(self) -> str:
        return f"Morphism({self.vertex_map})"


class MatchCache:
    """Memoized embeddings of rule left components into stored graphs."""

    def __init__(self) -> None:
        self._data: dict[tuple, tuple[dict[int, int], ...]] = {}

    @property
    def queries(self) -> int:
        """Embedding enumerations run so far: one per distinct (rule, left
        component, graph)."""
        return len(self._data)

    def embeddings(self, rule: Rule, comp_idx: int, gid: int,
                   repo: GraphRepository) -> tuple[dict[int, int], ...]:
        key = (rule, comp_idx, gid)
        cached = self._data.get(key)
        if cached is None:
            pattern = rule.left_components()[comp_idx]
            cached = tuple(enumerate_embeddings(pattern, repo.graph(gid)))
            self._data[key] = cached
        return cached


@dataclass(frozen=True)
class Derivation:
    """One proper derivation: inputs => outputs under a rule at a match."""

    rule: Rule
    inputs: tuple[int, ...]        # graph ids with multiplicity, sorted
    outputs: tuple[int, ...]       # graph ids with multiplicity, sorted
    match: Morphism
    atom_map: dict[tuple[int, int], tuple[int, int]] | None

    def __post_init__(self):
        touched = self.match.touched_copies()
        if touched != set(range(len(self.match.assembly.graph_ids))):
            raise ValueError("derivation is not proper: untouched input component")

    @property
    def key(self) -> tuple:
        """Dedup key: derivations differing only in the match are duplicates."""
        return (self.rule.name, self.inputs, self.outputs)


@dataclass(frozen=True)
class ApplyResult:
    outputs: tuple[int, ...]
    # raw output vertex id -> (output position, stored vertex id)
    vertex_fates: dict[int, tuple[int, int]]


def validate_match(rule: Rule, host: Graph, vertex_map: dict[int, int]) -> bool:
    """Check vertex_map is an injective label/edge-preserving match of L."""
    left = rule.left_graph()
    images = set()
    for vid in left.vertex_ids():
        m = vertex_map.get(vid)
        if m is None or m in images or not host.has_vertex(m):
            return False
        if host.label(m) != left.label(vid):
            return False
        images.add(m)
    for u, v, el in left.edges():
        mu, mv = vertex_map[u], vertex_map[v]
        if not host.has_edge(mu, mv) or host.edge_label(mu, mv) != el:
            return False
    return True


def apply_at(rule: Rule, assembly: Assembly, vertex_map: dict[int, int],
             repo: GraphRepository, validate: bool = True) -> ApplyResult | None:
    """Apply rule at a full match; None when the gluing conditions fail.

    The preserved part keeps its host vertex ids; created vertices get
    fresh ids.  Output components are interned in ascending-raw-id order.
    """
    host = assembly.graph
    if validate and not validate_match(rule, host, vertex_map):
        raise ValueError("vertex map is not a match of the rule's left graph")
    if not _gluing_ok(rule, vertex_map, host):
        return None

    deleted_vertices = {vertex_map[vid] for vid, rv in rule.vertices.items()
                        if rv.kind == LEFT}
    deleted_edge_images = {_edge_key(vertex_map[u], vertex_map[v])
                           for (u, v), re in rule.edges.items()
                           if re.kind == LEFT}

    labels: dict[int, str] = {}
    for vid, label in host.vertices():
        if vid not in deleted_vertices:
            labels[vid] = label
    created: dict[int, int] = {}
    next_id = max(labels, default=-1) + 1
    for vid in sorted(rule.vertices):
        rv = rule.vertices[vid]
        if rv.kind == CONTEXT and rv.left_label != rv.right_label:
            labels[vertex_map[vid]] = rv.right_label
        elif rv.kind == RIGHT:
            created[vid] = next_id
            labels[next_id] = rv.right_label
            next_id += 1

    out_edges: dict[tuple[int, int], str] = {}
    for u, v, el in host.edges():
        if u in deleted_vertices or v in deleted_vertices:
            continue
        if (u, v) in deleted_edge_images:
            continue
        out_edges[(u, v)] = el
    for (u, v), re in rule.edges.items():
        if re.kind == CONTEXT and re.left_label != re.right_label:
            out_edges[_edge_key(vertex_map[u], vertex_map[v])] = re.right_label
        elif re.kind == RIGHT:
            mu = created.get(u, vertex_map.get(u))
            mv = created.get(v, vertex_map.get(v))
            out_edges[_edge_key(mu, mv)] = re.right_label

    result = Graph(labels.items(),
                   [(u, v, el) for (u, v), el in out_edges.items()])
    outputs: list[int] = []
    fates: dict[int, tuple[int, int]] = {}
    for pos, comp in enumerate(result.connected_components()):
        gid, _, vmap = repo.intern_mapped(comp)
        outputs.append(gid)
        for raw, stored in vmap.items():
            fates[raw] = (pos, stored)
    return ApplyResult(tuple(outputs), fates)


def _atom_map(rule: Rule, assembly: Assembly, result: ApplyResult
              ) -> dict[tuple[int, int], tuple[int, int]] | None:
    """(input position, vertex) -> (output position, vertex) for chemical rules.

    Chemical rules preserve every host vertex, so each union vertex has a
    fate in exactly one output component.
    """
    if not rule.is_chemical:
        return None
    total = assembly.graph.vertex_count
    bounds = assembly.offsets + (total,)
    mapping: dict[tuple[int, int], tuple[int, int]] = {}
    for i in range(len(assembly.graph_ids)):
        for svid in range(bounds[i + 1] - bounds[i]):
            mapping[(i, svid)] = result.vertex_fates[bounds[i] + svid]
    return mapping


class BindError(ValueError):
    pass


@dataclass(frozen=True)
class BoundCopy:
    graph_id: int
    components: frozenset[int]
    vertex_map: tuple[tuple[int, int], ...]  # rule vid -> stored vid, sorted


class PartialRule:
    """A rule with some left components bound to host graph content.

    Each bound copy fixes a nonempty set of left components and an injective
    merged embedding into one stored graph.  When no components remain the
    partial rule is complete and encodes a full derivation.
    """

    __slots__ = ("rule", "bound", "_remaining")

    def __init__(self, rule: Rule, bound: tuple[BoundCopy, ...] = ()):
        self.rule = rule
        self.bound = bound
        taken: set[int] = set()
        for bc in bound:
            taken |= bc.components
        self._remaining = tuple(i for i in range(len(rule.left_components()))
                                if i not in taken)

    @property
    def remaining_components(self) -> tuple[int, ...]:
        return self._remaining

    @property
    def complete(self) -> bool:
        return not self._remaining

    def bound_graph_ids(self) -> tuple[int, ...]:
        return tuple(bc.graph_id for bc in self.bound)

    def __repr__(self) -> str:
        done = len(self.rule.left_components()) - len(self._remaining)
        return (f"PartialRule({self.rule.name!r}, "
                f"{done}/{len(self.rule.left_components())} components bound)")


def _gluing_ok(rule: Rule, vmap: dict[int, int], host: Graph) -> bool:
    """DPO gluing conditions for the part of a match that vmap fixes.

    Dangling: every host edge at a deleted vertex must be the image of a
    left-graph edge.  Simplicity: no created edge may parallel a host edge
    that survives.  Host edges never join two bound copies, so a full match
    passes exactly when its restriction to each copy passes, and a copy
    that fails can never complete into a valid derivation.
    """
    left_images = set()
    deleted_images = set()
    for (u, v), re in rule.edges.items():
        if re.kind in (LEFT, CONTEXT) and u in vmap and v in vmap:
            key = _edge_key(vmap[u], vmap[v])
            left_images.add(key)
            if re.kind == LEFT:
                deleted_images.add(key)
    for vid, rv in rule.vertices.items():
        if rv.kind == LEFT and vid in vmap:
            d = vmap[vid]
            for n in host.neighbors(d):
                if _edge_key(d, n) not in left_images:
                    return False
    for (u, v), re in rule.edges.items():
        if re.kind == RIGHT and u in vmap and v in vmap:
            key = _edge_key(vmap[u], vmap[v])
            if host.has_edge(*key) and key not in deleted_images:
                return False
    return True


def _merged_component_maps(rule: Rule, comp_indices: Sequence[int], gid: int,
                           repo: GraphRepository, cache: MatchCache
                           ) -> Iterator[dict[int, int]]:
    """Injective merges of one embedding per component into stored graph gid."""
    per_comp = [cache.embeddings(rule, ci, gid, repo) for ci in comp_indices]
    if any(not maps for maps in per_comp):
        return
    # Iterative depth-first search: level i scans per_comp[i] from next_idx[i]
    # and chosen[i] is the map it has merged in.
    merged: dict[int, int] = {}
    used: set[int] = set()
    chosen: list[dict[int, int]] = []
    next_idx = [0] * len(per_comp)
    while True:
        i = len(chosen)
        if i == len(per_comp):
            yield dict(merged)
        else:
            maps = per_comp[i]
            j = next_idx[i]
            while j < len(maps) and any(v in used for v in maps[j].values()):
                j += 1
            if j < len(maps):
                next_idx[i] = j + 1
                merged.update(maps[j])
                used.update(maps[j].values())
                chosen.append(maps[j])
                continue
            next_idx[i] = 0
        if not chosen:
            return
        for k, v in chosen.pop().items():
            del merged[k]
            used.discard(v)


def _bind_copy(partial: PartialRule, gid: int, comp_indices: tuple[int, ...],
               repo: GraphRepository, cache: MatchCache) -> list[PartialRule]:
    rule = partial.rule
    g = repo.graph(gid)
    out = []
    for vmap in _merged_component_maps(rule, comp_indices, gid, repo, cache):
        if not _gluing_ok(rule, vmap, g):
            continue
        bc = BoundCopy(gid, frozenset(comp_indices), tuple(sorted(vmap.items())))
        out.append(PartialRule(rule, partial.bound + (bc,)))
    return out


def _subsets(items: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every subset of items in binary-counter order; the empty one is first."""
    return [tuple(items[i] for i in range(len(items)) if mask >> i & 1)
            for mask in range(1 << len(items))]


def bind_graph(rule_or_partial: Rule | PartialRule, gid: int,
               repo: GraphRepository, cache: MatchCache | None = None
               ) -> list[PartialRule]:
    """Bind one more host graph: all nonempty subsets of the remaining left
    components, with every injective merged embedding into the graph.

    Bindings violating the gluing conditions locally (dangling deletion,
    non-simple creation inside the copy) are dropped: they can never extend
    to a valid derivation.  Partial rules with no remaining components are
    complete and encode full derivations.
    """
    partial = (rule_or_partial if isinstance(rule_or_partial, PartialRule)
               else PartialRule(rule_or_partial))
    cache = cache or MatchCache()
    results: list[PartialRule] = []
    for subset in _subsets(partial.remaining_components)[1:]:
        results.extend(_bind_copy(partial, gid, subset, repo, cache))
    return results


def complete_derivation(partial: PartialRule, repo: GraphRepository
                        ) -> Derivation | None:
    """Turn a complete partial rule into a derivation by applying the rule."""
    if not partial.complete:
        raise BindError("partial rule still has unbound components")
    assembly = assemble(repo, partial.bound_graph_ids())
    vertex_map: dict[int, int] = {}
    for i, bc in enumerate(partial.bound):
        offset = assembly.offsets[i]
        for rv, sv in bc.vertex_map:
            vertex_map[rv] = sv + offset
    result = apply_at(partial.rule, assembly, vertex_map, repo, validate=False)
    if result is None:
        return None
    return Derivation(
        rule=partial.rule,
        inputs=tuple(sorted(assembly.graph_ids)),
        outputs=tuple(sorted(result.outputs)),
        match=Morphism(assembly, vertex_map),
        atom_map=_atom_map(partial.rule, assembly, result),
    )


def _completions(partial: PartialRule, universe: Sequence[int],
                 repo: GraphRepository, cache: MatchCache
                 ) -> Iterator[PartialRule]:
    """Complete extensions of partial.

    Each step binds the first remaining component plus any subset of the
    others to a universe graph; subsets are tried in ``_subsets`` order and,
    for each subset, graphs in universe order.
    """
    remaining = partial.remaining_components
    if not remaining:
        yield partial
        return
    first = remaining[0]
    for tail in _subsets(remaining[1:]):
        for gid in universe:
            for nxt in _bind_copy(partial, gid, (first,) + tail, repo, cache):
                yield from _completions(nxt, universe, repo, cache)


def enumerate_proper_derivations(
        rule: Rule,
        universe: Sequence[int],
        required: Sequence[int] = (),
        repo: GraphRepository | None = None,
        cache: MatchCache | None = None,
        left_filter: Callable[[tuple[int, ...]], bool] | None = None,
) -> list[Derivation]:
    """All proper derivations with inputs drawn (with repetition) from the
    universe, every input component matched, and - when required is nonempty -
    at least one input from required.

    Binding starts at the required graphs (at every universe graph when
    none is required) and ``_completions`` extends each start over the
    universe, so work is proportional to what the required set can actually
    initiate.  Derivations agreeing on (rule, input classes, output
    classes) are deduplicated; discovery order is deterministic.

    Each match orbit under rule automorphisms and permutations of the bound
    copies is applied once, at its first member: the other members yield
    isomorphic results, hence the same derivation key.  ``bind_graph`` stays
    per-morphism.
    """
    if repo is None:
        raise ValueError("a graph repository is required")
    cache = cache or MatchCache()
    universe = list(universe)
    required = list(required)
    if not set(required) <= set(universe):
        raise ValueError("required graphs must be part of the universe")

    # With no required graph, a start must bind component 0, so that each
    # complete match is reached once, its copies in component order.
    starts = (partial for gid in required or universe
              for partial in bind_graph(rule, gid, repo, cache)
              if required or 0 in partial.bound[0].components)
    found: dict[tuple, Derivation] = {}
    automorphisms = rule.automorphisms()
    applied_orbits: set[tuple] = set()
    for start in starts:
        for partial in _completions(start, universe, repo, cache):
            inputs = tuple(sorted(partial.bound_graph_ids()))
            if left_filter is not None and not left_filter(inputs):
                continue
            orbit = min(
                tuple(sorted((bc.graph_id,
                              tuple(sorted((sigma[rv], sv)
                                           for rv, sv in bc.vertex_map)))
                             for bc in partial.bound))
                for sigma in automorphisms)
            if orbit in applied_orbits:
                continue
            applied_orbits.add(orbit)
            d = complete_derivation(partial, repo)
            if d is not None and d.key not in found:
                found[d.key] = d
    return list(found.values())
