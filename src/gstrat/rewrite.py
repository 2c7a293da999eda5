"""Rule application and discovery of proper derivations by partial binding.

A rule is applied to a multiset of interned graphs, and a match is a
sequence of copies, one per input in binding order: (graph id, map from the
rule vertices bound in that copy to stored vertex ids).  No union graph is
built: ``apply_at`` checks the match copy by copy on the stored graphs and
builds each output component once.  Instead of testing every k-multisubset
of a universe, derivations are enumerated by binding host graphs to the
rule one copy at a time: each copy receives a nonempty subset of the
remaining left components, so every produced derivation is automatically
proper.

One routine, ``_gluing_ok``, checks the DPO gluing conditions copy by copy
for the part of a match it is given: one copy as it is bound, and every
copy of the full match before ``apply_at`` builds the result.  The copies a
graph can take for a set of left components depend only on (rule,
components, graph), so ``MatchCache`` builds and checks them once;
``bind_graph`` and the recursive generator ``_completions`` only read them.
``_completions`` extends partial rules until they are complete, looping
over the universe graphs that can bind the next components rather than
over the whole universe.

A complete match is applied once per orbit, not once per match: matches
related by a rule automorphism, a permutation of the bound copies and, per
copy, an automorphism of its host give isomorphic results.  Each complete
match gets one key, ``_orbit_key``; the host automorphisms it uses are
those the canonical labelling of each stored class already found
(``GraphRepository.symmetry``), so no extra search is run.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from gstrat.graphs import Graph, GraphRepository, _edge_key
from gstrat.matching import enumerate_embeddings
from gstrat.rules import CONTEXT, LEFT, RIGHT, Rule


class MatchCache:
    """Memoized matching work of one graph repository.

    Two memos, both keyed by graph id:

    - embeddings: (rule, left component, graph) -> every embedding of the
      component into the stored graph;
    - bound copies: (rule, component subset, graph) -> the ``BoundCopy``
      values of the subset's merged embeddings that pass ``_gluing_ok``,
      in merge order.

    Graph ids mean nothing outside their repository, so the cache serves
    the first repository it is given and raises ``ValueError`` on another.
    """

    def __init__(self) -> None:
        self._data: dict[tuple, tuple[dict[int, int], ...]] = {}
        self._copies: dict[tuple, tuple[BoundCopy, ...]] = {}
        self._repo: GraphRepository | None = None

    @property
    def queries(self) -> int:
        """Embedding enumerations run so far: one per distinct (rule, left
        component, graph).  Bound-copy memo entries are not counted."""
        return len(self._data)

    def _serve(self, repo: GraphRepository) -> None:
        if repo is not self._repo:
            if self._repo is not None:
                raise ValueError("match cache already serves another repository")
            self._repo = repo

    def embeddings(self, rule: Rule, comp_idx: int, gid: int,
                   repo: GraphRepository) -> tuple[dict[int, int], ...]:
        self._serve(repo)
        key = (rule, comp_idx, gid)
        cached = self._data.get(key)
        if cached is None:
            pattern = rule.left_components()[comp_idx]
            cached = tuple(enumerate_embeddings(pattern, repo.graph(gid)))
            self._data[key] = cached
        return cached

    def bound_copies(self, rule: Rule, comp_indices: tuple[int, ...], gid: int,
                     repo: GraphRepository) -> tuple[BoundCopy, ...]:
        self._serve(repo)
        key = (rule, comp_indices, gid)
        cached = self._copies.get(key)
        if cached is None:
            g = repo.graph(gid)
            components = frozenset(comp_indices)
            cached = tuple(
                BoundCopy(gid, components, tuple(sorted(vmap.items())))
                for vmap in _merged_component_maps(rule, comp_indices, gid,
                                                   repo, self)
                if _gluing_ok(rule, [(vmap, g)]))
            self._copies[key] = cached
        return cached


Copy = tuple[int, dict[int, int]]     # graph id, rule vid -> stored vid
Part = tuple[dict[int, int], Graph]   # rule vid -> stored vid, stored graph


@dataclass(frozen=True)
class Derivation:
    """One proper derivation: inputs => outputs under a rule at a match.

    The match has one copy per input, in binding order.  For a chemical
    rule, atom_map sends each (input position, stored vertex) to its
    (output position, stored vertex); it is None for other rules."""

    rule: Rule
    inputs: tuple[int, ...]        # graph ids with multiplicity, sorted
    outputs: tuple[int, ...]       # graph ids with multiplicity, sorted
    match: tuple[Copy, ...]
    atom_map: dict[tuple[int, int], tuple[int, int]] | None

    def __post_init__(self):
        if not all(vmap for _, vmap in self.match):
            raise ValueError("derivation is not proper: untouched input component")

    @property
    def key(self) -> tuple:
        """Dedup key: derivations differing only in the match are duplicates."""
        return (self.rule.name, self.inputs, self.outputs)


@dataclass(frozen=True)
class ApplyResult:
    outputs: tuple[int, ...]
    # (copy, stored vertex id) of each surviving input vertex ->
    # (output position, stored vertex id)
    fates: dict[tuple[int, int], tuple[int, int]]


def validate_match(rule: Rule, parts: Sequence[Part]) -> bool:
    """Check that the per-copy maps form an injective label- and
    edge-preserving match of L: every left vertex is mapped in exactly one
    copy, nothing else is mapped, and every left edge joins two images in
    the same copy."""
    left = rule.left_graph()
    copy_of = {vid: i for i, (vmap, _) in enumerate(parts) for vid in vmap}
    if (len(copy_of) != left.vertex_count
            or len(copy_of) != sum(len(vmap) for vmap, _ in parts)):
        return False
    images: list[set[int]] = [set() for _ in parts]
    for vid in left.vertex_ids():
        i = copy_of.get(vid)
        if i is None:
            return False
        vmap, host = parts[i]
        m = vmap[vid]
        if m in images[i] or not host.has_vertex(m):
            return False
        if host.label(m) != left.label(vid):
            return False
        images[i].add(m)
    for u, v, el in left.edges():
        i = copy_of[u]
        if copy_of[v] != i:
            return False
        vmap, host = parts[i]
        mu, mv = vmap[u], vmap[v]
        if not host.has_edge(mu, mv) or host.edge_label(mu, mv) != el:
            return False
    return True


def apply_at(rule: Rule, copies: Sequence[Copy], repo: GraphRepository,
             validate: bool = True) -> ApplyResult | None:
    """Apply rule at a full match; None when the gluing conditions fail.

    copies lists each input copy as (graph id, rule vid -> stored vid).
    The match is checked on the stored graphs; the result is then kept as
    plain label and adjacency dicts over raw ids: copy i's stored ids
    shifted by the sizes of the copies before it, then the created
    vertices.  Each output component is built once, with dense ids in
    ascending raw-id order and edges in ascending order, and interned;
    outputs are listed by ascending smallest raw id.
    """
    parts = [(vmap, repo.graph(gid)) for gid, vmap in copies]
    if validate and not validate_match(rule, parts):
        raise ValueError("vertex map is not a match of the rule's left graph")
    if not _gluing_ok(rule, parts):
        return None

    # Copies are taken in order and created ids exceed every kept one, so
    # labels lists the result's vertices in ascending raw id order.
    to_raw: dict[int, int] = {}               # rule vid -> raw id
    origin: list[tuple[int, int]] = []        # raw id -> (copy, stored vid)
    labels: dict[int, str] = {}
    adj: dict[int, dict[int, str]] = {}
    for i, (vmap, g) in enumerate(parts):
        offset = len(origin)
        for rv, sv in vmap.items():
            to_raw[rv] = sv + offset
        copy_labels, copy_adj = g.shifted_copy(offset)
        labels.update(copy_labels)
        adj.update(copy_adj)
        origin.extend([(i, sv) for sv in range(g.vertex_count)])
    deleted_vertices = {to_raw[vid] for vid, rv in rule.vertices.items()
                        if rv.kind == LEFT}
    for d in deleted_vertices:
        del labels[d]
        for n in adj.pop(d):
            if n not in deleted_vertices:
                del adj[n][d]
    inputs_end = next_id = len(origin)
    for vid in sorted(rule.vertices):
        rv = rule.vertices[vid]
        if rv.kind == CONTEXT and rv.left_label != rv.right_label:
            labels[to_raw[vid]] = rv.right_label
        elif rv.kind == RIGHT:
            to_raw[vid] = next_id
            labels[next_id] = rv.right_label
            adj[next_id] = {}
            next_id += 1
    # A deleted edge between kept vertices goes here (one at a deleted vertex
    # went with it).
    for (u, v), re in rule.edges.items():
        mu, mv = to_raw[u], to_raw[v]
        if re.kind == LEFT:
            if rule.vertices[u].kind == rule.vertices[v].kind == CONTEXT:
                del adj[mu][mv], adj[mv][mu]
        elif re.kind == RIGHT or re.left_label != re.right_label:
            adj[mu][mv] = adj[mv][mu] = re.right_label

    outputs: list[int] = []
    fates: dict[tuple[int, int], tuple[int, int]] = {}
    seen: set[int] = set()
    for start in labels:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for n in adj[stack.pop()]:
                if n not in comp:
                    comp.add(n)
                    stack.append(n)
        seen |= comp
        order = sorted(comp)
        dense = {raw: i for i, raw in enumerate(order)}
        edges = [(i, dense[n], adj[raw][n]) for i, raw in enumerate(order)
                 for n in sorted(adj[raw]) if n > raw]
        gid, _, into = repo.intern_mapped(
            Graph([(i, labels[raw]) for i, raw in enumerate(order)], edges))
        for i, stored in into.items():
            if order[i] < inputs_end:
                fates[origin[order[i]]] = (len(outputs), stored)
        outputs.append(gid)
    return ApplyResult(tuple(outputs), fates)


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


def _gluing_ok(rule: Rule, parts: Sequence[Part]) -> bool:
    """DPO gluing conditions for the part of a match that parts fix, one
    host copy at a time.

    Dangling: every host edge at a deleted vertex must be the image of a
    left-graph edge.  Simplicity: no created edge may parallel a host edge
    that survives.  Host edges never join two copies, so a full match
    passes exactly when its restriction to each copy passes, and a copy
    that fails can never complete into a valid derivation.
    """
    for vmap, host in parts:
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
    return [PartialRule(partial.rule, partial.bound + (bc,))
            for subset in _subsets(partial.remaining_components)[1:]
            for bc in cache.bound_copies(partial.rule, subset, gid, repo)]


def complete_derivation(partial: PartialRule, repo: GraphRepository
                        ) -> Derivation | None:
    """Turn a complete partial rule into a derivation by applying the rule."""
    if not partial.complete:
        raise BindError("partial rule still has unbound components")
    copies = tuple((bc.graph_id, dict(bc.vertex_map)) for bc in partial.bound)
    result = apply_at(partial.rule, copies, repo, validate=False)
    if result is None:
        return None
    return Derivation(
        rule=partial.rule,
        inputs=tuple(sorted(partial.bound_graph_ids())),
        outputs=tuple(sorted(result.outputs)),
        match=copies,
        atom_map=result.fates if partial.rule.is_chemical else None,
    )


def _completions(partial: PartialRule,
                 copies: Callable[[tuple[int, ...]], list[tuple[BoundCopy, ...]]]
                 ) -> Iterator[PartialRule]:
    """Complete extensions of partial.

    Each step binds the first remaining component plus any subset of the
    others to one copy; ``copies(subset)`` lists, in universe order, the
    nonempty bound-copy tuples of the universe graphs that can take the
    subset.  Subsets are tried in ``_subsets`` order, then graphs in
    universe order, then copies in merge order.
    """
    remaining = partial.remaining_components
    if not remaining:
        yield partial
        return
    first = remaining[0]
    for tail in _subsets(remaining[1:]):
        for bound in copies((first,) + tail):
            for bc in bound:
                yield from _completions(
                    PartialRule(partial.rule, partial.bound + (bc,)), copies)


def _orbit_key(partial: PartialRule, automorphisms: Sequence[dict[int, int]],
               host_key: Callable[[int, tuple[int, ...]], tuple]) -> tuple:
    """The least, over rule automorphisms sigma, of the sorted copies
    (graph id, sigma-renamed rule vertices, ``host_key(graph id, their
    images)``)."""
    def copies(sigma: dict[int, int]) -> Iterator[tuple]:
        for bc in partial.bound:
            rvs, images = zip(*sorted((sigma[rv], sv) for rv, sv in bc.vertex_map))
            yield bc.graph_id, rvs, host_key(bc.graph_id, images)
    return min(tuple(sorted(copies(sigma))) for sigma in automorphisms)


def iter_proper_derivations(
        rule: Rule,
        universe: Sequence[int],
        required: Sequence[int] = (),
        repo: GraphRepository | None = None,
        cache: MatchCache | None = None,
        left_filter: Callable[[tuple[int, ...]], bool] | None = None,
) -> Iterator[Derivation]:
    """Yield all proper derivations with inputs drawn (with repetition) from
    the universe, every input component matched, and - when required is
    nonempty - at least one input from required.

    Binding starts at the required graphs (at every universe graph when
    none is required) and ``_completions`` extends each start over the
    universe graphs that can bind its remaining components, so work is
    proportional to what the required set can actually initiate.
    Derivations agreeing on (rule, input classes, output classes) are
    deduplicated: each key is yielded once, at its first discovery, and
    discovery order is deterministic.  A caller that stops early does no
    work past the last derivation it took.

    Each complete match gets one ``_orbit_key`` and is skipped when an
    earlier match of this call had the same one.  A copy's images enter
    the key as they are, or as their ``HostSymmetry.orbit_key`` when a
    known host automorphism moves one of them; the host keys are memoised
    for this call.  The key is the least, over rule automorphisms, of an
    automorphic image of the match, so equal keys imply matches related by
    automorphisms of the rule, the copy order and the hosts: the result has
    the same key, the same gluing outcome and the same inputs.  Matches in
    one rule orbit touch the same host vertices, hence get the same key.
    The key may miss some automorphic pairs, which are then applied; the
    yielded derivations, their order, matches and atom maps do not depend
    on it.  ``bind_graph`` stays per-morphism.
    """
    if repo is None:
        raise ValueError("a graph repository is required")
    cache = cache or MatchCache()
    universe = list(universe)
    required = list(required)
    if not set(required) <= set(universe):
        raise ValueError("required graphs must be part of the universe")

    viable: dict[tuple[int, ...], list[tuple[BoundCopy, ...]]] = {}

    def copies(subset: tuple[int, ...]) -> list[tuple[BoundCopy, ...]]:
        found = viable.get(subset)
        if found is None:
            found = viable[subset] = [
                bound for gid in universe
                if (bound := cache.bound_copies(rule, subset, gid, repo))]
        return found

    # With no required graph, a start must bind component 0, so that each
    # complete match is reached once, its copies in component order.
    starts = (partial for gid in required or universe
              for partial in bind_graph(rule, gid, repo, cache)
              if required or 0 in partial.bound[0].components)
    host_keys: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}

    def host_key(gid: int, images: tuple[int, ...]) -> tuple[int, ...]:
        key = host_keys.get((gid, images))
        if key is None:
            symmetry = repo.symmetry(gid)
            key = host_keys[gid, images] = (
                symmetry.orbit_key(images) if symmetry.moves_any(images)
                else images)
        return key

    keys: set[tuple] = set()
    automorphisms = rule.automorphisms()
    applied: set[tuple] = set()
    for start in starts:
        for partial in _completions(start, copies):
            inputs = tuple(sorted(partial.bound_graph_ids()))
            if left_filter is not None and not left_filter(inputs):
                continue
            orbit = _orbit_key(partial, automorphisms, host_key)
            if orbit in applied:
                continue
            applied.add(orbit)
            d = complete_derivation(partial, repo)
            if d is not None and d.key not in keys:
                keys.add(d.key)
                yield d


def enumerate_proper_derivations(
        rule: Rule,
        universe: Sequence[int],
        required: Sequence[int] = (),
        repo: GraphRepository | None = None,
        cache: MatchCache | None = None,
        left_filter: Callable[[tuple[int, ...]], bool] | None = None,
) -> list[Derivation]:
    """``iter_proper_derivations`` as a list, in discovery order."""
    return list(iter_proper_derivations(rule, universe, required, repo, cache,
                                        left_filter))
