"""Rule application and discovery of proper derivations by partial binding.

A rule is applied to a multiset of interned graphs, and a match is a
sequence of copies, one per input in binding order: (graph id, map from the
rule vertices bound in that copy to stored vertex ids).  No union graph is
built: ``apply_at`` checks the match copy by copy on the stored graphs and
builds each output component once.  Stored graphs are read only: the
result reads the first copy's neighbour dicts in place and copies one only
before the rule changes it (copy-on-write).  Instead of testing every
k-multisubset of a universe, derivations are enumerated by binding host
graphs to the rule one copy at a time: each copy receives a nonempty
subset of the remaining left components, so every produced derivation is
automatically proper.

One routine, ``_gluing_ok``, checks the DPO gluing conditions copy by copy
for the part of a match it is given: one copy as it is bound, and every
copy of the full match before ``apply_at`` builds the result.  It reads the
rule's ``GluingPlan``, built once per rule, and the host's adjacency dict.
The copies a graph can take for a set of left components depend only on
(rule, components, graph), so ``MatchCache`` builds and checks them once,
already in the match format; a single component's copies are its cached
embeddings themselves.  ``bind_graph`` and ``_complete_matches`` only read
them.  ``_complete_matches`` is the one binding loop: it takes its starts
from the cached copies and extends partial rules until they are complete,
looping over the universe graphs that can bind the next components rather
than over the whole universe.

A complete match is applied once per orbit, not once per match: matches
related by a rule automorphism, a permutation of the bound copies and, per
copy, an automorphism of its host give isomorphic results.  For a rule
with one left component, the embedding search itself keeps one match per
rule orbit (``Rule.search_plans``), so the cache holds and the binding loop
sees only those; ``bind_graph`` expands them back to every morphism.  Each
complete match gets one key, ``_orbit_key``; the host automorphisms it
uses are those the canonical labelling of each stored graph already found
(``Graph.orbit_key``), so no extra search is run.  Complete matches share
their copies, so each copy's part of the key is computed once per call.

A (rule, match) is applied once per ``MatchCache`` while its derivation
is held: the result is fixed by the match and the repository, which only
grows, so a later query that reaches the same match gets the same
``Derivation`` back from the cache's weak memo instead of applying the rule
again.  ``iter_proper_derivations`` is the only caller of
``complete_derivation``, and that is the only caller of ``apply_at``.

An application's atom map (``ApplyResult.fates``, a chemical rule's
``Derivation.atom_map``) is a ``Fates`` mapping that builds its dict on
first read from what ``apply_at`` laid out anyway, so a caller that never
reads it, as a strategy run does not, pays for no per-vertex entry.  Once
built it is a read-only snapshot, shared like the derivation itself.
"""
from __future__ import annotations

import weakref
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from gstrat.graphs import Graph, GraphRepository
from gstrat.matching import enumerate_embeddings
from gstrat.rules import Rule


class MatchCache:
    """Memoized matching work of one graph repository.

    Three memos.  The first two are keyed by graph id and keep what they
    hold for the cache's lifetime:

    - embeddings: (rule, left component, graph) -> every embedding of the
      component into the stored graph, searched with the component's plan
      (``Rule.search_plans``), which for a rule with one left component
      keeps only the first embedding of each orbit under the rule
      automorphisms;
    - bound copies: (rule, component subset, graph) -> the subset's
      merged embeddings (rule vid -> stored vid) that pass ``_gluing_ok``,
      in the lexicographic order of the per-component embedding lists; for
      a one-component subset, the embeddings memo's own maps.

    The third is weak: derivations, (rule, ((graph id, id(map)) per copy))
    -> the ``Derivation`` that ``complete_derivation`` built for that match,
    held in a ``WeakValueDictionary``, so an entry lasts only while some
    caller holds its derivation and the memo keeps nothing alive on its
    own.  A match's maps are the bound-copy memo's own dicts, which this
    cache holds as long as it lives (and a live entry's derivation holds
    them too), so ``id()`` names each of them uniquely; it is cheaper than
    keying by the map's items.  A rejected match (None) gets no entry.

    The maps it returns are shared by every caller, the copies of partial
    rules and the matches of derivations, so they are read-only.  Graph ids
    mean nothing outside their repository, so the cache serves the first
    repository it is given and raises ``ValueError`` on another.
    """

    def __init__(self) -> None:
        self._data: dict[tuple, tuple[dict[int, int], ...]] = {}
        self._copies: dict[tuple, tuple[dict[int, int], ...]] = {}
        self._derived: weakref.WeakValueDictionary[tuple, Derivation] = (
            weakref.WeakValueDictionary())
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
            pattern = rule.left_components[comp_idx]
            cached = tuple(enumerate_embeddings(pattern, repo.graph(gid),
                                                rule.search_plans()[comp_idx]))
            self._data[key] = cached
        return cached

    def bound_copies(self, rule: Rule, comp_indices: tuple[int, ...], gid: int,
                     repo: GraphRepository) -> tuple[dict[int, int], ...]:
        self._serve(repo)
        key = (rule, comp_indices, gid)
        cached = self._copies.get(key)
        if cached is None:
            # Every component's embeddings are enumerated, even when one
            # list is empty, so ``queries`` counts each component of the
            # subset.  One component's copies are its embeddings themselves.
            per_comp = [self.embeddings(rule, ci, gid, repo) for ci in comp_indices]
            merged: Sequence[dict[int, int]] = per_comp[0]
            for maps in per_comp[1:]:
                merged = [{**m, **e} for m in merged for e in maps
                          if set(m.values()).isdisjoint(e.values())]
            g = repo.graph(gid)
            cached = tuple(m for m in merged if _gluing_ok(rule, [(m, g)]))
            self._copies[key] = cached
        return cached


Copy = tuple[int, dict[int, int]]     # graph id, rule vid -> stored vid
Part = tuple[dict[int, int], Graph]   # rule vid -> stored vid, stored graph


@dataclass(frozen=True)
class Derivation:
    """One proper derivation: inputs => outputs under a rule at a match.

    The match has one copy per input, in binding order; its maps are
    shared with the ``MatchCache`` and read-only.  For a chemical rule,
    atom_map sends each (input position, stored vertex) to its (output
    position, stored vertex), an input position indexing match and an
    output position indexing outputs; it is None for other rules.  It is
    the application's ``Fates``: built on first read, so it costs nothing
    when never read, and a read-only snapshot after that.  A query that reaches
    a match the cache has already applied gets the same derivation object
    back, so atom_map, like the match, may be shared between answers."""

    rule: Rule
    inputs: tuple[int, ...]        # graph ids with multiplicity, sorted
    outputs: tuple[int, ...]       # graph ids with multiplicity, sorted
    match: tuple[Copy, ...]
    atom_map: Mapping[tuple[int, int], tuple[int, int]] | None

    def __post_init__(self):
        if not all(vmap for _, vmap in self.match):
            raise ValueError("derivation is not proper: untouched input component")

    @property
    def key(self) -> tuple:
        """Dedup key: derivations differing only in the match are duplicates."""
        return (self.rule.name, self.inputs, self.outputs)


class Fates(Mapping):
    """(copy, stored vertex id) of each surviving input vertex -> (output
    position, stored vertex id): a read-only mapping built on first read.

    It holds what ``apply_at`` laid out: each copy's first raw id, where
    the input raw ids end, and per output, in the order of
    ``ApplyResult.outputs``, its graph id, its raw ids in dense order and
    the vertex map ``intern_mapped`` gave it.  An output position indexes
    ``ApplyResult.outputs``, and so ``Derivation.outputs``.  The first read
    builds the dict, in output order and, per output, in intern-map order,
    and drops that data.
    """

    __slots__ = ("_starts", "_inputs_end", "_outputs", "_fates")

    def __init__(self, starts: Sequence[int], inputs_end: int,
                 outputs: list[tuple[int, Sequence[int], dict[int, int]]]) -> None:
        self._starts = starts
        self._inputs_end = inputs_end
        self._outputs = outputs
        self._fates: dict[tuple[int, int], tuple[int, int]] | None = None

    def _build(self) -> dict[tuple[int, int], tuple[int, int]]:
        starts, end = self._starts, self._inputs_end
        fates = {}
        for position, (_, order, into) in enumerate(self._outputs):
            for i, stored in into.items():
                raw = order[i]
                if raw < end:
                    copy = bisect_right(starts, raw) - 1
                    fates[copy, raw - starts[copy]] = (position, stored)
        self._starts = self._outputs = None
        return fates

    def _snapshot(self) -> dict[tuple[int, int], tuple[int, int]]:
        if self._fates is None:
            self._fates = self._build()
        return self._fates

    def __getitem__(self, key: tuple[int, int]) -> tuple[int, int]:
        return self._snapshot()[key]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self._snapshot())

    def __len__(self) -> int:
        return len(self._snapshot())

    def __repr__(self) -> str:
        return f"Fates({self._snapshot()!r})"


@dataclass(frozen=True)
class ApplyResult:
    """The output graph ids of one application, sorted, and the fates of
    its surviving input vertices: a read-only ``Fates`` mapping, built on
    first read, whose output positions index outputs."""

    outputs: tuple[int, ...]
    fates: Mapping[tuple[int, int], tuple[int, int]]


def validate_match(rule: Rule, parts: Sequence[Part]) -> bool:
    """Check that the per-copy maps form an injective label- and
    edge-preserving match of L: every left vertex is mapped in exactly one
    copy, nothing else is mapped, and every left edge joins two images in
    the same copy."""
    left = rule.left
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
    The match is checked on the stored graphs; the result is then laid out
    as lists over raw ids: copy i's stored ids shifted by the sizes of the
    copies before it, then the created vertices.  Stored graphs are read
    only.  The first copy's raw ids are its stored ids, so the result reads
    that graph's neighbour dicts in place and copies one only before the
    rule changes it (copy-on-write); later copies get shifted dicts.  A
    walk splits the result into components, unless the rule
    ``joins_copies`` and no copy is empty: then it is one.  Each is built
    once from the laid-out dicts, as they are when it covers every raw id
    (unchanged dicts stay shared with the stored graph), else renumbered
    to dense ids in ascending raw-id order, and interned in order of its
    smallest raw id; outputs are then listed by graph id, that order kept
    between equal ids, and the fates' positions index that list.
    """
    parts = [(vmap, repo.graph(gid)) for gid, vmap in copies]
    if validate and not validate_match(rule, parts):
        raise ValueError("vertex map is not a match of the rule's left graph")
    if not _gluing_ok(rule, parts):
        return None

    # A deleted vertex's label and neighbour dict become None.
    to_raw: dict[int, int] = {}               # rule vid -> raw id
    starts: list[int] = []                    # copy -> its first raw id
    labels: list[str | None] = []
    nbrs: list[dict[int, str] | None] = []
    for vmap, g in parts:
        offset = len(labels)
        starts.append(offset)
        for rv, sv in vmap.items():
            to_raw[rv] = sv + offset
        labels += g._labels
        if offset:
            nbrs += [{u + offset: el for u, el in nb.items()} for nb in g._adj]
        else:
            nbrs += g._adj
    shared = parts[0][1]._adj

    def own(raw: int) -> dict[int, str]:
        nb = nbrs[raw]
        if raw < len(shared) and nb is shared[raw]:
            nb = nbrs[raw] = nb.copy()
        return nb

    plan = rule.gluing_plan()
    deleted_vertices = {to_raw[vid] for vid, _ in plan.deleted}
    for d in deleted_vertices:
        for n in nbrs[d]:
            if n not in deleted_vertices:
                del own(n)[d]
        labels[d] = nbrs[d] = None
    inputs_end = len(labels)
    for vid, label in plan.relabelled:
        labels[to_raw[vid]] = label
    for vid, label in plan.added:
        to_raw[vid] = len(labels)
        labels.append(label)
        nbrs.append({})
    # A deleted edge between kept vertices goes here (one at a deleted vertex
    # went with it).
    for u, v in plan.cut:
        mu, mv = to_raw[u], to_raw[v]
        del own(mu)[mv], own(mv)[mu]
    for u, v, label, new in plan.joined:
        mu, mv = to_raw[u], to_raw[v]
        own(mu)[mv] = own(mv)[mu] = label
        if new:  # a new key: restore ascending order
            for raw in (mu, mv):
                nbrs[raw] = dict(sorted(nbrs[raw].items()))

    laid_out: list[tuple[int, Sequence[int], dict[int, int]]] = []
    seen: set[int] = set()
    joined = rule.joins_copies and all(vmap for vmap, _ in parts)
    for start, label in enumerate(labels):
        if label is None or start in seen:
            continue
        comp = set(range(len(labels))) if joined else {start}
        stack = [start]
        while stack:
            for n in nbrs[stack.pop()]:
                if n not in comp:
                    comp.add(n)
                    stack.append(n)
        seen |= comp
        if len(comp) == len(labels):
            # Nothing deleted and one component: raw ids are dense ids.
            order: Sequence[int] = range(len(labels))
            layout = (tuple(labels), tuple(nbrs))
        else:
            order = sorted(comp)
            dense = {raw: i for i, raw in enumerate(order)}
            layout = (tuple(map(labels.__getitem__, order)),
                      tuple({dense[n]: el for n, el in nbrs[raw].items()} for raw in order))
        gid, _, into = repo.intern_mapped(Graph((), _dense=layout))
        laid_out.append((gid, order, into))
    laid_out.sort(key=lambda output: output[0])
    return ApplyResult(tuple(gid for gid, _, _ in laid_out),
                       Fates(starts, inputs_end, laid_out))


class BindError(ValueError):
    pass


@dataclass(slots=True)
class PartialRule:
    """A rule with some left components bound to host graph content.

    Each copy (graph id, rule vid -> stored vid) binds a nonempty set of
    left components by an injective merged embedding into one stored graph;
    its map is shared with the ``MatchCache`` and read-only.  The binder
    sets the components that remain unbound.  When none remain the partial
    rule is complete and encodes a full derivation.
    """

    rule: Rule
    copies: tuple[Copy, ...]
    remaining_components: tuple[int, ...]

    @property
    def complete(self) -> bool:
        return not self.remaining_components


def _gluing_ok(rule: Rule, parts: Sequence[Part]) -> bool:
    """DPO gluing conditions for the part of a match that parts fix, one
    host copy at a time; each copy's map must be injective, as a match's
    is.  The rule's ``GluingPlan`` says which elements to read.

    Dangling: every host edge at a deleted vertex must be the image of a
    left-graph edge.  By injectivity, the edge from the image of a deleted
    vertex d to a host vertex n is such an image exactly when n is the
    image of a left neighbour of d.  Simplicity: no created edge may
    parallel a host edge that survives.  No edge it parallels is deleted: a
    rule keeps one element per vertex pair, so a created edge and a deleted
    edge have different endpoint pairs, and by injectivity so do their
    images.  The check is therefore that no created edge parallels a host
    edge.  Host edges never join two copies, so a full match passes exactly
    when its restriction to each copy passes, and a copy that fails can
    never complete into a valid derivation.
    """
    plan = rule.gluing_plan()
    for vmap, host in parts:
        adj = host._adj
        for d, nbrs in plan.deleted:
            image = vmap.get(d)
            if image is not None and not adj[image].keys() <= {
                    vmap[u] for u in nbrs if u in vmap}:
                return False
        for u, v in plan.created:
            if u in vmap and v in vmap and vmap[v] in adj[vmap[u]]:
                return False
    return True


def _splits(items: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (subset, rest) split of items, subsets in binary-counter order;
    the empty subset is first."""
    return [(tuple(x for i, x in enumerate(items) if mask >> i & 1),
             tuple(x for i, x in enumerate(items) if not mask >> i & 1))
            for mask in range(1 << len(items))]


def bind_graph(rule_or_partial: Rule | PartialRule, gid: int,
               repo: GraphRepository, cache: MatchCache | None = None
               ) -> list[PartialRule]:
    """Bind one more host graph: all nonempty subsets of the remaining left
    components, with every injective merged embedding into the graph.

    Bindings violating the gluing conditions locally (dangling deletion,
    non-simple creation inside the copy) are dropped: they can never extend
    to a valid derivation.  Partial rules with no remaining components are
    complete and encode full derivations.  For a rule with one left
    component, the cached copies (one per rule orbit when its plan breaks
    symmetries) are expanded by the plan's symmetries, so every morphism is
    bound, in search order.
    """
    partial = (rule_or_partial if isinstance(rule_or_partial, PartialRule)
               else PartialRule(rule_or_partial, (), tuple(
                   range(len(rule_or_partial.left_components)))))
    cache = cache or MatchCache()
    plans = partial.rule.search_plans()
    expand = plans[0].orbit_members if len(plans) == 1 else list
    return [PartialRule(partial.rule, partial.copies + ((gid, vmap),), rest)
            for subset, rest in _splits(partial.remaining_components)[1:]
            for vmap in expand(cache.bound_copies(partial.rule, subset, gid,
                                                  repo))]


def complete_derivation(partial: PartialRule, repo: GraphRepository
                        ) -> Derivation | None:
    """Turn a complete partial rule into a derivation by applying the rule.

    The derivation's match is ``partial.copies`` itself, read-only maps
    shared with the ``MatchCache``."""
    if not partial.complete:
        raise BindError("partial rule still has unbound components")
    result = apply_at(partial.rule, partial.copies, repo, validate=False)
    if result is None:
        return None
    return Derivation(
        rule=partial.rule,
        inputs=tuple(sorted(gid for gid, _ in partial.copies)),
        outputs=result.outputs,
        match=partial.copies,
        atom_map=result.fates if partial.rule.is_chemical else None,
    )


def _complete_matches(rule: Rule, universe: Sequence[int],
                      required: Sequence[int], repo: GraphRepository,
                      cache: MatchCache) -> Iterator[PartialRule]:
    """Every complete match with inputs drawn from the universe and, when
    required is nonempty, its first copy on a required graph.

    Binding starts at the required graphs (at every universe graph when
    none is required), with their cached copies of each nonempty component
    subset, in ``_splits`` order.  Each later step binds the first remaining
    component plus any subset of the others to one copy: subsets in
    ``_splits`` order, then the universe graphs that can take the subset in
    universe order, then their bound copies in merge order.  Depth first,
    on an explicit stack of generators, so a caller that stops early does
    no work past the last match it took.

    The copies come from the ``MatchCache``, so for a rule with a search
    plan each rule orbit of complete matches is reached once, by the member
    the per-morphism loop would reach first.
    """
    viable: dict[tuple[int, ...], list[Copy]] = {}

    def copies(subset: tuple[int, ...]) -> list[Copy]:
        found = viable.get(subset)
        if found is None:
            found = viable[subset] = [
                (gid, vmap) for gid in universe
                for vmap in cache.bound_copies(rule, subset, gid, repo)]
        return found

    def extensions(partial: PartialRule) -> Iterator[PartialRule]:
        remaining = partial.remaining_components
        for tail, rest in _splits(remaining[1:]):
            for copy in copies(remaining[:1] + tail):
                yield PartialRule(rule, partial.copies + (copy,), rest)

    # With no required graph, a start must bind component 0, so that each
    # complete match is reached once, its copies in component order.
    components = tuple(range(len(rule.left_components)))
    stack = [(PartialRule(rule, ((gid, vmap),), rest)
              for gid in required or universe
              for subset, rest in _splits(components)[1:]
              if required or 0 in subset
              for vmap in cache.bound_copies(rule, subset, gid, repo))]
    while stack:
        partial = next(stack[-1], None)
        if partial is None:
            stack.pop()
        elif partial.complete:
            yield partial
        else:
            stack.append(extensions(partial))


def _orbit_key(partial: PartialRule, automorphisms: Sequence[dict[int, int]],
               repo: GraphRepository, memo: dict[tuple[int, int], tuple]) -> tuple:
    """The least, over rule automorphisms sigma, of the sorted copies
    (graph id, sigma-renamed rule vertices, the ``Graph.orbit_key`` of
    their images in that stored graph).

    memo maps (id of a copy's map, index of sigma) to the copy's key, so
    complete matches that share a copy compute its key once: the
    Diels-Alder BFS keys 3472 matches with 1752 copy keys, not 13 888.
    ``id()`` is safe as in the derivation memo: the memo lasts one
    ``iter_proper_derivations`` call, and the maps are the ``MatchCache``'s
    own dicts, held for its lifetime, each in one entry of one graph.

    The minimum stays even where the embedding search already keeps one
    match per rule orbit.  The search keeps the member whose images come
    first along its order, a choice by host vertex ids that a host
    automorphism does not preserve, so two kept matches can differ by a
    host automorphism composed with a rule automorphism; only the minimum
    over sigma gives them one key.  Keyed
    by the identity alone, ``catalan_solve`` applied ``mark`` 1253 times
    instead of 977."""
    keys = []
    for s, sigma in enumerate(automorphisms):
        copies = []
        for gid, vmap in partial.copies:
            key = memo.get((id(vmap), s))
            if key is None:
                rvs, images = zip(*sorted((sigma[rv], sv) for rv, sv in vmap.items()))
                key = memo[id(vmap), s] = (
                    gid, rvs, repo.graph(gid).orbit_key(images))
            copies.append(key)
        copies.sort()
        keys.append(tuple(copies))
    return min(keys)


def iter_proper_derivations(
        rule: Rule,
        universe: Sequence[int],
        required: Sequence[int] = (),
        *,
        repo: GraphRepository,
        cache: MatchCache | None = None,
        left_filter: Callable[[tuple[int, ...]], bool] | None = None,
) -> Iterator[Derivation]:
    """Yield all proper derivations with inputs drawn (with repetition) from
    the universe, every input component matched, and - when required is
    nonempty - at least one input from required.

    ``_complete_matches`` starts binding at the required graphs (at every
    universe graph when none is required) and extends each start over the
    universe graphs that can bind its remaining components, so work is
    proportional to what the required set can actually initiate.  For a
    rule with a search plan it sees one complete match per rule orbit: the
    one the per-morphism loop would reach, and apply, first.

    Derivations agreeing on (rule, input classes, output classes) are
    deduplicated: each key is yielded once, at its first discovery, and
    discovery order is deterministic.  A caller that stops early does no
    work past the last derivation it took.

    Each complete match gets one ``_orbit_key`` and is skipped when an
    earlier match of this call had the same one.  A copy's images enter
    the key as their stored graph's ``orbit_key``, which is the images
    themselves when no known host automorphism moves one of them.  For
    this call, each copy's key under each rule automorphism is memoised by
    the id of its map.  The key is the least, over rule automorphisms, of an
    automorphic image of the match, so equal keys imply matches related by
    automorphisms of the rule, the copy order and the hosts: the result has
    the same key, the same gluing outcome and the same inputs.  Matches in
    one rule orbit touch the same host vertices, hence get the same key,
    so pruning them in the embedding search skips only matches the key
    would skip.  The key may miss some automorphic pairs, which are then
    applied; the yielded derivations, their order, matches and atom maps
    do not depend on it.

    A match that passes the key is looked up in the cache's derivation
    memo and applied only on a miss, so a (rule, match) that an earlier
    query already applied, and whose derivation is still held, runs no
    ``apply_at`` and no intern.  Applying it again would give an equal
    derivation: the repository only grows, and interning the same output
    content again gives the same id and vertex map (the identity, when the
    output itself was stored as its class).
    """
    cache = cache or MatchCache()
    universe = list(universe)
    required = list(required)
    if not set(required) <= set(universe):
        raise ValueError("required graphs must be part of the universe")

    copy_keys: dict[tuple[int, int], tuple] = {}
    keys: set[tuple] = set()
    automorphisms = rule.automorphisms()
    applied: set[tuple] = set()
    for partial in _complete_matches(rule, universe, required, repo, cache):
        inputs = tuple(sorted(gid for gid, _ in partial.copies))
        if left_filter is not None and not left_filter(inputs):
            continue
        orbit = _orbit_key(partial, automorphisms, repo, copy_keys)
        if orbit in applied:
            continue
        applied.add(orbit)
        match = (rule, tuple([(gid, id(vmap)) for gid, vmap in partial.copies]))
        d = cache._derived.get(match)
        if d is None:
            d = complete_derivation(partial, repo)
            if d is not None:
                cache._derived[match] = d
        if d is not None and d.key not in keys:
            keys.add(d.key)
            yield d


def enumerate_proper_derivations(
        rule: Rule,
        universe: Sequence[int],
        required: Sequence[int] = (),
        *,
        repo: GraphRepository,
        cache: MatchCache | None = None,
        left_filter: Callable[[tuple[int, ...]], bool] | None = None,
) -> list[Derivation]:
    """``iter_proper_derivations`` as a list, in discovery order."""
    return list(iter_proper_derivations(rule, universe, required, repo=repo,
                                        cache=cache, left_filter=left_filter))
