"""Brute-force reference implementations used to validate the engine.

Everything here is deliberately naive and independent of the code under
test: mostly exhaustive enumeration with no pruning.  ``search_isomorphism``
is the exception, a pruned backtracking search that decides isomorphism
without canonical certificates, for graphs too large to enumerate.
``scan_tokens`` reads text one character at a time, the reference for the
tokenizer's regular expression.  ``run_strategy`` walks a strategy tree with
an explicit stack of revive frames, the reference for ``strategies``.
"""
from __future__ import annotations

import functools
import itertools
import json
import random
from collections import Counter
from typing import NamedTuple

from gstrat.graphs import Graph
from gstrat.lex import EOF, INT, NAME, PUNCT, STRING, ParseError, Token


def brute_embeddings(pattern: Graph, host: Graph) -> set[tuple[tuple[int, int], ...]]:
    """All injective label/edge-preserving vertex maps, by raw enumeration."""
    pids = pattern.vertex_ids()
    hids = host.vertex_ids()
    found = set()
    for images in itertools.permutations(hids, len(pids)):
        mapping = dict(zip(pids, images))
        if any(pattern.label(p) != host.label(m) for p, m in mapping.items()):
            continue
        ok = True
        for u, v, el in pattern.edges():
            mu, mv = mapping[u], mapping[v]
            if not host.has_edge(mu, mv) or host.edge_label(mu, mv) != el:
                ok = False
                break
        if ok:
            found.add(tuple(sorted(mapping.items())))
    return found


def brute_isomorphic(g: Graph, h: Graph) -> bool:
    if g.vertex_count != h.vertex_count or g.edge_count != h.edge_count:
        return False
    return bool(brute_embeddings(g, h))


def signature(g: Graph) -> tuple:
    """Permutation-invariant structural summary.

    Built from the sorted vertex-label multiset, the sorted multiset of edge
    signatures (min endpoint label, edge label, max endpoint label), and the
    sorted degree sequence.  Isomorphic graphs always agree; non-isomorphic
    graphs may agree too.
    """
    labels = tuple(sorted(label for _, label in g.vertices()))
    edge_sigs = []
    for u, v, el in g.edges():
        lu, lv = g.label(u), g.label(v)
        if lv < lu:
            lu, lv = lv, lu
        edge_sigs.append((lu, el, lv))
    degrees = tuple(sorted(g.degree(v) for v in g.vertex_ids()))
    return (labels, tuple(sorted(edge_sigs)), degrees)


@functools.lru_cache(maxsize=4096)
def _invariants(g: Graph) -> tuple[tuple, dict[int, int], Counter]:
    """(signature, refinement colours, colour-class sizes) of a graph,
    kept for the graphs searched most recently: checks that search every
    equal-signature pair of a repository meet each graph many times."""
    colors = g.refinement_colors()
    return signature(g), colors, Counter(colors.values())


def search_isomorphism(g: Graph, h: Graph) -> dict[int, int] | None:
    """A label-preserving vertex bijection inducing an edge bijection, or
    None, by backtracking search rather than canonical certificates.

    Fast rejections first (counts, signature, refinement-colour class
    sizes), then a depth-first search over ``matching._pattern_order(g)``
    that sends each vertex to an unused vertex of h with its label,
    refinement colour and degree, joined by the right edge labels to the
    images of its placed neighbours.  With equal vertex and edge counts,
    any such edge-preserving injection is an isomorphism.
    """
    from gstrat.matching import _pattern_order

    if g.vertex_count != h.vertex_count or g.edge_count != h.edge_count:
        return None
    if g.vertex_count == 0:
        return {}
    g_sig, gc, g_sizes = _invariants(g)
    h_sig, hc, h_sizes = _invariants(h)
    if g_sig != h_sig or g_sizes != h_sizes:
        return None
    order = _pattern_order(g)
    # For each position: the vertices of g already placed, with edge labels.
    placed_before: list[list[tuple[int, str]]] = []
    seen: set[int] = set()
    for v in order:
        placed_before.append(
            [(u, el) for u, el in sorted(g.neighbors(v).items()) if u in seen])
        seen.add(v)

    assignment: dict[int, int] = {}
    used: set[int] = set()
    h_ids = h.vertex_ids()

    def candidates(i: int):
        anchors = placed_before[i]
        if anchors:
            return tuple(h.neighbors(assignment[anchors[0][0]]))
        return h_ids

    cands = [candidates(0)] + [()] * (len(order) - 1)
    next_idx = [0] * len(order)
    i = 0
    while i >= 0:
        if i == len(order):
            return dict(assignment)
        pv = order[i]
        plabel = g.label(pv)
        pdeg = g.degree(pv)
        pcolor = gc[pv]
        anchors = placed_before[i]
        cs = cands[i]
        j = next_idx[i]
        fit = None
        while fit is None and j < len(cs):
            c = cs[j]
            j += 1
            if (c in used or h.label(c) != plabel or h.degree(c) != pdeg
                    or hc[c] != pcolor):
                continue
            fit = c
            for pn, el in anchors:
                mapped = assignment[pn]
                if not h.has_edge(mapped, c) or h.edge_label(mapped, c) != el:
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
    return None


def equal_signature_pairs(repo) -> list[tuple[int, int]]:
    """Every pair of stored ids whose graphs have equal signatures.

    Graphs with different signatures are never isomorphic, so a repository
    is free of isomorphic duplicates when no pair listed here is isomorphic.
    """
    by_signature: dict[tuple, list[int]] = {}
    for gid in range(len(repo)):
        by_signature.setdefault(signature(repo.graph(gid)), []).append(gid)
    return [(a, b) for group in by_signature.values()
            for i, a in enumerate(group) for b in group[i + 1:]]


def random_graph(rng: random.Random, max_vertices: int = 8,
                 labels: tuple[str, ...] = ("a", "b"),
                 edge_labels: tuple[str, ...] = ("x", "y"),
                 connected: bool = False) -> Graph:
    n = rng.randint(1, max_vertices)
    vertices = [(i, rng.choice(labels)) for i in range(n)]
    edges = []
    pairs = list(itertools.combinations(range(n), 2))
    if connected and n > 1:
        ids = list(range(n))
        rng.shuffle(ids)
        for i in range(1, n):
            u = ids[i]
            v = rng.choice(ids[:i])
            edges.append((u, v, rng.choice(edge_labels)))
        present = {tuple(sorted(e[:2])) for e in edges}
        pairs = [p for p in pairs if p not in present]
    for u, v in pairs:
        if rng.random() < 0.35:
            edges.append((u, v, rng.choice(edge_labels)))
    return Graph(vertices, edges)


def permuted(g: Graph, rng: random.Random) -> Graph:
    """Random relabeling of vertex ids (structure preserved)."""
    ids = g.vertex_ids()
    new_ids = list(range(100, 100 + len(ids)))
    rng.shuffle(new_ids)
    mapping = dict(zip(ids, new_ids))
    verts = [(mapping[v], l) for v, l in g.vertices()]
    edges = [(mapping[u], mapping[v], el) for u, v, el in g.edges()]
    return Graph(verts, edges)


def union_graph(repo, graph_ids) -> Graph:
    """Disjoint union of the stored graphs: copy i is shifted by the vertex
    counts of the copies before it."""
    vertices, edges = [], []
    offset = 0
    for gid in graph_ids:
        g = repo.graph(gid)
        vertices.extend((v + offset, l) for v, l in g.vertices())
        edges.extend((u + offset, v + offset, el) for u, v, el in g.edges())
        offset += g.vertex_count
    return Graph(vertices, edges)


def union_origin(repo, graph_ids) -> list[tuple[int, int]]:
    """(copy, stored vertex) of each ``union_graph`` vertex, by union id."""
    return [(i, v) for i, gid in enumerate(graph_ids)
            for v in range(repo.graph(gid).vertex_count)]


def split_union_match(repo, graph_ids, vertex_map):
    """A match into ``union_graph`` as per-copy maps, the format of
    ``rewrite.apply_at``: (graph id, rule vid -> stored vid) per copy, in
    order; a copy the match does not touch gets an empty map."""
    origin = union_origin(repo, graph_ids)
    copies = [(gid, {}) for gid in graph_ids]
    for rv, hv in vertex_map.items():
        i, sv = origin[hv]
        copies[i][1][rv] = sv
    return copies


class UnionResult(NamedTuple):
    """What ``union_apply`` returns: the output graph ids, sorted, and the
    fates dict, whose output positions index them."""
    outputs: tuple[int, ...]
    fates: dict[tuple[int, int], tuple[int, int]]


def union_apply(rule, graph_ids, vertex_map, repo):
    """Reference DPO step on one union host graph.

    vertex_map sends each left vertex to a ``union_graph`` vertex.  Builds
    the union of the copies, checks the match and the gluing conditions on
    the whole of it, builds the result graph, splits it into connected
    components and interns each, in component order; returns a
    ``UnionResult``, the outputs sorted by graph id and the fates' positions
    indexing them, or None on a gluing failure.
    """
    from gstrat.rules import CONTEXT, LEFT, RIGHT

    host = union_graph(repo, graph_ids)
    left = rule.left
    images = [vertex_map.get(vid) for vid in left.vertex_ids()]
    if (None in images or len(set(images)) != len(images)
            or not all(host.has_vertex(m) for m in images)
            or any(host.label(vertex_map[vid]) != left.label(vid)
                   for vid in left.vertex_ids())
            or any(not host.has_edge(vertex_map[u], vertex_map[v])
                   or host.edge_label(vertex_map[u], vertex_map[v]) != el
                   for u, v, el in left.edges())):
        raise ValueError("vertex map is not a match of the rule's left graph")

    def key(u, v):
        return (u, v) if u <= v else (v, u)

    left_images = {key(vertex_map[u], vertex_map[v])
                   for (u, v), re in rule.edges.items() if re.kind != RIGHT}
    deleted_edges = {key(vertex_map[u], vertex_map[v])
                     for (u, v), re in rule.edges.items() if re.kind == LEFT}
    deleted = {vertex_map[vid] for vid, rv in rule.vertices.items()
               if rv.kind == LEFT}
    if any(key(d, n) not in left_images
           for d in deleted for n in host.neighbors(d)):
        return None  # dangling edge
    for (u, v), re in rule.edges.items():
        if re.kind == RIGHT and u in vertex_map and v in vertex_map:
            k = key(vertex_map[u], vertex_map[v])
            if host.has_edge(*k) and k not in deleted_edges:
                return None  # parallel edge

    labels = {vid: label for vid, label in host.vertices() if vid not in deleted}
    created = {}
    next_id = host.vertex_count   # created vertices follow the union's
    for vid in sorted(rule.vertices):
        rv = rule.vertices[vid]
        if rv.kind == CONTEXT and rv.left_label != rv.right_label:
            labels[vertex_map[vid]] = rv.right_label
        elif rv.kind == RIGHT:
            created[vid] = next_id
            labels[next_id] = rv.right_label
            next_id += 1
    out_edges = {(u, v): el for u, v, el in host.edges()
                 if u not in deleted and v not in deleted
                 and (u, v) not in deleted_edges}
    for (u, v), re in rule.edges.items():
        if re.kind == RIGHT or (re.kind == CONTEXT
                                and re.left_label != re.right_label):
            mu = created.get(u, vertex_map.get(u))
            mv = created.get(v, vertex_map.get(v))
            out_edges[key(mu, mv)] = re.right_label
    result = Graph(labels.items(), [(u, v, el) for (u, v), el in out_edges.items()])
    origin = union_origin(repo, graph_ids)
    interned = [repo.intern_mapped(comp) for comp in result.connected_components()]
    # Outputs by graph id, component order kept between equal ids.
    interned.sort(key=lambda output: output[0])
    fates = {origin[raw]: (pos, stored)
             for pos, (_, _, vmap) in enumerate(interned)
             for raw, stored in vmap.items() if raw < len(origin)}
    return UnionResult(tuple(gid for gid, _, _ in interned), fates)


def naive_derivation_keys(rule, universe, required, repo):
    """Reference enumeration: test every k-multisubset of the universe with
    brute-force full matching, then apply.  Returns dedup keys."""
    from gstrat.rewrite import apply_at

    comps = rule.left_components
    required = set(required)
    keys = set()
    for size in range(1, len(comps) + 1):
        for multiset in itertools.combinations_with_replacement(universe, size):
            if required and not (set(multiset) & required):
                continue
            host = union_graph(repo, multiset)
            per_comp = []
            for comp in comps:
                maps = [dict(items)
                        for items in sorted(brute_embeddings(comp, host))]
                per_comp.append(maps)
            for combo in itertools.product(*per_comp):
                merged: dict[int, int] = {}
                used: set[int] = set()
                ok = True
                for m in combo:
                    for p, h in m.items():
                        if h in used:
                            ok = False
                            break
                        merged[p] = h
                        used.add(h)
                    if not ok:
                        break
                if not ok:
                    continue
                copies = split_union_match(repo, multiset, merged)
                if not all(vmap for _, vmap in copies):
                    continue  # not proper
                result = apply_at(rule, copies, repo)
                if result is None:
                    continue
                keys.add((rule.name, tuple(sorted(multiset)),
                          tuple(sorted(result.outputs))))
    return keys


def gluing_ok(rule, parts) -> bool:
    """Reference DPO gluing check of the part of a match that parts fix, a
    list of (rule vid -> host vid, host graph), one host copy at a time,
    straight from the rule's elements.

    Dangling: every host edge at a deleted vertex must be the image of a
    left-graph edge.  Simplicity: no created edge may parallel a host edge
    that survives, that is, one that is not the image of a deleted edge.
    """
    from gstrat.rules import CONTEXT, LEFT, RIGHT

    def pair(a, b):
        return (a, b) if a <= b else (b, a)

    for vmap, host in parts:
        left_images = set()
        deleted_images = set()
        for (u, v), re in rule.edges.items():
            if re.kind in (LEFT, CONTEXT) and u in vmap and v in vmap:
                key = pair(vmap[u], vmap[v])
                left_images.add(key)
                if re.kind == LEFT:
                    deleted_images.add(key)
        for vid, rv in rule.vertices.items():
            if rv.kind == LEFT and vid in vmap:
                d = vmap[vid]
                for n in host.neighbors(d):
                    if pair(d, n) not in left_images:
                        return False
        for (u, v), re in rule.edges.items():
            if re.kind == RIGHT and u in vmap and v in vmap:
                key = pair(vmap[u], vmap[v])
                if host.has_edge(*key) and key not in deleted_images:
                    return False
    return True


def per_morphism_copies(rule, subset, gid, repo):
    """Every copy of the left components in subset into stored graph gid,
    per morphism: the product of their embeddings, each found by the
    search without a plan, merged when their images are disjoint and kept
    when the copy passes the reference gluing check."""
    from gstrat.matching import enumerate_embeddings

    g = repo.graph(gid)
    per_comp = [enumerate_embeddings(rule.left_components[c], g)
                for c in subset]
    merged = []
    for combo in itertools.product(*per_comp):
        images = [v for m in combo for v in m.values()]
        vmap = {k: v for m in combo for k, v in m.items()}
        if len(set(images)) == len(images) and gluing_ok(rule, [(vmap, g)]):
            merged.append(vmap)
    return merged


def rule_orbit_derivations(rule, universe, required, repo, left_filter=None):
    """Reference for ``rewrite.iter_proper_derivations``: complete matches
    per morphism, in the binding loop's order, pruned only by rule
    automorphisms and copy order, not by host automorphisms and not inside
    the embedding search.  Returns the list."""
    from gstrat.rewrite import PartialRule, _splits, complete_derivation

    universe, required = list(universe), list(required)
    components = tuple(range(len(rule.left_components)))

    def complete(partial):
        remaining = partial.remaining_components
        if not remaining:
            yield partial
            return
        for tail, rest in _splits(remaining[1:]):
            for gid in universe:
                for vmap in per_morphism_copies(rule, remaining[:1] + tail,
                                                gid, repo):
                    yield from complete(PartialRule(
                        rule, partial.copies + ((gid, vmap),), rest))

    starts = (PartialRule(rule, ((gid, vmap),), rest)
              for gid in required or universe
              for subset, rest in _splits(components)[1:]
              if required or 0 in subset
              for vmap in per_morphism_copies(rule, subset, gid, repo))
    keys, applied, found = set(), set(), []
    for partial in (match for start in starts for match in complete(start)):
        inputs = tuple(sorted(gid for gid, _ in partial.copies))
        if left_filter is not None and not left_filter(inputs):
            continue
        orbit = min(tuple(sorted(
            (gid, tuple(sorted((sigma[rv], sv) for rv, sv in vmap.items())))
            for gid, vmap in partial.copies)) for sigma in rule.automorphisms)
        if orbit in applied:
            continue
        applied.add(orbit)
        d = complete_derivation(partial, repo)
        if d is not None and d.key not in keys:
            keys.add(d.key)
            found.append(d)
    return found


def brute_automorphisms(g: Graph) -> list[dict[int, int]]:
    """Every label- and edge-preserving permutation of g's vertices."""
    return [dict(items) for items in sorted(brute_embeddings(g, g))]


def brute_rule_automorphisms(rule) -> set[tuple[tuple[int, int], ...]]:
    """Span automorphisms of a rule, by testing every vertex permutation."""
    ids = sorted(rule.vertices)
    found = set()
    for images in itertools.permutations(ids):
        sigma = dict(zip(ids, images))
        if any(rule.vertices[sigma[v]] != rule.vertices[v] for v in ids):
            continue
        if all(rule.edges.get(tuple(sorted((sigma[u], sigma[v]))))
               == rule.edges.get((u, v))
               for u, v in itertools.combinations(ids, 2)):
            found.add(tuple(sorted(sigma.items())))
    return found


def oracle_successors(g: Graph) -> list[Graph]:
    """All one-move Catalan results, deduplicated up to isomorphism."""
    from gstrat.catalan import contract_move

    out: list[Graph] = []
    for v in g.vertex_ids():
        moved = contract_move(g, v)
        if moved is None:
            continue
        if not any(search_isomorphism(moved, seen) is not None for seen in out):
            out.append(moved)
    return out


def random_rule(rng: random.Random, name: str = "r",
                max_components: int = 2, chemical: bool = False) -> "object":
    """A random valid rule with 1 to max_components left components; when
    chemical, every vertex is context, so the rule creates and deletes no
    vertex.  Without chemical, the draws from rng are those it always made."""
    from gstrat.rules import Rule

    vlabels = ("a", "b")
    elabels = ("x", "y")
    left_vertices, context_vertices, right_vertices = [], [], []
    left_edges, context_edges, right_edges = [], [], []
    vid = 0
    context_ids = []
    for _ in range(rng.randint(1, max_components)):
        size = rng.randint(1, 3)
        ids = list(range(vid, vid + size))
        vid += size
        kinds = {}
        for i in ids:
            if chemical or rng.random() < 0.75:
                ll = rng.choice(vlabels)
                rl = ll if rng.random() < 0.7 else rng.choice(vlabels)
                context_vertices.append((i, ll, rl))
                context_ids.append(i)
                kinds[i] = "context"
            else:
                left_vertices.append((i, rng.choice(vlabels)))
                kinds[i] = "left"
        pairs = []
        for j in range(1, size):
            pairs.append((ids[j], rng.choice(ids[:j])))
        if size == 3 and rng.random() < 0.4:
            have = {tuple(sorted(p)) for p in pairs}
            if (ids[0], ids[2]) not in have:
                pairs.append((ids[0], ids[2]))
        for u, v in pairs:
            if kinds[u] == "context" and kinds[v] == "context" and rng.random() < 0.6:
                ll = rng.choice(elabels)
                rl = ll if rng.random() < 0.7 else rng.choice(elabels)
                context_edges.append((u, v, ll, rl))
            else:
                left_edges.append((u, v, rng.choice(elabels)))
    for _ in range(0 if chemical else rng.randint(0, 2)):
        attach_to = context_ids + [i for i, *_ in right_vertices]
        right_vertices.append((vid, rng.choice(vlabels)))
        if attach_to and rng.random() < 0.8:
            right_edges.append((vid, rng.choice(attach_to), rng.choice(elabels)))
        vid += 1
    taken = {tuple(sorted(e[:2])) for e in left_edges + right_edges}
    taken |= {tuple(sorted(e[:2])) for e in context_edges}
    if len(context_ids) >= 2 and rng.random() < 0.5:
        u, v = rng.sample(context_ids, 2)
        if tuple(sorted((u, v))) not in taken:
            right_edges.append((u, v, rng.choice(elabels)))
    if not context_vertices and not right_vertices:
        # keep the right side non-empty so every derivation is invertible
        vid0, label = left_vertices.pop(0)
        context_vertices.insert(0, (vid0, label, label))
        context_ids.append(vid0)
    return Rule.build(name, left_vertices, context_vertices, right_vertices,
                      left_edges, context_edges, right_edges)


def _graph_at(ids: tuple, index: int, ctx):
    return ctx.repo.graph(ids[index]) if index < len(ids) else None


#: Each integer-typed predicate atom word -> its value from (args, ids,
#: ctx); None for an out-of-range index.  Written apart from
#: ``dsl.ATOMS``, so that the compiled closures have a reference.
INT_ATOMS = {
    "componentCount": lambda args, ids, ctx: len(ids),
    "vertexCount": lambda args, ids, ctx: (
        None if (g := _graph_at(ids, args[0], ctx)) is None else len(list(g.vertices()))),
    "edgeCount": lambda args, ids, ctx: (
        None if (g := _graph_at(ids, args[0], ctx)) is None else len(list(g.edges()))),
}

#: Each boolean predicate atom word -> its truth from (args, ids, ctx).
BOOL_ATOMS = {
    "hasVertexLabel": lambda args, ids, ctx: (
        (g := _graph_at(ids, args[0], ctx)) is not None
        and args[1] in {label for _, label in g.vertices()}),
    "isGraph": lambda args, ids, ctx: (
        args[0] < len(ids) and ids[args[0]] == ctx.names[args[1]]),
}


def eval_pred(expr, ids: tuple, ctx, predicates: dict) -> bool:
    """A script predicate on a sorted graph-id multiset, by walking its AST
    on every call; predicates maps the script's predicate names to ASTs."""
    from gstrat import dsl

    if isinstance(expr, dsl.Or):
        return any(eval_pred(p, ids, ctx, predicates) for p in expr.parts)
    if isinstance(expr, dsl.And):
        return all(eval_pred(p, ids, ctx, predicates) for p in expr.parts)
    if isinstance(expr, dsl.Not):
        return not eval_pred(expr.inner, ids, ctx, predicates)
    if isinstance(expr, dsl.Compare):
        lhs, rhs = eval_int(expr.lhs, ids, ctx), eval_int(expr.rhs, ids, ctx)
        if lhs is None or rhs is None:
            return False
        return {"==": lhs == rhs, "!=": lhs != rhs, "<": lhs < rhs,
                "<=": lhs <= rhs, ">": lhs > rhs, ">=": lhs >= rhs}[expr.op]
    if isinstance(expr, dsl.Atom):
        return BOOL_ATOMS[expr.word](expr.args, ids, ctx)
    if isinstance(expr, dsl.PredRef):
        return eval_pred(predicates[expr.name], ids, ctx, predicates)
    raise TypeError(f"not a boolean expression: {expr!r}")


def eval_int(expr, ids: tuple, ctx) -> int | None:
    from gstrat import dsl

    if isinstance(expr, dsl.IntLit):
        return expr.value
    return INT_ATOMS[expr.word](expr.args, ids, ctx)


def run_strategy(tree, seeds):
    """Reference evaluator for ``strategies`` on a tree of tuples:
    ("rule", rule), ("sequence", parts), ("parallel", branches),
    ("repeat", k, inner), ("revive", inner), ("predicate", side, p, inner),
    ("altRuleApp", inner) and ("filter", scope, p).  Each predicate p takes
    (ids, run) and may read ``run.repo``.  The seed graphs are interned in
    a fresh repository and make up both lists of the start state.

    Revive keeps an explicit stack of consumed frames and predicates keep
    one list per side, pushed and popped around the inner tree.  Returns
    the final (universe, subset), the recorded hyperedges as (inputs, rule
    name, outputs) with sorted multiplicities, and the new-graph count.
    """
    from types import SimpleNamespace

    from gstrat.graphs import GraphRepository
    from gstrat.rewrite import enumerate_proper_derivations

    run = SimpleNamespace(repo=GraphRepository(), known=set(), new_graphs=0,
                          keys=set(), edges=[], frames=[set()], alt=False,
                          predicates={"left": [], "right": []})

    def union(*lists):
        return list(dict.fromkeys(g for ids in lists for g in ids))

    def multiset(ids):
        return tuple(sorted(Counter(ids).items()))

    def apply_rule(rule, universe, subset):
        if not subset:
            return universe, []
        left = list(run.predicates["left"])
        derived = []
        for d in enumerate_proper_derivations(
                rule, universe, subset, repo=run.repo,
                left_filter=(lambda ids: all(p(ids, run) for p in left))
                if left else None):
            if not all(p(d.outputs, run) for p in run.predicates["right"]):
                continue
            if d.key not in run.keys:
                run.keys.add(d.key)
                run.edges.append((multiset(d.inputs), rule.name,
                                  multiset(d.outputs)))
            run.frames[-1].update(d.inputs)
            derived = union(derived, d.outputs)
        for g in derived:
            if g not in run.known:
                run.known.add(g)
                run.new_graphs += 1
        return (union(universe, derived),
                derived if run.alt else [g for g in derived if g not in universe])

    def evaluate(node, universe, subset):
        kind, *args = node
        if kind == "rule":
            return apply_rule(args[0], universe, subset)
        if kind == "sequence":
            for part in args[0]:
                universe, subset = evaluate(part, universe, subset)
            return universe, subset
        if kind == "parallel":
            results = [evaluate(b, universe, subset) for b in args[0]]
            return (union(*(u for u, _ in results)),
                    union(*(s for _, s in results)))
        if kind == "repeat":
            bound, inner = args
            previous = (universe, subset)
            for _ in range(bound):
                nxt = evaluate(inner, *previous)
                if (set(nxt[0]), set(nxt[1])) == (set(previous[0]),
                                                  set(previous[1])):
                    return nxt
                if not nxt[1]:
                    return previous
                previous = nxt
            return previous
        if kind == "revive":
            run.frames.append(set())
            result_universe, result_subset = evaluate(args[0], universe, subset)
            frame = run.frames.pop()
            run.frames[-1] |= frame
            return result_universe, union(result_subset, [
                g for g in subset if g in result_universe and g not in frame])
        if kind == "predicate":
            side, predicate, inner = args
            run.predicates[side].append(predicate)
            result = evaluate(inner, universe, subset)
            run.predicates[side].pop()
            return result
        if kind == "altRuleApp":
            saved, run.alt = run.alt, True
            result = evaluate(args[0], universe, subset)
            run.alt = saved
            return result
        if kind == "filter":
            scope, predicate = args
            if scope == "subset":
                return universe, [g for g in subset if predicate((g,), run)]
            kept = [g for g in universe if predicate((g,), run)]
            return kept, [g for g in subset if g in kept]
        raise ValueError(f"unknown strategy node {kind!r}")

    start = union([run.repo.intern(g)[0] for g in seeds])
    run.known.update(start)
    universe, subset = evaluate(tree, start, start)
    return (tuple(universe), tuple(subset)), run.edges, run.new_graphs


def find_path(sink, source: int, target: int, free_inputs=(), edge_filter=None):
    """DerivationGraph.find_path as a pass over every edge per layer and a
    recursive walk back from the target."""
    if source == target or target in free_inputs:
        return []
    edges = sink.edges
    if edge_filter is not None:
        edges = [e for e in edges if edge_filter(e)]
    reached = {source, *free_inputs}
    parent = {}
    while True:
        newly = []
        for edge in edges:
            if all(gid in reached for gid, _ in edge.inputs):
                for gid, _ in edge.outputs:
                    if gid not in reached and gid not in parent:
                        parent[gid] = edge
                        newly.append(gid)
        if not newly:
            return None
        reached.update(newly)
        if target in reached:
            break
    path, seen_edges = [], set()

    def build(gid):
        if gid == source or gid in free_inputs:
            return
        edge = parent[gid]
        if id(edge) in seen_edges:
            return
        seen_edges.add(id(edge))
        for in_gid, _ in edge.inputs:
            build(in_gid)
        path.append(edge)

    build(target)
    return path


def serialize_graph(g: Graph, name: str = "g") -> str:
    """The graph text format line by line, each label quoted as it is
    written: vertices, then edges, in ascending order."""
    def quote(label: str) -> str:
        return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = [f"graph {name} {{"]
    for vid, label in g.vertices():
        lines.append(f"  v {vid} {quote(label)};")
    for u, v, label in g.edges():
        lines.append(f"  e {u} {v} {quote(label)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def json_export(sink, repo) -> str:
    """A derivation graph's JSON export through ``json.dumps``: the payload
    built as a dict tree, then encoded with two-space indentation."""
    graphs = [{"id": gid,
               "name": repo.name(gid),
               "gml": serialize_graph(repo.graph(gid), repo.name(gid))}
              for gid in sorted(sink.vertex_ids)]
    edges = [{"in": [{"id": gid, "count": count} for gid, count in e.inputs],
              "rule": e.rule_name,
              "out": [{"id": gid, "count": count} for gid, count in e.outputs]}
             for e in sink.edges]
    return json.dumps({"format": 1, "graphs": graphs, "edges": edges},
                      indent=2) + "\n"


# Longest first so '->' wins over '-', '==' over '='.
_PUNCTUATION = (
    "->", "==", "!=", "<=", ">=",
    "{", "}", "[", "]", "(", ")", ";", ",", "=", "<", ">",
)


def _is_digit(c: str) -> bool:
    # ASCII only: str.isdigit() also accepts digits such as '²' that int()
    # rejects.
    return "0" <= c <= "9"


def _is_name_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_name_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def scan_tokens(text: str, file: str = "") -> list[Token]:
    """The tokens of text, scanned one character at a time: the reference
    for ``lex.tokenize``'s regular expression."""
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == '"':
            start_line, start_col = line, col
            i += 1
            col += 1
            parts: list[str] = []
            while True:
                if i >= n or text[i] == "\n":
                    raise ParseError("unterminated string", start_line, start_col, file)
                c = text[i]
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\\":
                    if i + 1 >= n or text[i + 1] not in ('"', "\\"):
                        raise ParseError("bad escape in string", line, col, file)
                    parts.append(text[i + 1])
                    i += 2
                    col += 2
                    continue
                parts.append(c)
                i += 1
                col += 1
            tokens.append(Token(STRING, "".join(parts), start_line, start_col, file))
            continue
        if _is_digit(c):
            start_col = col
            j = i
            while j < n and _is_digit(text[j]):
                j += 1
            tokens.append(Token(INT, text[i:j], line, start_col, file))
            col += j - i
            i = j
            continue
        if _is_name_start(c):
            start_col = col
            j = i
            while j < n and _is_name_char(text[j]):
                j += 1
            tokens.append(Token(NAME, text[i:j], line, start_col, file))
            col += j - i
            i = j
            continue
        for punct in _PUNCTUATION:
            if text.startswith(punct, i):
                tokens.append(Token(PUNCT, punct, line, col, file))
                i += len(punct)
                col += len(punct)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col, file)
    tokens.append(Token(EOF, "", line, col, file))
    return tokens
