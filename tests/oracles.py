"""Brute-force reference implementations used to validate the engine.

Everything here is deliberately naive: exhaustive enumeration with no
pruning, independent of the search code under test.
"""
from __future__ import annotations

import itertools
import random

from gstrat.graphs import Graph


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


def equal_signature_pairs(repo) -> list[tuple[int, int]]:
    """Every pair of stored ids whose graphs have equal signatures.

    Graphs with different signatures are never isomorphic, so a repository
    is free of isomorphic duplicates when no pair listed here is isomorphic.
    """
    by_signature: dict[tuple, list[int]] = {}
    for gid in repo.ids():
        by_signature.setdefault(repo.graph(gid).signature, []).append(gid)
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


def naive_derivation_keys(rule, universe, required, repo):
    """Reference enumeration: test every k-multisubset of the universe with
    brute-force full matching, then apply.  Returns dedup keys."""
    from gstrat.rewrite import apply_at, assemble

    comps = rule.left_components()
    required = set(required)
    keys = set()
    for size in range(1, len(comps) + 1):
        for multiset in itertools.combinations_with_replacement(universe, size):
            if required and not (set(multiset) & required):
                continue
            assembly = assemble(repo, multiset)
            per_comp = []
            for comp in comps:
                maps = [dict(items)
                        for items in sorted(brute_embeddings(comp, assembly.graph))]
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
                touched = {assembly.copy_of(v) for v in merged.values()}
                if len(touched) != size:
                    continue  # not proper
                result = apply_at(rule, assembly, merged, repo)
                if result is None:
                    continue
                keys.add((rule.name, tuple(sorted(multiset)),
                          tuple(sorted(result.outputs))))
    return keys


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


def random_rule(rng: random.Random, name: str = "r",
                max_components: int = 2) -> "object":
    """A random valid rule with 1 to max_components left components."""
    from gstrat.rules import Rule, validate_rule

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
            if rng.random() < 0.75:
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
    for _ in range(rng.randint(0, 2)):
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
    rule = Rule.build(name, left_vertices, context_vertices, right_vertices,
                      left_edges, context_edges, right_edges)
    assert not validate_rule(rule)
    return rule
