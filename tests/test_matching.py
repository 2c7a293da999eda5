import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstrat.graphs import Graph
from gstrat.matching import (MatchError, enumerate_embeddings, find_isomorphism,
                             search_plan)

from .oracles import brute_automorphisms, brute_embeddings, permuted, random_graph
from .test_graphs import (assert_maps_onto, from_networkx, nx_isomorphic,
                          relabelled, to_nx)


def as_key_set(maps):
    return {tuple(sorted(m.items())) for m in maps}


class TestEnumerateEmbeddings:
    def test_single_vertex_pattern(self):
        pattern = Graph([(0, "a")])
        host = Graph([(0, "a"), (1, "a"), (2, "a")], [(0, 1, "b"), (1, 2, "b")])
        assert len(enumerate_embeddings(pattern, host)) == 3

    def test_edge_into_path(self):
        # a-b-a into a-b-a-b-a: 2 edges x 2 orientations.
        pattern = Graph([(0, "a"), (1, "a")], [(0, 1, "b")])
        host = Graph([(0, "a"), (1, "a"), (2, "a")], [(0, 1, "b"), (1, 2, "b")])
        found = enumerate_embeddings(pattern, host)
        assert len(found) == 4
        assert as_key_set(found) == brute_embeddings(pattern, host)

    def test_not_induced(self):
        # Extra host edges between image vertices are fine (monomorphism).
        pattern = Graph([(0, "a"), (1, "a"), (2, "a")], [(0, 1, "x"), (1, 2, "x")])
        host = Graph([(0, "a"), (1, "a"), (2, "a")],
                     [(0, 1, "x"), (1, 2, "x"), (0, 2, "x")])
        assert len(enumerate_embeddings(pattern, host)) == 6

    def test_deterministic_order(self):
        pattern = Graph([(0, "a"), (1, "a")], [(0, 1, "b")])
        host = Graph([(i, "a") for i in range(4)],
                     [(0, 1, "b"), (1, 2, "b"), (2, 3, "b")])
        first = enumerate_embeddings(pattern, host)
        second = enumerate_embeddings(pattern, host)
        assert first == second

    def test_pattern_must_be_connected(self):
        with pytest.raises(MatchError):
            enumerate_embeddings(Graph([(0, "a"), (1, "a")]), Graph([(0, "a")]))
        with pytest.raises(MatchError):
            enumerate_embeddings(Graph([]), Graph([(0, "a")]))

    def test_search_plan_rejects_empty_and_disconnected_patterns(self):
        for pattern in (Graph([]), Graph([(0, "a"), (1, "a")])):
            with pytest.raises(MatchError,
                               match="pattern must be a connected non-empty graph"):
                search_plan(pattern)

    def test_order_is_brute_force_sorted_along_the_search_order(self):
        # The golden exports depend on the order of the maps, not only on
        # their set.  Patterns have up to six vertices; hosts have shuffled
        # sparse ids and are, in turn, random, random with labels the
        # pattern lacks, and the pattern with a pendant vertex added.
        rng = random.Random(101)
        found_any = 0
        for case in range(200):
            labels = rng.choice([("a",), ("a", "b")])
            edge_labels = rng.choice([("x",), ("x", "y")])
            pattern = random_graph(rng, max_vertices=6, labels=labels,
                                   edge_labels=edge_labels, connected=True)
            if case % 3 == 2:
                n = pattern.vertex_count
                host = Graph([*pattern.vertices(), (n, rng.choice(labels))],
                             [*pattern.edges(),
                              (n, rng.randrange(n), rng.choice(edge_labels))])
            else:
                extra = ("c",) if case % 3 else ()
                host = random_graph(rng, max_vertices=7, labels=labels + extra,
                                    edge_labels=edge_labels + extra)
            host = relabelled(host, rng.sample(range(1000), host.vertex_count))
            want = in_search_order(
                pattern, [dict(items) for items in brute_embeddings(pattern, host)])
            assert enumerate_embeddings(pattern, host) == want
            found_any += len(want) > 1
        assert found_any >= 50, found_any

    def test_agrees_with_brute_force(self):
        rng = random.Random(31)
        checked = 0
        while checked < 60:
            pattern = random_graph(rng, max_vertices=4, connected=True)
            host = random_graph(rng, max_vertices=6)
            found = enumerate_embeddings(pattern, host)
            assert as_key_set(found) == brute_embeddings(pattern, host)
            assert len(found) == len(as_key_set(found))
            checked += 1

    def test_self_match_includes_identity(self):
        rng = random.Random(37)
        for _ in range(20):
            g = random_graph(rng, max_vertices=5, connected=True)
            found = as_key_set(enumerate_embeddings(g, g))
            identity = tuple(sorted((v, v) for v in g.vertex_ids()))
            assert identity in found
            assert found == brute_embeddings(g, g)

    def test_diene_into_isoprene(self):
        from gstrat.chem import diels_alder_rule, parse_molecule

        diene = next(c for c in diels_alder_rule().left_components
                     if c.vertex_count == 4)
        isoprene = parse_molecule("CC(=C)C=C")
        found = enumerate_embeddings(diene, isoprene)
        assert as_key_set(found) == brute_embeddings(diene, isoprene)
        assert len(found) == 2  # one conjugated diene, two orientations

    def test_long_path_pattern(self):
        # The search must not recurse per pattern vertex.  Distinct labels
        # leave one candidate per position.
        n = 3000
        pattern = Graph([(i, f"v{i}") for i in range(n)],
                        [(i, i + 1, "e") for i in range(n - 1)])
        host = Graph([(n + 9 - i, f"v{i}") for i in range(n)],
                     [(n + 9 - i, n + 8 - i, "e") for i in range(n - 1)])
        assert enumerate_embeddings(pattern, host) == [
            {i: n + 9 - i for i in range(n)}]


def in_search_order(pattern, maps):
    """The maps sorted by their images along the pattern's search order."""
    order = search_plan(pattern).order
    return sorted(maps, key=lambda m: [m[v] for v in order])


def nx_embeddings(pattern, host):
    """networkx's label-matching monomorphisms of pattern into host, as
    pattern id -> host id maps."""
    iso = nx.algorithms.isomorphism
    matcher = iso.GraphMatcher(
        to_nx(host), to_nx(pattern),
        node_match=iso.categorical_node_match("label", None),
        edge_match=iso.categorical_edge_match("label", None))
    return [{p: h for h, p in m.items()}
            for m in matcher.subgraph_monomorphisms_iter()]


def path_or_cycle(labels, cycle, first_id=0):
    """Vertices first_id, first_id + 1, ... with the labels, joined by "x"
    edges in a path, or in a cycle."""
    n = len(labels)
    return ([(first_id + i, label) for i, label in enumerate(labels)],
            [(first_id + i, first_id + (i + 1) % n, "x")
             for i in range(n if cycle else n - 1)])


class TestCompiledSearch:
    """Each plan is compiled into chunks of nested loops; the maps and
    their order must not depend on the plan's length or its labels."""

    def test_long_pattern_in_long_host(self):
        # 40 positions are three chunks; the host has 2000 vertices and
        # one label.
        pattern = Graph([(i, "a") for i in range(40)],
                        [(i, i + 1, "e") for i in range(39)])
        host = Graph([(i, "a") for i in range(2000)],
                     [(i, i + 1, "e") for i in range(1999)])
        want = [{i: start + i * step for i in range(40)}
                for start in range(2000) for step in (-1, 1)
                if 0 <= start + 39 * step < 2000]
        assert len(want) == 2 * (2000 - 39)
        assert enumerate_embeddings(pattern, host) == in_search_order(pattern, want)

    @pytest.mark.parametrize("cycle", [False, True])
    @pytest.mark.parametrize("n", [14, 15, 16, 30, 31])
    def test_chunk_boundaries_agree_with_networkx(self, n, cycle):
        # Paths have distinct labels; cycles repeat three labels.  The host
        # holds the pattern twice at sparse ids, one copy with a chord, and
        # a reversed path of the same labels.
        labels = list("abc" * n)[:n] if cycle else [f"v{i}" for i in range(n)]
        vertices, edges = path_or_cycle(labels[::-1], False, 500)
        for first in (100, 300):
            vs, es = path_or_cycle(labels, cycle, first)
            vertices += vs
            edges += es
        host = Graph(vertices, edges + [(100, 105, "y")])
        pattern = Graph(*path_or_cycle(labels, cycle))
        want = in_search_order(pattern, nx_embeddings(pattern, host))
        assert len(want) >= 2
        assert enumerate_embeddings(pattern, host) == want
        # Breaking the pattern's automorphisms (rotations by three for
        # n = 15 and 30) sets floors in other chunks than their vertices.
        group = sorted(nx_embeddings(pattern, pattern),
                       key=lambda m: any(k != v for k, v in m.items()))
        plan = search_plan(pattern, group)
        kept = enumerate_embeddings(pattern, host, plan)
        assert kept == orbit_firsts(want, group)
        assert plan.orbit_members(kept) == want

    def test_labels_are_data_not_source(self):
        # Labels that would break or change generated code if they were
        # written into its source match exactly as plain labels do.
        odd = ['"); import os #', "'", '"', "\\", "\n", "a\nb", "{x}", "L0",
               "x0", "'''", "E1_0", ""]
        plain = [f"p{i}" for i in range(len(odd))]
        swap = dict(zip(plain, odd))

        def odd_labelled(g):
            return Graph([(v, swap[label]) for v, label in g.vertices()],
                         [(u, v, swap[el]) for u, v, el in g.edges()])

        rng = random.Random(223)
        found_any = 0
        for _ in range(60):
            labels = tuple(rng.sample(plain[:6], 2))
            edge_labels = tuple(rng.sample(plain[6:], 2))
            pattern = random_graph(rng, max_vertices=4, labels=labels,
                                   edge_labels=edge_labels, connected=True)
            host = permuted(random_graph(rng, max_vertices=7, labels=labels,
                                         edge_labels=edge_labels), rng)
            plan = search_plan(odd_labelled(pattern))
            assert plan.order == search_plan(pattern).order
            want = enumerate_embeddings(pattern, host)
            assert list(plan.search(odd_labelled(host))) == want
            found_any += bool(want)
        assert found_any >= 20, found_any


def generated(generators):
    """The permutation group the generators generate, identity first."""
    identity = {v: v for v in generators[0]}
    group = {tuple(sorted(identity.items())): identity}
    frontier = [identity]
    while frontier:
        sigma = frontier.pop()
        for gen in generators:
            product = {v: gen[sigma[v]] for v in sigma}
            key = tuple(sorted(product.items()))
            if key not in group:
                group[key] = product
                frontier.append(product)
    return list(group.values())


def orbit_firsts(maps, symmetries):
    """The first map of each orbit {m . sigma} of the list, in list order."""
    seen, firsts = set(), []
    for m in maps:
        key = min(tuple(m[sigma[v]] for v in sorted(m)) for sigma in symmetries)
        if key not in seen:
            seen.add(key)
            firsts.append(m)
    return firsts


class TestSymmetryBreaking:
    def test_conditions_keep_the_first_of_each_orbit(self):
        # Random connected patterns with automorphisms, broken under their
        # whole automorphism group and under the subgroup one random
        # automorphism generates, into random hosts.
        rng = random.Random(83)
        cases = pruned = 0
        while cases < 200:
            labels = rng.choice([("a",), ("a",), ("a", "b")])
            edge_labels = rng.choice([("x",), ("x",), ("x", "y")])
            pattern = random_graph(rng, max_vertices=5, labels=labels,
                                   edge_labels=edge_labels, connected=True)
            automorphisms = brute_automorphisms(pattern)
            if len(automorphisms) == 1:
                continue
            host = random_graph(rng, max_vertices=7, labels=labels,
                                edge_labels=edge_labels)
            full = enumerate_embeddings(pattern, host)
            for group in (automorphisms,
                          generated([rng.choice(automorphisms[1:])])):
                plan = search_plan(pattern, group)
                kept = enumerate_embeddings(pattern, host, plan)
                assert kept == orbit_firsts(full, group)
                assert plan.orbit_members(kept) == full
                pruned += len(kept) < len(full)
                cases += 1
        assert pruned >= 50, pruned

    def test_plan_without_symmetries_changes_nothing(self):
        rng = random.Random(89)
        for _ in range(40):
            pattern = random_graph(rng, max_vertices=4, connected=True)
            host = random_graph(rng, max_vertices=6)
            plan = search_plan(pattern)
            assert not any(plan.floors)
            full = enumerate_embeddings(pattern, host)
            assert enumerate_embeddings(pattern, host, plan) == full
            assert plan.orbit_members(full) == full


@st.composite
def graph_pairs(draw, max_vertices: int = 6) -> tuple[Graph, Graph]:
    """Two graphs, possibly empty or disconnected: unrelated, or the second
    is the first with shuffled ids and, in half of those pairs, one edge
    label or vertex label changed."""
    n = draw(st.integers(0, max_vertices))

    def graph() -> tuple[list, list]:
        labels = draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))
        edges = [(u, v, draw(st.sampled_from("xy")))
                 for u in range(n) for v in range(u + 1, n) if draw(st.booleans())]
        return list(enumerate(labels)), edges

    vertices, edges = graph()
    g = Graph(vertices, edges)
    kind = draw(st.sampled_from(["unrelated", "copy", "edge", "vertex"]))
    if kind == "unrelated":
        return g, Graph(*graph())
    if kind == "edge" and edges:
        i = draw(st.integers(0, len(edges) - 1))
        u, v, el = edges[i]
        edges = edges[:i] + [(u, v, "xy"[el == "x"])] + edges[i + 1:]
    if kind == "vertex" and vertices:
        i = draw(st.integers(0, n - 1))
        vertices = vertices[:i] + [(i, "ab"[vertices[i][1] == "a"])] + vertices[i + 1:]
    ids = draw(st.permutations(range(20, 20 + n)))
    return g, relabelled(Graph(vertices, edges), list(ids))


class TestFindIsomorphism:
    def test_maps_are_valid(self):
        rng = random.Random(41)
        for _ in range(40):
            g = random_graph(rng, max_vertices=7)
            h = relabelled(g, rng.sample(range(50, 70), g.vertex_count))
            iso = find_isomorphism(g, h)
            assert iso is not None
            assert_maps_onto(g, iso, h)

    def test_rejects_non_isomorphic(self):
        a = Graph([(0, "a"), (1, "a"), (2, "a")], [(0, 1, "x"), (1, 2, "x")])
        b = Graph([(0, "a"), (1, "a"), (2, "a")], [(0, 1, "x"), (0, 2, "x")])
        assert find_isomorphism(a, b) is not None  # paths, relabeled center
        c = Graph([(0, "a"), (1, "a"), (2, "b")], [(0, 1, "x"), (1, 2, "x")])
        assert find_isomorphism(a, c) is None

    def test_shuffled_cubic_pair_is_decided_quickly(self):
        # A backtracking search restricted by refinement colour took 11.5 s
        # on this pair: colour refinement cannot split a regular graph.
        g = from_networkx(nx.random_regular_graph(3, 150, seed=1))
        h = relabelled(g, random.Random(5).sample(range(1000), 150))
        started = time.perf_counter()
        iso = find_isomorphism(g, h)
        assert time.perf_counter() - started < 2
        assert iso is not None
        assert_maps_onto(g, iso, h)

    def test_different_cubic_graphs_are_rejected(self):
        g = from_networkx(nx.random_regular_graph(3, 150, seed=1))
        h = from_networkx(nx.random_regular_graph(3, 150, seed=2))
        assert find_isomorphism(g, h) is None

    @settings(max_examples=300, deadline=None)
    @given(graph_pairs())
    def test_agrees_with_networkx(self, pair):
        g, h = pair
        iso = find_isomorphism(g, h)
        assert (iso is not None) == nx_isomorphic(g, h)
        if iso is not None:
            assert_maps_onto(g, iso, h)
