import random

import pytest

from gstrat.graphs import (Graph, GraphError, GraphRepository, isomorphic,
                           parse_graph, parse_graphs, serialize_graph)
from gstrat.lex import ParseError

from .oracles import brute_isomorphic, permuted, random_graph


def single_edge_graph() -> Graph:
    return Graph([(0, "a"), (1, "a")], [(0, 1, "b")])


def two_edge_path() -> Graph:
    return Graph([(0, "a"), (1, "a"), (2, "a")], [(0, 1, "b"), (1, 2, "b")])


class TestGraphBasics:
    def test_simple_violations(self):
        with pytest.raises(GraphError):
            Graph([(0, "a")], [(0, 0, "x")])
        with pytest.raises(GraphError):
            Graph([(0, "a"), (1, "a")], [(0, 1, "x"), (1, 0, "y")])
        with pytest.raises(GraphError):
            Graph([(0, "a")], [(0, 1, "x")])
        with pytest.raises(GraphError):
            Graph([(0, "a"), (0, "b")])

    def test_empty_label_is_valid(self):
        g = Graph([(0, ""), (1, "")], [(0, 1, "")])
        assert g.label(0) == ""
        assert g.edge_label(0, 1) == ""

    def test_accessors(self):
        g = two_edge_path()
        assert g.vertex_count == 3
        assert g.edge_count == 2
        assert g.degree(1) == 2
        assert list(g.edges()) == [(0, 1, "b"), (1, 2, "b")]


class TestConnectedComponents:
    def test_single_edge(self):
        comps = single_edge_graph().connected_components()
        assert len(comps) == 1
        assert comps[0].vertex_count == 2

    def test_empty_graph(self):
        assert Graph([]).connected_components() == []

    def test_two_molecules(self):
        # Disjoint union of isoprene (C5H8) and cyclohexadiene (C6H8) in the
        # explicit-hydrogen encoding: 13 and 14 vertices.
        from gstrat.chem import parse_molecule

        iso = parse_molecule("CC(=C)C=C")
        chx = parse_molecule("C1=CC=CCC1")
        verts = list(iso.vertices()) + [(v + 100, l) for v, l in chx.vertices()]
        edges = list(iso.edges()) + [(u + 100, v + 100, l) for u, v, l in chx.edges()]
        both = Graph(verts, edges)
        comps = both.connected_components()
        assert sorted(c.vertex_count for c in comps) == [13, 14]

    def test_reassembles_input(self):
        rng = random.Random(7)
        for _ in range(30):
            g = random_graph(rng)
            comps = g.connected_components()
            assert sum(c.vertex_count for c in comps) == g.vertex_count
            assert sum(c.edge_count for c in comps) == g.edge_count
            seen_ids = sorted(v for c in comps for v in c.vertex_ids())
            assert seen_ids == g.vertex_ids()


class TestStructuralHash:
    def test_permutation_invariant(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_graph(rng)
            h = permuted(g, rng)
            assert g.structural_hash == h.structural_hash
            assert isomorphic(g, h)

    def test_edge_label_multiset_distinguishes(self):
        p1 = Graph([(0, "a"), (1, "b"), (2, "a")], [(0, 1, "b"), (1, 2, "b")])
        p2 = Graph([(0, "a"), (1, "b"), (2, "a")], [(0, 1, "b"), (1, 2, "c")])
        assert p1.structural_hash != p2.structural_hash

    def test_hash_is_only_a_filter(self):
        # Same label multisets and degree sequence, not isomorphic: the
        # hash may not separate them; isomorphic() must.
        g = Graph([(i, "a") for i in range(6)],
                  [(0, 1, "x"), (1, 2, "x"), (2, 0, "x"),
                   (3, 4, "x"), (4, 5, "x"), (5, 3, "x")])
        h = Graph([(i, "a") for i in range(6)],
                  [(0, 1, "x"), (1, 2, "x"), (2, 3, "x"),
                   (3, 4, "x"), (4, 5, "x"), (5, 0, "x")])
        assert g.structural_hash == h.structural_hash
        assert not isomorphic(g, h)

    def test_iso_implies_equal_hash(self):
        rng = random.Random(13)
        for _ in range(60):
            g = random_graph(rng, max_vertices=6)
            h = random_graph(rng, max_vertices=6)
            if isomorphic(g, h):
                assert g.structural_hash == h.structural_hash


class TestIsomorphic:
    def test_k3_vs_p3(self):
        k3 = Graph([(0, "0"), (1, "0"), (2, "0")],
                   [(0, 1, ""), (1, 2, ""), (0, 2, "")])
        p3 = Graph([(0, "0"), (1, "0"), (2, "0")], [(0, 1, ""), (1, 2, "")])
        assert not isomorphic(k3, p3)

    def test_symmetric_relabel_variants_are_one_class(self):
        # Changing either of the two symmetric "b" edges of g2 to "c" gives
        # one isomorphism class.
        a = Graph([(0, "a"), (1, "a"), (2, "a")], [(0, 1, "c"), (1, 2, "b")])
        b = Graph([(0, "a"), (1, "a"), (2, "a")], [(0, 1, "b"), (1, 2, "c")])
        assert isomorphic(a, b)

    def test_against_brute_force(self):
        rng = random.Random(17)
        for _ in range(80):
            g = random_graph(rng, max_vertices=5)
            h = random_graph(rng, max_vertices=5)
            assert isomorphic(g, h) == brute_isomorphic(g, h)


class TestRepository:
    def test_intern_idempotent_up_to_iso(self):
        rng = random.Random(19)
        repo = GraphRepository()
        g = random_graph(rng, max_vertices=6, connected=True)
        gid1, new1 = repo.intern(g)
        gid2, new2 = repo.intern(permuted(g, rng))
        assert gid1 == gid2
        assert (new1, new2) == (True, False)

    def test_distinct_graphs_distinct_ids(self):
        repo = GraphRepository()
        a, _ = repo.intern(Graph([(0, "a"), (1, "a")], [(0, 1, "x")]))
        b, _ = repo.intern(Graph([(0, "a"), (1, "a"), (2, "a")],
                                 [(0, 1, "x"), (1, 2, "x")]))
        assert a != b

    def test_rejects_disconnected(self):
        repo = GraphRepository()
        with pytest.raises(GraphError):
            repo.intern(Graph([(0, "a"), (1, "a")]))

    def test_intern_long_path_twice(self):
        # The isomorphism search must not recurse per vertex.  Distinct
        # labels keep colour refinement to one round on this size.
        n = 5000
        path = Graph([(i, f"v{i}") for i in range(n)],
                     [(i, i + 1, "e") for i in range(n - 1)])
        reversed_ids = Graph([(n - 1 - i, f"v{i}") for i in range(n)],
                             [(n - 1 - i, n - 2 - i, "e") for i in range(n - 1)])
        repo = GraphRepository()
        gid, new = repo.intern(path)
        again, new_again, into = repo.intern_mapped(reversed_ids)
        assert (again, new, new_again) == (gid, True, False)
        stored = repo.graph(gid)
        assert all(stored.label(into[v]) == reversed_ids.label(v)
                   for v in reversed_ids.vertex_ids())

    def test_no_isomorphic_duplicates_after_workload(self):
        rng = random.Random(23)
        repo = GraphRepository()
        for _ in range(120):
            repo.intern(random_graph(rng, max_vertices=6, connected=True))
        for bucket in repo.buckets().values():
            for i, a in enumerate(bucket):
                for b in bucket[i + 1:]:
                    assert not isomorphic(repo.graph(a), repo.graph(b))


class TestTextFormat:
    def test_bare_body_example(self):
        g = parse_graph('v 0 "a"; v 1 "a"; e 0 1 "b";')
        assert isomorphic(g, single_edge_graph())

    def test_single_catalan_goal(self):
        g = parse_graph('v 0 "0";')
        assert g.vertex_count == 1
        assert g.label(0) == "0"

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError):
            parse_graph('v 0 "x"; e 0 0 "x";')

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_graph('v 0 "a"; v 0 "b";')
        with pytest.raises(ParseError):
            parse_graph('v 0 "a"; e 0 1 "b";')
        with pytest.raises(ParseError):
            parse_graph('v 0 "a"; v 1 "a"; e 0 1 "b"; e 1 0 "c";')
        with pytest.raises(ParseError) as err:
            parse_graph('v 0 "a" v 1 "a";')
        assert err.value.line == 1

    def test_round_trip(self):
        rng = random.Random(29)
        for _ in range(25):
            g = random_graph(rng, labels=("a", 'he says "hi"', ""),
                             edge_labels=("", "\\x"))
            again = parse_graph(serialize_graph(g))
            assert list(again.vertices()) == list(g.vertices())
            assert list(again.edges()) == list(g.edges())

    def test_multiple_graphs_per_file(self):
        text = serialize_graph(single_edge_graph(), "g1") + serialize_graph(two_edge_path(), "g2")
        graphs = parse_graphs(text)
        assert list(graphs) == ["g1", "g2"]
        with pytest.raises(ParseError):
            parse_graphs(text + serialize_graph(single_edge_graph(), "g1"))
