import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstrat import graphs
from gstrat.chem import parse_molecule
from gstrat.graphs import (Graph, GraphError, GraphRepository, isomorphic,
                           parse_graph, parse_graphs, serialize_graph)
from gstrat.lex import ParseError, quote
from gstrat.matching import enumerate_embeddings, find_isomorphism

from .oracles import (brute_automorphisms, brute_isomorphic,
                      equal_signature_pairs, permuted, random_graph,
                      search_isomorphism, signature)


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

    # (vertices, edges, message): each ill-formed input and the one error
    # it raises.  A self-loop on an undeclared vertex is reported as a
    # self-loop, and a parallel edge as the second of the pair.
    CONSTRUCTOR_ERRORS = [
        ([(0, "a"), (1, "b"), (1, "c"), (0, "d")], [],
         "duplicate vertex id 1"),
        ([(0, "a"), (1, "a")], [(0, 1, "x"), (1, 1, "x")],
         "self-loop on vertex 1"),
        ([(0, "a"), (1, "a")], [(0, 1, "x"), (1, 5, "x")],
         "edge 1-5 references an undeclared vertex"),
        ([(0, "a"), (1, "a")], [(0, 1, "x"), (5, 1, "x")],
         "edge 5-1 references an undeclared vertex"),
        ([(0, "a"), (1, "a"), (2, "a")], [(0, 1, "x"), (1, 2, "x"), (1, 0, "y")],
         "parallel edge 1-0"),
        ([(0, "a")], [(7, 7, "x")], "self-loop on vertex 7"),
        # Several faults: the first in the given order is named.
        ([(0, "a"), (1, "a"), (2, "a")],
         [(2, 1, "x"), (0, 1, "x"), (1, 2, "y"), (3, 3, "x"), (0, 9, "x")],
         "parallel edge 1-2"),
        ([(1, "a"), (0, "a"), (1, "b")], [(0, 0, "x"), (0, 4, "x")],
         "duplicate vertex id 1"),
    ]

    @pytest.mark.parametrize("vertices, edges, message", CONSTRUCTOR_ERRORS)
    @pytest.mark.parametrize("as_generators", [False, True])
    def test_constructor_errors(self, vertices, edges, message, as_generators):
        if as_generators:
            vertices, edges = iter(vertices), iter(edges)
        with pytest.raises(GraphError) as info:
            Graph(vertices, edges)
        assert str(info.value) == message

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_neighbour_order_ignores_edge_order(self, seed):
        # Shuffled and flipped edges give the same neighbour dicts, in
        # ascending id order.
        rng = random.Random(seed)
        g = random_graph(rng)
        edges = [(v, u, el) if rng.random() < 0.5 else (u, v, el)
                 for u, v, el in g.edges()]
        rng.shuffle(edges)
        h = Graph(list(g.vertices()), edges)
        for v in g.vertex_ids():
            assert list(h.neighbors(v).items()) == list(g.neighbors(v).items())
            assert list(h.neighbors(v)) == sorted(g.neighbors(v))

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

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_networkx(self, seed):
        # Sparse, shuffled ids given in shuffled order: each component keeps
        # its ids, labels and edges, and the components ascend by least id.
        rng = random.Random(seed)
        for _ in range(25):
            n = rng.randint(1, 30)
            nx_graph = nx.gnp_random_graph(n, rng.uniform(0.02, 0.2),
                                           seed=rng.randrange(2**32))
            ids = dict(zip(range(n), rng.sample(range(-n, 4 * n), n)))
            labels = {ids[v]: rng.choice("ab") for v in range(n)}
            edges = [(ids[u], ids[v], rng.choice("xy")) for u, v in nx_graph.edges()]
            vertices = list(labels.items())
            rng.shuffle(vertices)
            g = Graph(vertices, edges)
            expected = sorted((sorted(ids[v] for v in comp)
                               for comp in nx.connected_components(nx_graph)))
            comps = g.connected_components()
            assert [c.vertex_ids() for c in comps] == expected
            for c in comps:
                assert list(c.vertices()) == [(v, labels[v]) for v in c.vertex_ids()]
                assert list(c.edges()) == [e for e in g.edges() if c.has_vertex(e[0])]
                assert c.is_connected


def certificate(g: Graph) -> tuple:
    return g.canonical_form()[0]


def relabelled(g: Graph, new_ids: list[int]) -> Graph:
    mapping = dict(zip(g.vertex_ids(), new_ids))
    return Graph([(mapping[v], l) for v, l in g.vertices()],
                 [(mapping[u], mapping[v], el) for u, v, el in g.edges()])


def assert_maps_onto(g: Graph, into: dict[int, int], stored: Graph) -> None:
    """into is a label- and edge-preserving bijection of g onto stored."""
    assert sorted(into) == g.vertex_ids()
    assert sorted(into.values()) == stored.vertex_ids()
    assert all(stored.label(into[v]) == g.label(v) for v in g.vertex_ids())
    assert g.edge_count == stored.edge_count
    for u, v, el in g.edges():
        assert stored.has_edge(into[u], into[v])
        assert stored.edge_label(into[u], into[v]) == el


def from_networkx(nx_graph, rng: random.Random | None = None,
                  labels: str = "a", edge_labels: str = "e") -> Graph:
    """A gstrat graph of a networkx graph.  With rng, vertex ids are
    shuffled and labels drawn at random from the two alphabets."""
    nodes = list(nx_graph.nodes())
    ids = list(range(len(nodes)))
    pick = (lambda alphabet: alphabet[0])
    if rng is not None:
        rng.shuffle(ids)
        pick = rng.choice
    index = dict(zip(nodes, ids))
    return Graph([(index[v], pick(labels)) for v in nodes],
                 [(index[u], index[v], pick(edge_labels)) for u, v in nx_graph.edges()])


class TestCertificate:
    def test_permutation_invariant(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_graph(rng)
            h = permuted(g, rng)
            assert certificate(g) == certificate(h)
            assert_maps_onto(g, find_isomorphism(g, h), h)

    def test_edge_label_multiset_distinguishes(self):
        p1 = Graph([(0, "a"), (1, "b"), (2, "a")], [(0, 1, "b"), (1, 2, "b")])
        p2 = Graph([(0, "a"), (1, "b"), (2, "a")], [(0, 1, "b"), (1, 2, "c")])
        assert certificate(p1) != certificate(p2)

    def test_separates_triangles_from_hexagon(self):
        # Same label multisets, degree sequence and refinement colours, so
        # colour refinement alone cannot separate them; individualisation
        # must.
        g = Graph([(i, "a") for i in range(6)],
                  [(0, 1, "x"), (1, 2, "x"), (2, 0, "x"),
                   (3, 4, "x"), (4, 5, "x"), (5, 3, "x")])
        h = Graph([(i, "a") for i in range(6)],
                  [(0, 1, "x"), (1, 2, "x"), (2, 3, "x"),
                   (3, 4, "x"), (4, 5, "x"), (5, 0, "x")])
        assert signature(g) == signature(h)
        assert g.refinement_colors() == h.refinement_colors()
        assert certificate(g) != certificate(h)
        assert search_isomorphism(g, h) is None

    def test_equal_certificate_iff_isomorphic(self):
        rng = random.Random(13)
        equal = 0
        for _ in range(500):
            g = random_graph(rng, max_vertices=5, labels=("a",))
            h = random_graph(rng, max_vertices=5, labels=("a",))
            same = certificate(g) == certificate(h)
            assert same == (search_isomorphism(g, h) is not None)
            assert same == brute_isomorphic(g, h)
            equal += same
        assert equal >= 15

    @pytest.mark.parametrize("labelled", [False, True])
    def test_atlas_relabelled(self, labelled):
        # All 996 connected graphs on at most 7 vertices get distinct
        # classes, and a relabelled copy of each interns to its class with
        # a map that preserves labels and edges.
        rng = random.Random(31)
        atlas = [g for g in nx.graph_atlas_g()
                 if g.number_of_nodes() and nx.is_connected(g)]
        assert len(atlas) == 996
        labels, edge_labels = ("ab", "xy") if labelled else ("a", "e")
        repo = GraphRepository()
        for nx_graph in atlas:
            g = from_networkx(nx_graph, rng if labelled else None,
                              labels, edge_labels)
            gid, new = repo.intern(g)
            assert new
            copy = relabelled(g, rng.sample(g.vertex_ids(), g.vertex_count))
            assert certificate(copy) == certificate(g)
            again, new_again, into = repo.intern_mapped(copy)
            assert (again, new_again) == (gid, False)
            assert_maps_onto(copy, into, repo.graph(gid))
        assert len(repo) == 996

    def test_hypercube_q6_interns_quickly(self):
        # Q6 has 46 080 automorphisms, and without automorphism pruning the
        # search visits one leaf for each.
        started = time.perf_counter()
        q6 = nx.hypercube_graph(6)
        repo = GraphRepository()
        gid, _ = repo.intern(from_networkx(q6, random.Random(1)))
        copy = from_networkx(q6, random.Random(2))
        again, new, into = repo.intern_mapped(copy)
        assert (again, new) == (gid, False)
        assert_maps_onto(copy, into, repo.graph(gid))
        assert time.perf_counter() - started < 5


def leafy_graph(rng: random.Random) -> Graph:
    """A random tree on 1-4 core vertices plus random chords, with 0-3
    degree-1 vertices hung on each core vertex; vertex labels a/b, edge
    labels x/y, vertex ids shuffled."""
    core = rng.randint(1, 4)
    vertices = [(i, rng.choice("ab")) for i in range(core)]
    edges = [(rng.randrange(v), v, rng.choice("xy")) for v in range(1, core)]
    tree = {(u, v) for u, v, _ in edges}
    for u, v in itertools.combinations(range(core), 2):
        if (u, v) not in tree and rng.random() < 0.3:
            edges.append((u, v, rng.choice("xy")))
    for u in range(core):
        for _ in range(rng.randint(0, 3)):
            edges.append((u, len(vertices), rng.choice("xy")))
            vertices.append((len(vertices), rng.choice("ab")))
    n = len(vertices)
    return relabelled(Graph(vertices, edges), rng.sample(range(n), n))


def to_nx(graph: Graph) -> nx.Graph:
    """The graph as a networkx graph with "label" node and edge attributes."""
    out = nx.Graph()
    out.add_nodes_from((v, {"label": l}) for v, l in graph.vertices())
    out.add_edges_from((u, v, {"label": el}) for u, v, el in graph.edges())
    return out


def nx_isomorphic(g: Graph, h: Graph) -> bool:
    """networkx's label-matching isomorphism test, as an independent oracle."""
    match = nx.algorithms.isomorphism.categorical_node_match("label", None)
    edge_match = nx.algorithms.isomorphism.categorical_edge_match("label", None)
    return nx.is_isomorphic(to_nx(g), to_nx(h), node_match=match,
                            edge_match=edge_match)


class TestLeafFold:
    """Degree-1 vertices on a vertex of degree >= 2 are folded into that
    vertex's starting key, and only the core is labelled."""

    def test_equal_certificate_iff_networkx_isomorphic(self):
        rng = random.Random(41)
        pool = [leafy_graph(rng) for _ in range(160)]
        equal = unequal_same_size = 0
        for g, h in itertools.combinations(pool, 2):
            same = certificate(g) == certificate(h)
            assert same == nx_isomorphic(g, h)
            equal += same
            unequal_same_size += (not same and g.vertex_count == h.vertex_count
                                  and g.edge_count == h.edge_count)
        assert equal >= 30 and unequal_same_size >= 300
        repo = GraphRepository()
        for g in pool:
            gid, _ = repo.intern(g)
            n = g.vertex_count
            copy = relabelled(g, rng.sample(range(100, 100 + n), n))
            again, new, into = repo.intern_mapped(copy)
            assert (again, new) == (gid, False)
            assert_maps_onto(copy, into, repo.graph(gid))

    def test_single_vertex(self):
        runs = ((("a", ()), 1),)
        assert Graph([(4, "a")]).canonical_form() == ((runs, (), ()), (4,))

    def test_k2_folds_nothing(self):
        g = Graph([(0, "b"), (1, "a")], [(0, 1, "x")])
        assert g.canonical_form() == (
            (((("a", ()), 1), (("b", ()), 1)), ("x",), (1,)), (1, 0))

    def test_star(self):
        g = Graph([(0, "h"), (1, "h"), (2, "c"), (3, "h")],
                  [(2, 0, "x"), (1, 2, "x"), (2, 3, "x")])
        assert g.canonical_form() == (
            (((("c", (("x", "h"),) * 3), 1),), ("x",), ()), (2, 0, 1, 3))

    def test_mixed_leaves(self):
        # Core 0-1; vertex 0 carries four leaves that differ in vertex label,
        # edge label or both, vertex 1 one leaf.
        def carbon_pair(leaves):
            return Graph([(0, "c"), (1, "c")] + [(v, l) for v, l, _ in leaves],
                         [(0, 1, "x")] + [(p, v, el) for v, _, (p, el) in leaves])

        base = [(5, "o", (0, "y")), (2, "h", (0, "x")), (7, "h", (0, "y")),
                (3, "o", (0, "x")), (4, "h", (1, "x"))]
        g = carbon_pair(base)
        cert, order = g.canonical_form()
        assert cert[0] == ((("c", (("x", "h"),)), 1),
                           (("c", (("x", "h"), ("x", "o"), ("y", "h"), ("y", "o"))), 1))
        assert order == (1, 0, 4, 2, 3, 7, 5)
        repo = GraphRepository()
        gid, _ = repo.intern(g)
        rng = random.Random(43)
        for _ in range(20):
            copy = relabelled(g, rng.sample(range(10, 20), 7))
            again, new, into = repo.intern_mapped(copy)
            assert (again, new) == (gid, False)
            assert_maps_onto(copy, into, repo.graph(gid))
        edge_changed = carbon_pair([(5, "o", (0, "x"))] + base[1:])
        label_changed = carbon_pair([(5, "h", (0, "y"))] + base[1:])
        moved = carbon_pair([(5, "o", (1, "y"))] + base[1:])
        for other in (edge_changed, label_changed, moved):
            assert certificate(other) != cert
            assert not nx_isomorphic(g, other)

    def test_which_core_vertex_carries_the_leaf(self):
        # Equal key runs: one path end and one inner vertex carry "h" and
        # "o" in one graph, "o" and "h" in the other.
        def path(end_leaf, inner_leaf):
            return Graph([(i, "c") for i in range(4)] + [(4, end_leaf), (5, inner_leaf)],
                         [(0, 1, "x"), (1, 2, "x"), (2, 3, "x"), (0, 4, "x"), (1, 5, "x")])

        a, b = path("h", "o"), path("o", "h")
        assert certificate(a)[0] == certificate(b)[0]
        assert certificate(a) != certificate(b)
        assert not nx_isomorphic(a, b)

    def test_refines_only_the_core(self, monkeypatch):
        g = parse_molecule("C1=CC=CCC1")
        assert g.vertex_count == 14
        sizes = []
        refine = graphs._refine

        def recording(adj, cells, changed=None):
            sizes.append(len(adj))
            return refine(adj, cells, changed)

        monkeypatch.setattr(graphs, "_refine", recording)
        g.canonical_form()
        assert sizes and set(sizes) == {6}

    def test_canonical_order_independent_of_hash_seed(self):
        # Atom maps are read off canonical orders, so twin hydrogens must be
        # ordered the same way in every process.
        code = ("from gstrat.chem import parse_molecule; "
                "print(parse_molecule('CC(=C)C=C').canonical_form()[1])")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).parent.parent / "src")]
            + [p for p in [env.get("PYTHONPATH")] if p])
        orders = set()
        for seed in ("1", "2"):
            env["PYTHONHASHSEED"] = seed
            orders.add(subprocess.run([sys.executable, "-c", code], env=env,
                                      check=True, capture_output=True,
                                      text=True).stdout)
        assert len(orders) == 1


class TestHostSymmetry:
    @staticmethod
    def hosts(rng):
        for trial in range(160):
            if trial % 4 == 0:
                g = leafy_graph(rng)
            elif trial % 4 == 1:
                g = random_graph(rng, max_vertices=7, labels=("a",),
                                 edge_labels=("x", "y"), connected=True)
            elif trial % 4 == 2:
                g = from_networkx(rng.choice(
                    [nx.cycle_graph(6), nx.complete_graph(4), nx.star_graph(4),
                     nx.path_graph(5), nx.complete_bipartite_graph(2, 3),
                     nx.circular_ladder_graph(3)]), rng, labels="ab", edge_labels="x")
            else:
                # A core whose automorphisms the search finds as generators,
                # with leaves that must follow their parents.
                core, bearers = rng.choice([(nx.cycle_graph(4), (0, 1, 2, 3)),
                                            (nx.cycle_graph(4), (0, 2)),
                                            (nx.path_graph(4), (0, 3)),
                                            (nx.path_graph(3), (0, 2, 2))])
                n = core.number_of_nodes()
                g = Graph([(v, "a") for v in range(n)]
                          + [(n + i, "h") for i in range(len(bearers))],
                          [(u, v, "x") for u, v in core.edges()]
                          + [(v, n + i, "x") for i, v in enumerate(bearers)])
                g = relabelled(g, rng.sample(range(g.vertex_count), g.vertex_count))
            if g.vertex_count > 8:
                continue
            if trial % 2:
                # Stored as its renumbered() copy, which is the graph
                # that is labelled.
                g = relabelled(g, [v + 5 for v in g.vertex_ids()])
            yield g

    def test_equal_orbit_keys_imply_an_automorphism(self):
        rng = random.Random(89)
        merged = 0
        for g in self.hosts(rng):
            repo = GraphRepository()
            gid, _ = repo.intern(g)
            stored = repo.graph(gid)
            automorphisms = brute_automorphisms(stored)
            by_key: dict[tuple, list[tuple]] = {}
            for k in (1, 2, 3):
                for t in itertools.permutations(stored.vertex_ids(), k):
                    key = stored.orbit_key(t)
                    if not stored.moves_any(t):
                        assert key == t
                    by_key.setdefault(key, []).append(t)
            for first, *others in by_key.values():
                for t in others:
                    assert any(all(h[a] == b for a, b in zip(first, t))
                               for h in automorphisms)
                    merged += 1
        assert merged > 2000

    def test_one_per_class(self):
        repo = GraphRepository()
        iso, _ = repo.intern(parse_molecule("CC(=C)C=C"))
        chx, _ = repo.intern(parse_molecule("C1=CC=CCC1"))
        # Interning labelled each stored graph, which keeps what it found;
        # keys read it and never record it again.
        g = repo.graph(iso)
        symmetry = g._symmetry
        assert symmetry is not None and repo.graph(iso) is g
        # Isoprene's core is rigid: only its twin hydrogens can move.
        generators, cells, cell_of, moved = symmetry
        assert not generators and not cells and not cell_of and not moved
        carbons = [v for v in g.vertex_ids() if g.label(v) == "C"]
        hydrogens = [v for v in g.vertex_ids() if g.label(v) == "H"]
        assert not g.moves_any(carbons)
        assert g.moves_any(hydrogens)
        assert g.orbit_key(carbons) == tuple(carbons)
        assert g.orbit_key(hydrogens[::-1]) != tuple(hydrogens[::-1])
        assert g._symmetry is symmetry
        # Cyclohexadiene's mirror is found, and kept.
        h = repo.graph(chx)
        symmetry = h._symmetry
        assert symmetry[0]
        assert {v for move in symmetry[0] for v in move} <= symmetry[3]
        carbons = [v for v in h.vertex_ids() if h.label(v) == "C"]
        assert h.moves_any(carbons[:1])
        assert h._symmetry is symmetry
        # A graph that was never labelled labels itself for its first key.
        fresh = parse_molecule("C1=CC=CCC1")
        assert fresh._symmetry is None
        keys = [h.orbit_key(t) for t in itertools.permutations(carbons, 2)]
        assert [fresh.orbit_key(t) for t in itertools.permutations(carbons, 2)] == keys
        assert fresh._symmetry == symmetry


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

    def test_connectivity_walked_only_on_a_miss(self, monkeypatch):
        walks = []
        reach = Graph._reach

        def counting(self, start):
            walks.append(start)
            return reach(self, start)

        monkeypatch.setattr(Graph, "_reach", counting)
        repo = GraphRepository()
        g = two_edge_path()
        repo.intern(g)
        assert len(walks) == 1
        assert repo.intern_mapped(relabelled(g, [7, 3, 5]))[:2] == (0, False)
        assert len(walks) == 1
        two_paths = Graph(list(g.vertices()) + [(v + 3, l) for v, l in g.vertices()],
                          list(g.edges()) + [(u + 3, v + 3, el) for u, v, el in g.edges()])
        for bad in (Graph([]), Graph([(0, "a"), (1, "a")]), two_paths):
            with pytest.raises(GraphError):
                repo.intern(bad)
        assert len(repo) == 1

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

    def test_intern_long_uniform_path(self):
        # One label throughout: colour refinement takes about n/2 rounds and
        # the mirror symmetry needs individualisation.
        n = 400
        path = Graph([(i, "c") for i in range(n)],
                     [(i, i + 1, "e") for i in range(n - 1)])
        reversed_ids = relabelled(path, list(range(n - 1, -1, -1)))
        repo = GraphRepository()
        gid, new = repo.intern(path)
        again, new_again, into = repo.intern_mapped(reversed_ids)
        assert (again, new, new_again) == (gid, True, False)
        assert_maps_onto(reversed_ids, into, repo.graph(gid))

    def test_find_does_not_intern(self):
        repo = GraphRepository()
        g = two_edge_path()
        assert repo.find(g) is None
        gid, _ = repo.intern(g)
        assert repo.find(relabelled(g, [7, 3, 5])) == gid
        assert repo.find(single_edge_graph()) is None
        assert len(repo) == 1

    def test_no_isomorphic_duplicates_after_workload(self):
        rng = random.Random(23)
        repo = GraphRepository()
        for _ in range(120):
            repo.intern(random_graph(rng, max_vertices=6, connected=True))
        for a, b in equal_signature_pairs(repo):
            assert search_isomorphism(repo.graph(a), repo.graph(b)) is None


@st.composite
def connected_graphs(draw, max_vertices: int = 7) -> Graph:
    n = draw(st.integers(1, max_vertices))
    labels = draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))
    edges: dict[tuple[int, int], str] = {}
    for v in range(1, n):
        edges[(draw(st.integers(0, v - 1)), v)] = draw(st.sampled_from("xy"))
    for u, v, el in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1),
                                            st.sampled_from("xy")), max_size=n)):
        if u != v:
            edges.setdefault((min(u, v), max(u, v)), el)
    return Graph(list(enumerate(labels)),
                 [(u, v, el) for (u, v), el in edges.items()])


class TestInternProperties:
    @settings(max_examples=150, deadline=None)
    @given(connected_graphs())
    def test_intern_is_idempotent(self, g):
        repo = GraphRepository()
        gid, new = repo.intern(g)
        again, new_again, into = repo.intern_mapped(g)
        assert (again, new, new_again) == (gid, True, False)
        assert len(repo) == 1
        assert_maps_onto(g, into, repo.graph(gid))

    @settings(max_examples=150, deadline=None)
    @given(connected_graphs(), st.data())
    def test_intern_is_invariant_under_relabelling(self, g, data):
        new_ids = data.draw(st.permutations(range(10, 10 + g.vertex_count)))
        copy = relabelled(g, list(new_ids))
        repo = GraphRepository()
        gid, _, into_first = repo.intern_mapped(g)
        again, new, into = repo.intern_mapped(copy)
        assert (again, new) == (gid, False)
        assert certificate(copy) == certificate(g)
        assert_maps_onto(g, into_first, repo.graph(gid))
        assert_maps_onto(copy, into, repo.graph(gid))

    @settings(max_examples=150, deadline=None)
    @given(connected_graphs(), st.data())
    def test_sparse_ids_intern_as_the_renumbered_copy(self, g, data):
        """A graph whose ids are not 0..n-1 is stored as its renumbered
        copy, the graph that is labelled: the class's host keys and its
        answers to later interns read that graph's own labelling."""
        n = g.vertex_count
        sparse = relabelled(g, data.draw(st.lists(
            st.integers(1, 3 * n), min_size=n, max_size=n, unique=True)))
        repo = GraphRepository()
        gid, new, into = repo.intern_mapped(sparse)
        stored = repo.graph(gid)
        assert new and stored.vertex_ids() == list(range(n))
        assert_maps_onto(sparse, into, stored)
        # Interning labelled the stored copy, not the graph it was given,
        # and what it recorded is what a fresh labelling of that content
        # finds.
        assert sparse._symmetry is None
        assert stored._canon is not None and stored._symmetry is not None
        fresh = content_copy(stored)
        fresh.canonical_form()
        assert stored._symmetry == fresh._symmetry
        copy = relabelled(g, list(data.draw(st.permutations(range(50, 50 + n)))))
        answer = repo.intern_mapped(copy)
        assert answer == certificate_route(repo, copy)
        assert_maps_onto(copy, answer[2], stored)

    @settings(max_examples=150, deadline=None)
    @given(connected_graphs(), st.randoms(use_true_random=False))
    def test_labelling_ignores_build_order(self, g, rng):
        """The same content built in another vertex, edge and endpoint order
        gets the same canonical form and records the same automorphisms.

        ``GraphRepository.intern_mapped`` relies on this when it answers a
        graph equal to a stored one from the stored graph's own labelling.
        """
        vertices = list(g.vertices())
        edges = [(v, u, el) if rng.random() < 0.5 else (u, v, el)
                 for u, v, el in g.edges()]
        rng.shuffle(vertices)
        rng.shuffle(edges)
        copy = Graph(vertices, edges)
        assert copy.canonical_form() == g.canonical_form()
        assert copy._symmetry == g._symmetry


class TestSparseIds:
    """A graph whose ids are not 0..n-1 keeps them and answers every query
    as its ``renumbered()`` copy does, through the renumbering."""

    PATTERN = Graph([(0, "a"), (1, "b"), (2, "a")], [(0, 1, "x"), (1, 2, "y")])

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.data())
    def test_agrees_with_the_renumbered_copy(self, rng, data):
        dense = random_graph(rng, connected=rng.random() < 0.5)
        n = dense.vertex_count
        ids = data.draw(st.lists(st.integers(-n, 3 * n + 2), min_size=n,
                                 max_size=n, unique=True))
        vertices = [(ids[v], label) for v, label in dense.vertices()]
        rng.shuffle(vertices)
        g = Graph(vertices, [(ids[u], ids[v], el) for u, v, el in dense.edges()])
        h, m = g.renumbered()
        assert m == {v: i for i, v in enumerate(sorted(ids))}
        back = {i: v for v, i in m.items()}
        assert g.vertex_ids() == sorted(ids) and h.vertex_ids() == list(range(n))
        assert [(m[v], label) for v, label in g.vertices()] == list(h.vertices())
        assert [(m[u], m[v], el) for u, v, el in g.edges()] == list(h.edges())
        for v in g.vertex_ids():
            assert g.label(v) == h.label(m[v])
            assert list(g.neighbors(v)) == sorted(g.neighbors(v))
            assert ([(m[u], el) for u, el in g.neighbors(v).items()]
                    == list(h.neighbors(m[v]).items()))
            assert g.degree(v) == h.degree(m[v])
        probes = range(min(ids) - 2, max(ids) + 3)
        assert [g.has_vertex(v) for v in probes] == [v in m for v in probes]
        assert [h.has_vertex(i) for i in range(-2, n + 2)] == [
            0 <= i < n for i in range(-2, n + 2)]
        for u in probes:
            for v in probes:
                assert g.has_edge(u, v) == (u in m and v in m and h.has_edge(m[u], m[v]))
        for u, v, el in g.edges():
            assert g.edge_label(v, u) == h.edge_label(m[v], m[u]) == el
        # Absent ids raise KeyError on both storages; a tuple would read -1
        # from the end.
        for graph, absent in ((g, [v for v in probes if v not in m]),
                              (h, [-2, -1, n, n + 1])):
            for v in absent:
                for read in (graph.label, graph.neighbors, graph.degree,
                             lambda v: graph.edge_label(v, 0)):
                    with pytest.raises(KeyError):
                        read(v)
        assert g.is_connected == h.is_connected
        comps = h.connected_components()
        assert [[(m[v], label) for v, label in c.vertices()]
                for c in g.connected_components()] == [list(c.vertices()) for c in comps]
        assert [[(m[u], m[v], el) for u, v, el in c.edges()]
                for c in g.connected_components()] == [list(c.edges()) for c in comps]
        text = "graph g {\n" + "".join(
            f"  v {back[i]} {quote(label)};\n" for i, label in h.vertices()) + "".join(
            f"  e {back[u]} {back[v]} {quote(el)};\n" for u, v, el in h.edges()) + "}\n"
        assert serialize_graph(g) == text
        assert [{p: m[x] for p, x in e.items()}
                for e in enumerate_embeddings(self.PATTERN, g)] == enumerate_embeddings(
                    self.PATTERN, h)
        if not g.is_connected:
            with pytest.raises(GraphError):
                GraphRepository().intern_mapped(g)
            return
        repo = GraphRepository()
        gid, _, into = repo.intern_mapped(g)
        assert_maps_onto(g, into, repo.graph(gid))
        _, _, into_h = GraphRepository().intern_mapped(h)
        assert into == {back[i]: stored for i, stored in into_h.items()}

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-20, 60), min_size=2, max_size=8, unique=True),
           st.randoms(use_true_random=False))
    def test_constructor_errors(self, ids, rng):
        vertices = [(v, "a") for v in ids]
        rng.shuffle(vertices)
        path = [(ids[i], ids[i + 1], "x") for i in range(len(ids) - 1)]
        u, v = ids[0], ids[1]
        absent = max(ids) + 1
        for extra_vertices, extra_edges, message in [
                ([(v, "b")], [], f"duplicate vertex id {v}"),
                ([], [(u, u, "x")], f"self-loop on vertex {u}"),
                ([], [(u, absent, "x")],
                 f"edge {u}-{absent} references an undeclared vertex"),
                ([], [(v, u, "y")], f"parallel edge {v}-{u}")]:
            with pytest.raises(GraphError) as info:
                Graph(vertices + extra_vertices, path + extra_edges)
            assert str(info.value) == message


def content_copy(g: Graph, vertex_order=None, edge_order=None) -> Graph:
    """A new graph with g's ids, labels and edges, built with the vertices
    and edges in the given orders (default: ascending)."""
    vertices = list(g.vertices())
    edges = list(g.edges())
    return Graph([vertices[i] for i in vertex_order or range(len(vertices))],
                 [edges[i] for i in edge_order or range(len(edges))])


def certificate_route(repo: GraphRepository, g: Graph) -> tuple:
    """What interning a graph of a stored class answers by certificate."""
    gid = repo.find(g)
    return gid, False, dict(zip(g.canonical_form()[1],
                                repo.graph(gid).canonical_form()[1]))


@pytest.fixture
def labelled(monkeypatch) -> list[Graph]:
    """The graphs whose canonical form is asked for, in call order."""
    calls: list[Graph] = []
    canonical_form = Graph.canonical_form

    def spy(self):
        calls.append(self)
        return canonical_form(self)

    monkeypatch.setattr(Graph, "canonical_form", spy)
    return calls


class TestContentEqualIntern:
    """A graph equal, id for id, to a stored graph is interned without
    labelling it, with the answer the certificate route gives."""

    def test_dense_stored_graph_is_not_labelled(self, labelled):
        repo = GraphRepository()
        g = parse_molecule("CC(=C)C=C")
        gid, _ = repo.intern(g)
        assert repo.graph(gid) is g
        copy = content_copy(g)
        labelled.clear()
        again, new, into = repo.intern_mapped(copy)
        assert (again, new) == (gid, False)
        assert into == {v: v for v in g.vertex_ids()}
        assert not any(h is copy for h in labelled)
        assert (again, new, into) == certificate_route(repo, copy)

    def test_renumbered_stored_graph(self, labelled):
        # Stored through renumbered(): a content-equal intern labels neither
        # the incoming graph nor the stored graph.
        rng = random.Random(97)
        for _ in range(60):
            g = leafy_graph(rng)
            g = relabelled(g, rng.sample(range(5, 40), g.vertex_count))
            repo = GraphRepository()
            gid, _ = repo.intern(g)
            stored = repo.graph(gid)
            assert stored is not g
            copy = content_copy(stored)
            labelled.clear()
            answer = repo.intern_mapped(copy)
            assert not any(h is copy or h is stored for h in labelled)
            assert answer == certificate_route(repo, copy)
            assert_maps_onto(copy, answer[2], stored)

    def test_other_build_order(self, labelled):
        rng = random.Random(101)
        repo = GraphRepository()
        g = parse_molecule("C1=CC=CCC1")
        gid, _ = repo.intern(g)
        edges = list(range(g.edge_count))
        rng.shuffle(edges)
        # Vertices in stored order, edges shuffled: the fast path answers.
        same_layout = content_copy(g, edge_order=edges)
        labelled.clear()
        answer = repo.intern_mapped(same_layout)
        assert not any(h is same_layout for h in labelled)
        assert answer == certificate_route(repo, same_layout)
        # Vertices in another order: the certificate route answers.
        vertices = list(range(g.vertex_count))
        rng.shuffle(vertices)
        shuffled = content_copy(g, vertices, edges)
        answer = repo.intern_mapped(shuffled)
        assert answer == certificate_route(repo, shuffled)
        assert answer[:2] == (gid, False)

    def test_same_layout_other_content(self, labelled):
        # Each incoming graph shares a stored graph's layout key but not its
        # content, so it is labelled.  Labels a a b b with degrees 1 2 2 1
        # in both: the path a-a-b-b is stored, and a-b-a-b is another class.
        repo = GraphRepository()
        vertices = [(0, "a"), (1, "a"), (2, "b"), (3, "b")]
        aabb = Graph(vertices, [(0, 1, "x"), (1, 2, "x"), (2, 3, "x")])
        abab = Graph(vertices, [(0, 2, "x"), (2, 1, "x"), (1, 3, "x")])
        gid, _ = repo.intern(aabb)
        assert repo._layout(abab) == repo._layout(aabb)
        other, new, into = repo.intern_mapped(abab)
        assert (other, new) == (1, True) and not isomorphic(aabb, abab)
        assert into == {v: v for v in range(4)}
        assert any(h is abab for h in labelled)
        # A six-cycle, stored, and another six-cycle on the same ids.
        ring = Graph([(i, "c") for i in range(6)],
                     [(i, (i + 1) % 6, "x") for i in range(6)])
        crossed = Graph([(i, "c") for i in range(6)],
                        [(0, 2, "x"), (2, 1, "x"), (1, 3, "x"), (3, 4, "x"),
                         (4, 5, "x"), (5, 0, "x")])
        ring_id, _ = repo.intern(ring)
        answer = repo.intern_mapped(crossed)
        assert answer[:2] == (ring_id, False)
        assert answer == certificate_route(repo, crossed)
        assert_maps_onto(crossed, answer[2], ring)
        assert any(h is crossed for h in labelled)
        # The same labels and degrees with the edge labels swapped, so that
        # the layout keys agree; the mirror maps one path onto the other.
        path = Graph([(0, "p"), (1, "q"), (2, "p")], [(0, 1, "x"), (1, 2, "y")])
        mirrored = Graph([(0, "p"), (1, "q"), (2, "p")], [(0, 1, "y"), (1, 2, "x")])
        path_id, _ = repo.intern(path)
        assert repo._layout(mirrored) == repo._layout(path)
        answer = repo.intern_mapped(mirrored)
        assert answer == (path_id, False, {0: 2, 1: 1, 2: 0})
        assert any(h is mirrored for h in labelled)
        assert len(repo) == 4


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

    def test_second_graph_is_located(self):
        text = 'graph a {\n  v 0 "a";\n}\n   graph b { v 0 "a"; }\n'
        with pytest.raises(ParseError, match="expected exactly one graph") as err:
            parse_graph(text)
        assert (err.value.line, err.value.column) == (4, 4)
        assert parse_graph(text[:text.index("   graph b")]).vertex_count == 1

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
