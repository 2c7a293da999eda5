import gc
import itertools
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstrat import rewrite
from gstrat.chem import diels_alder_rule, parse_molecule
from gstrat.dsl import load_script, run_script
from gstrat.graphs import Graph, GraphRepository, isomorphic, serialize_graph
from gstrat.matching import enumerate_embeddings
from gstrat.rewrite import (BindError, MatchCache, apply_at, bind_graph,
                            complete_derivation, enumerate_proper_derivations,
                            iter_proper_derivations, validate_match)
from gstrat.rules import CONTEXT, LEFT, RIGHT, Rule
from gstrat.strategies import EvalContext

from .oracles import (brute_automorphisms, brute_embeddings,
                      brute_rule_automorphisms, gluing_ok,
                      naive_derivation_keys, random_graph, random_rule,
                      rule_orbit_derivations, split_union_match,
                      union_apply, union_graph)
from .test_rules import relabel_rule, remove_r_rule


ASSETS = Path(__file__).parent.parent / "assets"


def chain_graphs():
    g1 = Graph([(0, "a"), (1, "a")], [(0, 1, "b")])
    g2 = Graph([(0, "a"), (1, "a"), (2, "a")], [(0, 1, "b"), (1, 2, "b")])
    return g1, g2


def keys_of(derivations):
    return {d.key for d in derivations}


class TestApplyAt:
    def test_relabel_rule_on_g1(self):
        repo = GraphRepository()
        g1, _ = chain_graphs()
        gid, _ = repo.intern(g1)
        result = apply_at(relabel_rule(), [(gid, {0: 0, 1: 1})], repo)
        assert result is not None
        (out,) = result.outputs
        g3 = Graph([(0, "a"), (1, "a")], [(0, 1, "c")])
        assert isomorphic(repo.graph(out), g3)

    def test_dangling_rejection(self):
        # removeR requires the R vertices to have no edges beyond the match.
        repo = GraphRepository()
        host = Graph([(0, "A"), (1, "R"), (2, "R"), (3, "R"), (4, "0")],
                     [(0, 1, ""), (0, 2, ""), (0, 3, ""), (3, 4, "")])
        gid, _ = repo.intern(host)
        stored = repo.graph(gid)
        by_label = {stored.label(v): v for v in stored.vertex_ids()}
        r_vertices = [v for v in stored.vertex_ids() if stored.label(v) == "R"]
        vmap = {0: by_label["A"], 1: r_vertices[0], 2: r_vertices[1],
                3: r_vertices[2]}
        assert apply_at(remove_r_rule(), [(gid, vmap)], repo) is None

    def test_simplicity_rejection(self):
        # reattachExternal must refuse to create u-v when it already exists.
        from gstrat.catalan import catalan_rules

        reattach = {r.name: r for r in catalan_rules()}["reattachExternal"]
        host = Graph([(0, "0"), (1, "R"), (2, "A"), (3, "R")],
                     [(0, 1, ""), (1, 2, ""), (0, 2, ""), (2, 3, "")])
        repo = GraphRepository()
        gid, _, into = repo.intern_mapped(host)
        vmap = {0: into[0], 1: into[1], 2: into[2]}
        assert apply_at(reattach, [(gid, vmap)], repo) is None

    def test_two_copy_application_builds_each_output_once(self, monkeypatch):
        # Two copies of a lone "a": one becomes "b" (a new class), the other
        # stays "a" (the input's class).  Only the two outputs are built.
        rule = Rule.build("mark",
                          context_vertices=[(0, "a", "b"), (1, "a", "a")])
        rule.left_components
        repo = GraphRepository()
        gid, _ = repo.intern(Graph([(0, "a")]))
        builds = []
        real = Graph.__init__

        def counting(self, *args, **kwargs):
            builds.append(1)
            real(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", counting)
        result = apply_at(rule, [(gid, {0: 0}), (gid, {1: 0})], repo)
        assert len(builds) == 2
        new_id = len(repo) - 1
        assert result.outputs == (gid, new_id) and new_id != gid
        assert repo.graph(new_id).label(0) == "b"
        assert result.fates == {(0, 0): (1, 0), (1, 0): (0, 0)}

    def test_invalid_match_raises(self):
        repo = GraphRepository()
        g1, _ = chain_graphs()
        gid, _ = repo.intern(g1)
        with pytest.raises(ValueError):
            apply_at(relabel_rule(), [(gid, {0: 0, 1: 0})], repo)

    def test_vertex_mapped_in_two_copies_raises(self):
        # Each copy maps its vertices validly, but rule vertex 0 is mapped
        # in both; no single vertex map could express this.
        rule = Rule.build("join",
                          context_vertices=[(0, "a", "a"), (1, "a", "a")],
                          right_edges=[(0, 1, "b")])
        repo = GraphRepository()
        pair, _ = repo.intern(Graph([(0, "a"), (1, "a")], [(0, 1, "x")]))
        lone, _ = repo.intern(Graph([(0, "a")]))
        copies = [(pair, {0: 0, 1: 1}), (lone, {0: 0})]
        parts = [(vmap, repo.graph(gid)) for gid, vmap in copies]
        assert not validate_match(rule, parts)
        assert validate_match(rule, parts[:1])
        with pytest.raises(ValueError):
            apply_at(rule, copies, repo)
        # A key that is no left vertex is refused as well.
        assert not validate_match(rule, [({0: 0, 1: 1, 2: 0},
                                          repo.graph(pair))])


class TestBindGraph:
    def test_single_component_rule_only_completes(self):
        repo = GraphRepository()
        _, g2 = chain_graphs()
        gid, _ = repo.intern(g2)
        partials = bind_graph(relabel_rule(), gid, repo)
        assert partials and all(p.complete for p in partials)
        assert len(partials) == 4  # 2 edges x 2 orientations

    def test_non_matching_graph_binds_nothing(self):
        repo = GraphRepository()
        gid, _ = repo.intern(Graph([(0, "z")]))
        assert bind_graph(relabel_rule(), gid, repo) == []

    @staticmethod
    def _bound_component_sizes(rule, partials):
        return {
            tuple(sorted(comp.vertex_count
                         for c, comp in enumerate(rule.left_components)
                         if c not in p.remaining_components))
            for p in partials}

    def test_diels_alder_binding_to_isoprene(self):
        # Isoprene hosts the diene or the dienophile, but never both at
        # once: the merged morphism is injective and would need six distinct
        # carbons out of five.
        repo = GraphRepository()
        rule = diels_alder_rule()
        iso_id, _ = repo.intern(parse_molecule("CC(=C)C=C"))
        partials = bind_graph(rule, iso_id, repo)
        sizes_bound = self._bound_component_sizes(rule, partials)
        assert (4,) in sizes_bound      # diene bound alone
        assert (2,) in sizes_bound      # dienophile bound alone
        assert not any(p.complete for p in partials)

    def test_diels_alder_intramolecular_completion(self):
        # A triene with an isolated double bond admits the full
        # intramolecular binding; the bimolecular predicate prunes it later.
        repo = GraphRepository()
        rule = diels_alder_rule()
        triene_id, _ = repo.intern(parse_molecule("C=CC=CCC=C"))
        partials = bind_graph(rule, triene_id, repo)
        sizes_bound = self._bound_component_sizes(rule, partials)
        assert (2, 4) in sizes_bound
        completes = [p for p in partials if p.complete]
        assert completes
        assert any(complete_derivation(p, repo) is not None for p in completes)

    def test_iterated_binding_matches_direct_enumeration(self):
        repo = GraphRepository()
        iso_id, _ = repo.intern(parse_molecule("CC(=C)C=C"))
        chx_id, _ = repo.intern(parse_molecule("C1=CC=CCC1"))
        cache = MatchCache()
        rule = diels_alder_rule()
        keys = set()
        for first in bind_graph(rule, chx_id, repo, cache):
            if first.complete:
                d = complete_derivation(first, repo)
                if d:
                    keys.add(d.key)
                continue
            for second_gid in (iso_id, chx_id):
                for second in bind_graph(first, second_gid, repo, cache):
                    assert second.complete
                    d = complete_derivation(second, repo)
                    if d:
                        keys.add(d.key)
        direct = enumerate_proper_derivations(
            rule, [iso_id, chx_id], [chx_id], repo=repo, cache=cache)
        direct_keys = {d.key for d in direct if chx_id in d.inputs}
        assert keys == direct_keys

    def test_incomplete_cannot_finalize(self):
        repo = GraphRepository()
        iso_id, _ = repo.intern(parse_molecule("CC(=C)C=C"))
        partial = next(p for p in bind_graph(diels_alder_rule(), iso_id, repo)
                       if not p.complete)
        with pytest.raises(BindError):
            complete_derivation(partial, repo)


class TestEnumerateProperDerivations:
    def test_two_graph_universe(self):
        repo = GraphRepository()
        g1, g2 = chain_graphs()
        id1, _ = repo.intern(g1)
        id2, _ = repo.intern(g2)
        derivations = enumerate_proper_derivations(
            relabel_rule(), [id1, id2], [id1, id2], repo=repo)
        assert len(derivations) == 2
        inputs = {d.inputs for d in derivations}
        assert inputs == {(id1,), (id2,)}

    def test_two_copies_of_same_graph(self):
        # L has two isolated "a" vertices; R joins them with a "b" edge.
        rule = Rule.build("join",
                          context_vertices=[(0, "a", "a"), (1, "a", "a")],
                          right_edges=[(0, 1, "b")])
        repo = GraphRepository()
        gid, _ = repo.intern(Graph([(0, "a")]))
        derivations = enumerate_proper_derivations(rule, [gid], [gid], repo=repo)
        assert len(derivations) == 1
        assert derivations[0].inputs == (gid, gid)
        out = repo.graph(derivations[0].outputs[0])
        assert out.edge_count == 1
        # the match maps each rule vertex in its own copy of the graph
        assert derivations[0].match == ((gid, {0: 0}), (gid, {1: 0}))

    def test_diels_alder_seed_pair(self):
        repo = GraphRepository()
        iso_id, _ = repo.intern(parse_molecule("CC(=C)C=C"))
        chx_id, _ = repo.intern(parse_molecule("C1=CC=CCC1"))
        bimolecular = lambda inputs: len(inputs) == 2
        derivations = enumerate_proper_derivations(
            diels_alder_rule(), [iso_id, chx_id], [iso_id, chx_id],
            repo=repo, left_filter=bimolecular)
        assert derivations
        assert all(len(d.inputs) == 2 for d in derivations)
        # the known chx-as-diene + isoprene-vinyl adduct is among the products
        adduct = parse_molecule("CC(=C)C1CC2CCC1C=C2")
        pair_products = [gid for d in derivations
                         if set(d.inputs) == {iso_id, chx_id}
                         for gid in d.outputs]
        assert any(isomorphic(repo.graph(gid), adduct) for gid in pair_products)

    def test_atom_mapping_of_chemical_derivations(self):
        repo = GraphRepository()
        iso_id, _ = repo.intern(parse_molecule("CC(=C)C=C"))
        chx_id, _ = repo.intern(parse_molecule("C1=CC=CCC1"))
        derivations = enumerate_proper_derivations(
            diels_alder_rule(), [iso_id, chx_id], [iso_id, chx_id],
            repo=repo, left_filter=lambda inputs: len(inputs) == 2)
        d = next(d for d in derivations if set(d.inputs) == {iso_id, chx_id})
        assert d.atom_map is not None
        assert len(d.atom_map) == 13 + 14
        assert len(set(d.atom_map.values())) == 27
        for (pos, vid), (opos, ovid) in d.atom_map.items():
            in_g = repo.graph(d.match[pos][0])
            out_g = repo.graph(d.outputs[opos])
            assert in_g.label(vid) == out_g.label(ovid)

    def test_atom_mapping_absent_for_vertex_changing_rules(self):
        repo = GraphRepository()
        host = Graph([(0, "A"), (1, "R"), (2, "R"), (3, "R")],
                     [(0, 1, ""), (0, 2, ""), (0, 3, "")])
        gid, _ = repo.intern(host)
        derivations = enumerate_proper_derivations(remove_r_rule(), [gid], [gid],
                                                   repo=repo)
        assert derivations and derivations[0].atom_map is None

    def test_identity_like_rule_maps_identically(self):
        rule = Rule.build("noop", context_vertices=[(0, "a", "a")])
        repo = GraphRepository()
        gid, _ = repo.intern(Graph([(0, "a")]))
        (d,) = enumerate_proper_derivations(rule, [gid], [gid], repo=repo)
        assert d.atom_map == {(0, 0): (0, 0)}

    def test_retro_diels_alder_round_trip(self):
        repo = GraphRepository()
        iso_id, _ = repo.intern(parse_molecule("CC(=C)C=C"))
        chx_id, _ = repo.intern(parse_molecule("C1=CC=CCC1"))
        rule = diels_alder_rule()
        derivations = enumerate_proper_derivations(
            rule, [iso_id, chx_id], [iso_id, chx_id], repo=repo,
            left_filter=lambda inputs: len(inputs) == 2)
        inverse = rule.inverted()
        for d in derivations:
            if set(d.inputs) != {iso_id, chx_id}:
                continue
            back = enumerate_proper_derivations(
                inverse, list(dict.fromkeys(d.outputs)), repo=repo)
            assert any(b.inputs == d.outputs and b.outputs == d.inputs
                       for b in back)

    def test_required_set_restricts_inputs(self):
        repo = GraphRepository()
        g1, g2 = chain_graphs()
        id1, _ = repo.intern(g1)
        id2, _ = repo.intern(g2)
        derivations = enumerate_proper_derivations(
            relabel_rule(), [id1, id2], [id2], repo=repo)
        assert {d.inputs for d in derivations} == {(id2,)}

    def test_derivations_are_proper(self):
        # Every copy of a match is nonempty, the copies' domains partition
        # the left vertices into whole left components, each component's
        # part is one of its embeddings into the copy's host, and together
        # the copies pass validate_match.
        rng = random.Random(43)
        repo = GraphRepository()
        ids = [repo.intern(random_graph(rng, max_vertices=5, connected=True))[0]
               for _ in range(4)]
        checked = two_copies = 0
        for _ in range(40):
            rule = random_rule(rng)
            components = [set(c.vertex_ids()) for c in rule.left_components]
            for d in enumerate_proper_derivations(rule, ids, repo=repo):
                assert sorted(gid for gid, _ in d.match) == list(d.inputs)
                domains = [set(vmap) for _, vmap in d.match]
                assert all(domains)
                assert sum(map(len, domains)) == rule.left.vertex_count
                assert set().union(*domains) == set(rule.left.vertex_ids())
                for (gid, vmap), domain in zip(d.match, domains):
                    host = repo.graph(gid)
                    for comp, vids in zip(rule.left_components, components):
                        assert vids <= domain or not vids & domain
                        if vids <= domain:
                            part = {v: vmap[v] for v in vids}
                            assert part in enumerate_embeddings(comp, host)
                assert validate_match(rule, [(vmap, repo.graph(gid))
                                             for gid, vmap in d.match])
                checked += 1
                two_copies += len(d.match) == 2
        assert checked > 40 and two_copies > 20, (checked, two_copies)


def symmetric_pair_rule():
    # Two identical a-x-b components; R joins their "a" vertices.  Swapping
    # the components is a rule automorphism.
    return Rule.build("pair",
                      context_vertices=[(0, "a", "a"), (1, "b", "b"),
                                        (2, "a", "a"), (3, "b", "b")],
                      context_edges=[(0, 1, "x", "x"), (2, 3, "x", "x")],
                      right_edges=[(0, 2, "y")])


def count_applications(monkeypatch):
    calls = []
    real = rewrite.apply_at

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(rewrite, "apply_at", counting)
    return calls


class TestOrbitPruning:
    def test_diels_alder_pair_applies_each_orbit_once(self, monkeypatch):
        # 64 complete matches fall into 16 orbits under the rule's order-2
        # automorphism and the two orders of the bound copies, and into 9
        # once the hosts' automorphisms (cyclohexadiene's mirror) join in:
        # one application per derivation.
        repo = GraphRepository()
        iso_id, _ = repo.intern(parse_molecule("CC(=C)C=C"))
        chx_id, _ = repo.intern(parse_molecule("C1=CC=CCC1"))
        calls = count_applications(monkeypatch)
        derivations = enumerate_proper_derivations(
            diels_alder_rule(), [iso_id, chx_id], [iso_id, chx_id],
            repo=repo, left_filter=lambda ids: len(ids) == 2)
        assert len(calls) == 9
        assert len(derivations) == 9
        # Requiring the whole universe changes where binding starts, not
        # the order in which derivation keys are discovered.
        unrequired = enumerate_proper_derivations(
            diels_alder_rule(), [iso_id, chx_id], repo=repo,
            left_filter=lambda ids: len(ids) == 2)
        assert [d.key for d in unrequired] == [d.key for d in derivations]

    def test_symmetric_rule_with_one_graph_in_both_copies(self, monkeypatch):
        repo = GraphRepository()
        edge_id, _ = repo.intern(Graph([(0, "a"), (1, "b")], [(0, 1, "x")]))
        star_id, _ = repo.intern(Graph([(0, "b"), (1, "a"), (2, "a")],
                                       [(0, 1, "x"), (0, 2, "x")]))
        rule = symmetric_pair_rule()
        assert len(rule.automorphisms) == 2
        ids = [edge_id, star_id]
        for required in ([], [edge_id], [star_id], ids):
            fast = enumerate_proper_derivations(rule, ids, required, repo=repo)
            assert keys_of(fast) == naive_derivation_keys(rule, ids, required,
                                                          repo)
        # Starting from the required edge binds either component first; the
        # two complete matches differ by the component swap and by the order
        # of the copies, so only one is applied.
        calls = count_applications(monkeypatch)
        (d,) = enumerate_proper_derivations(rule, [edge_id], [edge_id],
                                            repo=repo)
        assert d.inputs == (edge_id, edge_id)
        assert len(calls) == 1

    def test_bfs_applies_once_per_derivation(self, monkeypatch):
        # Without host automorphisms the BFS makes 1720 applications.
        calls = count_applications(monkeypatch)
        rep = run_script(load_script(str(ASSETS / "diels_bfs.gs")))
        assert (rep.new_graphs, rep.derivations) == (825, 1278)
        assert len(calls) == 1278


def related(first, second, rule, automorphisms_of):
    """Is there a rule automorphism sigma, a pairing of the bound copies
    and a host automorphism h per copy such that second(sigma(v)) =
    h(first(v)) for every rule vertex v?  By brute force."""
    by_domain = {frozenset(vmap): (gid, vmap) for gid, vmap in second.copies}
    for sigma_items in brute_rule_automorphisms(rule):
        sigma = dict(sigma_items)
        for gid, m1 in first.copies:
            other_gid, m2 = by_domain.get(frozenset(sigma[rv] for rv in m1),
                                          (None, None))
            if other_gid != gid:
                break
            if not any(all(h[m1[rv]] == m2[sigma[rv]] for rv in m1)
                       for h in automorphisms_of(gid)):
                break
        else:
            return True
    return False


def symmetric_host(rng):
    """A small connected host, often with symmetry: few labels, and leaves
    hung on a random core."""
    g = random_graph(rng, max_vertices=4, labels=("a", "b"), edge_labels=("x",),
                     connected=True)
    n = g.vertex_count
    vertices, edges = list(g.vertices()), list(g.edges())
    for _ in range(rng.randint(0, 3)):
        vertices.append((n, rng.choice("ab")))
        edges.append((rng.randrange(n), n, rng.choice("xy")))
        n += 1
    return Graph(vertices, edges)


class NoHostSymmetry:
    """Stands in for the repository in ``_orbit_key``: no stored graph has a
    known automorphism, so every tuple is its own host key and the key is
    the rule-orbit key."""

    def graph(self, gid):
        return self

    def orbit_key(self, images):
        return images


class TestHostOrbits:
    def test_equal_keys_imply_a_relating_automorphism(self):
        rng = random.Random(73)
        compared = by_host = 0
        for _ in range(600):
            rule = random_rule(rng)
            repo = GraphRepository()
            universe = list(dict.fromkeys(repo.intern(symmetric_host(rng))[0]
                                          for _ in range(2)))
            automorphisms = {gid: brute_automorphisms(repo.graph(gid))
                             for gid in universe}
            # Each memo serves one repository over the maps of one cache,
            # which outlives it.
            cache, host_memo, rule_memo = MatchCache(), {}, {}
            by_key = {}
            for partial in rewrite._complete_matches(rule, universe, (), repo,
                                                     cache):
                key = rewrite._orbit_key(partial, rule.automorphisms, repo,
                                         host_memo)
                by_key.setdefault(key, []).append(partial)

            def rule_orbit(partial):
                return rewrite._orbit_key(partial, rule.automorphisms,
                                          NoHostSymmetry(), rule_memo)
            for first, *others in by_key.values():
                for other in others:
                    assert related(first, other, rule, automorphisms.get)
                    compared += 1
                    by_host += rule_orbit(first) != rule_orbit(other)
        assert compared > 150 and by_host > 100, (compared, by_host)

    def test_each_copy_key_once_per_call(self, monkeypatch):
        # Complete matches share their copies.  Within one
        # iter_proper_derivations call, the stored graph of each (copy,
        # rule automorphism) is asked for its host key once, and a memoised
        # key equals the key computed afresh.
        real = rewrite._orbit_key
        calls = []  # per memo: [memo, (id(map), sigma index) pairs, lookups]

        def counting(partial, automorphisms, repo, memo):
            if not calls or calls[-1][0] is not memo:
                calls.append([memo, set(), 0])
            entry = calls[-1]
            entry[1].update((id(vmap), s) for _, vmap in partial.copies
                            for s in range(len(automorphisms)))

            class Counted:
                def graph(self, gid):
                    entry[2] += 1
                    return repo.graph(gid)
            key = real(partial, automorphisms, Counted(), memo)
            assert key == real(partial, automorphisms, repo, {})
            return key

        monkeypatch.setattr(rewrite, "_orbit_key", counting)
        rng = random.Random(89)
        copy_keys = 0
        for _ in range(200):
            rule = random_rule(rng)
            if len(rule.left_components) != 2:
                continue
            repo = GraphRepository()
            ids = list(dict.fromkeys(repo.intern(symmetric_host(rng))[0]
                                     for _ in range(2)))
            calls.clear()
            cache = MatchCache()
            for required in ([], ids[:1]):
                enumerate_proper_derivations(rule, ids, required, repo=repo,
                                             cache=cache)
            for memo, pairs, asked in calls:
                assert asked == len(pairs) == len(memo)
                copy_keys += asked
        assert copy_keys > 400, copy_keys
        # The Diels-Alder pair: two components, two automorphisms.  Its 32
        # complete matches would ask for 32 * 2 copies * 2 automorphisms =
        # 128 host keys; 24 distinct ones exist.
        repo, ids = diels_alder_pair()
        calls.clear()
        rule = diels_alder_rule()
        enumerate_proper_derivations(rule, ids, repo=repo)
        ((memo, pairs, asked),) = calls
        assert asked == len(pairs) == len(memo) == 24
        assert sum(1 for _ in rewrite._complete_matches(
            rule, ids, (), repo, MatchCache())) == 32

    def test_equals_rule_orbit_reference(self, monkeypatch):
        # Same derivations in the same order, with the same matches and
        # atom maps, as the loop without host-orbit pruning.
        rng = random.Random(79)
        calls = count_applications(monkeypatch)
        pruned = derivations = 0
        for _ in range(400):
            repo = GraphRepository()
            ids = list(dict.fromkeys(
                repo.intern(symmetric_host(rng) if rng.random() < 0.5 else
                            random_graph(rng, max_vertices=6, connected=True))[0]
                for _ in range(rng.randint(1, 3))))
            rule = random_rule(rng, max_components=3)
            required = [gid for gid in ids if rng.random() < 0.4]
            left_filter = (None if rng.random() < 0.7 else
                           lambda inputs, k=rng.randint(1, 2): len(inputs) <= k)
            calls.clear()
            want = rule_orbit_derivations(rule, ids, required, repo, left_filter)
            reference = len(calls)
            calls.clear()
            got = enumerate_proper_derivations(rule, ids, required, repo=repo,
                                               left_filter=left_filter)
            pruned += reference - len(calls)
            assert [fingerprint(d) for d in got] == [fingerprint(d) for d in want]
            derivations += len(got)
        assert derivations > 400 and pruned > 300, (derivations, pruned)


def full_matches(rule, host):
    """Injective merges of one embedding per left component into the host."""
    per_comp = [enumerate_embeddings(comp, host)
                for comp in rule.left_components]
    for combo in itertools.product(*per_comp):
        merged = {k: v for m in combo for k, v in m.items()}
        if len(set(merged.values())) == len(merged):
            yield merged


def gluing_cases(seed):
    """120 random rules, each with the two random connected graphs that
    form its universe, drawn from one seeded generator."""
    rng = random.Random(seed)
    for _ in range(120):
        rule = random_rule(rng)
        yield rule, [random_graph(rng, max_vertices=5, connected=True)
                     for _ in range(2)]


def union_matches(rule, repo, universe):
    """(graph ids, full match into their ``union_graph``) for every
    multiset of the universe with one to as many copies as the rule has
    left components, rejected matches included."""
    for size in range(1, len(rule.left_components) + 1):
        for ids in itertools.combinations_with_replacement(universe, size):
            for vmap in full_matches(rule, union_graph(repo, ids)):
                yield ids, vmap


def per_copy_maps(rule, host):
    """Every injective merge of one embedding per left component of a
    nonempty component subset into the host, by brute force."""
    comps = rule.left_components
    for size in range(1, len(comps) + 1):
        for subset in itertools.combinations(comps, size):
            per_comp = [sorted(brute_embeddings(c, host)) for c in subset]
            for combo in itertools.product(*per_comp):
                merged = {k: v for items in combo for k, v in items}
                if len(set(merged.values())) == len(merged):
                    yield merged


def gluing_outcomes(rng):
    """(rule, outcome) of the production gluing check on every per-copy map
    of a random rule into a random host, after checking that the reference
    check gives the same outcome."""
    rule = random_rule(rng)
    host = random_graph(rng, max_vertices=6)
    for vmap in per_copy_maps(rule, host):
        ok = rewrite._gluing_ok(rule, [(vmap, host)])
        assert ok == gluing_ok(rule, [(vmap, host)]), (rule, vmap, host)
        yield rule, ok


class TestGluingDifferential:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_agrees_with_the_reference_check(self, seed):
        for _ in gluing_outcomes(random.Random(seed)):
            pass

    def test_reference_cases_reach_deletions_and_creations(self):
        # The same generator as above, seeded: the rules delete vertices
        # and create edges between matched vertices, and both kinds get
        # accepted and rejected copies.
        rng = random.Random(59)
        seen = set()
        for _ in range(300):
            for rule, ok in gluing_outcomes(rng):
                plan = rule.gluing_plan
                seen.add(("deletes", bool(plan.deleted), ok))
                seen.add(("creates", bool(plan.created), ok))
        assert {(kind, True, ok) for kind in ("deletes", "creates")
                for ok in (True, False)} <= seen

    def test_full_match_passes_iff_every_copy_passes(self):
        outcomes = []
        for rule, graphs in gluing_cases(53):
            repo = GraphRepository()
            universe = [repo.intern(g)[0] for g in graphs]
            for ids, vmap in union_matches(rule, repo, universe):
                per_copy = [rewrite._gluing_ok(rule, [(local, repo.graph(gid))])
                            for gid, local in split_union_match(repo, ids, vmap)]
                whole = rewrite._gluing_ok(
                    rule, [(vmap, union_graph(repo, ids))])
                assert whole == all(per_copy)
                outcomes.append(whole)
        assert True in outcomes and False in outcomes

    def test_apply_at_equals_union_apply(self):
        # The same full matches, applied by apply_at in one repository and
        # by the union-host reference in a twin that holds the same graphs.
        # A graph is interned in both after each match, and apply_at's
        # fates are read only at the end, after every later application.
        rng = random.Random(67)
        held = []
        rejected = 0
        for rule, graphs in gluing_cases(53):
            repo, twin = GraphRepository(), GraphRepository()
            universe = [repo.intern(g)[0] for g in graphs]
            assert [twin.intern(g)[0] for g in graphs] == universe
            for ids, vmap in union_matches(rule, repo, universe):
                got = apply_at(rule, split_union_match(repo, ids, vmap), repo)
                want = union_apply(rule, ids, vmap, twin)
                assert len(repo) == len(twin)
                if want is None:
                    assert got is None
                    rejected += 1
                else:
                    assert got.outputs == want.outputs
                    held.append((rule, got, dict(want.fates)))
                extra = random_graph(rng, max_vertices=5, connected=True)
                assert repo.intern(extra)[0] == twin.intern(extra)[0]
            for gid in range(len(repo)):
                g, h = repo.graph(gid), twin.graph(gid)
                assert serialize_graph(g) == serialize_graph(h)
                assert ([list(g.neighbors(v).items()) for v in g.vertex_ids()]
                        == [list(h.neighbors(v).items())
                            for v in h.vertex_ids()])
        multi_output = deleting = 0
        for rule, got, fates in held:
            assert got.fates == fates
            multi_output += len(got.outputs) > 1
            deleting += bool(rule.gluing_plan.deleted)
        assert len(held) > 100 and rejected > 100
        assert multi_output > 100 and deleting > 10, (multi_output, deleting)

    def test_chained_bindings_always_complete(self):
        rng = random.Random(59)
        completed = 0
        for _ in range(120):
            rule = random_rule(rng)
            repo = GraphRepository()
            universe = [repo.intern(random_graph(rng, max_vertices=5,
                                                 connected=True))[0]
                        for _ in range(2)]
            cache = MatchCache()
            frontier = [p for gid in universe
                        for p in bind_graph(rule, gid, repo, cache)]
            while frontier:
                partial = frontier.pop()
                if partial.complete:
                    assert complete_derivation(partial, repo) is not None
                    completed += 1
                    continue
                frontier.extend(p for gid in universe
                                for p in bind_graph(partial, gid, repo, cache))
        assert completed > 0


def count_fates_builds(monkeypatch):
    """Record each fates dict built from here on."""
    built = []
    real = rewrite._fates

    def counting(result):
        built.append(real(result))
        return built[-1]
    monkeypatch.setattr(rewrite, "_fates", counting)
    return built


class TestLazyFates:
    """``ApplyResult.fates`` and ``Derivation.atom_map`` are built on first
    read, from data that later interns and applications do not change."""

    def test_retro_diels_alder_split_read_late(self):
        # The twin repository mirrors every intern, so each reference
        # application, run as soon as its derivation is yielded, sees the
        # same stored graphs.
        rng = random.Random(79)
        repo, twin = GraphRepository(), GraphRepository()
        for r in (repo, twin):
            ids = [r.intern(parse_molecule(s))[0]
                   for s in ("CC(=C)C=C", "C1=CC=CCC1")]
            adducts = sorted({gid for d in enumerate_proper_derivations(
                diels_alder_rule(), ids, ids, repo=r,
                left_filter=lambda inputs: len(inputs) == 2)
                for gid in d.outputs})
        inverse = diels_alder_rule().inverted()
        held = []
        for d in iter_proper_derivations(inverse, adducts, repo=repo):
            (gid, vmap), = d.match
            held.append((d, dict(union_apply(inverse, (gid,), vmap, twin).fates)))
            extra = random_graph(rng, max_vertices=5, connected=True)
            assert repo.intern(extra)[0] == twin.intern(extra)[0]
        assert len(repo) == len(twin)
        for d, fates in held:
            assert d.atom_map == fates
        assert sum(len(d.outputs) == 2 for d, _ in held) > 10

    def test_script_run_builds_no_atom_map(self, monkeypatch):
        builds = count_fates_builds(monkeypatch)
        rep = run_script(load_script(str(ASSETS / "diels_subspace.gs")))
        assert rep.derivations == 236
        assert builds == []

    def test_atom_map_built_once_on_first_read(self, monkeypatch):
        repo, ids = diels_alder_pair()
        builds = count_fates_builds(monkeypatch)
        d = enumerate_proper_derivations(diels_alder_rule(), ids, repo=repo)[0]
        assert builds == []
        first = d.atom_map
        assert len(builds) == 1 and dict(first) == builds[0]
        assert d.atom_map is first and len(builds) == 1

    def test_read_only(self):
        repo, ids = diels_alder_pair()
        rule = diels_alder_rule()
        d = enumerate_proper_derivations(rule, ids, repo=repo)[0]
        for fates in (apply_at(rule, d.match, repo).fates, d.atom_map):
            before = dict(fates)
            for key in (next(iter(fates)), (-1, -1)):
                with pytest.raises(TypeError):
                    fates[key] = (0, 0)
            assert dict(fates) == before


def stored_content(g):
    """The labels and, in dict order, the neighbour items of a graph."""
    return ([g.label(v) for v in g.vertex_ids()],
            [list(g.neighbors(v).items()) for v in g.vertex_ids()])


@pytest.fixture
def stored_graphs(monkeypatch):
    """(graph, its content when stored) for every graph that any
    repository stores while the test runs."""
    stored = []
    real = GraphRepository.intern_mapped

    def recording(repo, g):
        result = real(repo, g)
        if result[1]:
            graph = repo.graph(result[0])
            stored.append((graph, stored_content(graph)))
        return result

    monkeypatch.setattr(GraphRepository, "intern_mapped", recording)
    return stored


def rule_edits(rule):
    """Which kinds of change a rule makes to the host."""
    kinds = {rv.kind for rv in rule.vertices.values()}
    edges = [(rule.vertices[u].kind, rule.vertices[v].kind, e.kind)
             for (u, v), e in rule.edges.items()]
    return {"deletes vertex": LEFT in kinds,
            "deletes edge": (CONTEXT, CONTEXT, LEFT) in edges,
            "creates edge": any(kind == RIGHT for *_, kind in edges),
            "relabels": any(e.kind == CONTEXT and e.left_label != e.right_label
                            for e in rule.edges.values())
            or any(v.kind == CONTEXT and v.left_label != v.right_label
                   for v in rule.vertices.values())}


class TestStoredGraphsReadOnly:
    """``apply_at`` reads the first copy's stored dicts in place; no
    application writes into a stored graph."""

    def test_gluing_cases(self, stored_graphs):
        applied = dict.fromkeys(("deletes vertex", "deletes edge",
                                 "creates edge", "relabels"), 0)
        for rule, graphs in gluing_cases(53):
            repo = GraphRepository()
            universe = [repo.intern(g)[0] for g in graphs]
            for ids, vmap in union_matches(rule, repo, universe):
                if apply_at(rule, split_union_match(repo, ids, vmap),
                            repo) is not None:
                    for kind, made in rule_edits(rule).items():
                        applied[kind] += made
        assert all(stored_content(g) == content for g, content in stored_graphs)
        assert len(stored_graphs) > 300 and min(applied.values()) > 15, (
            len(stored_graphs), applied)

    def test_bfs_script(self, stored_graphs):
        rep = run_script(load_script(str(ASSETS / "diels_bfs.gs")))
        assert (rep.new_graphs, rep.derivations) == (825, 1278)
        assert len(stored_graphs) == 827
        assert all(stored_content(g) == content for g, content in stored_graphs)


@pytest.fixture
def built_by_apply(monkeypatch):
    """Every graph that ``apply_at`` builds while the test runs."""
    built = []

    def recording(*args, **kwargs):
        built.append(Graph(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(rewrite, "Graph", recording)
    return built


def rebuilt_by_the_public_constructor(g):
    """Is g, built from ``apply_at``'s layout, the graph that the public
    constructor builds from its vertices and edges: the same labels, the
    same neighbour items in the same order, edge count and connectivity?"""
    public = Graph(list(g.vertices()), list(g.edges()))
    return (list(g.vertices()) == list(public.vertices())
            and all(list(g.neighbors(v).items()) == list(public.neighbors(v).items())
                    for v in public.vertex_ids())
            and g.edge_count == public.edge_count
            and g.is_connected == public.is_connected)


class TestLayoutBuild:
    """``apply_at`` hands its laid-out neighbour dicts to ``Graph``
    unchecked; each graph must equal the public constructor's."""

    @pytest.mark.parametrize("seed", [53, 97])
    def test_gluing_cases(self, built_by_apply, seed):
        applied = 0
        for rule, graphs in gluing_cases(seed):
            repo = GraphRepository()
            universe = [repo.intern(g)[0] for g in graphs]
            for ids, vmap in union_matches(rule, repo, universe):
                applied += apply_at(rule, split_union_match(repo, ids, vmap),
                                    repo) is not None
        assert all(map(rebuilt_by_the_public_constructor, built_by_apply))
        assert applied > 300 and len(built_by_apply) > applied, (
            applied, len(built_by_apply))

    def test_bfs_script(self, built_by_apply):
        rep = run_script(load_script(str(ASSETS / "diels_bfs.gs")))
        assert (rep.new_graphs, rep.derivations) == (825, 1278)
        assert len(built_by_apply) >= 1278
        assert all(map(rebuilt_by_the_public_constructor, built_by_apply))


class TestMatchCache:
    def test_one_query_per_distinct_key(self):
        repo = GraphRepository()
        ids = [repo.intern(g)[0] for g in chain_graphs()]
        rules = (relabel_rule(), diels_alder_rule())
        cache = MatchCache()
        assert cache.queries == 0
        keys = [(rule, ci, gid) for rule in rules
                for ci in range(len(rule.left_components)) for gid in ids]
        for n, (rule, ci, gid) in enumerate(keys, 1):
            cache.embeddings(rule, ci, gid, repo)
            assert cache.queries == n
        for rule, ci, gid in keys:
            cache.embeddings(rule, ci, gid, repo)
        assert cache.queries == len(keys) == 6

    def test_empty_cache_is_the_one_used(self):
        repo = GraphRepository()
        ids = [repo.intern(g)[0] for g in chain_graphs()]
        cache = MatchCache()
        enumerate_proper_derivations(relabel_rule(), ids, repo=repo, cache=cache)
        assert cache.queries == 2
        other = MatchCache()
        bind_graph(relabel_rule(), ids[0], repo, other)
        assert other.queries == 1


    def test_second_repository_rejected(self):
        # Graph ids are per repository: id 0 is an x edge in one and a y
        # edge in the other, so serving both from one cache would match
        # the y edge with the x edge's embeddings.
        rule = Rule.build("relabel",
                          context_vertices=[(0, "z", "z"), (1, "z", "z")],
                          context_edges=[(0, 1, "x", "w")])
        repo_a, repo_b = GraphRepository(), GraphRepository()
        a, _ = repo_a.intern(Graph([(0, "z"), (1, "z")], [(0, 1, "x")]))
        b, _ = repo_b.intern(Graph([(0, "z"), (1, "z")], [(0, 1, "y")]))
        assert a == b
        cache = MatchCache()
        assert len(enumerate_proper_derivations(rule, [a], repo=repo_a,
                                                cache=cache)) == 1
        assert enumerate_proper_derivations(rule, [b], repo=repo_b) == []
        with pytest.raises(ValueError, match="another repository"):
            enumerate_proper_derivations(rule, [b], repo=repo_b, cache=cache)
        with pytest.raises(ValueError, match="another repository"):
            bind_graph(rule, b, repo_b, cache)
        # The first repository is still served.
        assert len(bind_graph(rule, a, repo_a, cache)) == 2

    def test_repeated_call_binds_nothing_anew(self, monkeypatch):
        repo = GraphRepository()
        iso_id, _ = repo.intern(parse_molecule("CC(=C)C=C"))
        chx_id, _ = repo.intern(parse_molecule("C1=CC=CCC1"))
        counts = {"_gluing_ok": 0, "embeddings": 0}
        for owner, name in ((rewrite, "_gluing_ok"), (MatchCache, "embeddings")):
            real = getattr(owner, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
        applications = count_applications(monkeypatch)
        cache = MatchCache()
        rule = diels_alder_rule()
        first = enumerate_proper_derivations(
            rule, [iso_id, chx_id], [chx_id], repo=repo, cache=cache)
        assert counts["embeddings"] > 0
        assert counts["_gluing_ok"] > len(applications)
        for name in counts:
            counts[name] = 0
        applications.clear()
        again = enumerate_proper_derivations(
            rule, [iso_id, chx_id], [chx_id], repo=repo, cache=cache)
        assert [d.key for d in again] == [d.key for d in first]
        # Only the full-match check inside each application is left, and
        # the first answers are held, so no match is applied again.
        assert counts == {"_gluing_ok": len(applications), "embeddings": 0}

    def test_cache_freed_without_the_cycle_collector(self):
        # The binding loop holds the cache only in frames and closures that
        # form no reference cycle, so dropping it frees it at once.
        repo = GraphRepository()
        iso_id, _ = repo.intern(parse_molecule("CC(=C)C=C"))
        chx_id, _ = repo.intern(parse_molecule("C1=CC=CCC1"))
        cache = MatchCache()
        alive = weakref.ref(cache)
        gc.disable()
        try:
            assert enumerate_proper_derivations(
                diels_alder_rule(), [iso_id, chx_id], repo=repo, cache=cache)
            del cache
            assert alive() is None
        finally:
            gc.enable()


def fingerprint(d):
    """What a caller sees of a derivation, match and atom map included."""
    return (d.key, d.inputs,
            [(gid, sorted(vmap.items())) for gid, vmap in d.match], d.atom_map)


class TestWarmCacheDifferential:
    def test_shared_cache_equals_fresh_cache(self):
        rng = random.Random(61)
        derivations = 0
        three_components = 0
        for _ in range(40):
            repo = GraphRepository()
            pool = list(dict.fromkeys(
                repo.intern(random_graph(rng, max_vertices=6, connected=True))[0]
                for _ in range(6)))
            cache = MatchCache()
            for _ in range(3):
                rule = random_rule(rng, max_components=3)
                three_components += len(rule.left_components) == 3
                # Universes grow and shrink around one shared cache.
                for size in (1, 3, 5, 2, 4, 1):
                    universe = rng.sample(pool, min(size, len(pool)))
                    required = [gid for gid in universe if rng.random() < 0.4]
                    warm = enumerate_proper_derivations(
                        rule, universe, required, repo=repo, cache=cache)
                    fresh = enumerate_proper_derivations(
                        rule, universe, required, repo=repo)
                    assert ([fingerprint(d) for d in warm]
                            == [fingerprint(d) for d in fresh])
                    derivations += len(warm)
        assert derivations > 100 and three_components > 5


def diels_alder_pair():
    repo = GraphRepository()
    iso_id, _ = repo.intern(parse_molecule("CC(=C)C=C"))
    chx_id, _ = repo.intern(parse_molecule("C1=CC=CCC1"))
    return repo, [iso_id, chx_id]


class TestDerivationMemo:
    """A ``MatchCache`` applies a (rule, match) once while its derivation
    is held, and keeps no derivation alive on its own."""

    def test_bfs_inversions_equal_fresh_cache(self):
        ctx = EvalContext()
        run_script(load_script(str(ASSETS / "diels_bfs.gs")), ctx=ctx)
        repo = ctx.repo
        edges = random.Random(71).sample(ctx.sink.edges, 150)
        queries = [list(dict.fromkeys(gid for gid, _ in e.outputs)) for e in edges]
        inverse = diels_alder_rule().inverted()
        cache = MatchCache()
        held, seen, reused = [], set(), 0
        # Every query twice, the second pass in reverse order, with every
        # answer held: the second pass is answered from the memo.
        for universe in queries + queries[::-1]:
            warm = enumerate_proper_derivations(inverse, universe, repo=repo,
                                                cache=cache)
            fresh = enumerate_proper_derivations(inverse, universe, repo=repo)
            assert ([fingerprint(d) for d in warm]
                    == [fingerprint(d) for d in fresh])
            reused += sum(id(d) in seen for d in warm)
            seen.update(id(d) for d in warm)
            held.append(warm)
        assert reused >= sum(map(len, held[:len(queries)])), reused

    def test_random_rules_equal_fresh_cache(self):
        rng = random.Random(73)
        held, seen, reused = [], set(), 0
        for _ in range(30):
            repo = GraphRepository()
            pool = list(dict.fromkeys(
                repo.intern(random_graph(rng, max_vertices=6, connected=True))[0]
                for _ in range(6)))
            cache = MatchCache()
            for _ in range(3):
                rule = random_rule(rng, max_components=3)
                queries = []
                for size in (1, 3, 5, 2):
                    universe = rng.sample(pool, min(size, len(pool)))
                    queries.append((universe, [gid for gid in universe
                                               if rng.random() < 0.4]))
                for universe, required in queries + queries:
                    warm = enumerate_proper_derivations(
                        rule, universe, required, repo=repo, cache=cache)
                    fresh = enumerate_proper_derivations(
                        rule, universe, required, repo=repo)
                    assert ([fingerprint(d) for d in warm]
                            == [fingerprint(d) for d in fresh])
                    reused += sum(id(d) in seen for d in warm)
                    seen.update(id(d) for d in warm)
                    held.append(warm)
        assert reused > 300, reused

    def test_memo_keeps_nothing_alive(self):
        repo, ids = diels_alder_pair()
        cache = MatchCache()
        derivations = enumerate_proper_derivations(
            diels_alder_rule(), ids, repo=repo, cache=cache)
        assert len(cache._derived) == len(derivations) > 0
        alive = weakref.ref(derivations[0])
        del derivations
        gc.collect()
        assert alive() is None
        assert len(cache._derived) == 0

    def test_held_match_is_not_applied_again(self, monkeypatch):
        repo, ids = diels_alder_pair()
        rule = diels_alder_rule()
        cache = MatchCache()
        calls = count_applications(monkeypatch)
        first = enumerate_proper_derivations(rule, ids, repo=repo, cache=cache)
        applied = len(calls)
        assert applied == len(first) > 0
        calls.clear()
        again = enumerate_proper_derivations(rule, ids, repo=repo, cache=cache)
        assert len(calls) == 0
        assert all(d is e for d, e in zip(again, first, strict=True))
        del first, again
        gc.collect()
        third = enumerate_proper_derivations(rule, ids, repo=repo, cache=cache)
        assert len(calls) == applied == len(third)


class TestIterProperDerivations:
    def test_generator_consumed_fully_equals_list(self):
        rng = random.Random(67)
        for _ in range(40):
            repo = GraphRepository()
            ids = list(dict.fromkeys(
                repo.intern(random_graph(rng, max_vertices=6, connected=True))[0]
                for _ in range(rng.randint(1, 4))))
            rule = random_rule(rng, max_components=3)
            required = [gid for gid in ids if rng.random() < 0.5]
            listed = enumerate_proper_derivations(rule, ids, required, repo=repo)
            lazy = iter_proper_derivations(rule, ids, required, repo=repo)
            assert ([fingerprint(d) for d in lazy]
                    == [fingerprint(d) for d in listed])

    def test_stopping_early_applies_less(self, monkeypatch):
        repo = GraphRepository()
        iso_id, _ = repo.intern(parse_molecule("CC(=C)C=C"))
        chx_id, _ = repo.intern(parse_molecule("C1=CC=CCC1"))
        calls = count_applications(monkeypatch)
        listed = enumerate_proper_derivations(
            diels_alder_rule(), [iso_id, chx_id], [chx_id], repo=repo)
        full = len(calls)
        calls.clear()
        first = next(iter_proper_derivations(
            diels_alder_rule(), [iso_id, chx_id], [chx_id], repo=repo))
        assert first.key == listed[0].key
        assert len(calls) < full


class TestMergedComponentMaps:
    def test_product_order(self):
        # One embedding per component, merged when their images are
        # disjoint and kept when the copy passes the gluing check, in the
        # lexicographic order of the per-component lists.
        rng = random.Random(47)
        merges = 0
        for _ in range(60):
            rule = random_rule(rng)
            comps = tuple(range(len(rule.left_components)))
            repo = GraphRepository()
            gid, _ = repo.intern(random_graph(rng, max_vertices=7, connected=True))
            cache = MatchCache()
            per_comp = [cache.embeddings(rule, c, gid, repo) for c in comps]
            want = []
            for combo in itertools.product(*per_comp):
                images = [v for m in combo for v in m.values()]
                merged = {k: v for m in combo for k, v in m.items()}
                if (len(set(images)) == len(images)
                        and gluing_ok(rule, [(merged, repo.graph(gid))])):
                    want.append(merged)
            got = list(cache.bound_copies(rule, comps, gid, repo))
            assert got == want
            merges += len(comps) > 1 and len(got)
        assert merges > 0


class TestPartialBindingCompleteness:
    def test_matches_naive_enumeration(self):
        rng = random.Random(47)
        for _ in range(12):
            repo = GraphRepository()
            ids = []
            for _ in range(rng.randint(1, 4)):
                gid, _ = repo.intern(random_graph(rng, max_vertices=6,
                                                  connected=True))
                if gid not in ids:
                    ids.append(gid)
            rule = random_rule(rng)
            required = [gid for gid in ids if rng.random() < 0.5]
            fast = enumerate_proper_derivations(rule, ids, required, repo=repo)
            naive = naive_derivation_keys(rule, ids, required, repo)
            assert keys_of(fast) == naive

    def test_symmetric_single_component_rules(self):
        # Rules whose automorphisms move left vertices, so the embedding
        # search keeps one match per rule orbit: the derivations equal the
        # naive enumeration's, and the per-morphism reference's in order,
        # matches and atom maps included.
        rng = random.Random(97)
        pruned = derivations = 0
        for _ in range(100):
            rule = symmetric_rule(rng)
            assert rule.search_plans[0].symmetries
            repo = GraphRepository()
            labels = rng.choice([("a",), ("a", "b")])
            ids = list(dict.fromkeys(repo.intern(random_graph(
                rng, max_vertices=7, labels=labels, edge_labels=("x",),
                connected=True))[0] for _ in range(rng.randint(1, 2))))
            required = [gid for gid in ids if rng.random() < 0.5]
            cache = MatchCache()
            fast = enumerate_proper_derivations(rule, ids, required, repo=repo,
                                                cache=cache)
            assert keys_of(fast) == naive_derivation_keys(rule, ids, required,
                                                          repo)
            assert ([fingerprint(d) for d in fast] == [
                fingerprint(d) for d in rule_orbit_derivations(
                    rule, ids, required, repo)])
            (component,) = rule.left_components
            pruned += any(
                len(cache.embeddings(rule, 0, gid, repo))
                < len(enumerate_embeddings(component, repo.graph(gid)))
                for gid in required or ids)
            derivations += len(fast)
        assert pruned >= 40 and derivations >= 100, (pruned, derivations)


def symmetric_rule(rng):
    """A random single-component rule on a path, star, triangle or square
    of "a" vertices and "x" edges whose automorphisms move left vertices:
    each vertex class (star centre, path middles, path ends) and each edge
    class gets one random kind and label pair."""
    shapes = {
        "path2": [(0, 1)],
        "path3": [(0, 1), (1, 2)],
        "path4": [(0, 1), (1, 2), (2, 3)],
        "star3": [(0, 1), (0, 2), (0, 3)],
        "triangle": [(0, 1), (1, 2), (0, 2)],
        "square": [(0, 1), (1, 2), (2, 3), (0, 3)],
    }
    shape = rng.choice(sorted(shapes))
    edges = shapes[shape]
    n = 1 + max(v for e in edges for v in e)
    degree = [sum(v in e for e in edges) for v in range(n)]
    vertex_kind = {}
    for d in sorted(set(degree)):
        vertex_kind[d] = rng.choice(["keep", "keep", "relabel", "delete"])
    if all(kind == "delete" for kind in vertex_kind.values()):
        vertex_kind[max(vertex_kind)] = "keep"
    left_vertices, context_vertices = [], []
    for v in range(n):
        kind = vertex_kind[degree[v]]
        if kind == "delete":
            left_vertices.append((v, "a"))
        else:
            context_vertices.append((v, "a", "b" if kind == "relabel" else "a"))
    edge_kind = {}
    left_edges, context_edges = [], []
    for u, v in edges:
        pair = tuple(sorted((degree[u], degree[v])))
        if "delete" in (vertex_kind[degree[u]], vertex_kind[degree[v]]):
            kind = "delete"
        else:
            kind = edge_kind.setdefault(
                pair, rng.choice(["keep", "relabel", "delete"]))
        if kind == "delete":
            left_edges.append((u, v, "x"))
        else:
            context_edges.append((u, v, "x", "y" if kind == "relabel" else "x"))
    return Rule.build(shape, left_vertices, context_vertices,
                      left_edges=left_edges, context_edges=context_edges)
