import itertools
import random

import pytest

from gstrat import rewrite
from gstrat.chem import diels_alder_rule, parse_molecule
from gstrat.graphs import Graph, GraphRepository, isomorphic
from gstrat.matching import enumerate_embeddings
from gstrat.rewrite import (BindError, MatchCache, apply_at, assemble,
                            bind_graph, complete_derivation,
                            enumerate_proper_derivations,
                            iter_proper_derivations)
from gstrat.rules import Rule

from .oracles import naive_derivation_keys, random_graph, random_rule
from .test_rules import relabel_rule, remove_r_rule


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
        assembly = assemble(repo, (gid,))
        result = apply_at(relabel_rule(), assembly, {0: 0, 1: 1}, repo)
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
        assembly = assemble(repo, (gid,))
        vmap = {v: assembly.graph.vertex_ids()[i]
                for i, v in enumerate([0, 1, 2, 3])}
        stored = repo.graph(gid)
        by_label = {stored.label(v): v for v in stored.vertex_ids()}
        r_videos = [v for v in stored.vertex_ids() if stored.label(v) == "R"]
        vmap = {0: by_label["A"], 1: r_videos[0], 2: r_videos[1], 3: r_videos[2]}
        assert apply_at(remove_r_rule(), assembly, vmap, repo) is None

    def test_simplicity_rejection(self):
        # reattachExternal must refuse to create u-v when it already exists.
        from gstrat.catalan import catalan_rules

        reattach = {r.name: r for r in catalan_rules()}["reattachExternal"]
        host = Graph([(0, "0"), (1, "R"), (2, "A"), (3, "R")],
                     [(0, 1, ""), (1, 2, ""), (0, 2, ""), (2, 3, "")])
        repo = GraphRepository()
        gid, _, into = repo.intern_mapped(host)
        assembly = assemble(repo, (gid,))
        vmap = {0: into[0], 1: into[1], 2: into[2]}
        assert apply_at(reattach, assembly, vmap, repo) is None

    def test_invalid_match_raises(self):
        repo = GraphRepository()
        g1, _ = chain_graphs()
        gid, _ = repo.intern(g1)
        assembly = assemble(repo, (gid,))
        with pytest.raises(ValueError):
            apply_at(relabel_rule(), assembly, {0: 0, 1: 0}, repo)


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
            tuple(sorted(rule.left_components()[c].vertex_count
                         for bc in p.bound for c in bc.components))
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
        # the match tags each image with its own copy of the multiset
        match = derivations[0].match
        assert match.touched_copies() == {0, 1}

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
            in_g = repo.graph(d.match.assembly.graph_ids[pos])
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
        rng = random.Random(43)
        repo = GraphRepository()
        ids = [repo.intern(random_graph(rng, max_vertices=5, connected=True))[0]
               for _ in range(4)]
        for _ in range(10):
            rule = random_rule(rng)
            for d in enumerate_proper_derivations(rule, ids, repo=repo):
                touched = d.match.touched_copies()
                assert touched == set(range(len(d.match.assembly.graph_ids)))


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
        # automorphism and the two orders of the bound copies.
        repo = GraphRepository()
        iso_id, _ = repo.intern(parse_molecule("CC(=C)C=C"))
        chx_id, _ = repo.intern(parse_molecule("C1=CC=CCC1"))
        calls = count_applications(monkeypatch)
        derivations = enumerate_proper_derivations(
            diels_alder_rule(), [iso_id, chx_id], [iso_id, chx_id],
            repo=repo, left_filter=lambda ids: len(ids) == 2)
        assert len(calls) == 16
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
        assert len(rule.automorphisms()) == 2
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


def full_matches(rule, assembly):
    """Injective merges of one embedding per left component into the host."""
    per_comp = [enumerate_embeddings(comp, assembly.graph)
                for comp in rule.left_components()]
    for combo in itertools.product(*per_comp):
        merged = {k: v for m in combo for k, v in m.items()}
        if len(set(merged.values())) == len(merged):
            yield merged


class TestGluingDifferential:
    def test_full_match_passes_iff_every_copy_passes(self):
        rng = random.Random(53)
        outcomes = []
        for _ in range(120):
            rule = random_rule(rng)
            repo = GraphRepository()
            universe = [repo.intern(random_graph(rng, max_vertices=5,
                                                 connected=True))[0]
                        for _ in range(2)]
            for size in range(1, len(rule.left_components()) + 1):
                for ids in itertools.combinations_with_replacement(universe, size):
                    assembly = assemble(repo, ids)
                    for vmap in full_matches(rule, assembly):
                        per_copy = []
                        for i, gid in enumerate(ids):
                            offset = assembly.offsets[i]
                            local = {rv: hv - offset for rv, hv in vmap.items()
                                     if assembly.copy_of(hv) == i}
                            per_copy.append(rewrite._gluing_ok(
                                rule, local, repo.graph(gid)))
                        whole = rewrite._gluing_ok(rule, vmap, assembly.graph)
                        assert whole == all(per_copy)
                        outcomes.append(whole)
        assert True in outcomes and False in outcomes

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


class TestMatchCache:
    def test_one_query_per_distinct_key(self):
        repo = GraphRepository()
        ids = [repo.intern(g)[0] for g in chain_graphs()]
        rules = (relabel_rule(), diels_alder_rule())
        cache = MatchCache()
        assert cache.queries == 0
        keys = [(rule, ci, gid) for rule in rules
                for ci in range(len(rule.left_components())) for gid in ids]
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
        counts = {"_gluing_ok": 0, "_merged_component_maps": 0}
        for name in counts:
            real = getattr(rewrite, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(rewrite, name, counting)
        applications = count_applications(monkeypatch)
        cache = MatchCache()
        rule = diels_alder_rule()
        first = enumerate_proper_derivations(
            rule, [iso_id, chx_id], [chx_id], repo=repo, cache=cache)
        assert counts["_merged_component_maps"] > 0
        assert counts["_gluing_ok"] > len(applications)
        for name in counts:
            counts[name] = 0
        applications.clear()
        again = enumerate_proper_derivations(
            rule, [iso_id, chx_id], [chx_id], repo=repo, cache=cache)
        assert [d.key for d in again] == [d.key for d in first]
        # Only the full-match check inside each application is left.
        assert counts == {"_gluing_ok": len(applications),
                          "_merged_component_maps": 0}


def fingerprint(d):
    """What a caller sees of a derivation, match and atom map included."""
    return (d.key, d.inputs, d.match.assembly.graph_ids,
            sorted(d.match.vertex_map.items()), d.atom_map)


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
                three_components += len(rule.left_components()) == 3
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
        # disjoint, in the lexicographic order of the per-component lists.
        rng = random.Random(47)
        merges = 0
        for _ in range(60):
            rule = random_rule(rng)
            comps = tuple(range(len(rule.left_components())))
            repo = GraphRepository()
            gid, _ = repo.intern(random_graph(rng, max_vertices=7, connected=True))
            cache = MatchCache()
            per_comp = [cache.embeddings(rule, c, gid, repo) for c in comps]
            want = []
            for combo in itertools.product(*per_comp):
                images = [v for m in combo for v in m.values()]
                if len(set(images)) == len(images):
                    want.append({k: v for m in combo for k, v in m.items()})
            got = list(rewrite._merged_component_maps(rule, comps, gid, repo, cache))
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
