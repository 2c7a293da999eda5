"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the heavyweight runs are shared through module-scoped fixtures.
"""
import hashlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import networkx as nx
import pytest

from gstrat.catalan import (catalan_rules, complete_graph, contract_move,
                            cycle_graph, move_successors, oracle_solve,
                            oracle_successors, random_level, solve_level)
from gstrat.chem import diels_alder_rule, parse_molecule
from gstrat.dsl import load_script, run_script
from gstrat.graphs import Graph, isomorphic
from gstrat.matching import find_isomorphism
from gstrat.rewrite import (MatchCache, enumerate_proper_derivations,
                            iter_proper_derivations)
from gstrat.strategies import (AddSubset, EMPTY_STATE, EvalContext,
                               Repeat, Revive, RuleApplication, Sequence)

from .oracles import (equal_signature_pairs, naive_derivation_keys,
                      random_graph, random_rule)
from .test_rules import relabel_rule

ASSETS = Path(__file__).parent.parent / "assets"

# sha256 of the JSON and DOT exports of the two shipped scripts.
GOLDEN_EXPORTS = {
    "bfs.json": "af6f19e21d0e681dda03f66f67274ff064716c261b4b6f52df34e79e0c1cc6b4",
    "bfs.dot": "eafa3ab035a78786a0d560f3ec83255a10c14c822bfcb9d275e5ae8282d3c086",
    "subspace.json":
        "9a7cd7e1a523927d1a2f4200cee9ad0b22ab3adcbf4849b9bb92e6ac12ca5d55",
    "subspace.dot":
        "e53d5138ddb0b2a6dc65209fe5e89b7e7818ec534ef8ef1efc90c1f973535159",
}


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


def inversion_ok(inputs, outputs, repo, inverter) -> bool:
    """Does applying the inverted rule to the outputs recover the inputs?"""
    if not outputs:
        return False
    inverse_cache, inverse = inverter
    want_in = tuple(sorted(outputs))
    want_out = tuple(sorted(inputs))
    # Only derivations on exactly the outputs can qualify; stop at the first.
    back = iter_proper_derivations(
        inverse, list(dict.fromkeys(outputs)), repo=repo, cache=inverse_cache,
        left_filter=lambda ids: ids == want_in)
    return any(d.inputs == want_in and d.outputs == want_out for d in back)


def make_inverters(rules):
    """Per-rule (cache, inverted rule) pairs shared across one run's checks."""
    return {r.name: (MatchCache(), r.inverted()) for r in rules}


class RunRecord:
    """What criterion 7 needs from a run: its repo, edges, and rule set."""

    def __init__(self, ctx, rules):
        self.repo = ctx.repo
        self.edges = ctx.sink.edges
        self.inverters = make_inverters(rules)

    def check_inversions(self) -> tuple[int, int]:
        failures = 0
        for edge in self.edges:
            inputs = [g for g, c in edge.inputs for _ in range(c)]
            outputs = [g for g, c in edge.outputs for _ in range(c)]
            if not inversion_ok(inputs, outputs, self.repo,
                                self.inverters[edge.rule_name]):
                failures += 1
        return len(self.edges), failures


@pytest.fixture(scope="module")
def bfs_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("bfs")
    ctx = EvalContext()
    started = time.perf_counter()
    rep = run_script(load_script(str(ASSETS / "diels_bfs.gs")),
                     json_path=str(out / "run1.json"),
                     dot_path=str(out / "run1.dot"), ctx=ctx)
    elapsed = time.perf_counter() - started
    return ctx, rep, elapsed, out / "run1.json"


@pytest.fixture(scope="module")
def subspace_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("subspace")
    ctx = EvalContext()
    rep = run_script(load_script(str(ASSETS / "diels_subspace.gs")),
                     json_path=str(out / "run1.json"),
                     dot_path=str(out / "run1.dot"), ctx=ctx)
    return ctx, rep, out / "run1.json"


@pytest.fixture(scope="module")
def catalan_corpus():
    levels = []
    for G in nx.graph_atlas_g():
        if G.number_of_nodes() and nx.is_connected(G):
            levels.append(Graph([(v, "0") for v in G.nodes()],
                                [(u, v, "") for u, v in G.edges()]))
    exhaustive = len(levels)
    rng = random.Random(1093)
    for _ in range(200):
        levels.append(random_level(rng, rng.randint(1, 10)))
    return levels, exhaustive


@pytest.fixture(scope="module")
def catalan_equivalence(catalan_corpus):
    levels, exhaustive = catalan_corpus
    started = time.perf_counter()
    mismatches = 0
    records = []
    for level in levels:
        ctx = EvalContext()
        pipeline = move_successors(level, ctx)
        oracle = oracle_successors(level)
        same = len(pipeline) == len(oracle) and all(
            any(isomorphic(p, o) for o in oracle) for p in pipeline)
        if not same:
            mismatches += 1
        records.append(RunRecord(ctx, catalan_rules()))
    elapsed = time.perf_counter() - started
    return len(levels), exhaustive, mismatches, elapsed, records


@pytest.fixture(scope="module")
def random_binding_instances():
    rng = random.Random(733)
    started = time.perf_counter()
    instances = []
    for _ in range(50):
        from gstrat.graphs import GraphRepository

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
        instances.append((repo, rule, fast, naive))
    elapsed = time.perf_counter() - started
    return instances, elapsed


@pytest.fixture(scope="module")
def solve_runs():
    rng = random.Random(2749)
    runs = []
    solvable_levels = []
    while len(solvable_levels) < 20:
        level = random_level(rng, rng.choice((4, 7, 10)))
        if oracle_solve(level) is not None:
            solvable_levels.append(level)
    for level in solvable_levels:
        ctx = EvalContext()
        solution = solve_level(level, ctx)
        runs.append((level, solution, RunRecord(ctx, catalan_rules())))
    return runs


class TestCriterion1:
    def test_revive_semantics(self):
        started = time.perf_counter()
        g1 = Graph([(0, "a"), (1, "a")], [(0, 1, "b")])
        g2 = Graph([(0, "a"), (1, "a"), (2, "a")], [(0, 1, "b"), (1, 2, "b")])
        g3 = Graph([(0, "a"), (1, "a")], [(0, 1, "c")])
        g5 = Graph([(0, "a"), (1, "a"), (2, "a")], [(0, 1, "c"), (1, 2, "c")])

        ctx = EvalContext()
        plain = Sequence([AddSubset((g1, g2)),
                          Repeat(RuleApplication(relabel_rule()))]).apply(
            EMPTY_STATE, ctx)
        plain_classes = [ctx.repo.graph(g) for g in plain.subset]
        assert len(plain_classes) == 1
        assert isomorphic(plain_classes[0], g5)

        ctx2 = EvalContext()
        revived = Sequence([AddSubset((g1, g2)),
                            Repeat(Revive(RuleApplication(relabel_rule())))]).apply(
            EMPTY_STATE, ctx2)
        revived_classes = [ctx2.repo.graph(g) for g in revived.subset]
        assert len(revived_classes) == 2
        for expected in (g3, g5):
            assert any(isomorphic(expected, g) for g in revived_classes)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        report(1, f"repeat(p) ends in {{g5}}, repeat(revive(p)) in "
                  f"{{g3, g5}} ({elapsed:.3f}s)")


class TestCriterion2:
    def test_bfs_counts_and_budget(self, bfs_run):
        ctx, rep, elapsed, _ = bfs_run
        assert elapsed < 60.0
        assert rep.new_graphs == 825
        assert rep.derivations == 1278
        assert len(ctx.sink) == 1278
        assert rep.embedding_queries == ctx.cache.queries == 430
        report(2, f"Q_BFS n=4: {rep.new_graphs} new graphs / "
                  f"{rep.derivations} derivations in {elapsed:.1f}s "
                  f"({rep.embedding_queries} embedding queries, one per "
                  f"match-cache enumeration)")

    def test_mandatory_n1_properties(self):
        iso = parse_molecule("CC(=C)C=C")
        chx = parse_molecule("C1=CC=CCC1")
        ctx = EvalContext()
        iso_id, _ = ctx.repo.intern(iso)
        chx_id, _ = ctx.repo.intern(chx)
        derivations = enumerate_proper_derivations(
            diels_alder_rule(), [iso_id, chx_id], [iso_id, chx_id],
            repo=ctx.repo, left_filter=lambda ids: len(ids) == 2)
        assert derivations
        inverters = make_inverters([diels_alder_rule()])
        for d in derivations:
            assert len(d.inputs) == 2  # bimolecular
            touched = d.match.touched_copies()
            assert touched == set(range(len(d.match.assembly.graph_ids)))
            assert d.atom_map is not None
            assert len(set(d.atom_map.values())) == len(d.atom_map)
            in_labels = sorted(
                l for gid in d.inputs for _, l in ctx.repo.graph(gid).vertices())
            out_labels = sorted(
                l for gid in d.outputs for _, l in ctx.repo.graph(gid).vertices())
            assert in_labels == out_labels  # atom-conserving
            assert inversion_ok(d.inputs, d.outputs, ctx.repo,
                                inverters["dielsAlder"])


class TestCriterion3:
    def test_subspace_counts(self, subspace_run):
        _, rep, _ = subspace_run
        assert rep.new_graphs == 165
        assert rep.derivations == 236
        assert rep.embedding_queries == 122
        report(3, f"Q_subspace n=3: {rep.new_graphs} new graphs / "
                  f"{rep.derivations} derivations")

    def test_cyclohexadiene_only_in_first_step(self, subspace_run):
        ctx, _, _ = subspace_run
        iso = ctx.names["isoprene"]
        chx = ctx.names["cyclohexadiene"]
        seed = tuple(sorted((iso, chx)))
        chx_edges = [e for e in ctx.sink.edges
                     if any(g == chx for g, _ in e.inputs)]
        assert chx_edges
        for edge in chx_edges:
            inputs = tuple(sorted(g for g, c in edge.inputs for _ in range(c)))
            assert inputs == seed
        assert all(g != chx for e in ctx.sink.edges for g, _ in e.outputs)

    def test_every_derivation_extends_the_subspace(self, subspace_run):
        ctx, _, _ = subspace_run
        iso = ctx.names["isoprene"]
        chx = ctx.names["cyclohexadiene"]
        derived: set[int] = set()
        for edge in ctx.sink.edges:
            inputs = [g for g, _ in edge.inputs]
            assert any(g == iso or g == chx or g in derived for g in inputs)
            derived.update(g for g, _ in edge.outputs)


class TestCriterion4:
    def test_partial_binding_completeness(self, random_binding_instances):
        instances, elapsed = random_binding_instances
        assert len(instances) == 50
        discrepancies = 0
        for _, _, fast, naive in instances:
            if {d.key for d in fast} != naive:
                discrepancies += 1
        assert discrepancies == 0
        assert elapsed < 30.0
        total = sum(len(fast) for _, _, fast, _ in instances)
        report(4, f"50 random instances, {total} derivations, "
                  f"0 discrepancies vs naive enumeration ({elapsed:.1f}s)")


class TestCriterion5:
    def test_pipeline_equals_oracle(self, catalan_equivalence):
        total, exhaustive, mismatches, elapsed, _ = catalan_equivalence
        assert exhaustive == 996  # all connected graphs on 1..7 vertices
        assert total == exhaustive + 200
        assert mismatches == 0
        assert elapsed < 300.0
        report(5, f"{total} levels ({exhaustive} exhaustive <=7 vertices "
                  f"+ 200 random <=10): successor sets match the oracle "
                  f"({elapsed:.0f}s)")


class TestCriterion6:
    def test_k4_and_c6(self):
        k4 = solve_level(complete_graph(4))
        assert k4 is not None and k4.moves == 1
        assert solve_level(cycle_graph(6)) is None

    def test_random_solvable_levels(self, solve_runs):
        assert len(solve_runs) == 20
        for level, solution, _ in solve_runs:
            assert solution is not None
            assert isomorphic(solution.positions[0], level)
            assert solution.positions[-1].vertex_count == 1
            for before, after in zip(solution.positions,
                                     solution.positions[1:]):
                assert any(
                    (moved := contract_move(before, v)) is not None
                    and isomorphic(moved, after)
                    for v in before.vertex_ids())
        report(6, "K4 solved in 1 move, C6 unsolvable, 20 random solvable "
                  "levels replay correctly")


class TestCriterion7:
    def test_inversion_round_trips(self, bfs_run, subspace_run,
                                   random_binding_instances,
                                   catalan_equivalence, solve_runs):
        started = time.perf_counter()
        total = failures = 0

        bfs_ctx, _, _, _ = bfs_run
        sub_ctx, _, _ = subspace_run
        for ctx in (bfs_ctx, sub_ctx):
            record = RunRecord(ctx, [diels_alder_rule()])
            checked, failed = record.check_inversions()
            total += checked
            failures += failed

        for repo, rule, fast, _ in random_binding_instances[0]:
            inverters = make_inverters([rule])
            for d in fast:
                total += 1
                if not inversion_ok(d.inputs, d.outputs, repo,
                                    inverters[rule.name]):
                    failures += 1

        for record in catalan_equivalence[4]:
            checked, failed = record.check_inversions()
            total += checked
            failures += failed

        for _, _, record in solve_runs:
            checked, failed = record.check_inversions()
            total += checked
            failures += failed

        elapsed = time.perf_counter() - started
        assert failures == 0
        report(7, f"{total} derivations from criteria 2-6 inverted back to "
                  f"their inputs, 0 failures ({elapsed:.0f}s)")


class TestCriterion8:
    def test_byte_identical_exports(self, bfs_run, subspace_run, tmp_path):
        _, _, _, bfs_json = bfs_run
        second = tmp_path / "bfs2.json"
        run_script(load_script(str(ASSETS / "diels_bfs.gs")),
                   json_path=str(second))
        assert second.read_bytes() == bfs_json.read_bytes()

        _, _, sub_json = subspace_run
        second_sub = tmp_path / "sub2.json"
        run_script(load_script(str(ASSETS / "diels_subspace.gs")),
                   json_path=str(second_sub))
        assert second_sub.read_bytes() == sub_json.read_bytes()
        report(8, "both shipped scripts export byte-identical JSON across runs")

    def test_golden_export_hashes(self, bfs_run, subspace_run):
        json_paths = {"bfs": bfs_run[3], "subspace": subspace_run[2]}
        digests = {
            f"{name}.{kind}": hashlib.sha256(
                path.with_suffix(f".{kind}").read_bytes()).hexdigest()
            for name, path in json_paths.items() for kind in ("json", "dot")}
        assert digests == GOLDEN_EXPORTS
        report(8, "all four exports match their golden sha256 digests")

    def test_exports_independent_of_hash_seed(self, tmp_path):
        # String hashing is randomised per process; no export may depend
        # on it.
        root = Path(__file__).parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        for seed in ("1", "2"):
            env["PYTHONHASHSEED"] = seed
            out = tmp_path / f"seed{seed}"
            subprocess.run(
                [sys.executable, "-m", "gstrat.cli", "run",
                 str(ASSETS / "diels_subspace.gs"),
                 "--json", str(out.with_suffix(".json")),
                 "--dot", str(out.with_suffix(".dot"))],
                env=env, check=True, capture_output=True)
            for kind in ("json", "dot"):
                digest = hashlib.sha256(
                    out.with_suffix(f".{kind}").read_bytes()).hexdigest()
                assert digest == GOLDEN_EXPORTS[f"subspace.{kind}"], (seed, kind)
        report(8, "the subspace exports match their golden digests under "
                  "PYTHONHASHSEED 1 and 2")


class TestCriterion9:
    def test_no_isomorphic_duplicates(self, bfs_run):
        ctx, _, _, _ = bfs_run
        repo = ctx.repo
        pairs = equal_signature_pairs(repo)
        for a, b in pairs:
            assert find_isomorphism(repo.graph(a), repo.graph(b)) is None
        report(9, f"{len(repo)} interned graphs, {len(pairs)} equal-signature pairs, "
                  f"no isomorphic duplicates")
