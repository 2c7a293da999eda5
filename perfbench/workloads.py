"""The three workloads: set-up, the timed operations, and their checks.

Each workload class builds its input in ``__init__`` (set-up), may compute
untimed reference answers in ``prepare``, runs its operations in ``run``
(returning each operation's start and end in ``perf_counter_ns``), and
lists what went wrong in ``check``.  An operation that raises is recorded
as its exception and fails the check.  ``expected`` names the boundary
counters the timed phase must reach; zero calls means a wrapper missed a
lookup site.  Paths are relative to the root of the checkout.
"""
from __future__ import annotations

import hashlib
import os
import random
import time

from gstrat import catalan, chem, dsl, rewrite, strategies
from gstrat.graphs import Graph

ASSETS = "assets"
BFS_SCRIPT = os.path.join(ASSETS, "diels_bfs.gs")

BFS_NEW_GRAPHS = 825
BFS_DERIVATIONS = 1278
BFS_JSON_SHA256 = "af6f19e21d0e681dda03f66f67274ff064716c261b4b6f52df34e79e0c1cc6b4"
BFS_DOT_SHA256 = "eafa3ab035a78786a0d560f3ec83255a10c14c822bfcb9d275e5ae8282d3c086"

# The catalan_solve levels: a fixed corpus of random levels, which each
# seed relabels and reorders.  Random level mixes differ in cost so much that
# the 95th percentile moved by about a tenth from seed to seed; relabelling
# keeps the mix and still gives each seed other inputs.  The size mix puts
# the median inside the 6-vertex stratum and the 95th percentile inside the
# 8-vertex one, so neither falls on a boundary between sizes.
CATALAN_CORPUS_SEED = 1302
CATALAN_SIZES = (5,) * 60 + (6,) * 60 + (7,) * 60 + (8,) * 20

# inversion_sweep inverts this many of the BFS derivations, chosen by the
# seed: about half, so that one run fits two repetitions of it.
INVERSION_QUERIES = 640


class DielsBfs:
    """``gstrat run diels_bfs.gs --json --dot``: one operation is one run."""

    expected = ("graphs.build.count", "graphs.intern.calls",
                "matching.embed.calls", "rewrite.cache.calls",
                "rewrite.bind.calls", "rewrite.complete.calls",
                "rewrite.apply.calls", "strategies.nodes",
                "derivations.record.calls", "derivations.to_json.calls",
                "derivations.to_dot.calls", "dsl.run.calls")

    def __init__(self, seed: int, outdir: str):
        # Fixed inputs: the seed is not used.
        started = time.perf_counter()
        self.script = dsl.load_script(BFS_SCRIPT)
        self.load_s = time.perf_counter() - started
        self.json_path = os.path.join(outdir, "bfs.json")
        self.dot_path = os.path.join(outdir, "bfs.dot")
        self.report = None

    def prepare(self) -> None:
        pass

    def run(self) -> list[tuple[int, int]]:
        started = time.perf_counter_ns()
        self.report = _attempt(dsl.run_script, self.script, dot_path=self.dot_path,
                               json_path=self.json_path)
        return [(started, time.perf_counter_ns())]

    def check(self) -> list[str]:
        if isinstance(self.report, Exception):
            return [f"run_script raised {self.report!r}"]
        problems = []
        if self.report.new_graphs != BFS_NEW_GRAPHS:
            problems.append(f"new graphs {self.report.new_graphs} != {BFS_NEW_GRAPHS}")
        if self.report.derivations != BFS_DERIVATIONS:
            problems.append(f"derivations {self.report.derivations} != {BFS_DERIVATIONS}")
        for path, want in ((self.json_path, BFS_JSON_SHA256),
                           (self.dot_path, BFS_DOT_SHA256)):
            with open(path, "rb") as fh:
                got = hashlib.sha256(fh.read()).hexdigest()
            if got != want:
                problems.append(f"{os.path.basename(path)} sha256 {got}")
        return problems


class CatalanSolve:
    """``gstrat catalan solve`` on random levels: one operation is one level."""

    expected = ("catalan.solve.calls", "strategies.nodes", "rewrite.bind.calls",
                "rewrite.apply.calls", "rewrite.complete.calls",
                "rewrite.cache.calls", "matching.embed.calls",
                "graphs.intern.calls", "graphs.find.calls",
                "graphs.build.count", "derivations.record.calls",
                "derivations.find_path.calls", "matching.iso.calls")

    def __init__(self, seed: int, outdir: str):
        corpus_rng = random.Random(CATALAN_CORPUS_SEED)
        corpus = [catalan.random_level(corpus_rng, n) for n in CATALAN_SIZES]
        rng = random.Random(seed)
        rng.shuffle(corpus)
        self.levels = [_relabelled(level, rng) for level in corpus]
        self.load_s = 0.0
        self.oracle: list = []
        self.solutions: list = []

    def prepare(self) -> None:
        self.oracle = [catalan.oracle_solve(level) for level in self.levels]

    def run(self) -> list[tuple[int, int]]:
        spans = []
        for level in self.levels:
            started = time.perf_counter_ns()
            solution = _attempt(catalan.solve_level, level, strategies.EvalContext())
            spans.append((started, time.perf_counter_ns()))
            self.solutions.append(solution)
        return spans

    def check(self) -> list[str]:
        problems = []
        for i, (level, solution, oracle) in enumerate(
                zip(self.levels, self.solutions, self.oracle)):
            if isinstance(solution, Exception):
                problems.append(f"level {i}: solve_level raised {solution!r}")
            elif (solution is None) != (oracle is None):
                problems.append(f"level {i}: solvable={solution is not None}, "
                                f"oracle says {oracle is not None}")
            elif solution is not None and not _replays(level, solution.positions):
                problems.append(f"level {i}: solution does not replay")
        return problems


def _relabelled(level: Graph, rng: random.Random) -> Graph:
    ids = level.vertex_ids()
    new_ids = dict(zip(ids, rng.sample(ids, len(ids))))
    return Graph([(new_ids[v], label) for v, label in level.vertices()],
                 [(new_ids[u], new_ids[v], label) for u, v, label in level.edges()])


def _replays(level: Graph, positions: list[Graph]) -> bool:
    """Does every step of the solution replay as one contract_move?"""
    iso = catalan.find_isomorphism
    if not positions or iso(positions[0], level) is None:
        return False
    if not catalan.is_goal(positions[-1]):
        return False
    for before, after in zip(positions, positions[1:]):
        moves = (catalan.contract_move(before, v) for v in before.vertex_ids())
        if not any(m is not None and iso(m, after) is not None for m in moves):
            return False
    return True


class InversionSweep:
    """Invert BFS derivations: one operation is one inversion query."""

    expected = ("rewrite.bind.calls", "rewrite.cache.calls",
                "matching.embed.calls", "rewrite.complete.calls",
                "rewrite.apply.calls", "graphs.intern.calls",
                "graphs.build.count")

    def __init__(self, seed: int, outdir: str):
        started = time.perf_counter()
        script = dsl.load_script(BFS_SCRIPT)
        self.load_s = time.perf_counter() - started
        ctx = strategies.EvalContext()
        dsl.run_script(script, ctx=ctx)
        self.repo = ctx.repo
        edges = ctx.sink.edges
        self.derivations = len(edges)
        # The seed picks the derivations and their order, which the shared
        # cache sees.
        edges = random.Random(seed).sample(edges, min(INVERSION_QUERIES, len(edges)))
        self.queries = [(_expand(e.inputs), _expand(e.outputs)) for e in edges]
        self.inverse = chem.diels_alder_rule().inverted()
        self.cache = rewrite.MatchCache()
        self.answers: list = []

    def prepare(self) -> None:
        pass

    def run(self) -> list[tuple[int, int]]:
        spans = []
        for _, outputs in self.queries:
            started = time.perf_counter_ns()
            back = _attempt(rewrite.enumerate_proper_derivations,
                            self.inverse, list(dict.fromkeys(outputs)),
                            repo=self.repo, cache=self.cache)
            spans.append((started, time.perf_counter_ns()))
            self.answers.append(back)
        return spans

    def check(self) -> list[str]:
        problems = []
        if self.derivations != BFS_DERIVATIONS:
            problems.append(f"set-up BFS gave {self.derivations} derivations")
        for i, ((inputs, outputs), back) in enumerate(zip(self.queries, self.answers)):
            if isinstance(back, Exception):
                problems.append(f"query {i}: raised {back!r}")
            elif not any(d.inputs == outputs and d.outputs == inputs for d in back):
                problems.append(f"query {i}: {outputs} does not invert to {inputs}")
        return problems


def _attempt(fn, *args, **kwargs):
    """Run one operation; an exception becomes its result, to fail its check."""
    try:
        return fn(*args, **kwargs)
    except Exception as err:  # noqa: BLE001 (a failing operation must not stop the run)
        return err


def _expand(multiset) -> tuple[int, ...]:
    return tuple(sorted(gid for gid, count in multiset for _ in range(count)))


WORKLOADS = {"diels_bfs": DielsBfs, "catalan_solve": CatalanSolve,
             "inversion_sweep": InversionSweep}
