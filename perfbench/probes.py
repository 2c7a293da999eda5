"""Layer boundaries of gstrat, and the wrappers that count and time them.

The program is instrumented from the outside: each boundary function is
replaced by a wrapper on the object that defines it and at every module-level
name bound to it, so ``from gstrat.matching import find_isomorphism`` sites
(``gstrat.rewrite``, ``gstrat.strategies``, ``gstrat.catalan``, the package
``__init__``) call the wrapper too.

Two kinds of wrapper exist.  A counting wrapper adds one to the boundary's
call counter and records the outcome counters; every measured repetition
carries them, so work counts are known for untraced runs.  A tracing
wrapper also takes ``perf_counter_ns`` around the call and keeps a stack of
open spans, so each layer gets its self time: the span's duration minus the
part covered by the spans it opened.  Spans are aggregated per layer in
memory, never stored one by one.

Functions not listed below (O(1) accessors such as ``Graph.label``,
``Graph.degree`` and ``Graph.has_edge``, and private helpers) are not
boundaries: their time belongs to the layer that called them.  Wrapping an
accessor would cost more than the accessor itself.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time


def _is_new_class(result) -> int:
    return 1 if result[1] else 0


def _found(result) -> int:
    return 0 if result is None else 1


def _rejected(result) -> int:
    return 1 if result is None else 0


def _true(result) -> int:
    return 1 if result else 0


def _count(result) -> int:
    return len(result)


def _utf8_bytes(result) -> int:
    return len(result.encode("utf-8"))


# (owner, attribute, layer, call counter, outcome counter, outcome function)
# The owner is "module" or "module:Class".  Several boundaries may share a
# layer; each keeps its own call counter.
BOUNDARIES = (
    ("gstrat.graphs:Graph", "__init__", "graphs.build", "graphs.build.count",
     None, None),
    ("gstrat.graphs:Graph", "refinement_colors", "graphs.refine",
     "graphs.refine.calls", None, None),
    ("gstrat.graphs:GraphRepository", "intern_mapped", "graphs.intern",
     "graphs.intern.calls", "graphs.intern.new", _is_new_class),
    ("gstrat.graphs:GraphRepository", "find", "graphs.intern",
     "graphs.find.calls", None, None),
    ("gstrat.matching", "find_isomorphism", "matching.iso",
     "matching.iso.calls", "matching.iso.found", _found),
    ("gstrat.matching", "enumerate_embeddings", "matching.embed",
     "matching.embed.calls", None, None),
    ("gstrat.rewrite:MatchCache", "embeddings", "rewrite.cache",
     "rewrite.cache.calls", None, None),
    ("gstrat.rewrite", "enumerate_proper_derivations", "rewrite.bind",
     "rewrite.bind.calls", "rewrite.derivations_returned", _count),
    ("gstrat.rewrite", "bind_graph", "rewrite.bind",
     "rewrite.bind_graph.calls", None, None),
    ("gstrat.rewrite", "complete_derivation", "rewrite.complete",
     "rewrite.complete.calls", None, None),
    ("gstrat.rewrite", "apply_at", "rewrite.apply",
     "rewrite.apply.calls", "rewrite.apply.rejected", _rejected),
    ("gstrat.strategies:Strategy", "apply", "strategies",
     "strategies.nodes", None, None),
    ("gstrat.derivations:DerivationGraph", "record", "derivations.record",
     "derivations.record.calls", "derivations.record.new", _true),
    ("gstrat.derivations:DerivationGraph", "to_json", "derivations.export",
     "derivations.to_json.calls", "derivations.export.bytes", _utf8_bytes),
    ("gstrat.derivations:DerivationGraph", "to_dot", "derivations.export",
     "derivations.to_dot.calls", "derivations.export.bytes", _utf8_bytes),
    ("gstrat.derivations:DerivationGraph", "find_path", "derivations.find_path",
     "derivations.find_path.calls", None, None),
    ("gstrat.dsl", "run_script", "dsl", "dsl.run.calls", None, None),
    ("gstrat.catalan", "solve_level", "catalan", "catalan.solve.calls",
     None, None),
)

LAYERS = tuple(dict.fromkeys(b[2] for b in BOUNDARIES))
COUNTERS = tuple(dict.fromkeys(
    name for b in BOUNDARIES for name in (b[3], b[4]) if name is not None))

# The counts that must repeat exactly between repetitions of the same input
# and between traced and untraced runs.
WORK_COUNTS = ("rewrite.apply.calls", "graphs.intern.new", "graphs.intern.calls",
               "matching.iso.calls", "matching.embed.calls",
               "graphs.build.count", "strategies.nodes")

# The from-import sites whose patching is checked by name.
IMPORT_SITES = (
    ("gstrat.rewrite", "enumerate_embeddings"),
    ("gstrat.strategies", "enumerate_proper_derivations"),
    ("gstrat.catalan", "find_isomorphism"),
    ("gstrat.catalan", "bind_graph"),
    ("gstrat.catalan", "complete_derivation"),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Probes:
    """Installed wrappers plus the counters and layer self times they fill.

    Wrappers record only between ``start`` and ``stop``, so the set-up and
    the correctness checks of a repetition pass through them uncounted.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self._on = [False]
        # Open spans: each entry accumulates the inclusive time of the spans
        # nested directly inside it.  Entry 0 is the timed phase itself.
        self._stack = [0]
        self._started_ns = 0
        self.wall_ns = 0
        self.excluded_ns = 0

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        import gstrat  # noqa: F401  (loads every submodule the package imports)

        replaced = {}
        for owner, attr, layer, counter, outcome, outcome_fn in BOUNDARIES:
            target = _resolve(owner)
            original = inspect.getattr_static(target, attr)
            if inspect.isclass(target):
                for sub in _subclasses(target):
                    if attr in vars(sub):
                        raise RuntimeError(
                            f"{sub.__qualname__}.{attr} overrides a boundary")
            wrapper = self._wrap(original, layer, counter, outcome, outcome_fn)
            setattr(target, attr, wrapper)
            replaced[id(original)] = (original, wrapper)
        # Rebind every module-level name that still points at an original.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "gstrat" or name.startswith("gstrat.")):
                continue
            for key, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])
        self._check_import_sites(replaced)

    def _check_import_sites(self, replaced) -> None:
        wrappers = {id(w) for _, w in replaced.values()}
        for module_name, attr in IMPORT_SITES:
            value = getattr(importlib.import_module(module_name), attr)
            if id(value) not in wrappers:
                raise RuntimeError(f"{module_name}.{attr} is not wrapped")

    def _wrap(self, fn, layer, counter, outcome, outcome_fn):
        counts = self.counts
        on = self._on
        if not self.trace:
            def counted(*args, **kwargs):
                if not on[0]:
                    return fn(*args, **kwargs)
                counts[counter] += 1
                result = fn(*args, **kwargs)
                if outcome is not None:
                    counts[outcome] += outcome_fn(result)
                return result
            return counted

        stack = self._stack
        self_ns = self.self_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            counts[counter] += 1
            stack.append(0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                self_ns[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
            if outcome is not None:
                counts[outcome] += outcome_fn(result)
            return result
        return traced

    # -- the timed phase -------------------------------------------------------

    def exclude(self, duration_ns: int) -> None:
        """Keep time spent by the speed sampler out of the open span."""
        if self._on[0]:
            self._stack[-1] += duration_ns
            self.excluded_ns += duration_ns

    def start(self) -> None:
        self._stack[:] = [0]
        self._on[0] = True
        self._started_ns = time.perf_counter_ns()

    def stop(self) -> None:
        self.wall_ns = time.perf_counter_ns() - self._started_ns
        self._on[0] = False

    @property
    def unattributed_ns(self) -> int:
        """Timed-phase time outside every span and the sampler (benchmark code).

        The layers' self times, this and ``excluded_ns`` add up to ``wall_ns``.
        """
        return self.wall_ns - self._stack[0]


def _subclasses(cls):
    out = []
    todo = list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        out.append(sub)
        todo.extend(sub.__subclasses__())
    return out
