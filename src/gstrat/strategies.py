"""Graph states and the strategy combinator algebra.

A graph state is an ordered universe of interned graph ids together with an
ordered subset that drives rule application: every derivation must consume
at least one subset graph.  Strategies are state-to-state functions built
from rule application, parallel and sequential composition, repetition,
revive, derivation predicates, filter/sort/take/add and the alternate
application mode.  As in the script language, filter/sort/take/add act on
the list named by their ``scope`` ("subset" or "universe"), a derivation
predicate on its ``side`` ("left" or "right"), and each label starts with
the script keyword.  Every predicate is a ``GraphPredicate`` of graph ids
with multiplicity: a derivation's inputs or outputs, or the 1-tuple of a
filtered graph.  An unbounded repeat stops at ``EvalContext.max_repeat``.
"""
from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence as SequenceOf
from typing import Callable

from gstrat.derivations import DerivationGraph
from gstrat.graphs import Graph, GraphRepository
from gstrat.rewrite import MatchCache, enumerate_proper_derivations
from gstrat.rules import Rule

DEFAULT_REPEAT_CAP = 2**31 - 1

#: Predicate over graph ids with multiplicity: (ids, ctx).
GraphPredicate = Callable[[tuple[int, ...], "EvalContext"], bool]
#: Sort key for sort strategies: (graph id, ctx) -> comparable.
SortKey = Callable[[int, "EvalContext"], object]


class StrategyError(RuntimeError):
    """Evaluation failure, annotated with the strategy-tree path."""


def _checked(value: str, allowed: tuple[str, ...], what: str) -> str:
    if value not in allowed:
        raise ValueError(f"{what} must be {' or '.join(map(repr, allowed))}, "
                         f"got {value!r}")
    return value


@dataclass(frozen=True)
class GraphState:
    universe: tuple[int, ...]
    subset: tuple[int, ...]

    def __post_init__(self):
        u = set(self.universe)
        s = set(self.subset)
        if len(u) != len(self.universe) or len(s) != len(self.subset):
            raise ValueError("graph state lists must not contain duplicates")
        if not s <= u:
            raise ValueError("subset must be contained in the universe")

    def same_sets(self, other: GraphState) -> bool:
        """Fixed-point comparison: order-insensitive equality of both lists."""
        return (set(self.universe) == set(other.universe)
                and set(self.subset) == set(other.subset))


EMPTY_STATE = GraphState((), ())


@dataclass
class RunStats:
    new_graphs: int = 0


class EvalContext:
    """Mutable evaluation environment threaded through a strategy run."""

    def __init__(self, max_repeat: int = DEFAULT_REPEAT_CAP):
        if max_repeat < 0:
            raise ValueError(f"max_repeat must not be negative, got {max_repeat}")
        self.repo = GraphRepository()
        self.sink = DerivationGraph()
        self.cache = MatchCache()
        self.stats = RunStats()
        self.alt_mode = False
        self.left_predicates: list[GraphPredicate] = []
        self.right_predicates: list[GraphPredicate] = []
        self.names: dict[str, int] = {}
        self.max_repeat = max_repeat
        #: Inputs consumed since the innermost Revive began (it swaps sets).
        self.consumed: set[int] = set()
        self._known: set[int] = set()
        self._path: list[str] = []

    # -- graph accounting ----------------------------------------------------

    def register_known(self, gid: int) -> None:
        """Mark a graph as already known (inputs, additions): not counted new."""
        self._known.add(gid)

    def count_discovered(self, gid: int) -> None:
        if gid not in self._known:
            self._known.add(gid)
            self.stats.new_graphs += 1

    # -- error paths -----------------------------------------------------------

    def enter(self, label: str) -> None:
        self._path.append(label)

    def leave(self) -> None:
        self._path.pop()

    def strategy_path(self) -> str:
        return " -> ".join(self._path) if self._path else "<top>"


class Strategy:
    """Base class: a function from graph states to graph states."""

    def label(self) -> str:
        return type(self).__name__

    def apply(self, state: GraphState, ctx: EvalContext) -> GraphState:
        ctx.enter(self.label())
        try:
            return self._apply(state, ctx)
        except StrategyError:
            raise
        except Exception as err:
            raise StrategyError(f"at {ctx.strategy_path()}: {err}") from err
        finally:
            ctx.leave()

    def _apply(self, state: GraphState, ctx: EvalContext) -> GraphState:
        raise NotImplementedError


def _ordered_union(base: SequenceOf[int], extra: SequenceOf[int]) -> tuple[int, ...]:
    return tuple(dict.fromkeys((*base, *extra)))


class RuleApplication(Strategy):
    """Apply one rule to the state: subset-driven discovery.

    New output graphs extend the universe in discovery order.  By default
    the resulting subset holds only graphs unknown to the input universe;
    in alternate mode it holds every derived graph.
    """

    def __init__(self, rule: Rule):
        self.rule = rule

    def label(self) -> str:
        return f"rule {self.rule.name}"

    def _apply(self, state: GraphState, ctx: EvalContext) -> GraphState:
        if not state.subset:
            return GraphState(state.universe, ())
        left_preds = tuple(ctx.left_predicates)
        left_filter = ((lambda ids: all(p(ids, ctx) for p in left_preds))
                       if left_preds else None)
        derivations = enumerate_proper_derivations(
            self.rule, state.universe, state.subset,
            repo=ctx.repo, cache=ctx.cache,
            left_filter=left_filter)
        universe_set = set(state.universe)
        derived: dict[int, None] = {}  # ordered set
        for d in derivations:
            if not all(p(d.outputs, ctx) for p in ctx.right_predicates):
                continue
            ctx.sink.record(d)
            ctx.consumed.update(d.inputs)
            derived.update(dict.fromkeys(d.outputs))
        for gid in derived:
            ctx.count_discovered(gid)
        universe = _ordered_union(state.universe, derived)
        if ctx.alt_mode:
            subset = tuple(derived)
        else:
            subset = tuple(g for g in derived if g not in universe_set)
        return GraphState(universe, subset)


class Sequence(Strategy):
    """Left-to-right composition; the empty sequence is the identity."""

    def __init__(self, parts: SequenceOf[Strategy]):
        self.parts = tuple(parts)

    def label(self) -> str:
        return "sequence"

    def _apply(self, state: GraphState, ctx: EvalContext) -> GraphState:
        for part in self.parts:
            state = part.apply(state, ctx)
        return state


class Parallel(Strategy):
    """Evaluate every branch on the same input; union the results in branch
    order, deduplicating by first occurrence."""

    def __init__(self, branches: SequenceOf[Strategy]):
        self.branches = tuple(branches)

    def label(self) -> str:
        return "parallel"

    def _apply(self, state: GraphState, ctx: EvalContext) -> GraphState:
        universe: tuple[int, ...] = ()
        subset: tuple[int, ...] = ()
        for branch in self.branches:
            result = branch.apply(state, ctx)
            universe = _ordered_union(universe, result.universe)
            subset = _ordered_union(subset, result.subset)
        return GraphState(universe, subset)


class Repeat(Strategy):
    """Iterate the inner strategy to a fixed point, an empty subset, or the
    bound.  On a fixed point that state is returned; when the subset of the
    next state is empty, the previous state is returned; Repeat(_, 0) is the
    identity.  An unset bound uses the context's repetition cap."""

    def __init__(self, inner: Strategy, count: int | None = None):
        if count is not None and count < 0:
            raise ValueError("repeat bound must be non-negative")
        self.inner = inner
        self.count = count

    def label(self) -> str:
        bound = "" if self.count is None else str(self.count)
        return f"repeat[{bound}]"

    def _apply(self, state: GraphState, ctx: EvalContext) -> GraphState:
        bound = self.count if self.count is not None else ctx.max_repeat
        previous = state
        for _ in range(bound):
            nxt = self.inner.apply(previous, ctx)
            if nxt.same_sets(previous):
                return nxt
            if not nxt.subset:
                return previous
            previous = nxt
        return previous


class Revive(Strategy):
    """Run the inner strategy, then put back the input-subset graphs that
    survived in the universe and were not consumed by any inner derivation."""

    def __init__(self, inner: Strategy):
        self.inner = inner

    def label(self) -> str:
        return "revive"

    def _apply(self, state: GraphState, ctx: EvalContext) -> GraphState:
        outer, consumed = ctx.consumed, set()
        ctx.consumed = consumed
        try:
            result = self.inner.apply(state, ctx)
        finally:
            ctx.consumed = outer
            outer |= consumed
        universe_set = set(result.universe)
        revived = [g for g in state.subset
                   if g in universe_set and g not in consumed]
        return GraphState(result.universe,
                          _ordered_union(result.subset, revived))


class Predicate(Strategy):
    """Require every derivation found inside to satisfy P(ids, ctx), where
    ids are the inputs for side "left" and the outputs for side "right"."""

    def __init__(self, side: str, predicate: GraphPredicate, inner: Strategy):
        self.side = _checked(side, ("left", "right"), "side")
        self.predicate = predicate
        self.inner = inner

    def label(self) -> str:
        return f"{self.side}Predicate"

    def _apply(self, state: GraphState, ctx: EvalContext) -> GraphState:
        stack = getattr(ctx, f"{self.side}_predicates")
        stack.append(self.predicate)
        try:
            return self.inner.apply(state, ctx)
        finally:
            stack.pop()


class _OnOneList(Strategy):
    """A combinator over one list of the state, named by scope."""

    keyword = ""

    def __init__(self, scope: str):
        self.scope = _checked(scope, ("subset", "universe"), "scope")

    def label(self) -> str:
        return self.keyword + self.scope.capitalize()

    def _replace(self, state: GraphState, ids: SequenceOf[int]) -> GraphState:
        """state with ids as the scoped list; a new universe keeps only the
        subset graphs still in it."""
        if self.scope == "subset":
            return GraphState(state.universe, tuple(ids))
        kept = set(ids)
        return GraphState(tuple(ids),
                          tuple(g for g in state.subset if g in kept))


class Filter(_OnOneList):
    """Keep the graphs g of the scoped list that satisfy P((g,), ctx)."""

    keyword = "filter"

    def __init__(self, scope: str, predicate: GraphPredicate):
        super().__init__(scope)
        self.predicate = predicate

    def _apply(self, state: GraphState, ctx: EvalContext) -> GraphState:
        return self._replace(state, [g for g in getattr(state, self.scope)
                                     if self.predicate((g,), ctx)])


class Sort(_OnOneList):
    """Stable sort of the scoped list by the key."""

    keyword = "sort"

    def __init__(self, scope: str, key: SortKey, descending: bool = False):
        super().__init__(scope)
        self.key = key
        self.descending = descending

    def _apply(self, state: GraphState, ctx: EvalContext) -> GraphState:
        return self._replace(state, sorted(getattr(state, self.scope),
                                           key=lambda g: self.key(g, ctx),
                                           reverse=self.descending))


class Take(_OnOneList):
    """Keep the first count graphs of the scoped list."""

    keyword = "take"

    def __init__(self, scope: str, count: int):
        super().__init__(scope)
        if count < 0:
            raise ValueError("take bound must be non-negative")
        self.count = count

    def label(self) -> str:
        return f"{super().label()}[{self.count}]"

    def _apply(self, state: GraphState, ctx: EvalContext) -> GraphState:
        return self._replace(state, getattr(state, self.scope)[:self.count])


class Add(_OnOneList):
    """Append the given graphs (interned on use) to the universe and, for
    scope "subset", to the subset as well."""

    keyword = "add"

    def __init__(self, scope: str, graphs: SequenceOf[Graph]):
        super().__init__(scope)
        self.graphs = tuple(graphs)

    def _apply(self, state: GraphState, ctx: EvalContext) -> GraphState:
        ids = []
        for g in self.graphs:
            gid, _ = ctx.repo.intern(g)
            ctx.register_known(gid)
            ids.append(gid)
        universe = _ordered_union(state.universe, ids)
        if self.scope == "universe":
            return GraphState(universe, state.subset)
        return GraphState(universe, _ordered_union(state.subset, ids))


class AltRuleApplication(Strategy):
    """Evaluate the inner strategy with rule applications keeping every
    derived graph in the subset (not only previously unknown ones)."""

    def __init__(self, inner: Strategy):
        self.inner = inner

    def label(self) -> str:
        return "altRuleApp"

    def _apply(self, state: GraphState, ctx: EvalContext) -> GraphState:
        saved = ctx.alt_mode
        ctx.alt_mode = True
        try:
            return self.inner.apply(state, ctx)
        finally:
            ctx.alt_mode = saved
