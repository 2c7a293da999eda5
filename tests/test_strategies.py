import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from gstrat.graphs import Graph, isomorphic
from gstrat.strategies import (Add, AltRuleApplication, EMPTY_STATE,
                               EvalContext, Filter, GraphState, Parallel,
                               Predicate, Repeat, RuleApplication, Revive,
                               Sequence, Sort, StrategyError, Take)

from .oracles import run_strategy, signature
from .test_rules import relabel_rule


def g1():
    return Graph([(0, "a"), (1, "a")], [(0, 1, "b")])


def g2():
    return Graph([(0, "a"), (1, "a"), (2, "a")], [(0, 1, "b"), (1, 2, "b")])


def g3():
    return Graph([(0, "a"), (1, "a")], [(0, 1, "c")])


def g4():
    return Graph([(0, "a"), (1, "a"), (2, "a")], [(0, 1, "b"), (1, 2, "c")])


def g5():
    return Graph([(0, "a"), (1, "a"), (2, "a")], [(0, 1, "c"), (1, 2, "c")])


def seeded_state(ctx):
    return Add("subset", (g1(), g2())).apply(EMPTY_STATE, ctx)


def classes(ctx, ids):
    return [ctx.repo.graph(g) for g in ids]


def assert_class_set(ctx, ids, expected_graphs):
    got = classes(ctx, ids)
    assert len(got) == len(expected_graphs)
    for expected in expected_graphs:
        assert any(isomorphic(expected, g) for g in got)


class TestGraphState:
    def test_invariants(self):
        with pytest.raises(ValueError):
            GraphState((1, 1), ())
        with pytest.raises(ValueError):
            GraphState((1,), (2,))

    def test_same_sets_ignores_order(self):
        assert GraphState((1, 2), (1,)).same_sets(GraphState((2, 1), (1,)))
        assert not GraphState((1, 2), (1,)).same_sets(GraphState((1, 2), (2,)))


class TestRuleApplication:
    def test_no_matches_empties_subset(self):
        ctx = EvalContext()
        state = Add("subset", (g3(),)).apply(EMPTY_STATE, ctx)
        result = RuleApplication(relabel_rule()).apply(state, ctx)
        assert result.universe == state.universe
        assert result.subset == ()

    def test_double_application_touches_only_new(self):
        ctx = EvalContext()
        rule = RuleApplication(relabel_rule())
        f1 = rule.apply(seeded_state(ctx), ctx)
        assert_class_set(ctx, f1.subset, [g3(), g4()])
        f2 = rule.apply(f1, ctx)
        assert_class_set(ctx, f2.subset, [g5()])
        assert set(f1.universe) <= set(f2.universe)

    def test_alt_mode_keeps_rediscoveries(self):
        ctx = EvalContext()
        rule = RuleApplication(relabel_rule())
        f1 = rule.apply(seeded_state(ctx), ctx)
        f2 = rule.apply(GraphState(f1.universe, f1.universe), ctx)
        # now every derivable class is already in the universe
        state = GraphState(f2.universe, f2.universe)
        default = rule.apply(state, ctx)
        alt = AltRuleApplication(rule).apply(state, ctx)
        assert default.subset == ()
        assert alt.subset != ()
        assert set(alt.subset) <= set(state.universe)

    def test_repeated_application_runs_no_new_queries(self):
        ctx = EvalContext()
        rule = RuleApplication(relabel_rule())
        state = seeded_state(ctx)
        rule.apply(state, ctx)
        queries = ctx.cache.queries
        assert queries == 2
        rule.apply(state, ctx)
        assert ctx.cache.queries == queries

    def test_new_graphs_counted_once(self):
        ctx = EvalContext()
        rule = RuleApplication(relabel_rule())
        rule.apply(seeded_state(ctx), ctx)
        assert ctx.stats.new_graphs == 2
        assert len(ctx.sink) == 2


class TestSequenceAndParallel:
    def test_empty_sequence_is_identity(self):
        ctx = EvalContext()
        state = seeded_state(ctx)
        assert Sequence(()).apply(state, ctx) == state

    def test_sequence_composes(self):
        ctx = EvalContext()
        rule = RuleApplication(relabel_rule())
        lhs = Sequence((rule, rule)).apply(seeded_state(ctx), ctx)
        rhs = rule.apply(rule.apply(seeded_state(ctx), ctx), ctx)
        assert lhs.same_sets(rhs)

    def test_parallel_singleton(self):
        ctx = EvalContext()
        rule = RuleApplication(relabel_rule())
        state = seeded_state(ctx)
        assert Parallel((rule,)).apply(state, ctx).same_sets(rule.apply(state, ctx))

    def test_parallel_union_of_adds(self):
        ctx = EvalContext()
        result = Parallel((Add("subset", (g1(),)),
                           Add("subset", (g2(),)))).apply(EMPTY_STATE, ctx)
        assert_class_set(ctx, result.subset, [g1(), g2()])

    def test_parallel_forward_and_backward(self):
        ctx = EvalContext()
        forward = RuleApplication(relabel_rule())
        backward = RuleApplication(relabel_rule().inverted())
        state = Add("subset", (g1(), g3())).apply(EMPTY_STATE, ctx)
        merged = Parallel((forward, backward)).apply(state, ctx)
        f = forward.apply(state, ctx)
        b = backward.apply(state, ctx)
        assert set(merged.subset) == set(f.subset) | set(b.subset)
        assert set(merged.universe) == set(f.universe) | set(b.universe)


class TestRepeat:
    def test_zero_is_identity(self):
        ctx = EvalContext()
        state = seeded_state(ctx)
        assert Repeat(RuleApplication(relabel_rule()), 0).apply(state, ctx) == state

    def test_plain_repeat_drops_finished_graph(self):
        ctx = EvalContext()
        result = Repeat(RuleApplication(relabel_rule())).apply(seeded_state(ctx), ctx)
        assert_class_set(ctx, result.subset, [g5()])

    def test_revive_keeps_finished_graph(self):
        ctx = EvalContext()
        result = Repeat(Revive(RuleApplication(relabel_rule()))).apply(
            seeded_state(ctx), ctx)
        assert_class_set(ctx, result.subset, [g3(), g5()])

    def test_split_repeat_equals_single_repeat(self):
        rule = RuleApplication(relabel_rule())
        ctx1 = EvalContext()
        split = Repeat(rule, 1).apply(Repeat(rule, 1).apply(seeded_state(ctx1), ctx1),
                                      ctx1)
        ctx2 = EvalContext()
        joint = Repeat(rule, 2).apply(seeded_state(ctx2), ctx2)
        assert [signature(ctx1.repo.graph(g)) for g in split.universe] == \
            [signature(ctx2.repo.graph(g)) for g in joint.universe]
        assert [signature(ctx1.repo.graph(g)) for g in split.subset] == \
            [signature(ctx2.repo.graph(g)) for g in joint.subset]

    def test_repeat_cap_from_context(self):
        ctx = EvalContext(max_repeat=1)
        result = Repeat(RuleApplication(relabel_rule())).apply(seeded_state(ctx), ctx)
        assert_class_set(ctx, result.subset, [g3(), g4()])

    def test_negative_repeat_cap_rejected(self):
        # A negative cap would make every unbounded repeat run zero rounds.
        with pytest.raises(ValueError, match="max_repeat must not be negative"):
            EvalContext(max_repeat=-1)
        assert EvalContext(max_repeat=0).max_repeat == 0


class TestRevive:
    def test_revive_without_consumption_preserves_subset(self):
        ctx = EvalContext()
        state = Add("subset", (g3(),)).apply(EMPTY_STATE, ctx)
        result = Revive(RuleApplication(relabel_rule())).apply(state, ctx)
        assert set(result.subset) == set(state.subset)

    def test_revived_keep_input_order_after_inner(self):
        ctx = EvalContext()
        state = seeded_state(ctx)
        result = Revive(RuleApplication(relabel_rule())).apply(state, ctx)
        # both inputs consumed: nothing revived
        assert_class_set(ctx, result.subset, [g3(), g4()])
        second = Revive(RuleApplication(relabel_rule())).apply(result, ctx)
        # g3 not consumed by the second pass: revived after the new output
        assert_class_set(ctx, second.subset, [g5(), g3()])
        assert isomorphic(ctx.repo.graph(second.subset[0]), g5())
        assert isomorphic(ctx.repo.graph(second.subset[1]), g3())


class TestScoping:
    def test_nested_revive_keeps_inner_consumption(self):
        # The inner rule consumes both seeds; the outer revive must not
        # bring them back either.
        ctx = EvalContext()
        state = seeded_state(ctx)
        outer = ctx.consumed
        result = Revive(Revive(RuleApplication(relabel_rule()))).apply(state, ctx)
        assert_class_set(ctx, result.subset, [g3(), g4()])
        assert not set(result.subset) & set(state.subset)
        assert ctx.consumed is outer
        assert outer == set(state.subset)

    def test_nested_revive_brings_back_unconsumed(self):
        ctx = EvalContext()
        state = Add("subset", (g1(), g3())).apply(EMPTY_STATE, ctx)
        result = Revive(Revive(RuleApplication(relabel_rule()))).apply(state, ctx)
        # g1 consumed (its output is g3, already known); g3 revived
        assert result.subset == (state.subset[1],)
        assert ctx.consumed == {state.subset[0]}

    def test_revive_sees_only_its_own_consumption(self):
        # The first branch consumes g1; the second revive must still bring
        # back g1, which nothing inside it consumed.
        ctx = EvalContext()
        state = Add("subset", (g1(), g3())).apply(EMPTY_STATE, ctx)
        gid1, gid3 = state.subset
        result = Parallel((
            Revive(RuleApplication(relabel_rule())),
            Revive(RuleApplication(relabel_rule().inverted())))).apply(state, ctx)
        assert result.subset == (gid3, gid1)
        assert ctx.consumed == {gid1, gid3}

    def test_scopes_are_restored_after_an_error(self):
        ctx = EvalContext()
        state = seeded_state(ctx)
        outer = ctx.consumed

        def boom(ids, c):
            raise RuntimeError("boom")

        strat = AltRuleApplication(
            Predicate("left", lambda ids, c: True,
                      Predicate("right", lambda ids, c: True,
                                Revive(Sequence((
                                    RuleApplication(relabel_rule()),
                                    Filter("subset", boom)))))))
        with pytest.raises(StrategyError, match="boom"):
            strat.apply(state, ctx)
        assert ctx.consumed is outer
        assert outer == set(state.subset)
        assert ctx.left_predicates == []
        assert ctx.right_predicates == []
        assert ctx.alt_mode is False
        assert ctx.strategy_path() == "<top>"


FORWARD = relabel_rule()
BACKWARD = FORWARD.inverted()
SEEDS = (g1, g2, g3, g4, g5)
PREDICATES = (
    lambda ids, c: all(c.repo.graph(g).vertex_count <= 2 for g in ids),
    lambda ids, c: any(label == "c" for g in ids
                       for _, _, label in c.repo.graph(g).edges()),
    lambda ids, c: len(ids) == 1,
    lambda ids, c: False,
)


def strategy_trees():
    """Random trees in ``oracles.run_strategy``'s tuple format."""
    predicates = hs.sampled_from(PREDICATES)
    leaves = hs.one_of(
        hs.sampled_from((("rule", FORWARD), ("rule", BACKWARD))),
        hs.tuples(hs.just("filter"), hs.sampled_from(("subset", "universe")),
                  predicates))
    return hs.recursive(leaves, lambda inner: hs.one_of(
        hs.tuples(hs.just("sequence"), hs.lists(inner, max_size=3)),
        hs.tuples(hs.just("parallel"), hs.lists(inner, min_size=1, max_size=3)),
        hs.tuples(hs.just("repeat"), hs.integers(0, 3), inner),
        hs.tuples(hs.just("revive"), inner),
        hs.tuples(hs.just("predicate"), hs.sampled_from(("left", "right")),
                  predicates, inner),
        hs.tuples(hs.just("altRuleApp"), inner)), max_leaves=8)


def build(node):
    """The ``strategies`` tree of an oracle tree."""
    kind, *args = node
    if kind == "rule":
        return RuleApplication(args[0])
    if kind == "sequence":
        return Sequence([build(part) for part in args[0]])
    if kind == "parallel":
        return Parallel([build(branch) for branch in args[0]])
    if kind == "repeat":
        return Repeat(build(args[1]), args[0])
    if kind == "revive":
        return Revive(build(args[0]))
    if kind == "predicate":
        return Predicate(args[0], args[1], build(args[2]))
    if kind == "altRuleApp":
        return AltRuleApplication(build(args[0]))
    return Filter(*args)


class TestAgainstOracle:
    @settings(max_examples=200, deadline=None)
    @given(strategy_trees(),
           hs.lists(hs.sampled_from(SEEDS), min_size=1, max_size=3))
    def test_same_state_sink_and_count(self, tree, seeds):
        graphs = [make() for make in seeds]
        ctx = EvalContext()
        state = Add("subset", graphs).apply(EMPTY_STATE, ctx)
        final = build(tree).apply(state, ctx)
        expected_state, expected_edges, expected_new = run_strategy(tree, graphs)
        assert (final.universe, final.subset) == expected_state
        assert [(e.inputs, e.rule_name, e.outputs)
                for e in ctx.sink.edges] == expected_edges
        assert ctx.stats.new_graphs == expected_new


class TestDerivationPredicates:
    def test_right_predicate_bounds_vertex_count(self):
        ctx = EvalContext()
        small = lambda ids, c: all(c.repo.graph(g).vertex_count <= 2
                                   for g in ids)
        result = Predicate("right", small, RuleApplication(relabel_rule())).apply(
            seeded_state(ctx), ctx)
        assert_class_set(ctx, result.subset, [g3()])
        for g in result.universe:
            if g not in seeded_state(ctx).universe:
                assert ctx.repo.graph(g).vertex_count <= 2

    def test_left_false_produces_nothing(self):
        ctx = EvalContext()
        never = lambda ids, c: False
        result = Predicate("left", never, RuleApplication(relabel_rule())).apply(
            seeded_state(ctx), ctx)
        assert result.subset == ()
        assert len(ctx.sink) == 0

    def test_predicates_prune_but_never_add(self):
        ctx = EvalContext()
        free = RuleApplication(relabel_rule()).apply(seeded_state(ctx), ctx)
        ctx2 = EvalContext()
        pred = lambda ids, c: len(ids) == 1
        constrained = Predicate(
            "left", pred, RuleApplication(relabel_rule())).apply(
                seeded_state(ctx2), ctx2)
        assert set(constrained.subset) <= {
            g for g in free.subset}  # same interning order in both contexts

    def test_predicates_reach_nested_rules(self):
        ctx = EvalContext()
        never = lambda ids, c: False
        inner = Sequence((RuleApplication(relabel_rule()),))
        result = Predicate("left", never, Repeat(inner, 3)).apply(
            seeded_state(ctx), ctx)
        assert len(ctx.sink) == 0


class TestFilterSortTakeAdd:
    def test_filter_subset_keeps_universe(self):
        ctx = EvalContext()
        state = seeded_state(ctx)
        result = Filter(
            "subset",
            lambda ids, c: c.repo.graph(ids[0]).vertex_count == 2).apply(state, ctx)
        assert result.universe == state.universe
        assert_class_set(ctx, result.subset, [g1()])

    def test_filter_universe_filters_both(self):
        ctx = EvalContext()
        state = seeded_state(ctx)
        result = Filter(
            "universe",
            lambda ids, c: c.repo.graph(ids[0]).vertex_count != 3).apply(state, ctx)
        assert_class_set(ctx, result.universe, [g1()])
        assert_class_set(ctx, result.subset, [g1()])

    def test_filter_universe_tests_each_graph_once(self):
        ctx = EvalContext()
        state = seeded_state(ctx)
        assert state.subset == state.universe
        calls = []

        def keep_all(ids, c):
            calls.extend(ids)
            return True

        assert Filter("universe", keep_all).apply(state, ctx) == state
        assert calls == list(state.universe)

    def test_sort_then_take_keeps_smallest(self):
        ctx = EvalContext()
        state = Add("subset", (g2(), g1(), g5())).apply(EMPTY_STATE, ctx)
        by_size = lambda g, c: c.repo.graph(g).vertex_count
        result = Sequence((Sort("subset", by_size),
                           Take("subset", 1))).apply(state, ctx)
        assert_class_set(ctx, result.subset, [g1()])
        assert result.universe == state.universe

    def test_sort_stability(self):
        ctx = EvalContext()
        state = Add("subset", (g2(), g1(), g5())).apply(EMPTY_STATE, ctx)
        result = Sort("subset", lambda g, c: 0).apply(state, ctx)
        assert result.subset == state.subset

    def test_take_subset_zero(self):
        ctx = EvalContext()
        state = seeded_state(ctx)
        result = Take("subset", 0).apply(state, ctx)
        assert result.subset == ()
        assert result.universe == state.universe

    def test_take_universe_restricts_subset(self):
        ctx = EvalContext()
        state = Add("subset", (g1(), g2(), g3())).apply(EMPTY_STATE, ctx)
        result = Take("universe", 2).apply(state, ctx)
        assert len(result.universe) == 2
        assert set(result.subset) == set(result.universe)

    def test_add_universe_does_not_touch_subset(self):
        ctx = EvalContext()
        result = Add("universe", (g1(),)).apply(EMPTY_STATE, ctx)
        assert len(result.universe) == 1
        assert result.subset == ()

    def test_add_rewrites_as_state_injection(self):
        # addUniverse(U(F)) -> addSubset(S(F)) -> Q on the empty state == Q(F)
        ctx = EvalContext()
        state = seeded_state(ctx)
        rule = RuleApplication(relabel_rule())
        direct = rule.apply(state, ctx)

        ctx2 = EvalContext()
        injected = Sequence((
            Add("universe", (g1(), g2())),
            Add("subset", (g1(), g2())),
            RuleApplication(relabel_rule()),
        )).apply(EMPTY_STATE, ctx2)
        assert [signature(ctx2.repo.graph(g)) for g in injected.universe] == \
            [signature(ctx.repo.graph(g)) for g in direct.universe]

    def test_add_existing_graph_to_subset(self):
        ctx = EvalContext()
        state = Add("universe", (g1(),)).apply(EMPTY_STATE, ctx)
        result = Add("subset", (g1(),)).apply(state, ctx)
        assert len(result.universe) == 1
        assert len(result.subset) == 1


class TestScopeAndSide:
    def test_unknown_scope_or_side_rejected(self):
        keep = lambda ids, c: True
        for make in (lambda scope: Filter(scope, keep),
                     lambda scope: Sort(scope, lambda g, c: 0),
                     lambda scope: Take(scope, 1),
                     lambda scope: Add(scope, (g1(),))):
            for scope in ("Subset", "both", ""):
                with pytest.raises(ValueError, match="scope must be"):
                    make(scope)
        for side in ("Left", "inputs"):
            with pytest.raises(ValueError, match="side must be"):
                Predicate(side, lambda ids, c: True,
                          RuleApplication(relabel_rule()))

    def test_labels_name_the_scope_and_side(self):
        keep = lambda ids, c: True
        assert Filter("universe", keep).label() == "filterUniverse"
        assert Sort("subset", lambda g, c: 0).label() == "sortSubset"
        assert Take("universe", 3).label() == "takeUniverse[3]"
        assert Add("subset", ()).label() == "addSubset"
        assert Predicate("right", lambda ids, c: True,
                         Sequence(())).label() == "rightPredicate"


class TestAltRuleApplication:
    def test_nesting_is_idempotent(self):
        ctx = EvalContext()
        rule = RuleApplication(relabel_rule())
        f1 = rule.apply(seeded_state(ctx), ctx)
        state = GraphState(f1.universe, f1.universe)
        once = AltRuleApplication(rule).apply(state, ctx)
        twice = AltRuleApplication(AltRuleApplication(rule)).apply(state, ctx)
        assert once == twice
        assert ctx.alt_mode is False


class TestInvariantsAfterEvaluation:
    def test_subset_contained_and_no_duplicates(self):
        ctx = EvalContext()
        state = seeded_state(ctx)
        for strat in (RuleApplication(relabel_rule()),
                      Repeat(Revive(RuleApplication(relabel_rule()))),
                      Parallel((RuleApplication(relabel_rule()),
                                RuleApplication(relabel_rule().inverted())))):
            out = strat.apply(state, ctx)
            assert set(out.subset) <= set(out.universe)
            assert len(set(out.universe)) == len(out.universe)
            assert len(set(out.subset)) == len(out.subset)

    def test_default_mode_subset_is_new(self):
        ctx = EvalContext()
        state = seeded_state(ctx)
        out = RuleApplication(relabel_rule()).apply(state, ctx)
        assert not set(out.subset) & set(state.universe)
        assert set(state.universe) <= set(out.universe)


class TestErrors:
    def test_error_carries_strategy_path(self):
        ctx = EvalContext()

        def boom(ids, c):
            raise RuntimeError("boom")

        strat = Sequence((Add("subset", (g1(),)), Filter("subset", boom)))
        with pytest.raises(StrategyError) as err:
            strat.apply(EMPTY_STATE, ctx)
        assert "filterSubset" in str(err.value)
