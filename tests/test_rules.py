import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gstrat.chem import diels_alder_rule
from gstrat.lex import ParseError, quote
from gstrat.rules import (CONTEXT, LEFT, RIGHT, Rule, RuleElement, RuleError,
                          format_rule, parse_rules)

from .oracles import brute_rule_automorphisms, random_rule


def same_structure(rule: Rule, other: Rule) -> bool:
    """Whether the two rules have the same elements (names aside)."""
    return rule.vertices == other.vertices and rule.edges == other.edges


def relabel_rule() -> Rule:
    # two "a" vertices kept; the "b" edge becomes a "c" edge
    return Rule.build("p",
                      context_vertices=[(0, "a", "a"), (1, "a", "a")],
                      left_edges=[(0, 1, "b")],
                      right_edges=[(0, 1, "c")])


def remove_r_rule() -> Rule:
    from gstrat.catalan import catalan_rules

    return {r.name: r for r in catalan_rules()}["removeR"]


class TestRuleStructure:
    def test_same_pair_delete_create_becomes_relabel(self):
        rule = relabel_rule()
        edge = rule.edges[(0, 1)]
        assert edge.kind == CONTEXT
        assert (edge.left_label, edge.right_label) == ("b", "c")

    def test_sides(self):
        rule = relabel_rule()
        assert rule.left.edge_label(0, 1) == "b"
        assert rule.edges[(0, 1)].right_label == "c"
        assert len(rule.left_components) == 1

    def test_conflicting_sections_rejected(self):
        with pytest.raises(RuleError):
            Rule.build("bad",
                       context_vertices=[(0, "a", "a"), (1, "a", "a")],
                       context_edges=[(0, 1, "x", "x")],
                       right_edges=[(0, 1, "y")])
        with pytest.raises(RuleError, match="^duplicate rule edge 1-0$"):
            Rule.build("dup", context_vertices=[(0, "a", "a"), (1, "a", "a")],
                       right_edges=[(0, 1, "x"), (1, 0, "y")])

    def test_vertex_in_two_sections_rejected(self):
        with pytest.raises(RuleError, match="duplicate vertex id 0"):
            Rule.build("dup", left_vertices=[(0, "a")],
                       context_vertices=[(0, "b", "b")])

    def test_joins_copies(self):
        # A rule joins the copies it matches when it deletes nothing and
        # its right side is connected.
        assert diels_alder_rule().joins_copies
        assert not diels_alder_rule().inverted().joins_copies
        assert not remove_r_rule().joins_copies
        rng = random.Random(71)
        seen = set()
        for _ in range(300):
            rule = random_rule(rng)
            right = nx.Graph()
            right.add_nodes_from(v for v, rv in rule.vertices.items() if rv.kind != LEFT)
            right.add_edges_from(e for e, re in rule.edges.items() if re.kind != LEFT)
            deletes = any(x.kind == LEFT for x in (*rule.vertices.values(),
                                                   *rule.edges.values()))
            want = not deletes and nx.is_connected(right)
            assert rule.joins_copies == want, rule.name
            seen.add(want)
        assert seen == {False, True}


class TestValidate:
    """Construction is the well-formedness check: a rule that exists is
    well-formed, and an ill-formed one raises ``RuleError``."""

    def test_diels_alder_is_chemical(self):
        rule = diels_alder_rule()
        assert rule.is_chemical
        assert len(rule.left_components) == 2

    def test_remove_r_only_valid_without_chemical_mode(self):
        # Valid, but it deletes vertices, so it is not chemical.
        rule = remove_r_rule()
        assert not rule.is_chemical
        assert same_structure(rule.inverted().inverted(), rule)

    def test_context_edge_needs_context_endpoints(self):
        with pytest.raises(RuleError) as err:
            Rule.build("bad",
                       left_vertices=[(0, "a")],
                       context_vertices=[(1, "a", "a")],
                       context_edges=[(0, 1, "x", "x")])
        assert str(err.value) == (
            "rule bad: context edge 0-1 touches non-context vertex 0")

    def test_self_loop_on_either_side_rejected(self):
        for kind in (LEFT, RIGHT):
            with pytest.raises(RuleError) as err:
                Rule.build("loop", context_vertices=[(0, "a", "a")],
                           **{f"{kind}_edges": [(0, 0, "x")]})
            assert str(err.value) == (
                "rule loop: invalid rule side: self-loop on vertex 0")

    def test_empty_left_rejected(self):
        with pytest.raises(RuleError) as err:
            Rule.build("nothing", right_vertices=[(0, "a")])
        assert str(err.value) == "rule nothing: rule has an empty left side"

    def test_ill_formed_rule_is_never_applied(self):
        # The context edge touches a deleted vertex: applying the rule
        # would delete the edge it claims to preserve.  Neither
        # constructor lets such a rule exist, so it can never be matched.
        vertices = {0: RuleElement(LEFT, "a", None),
                    1: RuleElement(CONTEXT, "a", "a")}
        edges = {(0, 1): RuleElement(CONTEXT, "x", "x")}
        with pytest.raises(RuleError, match="context edge 0-1"):
            Rule("bad", vertices, edges)
        # Every problem is named, and an edge to an undeclared vertex too.
        edges[(1, 2)] = RuleElement(RIGHT, None, "y")
        with pytest.raises(RuleError) as err:
            Rule("bad", vertices, edges)
        assert str(err.value) == (
            "rule bad: context edge 0-1 touches non-context vertex 0; "
            "edge 1-2 references undeclared vertex 2")


class TestInvert:
    def test_inversion_swaps_relabel_direction(self):
        inv = relabel_rule().inverted()
        edge = inv.edges[(0, 1)]
        assert (edge.left_label, edge.right_label) == ("c", "b")

    def test_involution(self):
        for rule in (relabel_rule(), diels_alder_rule(), remove_r_rule()):
            twice = rule.inverted().inverted()
            assert same_structure(twice, rule)

    def test_inverted_swaps_membership(self):
        inv = remove_r_rule().inverted()
        kinds = {rv.kind for rv in inv.vertices.values()}
        assert RIGHT in kinds  # deleted R vertices become created
        assert LEFT not in kinds


class TestRuleFormat:
    def test_round_trip(self):
        for rule in (relabel_rule(), diels_alder_rule(), remove_r_rule()):
            text = format_rule(rule)
            parsed = parse_rules(text)[rule.name]
            assert same_structure(parsed, rule)
            assert format_rule(parsed) == text

    def test_parse_maps_sections(self):
        text = """
        rule swap {
          left    { v 0 "a"; }
          context { v 1 "x" "y"; e 1 2 ""; v 2 "x"; }
          right   { v 3 "b"; e 2 3 "z"; }
        }
        """
        rule = parse_rules(text)["swap"]
        assert rule.vertices[0].kind == LEFT
        assert rule.vertices[1] .right_label == "y"
        assert rule.vertices[2].left_label == rule.vertices[2].right_label == "x"
        assert rule.edges[(2, 3)].kind == RIGHT

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_rules('rule a { left { v 0 "x"; v 0 "y"; } }')
        with pytest.raises(ParseError):
            parse_rules('rule a { middle { } }')
        with pytest.raises(ParseError):
            parse_rules('rule a { left { } } rule a { left { } }')

    def test_readme_example_parses(self):
        from pathlib import Path

        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("stored as a context relabel:")[1].split("```")[1]
        rule = parse_rules(block)["p"]
        assert rule.edges[(0, 1)].right_label == "z"
        assert [rule.vertices[v].kind for v in (0, 1, 2, 3)] == [
            CONTEXT, CONTEXT, LEFT, RIGHT]

    def test_edge_in_two_sections_is_located(self):
        # The error points at the second declaration's "e".
        text = ('rule ok { context { v 0 "a"; } }\n'
                'rule r {\n'
                '  left { v 0 "a"; v 1 "a"; e 0 1 "x"; }\n'
                '  context { v 2 "a"; e 1 0 "x"; }\n'
                '}\n')
        with pytest.raises(ParseError,
                           match="edge 1-0 declared in two sections") as err:
            parse_rules(text)
        assert (err.value.line, err.value.column) == (4, 22)
        # A left and a right edge on one pair are a relabel, not an error.
        for pair in ('left { e 0 1 "x"; } right { e 1 0 "y"; }',
                     'right { e 0 1 "y"; } left { e 1 0 "x"; }'):
            relabel = parse_rules('rule r { context { v 0 "a"; v 1 "a"; }\n'
                                  f'  {pair} }}')["r"].edges[(0, 1)]
            assert (relabel.kind, relabel.left_label, relabel.right_label) == (
                CONTEXT, "x", "y")


SECTIONS = (LEFT, CONTEXT, RIGHT)


@st.composite
def rule_entries(draw):
    """Per-section vertex and edge entries in ``Rule.build``'s format: each
    vertex declared once, sometimes one of them a second time in any
    section, edges on few pairs, so that repeats in one section, left/right
    pairs and clashes across sections are common, and some edges reach an
    undeclared vertex."""
    labels = st.sampled_from(("a", "b", ""))
    n = draw(st.integers(1, 4))
    vertices = {section: [] for section in SECTIONS}
    edges = {section: [] for section in SECTIONS}
    for vid in [*range(n), *draw(st.lists(st.integers(0, n - 1), max_size=1))]:
        section = draw(st.sampled_from(SECTIONS))
        pair = (draw(labels),) * (2 if section == CONTEXT else 1)
        vertices[section].append((vid, *pair))
    for _ in range(draw(st.integers(0, 6))):
        section = draw(st.sampled_from(SECTIONS))
        u, v = draw(st.lists(st.integers(0, n), min_size=2, max_size=2,
                             unique=True))
        count = 2 if section == CONTEXT else 1
        edges[section].append((u, v, *(draw(labels) for _ in range(count))))
    return vertices, edges


def rule_text(vertices, edges) -> str:
    """The entries as a rule file: the sections in order, each listing its
    vertices before its edges, every label written out."""
    def entry(keyword, ids, labels):
        return " ".join([keyword, *map(str, ids), *map(quote, labels)]) + ";"
    sections = []
    for section in SECTIONS:
        entries = ([entry("v", e[:1], e[1:]) for e in vertices[section]]
                   + [entry("e", e[:2], e[2:]) for e in edges[section]])
        sections.append(f"  {section} {{ {' '.join(entries)} }}")
    return "rule r {\n" + "\n".join(sections) + "\n}\n"


class TestDeclarationPolicy:
    """``Rule.build`` and the rule reader declare entries by one policy."""

    @settings(max_examples=300, deadline=None)
    @given(rule_entries())
    def test_build_and_reader_agree(self, entries):
        vertices, edges = entries
        try:
            built = Rule.build("r", vertices[LEFT], vertices[CONTEXT],
                               vertices[RIGHT], edges[LEFT], edges[CONTEXT],
                               edges[RIGHT])
        except RuleError as err:
            built = str(err)
        try:
            read = parse_rules(rule_text(vertices, edges))["r"]
        except ParseError as err:
            read = err.message
        if isinstance(built, str) or isinstance(read, str):
            assert read == built
        else:
            assert same_structure(read, built)


class TestDielsAlderShape:
    def test_two_left_components(self):
        comps = diels_alder_rule().left_components
        sizes = sorted(c.vertex_count for c in comps)
        assert sizes == [2, 4]  # dienophile and diene

    def test_left_right_edge_counts(self):
        rule = diels_alder_rule()
        assert rule.left.edge_count == 4
        assert sum(re.kind != LEFT for re in rule.edges.values()) == 6

    def test_asset_file_matches_builder(self):
        from pathlib import Path

        text = (Path(__file__).parent.parent / "assets" / "diels_alder.gr").read_text()
        parsed = parse_rules(text)["dielsAlder"]
        assert same_structure(parsed, diels_alder_rule())


class TestAutomorphisms:
    @staticmethod
    def _catalan(name):
        from gstrat.catalan import catalan_rules

        return {r.name: r for r in catalan_rules()}[name]

    def test_group_orders(self):
        da = diels_alder_rule()
        orders = {"dielsAlder": len(da.automorphisms),
                  "dielsAlder^-1": len(da.inverted().automorphisms)}
        for name in ("mark", "removeR", "markForFail", "unmark"):
            orders[name] = len(self._catalan(name).automorphisms)
        assert orders == {"dielsAlder": 2, "dielsAlder^-1": 2, "mark": 6,
                          "removeR": 6, "markForFail": 1, "unmark": 1}

    def test_exactly_the_span_preserving_permutations(self):
        rng = random.Random(61)
        rules = [diels_alder_rule(), relabel_rule()]
        rules += [self._catalan(n) for n in ("mark", "removeR", "markForFail",
                                               "unmark")]
        rules += [random_rule(rng) for _ in range(30)]
        for rule in rules:
            autos = rule.automorphisms
            assert autos[0] == {v: v for v in rule.vertices}
            got = {tuple(sorted(sigma.items())) for sigma in autos}
            assert len(got) == len(autos)
            assert got == brute_rule_automorphisms(rule)

    def test_cached_per_instance(self):
        rule = diels_alder_rule()
        assert rule.automorphisms is rule.automorphisms
        assert rule.search_plans is rule.search_plans
        assert rule.gluing_plan is rule.gluing_plan
