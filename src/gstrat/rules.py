"""DPO transformation rules: a span of left, context and right graphs.

A rule is stored as one set of vertices and edges, each element flagged as
left-only (deleted), context (preserved, possibly relabeled) or right-only
(created).  Context elements carry a label pair (left label, right label);
equal labels mean no relabeling.  The left and right graphs are projections
of this structure and must each be valid simple labeled graphs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from gstrat import lex
from gstrat.graphs import Graph, GraphError, _edge_key, parse_blocks, read_entries
from gstrat.lex import TokenStream
from gstrat.matching import SearchPlan, _plan, search_plan

LEFT = "left"
CONTEXT = "context"
RIGHT = "right"


@dataclass(frozen=True)
class RuleElement:
    """A rule vertex or edge: its kind and its (left, right) label pair."""
    kind: str
    left_label: str | None
    right_label: str | None

    def inverted(self) -> RuleElement:
        """The element of the reverse rule: left and right swapped."""
        kind = {LEFT: RIGHT, RIGHT: LEFT}.get(self.kind, CONTEXT)
        return RuleElement(kind, self.right_label, self.left_label)

    def entry_labels(self) -> str:
        """The quoted labels of its entry in its section of the text format."""
        if self.kind == CONTEXT and self.left_label != self.right_label:
            return f"{lex.quote(self.left_label)} {lex.quote(self.right_label)}"
        return lex.quote(self.right_label if self.kind == RIGHT else self.left_label)


class RuleError(ValueError):
    pass


def _declare(vertices: dict[int, RuleElement],
             edges: dict[tuple[int, int], RuleElement], section: str,
             ids: tuple[int, ...], labels: Sequence[str]) -> None:
    """Add a vertex (one id) or edge (two ids) entry of a rule section, with
    a (left, right) label pair in context and one label elsewhere.

    A left and a right edge on one pair, in either order, delete and create
    it; the intermediate graph is never observable, so they are stored as a
    context relabel.  Any other second declaration is a ``RuleError``: of a
    vertex, or of an edge in its element's section (a relabel's is
    context), or in another."""
    element = RuleElement(section, None if section == RIGHT else labels[0],
                          None if section == LEFT else labels[-1])
    if len(ids) == 1:
        if ids[0] in vertices:
            raise RuleError(f"duplicate vertex id {ids[0]}")
        vertices[ids[0]] = element
        return
    u, v = ids
    key = _edge_key(u, v)
    prior = edges.get(key)
    if prior is None:
        edges[key] = element
    elif {prior.kind, section} == {LEFT, RIGHT}:
        left, right = (prior, element) if section == RIGHT else (element, prior)
        edges[key] = RuleElement(CONTEXT, left.left_label, right.right_label)
    elif prior.kind == section:
        raise RuleError(f"duplicate rule edge {u}-{v}")
    else:
        raise RuleError(f"edge {u}-{v} declared in two sections")


class GluingPlan(NamedTuple):
    """What the DPO gluing check and ``apply_at`` read, fixed once per rule.

    - deleted: each deleted vertex with its left-graph neighbours;
    - created: the created edges between two preserved vertices, the only
      created edges whose endpoints can both be matched;
    - relabelled: each relabelled vertex with its right label;
    - added: each created vertex with its label, in ascending id order;
    - cut: the deleted edges between two preserved vertices;
    - joined: each created or relabelled edge with its right label, and
      whether it is created.
    """
    deleted: tuple[tuple[int, tuple[int, ...]], ...]
    created: tuple[tuple[int, int], ...]
    relabelled: tuple[tuple[int, str], ...]
    added: tuple[tuple[int, str], ...]
    cut: tuple[tuple[int, int], ...]
    joined: tuple[tuple[int, int, str, bool], ...]


class Rule:
    """A named DPO rule.  Instances are immutable; equality is identity.

    Construction checks that the rule is well-formed, or raises
    ``RuleError`` naming it and its problems, and keeps the graphs the
    check builds: ``left``, its components ``left_components`` (vertex ids
    are rule ids) and the span graph.  ``is_chemical`` (creates and deletes
    no vertex) and ``joins_copies`` (deletes nothing and has a connected
    span, so the copies it matches end in one graph) are fixed then too."""

    def __init__(self, name: str, vertices: dict[int, RuleElement],
                 edges: dict[tuple[int, int], RuleElement]):
        self.name = name
        self.vertices = dict(vertices)
        self.edges = {_edge_key(u, v): e for (u, v), e in edges.items()}
        problems: list[str] = []
        for (u, v), re in self.edges.items():
            for endpoint in (u, v):
                if endpoint not in self.vertices:
                    problems.append(f"edge {u}-{v} references undeclared vertex {endpoint}")
                    continue
                vkind = self.vertices[endpoint].kind
                if re.kind == CONTEXT and vkind != CONTEXT:
                    problems.append(f"context edge {u}-{v} touches non-context vertex {endpoint}")
                if re.kind == LEFT and vkind == RIGHT:
                    problems.append(f"left edge {u}-{v} touches right-only vertex {endpoint}")
                if re.kind == RIGHT and vkind == LEFT:
                    problems.append(f"right edge {u}-{v} touches left-only vertex {endpoint}")
        if not problems:
            try:
                self.left = Graph(
                    [(vid, rv.left_label) for vid, rv in self.vertices.items()
                     if rv.kind != RIGHT],
                    [(u, v, re.left_label) for (u, v), re in self.edges.items()
                     if re.kind != RIGHT])
                if self.left.vertex_count == 0:
                    problems.append("rule has an empty left side")
                # Every vertex and edge, labelled by kind and label pair: a
                # valid graph exactly when both sides are.
                self._span = Graph(
                    [(vid, repr(rv)) for vid, rv in self.vertices.items()],
                    [(u, v, repr(re)) for (u, v), re in self.edges.items()])
            except GraphError as err:
                problems.append(f"invalid rule side: {err}")
        if problems:
            raise RuleError(f"rule {name}: " + "; ".join(problems))
        self.left_components = tuple(self.left.connected_components())
        self.is_chemical = all(rv.kind == CONTEXT for rv in self.vertices.values())
        self.joins_copies = self._span.is_connected and all(
            e.kind != LEFT for e in (*self.vertices.values(), *self.edges.values()))
        self._automorphisms: tuple[dict[int, int], ...] | None = None
        self._search_plans: tuple[SearchPlan, ...] | None = None
        self._gluing_plan: GluingPlan | None = None

    @classmethod
    def build(cls, name: str,
              left_vertices: list[tuple[int, str]] = (),
              context_vertices: list[tuple[int, str, str]] = (),
              right_vertices: list[tuple[int, str]] = (),
              left_edges: list[tuple[int, int, str]] = (),
              context_edges: list[tuple[int, int, str, str]] = (),
              right_edges: list[tuple[int, int, str]] = ()) -> Rule:
        """Convenience constructor from per-section element lists, read as
        the text format reads a rule written with these sections in this
        order, each listing its vertices before its edges (``_declare``).
        """
        vertices: dict[int, RuleElement] = {}
        edges: dict[tuple[int, int], RuleElement] = {}
        for section, entries, arity in (
                (LEFT, left_vertices, 1), (LEFT, left_edges, 2),
                (CONTEXT, context_vertices, 1), (CONTEXT, context_edges, 2),
                (RIGHT, right_vertices, 1), (RIGHT, right_edges, 2)):
            for entry in entries:
                _declare(vertices, edges, section, entry[:arity], entry[arity:])
        return cls(name, vertices, edges)

    def automorphisms(self) -> tuple[dict[int, int], ...]:
        """Every permutation of rule vertex ids that maps each vertex to one
        with the same kind and label pair, and each vertex pair to one with
        the same edge (or no edge).  The identity comes first; callers must
        not mutate the returned maps.

        They are the injective label- and edge-preserving self-maps of the
        span graph: with equal vertex and edge counts, each is an
        automorphism."""
        if self._automorphisms is None:
            g = self._span
            found = sorted(_plan(g).search(g),
                           key=lambda m: any(k != v for k, v in m.items()))
            self._automorphisms = tuple(found)
        return self._automorphisms

    def search_plans(self) -> tuple[SearchPlan, ...]:
        """The embedding search plan of each left component, built once.

        A rule with one left component breaks the rule automorphisms
        restricted to it, when one moves a left vertex; every other plan
        breaks nothing.  A match and its images under rule automorphisms
        have the same inputs, gluing outcome and orbit key, so searching
        for one match per rule orbit loses no derivation."""
        if self._search_plans is None:
            components = self.left_components
            symmetries: list[dict[int, int]] = []
            if len(components) == 1:
                ids = components[0].vertex_ids()
                images = list(dict.fromkeys(
                    tuple(sigma[v] for v in ids) for sigma in self.automorphisms()))
                if len(images) > 1:
                    symmetries = [dict(zip(ids, im)) for im in images]
            self._search_plans = tuple(search_plan(c, symmetries)
                                       for c in components)
        return self._search_plans

    def gluing_plan(self) -> GluingPlan:
        """The elements the DPO gluing check and ``apply_at`` read, built
        once."""
        if self._gluing_plan is None:
            kind = {vid: rv.kind for vid, rv in self.vertices.items()}
            vertices = sorted(self.vertices.items())
            self._gluing_plan = GluingPlan(
                tuple((vid, tuple(self.left.neighbors(vid)))
                      for vid, rv in self.vertices.items() if rv.kind == LEFT),
                tuple((u, v) for (u, v), re in self.edges.items()
                      if re.kind == RIGHT and kind[u] == kind[v] == CONTEXT),
                tuple((vid, rv.right_label) for vid, rv in vertices
                      if rv.kind == CONTEXT and rv.left_label != rv.right_label),
                tuple((vid, rv.right_label) for vid, rv in vertices
                      if rv.kind == RIGHT),
                tuple((u, v) for (u, v), re in self.edges.items()
                      if re.kind == LEFT and kind[u] == kind[v] == CONTEXT),
                tuple((u, v, re.right_label, re.kind == RIGHT)
                      for (u, v), re in self.edges.items()
                      if re.kind != LEFT and re.left_label != re.right_label))
        return self._gluing_plan

    def inverted(self) -> Rule:
        """The reverse rule: swap left/right memberships and label pairs."""
        name = (self.name[:-3] if self.name.endswith("^-1")
                else self.name + "^-1")
        return Rule(name, {vid: el.inverted() for vid, el in self.vertices.items()},
                    {key: el.inverted() for key, el in self.edges.items()})

    def __repr__(self) -> str:
        return f"Rule({self.name!r}, {len(self.vertices)} vertices, {len(self.edges)} edges)"


# -- text format --------------------------------------------------------------
#
# rule <name> {
#   left    { v <id> "<label>"; e <id> <id> "<label>"; }
#   context { v <id> "<L>" "<R>"; e <id> <id> "<L>" "<R>"; }
#   right   { v <id> "<label>"; e <id> <id> "<label>"; }
# }
#
# Vertex ids are shared across sections.  A context entry with a single
# label keeps that label on both sides.


def parse_rule_body(ts: TokenStream, name: lex.Token) -> Rule:
    """Read the sections of the rule named by the token.  An entry that
    ``_declare`` rejects is a ``ParseError`` at its keyword, and a rule
    that is not well-formed one at its name."""
    vertices: dict[int, RuleElement] = {}
    edges: dict[tuple[int, int], RuleElement] = {}
    vertex_ids: set[int] = set()
    sections: set[str] = set()
    while not ts.at(lex.PUNCT, "}"):
        section_tok = ts.expect(lex.NAME)
        section = section_tok.value
        if section not in (LEFT, CONTEXT, RIGHT):
            raise section_tok.error(f"expected a rule section, got {section!r}")
        if section in sections:
            raise section_tok.error(f"duplicate section {section!r}")
        sections.add(section)
        ts.expect(lex.PUNCT, "{")
        for tok, ids, labels in read_entries(ts, vertex_ids, section == CONTEXT):
            try:
                _declare(vertices, edges, section, ids, [t.value for t in labels])
            except RuleError as err:
                raise tok.error(str(err)) from err
        ts.expect(lex.PUNCT, "}")
    try:
        return Rule(name.value, vertices, edges)
    except RuleError as err:
        raise name.error(str(err)) from err


def parse_rules(text: str) -> dict[str, Rule]:
    """Parse a rule file into an ordered name -> rule mapping."""
    return parse_blocks(text, "rule", parse_rule_body)


def format_rule(rule: Rule) -> str:
    lines = [f"rule {rule.name} {{"]
    elements = ([(f"v {vid}", el) for vid, el in sorted(rule.vertices.items())]
                + [(f"e {u} {v}", el) for (u, v), el in sorted(rule.edges.items())])
    for section in (LEFT, CONTEXT, RIGHT):
        entries = [f"{head} {el.entry_labels()};" for head, el in elements
                   if el.kind == section]
        if entries:
            lines.append(f"  {section} {{ " + " ".join(entries) + " }")
    lines.append("}")
    return "\n".join(lines) + "\n"
