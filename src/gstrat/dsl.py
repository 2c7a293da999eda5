"""The strategy-script language: parsing, printing, compiling and running.

A script holds named molecules, graphs, rules (inline or included from
files), predicate expressions, named strategies and export directives.
The strategy named ``main`` is the entry point and is evaluated on the
empty graph state; a script without ``main`` runs nothing and reports
zeros.

Strategy syntax (terms chain left-to-right with ``->``)::

    rule <name>
    parallel { <strategy>, <strategy>, ... }
    repeat [ <n>? ] { <strategy> }
    revive { <strategy> }
    leftPredicate [ <pred> ] { <strategy> }     rightPredicate likewise
    filterSubset [ <pred> ]                     filterUniverse likewise
    sortSubset [ <key> (, desc)? ]              sortUniverse likewise
    takeSubset [ <n> ]                          takeUniverse likewise
    addSubset ( <name>, ... )                   addUniverse likewise
    altRuleApp { <strategy> }
    <name>                                      # reference a named strategy

Predicates are boolean expressions over the graph multiset under test:
``componentCount``, ``vertexCount(i)``, ``edgeCount(i)`` (integers, with
``== != < <= > >=``), ``hasVertexLabel(i, "l")``, ``isGraph(i, name)``,
combined with ``and``/``or``/``not``.  The multiset is indexed in sorted
graph-id order; an out-of-range index makes the atom false.  Sort keys:
``vertexCount``, ``edgeCount``, ``text`` (the serialized graph).

A predicate is compiled once, with the strategy that uses it: names are
resolved and cycles found before the run, which then only calls closures.
Brackets, braces, parentheses and ``not`` nest at most ``MAX_DEPTH`` levels
(a ``ParseError`` at the offending token), and a reference is followed only
below that many levels of nesting plus references (a ``ScriptError``).
"""
from __future__ import annotations

import contextlib
import operator
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from gstrat import lex
from gstrat.graphs import Graph, _parse_graph_body, serialize_graph
from gstrat.lex import TokenStream
from gstrat.rules import Rule, format_rule, parse_rule_body, validate_rule
from gstrat.chem import MoleculeError, parse_molecule
from gstrat import strategies as st


class ScriptError(ValueError):
    """Semantic error in a script (unknown name, bad rule, type error...)."""


# -- predicate expression AST ---------------------------------------------------

CMP_OPS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
           "<=": operator.le, ">": operator.gt, ">=": operator.ge}
SORT_KEYS = {"vertexCount": lambda gid, ctx: ctx.repo.graph(gid).vertex_count,
             "edgeCount": lambda gid, ctx: ctx.repo.graph(gid).edge_count,
             "text": lambda gid, ctx: serialize_graph(ctx.repo.graph(gid))}
#: Bound on nesting in a script and on references followed while compiling.
MAX_DEPTH = 64


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class IntAtom:
    name: str
    index: int | None  # None only for componentCount


@dataclass(frozen=True)
class Compare:
    op: str
    lhs: IntLit | IntAtom
    rhs: IntLit | IntAtom


@dataclass(frozen=True)
class HasVertexLabel:
    index: int
    label: str


@dataclass(frozen=True)
class IsGraph:
    index: int
    graph_name: str


@dataclass(frozen=True)
class PredRef:
    name: str


@dataclass(frozen=True)
class Not:
    inner: object


@dataclass(frozen=True)
class And:
    parts: tuple


@dataclass(frozen=True)
class Or:
    parts: tuple


# -- strategy AST ----------------------------------------------------------------


@dataclass(frozen=True)
class SRule:
    name: str


@dataclass(frozen=True)
class SRef:
    name: str


@dataclass(frozen=True)
class SSequence:
    parts: tuple


@dataclass(frozen=True)
class SParallel:
    branches: tuple


@dataclass(frozen=True)
class SRepeat:
    inner: object
    bound: int | None


@dataclass(frozen=True)
class SRevive:
    inner: object


@dataclass(frozen=True)
class SPredicate:
    side: str  # "left" | "right"
    expr: object
    inner: object


@dataclass(frozen=True)
class SFilter:
    scope: str  # "subset" | "universe"
    expr: object


@dataclass(frozen=True)
class SSort:
    scope: str
    key: str
    descending: bool


@dataclass(frozen=True)
class STake:
    scope: str
    count: int


@dataclass(frozen=True)
class SAdd:
    scope: str
    names: tuple


@dataclass(frozen=True)
class SAlt:
    inner: object


# -- script items ----------------------------------------------------------------


@dataclass(frozen=True)
class MoleculeDef:
    name: str
    spec: str


class GraphDef:
    def __init__(self, name: str, graph: Graph):
        self.name = name
        self.graph = graph

    def __eq__(self, other):
        return (isinstance(other, GraphDef) and self.name == other.name
                and list(self.graph.vertices()) == list(other.graph.vertices())
                and list(self.graph.edges()) == list(other.graph.edges()))

    def __repr__(self):
        return f"GraphDef({self.name!r})"


class RuleDef:
    def __init__(self, name: str, rule: Rule):
        self.name = name
        self.rule = rule

    def __eq__(self, other):
        return (isinstance(other, RuleDef) and self.name == other.name
                and self.rule.same_structure(other.rule))

    def __repr__(self):
        return f"RuleDef({self.name!r})"


@dataclass(frozen=True)
class Include:
    path: str


@dataclass(frozen=True)
class PredicateDef:
    name: str
    expr: object


@dataclass(frozen=True)
class StrategyDef:
    name: str
    body: object


@dataclass(frozen=True)
class ExportDirective:
    kind: str  # "dot" | "json"
    path: str


@dataclass(frozen=True)
class Script:
    items: tuple
    base_dir: str = field(default=".", compare=False)


# -- parser ----------------------------------------------------------------------


def parse_script(text: str, base_dir: str = ".") -> Script:
    ts = TokenStream(lex.tokenize(text))
    items: list = []
    while not ts.at(lex.EOF):
        tok = ts.expect(lex.NAME)
        if tok.value == "molecule":
            name = ts.expect(lex.NAME).value
            items.append(MoleculeDef(name, ts.expect(lex.STRING).value))
        elif tok.value == "graph":
            name = ts.expect(lex.NAME).value
            ts.expect(lex.PUNCT, "{")
            items.append(GraphDef(name, _parse_graph_body(ts)))
            ts.expect(lex.PUNCT, "}")
        elif tok.value == "rule":
            name = ts.expect(lex.NAME).value
            ts.expect(lex.PUNCT, "{")
            items.append(RuleDef(name, parse_rule_body(ts, name)))
            ts.expect(lex.PUNCT, "}")
        elif tok.value == "include":
            items.append(Include(ts.expect(lex.STRING).value))
        elif tok.value == "predicate":
            name = ts.expect(lex.NAME).value
            ts.expect(lex.PUNCT, "=")
            items.append(PredicateDef(name, _parse_pred(ts)))
        elif tok.value == "strategy":
            name = ts.expect(lex.NAME).value
            ts.expect(lex.PUNCT, "=")
            items.append(StrategyDef(name, _parse_strategy(ts)))
        elif tok.value == "export":
            kind_tok = ts.expect(lex.NAME)
            if kind_tok.value not in ("dot", "json"):
                raise kind_tok.error("export kind must be 'dot' or 'json'")
            items.append(ExportDirective(kind_tok.value,
                                         ts.expect(lex.STRING).value))
        else:
            raise tok.error(f"unexpected top-level keyword {tok.value!r}")
    return Script(tuple(items), base_dir)


def _deeper(tok: lex.Token, depth: int) -> int:
    """The nesting depth inside the construct that tok opens."""
    if depth >= MAX_DEPTH:
        raise tok.error(f"nesting deeper than {MAX_DEPTH} levels")
    return depth + 1


def _parse_block(ts: TokenStream, depth: int):
    """``{ <strategy> }`` one level below depth."""
    inner = _parse_strategy(ts, _deeper(ts.expect(lex.PUNCT, "{"), depth))
    ts.expect(lex.PUNCT, "}")
    return inner


def _parse_strategy(ts: TokenStream, depth: int = 0):
    parts = [_parse_term(ts, depth)]
    while ts.accept(lex.PUNCT, "->"):
        parts.append(_parse_term(ts, depth))
    return parts[0] if len(parts) == 1 else SSequence(tuple(parts))


def _parse_term(ts: TokenStream, depth: int):
    tok = ts.expect(lex.NAME)
    head = tok.value
    if head == "rule":
        return SRule(ts.expect(lex.NAME).value)
    if head == "parallel":
        inner_depth = _deeper(ts.expect(lex.PUNCT, "{"), depth)
        branches = [_parse_strategy(ts, inner_depth)]
        while ts.accept(lex.PUNCT, ","):
            branches.append(_parse_strategy(ts, inner_depth))
        ts.expect(lex.PUNCT, "}")
        return SParallel(tuple(branches))
    if head == "repeat":
        ts.expect(lex.PUNCT, "[")
        bound = ts.expect_int() if ts.at(lex.INT) else None
        ts.expect(lex.PUNCT, "]")
        return SRepeat(_parse_block(ts, depth), bound)
    if head == "revive":
        return SRevive(_parse_block(ts, depth))
    if head in ("leftPredicate", "rightPredicate"):
        expr = _parse_pred(ts, _deeper(ts.expect(lex.PUNCT, "["), depth))
        ts.expect(lex.PUNCT, "]")
        return SPredicate(head[:-len("Predicate")], expr,
                          _parse_block(ts, depth))
    if head in ("filterSubset", "filterUniverse"):
        expr = _parse_pred(ts, _deeper(ts.expect(lex.PUNCT, "["), depth))
        ts.expect(lex.PUNCT, "]")
        return SFilter(head[len("filter"):].lower(), expr)
    if head in ("sortSubset", "sortUniverse"):
        ts.expect(lex.PUNCT, "[")
        key_tok = ts.expect(lex.NAME)
        if key_tok.value not in SORT_KEYS:
            raise key_tok.error(f"unknown sort key {key_tok.value!r}")
        descending = False
        if ts.accept(lex.PUNCT, ","):
            ts.expect(lex.NAME, "desc")
            descending = True
        ts.expect(lex.PUNCT, "]")
        return SSort(head[len("sort"):].lower(), key_tok.value, descending)
    if head in ("takeSubset", "takeUniverse"):
        ts.expect(lex.PUNCT, "[")
        count = ts.expect_int()
        ts.expect(lex.PUNCT, "]")
        return STake(head[len("take"):].lower(), count)
    if head in ("addSubset", "addUniverse"):
        ts.expect(lex.PUNCT, "(")
        names = [ts.expect(lex.NAME).value]
        while ts.accept(lex.PUNCT, ","):
            names.append(ts.expect(lex.NAME).value)
        ts.expect(lex.PUNCT, ")")
        return SAdd(head[len("add"):].lower(), tuple(names))
    if head == "altRuleApp":
        return SAlt(_parse_block(ts, depth))
    if head in ("take", "filter", "sort", "add"):
        raise tok.error(f"{head!r} needs a Subset or Universe variant")
    return SRef(head)


def _parse_pred(ts: TokenStream, depth: int = 0):
    return _parse_or(ts, depth)


def _parse_or(ts: TokenStream, depth: int):
    parts = [_parse_and(ts, depth)]
    while ts.accept(lex.NAME, "or"):
        parts.append(_parse_and(ts, depth))
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


def _parse_and(ts: TokenStream, depth: int):
    parts = [_parse_not(ts, depth)]
    while ts.accept(lex.NAME, "and"):
        parts.append(_parse_not(ts, depth))
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def _parse_not(ts: TokenStream, depth: int):
    nots = 0
    while tok := ts.accept(lex.NAME, "not"):
        depth = _deeper(tok, depth)
        nots += 1
    expr = _parse_atom(ts, depth)
    for _ in range(nots):
        expr = Not(expr)
    return expr


def _parse_atom(ts: TokenStream, depth: int):
    if tok := ts.accept(lex.PUNCT, "("):
        inner = _parse_pred(ts, _deeper(tok, depth))
        ts.expect(lex.PUNCT, ")")
        return inner
    value, is_int = _parse_value(ts)
    if is_int:
        op_tok = ts.peek()
        if not (op_tok.kind == lex.PUNCT and op_tok.value in CMP_OPS):
            raise op_tok.error("integer expression needs a comparison operator")
        ts.next()
        rhs, rhs_int = _parse_value(ts)
        if not rhs_int:
            raise op_tok.error("comparison needs an integer on both sides")
        return Compare(op_tok.value, value, rhs)
    return value


def _parse_value(ts: TokenStream):
    """One predicate operand; returns (node, is_integer_typed)."""
    if ts.at(lex.INT):
        return IntLit(ts.expect_int()), True
    tok = ts.expect(lex.NAME)
    name = tok.value
    if name == "componentCount":
        return IntAtom(name, None), True
    if name in ("vertexCount", "edgeCount"):
        ts.expect(lex.PUNCT, "(")
        index = ts.expect_int()
        ts.expect(lex.PUNCT, ")")
        return IntAtom(name, index), True
    if name == "hasVertexLabel":
        ts.expect(lex.PUNCT, "(")
        index = ts.expect_int()
        ts.expect(lex.PUNCT, ",")
        label = ts.expect(lex.STRING).value
        ts.expect(lex.PUNCT, ")")
        return HasVertexLabel(index, label), False
    if name == "isGraph":
        ts.expect(lex.PUNCT, "(")
        index = ts.expect_int()
        ts.expect(lex.PUNCT, ",")
        graph_name = ts.expect(lex.NAME).value
        ts.expect(lex.PUNCT, ")")
        return IsGraph(index, graph_name), False
    return PredRef(name), False


# -- pretty printer ---------------------------------------------------------------


def format_pred(expr) -> str:
    if isinstance(expr, Or):
        return " or ".join(format_pred(p) for p in expr.parts)
    if isinstance(expr, And):
        return " and ".join(
            f"({format_pred(p)})" if isinstance(p, Or) else format_pred(p)
            for p in expr.parts)
    if isinstance(expr, Not):
        inner = format_pred(expr.inner)
        if isinstance(expr.inner, (And, Or)):
            inner = f"({inner})"
        return f"not {inner}"
    if isinstance(expr, Compare):
        return f"{format_pred(expr.lhs)} {expr.op} {format_pred(expr.rhs)}"
    if isinstance(expr, IntLit):
        return str(expr.value)
    if isinstance(expr, IntAtom):
        return expr.name if expr.index is None else f"{expr.name}({expr.index})"
    if isinstance(expr, HasVertexLabel):
        return f"hasVertexLabel({expr.index}, {lex.quote(expr.label)})"
    if isinstance(expr, IsGraph):
        return f"isGraph({expr.index}, {expr.graph_name})"
    if isinstance(expr, PredRef):
        return expr.name
    raise TypeError(f"not a predicate node: {expr!r}")


def format_strategy(node) -> str:
    if isinstance(node, SSequence):
        return " -> ".join(format_strategy(p) for p in node.parts)
    if isinstance(node, SRule):
        return f"rule {node.name}"
    if isinstance(node, SRef):
        return node.name
    if isinstance(node, SParallel):
        return "parallel { " + ", ".join(
            format_strategy(b) for b in node.branches) + " }"
    if isinstance(node, SRepeat):
        bound = "" if node.bound is None else str(node.bound)
        return f"repeat[{bound}] {{ {format_strategy(node.inner)} }}"
    if isinstance(node, SRevive):
        return f"revive {{ {format_strategy(node.inner)} }}"
    if isinstance(node, SPredicate):
        return (f"{node.side}Predicate[{format_pred(node.expr)}] "
                f"{{ {format_strategy(node.inner)} }}")
    if isinstance(node, SFilter):
        return f"filter{node.scope.capitalize()}[{format_pred(node.expr)}]"
    if isinstance(node, SSort):
        desc = ", desc" if node.descending else ""
        return f"sort{node.scope.capitalize()}[{node.key}{desc}]"
    if isinstance(node, STake):
        return f"take{node.scope.capitalize()}[{node.count}]"
    if isinstance(node, SAdd):
        return f"add{node.scope.capitalize()}(" + ", ".join(node.names) + ")"
    if isinstance(node, SAlt):
        return f"altRuleApp {{ {format_strategy(node.inner)} }}"
    raise TypeError(f"not a strategy node: {node!r}")


def format_script(script: Script) -> str:
    chunks = []
    for item in script.items:
        if isinstance(item, MoleculeDef):
            chunks.append(f"molecule {item.name} {lex.quote(item.spec)}")
        elif isinstance(item, GraphDef):
            chunks.append(serialize_graph(item.graph, item.name).rstrip("\n"))
        elif isinstance(item, RuleDef):
            chunks.append(format_rule(item.rule).rstrip("\n"))
        elif isinstance(item, Include):
            chunks.append(f"include {lex.quote(item.path)}")
        elif isinstance(item, PredicateDef):
            chunks.append(f"predicate {item.name} = {format_pred(item.expr)}")
        elif isinstance(item, StrategyDef):
            chunks.append(f"strategy {item.name} = {format_strategy(item.body)}")
        elif isinstance(item, ExportDirective):
            chunks.append(f"export {item.kind} {lex.quote(item.path)}")
        else:
            raise TypeError(f"not a script item: {item!r}")
    return "\n".join(chunks) + "\n"


# -- compilation -------------------------------------------------------------------


def _last_result(pred):
    """pred with a one-entry memo: the last (ids, ctx) and its result.

    A predicate depends only on the ids, immutable graphs and names fixed
    at compile time, so the memo never changes an answer; a reference
    shared by several paths of one predicate is then evaluated once per
    call instead of once per path.
    """
    last: list = [None, None, False]

    def memoised(ids, ctx):
        if ctx is not last[1] or ids != last[0]:
            result = pred(ids, ctx)
            last[:] = tuple(ids), ctx, result
        return last[2]
    return memoised


class _Compiler:
    def __init__(self, ctx: st.EvalContext):
        self.ctx = ctx
        self.graphs: dict[str, Graph] = {}
        self.rules: dict[str, Rule] = {}
        self.predicates: dict[str, object] = {}
        self.strategy_defs: dict[str, object] = {}
        self.exports: list[ExportDirective] = []
        # (predicate name, depth) -> closure: shared references compile once
        self._closures: dict[tuple[str, int], object] = {}

    def load(self, script: Script, _seen_includes: set[str] | None = None) -> None:
        seen = _seen_includes if _seen_includes is not None else set()
        for item in script.items:
            if isinstance(item, MoleculeDef):
                try:
                    graph = parse_molecule(item.spec)
                except MoleculeError as err:
                    raise ScriptError(f"molecule {item.name}: {err}") from err
                self._define_graph(item.name, graph)
            elif isinstance(item, GraphDef):
                self._define_graph(item.name, item.graph)
            elif isinstance(item, RuleDef):
                problems = validate_rule(item.rule)
                if problems:
                    raise ScriptError(
                        f"rule {item.name}: " + "; ".join(problems))
                if item.name in self.rules:
                    raise ScriptError(f"duplicate rule name {item.name!r}")
                self.rules[item.name] = item.rule
            elif isinstance(item, Include):
                path = os.path.normpath(os.path.join(script.base_dir, item.path))
                if path in seen:
                    raise ScriptError(f"circular include of {item.path!r}")
                seen.add(path)
                try:
                    text = Path(path).read_text(encoding="utf-8")
                except OSError as err:
                    raise ScriptError(f"cannot include {item.path!r}: {err}") from err
                self.load(parse_script(text, os.path.dirname(path) or "."), seen)
            elif isinstance(item, PredicateDef):
                if item.name in self.predicates:
                    raise ScriptError(f"duplicate predicate name {item.name!r}")
                self.predicates[item.name] = item.expr
            elif isinstance(item, StrategyDef):
                if item.name in self.strategy_defs:
                    raise ScriptError(f"duplicate strategy name {item.name!r}")
                self.strategy_defs[item.name] = item.body
            elif isinstance(item, ExportDirective):
                self.exports.append(item)

    def _define_graph(self, name: str, graph: Graph) -> None:
        if name in self.graphs:
            raise ScriptError(f"duplicate graph name {name!r}")
        if not graph.is_connected:
            raise ScriptError(f"graph {name!r} must be connected")
        self.graphs[name] = graph
        gid, _ = self.ctx.repo.intern(graph)
        self.ctx.repo.set_name(gid, name)
        self.ctx.register_known(gid)
        self.ctx.names[name] = gid

    def _compile_pred(self, expr, chain: tuple[str, ...], depth: int):
        """Resolve and check a predicate once; return a closure of (ids, ctx).
        chain holds the predicate references being followed; depth counts
        the nesting levels and references above expr."""
        if isinstance(expr, (Or, And)):
            parts = tuple(self._compile_pred(p, chain, depth + 1)
                          for p in expr.parts)
            if isinstance(expr, Or):
                return lambda ids, ctx: any(p(ids, ctx) for p in parts)
            return lambda ids, ctx: all(p(ids, ctx) for p in parts)
        if isinstance(expr, Not):
            inner = self._compile_pred(expr.inner, chain, depth + 1)
            return lambda ids, ctx: not inner(ids, ctx)
        if isinstance(expr, Compare):
            op = CMP_OPS[expr.op]
            lhs, rhs = self._compile_int(expr.lhs), self._compile_int(expr.rhs)
            return lambda ids, ctx: ((a := lhs(ids, ctx)) is not None
                                     and (b := rhs(ids, ctx)) is not None
                                     and op(a, b))
        if isinstance(expr, HasVertexLabel):
            index, label = expr.index, expr.label
            return lambda ids, ctx: index < len(ids) and any(
                lab == label for _, lab in ctx.repo.graph(ids[index]).vertices())
        if isinstance(expr, IsGraph):
            if expr.graph_name not in self.graphs:
                raise ScriptError(f"unknown graph name {expr.graph_name!r}")
            index, target = expr.index, self.ctx.names[expr.graph_name]
            return lambda ids, ctx: index < len(ids) and ids[index] == target
        if isinstance(expr, PredRef):
            if expr.name in chain:
                raise ScriptError(
                    f"predicate definitions form a cycle at {expr.name!r}")
            if expr.name not in self.predicates:
                raise ScriptError(f"unknown predicate {expr.name!r}")
            if depth >= MAX_DEPTH:
                raise ScriptError("predicate references nest too deeply")
            key = (expr.name, depth)
            if key not in self._closures:
                self._closures[key] = _last_result(self._compile_pred(
                    self.predicates[expr.name], chain + (expr.name,), depth + 1))
            return self._closures[key]
        raise ScriptError(f"not a boolean expression: {expr!r}")

    @staticmethod
    def _compile_int(expr):
        """A closure of (ids, ctx) giving the integer; None for a bad index."""
        if isinstance(expr, IntLit):
            value = expr.value
            return lambda ids, ctx: value
        if isinstance(expr, IntAtom):
            if expr.name == "componentCount":
                return lambda ids, ctx: len(ids)
            index = expr.index
            size = operator.attrgetter(
                "vertex_count" if expr.name == "vertexCount" else "edge_count")
            return lambda ids, ctx: (size(ctx.repo.graph(ids[index]))
                                     if index < len(ids) else None)
        raise ScriptError(f"not an integer expression: {expr!r}")

    def compile_strategy(self, node, chain: tuple[str, ...] = (),
                         depth: int = 0) -> st.Strategy:
        """Compile a strategy AST; chain and depth as in _compile_pred."""
        def sub(child):
            return self.compile_strategy(child, chain, depth + 1)

        if isinstance(node, SSequence):
            return st.Sequence([sub(p) for p in node.parts])
        if isinstance(node, SRule):
            rule = self.rules.get(node.name)
            if rule is None:
                raise ScriptError(f"unknown rule {node.name!r}")
            return st.RuleApplication(rule)
        if isinstance(node, SRef):
            if node.name in chain:
                raise ScriptError(
                    f"strategy definitions form a cycle at {node.name!r}")
            target = self.strategy_defs.get(node.name)
            if target is None:
                raise ScriptError(f"unknown strategy {node.name!r}")
            if depth >= MAX_DEPTH:
                raise ScriptError("strategy references nest too deeply")
            return self.compile_strategy(target, chain + (node.name,), depth + 1)
        if isinstance(node, SParallel):
            return st.Parallel([sub(b) for b in node.branches])
        if isinstance(node, SRepeat):
            return st.Repeat(sub(node.inner), node.bound)
        if isinstance(node, SRevive):
            return st.Revive(sub(node.inner))
        if isinstance(node, SPredicate):
            pred = self._compile_pred(node.expr, (), depth + 1)
            return st.Predicate(node.side, lambda rule, ids, ctx: pred(ids, ctx),
                                sub(node.inner))
        if isinstance(node, SFilter):
            pred = self._compile_pred(node.expr, (), depth + 1)
            return st.Filter(node.scope, lambda gid, state, ctx: pred((gid,), ctx))
        if isinstance(node, SSort):
            return st.Sort(node.scope, SORT_KEYS[node.key], node.descending)
        if isinstance(node, STake):
            return st.Take(node.scope, node.count)
        if isinstance(node, SAdd):
            graphs = []
            for name in node.names:
                g = self.graphs.get(name)
                if g is None:
                    raise ScriptError(f"unknown graph name {name!r}")
                graphs.append(g)
            return st.Add(node.scope, graphs)
        if isinstance(node, SAlt):
            return st.AltRuleApplication(sub(node.inner))
        raise ScriptError(f"not a strategy node: {node!r}")


# -- running -----------------------------------------------------------------------


@dataclass
class RunReport:
    new_graphs: int
    derivations: int
    embedding_queries: int
    seconds: float
    universe_size: int
    subset_size: int

    def summary(self) -> str:
        return (f"{self.new_graphs} new graphs through {self.derivations} "
                f"derivations ({self.embedding_queries} embedding queries, "
                f"{self.seconds:.2f}s)")


def write_atomic(path: str, text: str) -> None:
    """Write text to path through a temporary file and a rename; on any
    failure the temporary file is removed and the error re-raised."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_script(path: str) -> Script:
    text = Path(path).read_text(encoding="utf-8")
    return parse_script(text, os.path.dirname(path) or ".")


def run_script(script: Script,
               dot_path: str | None = None,
               json_path: str | None = None,
               ctx: st.EvalContext | None = None) -> RunReport:
    """Evaluate the script's ``main`` strategy on the empty graph state
    (in a fresh ``EvalContext`` unless ctx is given), write requested
    exports, and report run statistics."""
    if ctx is None:
        ctx = st.EvalContext()
    compiler = _Compiler(ctx)
    compiler.load(script)
    entry = None
    if "main" in compiler.strategy_defs:
        entry = compiler.compile_strategy(SRef("main"))
    queries_before = ctx.cache.queries
    started = time.perf_counter()
    final = entry.apply(st.EMPTY_STATE, ctx) if entry is not None else st.EMPTY_STATE
    elapsed = time.perf_counter() - started
    for export in compiler.exports:
        text = (ctx.sink.to_dot(ctx.repo) if export.kind == "dot"
                else ctx.sink.to_json(ctx.repo))
        write_atomic(os.path.join(script.base_dir, export.path), text)
    if dot_path:
        write_atomic(dot_path, ctx.sink.to_dot(ctx.repo))
    if json_path:
        write_atomic(json_path, ctx.sink.to_json(ctx.repo))
    return RunReport(
        new_graphs=ctx.stats.new_graphs,
        derivations=ctx.stats.derivations,
        embedding_queries=ctx.cache.queries - queries_before,
        seconds=elapsed,
        universe_size=len(final.universe),
        subset_size=len(final.subset),
    )
