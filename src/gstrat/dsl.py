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

``TERMS`` gives each keyword's argument forms once.  Defining a name that
could never be referenced (a keyword, a bare stem, a predicate word) fails.

Predicates are boolean expressions over the graph multiset under test:
``componentCount``, ``vertexCount(i)``, ``edgeCount(i)`` (integers, with
``== != < <= > >=``), ``hasVertexLabel(i, "l")``, ``isGraph(i, name)``,
combined with ``and``/``or``/``not``.  The multiset is indexed in sorted
graph-id order; an out-of-range index makes the atom false.  Sort keys:
``vertexCount``, ``edgeCount``, ``text`` (the serialized graph).

A predicate is compiled once, with the strategy that uses it: names are
resolved and cycles found before the run, which then only calls closures.
Braces, ``[<pred>]``, parentheses and ``not`` nest at most ``MAX_DEPTH`` levels
(a ``ParseError`` at the offending token), and a reference is followed only
below that many levels of nesting plus references (a located ``ScriptError``).
"""
from __future__ import annotations

import contextlib
import functools
import operator
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from gstrat import lex
from gstrat.graphs import Graph, _parse_graph_body, serialize_graph
from gstrat.lex import TokenStream
from gstrat.rules import Rule, format_rule, parse_rule_body
from gstrat.chem import MoleculeError, parse_molecule
from gstrat import strategies as st


class ScriptError(ValueError):
    """Semantic error in a script (unknown name, cycle, duplicate name...)."""


class Name(str):
    """A name as a script references it: equal to, hashed and printed as
    the plain string, and located at its token, so that a name the compiler
    cannot resolve is reported where it is used."""

    def __new__(cls, tok: lex.Token) -> Name:
        name = super().__new__(cls, tok.value)
        name.line, name.column = tok.line, tok.column
        return name


# -- predicate expression AST ---------------------------------------------------

CMP_OPS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
           "<=": operator.le, ">": operator.gt, ">=": operator.ge}
SORT_KEYS = {"vertexCount": lambda gid, ctx: ctx.repo.graph(gid).vertex_count,
             "edgeCount": lambda gid, ctx: ctx.repo.graph(gid).edge_count,
             "text": lambda gid, ctx: serialize_graph(ctx.repo.graph(gid))}
#: The words a predicate can start with other than a reference.
PRED_WORDS = ("not", "componentCount", "vertexCount", "edgeCount", "hasVertexLabel",
              "isGraph")
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
class STerm:
    """A keyword term: one argument per form in ``TERMS[keyword]``."""
    keyword: str
    args: tuple


@dataclass(frozen=True)
class SRef:
    name: str


@dataclass(frozen=True)
class SSequence:
    parts: tuple


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
            name = ts.expect(lex.NAME)
            ts.expect(lex.PUNCT, "{")
            items.append(RuleDef(name.value, parse_rule_body(ts, name)))
            ts.expect(lex.PUNCT, "}")
        elif tok.value == "include":
            items.append(Include(ts.expect(lex.STRING).value))
        elif tok.value == "predicate":
            name = _definition_name(ts, "predicate", PRED_WORDS)
            ts.expect(lex.PUNCT, "=")
            items.append(PredicateDef(name, _parse_pred(ts)))
        elif tok.value == "strategy":
            name = _definition_name(ts, "strategy", TERMS.keys() | _SCOPED.keys())
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


def _definition_name(ts: TokenStream, kind: str, reserved) -> str:
    """The name a definition introduces; a reserved word could never be
    referenced, so it is rejected here."""
    tok = ts.expect(lex.NAME)
    if tok.value in reserved:
        raise tok.error(f"{tok.value!r} is a reserved word and cannot name a {kind}")
    return tok.value


def _deeper(tok: lex.Token, depth: int) -> int:
    """The nesting depth inside the construct that tok opens."""
    if depth >= MAX_DEPTH:
        raise tok.error(f"nesting deeper than {MAX_DEPTH} levels")
    return depth + 1


def _enclosed(opening: str, closing: str, read, deepen: bool = False):
    """read between the delimiters; deepen counts them toward MAX_DEPTH."""
    def read_enclosed(ts: TokenStream, depth: int):
        tok = ts.expect(lex.PUNCT, opening)
        arg = read(ts, _deeper(tok, depth) if deepen else depth)
        ts.expect(lex.PUNCT, closing)
        return arg
    return read_enclosed


def _listed(ts: TokenStream, read, kind: str = lex.PUNCT, separator: str = ","):
    """One or more of read(), separated by the separator token."""
    items = [read()]
    while ts.accept(kind, separator):
        items.append(read())
    return tuple(items)


def _parse_strategy(ts: TokenStream, depth: int = 0):
    parts = _listed(ts, lambda: _parse_term(ts, depth), separator="->")
    return parts[0] if len(parts) == 1 else SSequence(parts)


def _parse_term(ts: TokenStream, depth: int):
    tok = ts.expect(lex.NAME)
    if tok.value in TERMS:
        forms, _ = TERMS[tok.value]
        return STerm(tok.value, tuple(form.read(ts, depth) for form in forms))
    if tok.value in _SCOPED:
        raise tok.error(f"{tok.value!r} needs a Subset or Universe variant")
    return SRef(Name(tok))


def _parse_pred(ts: TokenStream, depth: int = 0):
    return _parse_or(ts, depth)


def _parse_or(ts: TokenStream, depth: int):
    parts = _listed(ts, lambda: _parse_and(ts, depth), lex.NAME, "or")
    return parts[0] if len(parts) == 1 else Or(parts)


def _parse_and(ts: TokenStream, depth: int):
    parts = _listed(ts, lambda: _parse_not(ts, depth), lex.NAME, "and")
    return parts[0] if len(parts) == 1 else And(parts)


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
    if ts.at(lex.PUNCT, "("):
        return _enclosed("(", ")", _parse_pred, deepen=True)(ts, depth)
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
        graph_name = Name(ts.expect(lex.NAME))
        ts.expect(lex.PUNCT, ")")
        return IsGraph(index, graph_name), False
    return PredRef(Name(tok)), False


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
    if isinstance(node, SRef):
        return node.name
    if isinstance(node, STerm):
        forms, _ = TERMS[node.keyword]
        return node.keyword + "".join(
            form.show(arg) for form, arg in zip(forms, node.args))
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


# -- keyword terms ---------------------------------------------------------------


@dataclass(frozen=True)
class _Form:
    """One argument form of a keyword term.  read(ts, depth) parses it,
    show(arg) prints it as it follows the keyword, and build(compiler, arg,
    chain, depth) compiles it at the depth one below the term."""
    read: Callable
    show: Callable
    build: Callable = lambda compiler, arg, *_: arg


def _read_sort_key(ts: TokenStream, depth: int) -> tuple[str, bool]:
    key_tok = ts.expect(lex.NAME)
    if key_tok.value not in SORT_KEYS:
        raise key_tok.error(f"unknown sort key {key_tok.value!r}")
    return key_tok.value, bool(ts.accept(lex.PUNCT, ",")
                               and ts.expect(lex.NAME, "desc"))


_RULE = _Form(lambda ts, depth: Name(ts.expect(lex.NAME)), " {}".format,
              lambda compiler, name, chain, depth: compiler.lookup(
                  compiler.rules, name, "rule", chain))
_BRANCHES = _Form(
    _enclosed("{", "}", lambda ts, depth: _listed(
        ts, lambda: _parse_strategy(ts, depth)), deepen=True),
    lambda branches: " { " + ", ".join(map(format_strategy, branches)) + " }",
    lambda compiler, branches, chain, depth: [
        compiler.compile_strategy(b, chain, depth) for b in branches])
_BLOCK = _Form(_enclosed("{", "}", _parse_strategy, deepen=True),
               lambda node: f" {{ {format_strategy(node)} }}",
               lambda compiler, node, chain, depth: compiler.compile_strategy(
                   node, chain, depth))
_BOUND = _Form(
    _enclosed("[", "]", lambda ts, depth: ts.expect_int() if ts.at(lex.INT) else None),
    lambda bound: f"[{'' if bound is None else bound}]")
_COUNT = _Form(_enclosed("[", "]", lambda ts, depth: ts.expect_int()), "[{}]".format)
_PRED = _Form(_enclosed("[", "]", _parse_pred, deepen=True),
              lambda expr: f"[{format_pred(expr)}]",
              lambda compiler, expr, chain, depth: compiler._compile_pred(
                  expr, chain, depth))
_KEY = _Form(_enclosed("[", "]", _read_sort_key),
             lambda key: f"[{key[0]}{', desc' if key[1] else ''}]",
             lambda compiler, key, *_: (SORT_KEYS[key[0]], key[1]))
_NAMES = _Form(
    _enclosed("(", ")", lambda ts, depth: _listed(
        ts, lambda: Name(ts.expect(lex.NAME)))),
    lambda names: "(" + ", ".join(names) + ")",
    lambda compiler, names, chain, depth: [
        compiler.lookup(compiler.graphs, name, "graph name", chain) for name in names])

#: Stem -> (argument forms, builder from the scope and the compiled
#: arguments); each stem has a Subset and a Universe keyword.
_SCOPED = {
    "filter": ((_PRED,), lambda scope, pred: st.Filter(
        scope, lambda gid, state, ctx: pred((gid,), ctx))),
    "sort": ((_KEY,), lambda scope, key: st.Sort(scope, *key)),
    "take": ((_COUNT,), st.Take),
    "add": ((_NAMES,), st.Add),
}

#: Keyword -> (argument forms, builder of its strategy from the compiled
#: arguments).  Parsing, printing and compiling a keyword term read only this.
TERMS = {
    "rule": ((_RULE,), st.RuleApplication),
    "parallel": ((_BRANCHES,), st.Parallel),
    "repeat": ((_BOUND, _BLOCK), lambda bound, inner: st.Repeat(inner, bound)),
    "revive": ((_BLOCK,), st.Revive),
    "altRuleApp": ((_BLOCK,), st.AltRuleApplication),
    **{f"{side}Predicate": ((_PRED, _BLOCK), functools.partial(
        lambda side, pred, inner: st.Predicate(
            side, lambda rule, ids, ctx: pred(ids, ctx), inner), side))
       for side in ("left", "right")},
    **{stem + scope.capitalize(): (forms, functools.partial(build, scope))
       for stem, (forms, build) in _SCOPED.items()
       for scope in ("subset", "universe")},
}


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
        # ("predicate" or "strategy", name) -> the included file defining it
        self._files: dict[tuple[str, str], str] = {}

    def load(self, script: Script, seen: set[str] | None = None,
             file: str = "") -> None:
        """Define the script's items; file is an included script's path
        below the top-level script's directory ("" for that script)."""
        seen = seen if seen is not None else set()
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
                if item.name in self.rules:
                    raise ScriptError(f"duplicate rule name {item.name!r}")
                self.rules[item.name] = item.rule
            elif isinstance(item, Include):
                path = os.path.normpath(os.path.join(script.base_dir, item.path))
                if path in seen:
                    raise ScriptError(f"circular include of {item.path!r}")
                seen.add(path)
                included = os.path.join(os.path.dirname(file), item.path)
                try:
                    parsed = load_script(path)
                except OSError as err:
                    raise ScriptError(f"cannot include {item.path!r}: {err}") from err
                except lex.ParseError as err:
                    err.args = (f"{included}:{err}",)
                    raise
                self.load(parsed, seen, included)
            elif isinstance(item, PredicateDef):
                if item.name in self.predicates:
                    raise ScriptError(f"duplicate predicate name {item.name!r}")
                self.predicates[item.name] = item.expr
                self._files["predicate", item.name] = file
            elif isinstance(item, StrategyDef):
                if item.name in self.strategy_defs:
                    raise ScriptError(f"duplicate strategy name {item.name!r}")
                self.strategy_defs[item.name] = item.body
                self._files["strategy", item.name] = file
            elif isinstance(item, ExportDirective):
                self.exports.append(item)

    def error(self, name: str, message: str, chain: tuple) -> ScriptError:
        """A ``ScriptError`` about a name in the definition that ends chain;
        a parsed name's location leads, after the included file holding it."""
        if isinstance(name, Name):
            file = self._files[chain[-1]] if chain else ""
            message = f"{file}{':' if file else ''}{name.line}:{name.column}: {message}"
        return ScriptError(message)

    def lookup(self, table: dict, name: str, what: str, chain: tuple):
        """table[name]; an unknown name is an error at the name."""
        if name not in table:
            raise self.error(name, f"unknown {what} {name!r}", chain)
        return table[name]

    def _follow(self, kind: str, name: str, table: dict, chain: tuple, depth: int):
        """The definition a reference names, and the chain inside it; a
        cycle, or a reference too deep, is an error at the name."""
        if (kind, name) in chain:
            raise self.error(name, f"{kind} definitions form a cycle at {name!r}", chain)
        target = self.lookup(table, name, kind, chain)
        if depth >= MAX_DEPTH:
            raise self.error(name, f"{kind} references nest too deeply", chain)
        return target, chain + ((kind, name),)

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

    def _compile_pred(self, expr, chain: tuple[tuple[str, str], ...], depth: int):
        """Resolve and check a predicate once; return a closure of (ids, ctx).
        chain holds the (kind, name) of each definition being followed;
        depth counts the nesting levels and references above expr."""
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
            self.lookup(self.graphs, expr.graph_name, "graph name", chain)
            index, target = expr.index, self.ctx.names[expr.graph_name]
            return lambda ids, ctx: index < len(ids) and ids[index] == target
        if isinstance(expr, PredRef):
            target, inner = self._follow("predicate", expr.name, self.predicates,
                                         chain, depth)
            key = (expr.name, depth)
            if key not in self._closures:
                self._closures[key] = _last_result(self._compile_pred(
                    target, inner, depth + 1))
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

    def compile_strategy(self, node, chain: tuple[tuple[str, str], ...] = (),
                         depth: int = 0) -> st.Strategy:
        """Compile a strategy AST; chain and depth as in _compile_pred."""
        if isinstance(node, SSequence):
            return st.Sequence([self.compile_strategy(p, chain, depth + 1)
                                for p in node.parts])
        if isinstance(node, SRef):
            target, inner = self._follow("strategy", node.name, self.strategy_defs,
                                         chain, depth)
            return self.compile_strategy(target, inner, depth + 1)
        if isinstance(node, STerm):
            forms, build = TERMS[node.keyword]
            return build(*(form.build(self, arg, chain, depth + 1)
                           for form, arg in zip(forms, node.args)))
        raise ScriptError(f"not a strategy node: {node!r}")


# -- running -----------------------------------------------------------------------


@dataclass
class RunReport:
    new_graphs: int
    derivations: int
    embedding_queries: int
    seconds: float          # the main strategy
    export_seconds: float   # rendering and writing every export
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
    export_started = time.perf_counter()
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
        derivations=len(ctx.sink),
        embedding_queries=ctx.cache.queries - queries_before,
        seconds=elapsed,
        export_seconds=time.perf_counter() - export_started,
        universe_size=len(final.universe),
        subset_size=len(final.subset),
    )
