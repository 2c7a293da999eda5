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

``TERMS`` gives each keyword's argument forms once, ``ATOMS`` each predicate
atom's, and ``ITEMS`` each top-level item's reader, printer and definer.  A
name that could never be referenced (a keyword, a bare stem, a predicate
word) cannot be defined.

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
    """A name as a script writes it: equal to, hashed and printed as the
    plain string, and located at its token (file, line and column), so that
    an error about it is reported where it is written."""

    def __new__(cls, tok: lex.Token) -> Name:
        name = super().__new__(cls, tok.value)
        name.line, name.column, name.file = tok.line, tok.column, tok.file
        return name


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
class Atom:
    """A predicate atom: one argument per form in ``ATOMS[word]``."""
    word: str
    args: tuple


@dataclass(frozen=True)
class Compare:
    op: str
    lhs: IntLit | Atom
    rhs: IntLit | Atom


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
class Item:
    """A top-level item as ``ITEMS[keyword]`` reads it: the name it defines
    (an include's or an export's path), located when parsed, and its body.
    Items compare by keyword, name and ``ITEMS[keyword].content(body)``."""
    keyword: str
    name: str
    body: object = field(default=None, compare=False)
    content: object = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "content", ITEMS[self.keyword].content(self.body))


@dataclass(frozen=True)
class Script:
    items: tuple
    base_dir: str = field(default=".", compare=False)
    path: str = field(default="", compare=False)  # the file it was read from


# -- parser ----------------------------------------------------------------------


def parse_script(text: str, base_dir: str = ".") -> Script:
    return _parse(lex.tokenize(text), base_dir)


def _parse(tokens: list[lex.Token], base_dir: str, path: str = "") -> Script:
    ts = TokenStream(tokens)
    items: list = []
    while not ts.at(lex.EOF):
        tok = ts.expect(lex.NAME)
        if tok.value not in ITEMS:
            raise tok.error(f"unexpected top-level keyword {tok.value!r}")
        items.append(Item(tok.value, *ITEMS[tok.value].read(ts)))
    return Script(tuple(items), base_dir, path)


def _named_block(read_body):
    """The reader of ``<name> { <body> }``; read_body(ts, name token) reads
    the body."""
    def read(ts: TokenStream):
        tok = ts.expect(lex.NAME)
        return Name(tok), _enclosed("{", "}", lambda ts, _: read_body(ts, tok))(ts, 0)
    return read


def _definition(kind: str, reserved, read_body):
    """The reader of ``<name> = <body>``; a reserved word could never be
    referenced, so it cannot be the name."""
    def read(ts: TokenStream):
        tok = ts.expect(lex.NAME)
        if tok.value in reserved:
            raise tok.error(f"{tok.value!r} is a reserved word and cannot name a {kind}")
        ts.expect(lex.PUNCT, "=")
        return Name(tok), read_body(ts)
    return read


def _read_export(ts: TokenStream):
    kind = ts.expect(lex.NAME)
    if kind.value not in ("dot", "json"):
        raise kind.error("export kind must be 'dot' or 'json'")
    return Name(ts.expect(lex.STRING)), kind.value


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
    if tok := ts.accept(lex.NAME, "not"):
        return Not(_parse_not(ts, _deeper(tok, depth)))
    return _parse_atom(ts, depth)


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
    if tok.value not in ATOMS:
        return PredRef(Name(tok)), False
    forms, is_int, _ = ATOMS[tok.value]
    args = _enclosed("(", ")", _arguments(forms))(ts, 0) if forms else ()
    return Atom(tok.value, args), is_int


def _arguments(forms):
    """The reader of one argument per form, separated by commas."""
    def read(ts: TokenStream, depth: int):
        args = [forms[0].read(ts, depth)]
        for form in forms[1:]:
            ts.expect(lex.PUNCT, ",")
            args.append(form.read(ts, depth))
        return tuple(args)
    return read


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
    if isinstance(expr, Atom):
        forms, _, _ = ATOMS[expr.word]
        shown = ", ".join(form.show(arg) for form, arg in zip(forms, expr.args))
        return f"{expr.word}({shown})" if forms else expr.word
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
    return "".join(ITEMS[item.keyword].show(item.name, item.body)
                   for item in script.items)


# -- keyword terms ---------------------------------------------------------------


@dataclass(frozen=True)
class _Form:
    """One argument form of a keyword term or a predicate atom.  read(ts,
    depth) parses it, show(arg) prints it as read, and build(compiler, arg,
    chain, depth) compiles it at the depth one below the term or atom."""
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
              lambda compiler, name, *_: compiler.lookup(compiler.rules, name, "rule"))
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
    lambda compiler, names, *_: [
        compiler.lookup(compiler.graphs, name, "graph name") for name in names])

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


def _sized(attr: str):
    """The builder of an atom giving attr of the graph at an index."""
    size = operator.attrgetter(attr)
    return lambda index: lambda ids, ctx: (size(ctx.repo.graph(ids[index]))
                                           if index < len(ids) else None)


def _graph_id(compiler, name: str, *_) -> int:
    compiler.lookup(compiler.graphs, name, "graph name")
    return compiler.ctx.names[name]


_INDEX = _Form(lambda ts, depth: ts.expect_int(), str)

#: Word -> (argument forms, whether it is integer-typed, builder of its
#: closure of (ids, ctx) from the compiled arguments, None for an integer
#: atom at an out-of-range index).  The arguments follow the word as
#: ``(<arg>, ...)``.  Parsing, printing and compiling an atom read only this.
ATOMS = {
    "componentCount": ((), True, lambda: lambda ids, ctx: len(ids)),
    "vertexCount": ((_INDEX,), True, _sized("vertex_count")),
    "edgeCount": ((_INDEX,), True, _sized("edge_count")),
    "hasVertexLabel": (
        (_INDEX, _Form(lambda ts, depth: ts.expect(lex.STRING).value, lex.quote)),
        False, lambda index, label: lambda ids, ctx: index < len(ids) and any(
            lab == label for _, lab in ctx.repo.graph(ids[index]).vertices())),
    "isGraph": (
        (_INDEX, _Form(lambda ts, depth: Name(ts.expect(lex.NAME)), str, _graph_id)),
        False, lambda index, target: lambda ids, ctx: (index < len(ids)
                                                      and ids[index] == target)),
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
        self.exports: list[tuple[str, str]] = []  # (kind, path)
        # (predicate name, depth) -> closure: shared references compile once
        self._closures: dict[tuple[str, int], object] = {}
        # Each script being loaded, outermost first, with its file as in load
        self._loading: list[tuple[Script, str]] = []

    def load(self, script: Script, file: str = "") -> None:
        """Define the script's items in order; file is an included script's
        path below the top-level script's directory ("" for that script)."""
        self._loading.append((script, file))
        for item in script.items:
            ITEMS[item.keyword].define(self, item)
        self._loading.pop()

    @staticmethod
    def error(name: str, message: str) -> ScriptError:
        """The ``ScriptError`` about a name: a parsed name's location leads,
        after the included file that holds it."""
        if isinstance(name, Name):
            message = lex.locate(message, name.line, name.column, name.file)
        return ScriptError(message)

    def define(self, table: dict, kind: str, name: str, value) -> None:
        """table[name] = value; a second definition of the name is an error."""
        if name in table:
            raise self.error(name, f"duplicate {kind} name {name!r}")
        table[name] = value

    def lookup(self, table: dict, name: str, what: str):
        """table[name]; an unknown name is an error at the name."""
        if name not in table:
            raise self.error(name, f"unknown {what} {name!r}")
        return table[name]

    def _follow(self, kind: str, name: str, table: dict, chain: tuple, depth: int):
        """The definition a reference names, and the chain inside it; a
        cycle, or a reference too deep, is an error at the name."""
        if (kind, name) in chain:
            raise self.error(name, f"{kind} definitions form a cycle at {name!r}")
        target = self.lookup(table, name, kind)
        if depth >= MAX_DEPTH:
            raise self.error(name, f"{kind} references nest too deeply")
        return target, chain + ((kind, name),)

    def _define_graph(self, name: str, graph: Graph) -> None:
        self.define(self.graphs, "graph", name, graph)
        if not graph.is_connected:
            raise self.error(name, f"graph {name!r} must be connected")
        gid, _ = self.ctx.repo.intern(graph)
        self.ctx.repo.set_name(gid, name)
        self.ctx.register_known(gid)
        self.ctx.names[name] = gid

    def _define_molecule(self, item: Item) -> None:
        try:
            graph = parse_molecule(item.body)
        except MoleculeError as err:
            raise self.error(item.name, f"molecule {item.name}: {err}") from err
        self._define_graph(item.name, graph)

    def _include(self, item: Item) -> None:
        """Load the file an include names.  A file that is being loaded
        cannot be included: that include closes a cycle."""
        script, file = self._loading[-1]
        path = os.path.normpath(os.path.join(script.base_dir, item.name))
        if any(path == os.path.normpath(s.path) for s, _ in self._loading if s.path):
            raise self.error(item.name, f"circular include of {item.name!r}")
        included = os.path.normpath(os.path.join(os.path.dirname(file), item.name))
        try:
            included_script = _load(path, included)
        except (OSError, UnicodeDecodeError) as err:
            reason = err.strerror if isinstance(err, OSError) else err
            raise self.error(item.name, f"cannot include {item.name!r}: {reason}") from err
        self.load(included_script, included)

    def _compile_pred(self, expr, chain: tuple[tuple[str, str], ...], depth: int):
        """Resolve and check a predicate or an integer operand once; return a
        closure of (ids, ctx).  chain holds the (kind, name) of each definition
        being followed; depth counts the nesting levels and references above expr."""
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
            lhs, rhs = (self._compile_pred(side, chain, depth + 1)
                        for side in (expr.lhs, expr.rhs))
            return lambda ids, ctx: ((a := lhs(ids, ctx)) is not None
                                     and (b := rhs(ids, ctx)) is not None
                                     and op(a, b))
        if isinstance(expr, IntLit):
            value = expr.value
            return lambda ids, ctx: value
        if isinstance(expr, Atom):
            forms, _, build = ATOMS[expr.word]
            return build(*(form.build(self, arg, chain, depth + 1)
                           for form, arg in zip(forms, expr.args)))
        if isinstance(expr, PredRef):
            target, inner = self._follow("predicate", expr.name, self.predicates,
                                         chain, depth)
            key = (expr.name, depth)
            if key not in self._closures:
                self._closures[key] = _last_result(self._compile_pred(
                    target, inner, depth + 1))
            return self._closures[key]
        raise TypeError(f"not a predicate node: {expr!r}")

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
        raise TypeError(f"not a strategy node: {node!r}")


@dataclass(frozen=True)
class _ItemKind:
    """One top-level keyword.  read(ts) parses what follows the keyword into
    (name, body); show(name, body) prints the item; define(compiler, item)
    adds it to a _Compiler; content(body) is what the item compares by."""
    read: Callable
    show: Callable
    define: Callable
    content: Callable = lambda body: body


#: Keyword -> its item kind.  Parsing, printing, loading and comparing a
#: script item read only this.
ITEMS = {
    "molecule": _ItemKind(
        lambda ts: (Name(ts.expect(lex.NAME)), ts.expect(lex.STRING).value),
        lambda name, spec: f"molecule {name} {lex.quote(spec)}\n",
        _Compiler._define_molecule),
    "graph": _ItemKind(
        _named_block(lambda ts, name: _parse_graph_body(ts)),
        lambda name, graph: serialize_graph(graph, name),
        lambda compiler, item: compiler._define_graph(item.name, item.body),
        lambda graph: (tuple(graph.vertices()), tuple(graph.edges()))),
    "rule": _ItemKind(
        _named_block(parse_rule_body), lambda name, rule: format_rule(rule),
        lambda compiler, item: compiler.define(compiler.rules, "rule", item.name,
                                               item.body),
        lambda rule: (rule.vertices, rule.edges)),
    "include": _ItemKind(
        lambda ts: (Name(ts.expect(lex.STRING)), None),
        lambda path, _: f"include {lex.quote(path)}\n", _Compiler._include),
    "predicate": _ItemKind(
        _definition("predicate", {"not", *ATOMS}, _parse_pred),
        lambda name, expr: f"predicate {name} = {format_pred(expr)}\n",
        lambda compiler, item: compiler.define(compiler.predicates, "predicate",
                                               item.name, item.body)),
    "strategy": _ItemKind(
        _definition("strategy", TERMS.keys() | _SCOPED.keys(), _parse_strategy),
        lambda name, body: f"strategy {name} = {format_strategy(body)}\n",
        lambda compiler, item: compiler.define(compiler.strategy_defs, "strategy",
                                               item.name, item.body)),
    "export": _ItemKind(
        _read_export, lambda path, kind: f"export {kind} {lex.quote(path)}\n",
        lambda compiler, item: compiler.exports.append((item.body, item.name))),
}


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
    """The script in the file at path.  A file that is not UTF-8 is
    reported by name, as an include of it is."""
    try:
        return _load(path, "")
    except UnicodeDecodeError as err:
        raise _Compiler.error(path, f"cannot read {path!r}: {err}") from err


def _load(path: str, file: str) -> Script:
    """The script in the file at path; file leads the locations in it."""
    text = Path(path).read_text(encoding="utf-8")
    return _parse(lex.tokenize(text, file), os.path.dirname(path) or ".", path)


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
    for kind, path in compiler.exports:
        text = ctx.sink.to_dot(ctx.repo) if kind == "dot" else ctx.sink.to_json(ctx.repo)
        write_atomic(os.path.join(script.base_dir, path), text)
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
