"""The derivation hypergraph: accumulated rewriting history over graph classes.

Vertices are interned graph ids; hyperedges are deduplicated derivations
with stoichiometric multiplicities on both sides.  Exports follow the
bipartite drawing convention: a rule application becomes an intermediate
box node with one arc per multiplicity unit, except 1-to-1 derivations,
which are drawn as a single labeled arc.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from gstrat.graphs import GraphRepository, LineEnds, serialize_graph
from gstrat.lex import quote
from gstrat.rewrite import Derivation

_json_str = json.encoder.encode_basestring_ascii


def _multiset(ids: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    counts = Counter(ids)
    return tuple(sorted(counts.items()))


def _json_list(items: list[str], indent: str) -> str:
    """Rendered items as a JSON array in the ``json.dumps(indent=2)``
    layout, closed at the given indent."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + f"\n{indent}]"


def _json_counts(pairs: tuple[tuple[int, int], ...]) -> str:
    return _json_list([f'        {{\n          "id": {gid},\n'
                       f'          "count": {count}\n        }}'
                       for gid, count in pairs], "      ")


@dataclass(frozen=True)
class HyperEdge:
    inputs: tuple[tuple[int, int], ...]   # (graph id, multiplicity), sorted
    rule_name: str
    outputs: tuple[tuple[int, int], ...]

    @property
    def is_one_to_one(self) -> bool:
        return (len(self.inputs) == 1 and self.inputs[0][1] == 1
                and len(self.outputs) == 1 and self.outputs[0][1] == 1)


class DerivationGraph:
    """Single-writer accumulator of derivations as a directed multihypergraph."""

    def __init__(self) -> None:
        self._vertices: dict[int, None] = {}
        self._edges: list[HyperEdge] = []
        self._keys: set[tuple] = set()

    @property
    def vertex_ids(self) -> list[int]:
        return list(self._vertices)

    @property
    def edges(self) -> list[HyperEdge]:
        return list(self._edges)

    def __len__(self) -> int:
        return len(self._edges)

    def record(self, derivation: Derivation) -> bool:
        """Insert the derivation's hyperedge; False if already present."""
        key = derivation.key
        if key in self._keys:
            return False
        self._keys.add(key)
        edge = HyperEdge(_multiset(derivation.inputs), derivation.rule.name,
                         _multiset(derivation.outputs))
        for gid in derivation.inputs + derivation.outputs:
            self._vertices.setdefault(gid, None)
        self._edges.append(edge)
        return True

    def to_dot(self, repo: GraphRepository) -> str:
        lines = ["digraph derivations {"]
        for gid in sorted(self._vertices):
            lines.append(f'  g{gid} [label={quote(repo.name(gid))}];')
        for i, edge in enumerate(self._edges):
            if edge.is_one_to_one:
                src = edge.inputs[0][0]
                dst = edge.outputs[0][0]
                lines.append(f'  g{src} -> g{dst} [label={quote(edge.rule_name)}];')
                continue
            lines.append(f'  e{i} [shape=box, label={quote(edge.rule_name)}];')
            for gid, count in edge.inputs:
                for _ in range(count):
                    lines.append(f"  g{gid} -> e{i};")
            for gid, count in edge.outputs:
                for _ in range(count):
                    lines.append(f"  e{i} -> g{gid};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_json(self, repo: GraphRepository) -> str:
        """``json.dumps(payload, indent=2) + "\\n"`` of the payload
        ``{"format": 1, "graphs": [{"id", "name", "gml"}, ...], "edges":
        [{"in": [{"id", "count"}, ...], "rule", "out": [...]}, ...]}``, with
        graphs in ascending id order and edges in recorded order, written
        from fixed templates in one pass.  Strings are escaped by the
        encoder ``json.dumps`` uses, and one ``LineEnds`` quotes each label
        once across every ``gml`` text."""
        ends = LineEnds()
        graphs = []
        for gid in sorted(self._vertices):
            name = repo.name(gid)
            gml = serialize_graph(repo.graph(gid), name, ends)
            graphs.append(f'    {{\n      "id": {gid},\n'
                          f'      "name": {_json_str(name)},\n'
                          f'      "gml": {_json_str(gml)}\n    }}')
        edges = [f'    {{\n      "in": {_json_counts(e.inputs)},\n'
                 f'      "rule": {_json_str(e.rule_name)},\n'
                 f'      "out": {_json_counts(e.outputs)}\n    }}'
                 for e in self._edges]
        return (f'{{\n  "format": 1,\n  "graphs": {_json_list(graphs, "  ")},\n'
                f'  "edges": {_json_list(edges, "  ")}\n}}\n')

    def find_path(self, source: int, target: int,
                  free_inputs: tuple[int, ...] = (),
                  edge_filter=None) -> list[HyperEdge] | None:
        """A shortest sequence of hyperedges leading from source to target.

        An edge can fire once all its inputs are reached; the search starts
        from the source plus the designated always-available inputs.  An
        edge_filter callable restricts which hyperedges may be used.  Returns
        the firing sequence in dependency order, the empty list when the
        target is the source or a free input, or None when the target is
        unreachable.
        """
        if source == target or target in free_inputs:
            return []
        edges = self._edges
        if edge_filter is not None:
            edges = [e for e in edges if edge_filter(e)]
        # Layers: the edges with every input reached fire in recorded order,
        # the first to produce a graph being its parent.  Only an edge with
        # an input reached in the last layer can fire for the first time.
        users: dict[int, list[int]] = {}
        for i, edge in enumerate(edges):
            for gid, _ in edge.inputs:
                users.setdefault(gid, []).append(i)
        reached = {source, *free_inputs}
        parent: dict[int, HyperEdge] = {}
        candidates: Iterable[int] = range(len(edges))
        while True:
            newly: list[int] = []
            for i in sorted(candidates):
                if not all(gid in reached for gid, _ in edges[i].inputs):
                    continue
                for gid, _ in edges[i].outputs:
                    if gid not in reached and gid not in parent:
                        parent[gid] = edges[i]
                        newly.append(gid)
            if not newly:
                return None
            reached.update(newly)
            if target in reached:
                break
            candidates = {i for gid in newly for i in users.get(gid, ())}

        # Post-order from the target: each edge after its inputs' producers.
        path: list[HyperEdge] = []
        seen_edges: set[int] = set()
        stack: list[tuple[HyperEdge | None, Iterator[int]]] = [
            (None, iter((target,)))]
        while stack:
            edge, pending = stack[-1]
            for gid in pending:
                producer = parent.get(gid)
                if producer is not None and id(producer) not in seen_edges:
                    seen_edges.add(id(producer))
                    stack.append((producer, (g for g, _ in producer.inputs)))
                    break
            else:
                stack.pop()
                if edge is not None:
                    path.append(edge)
        return path
