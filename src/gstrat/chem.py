"""Molecule ingestion and the Diels-Alder rule asset.

Molecules are written in a small SMILES subset: atoms C, O, N, H; bonds
-, = and #; parenthesized branches; single-digit ring closures.  Parsing
produces an explicit-hydrogen labeled graph, with hydrogens appended to
fill each atom's valence (C=4, O=2, N=3, H=1, counting bond orders).  As
in OpenSMILES, a branch starts with an atom or with a bond symbol and an
atom, a bond symbol is followed by an atom or a ring digit, the two ends of
a ring bond agree on its symbol, and a ring closure does not repeat a bond;
anything else is a ``MoleculeError`` that names its position in the string.
"""
from __future__ import annotations

from gstrat.graphs import Graph
from gstrat.rules import Rule

VALENCE = {"C": 4, "O": 2, "N": 3, "H": 1}
BOND_ORDER = {"-": 1, "=": 2, "#": 3}


class MoleculeError(ValueError):
    pass


def parse_molecule(spec: str) -> Graph:
    """Parse a SMILES-subset string into an explicit-hydrogen graph."""
    vertices: list[tuple[int, str]] = []
    edges: list[tuple[int, int, str]] = []
    order_used: dict[int, int] = {}
    bonded: set[tuple[int, int]] = set()

    def add_bond(u: int, v: int, bond: str) -> None:
        bonded.add((min(u, v), max(u, v)))
        edges.append((u, v, bond))
        order_used[u] += BOND_ORDER[bond]
        order_used[v] += BOND_ORDER[bond]

    positions: list[int] = []  # of each heavy atom in spec
    prev: int | None = None
    pending_bond: str | None = None
    branch_stack: list[tuple[int, int, int]] = []  # (parent atom, atoms before, '(' at)
    ring_open: dict[str, tuple[int, str | None, int]] = {}  # in opening order

    i = 0
    while i < len(spec):
        c = spec[i]
        if c in VALENCE:
            atom = len(vertices)
            vertices.append((atom, c))
            positions.append(i)
            order_used[atom] = 0
            if prev is not None:
                add_bond(prev, atom, pending_bond or "-")
            elif pending_bond is not None:
                raise MoleculeError(f"dangling bond symbol before atom at position {i}")
            pending_bond = None
            prev = atom
        elif c in BOND_ORDER:
            if pending_bond is not None:
                raise MoleculeError(f"doubled bond symbol at position {i}")
            pending_bond = c
        elif branch_stack and branch_stack[-1][1] == len(vertices) and (
                c == "(" or "0" <= c <= "9"):
            raise MoleculeError(f"{c!r} at position {i} comes before the branch's first atom")
        elif "0" <= c <= "9":
            if prev is None:
                raise MoleculeError(f"ring closure digit before any atom at position {i}")
            if c in ring_open:
                other, open_bond, _ = ring_open.pop(c)
                if pending_bond and open_bond and pending_bond != open_bond:
                    raise MoleculeError(f"ring bond {c} at position {i} closes with "
                                        f"{pending_bond!r} but opened with {open_bond!r}")
                bond = pending_bond or open_bond or "-"
                if other == prev:
                    raise MoleculeError(f"ring bond {c} at position {i} closes onto "
                                        "the same atom")
                if (min(other, prev), max(other, prev)) in bonded:
                    raise MoleculeError(f"ring bond {c} at position {i} repeats the "
                                        f"bond between atoms {other} and {prev}")
                add_bond(other, prev, bond)
            else:
                ring_open[c] = (prev, pending_bond, i)
            pending_bond = None
        elif c in "()" and pending_bond is not None:
            raise MoleculeError(f"dangling bond symbol before {c!r} at position {i}")
        elif c == "(":
            if prev is None:
                raise MoleculeError(f"branch before any atom at position {i}")
            branch_stack.append((prev, len(vertices), i))
        elif c == ")":
            if not branch_stack:
                raise MoleculeError(f"unmatched ')' at position {i}")
            prev, before, _ = branch_stack.pop()
            if len(vertices) == before:
                raise MoleculeError(f"empty branch closed at position {i}")
        else:
            raise MoleculeError(f"unsupported token {c!r} at position {i}")
        i += 1

    if ring_open:
        c, (_, _, at) = next(iter(ring_open.items()))
        raise MoleculeError(f"unclosed ring bond {c} opened at position {at}")
    if branch_stack:
        raise MoleculeError(f"unclosed branch opened at position {branch_stack[0][2]}")
    if pending_bond is not None:  # only a final bond symbol stays pending
        raise MoleculeError(f"trailing bond symbol at position {len(spec) - 1}")
    if not vertices:
        raise MoleculeError("empty molecule")

    # Fill valence with explicit hydrogens.
    next_id = len(vertices)
    for atom, element in list(vertices):
        missing = VALENCE[element] - order_used[atom]
        if missing < 0:
            raise MoleculeError(f"valence of {element} exceeded at position {positions[atom]}")
        for _ in range(missing):
            vertices.append((next_id, "H"))
            edges.append((atom, next_id, "-"))
            next_id += 1
    return Graph(vertices, edges)


def diels_alder_rule() -> Rule:
    """The Diels-Alder cycloaddition on the six-carbon skeleton.

    Left side: a conjugated diene (c1=c2-c3=c4) and a dienophile (c5=c6) as
    two components.  Right side: the six-membered ring with shifted bond
    orders.  All six carbons are context, so the rule is chemically valid.
    """
    return Rule.build(
        "dielsAlder",
        context_vertices=[(i, "C", "C") for i in range(1, 7)],
        left_edges=[(1, 2, "="), (2, 3, "-"), (3, 4, "="), (5, 6, "=")],
        right_edges=[(1, 2, "-"), (2, 3, "="), (3, 4, "-"),
                     (4, 5, "-"), (5, 6, "-"), (6, 1, "-")],
    )
