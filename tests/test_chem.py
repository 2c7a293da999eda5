from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gstrat.chem import (BOND_ORDER, VALENCE, MoleculeError, diels_alder_rule,
                         parse_molecule)
from gstrat.graphs import GraphRepository, isomorphic
from gstrat.rewrite import enumerate_proper_derivations


def label_counts(g):
    return Counter(label for _, label in g.vertices())


class TestParseMolecule:
    def test_isoprene(self):
        g = parse_molecule("CC(=C)C=C")
        assert g.vertex_count == 13
        assert label_counts(g) == {"C": 5, "H": 8}
        double_bonds = [e for e in g.edges() if e[2] == "="]
        assert len(double_bonds) == 2

    def test_cyclohexadiene(self):
        g = parse_molecule("C1=CC=CCC1")
        assert g.vertex_count == 14
        assert label_counts(g) == {"C": 6, "H": 8}
        assert sum(1 for e in g.edges() if e[2] == "=") == 2
        # ring: every carbon has exactly two carbon neighbours
        carbons = [v for v, l in g.vertices() if l == "C"]
        for c in carbons:
            assert sum(1 for n in g.neighbors(c) if g.label(n) == "C") == 2

    def test_water(self):
        g = parse_molecule("O")
        assert g.vertex_count == 3
        assert label_counts(g) == {"O": 1, "H": 2}
        assert all(e[2] == "-" for e in g.edges())

    def test_triple_bond(self):
        g = parse_molecule("C#N")
        assert label_counts(g) == {"C": 1, "N": 1, "H": 1}
        assert sum(1 for e in g.edges() if e[2] == "#") == 1

    def test_equal_specs_intern_equal(self):
        repo = GraphRepository()
        a, _ = repo.intern(parse_molecule("C=CC=C"))
        b, _ = repo.intern(parse_molecule("C(=C)C=C"))
        assert a == b

    def test_errors(self):
        with pytest.raises(MoleculeError):
            parse_molecule("CX")  # unsupported atom
        with pytest.raises(MoleculeError):
            parse_molecule("C1CC")  # unclosed ring
        with pytest.raises(MoleculeError):
            parse_molecule("C(C")  # unclosed branch
        with pytest.raises(MoleculeError):
            parse_molecule("O=C=O=C")  # whatever this is, oxygen valence blows
        with pytest.raises(MoleculeError):
            parse_molecule("C=")
        with pytest.raises(MoleculeError):
            parse_molecule("")

    @pytest.mark.parametrize("spec, message", [
        ("C1C1", "ring bond 1 at position 3 repeats the bond between atoms 0 and 1"),
        ("OC1N1", "ring bond 1 at position 4 repeats the bond between atoms 1 and 2"),
        ("C12CC12", "ring bond 2 at position 6 repeats the bond between atoms 0 and 2"),
        ("C()C", "empty branch closed at position 2"),
        ("C(=)C", "dangling bond symbol before ')' at position 3"),
        ("C=(C)C", "dangling bond symbol before '(' at position 2"),
        ("C=1CC-1", "ring bond 1 at position 6 closes with '-' but opened with '='"),
        ("(C", "branch before any atom at position 0"),
        ("C11", "ring bond 1 at position 2 closes onto the same atom"),
        ("C(C", "unclosed branch opened at position 1"),
        ("C(C(C", "unclosed branch opened at position 1"),
        ("C=", "trailing bond symbol at position 1"),
        ("O=C=O=C", "valence of O exceeded at position 4"),
        ("C1CC", "unclosed ring bond 1 opened at position 1"),
        ("C2C1C", "unclosed ring bond 2 opened at position 1"),
        ("C(1CC1)", "'1' at position 2 comes before the branch's first atom"),
        ("C(=1CC1)", "'1' at position 3 comes before the branch's first atom"),
        ("C((C))", "'(' at position 2 comes before the branch's first atom"),
    ])
    def test_malformed_is_located(self, spec, message):
        # A ring closure may not repeat a bond, a branch starts with an
        # atom or with a bond symbol and an atom, a bond symbol is followed
        # by an atom or a ring digit, and the two ends of a ring bond agree
        # on its symbol.  Every fault names its position.
        with pytest.raises(MoleculeError) as info:
            parse_molecule(spec)
        assert str(info.value) == message

    def test_ring_may_open_before_a_branch(self):
        # Unlike C(1CC1), the ring here opens at the atom before the branch.
        g = parse_molecule("C1(CC1)")
        assert label_counts(g) == {"C": 3, "H": 6}
        assert isomorphic(g, parse_molecule("C1CC1"))

    def test_ring_bond_symbol_may_be_repeated(self):
        for spec in ("C=1CC=1", "C=1CC1", "C1CC=1"):
            g = parse_molecule(spec)
            assert sum(1 for e in g.edges() if e[2] == "=") == 1

    def test_non_ascii_ring_digit_rejected(self):
        # str.isdigit() accepts these; they must not close a ring like "1".
        for spec in ("C\u00b2CC\u00b2", "C\u0663CC\u0663"):
            with pytest.raises(MoleculeError, match="unsupported token"):
                parse_molecule(spec)

    def test_valence_exactness(self):
        for spec in ("CC(=C)C=C", "C1=CC=CCC1", "O", "C#N", "N", "CO"):
            assert_valence(parse_molecule(spec))

    @settings(max_examples=1000, deadline=None)
    @given(st.text(alphabet="CONH-=#()0123456789", max_size=8))
    @example("C1C1")
    @example("OC1N1")
    @example("C(C")
    def test_reads_a_molecule_or_raises_molecule_error(self, spec):
        # No other exception escapes the reader: a string it accepts is a
        # graph whose every atom meets its valence, and every fault but an
        # empty string names its position.
        try:
            g = parse_molecule(spec)
        except MoleculeError as err:
            assert spec == "" or "position" in str(err)
            return
        assert_valence(g)


def assert_valence(g):
    for v, label in g.vertices():
        used = sum(BOND_ORDER[el] for el in g.neighbors(v).values())
        assert used == VALENCE[label]


class TestDielsAlderRule:
    def test_chemically_valid(self):
        rule = diels_alder_rule()
        assert rule.is_chemical

    def test_no_derivations_from_water(self):
        repo = GraphRepository()
        wid, _ = repo.intern(parse_molecule("O"))
        assert enumerate_proper_derivations(diels_alder_rule(), [wid],
                                            repo=repo) == []

    def test_seed_pair_produces_fig1_adduct(self):
        repo = GraphRepository()
        iso, _ = repo.intern(parse_molecule("CC(=C)C=C"))
        chx, _ = repo.intern(parse_molecule("C1=CC=CCC1"))
        derivations = enumerate_proper_derivations(
            diels_alder_rule(), [iso, chx], repo=repo,
            left_filter=lambda ids: len(ids) == 2)
        adduct = parse_molecule("CC(=C)C1CC2CCC1C=C2")
        outputs = [repo.graph(g) for d in derivations
                   if set(d.inputs) == {iso, chx} for g in d.outputs]
        assert any(isomorphic(g, adduct) for g in outputs)

    def test_atom_conservation(self):
        repo = GraphRepository()
        iso, _ = repo.intern(parse_molecule("CC(=C)C=C"))
        chx, _ = repo.intern(parse_molecule("C1=CC=CCC1"))
        for d in enumerate_proper_derivations(
                diels_alder_rule(), [iso, chx], repo=repo,
                left_filter=lambda ids: len(ids) == 2):
            in_labels = Counter()
            for gid in d.inputs:
                in_labels += label_counts(repo.graph(gid))
            out_labels = Counter()
            for gid in d.outputs:
                out_labels += label_counts(repo.graph(gid))
            assert in_labels == out_labels
            assert d.atom_map is not None

    def test_retro_reaction_regenerates_educts(self):
        repo = GraphRepository()
        iso, _ = repo.intern(parse_molecule("CC(=C)C=C"))
        chx, _ = repo.intern(parse_molecule("C1=CC=CCC1"))
        adduct, _ = repo.intern(parse_molecule("CC(=C)C1CC2CCC1C=C2"))
        retro = diels_alder_rule().inverted()
        derivations = enumerate_proper_derivations(retro, [adduct], repo=repo)
        assert any(sorted(d.outputs) == sorted((iso, chx)) for d in derivations)
