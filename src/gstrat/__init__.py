"""gstrat: strategy-driven double-pushout graph rewriting.

Labeled simple graphs are rewritten by DPO rules applied through partial
rule binding; strategy combinators steer the exploration over graph states
while a derivation hypergraph accumulates the discovered reaction space.
"""

from gstrat.graphs import (Graph, GraphError, GraphRepository, isomorphic,
                           parse_graph, parse_graphs, serialize_graph)
from gstrat.matching import enumerate_embeddings, find_isomorphism
from gstrat.rules import Rule, RuleError, format_rule, parse_rules
from gstrat.rewrite import (Derivation, MatchCache, PartialRule, apply_at,
                            bind_graph, complete_derivation,
                            enumerate_proper_derivations,
                            iter_proper_derivations)
from gstrat.derivations import DerivationGraph, HyperEdge
from gstrat.strategies import (Add, AltRuleApplication, EMPTY_STATE,
                               EvalContext, Filter, GraphState, Parallel,
                               Predicate, Repeat, Revive, RuleApplication,
                               Sequence, Sort, Strategy, StrategyError, Take)
from gstrat.dsl import (RunReport, Script, ScriptError, format_script,
                        load_script, parse_script, run_script)
from gstrat.chem import MoleculeError, diels_alder_rule, parse_molecule

__all__ = [
    "Graph", "GraphError", "GraphRepository", "isomorphic", "parse_graph",
    "parse_graphs", "serialize_graph",
    "enumerate_embeddings", "find_isomorphism",
    "Rule", "RuleError", "format_rule", "parse_rules",
    "Derivation", "MatchCache", "PartialRule", "apply_at", "bind_graph",
    "complete_derivation",
    "enumerate_proper_derivations", "iter_proper_derivations",
    "DerivationGraph", "HyperEdge",
    "Add", "AltRuleApplication", "EMPTY_STATE", "EvalContext", "Filter",
    "GraphState", "Parallel", "Predicate", "Repeat", "Revive",
    "RuleApplication", "Sequence", "Sort", "Strategy", "StrategyError", "Take",
    "RunReport", "Script", "ScriptError", "format_script", "load_script",
    "parse_script", "run_script",
    "MoleculeError", "diels_alder_rule", "parse_molecule",
]
