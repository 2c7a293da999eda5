"""gstrat: strategy-driven double-pushout graph rewriting.

Labeled simple graphs are rewritten by DPO rules applied through partial
rule binding; strategy combinators steer the exploration over graph states
while a derivation hypergraph accumulates the discovered reaction space.
"""

from gstrat.graphs import (Graph, GraphError, GraphRepository, isomorphic,
                           parse_graph, parse_graphs, serialize_graph)
from gstrat.matching import enumerate_embeddings, find_isomorphism
from gstrat.rules import Rule, RuleError, format_rule, parse_rules, validate_rule
from gstrat.rewrite import (Derivation, MatchCache, Morphism, PartialRule,
                            apply_at, assemble, bind_graph,
                            complete_derivation, enumerate_proper_derivations,
                            iter_proper_derivations)
from gstrat.derivations import DerivationGraph, HyperEdge
from gstrat.strategies import (AddSubset, AddUniverse, AltRuleApplication,
                               EMPTY_STATE, EvalContext, FilterSubset,
                               FilterUniverse, GraphState, LeftPredicate,
                               Parallel, Repeat, Revive, RightPredicate,
                               RuleApplication, Sequence, SortSubset,
                               SortUniverse, Strategy, StrategyError,
                               TakeSubset, TakeUniverse)
from gstrat.dsl import (RunReport, Script, ScriptError, format_script,
                        load_script, parse_script, run_script)
from gstrat.chem import MoleculeError, diels_alder_rule, parse_molecule

__all__ = [
    "Graph", "GraphError", "GraphRepository", "isomorphic", "parse_graph",
    "parse_graphs", "serialize_graph",
    "enumerate_embeddings", "find_isomorphism",
    "Rule", "RuleError", "format_rule", "parse_rules", "validate_rule",
    "Derivation", "MatchCache", "Morphism", "PartialRule", "apply_at",
    "assemble", "bind_graph", "complete_derivation",
    "enumerate_proper_derivations", "iter_proper_derivations",
    "DerivationGraph", "HyperEdge",
    "AddSubset", "AddUniverse", "AltRuleApplication", "EMPTY_STATE",
    "EvalContext", "FilterSubset", "FilterUniverse", "GraphState",
    "LeftPredicate", "Parallel", "Repeat", "Revive", "RightPredicate",
    "RuleApplication", "Sequence", "SortSubset", "SortUniverse", "Strategy",
    "StrategyError", "TakeSubset", "TakeUniverse",
    "RunReport", "Script", "ScriptError", "format_script", "load_script",
    "parse_script", "run_script",
    "MoleculeError", "diels_alder_rule", "parse_molecule",
]
