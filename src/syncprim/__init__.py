"""syncprim: classify finite permutation groups (primitivity,
sync-maximality, strong sync-maximality) and analyze synchronizing
automata (reset words, the synchronizing language and its minimal DFA,
complete reachability, subset distinguishability)."""

__version__ = "0.1.0"

from .automaton import (
    SemiAutomaton,
    SubsetAutomaton,
    DfaSummary,
    build_group_automaton,
    build_subset_automaton,
    cerny_automaton,
    is_completely_reachable,
    is_synchronizing_pairs,
    minimal_syn_dfa,
    shortest_reset_word,
)
# the classify() entry point lives in syncprim.classify; re-exporting it here
# would shadow that module, so only the predicate helpers are lifted
from .classify import condition, is_strongly_sync_maximal, is_sync_maximal
from .group import BlockSystem, GroupSpec, is_primitive, is_transitive
from .perm import Transformation, compose, idempotent_power, rank

__all__ = [
    "BlockSystem",
    "DfaSummary",
    "GroupSpec",
    "SemiAutomaton",
    "SubsetAutomaton",
    "Transformation",
    "build_group_automaton",
    "build_subset_automaton",
    "cerny_automaton",
    "compose",
    "condition",
    "idempotent_power",
    "is_completely_reachable",
    "is_primitive",
    "is_strongly_sync_maximal",
    "is_sync_maximal",
    "is_synchronizing_pairs",
    "is_transitive",
    "minimal_syn_dfa",
    "rank",
    "shortest_reset_word",
]
