"""Transversal Hamilton structures in hypergraph collections.

A collection assigns one hypergraph ("colour") per index on a shared vertex
set; a transversal copy of a target uses each colour on exactly one edge.
The package provides exact search, a heuristic constructive solver, instance
generators, and certificate verification.
"""

from .collection import (
    Collection,
    TransversalCertificate,
    collection_min_degree,
    rainbow_colouring,
    threshold_hypergraph,
    verify_certificate,
)
from .exact import SearchBudget, SearchResult, find_transversal_cycle, find_transversal_subgraph
from .gen import GenSpec, bridge_construction, dirac_extremal, generate, random_collection
from .hypergraph import Hypergraph, min_degree_d
from .links import Link, builtin_link, cycle_counts, cycle_on, make_link
from .pipeline import PipelineConfig, PipelineRun, solve_transversal_hamilton

__all__ = [
    "Collection",
    "GenSpec",
    "Hypergraph",
    "Link",
    "PipelineConfig",
    "PipelineRun",
    "SearchBudget",
    "SearchResult",
    "TransversalCertificate",
    "bridge_construction",
    "builtin_link",
    "collection_min_degree",
    "cycle_counts",
    "cycle_on",
    "dirac_extremal",
    "find_transversal_cycle",
    "find_transversal_subgraph",
    "generate",
    "make_link",
    "min_degree_d",
    "rainbow_colouring",
    "random_collection",
    "solve_transversal_hamilton",
    "threshold_hypergraph",
    "verify_certificate",
]
