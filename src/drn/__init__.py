"""Derangement representations of graphs.

A derangement k-representation assigns distinct permutations of S_k to the
vertices of a simple graph so that two vertices are adjacent exactly when
their permutations disagree in every position.  This package provides the
certificate data model and verifier, explicit constructions for the standard
graph families with their width guarantees, lower/upper bound engines, and an
exact backtracking solver for the representation number itself.
"""

from drn.graphs import Graph, build_family, parse_family
from drn.matrices import RepresentationMatrix, verify
from drn.solver import Budget, is_k_representable, solve_drn, survey

__all__ = [
    "Graph",
    "RepresentationMatrix",
    "build_family",
    "parse_family",
    "verify",
    "Budget",
    "is_k_representable",
    "solve_drn",
    "survey",
]

__version__ = "0.1.0"
