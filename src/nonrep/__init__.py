"""Toolkit for non-repetitive colorings with bounded-period squares: words and
repetitions, morphism-based tree-coloring certificates, planar/outerplanar
graph families, and exact small-scale searches."""

from .words import G2, G5, Morphism, apply_morphism
from .repetitions import PowerFreeSpec, Repetition, find_squares, is_power_free, is_d_directed
from .treecert import Certificate, certify_morphic_tree_coloring, directedness_threshold
from .graphs import Graph, Coloring, verify_coloring
from .search import SearchBudget, PiResult, pi_k_exact

__all__ = [
    "G2",
    "G5",
    "Morphism",
    "PowerFreeSpec",
    "apply_morphism",
    "Repetition",
    "find_squares",
    "is_power_free",
    "is_d_directed",
    "Certificate",
    "certify_morphic_tree_coloring",
    "directedness_threshold",
    "Graph",
    "Coloring",
    "verify_coloring",
    "SearchBudget",
    "PiResult",
    "pi_k_exact",
]
