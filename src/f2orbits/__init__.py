"""Exhaustive orbit classification of small tensors over the two-element field.

A d1 x ... x dn tensor with entries in {0, 1} is encoded as an integer
whose binary digits are the entries in lexicographic subscript order.
Invertible linear substitutions in each direction (optionally combined
with permutations of equal-dimension directions) partition the tensors
into orbits; every orbit gets a canonical form (its smallest code) and a
tensor rank, its breadth-first distance from the zero orbit when each
step adds one simple tensor.
"""

from .group import GLMatrix, generator_set, large_group_order, small_group_order
from .orbits import (LargeOrbitAtlas, MemoryCapError, OrbitAtlas, enumerate_orbits,
                     load_atlas, merge_large_orbits, save_atlas)
from .ranks import RankAtlas, enumerate_simple_tensors, propagate_ranks, rank_distribution
from .report import (ClassificationRow, ConjectureReport, DiffReport,
                     NoReferenceError, check_conjecture_p22, emit, load_reference,
                     summarize, verify_reference)
from .tensor import MAX_ENTRIES, Shape, parse_shape

__version__ = "0.1.0"

__all__ = [
    "MAX_ENTRIES", "Shape", "parse_shape",
    "enumerate_simple_tensors",
    "GLMatrix", "generator_set",
    "small_group_order", "large_group_order",
    "OrbitAtlas", "LargeOrbitAtlas", "MemoryCapError",
    "enumerate_orbits", "merge_large_orbits",
    "save_atlas", "load_atlas",
    "RankAtlas", "propagate_ranks", "rank_distribution",
    "ClassificationRow", "DiffReport", "ConjectureReport", "NoReferenceError",
    "summarize", "load_reference", "verify_reference", "check_conjecture_p22",
    "emit",
    "__version__",
]
