"""Exhaustive orbit classification of small tensors over the two-element field.

A d1 x ... x dn tensor with entries in {0, 1} is encoded as an integer
whose binary digits are the entries in lexicographic subscript order.
Invertible linear substitutions in each direction (optionally combined
with permutations of equal-dimension directions) partition the tensors
into orbits; every orbit gets a canonical form (its smallest code) and a
tensor rank, computed by breadth-first search over rank-1 perturbations.
"""

from .group import (Composite, GLMatrix, generator_set, large_group_order,
                    small_group_order)
from .orbits import (LargeOrbitAtlas, MemoryCapError, OrbitAtlas, OrbitRecord,
                     enumerate_orbits, load_atlas, merge_large_orbits, save_atlas)
from .ranks import (RankAtlas, brute_force_rank, propagate_ranks,
                    rank_distribution, seed_rank_one)
from .report import (ClassificationRow, ConjectureReport, DiffReport,
                     NoReferenceError, check_conjecture_p22, emit, load_reference,
                     summarize, verify_reference)
from .tensor import (MAX_ENTRIES, Shape, enumerate_simple_tensors, parse_shape,
                     transpose)

__version__ = "0.1.0"

__all__ = [
    "MAX_ENTRIES", "Shape", "parse_shape",
    "enumerate_simple_tensors", "transpose",
    "GLMatrix", "Composite", "generator_set",
    "small_group_order", "large_group_order",
    "OrbitAtlas", "OrbitRecord", "LargeOrbitAtlas", "MemoryCapError",
    "enumerate_orbits", "merge_large_orbits",
    "save_atlas", "load_atlas",
    "RankAtlas", "seed_rank_one", "propagate_ranks", "brute_force_rank",
    "rank_distribution",
    "ClassificationRow", "DiffReport", "ConjectureReport", "NoReferenceError",
    "summarize", "load_reference", "verify_reference", "check_conjecture_p22",
    "emit",
    "__version__",
]
