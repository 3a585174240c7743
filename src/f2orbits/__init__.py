"""Exhaustive orbit classification of small tensors over the two-element field.

A d1 x ... x dn tensor with entries in {0, 1} is encoded as an integer
whose binary digits are the entries in lexicographic subscript order.
Invertible linear substitutions in each direction (optionally combined
with permutations of equal-dimension directions) partition the tensors
into orbits; every orbit gets a canonical form (its smallest code) and a
tensor rank, its breadth-first distance from the zero orbit when each
step adds one simple tensor.

Each public name, and each submodule, loads on first access, so
importing the package loads neither numpy nor the engine.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = ("cli", "group", "orbits", "ranks", "report", "slices", "spin", "tensor")
_HOME = {
    "MAX_ENTRIES": "tensor", "Shape": "tensor", "parse_shape": "tensor",
    "enumerate_simple_tensors": "ranks",
    "GLMatrix": "group", "generator_set": "group",
    "small_group_order": "group", "large_group_order": "group",
    "OrbitAtlas": "orbits", "LargeOrbitAtlas": "orbits", "MemoryCapError": "orbits",
    "enumerate_orbits": "orbits", "merge_large_orbits": "orbits",
    "save_atlas": "orbits", "load_atlas": "orbits",
    "RankAtlas": "ranks", "propagate_ranks": "ranks", "rank_distribution": "ranks",
    "ClassificationRow": "report", "DiffReport": "report", "ConjectureReport": "report",
    "NoReferenceError": "report", "summarize": "report", "load_reference": "report",
    "verify_reference": "report", "check_conjecture_p22": "report", "emit": "report",
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    module = _HOME.get(name, name)
    if module not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    if module != name:
        value = globals()[name] = getattr(value, name)
    return value
