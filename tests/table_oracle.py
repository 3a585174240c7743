"""The 2^N table engine, kept as a test oracle.

It shares nothing with the slice-span engine in f2orbits.orbits but the
compiled generators: one uint16 cell per code, spun breadth first from
each unassigned code in ascending order under compiled CodeMaps.  Any
programs may be passed, for example identity-only generators, or the
per-mode generators plus the mode-permutation programs to enumerate the
large group directly.  Formats of at most 2^18 codes only, which takes
in 3x3x2.
"""

from dataclasses import dataclass

import numpy as np

from f2orbits.group import compile_generators, generator_set
from f2orbits.tensor import Shape

MAX_CODES = 1 << 18
_SENTINEL = 0xFFFF


@dataclass(frozen=True)
class TableAtlas:
    """assignment[code] = orbit id; canonicals and sizes by orbit id."""

    shape: Shape
    assignment: np.ndarray
    canonicals: np.ndarray
    sizes: np.ndarray

    @property
    def orbit_count(self) -> int:
        return self.canonicals.size - 1

    def orbit_id(self, codes):
        codes = np.asarray(codes)
        bad = (codes < 0) | (codes >= self.shape.code_bound)
        if bad.any():
            raise ValueError(f"code {codes[bad].flat[0]} out of range for {self.shape}")
        ids = self.assignment[codes]
        return int(ids) if codes.ndim == 0 else ids


def table_orbits(shape: Shape, programs=None) -> TableAtlas:
    """The orbits of the group the programs generate, default the compiled
    composites of generator_set, by spinning every code."""
    if shape.code_bound > MAX_CODES:
        raise ValueError(f"the table oracle takes at most {MAX_CODES} codes, not {shape}")
    if programs is None:
        programs = compile_generators(shape, generator_set(shape))
    assignment = np.full(shape.code_bound, _SENTINEL, np.uint16)
    assignment[0] = 0
    canonicals, sizes = [0], [1]
    for start in range(1, shape.code_bound):
        if assignment[start] != _SENTINEL:
            continue
        orbit_id = len(canonicals)
        assignment[start] = orbit_id
        frontier = np.array([start], dtype=np.intp)
        size = 1
        while frontier.size:
            grown = []
            for prog in programs:
                img = prog.apply_array(frontier)
                fresh = img[assignment[img] == _SENTINEL]
                assignment[fresh] = orbit_id
                grown.append(fresh)
            frontier = np.concatenate(grown)
            size += frontier.size
        canonicals.append(start)
        sizes.append(size)
    return TableAtlas(shape, assignment, np.array(canonicals, np.uint32),
                      np.array(sizes, np.int64))
