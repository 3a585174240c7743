"""The 2^N table engine, kept as a test oracle.

It shares nothing with the slice-span engine in f2orbits.orbits: one
uint16 cell per code, spun breadth first from each unassigned code in
ascending order under compiled CodeMaps.  By default it spins the 2n
per-mode generators of the definition, the cycle and the transvection
of gl_generators on each mode with the identity on the others, and not
the engine's generator_set, so a partition it agrees with checks the
engine's mechanics and its choice of generators together.  Any programs
may be passed, for example identity-only generators, or the per-mode
generators plus the transpose_map of each mode permutation to enumerate
the large group directly.  Formats of at most MAX_CODES = 2^18 codes
only, which takes in every mode order of 3x3x2.
"""

from dataclasses import dataclass

import numpy as np
from entry_oracle import transpose

from f2orbits.group import CodeMap, compile_generators, gl_generators, identity_matrix
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


def on_mode(shape: Shape, k: int, matrix):
    """The element with matrix on mode k (1-based), the identity elsewhere."""
    matrices = [identity_matrix(d) for d in shape.dims]
    matrices[k - 1] = matrix
    return tuple(matrices)


def per_mode_generators(shape: Shape):
    """The 2n per-mode generators: the cycle and the transvection of every
    mode, each as a tuple of matrices with the identity on the other modes."""
    return tuple(on_mode(shape, k, m)
                 for k, d in enumerate(shape.dims, start=1) for m in gl_generators(d))


def transpose_map(shape: Shape, perm) -> CodeMap:
    """The CodeMap of a mode permutation, from the entry mover
    entry_oracle.transpose of the N basis codes."""
    n = shape.entry_count
    return CodeMap.from_images(n, [transpose(shape, 1 << b, perm) for b in range(n)])


def table_orbits(shape: Shape, programs=None) -> TableAtlas:
    """The orbits of the group the programs generate, default the compiled
    per_mode_generators, by spinning every code."""
    if shape.code_bound > MAX_CODES:
        raise ValueError(f"the table oracle takes at most {MAX_CODES} codes, not {shape}")
    if programs is None:
        programs = compile_generators(shape, per_mode_generators(shape))
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
