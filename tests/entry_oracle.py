"""Entry-level oracles: positions, entries, the mode mover and transpose,
matrix inverses, simple tensors and brute-force rank, each from its
definition.

The package builds every group action from the images of basis tensors
(group.basis_images), permutes modes by one bit gather
(group.transpose_codes) and ranks orbits by one breadth-first search
over the orbit graph (ranks.propagate_ranks).  The helpers here read and
write a code one entry at a time and share no code with those paths, so
the tests check the package against them.  move carries codes to
another mode order of their format, so the orbits of one mode order can
be checked against those of another.
"""

import functools
import itertools

from f2orbits.group import GLMatrix
from f2orbits.tensor import Shape, simple_code


def strides(shape: Shape) -> tuple[int, ...]:
    """Mixed-radix strides: position steps per unit of each subscript."""
    out, acc = [], 1
    for d in reversed(shape.dims):
        out.append(acc)
        acc *= d
    return tuple(reversed(out))


def position_of(shape: Shape, idx) -> int:
    """Flattening position in [0, N) of a 1-based multi-index."""
    if len(idx) != shape.n:
        raise ValueError(f"index {idx} has wrong length for {shape}")
    p = 0
    for i, d, s in zip(idx, shape.dims, strides(shape)):
        if not 1 <= i <= d:
            raise ValueError(f"coordinate {i} out of range 1..{d} in {idx}")
        p += (i - 1) * s
    return p


def index_of(shape: Shape, p: int) -> tuple[int, ...]:
    """Inverse of position_of."""
    if not 0 <= p < shape.entry_count:
        raise ValueError(f"position {p} out of range for {shape}")
    out = []
    for s in strides(shape):
        out.append(p // s + 1)
        p %= s
    return tuple(out)


def get_entry(shape: Shape, code: int, idx) -> int:
    """Entry of the tensor encoded by code at a 1-based multi-index."""
    return (code >> (shape.entry_count - 1 - position_of(shape, idx))) & 1


def entry_moves(shape: Shape, perm, target: Shape) -> list[int]:
    """The position in target of each entry of shape when mode k of shape
    becomes mode perm[k] of target: the entry at (i1, ..., in) lands where
    the subscript in mode perm[k] is ik.  Each mode keeps its dimension,
    so target is shape with its modes permuted."""
    perm = tuple(perm)
    if sorted(perm) != list(range(1, shape.n + 1)) or target.n != shape.n:
        raise ValueError(f"{perm} is not a permutation of modes 1..{shape.n}")
    for k, dst in enumerate(perm, start=1):
        if target.dims[dst - 1] != shape.dims[k - 1]:
            raise ValueError(
                f"permutation {perm} mixes unequal dimensions from {shape} to {target}")
    moves = []
    for p in range(shape.entry_count):
        dst = [0] * shape.n
        for k, i in zip(perm, index_of(shape, p)):
            dst[k - 1] = i
        moves.append(position_of(target, dst))
    return moves


def move(shape: Shape, code, perm, target: Shape):
    """code, an int or an integer array of codes of shape, with every entry
    moved to its place in target (entry_moves), one bit at a time."""
    n = shape.entry_count
    out = code & 0
    for p, q in enumerate(entry_moves(shape, perm, target)):
        out |= ((code >> (n - 1 - p)) & 1) << (n - 1 - q)
    return out


def transpose(shape: Shape, code: int, perm) -> int:
    """Permute modes within shape, the move onto shape itself: result
    entry at (i1, ..., in) is the input entry at (i_perm[1], ...,
    i_perm[n]).  This is a left action: composing transpose by sigma
    after transpose by tau equals transpose by sigma o tau."""
    return move(shape, code, perm, shape)


def inverse(matrix: GLMatrix) -> GLMatrix:
    """The inverse of an invertible matrix, by Gauss-Jordan elimination
    on the rows beside the identity's."""
    d = matrix.d
    rows = list(matrix.rows)
    inv = [1 << r for r in range(d)]
    for col in range(d):
        bit = 1 << col
        pivot = next(r for r in range(col, d) if rows[r] & bit)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        for r in range(d):
            if r != col and rows[r] & bit:
                rows[r] ^= rows[col]
                inv[r] ^= inv[col]
    return GLMatrix(d, tuple(inv))


def simple_tensors(shape: Shape) -> set[int]:
    """The outer products of every tuple of nonzero vectors, one per mode."""
    return {simple_code(shape.dims, vectors)
            for vectors in itertools.product(*(range(1, 1 << d) for d in shape.dims))}


@functools.lru_cache(maxsize=None)
def _rank_levels(shape: Shape, max_r: int):
    simples = simple_tensors(shape)
    known = {0: 0}
    frontier = [0]
    for r in range(1, max_r + 1):
        grown = []
        for c in frontier:
            for s in simples:
                t = c ^ s
                if t not in known:
                    known[t] = r
                    grown.append(t)
        frontier = grown
    return known


def brute_force_rank(shape: Shape, code: int, max_r: int = 3) -> int | None:
    """Smallest r <= max_r with code a XOR of r simple tensors, else None.
    Definition-level search over codes, independent of the orbit
    machinery; cost grows with (number of simple tensors)^max_r."""
    if not 0 <= code < shape.code_bound:
        raise ValueError(f"code {code} out of range for {shape}")
    return _rank_levels(shape, max_r).get(code)
