"""GL(d, 2) generators, group orders, and mode actions on tensor codes.

Matrices are stored row-major with row j holding the image of the basis
vector e_j, as an int bitmask (bit i-1 set means column i).  Acting along
one mode applies the stored linear map to that mode's coordinate vectors:
x'[i] = sum_j x[j] * rows[j][i] over GF(2), a row vector times the matrix.
Under this convention apply(a @ b, c) == apply(b, apply(a, c)).

Every mode action (and mode permutation) compiles to a short list of
(mask, shift) terms: new_code = XOR over terms of a masked, shifted copy
of the old code.  The compiled form is the only thing the enumeration hot
loops touch; it works identically on Python ints and on numpy uint32
arrays, and it is a bijection on codes, so images of duplicate-free
frontiers stay duplicate-free.
"""

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .tensor import Shape, coord_masks, index_of, position_of, transpose


# ---- matrices over GF(2) ----

def _invertible(rows, d):
    rows = list(rows)
    for col in range(d):
        bit = 1 << col
        pivot = next((r for r in range(col, d) if rows[r] & bit), None)
        if pivot is None:
            return False
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(d):
            if r != col and rows[r] & bit:
                rows[r] ^= rows[col]
    return True


@dataclass(frozen=True)
class GLMatrix:
    """Invertible d x d matrix over GF(2); row j is the image of e_j."""

    d: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.d:
            raise ValueError(f"expected {self.d} rows, got {len(self.rows)}")
        if any(not 0 <= r < (1 << self.d) for r in self.rows):
            raise ValueError("row bitmask out of range")
        if not _invertible(self.rows, self.d):
            raise ValueError("matrix is singular over GF(2)")

    def entry(self, r: int, c: int) -> int:
        """1-based entry access."""
        return (self.rows[r - 1] >> (c - 1)) & 1

    def __matmul__(self, other: "GLMatrix") -> "GLMatrix":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        rows = []
        for row in self.rows:
            acc = 0
            for k in range(self.d):
                if (row >> k) & 1:
                    acc ^= other.rows[k]
            rows.append(acc)
        return GLMatrix(self.d, tuple(rows))

    def inverse(self) -> "GLMatrix":
        d = self.d
        rows = list(self.rows)
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


def identity_matrix(d: int) -> GLMatrix:
    return GLMatrix(d, tuple(1 << r for r in range(d)))


def gl_generators(d: int) -> tuple[GLMatrix, GLMatrix]:
    """The two generators of GL(d, 2): the basis cycle e_i -> e_{i+1}
    (e_d -> e_1) and the transvection e_1 -> e_1 + e_2."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    cycle = GLMatrix(d, tuple(1 << (r + 1) for r in range(d - 1)) + (1,))
    trans = GLMatrix(d, (0b11,) + tuple(1 << r for r in range(1, d)))
    return cycle, trans


def group_order(d: int) -> int:
    """|GL(d, 2)| = prod_{j<d} (2^d - 2^j)."""
    out = 1
    for j in range(d):
        out *= (1 << d) - (1 << j)
    return out


def small_group_order(shape: Shape) -> int:
    """Order of GL(d1,2) x ... x GL(dn,2)."""
    out = 1
    for d in shape.dims:
        out *= group_order(d)
    return out


def equal_dim_blocks(shape: Shape) -> tuple[tuple[int, ...], ...]:
    """Modes grouped by equal dimension (1-based, each block ascending)."""
    by_dim = {}
    for k, d in enumerate(shape.dims, start=1):
        by_dim.setdefault(d, []).append(k)
    return tuple(tuple(v) for v in by_dim.values())


def large_group_order(shape: Shape) -> int:
    """Small group extended by all permutations of equal-dimension modes."""
    out = small_group_order(shape)
    for block in equal_dim_blocks(shape):
        for i in range(2, len(block) + 1):
            out *= i
    return out


def block_permutations(shape: Shape) -> list[tuple[int, ...]]:
    """All mode permutations preserving dimensions, identity first."""
    perms = []
    blocks = equal_dim_blocks(shape)
    for choice in itertools.product(
            *(itertools.permutations(b) for b in blocks)):
        sigma = list(range(1, shape.n + 1))
        for block, image in zip(blocks, choice):
            for src, dst in zip(block, image):
                sigma[src - 1] = dst
        perms.append(tuple(sigma))
    perms.sort(key=lambda s: s != tuple(range(1, shape.n + 1)))
    return perms


# ---- actions ----

@dataclass(frozen=True)
class ModeAction:
    """A GLMatrix attached to one mode (1-based)."""

    mode: int
    matrix: GLMatrix


@dataclass(frozen=True)
class GeneratorSet:
    """The 2n generating actions of the small group: per mode, cycle then
    transvection, in mode order."""

    shape: Shape
    actions: tuple[ModeAction, ...]


def generator_set(shape: Shape) -> GeneratorSet:
    actions = []
    for k, d in enumerate(shape.dims, start=1):
        cycle, trans = gl_generators(d)
        actions.append(ModeAction(k, cycle))
        actions.append(ModeAction(k, trans))
    return GeneratorSet(shape, tuple(actions))


class CodeMap:
    """A bijection on codes compiled to XOR-of-shifted-masks form."""

    def __init__(self, n_bits: int, terms):
        self.n_bits = n_bits
        self.terms = tuple(sorted(terms))

    def __call__(self, code: int) -> int:
        if not 0 <= code < (1 << self.n_bits):
            raise ValueError(f"code {code} out of range for {self.n_bits} bits")
        acc = 0
        for shift, mask in self.terms:
            part = code & mask
            acc ^= (part << shift) if shift >= 0 else (part >> -shift)
        return acc

    def apply_array(self, codes: np.ndarray) -> np.ndarray:
        out = np.zeros_like(codes)
        for shift, mask in self.terms:
            part = codes & np.uint32(mask)
            if shift >= 0:
                part <<= shift
            else:
                part >>= -shift
            out ^= part
        return out


@functools.lru_cache(maxsize=None)
def compile_mode_action(shape: Shape, action: ModeAction) -> CodeMap:
    """Compile one mode action to (shift, mask) terms.

    A set entry with subscript j in the acted mode contributes to subscript
    i whenever M[j][i] = 1; in code weights that is a shift by
    (j - i) * stride of the mode."""
    k = action.mode
    if not 1 <= k <= shape.n:
        raise ValueError(f"mode {k} out of range for {shape}")
    d = shape.dims[k - 1]
    if action.matrix.d != d:
        raise ValueError(
            f"matrix dimension {action.matrix.d} does not match mode {k} of {shape}")
    stride = shape.strides[k - 1]
    masks = coord_masks(shape)[k - 1]
    terms = {}
    for j in range(1, d + 1):
        for i in range(1, d + 1):
            if action.matrix.entry(j, i):
                shift = (j - i) * stride
                terms[shift] = terms.get(shift, 0) | masks[j - 1]
    return CodeMap(shape.entry_count, terms.items())


def apply_mode_action(shape: Shape, code: int, action: ModeAction) -> int:
    """Apply one mode action to a single code."""
    if not 0 <= code < shape.code_bound:
        raise ValueError(f"code {code} out of range for {shape}")
    return compile_mode_action(shape, action)(code)


def compile_generators(shape: Shape, gens: GeneratorSet) -> tuple[CodeMap, ...]:
    return tuple(compile_mode_action(shape, a) for a in gens.actions)


@functools.lru_cache(maxsize=None)
def transpose_program(shape: Shape, perm: tuple[int, ...]) -> CodeMap:
    """Compile a dimension-preserving mode permutation to CodeMap form.
    Agrees with tensor.transpose by construction of the terms."""
    transpose(shape, 0, perm)  # validates the permutation
    n_bits = shape.entry_count
    terms = {}
    for p in range(n_bits):
        idx = index_of(shape, p)
        src = tuple(idx[s - 1] for s in perm)
        q = position_of(shape, src)
        shift = q - p
        terms[shift] = terms.get(shift, 0) | (1 << (n_bits - 1 - q))
    cm = CodeMap(n_bits, terms.items())
    # cheap sanity: must agree with the reference implementation somewhere
    probe = (1 << (n_bits - 1)) | 1
    assert cm(probe) == transpose(shape, probe, perm)
    return cm
