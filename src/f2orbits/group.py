"""GL(d, 2) generators, group orders, and mode actions on tensor codes.

Matrices are stored row-major with row j holding the image of the basis
vector e_j, as an int bitmask (bit i-1 set means column i).  Acting along
one mode applies the stored linear map to that mode's coordinate vectors:
x'[i] = sum_j x[j] * rows[j][i] over GF(2), a row vector times the matrix.
Under this convention apply(a @ b, c) == apply(b, apply(a, c)).

Every action on codes is built one way, from the images of basis tensors
(through tensor.simple_code) and linearity.  An element (g1, ..., gn), a
tuple of matrices, sends the tensor with one 1 at subscripts (j1, ...,
jn) to the outer product of rows j1 of g1, ..., jn of gn (basis_images),
and linear_table fills a table from such images; slices.slice_maps takes
the images of the M bits of one slice only.  A mode permutation sends
each basis tensor to one basis tensor, so transpose_codes moves bits.

compile_composite turns the N images into a CodeMap of (shift, mask)
terms: new_code = XOR over terms of a masked, shifted copy of the old
code, and a mode action is the element with the identity elsewhere.
No classify path compiles a CodeMap; benchmark/layers.py and the table
oracle in tests/ do.  A compiled map is linear, so the array path needs
no terms: two lookup tables hold the images of every low half
(ceil(N/2) bits) and every high half, and apply_array(codes) =
lo[codes & lo_mask] ^ hi[codes >> lo_bits], at the same cost for any
map.

Enumeration acts with G' = GL(d2,2) x ... x GL(dn,2) alone (orbits.py),
stores one permutation of the slice-space subspaces per generator
(slices.py) and does one gather per subspace per generator (spin.py), so
generator_set gives as few elements of G' as it allows.  For d >= 3,
GL(d, 2) is simple and nonabelian, and a direct product of such groups
is generated by two elements that carry one generating pair per factor,
as long as no automorphism carries one factor's pair to another's (P.
Hall, "The Eulerian functions of a group", 1936).  GL(2, 2) is S3, and
S3^k maps onto its abelianization Z2^k, so k such factors need k
generators.  tests/test_group.py proves by Schreier-Sims that
generator_set generates G' where modes 2..n have at most 100 nonzero
vectors; elsewhere G' is one GL(d, 2), d >= 7, which c and t generate.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import Shape, simple_code


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


def independent_tuples(d: int, k: int) -> int:
    """prod_{i<k} (2^d - 2^i), the ordered independent k-tuples of F2^d."""
    return math.prod((1 << d) - (1 << i) for i in range(k))


def group_order(d: int) -> int:
    """|GL(d, 2)|, the ordered bases of F2^d."""
    return independent_tuples(d, d)


def small_group_order(shape: Shape) -> int:
    """Order of GL(d1,2) x ... x GL(dn,2)."""
    return math.prod(group_order(d) for d in shape.dims)


def large_group_order(shape: Shape) -> int:
    """Small group extended by all permutations of equal-dimension modes."""
    return small_group_order(shape) * len(block_permutations(shape))


def block_permutations(shape: Shape) -> list[tuple[int, ...]]:
    """All mode permutations preserving dimensions (1-based images), in
    lexicographic order, so the identity comes first."""
    return [sigma for sigma in itertools.permutations(range(1, shape.n + 1))
            if all(shape.dims[k - 1] == d for k, d in zip(sigma, shape.dims))]


def transpose_codes(shape: Shape, codes: np.ndarray, perms) -> np.ndarray:
    """out[..., j] = the code whose entry at (i1, ..., in) is the entry of
    codes at (i_perm[1], ..., i_perm[n]) for perm = perms[j], for codes
    and dimension-preserving mode permutations, in the codes' dtype: perm
    sends the basis tensor with e_jk on mode k to the one with e_jk on
    mode perm[k], so each bit moves to one bit by a shift and an OR."""
    out = np.zeros(codes.shape + (len(perms),), codes.dtype)
    inverses = [[perm.index(k + 1) for k in range(shape.n)] for perm in perms]
    for b, idx in enumerate(reversed(list(itertools.product(*map(range, shape.dims))))):
        bit = (codes >> b) & 1
        for column, inverse in zip(np.moveaxis(out, -1, 0), inverses):
            image = simple_code(shape.dims, [1 << idx[i] for i in inverse])
            column |= bit << (image.bit_length() - 1)
    return out


# ---- actions ----

def generator_set(shape: Shape) -> tuple[tuple[GLMatrix, ...], ...]:
    """m = max(2, dimension-2 modes after the first) elements that
    generate G' = GL(d2,2) x ... x GL(dn,2), each the identity on mode 1,
    from c, t = gl_generators(d); an element is a tuple of matrices, the
    (k - 1)-th acting on mode k.

    After the first, the j-th mode of dimension d >= 3 (j = 0, 1: a slice
    has at most 13 entries) takes (c, t) or (t, c) into elements 0 and 1
    and the identity elsewhere, and the j-th mode of dimension 2 takes t,
    an involution, in element j and c @ t, of order 3, in the others."""
    count = max(2, shape.dims[1:].count(2))
    columns = [[identity_matrix(shape.dims[0])] * count]
    for k, d in enumerate(shape.dims[1:], start=1):
        j = shape.dims[1:k].count(d)
        c, t = gl_generators(d)
        if d == 2:
            column = [c @ t] * j + [t] + [c @ t] * (count - 1 - j)
        else:
            column = ([c, t] if j == 0 else [t, c]) + [identity_matrix(d)] * (count - 2)
        columns.append(column)
    return tuple(zip(*columns))


class CodeMap:
    """A linear bijection on codes compiled to XOR-of-shifted-masks form."""

    def __init__(self, n_bits: int, terms):
        self.n_bits = n_bits
        self.terms = tuple(sorted(terms))

    @classmethod
    def from_images(cls, n_bits: int, images) -> "CodeMap":
        """The linear map sending bit p to images[p]."""
        terms = {}
        for p, img in enumerate(images):
            for q in range(n_bits):
                if (img >> q) & 1:
                    terms[q - p] = terms.get(q - p, 0) | (1 << p)
        return cls(n_bits, terms.items())

    def __call__(self, code: int) -> int:
        if not 0 <= code < (1 << self.n_bits):
            raise ValueError(f"code {code} out of range for {self.n_bits} bits")
        acc = 0
        for shift, mask in self.terms:
            part = code & mask
            acc ^= (part << shift) if shift >= 0 else (part >> -shift)
        return acc

    @functools.cached_property
    def _tables(self):
        lo_bits = (self.n_bits + 1) // 2
        images = [self(1 << b) for b in range(self.n_bits)]
        return (lo_bits, (1 << lo_bits) - 1,
                linear_table(images[:lo_bits], np.intp), linear_table(images[lo_bits:], np.intp))

    def apply_array(self, codes: np.ndarray) -> np.ndarray:
        """Images of an integer array of codes, as intp: the tables hold
        intp so that images index arrays without a cast.
        Each table has at most 2^14 entries (128 KiB)."""
        lo_bits, lo_mask, lo, hi = self._tables
        return lo[codes & lo_mask] ^ hi[codes >> lo_bits]


def linear_table(images, dtype) -> np.ndarray:
    """table[x] = the image of x under the linear map sending bit b to
    images[b], for every x < 2^len(images), filled one bit at a time."""
    table = np.zeros(1 << len(images), dtype)
    for b, image in enumerate(images):
        table[1 << b:2 << b] = table[:1 << b] ^ image
    return table


def basis_images(dims, matrices) -> list[int]:
    """images[b] = the image of code 1 << b under matrices[k - 1] acting on
    mode k of format dims: the outer product of the rows picked by the
    subscripts of bit b.  dims may have a single mode."""
    rows = [m.rows for m in matrices]
    images = [simple_code(dims, [r[j] for r, j in zip(rows, idx)])
              for idx in itertools.product(*map(range, dims))]
    return images[::-1]


@functools.lru_cache(maxsize=None)
def compile_mode_action(shape: Shape, k: int, matrix: GLMatrix) -> CodeMap:
    """Compile matrix acting on mode k (1-based): the element with the
    identity on every other mode."""
    if not 1 <= k <= shape.n:
        raise ValueError(f"mode {k} out of range for {shape}")
    matrices = [identity_matrix(d) for d in shape.dims]
    matrices[k - 1] = matrix
    return compile_composite(shape, tuple(matrices))


def compile_composite(shape: Shape, element) -> CodeMap:
    """Compile a group element from the images of the N basis tensors."""
    dims = tuple(m.d for m in element)
    if dims != shape.dims:
        raise ValueError(f"element of {'x'.join(map(str, dims))} matrices "
                         f"does not match {shape}")
    return CodeMap.from_images(shape.entry_count, basis_images(dims, element))


def compile_generators(shape: Shape, elements) -> tuple[CodeMap, ...]:
    """One fused CodeMap per element, in order."""
    return tuple(compile_composite(shape, e) for e in elements)
