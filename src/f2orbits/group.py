"""GL(d, 2) generators, group orders, and mode actions on tensor codes.

Matrices are stored row-major with row j holding the image of the basis
vector e_j, as an int bitmask (bit i-1 set means column i).  Acting along
one mode applies the stored linear map to that mode's coordinate vectors:
x'[i] = sum_j x[j] * rows[j][i] over GF(2), a row vector times the matrix.
Under this convention apply(a @ b, c) == apply(b, apply(a, c)).

Every group action is built one way, from the images of basis tensors:
(g1, ..., gn) sends the tensor with one 1 at subscripts (j1, ..., jn) to
the outer product of row j1 of g1, ..., row jn of gn (basis_images,
through tensor.simple_code), and linearity gives the rest.
slices.slice_maps takes the images of the M bits of one slice only.  A
mode permutation moves entries to entries, so transpose_codes applies
it to an array of codes as one gather of their bits.

compile_composite turns the N images into a CodeMap of (shift, mask)
terms: new_code = XOR over terms of a masked, shifted copy of the old
code, and a mode action is the composite with the identity elsewhere.
No classify path compiles a CodeMap; benchmark/layers.py and the table
oracle in tests/ do.  A compiled map is linear, so the array path needs
no terms: two lookup tables hold the images of every low half
(ceil(N/2) bits) and every high half, and apply_array(codes) =
lo[codes & lo_mask] ^ hi[codes >> lo_bits], at the same cost for any
map.

Enumeration stores one permutation of the slice-space subspaces per
generator (slices.py) and does one gather per subspace per generator
(spin.py), so the default generator set is as small as the group
allows: m = max(2, number of modes of dimension 2) composites, not the
2n per-mode generators.  For d >= 3, GL(d, 2) is simple and nonabelian, and a
direct product of such groups is generated by two elements that carry
one generating pair per factor, as long as no automorphism carries one
factor's pair to another's (P. Hall, "The Eulerian functions of a
group", 1936).  GL(2, 2) is S3, and S3^k
maps onto its abelianization Z2^k, so k such factors need k generators.
generator_set gives the layout.  tests/test_group.py proves by
Schreier-Sims that it generates the full product on every format with at
most 100 nonzero mode vectors, and argues the remaining two-mode formats
in its docstring.
"""

import functools
import itertools
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
    return small_group_order(shape) * len(block_permutations(shape))


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


def transpose_codes(shape: Shape, codes: np.ndarray, perms) -> np.ndarray:
    """out[..., j] = the code whose entry at (i1, ..., in) is the entry of
    codes at (i_perm[1], ..., i_perm[n]) for perm = perms[j], for an
    integer array of codes and dimension-preserving mode permutations,
    as uint32, by one gather of the codes' bits: source[p] is the
    position whose entry moves to position p."""
    n = shape.entry_count
    positions = np.arange(n).reshape(shape.dims)
    inverses = [[perm.index(j + 1) for j in range(shape.n)] for perm in perms]
    sources = np.array([positions.transpose(inverse).ravel() for inverse in inverses])
    weights = np.uint32(1) << np.arange(n - 1, -1, -1, dtype=np.uint32)
    bits = (np.asarray(codes)[..., None] & weights) != 0
    return (bits[..., sources] * weights).sum(axis=-1, dtype=np.uint32)


# ---- actions ----

@dataclass(frozen=True)
class Composite:
    """One element of the small group: matrices[k - 1] acts on mode k."""

    matrices: tuple[GLMatrix, ...]


def generator_set(shape: Shape) -> tuple[Composite, ...]:
    """m = max(2, number of dimension-2 modes) composites that generate
    GL(d1,2) x ... x GL(dn,2), from c, t = gl_generators(d) per mode.

    The j-th mode of dimension d >= 3 (j = 0, 1, 2; no supported format has
    more) takes the pair (c, t), (t, c) or (c, t @ c) into composites 0
    and 1 and the identity elsewhere.  The j-th mode of dimension 2 takes
    t, an involution, in composite j and c @ t, of order 3, in the others."""
    count = max(2, shape.dims.count(2))
    columns = []
    seen = {}
    for d in shape.dims:
        j = seen[d] = seen.get(d, -1) + 1
        c, t = gl_generators(d)
        if d == 2:
            column = [c @ t] * count
            column[j] = t
        else:
            column = list(((c, t), (t, c), (c, t @ c))[j])
            column += [identity_matrix(d)] * (count - 2)
        columns.append(column)
    return tuple(Composite(tuple(row)) for row in zip(*columns))


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

    def _span_table(self, first: int, count: int) -> np.ndarray:
        """Images of the codes whose set bits lie in [first, first + count),
        indexed by code >> first; filled by linearity, one bit at a time."""
        table = np.zeros(1 << count, dtype=np.intp)
        for b in range(count):
            table[1 << b:2 << b] = table[:1 << b] ^ self(1 << (first + b))
        return table

    @functools.cached_property
    def _tables(self):
        lo_bits = (self.n_bits + 1) // 2
        return (lo_bits, (1 << lo_bits) - 1,
                self._span_table(0, lo_bits),
                self._span_table(lo_bits, self.n_bits - lo_bits))

    def apply_array(self, codes: np.ndarray) -> np.ndarray:
        """Images of an integer array of codes, as intp: the tables hold
        intp so that images index arrays without a cast.
        Each table has at most 2^14 entries (128 KiB)."""
        lo_bits, lo_mask, lo, hi = self._tables
        return lo[codes & lo_mask] ^ hi[codes >> lo_bits]


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
    """Compile matrix acting on mode k (1-based): the composite with the
    identity on every other mode."""
    if not 1 <= k <= shape.n:
        raise ValueError(f"mode {k} out of range for {shape}")
    matrices = [identity_matrix(d) for d in shape.dims]
    matrices[k - 1] = matrix
    return compile_composite(shape, Composite(tuple(matrices)))


def compile_composite(shape: Shape, element: Composite) -> CodeMap:
    """Compile a composite from the images of the N basis tensors."""
    dims = tuple(m.d for m in element.matrices)
    if dims != shape.dims:
        raise ValueError(f"composite of {'x'.join(map(str, dims))} matrices "
                         f"does not match {shape}")
    return CodeMap.from_images(shape.entry_count, basis_images(dims, element.matrices))


def compile_generators(shape: Shape, composites) -> tuple[CodeMap, ...]:
    """One fused CodeMap per composite, in order."""
    return tuple(compile_composite(shape, c) for c in composites)
