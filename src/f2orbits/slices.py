"""The subspaces of the mode-1 slice space of a format, as sorted keys.

A code of format d1 x d2 x ... x dn is a d1-tuple of M-bit slices, M =
N / d1, slice 1 in the most significant bits.  A subspace of F2^M of
dimension k <= min(d1, M) is stored as its reduced row echelon basis:
rows with distinct leading bits (pivots), each pivot clear in every
other row.  Its key is the code with d1 - k zero slices followed by the
k rows in ascending order, so the keys of k-spaces lie in
[2^((k-1)M), 2^(kM)); orbits.py shows that a key is the least code whose
slices span its subspace.  Every pass over many subspaces or codes works
on chunks of CHUNK items.
"""

import numpy as np

from .group import Composite, compile_composite, generator_set, identity_matrix
from .tensor import Shape

KEY = np.dtype(np.uint32)
CHUNK = 1 << 14


def slice_bits(shape: Shape) -> int:
    """M, the bits of one mode-1 slice."""
    return shape.entry_count // shape.dims[0]


def max_dim(shape: Shape) -> int:
    """The largest dimension of a span of d1 slices, min(d1, M)."""
    return min(shape.dims[0], slice_bits(shape))


def gaussian_binomial(m: int, k: int) -> int:
    """The number of k-dimensional subspaces of F2^m."""
    num = den = 1
    for i in range(k):
        num *= (1 << (m - i)) - 1
        den *= (1 << (i + 1)) - 1
    return num // den


def subspace_count(shape: Shape) -> int:
    """S, the number of subspaces of F2^M of dimension at most min(d1, M)."""
    m = slice_bits(shape)
    return sum(gaussian_binomial(m, k) for k in range(max_dim(shape) + 1))


def tuple_counts(shape: Shape) -> list[int]:
    """t(k), the number of d1-tuples spanning a k-space, for k = 0..min(d1, M)."""
    d1 = shape.dims[0]
    out = [1]
    for i in range(max_dim(shape)):
        out.append(out[-1] * ((1 << d1) - (1 << i)))
    return out


def lead_table(bits: int) -> np.ndarray:
    """lead[v] = the highest set bit of v as a mask, 0 for v = 0."""
    lead = np.zeros(1 << bits, KEY)
    for b in range(bits):
        lead[1 << b:2 << b] = 1 << b
    return lead


def reduce_rows(rows: np.ndarray, steps: int, lead: np.ndarray) -> np.ndarray:
    """The reduced row echelon basis of the span of each row of rows, an
    (n, w) uint32 array of vectors, as an (n, steps) array with the rows
    in descending order and zero rows last; steps must be at least the
    rank.  rows is overwritten."""
    out = np.zeros((rows.shape[0], steps), KEY)
    for i in range(steps):
        top = rows.max(axis=1)
        pivot = lead[top][:, None]
        rows ^= ((rows & pivot) != 0) * top[:, None]
        out[:, :i] ^= ((out[:, :i] & pivot) != 0) * top[:, None]
        out[:, i] = top
    return out


def pack(basis: np.ndarray, m: int) -> np.ndarray:
    """The keys of reduced bases from reduce_rows: row i in slot i from the
    bottom, so the least row ends up in the highest nonzero slot."""
    key = np.zeros(basis.shape[0], KEY)
    for i in range(basis.shape[1]):
        key |= basis[:, i] << np.uint32(i * m)
    return key


def unpack(keys: np.ndarray, m: int, k: int) -> np.ndarray:
    """The lowest k slots of each key, as an (n, k) array."""
    shifts = np.arange(k, dtype=KEY) * np.uint32(m)
    return (keys[:, None] >> shifts) & np.uint32((1 << m) - 1)


def subspace_keys(shape: Shape) -> np.ndarray:
    """The keys of all S subspaces, ascending.  The keys of k-spaces lie
    in [2^((k-1)M), 2^(kM)), and each (k+1)-space is built from its
    k-space as key | row << kM, grouped by the new row's pivot p, so each
    level comes out sorted."""
    m = slice_bits(shape)
    keys = np.empty(subspace_count(shape), KEY)
    keys[0] = 0
    lo, hi = 0, 1
    for k in range(max_dim(shape)):
        parents = keys[lo:hi]
        occupied = np.bitwise_or.reduce(unpack(parents, m, k), axis=1)
        # the parent's least row sits in slot k - 1, and its pivot is above
        # p exactly when the row is at least 2^(p+1); the zero space's is M
        least = parents >> np.uint32((k - 1) * m) if k else np.array([1 << m])
        pos = hi
        for p in range(m):
            chosen = parents[(least >= (2 << p)) & ((occupied & np.uint32(1 << p)) == 0)]
            rows = np.arange(1 << p, 2 << p, dtype=KEY) << np.uint32(k * m)
            block = keys[pos:pos + rows.size * chosen.size]
            np.bitwise_or(rows[:, None], chosen[None, :],
                          out=block.reshape(rows.size, chosen.size))
            pos += block.size
        lo, hi = hi, pos
    assert hi == keys.size, "subspace count disagrees with the Gaussian binomials"
    return keys


def slice_maps(shape: Shape) -> list[np.ndarray]:
    """One uint32 table of 2^M entries per composite: the composite with
    the identity on mode 1, applied to the codes of the last slice, filled
    by linearity from the images of its M bits."""
    eye = identity_matrix(shape.dims[0])
    tables = []
    for c in generator_set(shape):
        image = compile_composite(shape, Composite((eye,) + c.matrices[1:]))
        table = np.zeros(1 << slice_bits(shape), KEY)
        for b in range(slice_bits(shape)):
            table[1 << b:2 << b] = table[:1 << b] ^ image(1 << b)
        tables.append(table)
    return tables


def permutation(shape: Shape, keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """perm[i] = the index in keys of the image of subspace i under the
    slice map table."""
    m, k = slice_bits(shape), max_dim(shape)
    lead = lead_table(m)
    perm = np.empty(keys.size, KEY)
    for lo in range(0, keys.size, CHUNK):
        rows = table[unpack(keys[lo:lo + CHUNK], m, k)]
        perm[lo:lo + CHUNK] = np.searchsorted(keys, pack(reduce_rows(rows, k, lead), m))
    return perm


def span_keys(shape: Shape, codes: np.ndarray) -> np.ndarray:
    """The key of the span of each code's slices, for a flat array of
    in-range codes."""
    d1, m, k = shape.dims[0], slice_bits(shape), max_dim(shape)
    lead = lead_table(m)
    out = np.empty(codes.size, KEY)
    for lo in range(0, codes.size, CHUNK):
        rows = unpack(codes[lo:lo + CHUNK].astype(KEY), m, d1)
        out[lo:lo + CHUNK] = pack(reduce_rows(rows, k, lead), m)
    return out


def spanning_codes(shape: Shape, keys: np.ndarray, k: int) -> np.ndarray:
    """The codes A B, unsorted, for the reduced basis B of each k-space
    in keys and every d1 x k coefficient matrix A of rank k."""
    bases = unpack(keys, slice_bits(shape), k)
    spread = _spread_coefficients(shape, k)
    out = np.zeros((bases.shape[0], spread.shape[1]), KEY)
    per = max(1, CHUNK // spread.shape[1])
    for lo in range(0, bases.shape[0], per):
        for c in range(k):
            out[lo:lo + per] ^= bases[lo:lo + per, c, None] * spread[c]
    return out.reshape(-1)


def _spread_coefficients(shape: Shape, k: int) -> np.ndarray:
    """The d1 x k matrices A of rank k, found by filtering all 2^(d1 k)
    candidates in chunks, as a (k, t(k)) uint32 array: entry [c, a] has
    bit (d1-1-j) M set when A[j, c] = 1, so that the XOR over c of B_c
    times entry [c, a] is the code of the tuple A B."""
    d1, m = shape.dims[0], slice_bits(shape)
    lead = lead_table(d1)
    out = np.empty((k, tuple_counts(shape)[k]), KEY)
    pos = 0
    for lo in range(0, 1 << (d1 * k), CHUNK):
        cols = unpack(np.arange(lo, min(lo + CHUNK, 1 << (d1 * k)), dtype=KEY), d1, k)
        cols = cols[reduce_rows(cols.copy(), k, lead)[:, k - 1] != 0]
        spread = np.zeros_like(cols)
        for j in range(d1):
            spread |= ((cols >> np.uint32(j)) & 1) << np.uint32((d1 - 1 - j) * m)
        out[:, pos:pos + cols.shape[0]] = spread.T
        pos += cols.shape[0]
    return out
