"""The subspaces of the mode-1 slice space of a format, numbered in key order.

A code of format d1 x d2 x ... x dn is a d1-tuple of M-bit slices, M =
N / d1, slice 1 in the most significant bits.  A subspace of F2^M of
dimension k <= min(d1, M) is stored as its reduced row echelon basis:
rows with distinct leading bits (pivots), each pivot clear in every
other row.  Its key is the code with d1 - k zero slices followed by the
k rows in ascending order, so the keys of k-spaces lie in
[2^((k-1)M), 2^(kM)); orbits.py shows that a key is the least code whose
slices span its subspace.  Every pass over many subspaces or codes works
on chunks of CHUNK items.

Numbering.  span_index finds a span's index among the keys by
arithmetic, with no search.  cnt_m(L, p) = 2^(pL) [m - p, L]_2 counts
the L-spaces of F2^m whose least pivot is at least p, the last ones of
their level, as a level ascends with its least row b1.  For each b1
with pivot p, the other rows of a k-space range over the (k-1)-spaces
with pivots above p and bit p clear, which with bit p deleted are the
last cnt_(M-1)(k-1, p) of level k-1 of F2^(M-1), in the same order.  So
the k-spaces after b1 < ... < bk in their level number

    after_M(b1..bk) = cnt_M(k, p) - (b1 - 2^p + 1) cnt_(M-1)(k-1, p)
                      + after_(M-1)(b2..bk with bit p deleted).

Unrolled, row b_i has pivot q_i = p_i - i + 1 once the i - 1 pivots
below it are deleted, and free_i, its bits below that pivot, counts
mul_i = cnt_(M-i)(k-i, q_i) times.  So the index is base[P] plus the
sum of mul_i free_i, with base[P] the level's last index less the sum
of cnt_(M-i+1)(k-i+1, q_i) - mul_i: both hang on the pivot set P only.

Unranking.  unrank inverts the formula one row at a time.  The k-spaces
after one with pivot p are the cnt_M(k, p + 1) with a higher pivot and
some of the cnt_M(k, p) - cnt_M(k, p + 1) with pivot p, so p is the
largest p with cnt_M(k, p) > after: a sum of comparisons against at most
M thresholds, cnt_M(k, p) falling with p.  With x = cnt_M(k, p) - after
and c = cnt_(M-1)(k-1, p), the formula reads x = j c - after' for j =
b1 - 2^p + 1 and 0 <= after' < c, so j = ceil(x / c), b1 = 2^p + j - 1,
and the rest is the (k-1)-space of F2^(M-1) with after' = j c - x after
it; putting bit p back into its rows, as 0, gives b2 < ... < bk.
"""

import itertools

import numpy as np

from .group import basis_images, generator_set, independent_tuples, linear_table
from .tensor import Shape

CODE = np.dtype(np.uint32)     # codes, keys, slices and slice maps
INDEX = np.dtype(np.uint32)    # subspace indices, their tables and permutations
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


def level_bounds(shape: Shape) -> list[int]:
    """bounds[k]:bounds[k+1] indexes the keys of the k-spaces, for k =
    0..min(d1, M): the levels ascend, and level k holds the Gaussian
    binomial [M, k] keys."""
    m = slice_bits(shape)
    return list(itertools.accumulate(
        (gaussian_binomial(m, k) for k in range(max_dim(shape) + 1)), initial=0))


def subspace_count(shape: Shape) -> int:
    """S, the number of subspaces of F2^M of dimension at most min(d1, M)."""
    return level_bounds(shape)[-1]


def tuple_counts(shape: Shape) -> list[int]:
    """t(k), the number of d1-tuples spanning a k-space, for k = 0..min(d1, M)."""
    return [independent_tuples(shape.dims[0], k) for k in range(max_dim(shape) + 1)]


def reduce_rows(rows: np.ndarray, steps: int) -> np.ndarray:
    """The reduced row echelon basis of the span of each column of rows, a
    (w, n) array of w vectors per item, as a (steps, n) array with
    the rows descending and zero rows last; steps must be at least the
    rank.  rows is overwritten, and left zero: pass a copy of what the
    caller reads."""
    out = np.zeros((steps, rows.shape[1]), rows.dtype)
    for i in range(steps):
        top = rows.max(axis=0)
        # top has no bit above its pivot, so adding it lowers a row exactly
        # when the row holds that pivot (row by row: one row of temporary)
        for row in itertools.chain(rows, out[:i]):
            np.minimum(row, row ^ top, out=row)
        out[i] = top
    return out


def unpack(keys: np.ndarray, m: int, k: int) -> np.ndarray:
    """The lowest k slots of each key, as a (k, n) array."""
    slots = np.empty((k, keys.size), keys.dtype)
    for j, slot in enumerate(slots):
        np.right_shift(keys, j * m, out=slot)
    slots &= (1 << m) - 1
    return slots


def outer(ufunc, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i, j] = ufunc(a[i], b[j]) for a commutative ufunc, by lines of
    the shorter axis: numpy buffers a broadcast operand."""
    lines, short, long = (out, a, b) if a.size <= b.size else (out.T, b, a)
    for line, scalar in zip(lines, short):
        ufunc(long, scalar, out=line)
    return out


def subspace_keys(shape: Shape) -> np.ndarray:
    """The keys of all S subspaces, ascending.  The keys of k-spaces lie
    in [2^((k-1)M), 2^(kM)), and each (k+1)-space is built from its
    k-space as key | row << kM, grouped by the new row's pivot p, so each
    level comes out sorted."""
    m = slice_bits(shape)
    keys = np.empty(subspace_count(shape), CODE)
    keys[0] = 0
    lo, hi = 0, 1
    for k in range(max_dim(shape)):
        parents = keys[lo:hi]
        pos = hi
        for p in range(m):
            # parents whose least row, in slot k - 1, has its pivot above p
            # (is at least 2^(p+1)), and whose k rows all have bit p clear
            floor = (2 << p) << (k - 1) * m if k else 0
            column = sum(1 << (j * m + p) for j in range(k))
            chosen = parents[(parents >= floor) & ((parents & column) == 0)]
            rows = np.arange(1 << p, 2 << p, dtype=CODE) << k * m
            block = keys[pos:pos + rows.size * chosen.size].reshape(rows.size, chosen.size)
            outer(np.bitwise_or, rows, chosen, block)
            pos += block.size
        lo, hi = hi, pos
    assert hi == keys.size, "subspace count disagrees with the Gaussian binomials"
    return keys


def slice_maps(shape: Shape) -> list[np.ndarray]:
    """One CODE table of 2^M entries per generator: its matrices on modes
    2..n applied to a slice, filled by linearity from the images of the M
    basis slices."""
    return [linear_table(basis_images(shape.dims[1:], g[1:]), CODE)
            for g in generator_set(shape)]


def _cnt(m: int, rank: int, p: int) -> int:
    """cnt_m(rank, p), the rank-spaces of F2^m whose least pivot is at
    least p (module docstring)."""
    return gaussian_binomial(m - p, rank) << (p * rank) if m - p >= rank else 0


def index_tables(shape: Shape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lead, base, mul) for span_index: lead[v] is the highest set bit of
    v as a mask (0 for v = 0), a CODE, and base[P] and mul[j, P], for the
    pivot set P of a reduced basis as an M-bit mask and its row j from the
    top, are as in the module docstring, 0 for a zero row, INDEX."""
    m, top, bounds = slice_bits(shape), max_dim(shape), level_bounds(shape)
    lead, base = np.zeros(1 << m, CODE), np.zeros(1 << m, INDEX)
    mul = np.zeros((top, 1 << m), INDEX)
    for b in range(m):
        lead[1 << b:2 << b] = 1 << b
    for k in range(1, top + 1):
        for pivots in itertools.combinations(range(m), k):
            at, last = sum(1 << p for p in pivots), bounds[k + 1] - 1
            for i, p in enumerate(pivots):
                mul[k - 1 - i, at] = times = _cnt(m - i - 1, k - i - 1, p - i)
                last -= _cnt(m - i, k - i, p - i) - times
            base[at] = last
    return lead, base, mul


def span_index(rows: np.ndarray, tables) -> np.ndarray:
    """The index among the subspace keys of the span of each column of
    rows, a (w >= min(d1, M), n) CODE array of slices, as INDEX, from
    its reduced basis and index_tables of the format; overwrites rows."""
    lead, base, mul = tables
    basis = reduce_rows(rows, mul.shape[0])
    # the pivots as masks, in rows the reduction left zero
    pivots = rows[:len(basis)]
    for row, pivot in zip(basis, pivots):
        np.take(lead, row, out=pivot)
    pivot_set = np.bitwise_or.reduce(pivots, axis=0).astype(np.intp)
    # -2^p: adding it to a row clears the row's pivot p, and
    # x - ((x >> 1) & -2^p) deletes bit p of x when it is clear
    masks = np.negative(pivots, out=pivots)
    index = base.take(pivot_set)
    for j, free in enumerate(basis):
        free += masks[j]
        for lower in masks[j + 1:]:
            free -= (free >> 1) & lower
        free *= mul[j].take(pivot_set)
        index += free
    return index


def span_index_bytes(shape: Shape, w: int, n: int) -> int:
    """Peak bytes span_index allocates over n items of w slots, k = min(d1,
    M): tables of 2^M CODE and (k + 1) 2^M INDEX, and per chunk item the
    slots, basis and two temporaries in CODE, an INDEX and an int64."""
    k, code = max_dim(shape), CODE.itemsize
    return ((code + (k + 1) * INDEX.itemsize) * (1 << slice_bits(shape))
            + ((w + k + 2) * code + INDEX.itemsize + 8) * min(n, CHUNK))


def unrank(shape: Shape, index: np.ndarray) -> np.ndarray:
    """The keys of the subspaces at index, an integer array, as CODE: the
    inverse of span_index, by chunks (module docstring)."""
    m, bounds = slice_bits(shape), level_bounds(shape)
    index = np.asarray(index, np.int64).reshape(-1)
    out = np.zeros(index.size, CODE)    # the zero space keeps key 0
    for lo in range(0, index.size, CHUNK):
        chunk = index[lo:lo + CHUNK]
        for k in range(1, len(bounds) - 1):
            at = np.flatnonzero((chunk >= bounds[k]) & (chunk < bounds[k + 1]))
            if at.size:
                out[lo + at] = _unrank_level(m, k, bounds[k + 1] - 1 - chunk[at])
    return out


def unrank_bytes(k: int, n: int) -> int:
    """Peak bytes unrank allocates for n indices of k-spaces besides its
    result, over one chunk: 64 + 16 k bytes per item, eight int64 arrays
    (the positions, the after counts, the comparison buffer, the last
    row's x, c and j and two temporaries) and the k rows and k pivots,
    one temporary less for k = 1, which puts no pivot back."""
    return (64 + 16 * k - 8 * (k == 1)) * min(n, CHUNK)


def _unrank_level(m: int, k: int, after: np.ndarray) -> np.ndarray:
    """The keys of the k-spaces of F2^m with after (int64) k-spaces after
    them in their level, as int64; overwrites after."""
    rows, pivots = [], []
    below = np.empty_like(after)
    for i in range(k):
        mm, rank = m - i, k - i
        counts = np.array([_cnt(mm, rank, p) for p in range(mm)], np.int64)
        tails = np.array([_cnt(mm - 1, rank - 1, p) for p in range(mm)], np.int64)
        # p counts the bounds above after: (after - bound) >> 63 is -1 just when after < bound
        p = np.zeros_like(after)
        for bound in counts[1:]:
            p -= np.right_shift(np.subtract(after, bound, out=below), 63, out=below)
        x = counts[p] - after
        c = tails[p]
        j = (x + c - 1) // c
        rows.append((1 << p) + j - 1)
        pivots.append(p)
        np.subtract(j * c, x, out=after)
    # from the deepest row up, put each deleted pivot bit back as 0 (-2^p: bits p and up)
    for i in range(k - 2, -1, -1):
        for row in rows[i + 1:]:
            row += row & -(1 << pivots[i])
    key = rows[0]
    for row in rows[1:]:
        key <<= m
        key |= row
    return key


def permutations(shape: Shape) -> list[np.ndarray]:
    """perms[c][i] = the index of the image of subspace i under the slice
    map of generator c of generator_set, for every generator: the keys,
    index tables and slice maps are built once, and the permutations are
    filled chunk by chunk of keys, unpacked once per map."""
    m, k = slice_bits(shape), max_dim(shape)
    keys, tables, maps = subspace_keys(shape), index_tables(shape), slice_maps(shape)
    perms = [np.empty(keys.size, INDEX) for _ in maps]
    for lo in range(0, keys.size, CHUNK):
        for perm, table in zip(perms, maps):
            perm[lo:lo + CHUNK] = span_index(table[unpack(keys[lo:lo + CHUNK], m, k)], tables)
    return perms


def permutations_bytes(shape: Shape) -> int:
    """Peak bytes permutations allocates: per subspace a CODE key and m
    INDEX cells, m slice maps of 2^M CODE, and span_index over a chunk of
    k slots (mapping the rows takes 12 k bytes per item, and k <= 5)."""
    s, m, code = subspace_count(shape), len(generator_set(shape)), CODE.itemsize
    return ((code + INDEX.itemsize * m) * s + code * m * (1 << slice_bits(shape))
            + span_index_bytes(shape, max_dim(shape), s))


def spanning_codes(shape: Shape, keys: np.ndarray, k: int) -> np.ndarray:
    """The codes A B, unsorted, for the reduced basis B of each k-space
    in keys and every d1 x k coefficient matrix A of rank k: code [i, a] is
    the XOR over c of bases[c, i] spread[c, a], a line of the shorter axis
    at a time, by chunks of the longer, with no broadcast operand."""
    bases = unpack(keys, slice_bits(shape), k)
    spread = _spread_coefficients(shape, k)
    out = np.zeros((bases.shape[1], spread.shape[1]), CODE)
    short, long, lines = ((bases, spread, out) if bases.shape[1] <= spread.shape[1]
                          else (spread, bases, out.T))
    product = np.empty(min(long.shape[1], CHUNK), CODE)
    for lo in range(0, long.shape[1], CHUNK):
        for line, factors in zip(lines[:, lo:lo + CHUNK], short.T):
            for row, factor in zip(long[:, lo:lo + CHUNK], factors):
                line ^= np.multiply(row, factor, out=product[:line.size])
    return out.reshape(-1)


def spanning_codes_bytes(shape: Shape, k: int, n: int) -> int:
    """Peak bytes spanning_codes allocates for n keys of k-spaces, t = t(k),
    in CODE: the keys' rows and the (k, t) coefficients, beside a chunk of
    candidates being filtered (3 k + 2 each) or the n t codes and one
    product line of the longer of n and t, at most a chunk."""
    t, code = tuple_counts(shape)[k], CODE.itemsize
    candidates = min(CHUNK, 1 << (shape.dims[0] * k))
    return code * (k * (n + t) + max((3 * k + 2) * candidates, n * t + min(max(n, t), CHUNK)))


def _spread_coefficients(shape: Shape, k: int) -> np.ndarray:
    """The d1 x k matrices A of rank k, found by filtering all 2^(d1 k)
    candidates in chunks, as a (k, t(k)) CODE array: entry [c, a] has
    bit (d1-1-j) M set when A[j, c] = 1, so that the XOR over c of B_c
    times entry [c, a] is the code of the tuple A B."""
    d1, m = shape.dims[0], slice_bits(shape)
    out = np.zeros((k, tuple_counts(shape)[k]), CODE)
    pos = 0
    for lo in range(0, 1 << (d1 * k), CHUNK):
        cols = unpack(np.arange(lo, min(lo + CHUNK, 1 << (d1 * k)), dtype=CODE), d1, k)
        cols = cols[:, reduce_rows(cols.copy(), k)[k - 1] != 0]
        for c, spread in enumerate(out[:, pos:pos + cols.shape[1]]):
            for j in range(d1):
                spread |= ((cols[c] >> j) & 1) << (d1 - 1 - j) * m
        pos += cols.shape[1]
    return out
