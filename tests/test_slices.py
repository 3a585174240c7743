"""The slice kernels against oracles that share no code with them.

reduce_rows is checked item by item against a pure-Python reduced row
echelon form, the slice maps against conftest.reference_apply on every
accepted format, and every permutation of every accepted format with at
most 2^17 subspaces is checked to be a bijection that sends each key to
the span of its mapped rows.  span_index numbers spans by arithmetic;
the sorted probe, pack plus np.searchsorted into the keys, is its
reference: every key's own basis must get its own index, and random
slice rows the probe's index.  unrank inverts it: every index must give
back the key subspace_keys lists there, within the bytes unrank_bytes
counts.  The key build's traced peak does not follow numpy's buffer
size.
"""

import functools

import numpy as np
from conftest import OBJECT_SLACK, reference_apply, traced_peaks
from hypothesis import example, given, settings
from hypothesis import strategies as st

from f2orbits.group import generator_set, identity_matrix
from f2orbits.orbits import FIXED_BYTES, required_bytes
from f2orbits.slices import (CHUNK, CODE, INDEX, index_tables, level_bounds, max_dim,
                             permutations, reduce_rows, slice_bits, slice_maps, span_index,
                             subspace_count, subspace_keys, unpack, unrank, unrank_bytes)
from f2orbits.tensor import Shape, parse_shape


def pack(basis, m):
    """The keys of reduced bases from reduce_rows: row i in slot i from the
    bottom, so the least row ends up in the highest nonzero slot."""
    shifts = np.arange(basis.shape[0], dtype=CODE)[:, None] * m
    return np.bitwise_or.reduce(basis << shifts, axis=0)


def python_rref(vectors, steps):
    """The reduced rows of the span of vectors, descending, padded with
    zeros to steps rows."""
    basis = []
    for v in vectors:
        for b in basis:
            if v >> (b.bit_length() - 1) & 1:
                v ^= b
        if v:
            p = v.bit_length() - 1
            basis = [b ^ v if b >> p & 1 else b for b in basis] + [v]
    basis.sort(reverse=True)
    return basis + [0] * (steps - len(basis))


@st.composite
def row_sets(draw):
    """(m, steps, items): n items of w vectors of m bits each, and a step
    count of at least the rank."""
    m = draw(st.integers(1, 10))
    w = draw(st.integers(1, 4))
    items = draw(st.lists(st.lists(st.integers(0, (1 << m) - 1), min_size=w, max_size=w),
                          min_size=1, max_size=12))
    return m, draw(st.integers(min(w, m), w + 1)), items


@settings(derandomize=True, max_examples=300, deadline=None)
@given(case=row_sets())
@example(case=(3, 1, [[5], [0], [7]]))
@example(case=(4, 2, [[9, 9], [3, 12], [0, 0]]))
def test_reduce_rows_matches_python_rref(case):
    m, steps, items = case
    w, n = len(items[0]), len(items)
    expected = [python_rref(vectors, steps) for vectors in items]
    # rows as the callers build them: one contiguous row per vector slot,
    # here a view into a larger buffer whose first row must stay intact
    buf = np.zeros((w + 1, n), CODE)
    buf[0] = 1
    buf[1:] = np.array(items, CODE).T
    got = reduce_rows(buf[1:], steps)
    assert got.shape == (steps, n)
    assert got.T.tolist() == expected
    assert (buf[0] == 1).all()
    # a transpose is C-contiguous when w = 1, so the kernel would write
    # through it; a copy leaves the caller's items as they were
    items_array = np.array(items, CODE)
    view = items_array.T
    assert view.flags.c_contiguous == (w == 1 or n == 1)
    assert reduce_rows(view.copy(), steps).T.tolist() == expected
    assert items_array.tolist() == items


def test_permutations_are_bijections_onto_the_mapped_spans(accepted_formats):
    checked = 0
    for dims in accepted_formats:
        s = Shape(dims)
        if subspace_count(s) > 1 << 17:
            continue
        keys = subspace_keys(s)
        m, d1 = slice_bits(s), dims[0]
        slots = np.array([(keys >> np.uint32(j * m)) & np.uint32((1 << m) - 1)
                          for j in range(d1)])
        for table, perm in zip(slice_maps(s), permutations(s), strict=True):
            assert perm.dtype == INDEX, dims
            assert np.array_equal(np.sort(perm), np.arange(keys.size)), dims
            image = pack(reduce_rows(table[slots], max_dim(s)), m)
            assert np.array_equal(keys[perm], image), dims
        checked += 1
    assert checked == 55


def test_slice_maps_match_the_definition(accepted_formats):
    # each table is the composite with the identity on mode 1, acting on
    # the last slice: its M basis codes against the per-entry reference,
    # and every other entry by linearity, on a fixed sample of pairs
    rng = np.random.default_rng(31)
    for dims in accepted_formats:
        s = Shape(dims)
        m = slice_bits(s)
        tables = slice_maps(s)
        composites = generator_set(s)
        assert len(tables) == len(composites), dims
        x, y = rng.integers(0, 1 << m, size=(2, 256))
        for table, c in zip(tables, composites):
            assert table.dtype == CODE and table.size == 1 << m, dims
            action = (identity_matrix(dims[0]),) + c[1:]
            assert [int(table[1 << b]) for b in range(m)] == \
                [reference_apply(s, action, 1 << b) for b in range(m)], dims
            assert np.array_equal(table[x ^ y], table[x] ^ table[y]), dims
    assert len(accepted_formats) == 70


def test_every_key_gets_its_own_index(accepted_formats):
    # the arithmetic numbering inverts the key build on every accepted
    # format; a level of more than 2^20 keys is checked at a stride
    for dims in accepted_formats:
        s = Shape(dims)
        keys, tables = subspace_keys(s), index_tables(s)
        bounds = level_bounds(s)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            at = np.arange(lo, hi, -(-(hi - lo) >> 20), dtype=INDEX)
            for start in range(0, at.size, CHUNK):
                chunk = at[start:start + CHUNK]
                rows = unpack(keys[chunk], slice_bits(s), max_dim(s))
                got = span_index(rows, tables)
                assert got.dtype == INDEX and np.array_equal(got, chunk), (dims, lo)
    assert len(accepted_formats) == 70


# the most unrank_bytes plus FIXED_BYTES may exceed unrank's traced peak:
# what its Python objects leave of FIXED_BYTES, 12.7 to 14.2 KB
UNRANK_SLACK = 16 << 10


def test_unrank_bytes_bound_the_peak():
    # tracemalloc's peak over unrank, its CODE result aside, stays
    # within unrank_bytes plus FIXED_BYTES for Python objects, and that
    # figure within UNRANK_SLACK of the peak, from a handful of indices
    # to several chunks
    for fmt in ("3x3x3", "2x2x2x2", "4x3x2"):
        s = parse_shape(fmt)
        bounds = level_bounds(s)
        for k in range(1, max_dim(s) + 1):
            for n in (5, 50, 500, 1000, 2000, 3000, 8192, 40000):
                index = np.arange(bounds[k], min(bounds[k] + n, bounds[k + 1]))
                unrank(s, index)
                figure = unrank_bytes(k, index.size) + FIXED_BYTES
                for peak in traced_peaks(lambda: unrank(s, index)):
                    peak -= CODE.itemsize * index.size
                    assert peak <= figure <= peak + UNRANK_SLACK, (fmt, k, n, peak)


def test_key_build_peak_ignores_the_buffer_size():
    # the keys are built a line of the shorter axis at a time with a scalar
    # operand, so numpy buffers no broadcast operand and the traced peak is
    # the same at both buffer sizes, under the enumeration's figure
    for fmt in ("3x3x3", "3x2x2x2", "2x2x2x2", "4x3x2"):
        s = parse_shape(fmt)
        subspace_keys(s)
        first, second = traced_peaks(lambda: subspace_keys(s))
        assert abs(first - second) <= OBJECT_SLACK, (fmt, first, second)
        assert first <= required_bytes(s), (fmt, first)


def test_unrank_lists_the_keys(accepted_formats):
    # unrank(arange(S)) is subspace_keys on every accepted format, a level
    # of more than 2^20 keys at a stride, with the indices also unranked
    # in reverse, so that chunks mix levels
    for dims in accepted_formats:
        s = Shape(dims)
        keys, bounds = subspace_keys(s), level_bounds(s)
        at = np.concatenate([np.arange(lo, hi, -(-(hi - lo) >> 20))
                             for lo, hi in zip(bounds[:-1], bounds[1:])])
        got = unrank(s, at)
        assert got.dtype == CODE, dims
        assert np.array_equal(got, keys[at]), dims
        assert np.array_equal(unrank(s, at[::-1]), keys[at[::-1]]), dims
    assert len(accepted_formats) == 70
    assert unrank(Shape((3, 3, 3)), np.array([], np.intp)).size == 0


@functools.cache
def probe_setup(fmt):
    s = parse_shape(fmt)
    return s, subspace_keys(s), index_tables(s)


@st.composite
def slice_rows(draw):
    """(format, rows): a (d1, n) uint32 array of random slices, the shape
    of the slices of n codes, often with repeats and zeros."""
    fmt = draw(st.sampled_from(["2x2x2", "6x2x2", "3x3x3", "2x2x2x2", "2x13"]))
    s = parse_shape(fmt)
    d1, m = s.dims[0], slice_bits(s)
    pool = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=d1 + 1))
    n = draw(st.integers(1, 16))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=d1 * n, max_size=d1 * n))
    return fmt, np.array([pool[i] for i in picks], CODE).reshape(d1, n)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=slice_rows())
@example(case=("2x13", np.array([[8191, 0], [4096, 1]], CODE)))
@example(case=("6x2x2", np.array([[1], [2], [4], [8], [15], [0]], CODE)))
def test_span_index_matches_the_sorted_probe(case):
    fmt, rows = case
    s, keys, tables = probe_setup(fmt)
    spans = pack(reduce_rows(rows.copy(), max_dim(s)), slice_bits(s))
    probe = np.searchsorted(keys, spans)
    assert np.array_equal(keys[probe], spans)
    assert np.array_equal(span_index(rows, tables), probe)
