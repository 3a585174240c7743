"""The slice kernels against oracles that share no code with them.

reduce_rows is checked item by item against a pure-Python reduced row
echelon form, the slice maps against conftest.reference_apply on every
accepted format, and every permutation of every accepted format with at
most 2^17 subspaces is checked to be a bijection that sends each key to
the span of its mapped rows.
"""

import numpy as np
from conftest import reference_apply
from hypothesis import example, given, settings
from hypothesis import strategies as st

from f2orbits.group import Composite, generator_set, identity_matrix
from f2orbits.slices import (KEY, lead_table, max_dim, pack, permutation, reduce_rows,
                             slice_bits, slice_maps, subspace_count, subspace_keys)
from f2orbits.tensor import Shape


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
    buf = np.zeros((w + 1, n), KEY)
    buf[0] = 1
    buf[1:] = np.array(items, KEY).T
    got = reduce_rows(buf[1:], steps, lead_table(m))
    assert got.shape == (steps, n)
    assert got.T.tolist() == expected
    assert (buf[0] == 1).all()
    # a transpose is C-contiguous when w = 1, so the kernel would write
    # through it; a copy leaves the caller's items as they were
    items_array = np.array(items, KEY)
    view = items_array.T
    assert view.flags.c_contiguous == (w == 1 or n == 1)
    assert reduce_rows(view.copy(), steps, lead_table(m)).T.tolist() == expected
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
        for table in slice_maps(s):
            perm = permutation(s, keys, table)
            assert np.array_equal(np.sort(perm), np.arange(keys.size)), dims
            image = pack(reduce_rows(table[slots], max_dim(s), lead_table(m)), m)
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
            assert table.dtype == KEY and table.size == 1 << m, dims
            action = Composite((identity_matrix(dims[0]),) + c.matrices[1:])
            assert [int(table[1 << b]) for b in range(m)] == \
                [reference_apply(s, action, 1 << b) for b in range(m)], dims
            assert np.array_equal(table[x ^ y], table[x] ^ table[y]), dims
    assert len(accepted_formats) == 70
