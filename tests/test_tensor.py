"""Encoding, indexing, simple tensors, transposition.

The indexing and transposition tests check the entry-level oracles of
tests/entry_oracle.py, which the other tests build on."""

import random

import pytest
from entry_oracle import get_entry, index_of, position_of, simple_tensors, transpose

from f2orbits.ranks import enumerate_simple_tensors
from f2orbits.slices import CODE
from f2orbits.tensor import MAX_ENTRIES, Shape, parse_shape, simple_code


def single_entry(shape, idx):
    # code of the tensor with one 1, at the 1-based subscript idx
    return 1 << (shape.entry_count - 1 - position_of(shape, idx))


def test_shape_basics():
    s = Shape((3, 3, 3))
    assert s.n == 3
    assert s.entry_count == 27
    assert s.code_bound == 1 << 27
    assert str(s) == "3x3x3"


def test_parse_shape_roundtrip():
    for text in ("2x2x2", "3x2x2", "4x3x2", "2x2x2x2", "3x3x3"):
        assert str(parse_shape(text)) == text


def test_parse_shape_rejects_garbage():
    for bad in ("", "3", "3x", "x3", "3x-2", "3 x 3", "a x b", "3x3x3x"):
        with pytest.raises(ValueError):
            parse_shape(bad)


def test_shape_validation():
    with pytest.raises(ValueError):
        Shape((5,))                    # a single mode is not a tensor product
    with pytest.raises(ValueError):
        Shape((1, 2, 2))
    with pytest.raises(ValueError):
        Shape((4, 4, 2))               # 32 entries is past the cap
    Shape((3, 3, 3))                   # 27 = MAX_ENTRIES is allowed
    assert MAX_ENTRIES == 27


def test_position_is_lex_rank():
    s = Shape((2, 3, 2))
    expect = 0
    for i1 in (1, 2):
        for i2 in (1, 2, 3):
            for i3 in (1, 2):
                assert position_of(s, (i1, i2, i3)) == expect
                assert index_of(s, expect) == (i1, i2, i3)
                expect += 1
    assert expect == s.entry_count


def test_position_index_roundtrip_all_formats():
    for dims in ((2, 2, 2), (3, 2, 2), (2, 2, 2, 2), (3, 3, 2), (3, 2, 2, 2)):
        s = Shape(dims)
        for p in range(s.entry_count):
            assert position_of(s, index_of(s, p)) == p


def test_position_rejects_bad_subscripts():
    s = Shape((2, 2, 2))
    for idx in ((0, 1, 1), (1, 1, 3), (1, 1), (1, 1, 1, 1)):
        with pytest.raises(ValueError):
            position_of(s, idx)


def test_entry_msb_is_all_ones_subscript():
    # code of the tensor with a single 1 at subscript (1,...,1) is the
    # highest bit; subscript (d1,...,dn) is the lowest
    s = Shape((2, 2, 2))
    top = single_entry(s, (1, 1, 1))
    assert top == 1 << 7
    assert single_entry(s, (2, 2, 2)) == 1
    assert get_entry(s, top, (1, 1, 1)) == 1
    assert get_entry(s, top, (2, 2, 2)) == 0
    assert get_entry(s, 1, (2, 2, 2)) == 1


def test_simple_code_entries():
    # entry (i1, ..., in) of v1 (x) ... (x) vn is the product of bit
    # i_k - 1 of every v_k; a single mode's code is its vector read from
    # subscript 1 down
    rng = random.Random(5)
    for dims in ((2, 3, 2), (3, 9), (2, 2, 2, 2), (4, 3, 2)):
        s = Shape(dims)
        for _ in range(20):
            vectors = [rng.randrange(1 << d) for d in dims]
            code = simple_code(dims, vectors)
            for p in range(s.entry_count):
                idx = index_of(s, p)
                want = all((v >> (i - 1)) & 1 for v, i in zip(vectors, idx))
                assert get_entry(s, code, idx) == want
    assert simple_code((5,), [0b00110]) == 0b01100
    assert simple_code((2, 2), [0, 3]) == 0


def test_simple_tensor_single_entry():
    # basis vectors e_i1, e_i2, e_i3 give the tensor with one 1 at
    # (i1, i2, i3), so every single-entry tensor is simple
    for dims in ((2, 2, 2), (3, 2, 2), (2, 3, 2)):
        s = Shape(dims)
        simples = set(enumerate_simple_tensors(s))
        for p in range(s.entry_count):
            assert single_entry(s, index_of(s, p)) in simples


def test_simple_tensor_is_outer_product():
    # the outer products of all nonzero vectors, built entry by entry
    # from the definition, are exactly the enumerated simple tensors
    s = Shape((2, 3, 2))
    products = set()
    for u in range(1, 1 << 2):
        for v in range(1, 1 << 3):
            for w in range(1, 1 << 2):
                code = 0
                for p in range(s.entry_count):
                    i1, i2, i3 = index_of(s, p)
                    if (u >> (2 - i1)) & (v >> (3 - i2)) & (w >> (2 - i3)) & 1:
                        code |= single_entry(s, (i1, i2, i3))
                products.add(code)
    assert products == set(enumerate_simple_tensors(s))


def test_simple_tensors_match_the_definition(accepted_formats):
    # on every accepted format, the simple tensors are the outer products
    # of every tuple of nonzero vectors, ascending, as one CODE array
    for dims in accepted_formats:
        s = Shape(dims)
        simples = enumerate_simple_tensors(s)
        assert simples.dtype == CODE, dims
        assert simples.tolist() == sorted(simple_tensors(s)), dims


def test_simple_tensor_count():
    # product of (2^d - 1) over the modes
    assert len(enumerate_simple_tensors(Shape((2, 2, 2)))) == 27
    assert len(enumerate_simple_tensors(Shape((3, 2, 2)))) == 63
    assert len(enumerate_simple_tensors(Shape((3, 3, 2)))) == 147
    assert len(enumerate_simple_tensors(Shape((2, 2, 2, 2)))) == 81


def test_simple_tensors_distinct_and_sorted():
    for dims in ((2, 2, 2), (3, 2, 2), (2, 2, 2, 2)):
        simples = enumerate_simple_tensors(Shape(dims)).tolist()
        assert simples == sorted(set(simples))
        assert 0 not in simples
        assert 1 in simples             # all-last basis vectors


def test_transpose_identity_and_involution():
    s = Shape((2, 2, 2))
    for code in range(256):
        assert transpose(s, code, (1, 2, 3)) == code
        swapped = transpose(s, code, (2, 1, 3))
        assert transpose(s, swapped, (2, 1, 3)) == code


def test_transpose_entry_semantics():
    s = Shape((2, 2, 2))
    code = single_entry(s, (1, 2, 1))
    perm = (2, 3, 1)
    out = transpose(s, code, perm)
    for p in range(s.entry_count):
        idx = index_of(s, p)
        src = tuple(idx[q - 1] for q in perm)
        assert get_entry(s, out, idx) == get_entry(s, code, src)


def test_transpose_composition_left_action():
    s = Shape((2, 2, 2))
    sigma, tau = (2, 3, 1), (2, 1, 3)
    comp = tuple(sigma[t - 1] for t in tau)
    for code in (1, 6, 22, 107, 201):
        assert transpose(s, transpose(s, code, tau), sigma) == \
            transpose(s, code, comp)


def test_transpose_requires_equal_dims():
    s = Shape((3, 2, 2))
    with pytest.raises(ValueError):
        transpose(s, 1, (2, 1, 3))      # swaps a 3-mode with a 2-mode
    assert transpose(s, 1, (1, 3, 2)) == 1


def test_transpose_rejects_non_permutation():
    s = Shape((2, 2, 2))
    for perm in ((1, 1, 2), (0, 1, 2), (1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError):
            transpose(s, 1, perm)
