"""Matrix group machinery and compiled mode actions.

The compiled maps are checked against conftest.reference_apply, which
reapplies the definition one entry at a time and shares no code with
basis_images or tensor.simple_code.

test_generator_set_generates_small_group proves, with sympy's
Schreier-Sims order computation, that generator_set generates the whole
of GL(d1,2) x ... x GL(dn,2) on every format the parser accepts whose
nonzero mode vectors number at most 100.  The product acts faithfully on
the disjoint union of those vectors, so the permutation group there has
the small group's order exactly when the composites generate it.

The other accepted formats are the two-mode ones with a mode of
dimension a >= 7 beside a mode of dimension b = 2 or 3 (7x2 up to 13x2,
7x3 up to 9x3, either way round), where the composites are (c_a, x) and
(t_a, y).  For every d, c and t generate GL(d,2): conjugating t by powers
of c gives the transvections e_i -> e_i + e_(i+1) around the cycle,
their commutators give every elementary transvection, and those generate
SL(d,2) = GL(d,2).  So the subgroup H the composites generate projects
onto A = GL(a,2), and onto B: for b = 2, x = t and y = c @ t, an
involution and an element of order 3, generate S3 = GL(2,2); for b = 3,
(x, y) = (c, t).  By Goursat's lemma H is the fibre product over an
isomorphism between quotients A/N and B/M.  A is simple and nonabelian
of order at least |GL(7,2)|, larger than |B|, so the only quotient of A
that is also a quotient of B is trivial, N = A, and H = A x B.
"""

import random

import numpy as np
import pytest
from conftest import reference_apply
from entry_oracle import inverse, transpose
from hypothesis import given, settings
from hypothesis import strategies as st
from table_oracle import on_mode, per_mode_generators, transpose_map

from f2orbits.group import (CodeMap, GLMatrix, block_permutations,
                            compile_composite,
                            compile_generators, compile_mode_action,
                            generator_set, gl_generators,
                            group_order, identity_matrix, large_group_order,
                            small_group_order, transpose_codes)
from f2orbits.tensor import Shape


def random_gl(d, rng, steps=12):
    cyc, tv = gl_generators(d)
    m = identity_matrix(d)
    for _ in range(steps):
        m = m @ (cyc if rng.random() < 0.5 else tv)
    return m


# ---- matrices ----

def test_matrix_validation():
    with pytest.raises(ValueError):
        GLMatrix(2, (0b10, 0b10))       # repeated row, singular
    with pytest.raises(ValueError):
        GLMatrix(2, (0b11, 0b11))
    with pytest.raises(ValueError):
        GLMatrix(2, (0b100, 0b01))      # row out of range
    with pytest.raises(ValueError):
        GLMatrix(2, (0b10,))            # wrong row count
    GLMatrix(2, (0b11, 0b01))


def test_identity_and_entry():
    # row r of the identity has only bit r set: entry (r, c) is 1 on the
    # diagonal and 0 elsewhere
    m = identity_matrix(3)
    for r in range(1, 4):
        for c in range(1, 4):
            assert (m.rows[r - 1] >> (c - 1)) & 1 == (1 if r == c else 0)


def test_inverse_and_product():
    rng = random.Random(7)
    for d in (2, 3, 4):
        ident = identity_matrix(d)
        for _ in range(20):
            m = random_gl(d, rng)
            assert m @ inverse(m) == ident
            assert inverse(m) @ m == ident


def test_generator_closure_is_whole_group():
    # the two generators reach every invertible matrix
    for d, order in ((2, 6), (3, 168), (4, 20160)):
        cyc, tv = gl_generators(d)
        seen = {identity_matrix(d)}
        frontier = list(seen)
        while frontier:
            grown = []
            for m in frontier:
                for g in (cyc, tv):
                    nxt = m @ g
                    if nxt not in seen:
                        seen.add(nxt)
                        grown.append(nxt)
            frontier = grown
        assert len(seen) == group_order(d) == order


def test_group_orders():
    assert small_group_order(Shape((2, 2, 2))) == 216
    assert small_group_order(Shape((3, 2, 2))) == 6048
    assert small_group_order(Shape((3, 3, 3))) == 168 ** 3
    assert large_group_order(Shape((3, 3, 3))) == 6 * 168 ** 3 == 28449792
    assert large_group_order(Shape((2, 2, 2, 2))) == 31104
    assert large_group_order(Shape((3, 2, 2, 2))) == 217728
    assert large_group_order(Shape((4, 3, 2))) == small_group_order(Shape((4, 3, 2)))


def test_block_permutations():
    assert len(block_permutations(Shape((2, 2, 2)))) == 6
    assert len(block_permutations(Shape((3, 2, 2)))) == 2
    assert len(block_permutations(Shape((2, 2, 2, 2)))) == 24
    assert len(block_permutations(Shape((4, 3, 2)))) == 1
    perms = block_permutations(Shape((3, 2, 2, 2)))
    assert len(perms) == 6
    assert perms[0] == (1, 2, 3, 4)     # identity first
    assert all(p[0] == 1 for p in perms)


# ---- compiled actions ----

def test_pinned_generator_images():
    s = Shape((2, 2, 2))
    progs = compile_generators(s, generator_set(s))
    # composite j holds t = (e1 -> e1 + e2) on mode j + 1 and c @ t
    # (e2 -> e1 + e2) on the other modes; entry (2,2,2) is code 1, so its
    # image is e2 in mode j + 1 times e1 + e2 in the others
    assert [prog(1) for prog in progs] == [0b00001111, 0b00110011, 0b01010101]


def test_generator_set_layout():
    def layout(dims):
        s = Shape(dims)
        comps = generator_set(s)
        assert all(isinstance(c, tuple) and all(isinstance(m, GLMatrix) for m in c)
                   for c in comps)
        assert all(len(c) == s.n for c in comps)
        return list(comps)

    c2, t2 = gl_generators(2)
    c3, t3 = gl_generators(3)
    i3 = identity_matrix(3)
    assert layout((3, 2, 2)) == [(c3, t2, c2 @ t2), (t3, c2 @ t2, t2)]
    assert layout((3, 3, 3)) == [(c3, t3, c3), (t3, c3, t3 @ c3)]
    assert layout((4, 3, 2)) == [(gl_generators(4)[0], c3, t2),
                                 (gl_generators(4)[1], t3, c2 @ t2)]
    assert layout((3, 2, 2, 2)) == [(c3, t2, c2 @ t2, c2 @ t2),
                                    (t3, c2 @ t2, t2, c2 @ t2),
                                    (i3, c2 @ t2, c2 @ t2, t2)]
    assert len(layout((2, 2, 2, 2))) == 4
    assert len(layout((6, 2, 2))) == 2


def test_generator_set_generates_small_group(accepted_formats):
    # see the module docstring for the formats with more than 100 points
    from sympy.combinatorics import Permutation, PermutationGroup

    def vector_image(rows, v):
        out = 0
        for j, row in enumerate(rows):
            if (v >> j) & 1:
                out ^= row
        return out

    def layout(dims):
        return list(generator_set(Shape(dims)))

    checked = set()
    for dims in accepted_formats:
        if sum((1 << d) - 1 for d in dims) > 100:
            assert len(dims) == 2 and max(dims) >= 7 and min(dims) <= 3
            continue
        # a reordered format gets the same composites with the modes
        # reordered (equal dimensions keep their order), so it generates
        # the same group up to the order of the factors
        order = sorted(range(len(dims)), key=lambda k: dims[k])
        key = tuple(dims[k] for k in order)
        assert [tuple(m[k] for k in order) for m in layout(dims)] == layout(key)
        if key in checked:
            continue
        perms = []
        for matrices in layout(key):
            images, offset = [], 0
            for m in matrices:
                images += [offset + vector_image(m.rows, v) - 1
                           for v in range(1, 1 << m.d)]
                offset += (1 << m.d) - 1
            perms.append(Permutation(images))
        assert PermutationGroup(perms).order() == small_group_order(Shape(key)), key
        checked.add(key)
    assert len(checked) == 23


def test_compiled_matches_reference_on_generators():
    # a composite is its per-mode actions applied one after another
    for dims in ((2, 2, 2), (3, 2, 2), (2, 2, 2, 2), (3, 3, 2)):
        s = Shape(dims)
        sample = range(256) if s.entry_count <= 8 else \
            random.Random(3).sample(range(s.code_bound), 200)
        for k, d in enumerate(dims, start=1):
            for m in gl_generators(d):
                prog = compile_mode_action(s, k, m)
                for code in sample:
                    assert prog(code) == reference_apply(s, on_mode(s, k, m), code)
        for comp in generator_set(s) + per_mode_generators(s):
            prog = compile_composite(s, comp)
            for code in sample:
                assert prog(code) == reference_apply(s, comp, code)


def test_compiled_matches_reference_on_random_matrices():
    rng = random.Random(11)
    for dims in ((2, 2, 2), (3, 2, 2), (3, 3, 2), (2, 2, 2, 2)):
        s = Shape(dims)
        for _ in range(10):
            mode = rng.randrange(1, s.n + 1)
            m = random_gl(s.dims[mode - 1], rng)
            prog = compile_mode_action(s, mode, m)
            for _ in range(50):
                code = rng.randrange(s.code_bound)
                assert prog(code) == reference_apply(s, on_mode(s, mode, m), code)


def test_action_composition_law():
    # applying a then b equals applying the product a @ b
    rng = random.Random(13)
    s = Shape((3, 2, 2))
    for mode in (1, 2, 3):
        d = s.dims[mode - 1]
        for _ in range(10):
            a, b = random_gl(d, rng), random_gl(d, rng)
            pa = compile_mode_action(s, mode, a)
            pb = compile_mode_action(s, mode, b)
            pab = compile_mode_action(s, mode, a @ b)
            for _ in range(30):
                c = rng.randrange(s.code_bound)
                assert pab(c) == pb(pa(c))


def test_action_inverse_law():
    rng = random.Random(17)
    for dims in ((2, 3, 2), (3, 2, 2)):
        s = Shape(dims)
        for mode in (1, 2, 3):
            d = s.dims[mode - 1]
            for _ in range(10):
                m = random_gl(d, rng)
                fwd = compile_mode_action(s, mode, m)
                back = compile_mode_action(s, mode, inverse(m))
                for _ in range(30):
                    c = rng.randrange(s.code_bound)
                    assert back(fwd(c)) == c


def test_actions_commute_across_modes():
    rng = random.Random(19)
    s = Shape((2, 2, 2))
    a = compile_mode_action(s, 1, random_gl(2, rng))
    b = compile_mode_action(s, 3, random_gl(2, rng))
    for c in range(256):
        assert a(b(c)) == b(a(c))


def test_identity_action_is_identity():
    for dims in ((2, 2, 2), (3, 3, 2)):
        s = Shape(dims)
        for mode in range(1, s.n + 1):
            prog = compile_mode_action(s, mode, identity_matrix(s.dims[mode - 1]))
            for c in (0, 1, s.code_bound // 2, s.code_bound - 1):
                assert prog(c) == c


def test_apply_array_matches_scalar():
    # the lookup-table array path against the term-by-term scalar path, on
    # random codes plus codes that set the top bits of both table halves
    rng = np.random.default_rng(29)
    for dims in ((3, 2, 2), (2, 2, 2, 2), (3, 3, 2), (3, 2, 2, 2), (3, 3, 3)):
        s = Shape(dims)
        n = s.entry_count
        half = (n + 1) // 2
        edges = [0, 1, s.code_bound - 1, 1 << (n - 1), (1 << half) - 1,
                 1 << half, (1 << (half - 1)) | (1 << (n - 1))]
        codes = np.concatenate([
            np.array(edges, dtype=np.uint32),
            rng.integers(0, s.code_bound, size=300, dtype=np.uint32)])
        progs = list(compile_generators(s, generator_set(s)))
        progs += compile_generators(s, per_mode_generators(s))
        progs += [transpose_map(s, p) for p in block_permutations(s)]
        for prog in progs:
            assert prog.apply_array(codes).tolist() == [prog(int(c)) for c in codes]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(dims=st.sampled_from([(2, 2, 2), (3, 2, 2), (2, 3, 2, 2), (3, 3, 3)]),
       seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_random_composite_matches_per_mode(dims, seed, data):
    # any composite, not only the generating ones: the fused map, on both
    # paths, equals its per-mode actions applied one after another
    s = Shape(dims)
    rng = random.Random(seed)
    comp = tuple(random_gl(d, rng) for d in dims)
    prog = compile_composite(s, comp)
    per_mode = [compile_mode_action(s, k, m)
                for k, m in enumerate(comp, start=1)]
    codes = data.draw(st.lists(st.integers(0, s.code_bound - 1),
                               min_size=1, max_size=20))
    out = prog.apply_array(np.array(codes, dtype=np.uint32)).tolist()
    for code, got in zip(codes, out):
        want = code
        for step in per_mode:
            want = step(want)
        assert prog(code) == got == want


def test_actions_are_bijections():
    s = Shape((2, 2, 2))
    codes = np.arange(256, dtype=np.uint32)
    for prog in compile_generators(s, generator_set(s)):
        out = prog.apply_array(codes.copy())
        assert len(np.unique(out)) == 256
        assert int(out[0]) == 0          # zero tensor is fixed


def test_compile_rejects_mismatched_action():
    s = Shape((3, 2, 2))
    with pytest.raises(ValueError):
        compile_mode_action(s, 1, identity_matrix(2))
    with pytest.raises(ValueError):
        compile_mode_action(s, 4, identity_matrix(2))
    i2, i3 = identity_matrix(2), identity_matrix(3)
    with pytest.raises(ValueError):
        compile_composite(s, (i3, i2))
    with pytest.raises(ValueError):
        compile_composite(s, (i2, i2, i3))


def test_transpose_codes_matches_transpose(accepted_formats):
    # the merge's bit gather against the entry-by-entry transpose, for
    # every mode permutation of every format that has more than one
    rng = np.random.default_rng(23)
    checked = 0
    for dims in accepted_formats:
        s = Shape(dims)
        perms = block_permutations(s)
        if len(perms) == 1:
            continue
        codes = np.concatenate(([0, 1, s.code_bound - 1, 1 << (s.entry_count - 1)],
                                rng.integers(0, s.code_bound, size=24)))
        out = transpose_codes(s, codes.astype(np.uint32), perms)
        assert out.shape == (codes.size, len(perms)) and out.dtype == np.uint32, dims
        for j, perm in enumerate(perms):
            assert out[:, j].tolist() == [transpose(s, int(c), perm) for c in codes], dims
        checked += 1
    assert checked == 26


def test_transpose_codes_keeps_the_code_width(engine):
    # the images take the dtype of the codes they come from, so a wider
    # code width reaches the merge with no cast of its own
    s = engine.shape("3x2x2x2")
    canonicals, perms = engine.atlas("3x2x2x2").canonicals, block_permutations(s)
    narrow = transpose_codes(s, canonicals.astype(np.uint32), perms)
    wide = transpose_codes(s, canonicals.astype(np.uint64), perms)
    assert (narrow.dtype, wide.dtype) == (np.uint32, np.uint64)
    assert np.array_equal(wide, narrow)


def test_codemap_scalar_range_check():
    s = Shape((2, 2, 2))
    prog = compile_mode_action(s, 1, identity_matrix(2))
    assert isinstance(prog, CodeMap)
    with pytest.raises(ValueError):
        prog(256)
    with pytest.raises(ValueError):
        prog(-1)
