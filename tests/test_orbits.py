"""Orbit enumeration, large-orbit merging, snapshots, the memory cap.

The orbit of one code is read off the session atlas as the codes that
share its orbit id; python_spin recomputes it from the definition, one
entry at a time.  table_oracle.table_orbits, the 2^N table engine,
recomputes the whole partition of every accepted format of at most 2^18
codes under the per-mode generators of the definition, one test id per
format.  The 14 mode orders past that size that no stored table covers
are moved entry by entry onto their paper format, whose orbits, sizes
and ranks they must meet one for one.  The matrix closed form covers
the two-mode formats.  reference_spin spins the subspaces one orbit at a
time, the reference for the batched spin and its merging of labels.
"""

import dataclasses
import io
import math
import struct
import zlib

import numpy as np
import pytest
from conftest import ACCEPTED_FORMATS, OBJECT_SLACK, reference_apply, traced_peaks
from entry_oracle import move
from hypothesis import example, given, settings
from hypothesis import strategies as st
from table_oracle import MAX_CODES, per_mode_generators, table_orbits, transpose_map

from f2orbits import spin as spin_module
from f2orbits.group import block_permutations, compile_generators, generator_set, identity_matrix
from f2orbits.orbits import (DEFAULT_MEM_CAP, FIXED_BYTES, MemoryCapError, OrbitAtlas,
                             atlas_bytes, enumerate_orbits, load_atlas, merge_large_orbits,
                             required_bytes, save_atlas)
from f2orbits.ranks import large_orbit_ranks, propagate_ranks, rank_bytes
from f2orbits.report import NoReferenceError, load_reference
from f2orbits.slices import (CODE, level_bounds, permutations, subspace_keys, tuple_counts,
                             unrank)
from f2orbits.spin import BATCH_MAX, CELL, SENTINEL, _least_linked, _spin_batch
from f2orbits.tensor import Shape, parse_shape


def python_spin(shape, start, composites):
    seen = {start}
    frontier = [start]
    while frontier:
        grown = []
        for c in frontier:
            for a in composites:
                img = reference_apply(shape, a, c)
                if img not in seen:
                    seen.add(img)
                    grown.append(img)
        frontier = grown
    return seen


def orbit_of(atlas, start):
    codes = np.arange(atlas.shape.code_bound)
    return codes[atlas.orbit_id(codes) == atlas.orbit_id(start)]


def gaussian_binomial(m, k):
    # subspace counts by the q-Pascal rule [m, k] = [m-1, k-1] + 2^k [m-1, k]
    if k == 0 or k == m:
        return 1
    if not 0 < k < m:
        return 0
    return gaussian_binomial(m - 1, k - 1) + (1 << k) * gaussian_binomial(m - 1, k)


def slice_subspaces(dims):
    # S: the subspaces of F2^M, M = N / d1, of dimension at most min(d1, M)
    m = int(np.prod(dims[1:]))
    return sum(gaussian_binomial(m, k) for k in range(min(dims[0], m) + 1))


# ---- full enumeration ----

def test_spin_matches_python_bfs(engine):
    s = Shape((2, 2, 2))
    atlas = engine.atlas("2x2x2")
    for start in (1, 6, 18, 24, 107, 255):
        assert set(orbit_of(atlas, start).tolist()) == \
            python_spin(s, start, per_mode_generators(s))


def test_spin_rejects_zero(engine):
    # the zero code is orbit 0 on its own: slot 0 of the per-orbit arrays
    atlas = engine.atlas("2x2x2")
    assert orbit_of(atlas, 0).tolist() == [0]
    assert (atlas.canonicals[0], atlas.sizes[0]) == (0, 1)
    with pytest.raises(ValueError):
        atlas.orbit_id(256)


def test_zero_code_is_orbit_zero(engine):
    atlas = engine.atlas("2x2x2")
    assert atlas.orbit_id(0) == 0
    # the zero subspace, key 0, comes first, and is alone in orbit 0
    assert unrank(atlas.shape, np.array([0])).tolist() == [0]
    assert np.flatnonzero(atlas.assignment == 0).tolist() == [0]


def test_orbit_id_takes_arrays(engine):
    atlas = engine.atlas("3x2x2")
    codes = np.arange(atlas.shape.code_bound).reshape(64, 64)
    ids = atlas.orbit_id(codes)
    assert ids.shape == codes.shape
    assert ids.tolist() == [[atlas.orbit_id(c) for c in row] for row in codes.tolist()]
    assert type(atlas.orbit_id(77)) is int
    for bad in (atlas.shape.code_bound, -1):
        with pytest.raises(ValueError, match="out of range"):
            atlas.orbit_id(np.array([1, bad, 2]))
        with pytest.raises(ValueError, match="out of range"):
            atlas.orbit_id(bad)


def test_members_are_the_orbit(engine):
    # every orbit of 2x2x2x2 against the codes the table oracle puts in it
    oracle = table_orbits(Shape((2, 2, 2, 2)))
    atlas = engine.atlas("2x2x2x2")
    for oid in range(atlas.orbit_count + 1):
        assert atlas.members(oid).tolist() == \
            np.flatnonzero(oracle.assignment == oid).tolist()
    # on 3x2x2x2, 2^24 codes: sorted, the right size, starting at the
    # canonical, and every member in the orbit
    atlas = engine.atlas("3x2x2x2")
    for oid in (0, 1, atlas.orbit_id(1 << 23), atlas.orbit_count):
        members = atlas.members(oid)
        assert members.dtype == CODE
        assert (np.diff(members.astype(np.int64)) > 0).all()
        assert members.size == atlas.sizes[oid]
        assert members[0] == atlas.canonicals[oid]
        assert (atlas.orbit_id(members) == oid).all()


# the most member_bytes may exceed the traced peak of members: about
# FIXED_BYTES, which its Python objects do not use up (16.3 KB at most)
MEMBER_SLACK = 20 << 10


def test_member_bytes_bound_the_listing_peak(engine):
    # members unranks the orbit's subspaces from their indices; its
    # tracemalloc peak stays under member_bytes, and member_bytes, the
    # largest of the listing's phases, stays within MEMBER_SLACK of it:
    # on every orbit of at most 2^20 codes of four formats, and on the
    # zero orbit, orbit 1, the last orbit and the orbit of most such
    # subspaces of two more.  Each phase is the peak somewhere: the id
    # mask on the last orbit of 3x3x3 (192 of the 788,035 3-spaces),
    # unrank on the 2-space orbits of 2x3x3 with many subspaces, the
    # coefficient filter on the 3- and 4-space orbits of 4x3x2 with few
    # subspaces, and the products on the rest, so dropping any phase
    # from the figure fails here.
    for fmt in ("2x2x2", "2x2x2x2", "2x3x3", "3x2x2x2", "3x3x3", "4x3x2"):
        atlas = engine.atlas(fmt)
        counts = np.bincount(atlas.assignment)
        counts[atlas.sizes > 1 << 20] = 0
        if fmt in ("3x2x2x2", "3x3x3"):
            oids = (0, 1, atlas.orbit_count, int(counts.argmax()))
        else:
            oids = np.flatnonzero(atlas.sizes <= 1 << 20).tolist()
        for oid in oids:
            atlas.members(oid)
            for peak in traced_peaks(lambda: atlas.members(oid)):
                assert peak <= atlas.member_bytes(oid) <= peak + MEMBER_SLACK, (fmt, oid)


def test_enumeration_accepts_custom_generators():
    # the table oracle takes any programs; under identity-only generators
    # every nonzero code is its own orbit
    s = Shape((2, 2, 2))
    identity = (identity_matrix(2),) * 3
    atlas = table_orbits(s, compile_generators(s, (identity,)))
    assert atlas.orbit_count == 255
    assert (atlas.sizes == 1).all()
    with pytest.raises(ValueError, match="at most"):
        table_orbits(Shape((4, 3, 2)))


# ---- the batched spin ----

def reference_spin(shape):
    # one orbit at a time: the least unassigned subspace starts a
    # breadth-first spin and is the canonical; sizes weight each subspace
    # by t(dim U)
    keys, perms = subspace_keys(shape), permutations(shape)
    assignment = np.full(keys.size, -1)
    assignment[0] = 0
    canonicals = [0]
    while (rest := np.flatnonzero(assignment < 0)).size:
        frontier = rest[:1]
        assignment[frontier] = len(canonicals)
        canonicals.append(int(keys[rest[0]]))
        while frontier.size:
            images = np.unique(np.concatenate([perm[frontier] for perm in perms]))
            frontier = images[assignment[images] < 0]
            assignment[frontier] = len(canonicals) - 1
    m = shape.entry_count // shape.dims[0]
    dims = np.searchsorted([1 << (k * m) for k in range(len(tuple_counts(shape)))], keys,
                           side="right")
    sizes = np.bincount(assignment, weights=np.array(tuple_counts(shape))[dims])
    return keys, assignment, np.array(canonicals), sizes.astype(np.int64)


def test_batched_spin_matches_reference_spin(engine, monkeypatch):
    # formats of many small orbits and of few large ones, array for
    # array; the atlas keeps no keys, and unranking its subspaces gives
    # the reference's keys.  The spin sweeps all dimensions with one
    # batch size, and on every format here but 3x3x3 and 3x9 some batch
    # takes its starts from two dimensions or more (one batch of 3x2x2
    # from three, one of 4x2x2 from four)
    levels = {}
    batch = spin_module._spin_batch

    def recording(assignment, first, starts, perms, queue):
        dims = np.searchsorted(level_bounds(shape), starts, side="right")
        levels[fmt] = max(levels.get(fmt, 1), len(set(dims.tolist())))
        return batch(assignment, first, starts, perms, queue)

    for fmt in ("3x2x2x2", "2x2x2x2", "4x3x2", "3x3x3", "3x9", "2x2x2", "3x2x2", "4x2x2",
                "3x3x2", "4x5"):
        shape, atlas = parse_shape(fmt), engine.atlas(fmt)
        keys, assignment, canonicals, sizes = reference_spin(shape)
        with monkeypatch.context() as patch:
            patch.setattr(spin_module, "_spin_batch", recording)
            assert np.array_equal(spin_module.spin(permutations(shape)), assignment), fmt
        assert np.array_equal(unrank(atlas.shape, np.arange(atlas.assignment.size)), keys), fmt
        assert np.array_equal(atlas.assignment, assignment), fmt
        assert np.array_equal(atlas.canonicals, canonicals), fmt
        assert np.array_equal(atlas.sizes, sizes), fmt
    assert {fmt for fmt, n in levels.items() if n > 1} == {
        "3x2x2x2", "2x2x2x2", "4x3x2", "2x2x2", "3x2x2", "4x2x2", "3x3x2", "4x5"}
    assert (levels["3x2x2"], levels["4x2x2"]) == (3, 4)


def _links(n):
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return st.tuples(st.just(n), st.lists(pair, max_size=300))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=st.integers(1, 256).flatmap(_links))
@example(case=(256, [(i + 1, i) for i in range(255)]))
@example(case=(256, []))
def test_least_linked_matches_union_find(case):
    # the least label of each class of linked labels, against a plain
    # union-find whose root is always the least label of its class
    n, pairs = case
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    link = np.zeros((n, n), bool)
    for i, j in pairs:
        link[i, j] = True
        a, b = find(i), find(j)
        parent[max(a, b)] = min(a, b)
    assert _least_linked(link).tolist() == [find(i) for i in range(n)]


def test_spin_batch_refuses_labels_at_the_sentinel():
    # two starts from first = 65534 would write 65535, the mark of an
    # unassigned cell: refused before any cell changes
    perms = [np.array([0, 2, 1], np.uint32)]
    assignment = np.full(3, SENTINEL, np.uint16)
    queue = np.empty(3, np.uint32)
    with pytest.raises(RuntimeError, match="2-byte cell"):
        _spin_batch(assignment, SENTINEL - 1, np.array([1, 2]), perms, queue)
    assert (assignment == SENTINEL).all()
    # from one lower they fit; the swap links them into one orbit, and
    # the queue holds the two cells labelled
    roots = _spin_batch(assignment, SENTINEL - 2, np.array([1, 2]), perms, queue)
    assert (queue[:2].tolist(), roots.tolist()) == ([1, 2], [True, False])
    assert assignment.tolist() == [SENTINEL, SENTINEL - 2, SENTINEL - 2]


def test_every_batch_but_the_last_takes_batch_max_starts(monkeypatch):
    # one batch rule: each pass takes the next BATCH_MAX unassigned
    # subspaces, whatever the orbits of the last pass covered, and only
    # the last batch of a sweep may take fewer
    batch = spin_module._spin_batch
    for fmt in ("3x2x2x2", "2x2x2x2", "3x9"):
        counts = []

        def recording(assignment, first, starts, perms, queue):
            counts.append(starts.size)
            return batch(assignment, first, starts, perms, queue)

        with monkeypatch.context() as patch:
            patch.setattr(spin_module, "_spin_batch", recording)
            spin_module.spin(permutations(parse_shape(fmt)))
        assert len(counts) > 1, fmt
        assert counts[:-1] == [BATCH_MAX] * (len(counts) - 1), (fmt, counts)
        assert 0 < counts[-1] <= BATCH_MAX, fmt


# ---- every format against an independent method ----

def format_name(dims):
    return "x".join(map(str, dims))


# every accepted format the table oracle takes, in every mode order
SWEEP_FORMATS = [dims for dims in ACCEPTED_FORMATS if Shape(dims).code_bound <= MAX_CODES]


@pytest.mark.parametrize("dims", SWEEP_FORMATS, ids=format_name)
def test_slice_engine_matches_table_oracle(engine, dims):
    """Every accepted format of at most MAX_CODES = 2^18 codes, in every
    mode order, two-mode formats included: the subspace count is the sum
    of Gaussian binomials, and the canonicals, sizes and the orbit id of
    every code equal those of the table oracle, which spins the 2n
    per-mode generators of the definition and not generator_set.  The
    oracle numbers each orbit from its least code, in ascending order, so
    this also checks that orbit 0 is the zero code alone, that every
    canonical is its orbit's least code and that ids ascend with it."""
    assert len(SWEEP_FORMATS) == 34
    s = Shape(dims)
    atlas = engine.atlas(format_name(dims))
    oracle = table_orbits(s)
    assert atlas.assignment.size == slice_subspaces(dims)
    assert atlas.canonicals.tolist() == oracle.canonicals.tolist()
    assert atlas.sizes.tolist() == oracle.sizes.tolist()
    assert (atlas.orbit_id(np.arange(s.code_bound)) == oracle.assignment).all()


# the formats of three or more modes past 2^16 codes whose modes are not
# in descending order: no stored table covers them, and only 2x3x3 and
# 3x2x3 fit the sweep
MODE_ORDERS = [dims for dims in ACCEPTED_FORMATS
               if len(dims) > 2 and Shape(dims).code_bound > 1 << 16
               and list(dims) != sorted(dims, reverse=True)]


@pytest.mark.parametrize("dims", MODE_ORDERS, ids=format_name)
def test_mode_orders_match_their_paper_format(engine, dims):
    """Permuting the modes carries the orbits of one mode order onto those
    of another.  So entry_oracle.move, which sends every entry of a code
    to its place in the paper format with the same dimensions in
    descending order (5x2x2, 6x2x2, 3x3x2, 4x3x2 or 3x2x2x2), must send
    the canonicals of this format onto one code of each nonzero orbit of
    the paper format, with the same sizes and ranks, in both flavors.
    This format's atlas is dropped after the check; the paper format's
    comes from the session engine."""
    assert len(MODE_ORDERS) == 14
    shape, paper = Shape(dims), Shape(tuple(sorted(dims, reverse=True)))
    fmt = format_name(paper.dims)
    # mode k goes to the place of its dimension among the sorted dims,
    # equal dimensions keeping their order
    order = sorted(range(shape.n), key=lambda k: -dims[k])
    perm = [order.index(k) + 1 for k in range(shape.n)]
    assert fmt in ("5x2x2", "6x2x2", "3x3x2", "4x3x2", "3x2x2x2")
    paper_atlas, paper_large = engine.atlas(fmt), engine.large(fmt)
    atlas = enumerate_orbits(shape)
    ranks = propagate_ranks(shape, atlas)
    large = merge_large_orbits(shape, atlas)
    # per flavor: the orbits and ranks of both formats, and the flavor's
    # id of each small orbit of the paper format
    flavors = (
        (atlas, ranks.by_orbit, paper_atlas, engine.ranks(fmt).by_orbit,
         np.arange(paper_atlas.orbit_count + 1)),
        (large, large_orbit_ranks(large, ranks), paper_large, engine.large_ranks(fmt),
         paper_large.grouping),
    )
    for orbits, by_orbit, paper_orbits, paper_ranks, paper_ids in flavors:
        moved = move(shape, orbits.canonicals[1:], perm, paper)
        ids = paper_ids[paper_atlas.orbit_id(moved)]
        assert sorted(ids.tolist()) == list(range(1, paper_orbits.orbit_count + 1))
        assert paper_orbits.sizes[ids].tolist() == orbits.sizes[1:].tolist()
        assert paper_ranks[ids].tolist() == by_orbit[1:].tolist()


def test_two_mode_formats_in_closed_form(accepted_formats, atlas_2x13):
    """Every accepted d1 x d2 format: orbit r, for r = 0, ..., min(d1, d2),
    holds the matrices of rank r, prod_{i<r} (2^d1 - 2^i)(2^d2 - 2^i)
    over prod_{i<r} (2^r - 2^i) of them; its canonical has the rows 1, 2,
    ..., 2^(r-1), from the top, as its last r rows, and its tensor rank is
    the matrix rank r.  A transpose keeps the rank, so the large group of
    a square format has the same orbits.  The atlases are built here and
    dropped, so the session engine keeps none of more than 16 entries;
    2x13 comes from its shared fixture."""
    def independent(d, r):
        return math.prod((1 << d) - (1 << i) for i in range(r))

    checked = 0
    for dims in accepted_formats:
        if len(dims) != 2:
            continue
        d1, d2 = dims
        s = Shape(dims)
        atlas = atlas_2x13 if dims == (2, 13) else enumerate_orbits(s)
        orbits = range(min(dims) + 1)
        canonicals = [sum(1 << (d2 * (r - 1 - i) + i) for i in range(r)) for r in orbits]
        sizes = [independent(d1, r) * independent(d2, r) // independent(r, r) for r in orbits]
        assert atlas.canonicals.tolist() == canonicals, dims
        assert atlas.sizes.tolist() == sizes, dims
        assert propagate_ranks(s, atlas).by_orbit.tolist() == list(orbits), dims
        if d1 == d2:
            large = merge_large_orbits(s, atlas)
            assert large.canonicals.tolist() == canonicals, dims
            assert large.sizes.tolist() == sizes, dims
        checked += 1
    assert checked == 42


def test_orbit_counts_fit_the_cell(engine, accepted_formats):
    """Every accepted format has at most SENTINEL - BATCH_MAX nonzero
    orbits, so orbit ids fit a 2-byte cell below the sentinel 65535 with
    room for the provisional labels of a batch of BATCH_MAX starts.

    Permuting the modes of a format permutes the group's factors, so the
    orbit count depends only on the sorted dims.  With three or more modes
    the sorted format is one of the reference formats, whose small-group
    orbit count is stored, or 2x2x2x2, which the session engine enumerates.
    The large group only merges small orbits.

    A two-mode format d1 x d2 is the space of d1 x d2 matrices, on which
    GL(d1,2) x GL(d2,2) acts by X -> A^T X B.  Two matrices are in one
    orbit exactly when they have the same rank, so there are
    min(d1, d2) + 1 orbits with zero, at most 6 up to 27 entries.  The
    formats up to 16 entries are enumerated to check it."""
    seen = set()
    for dims in accepted_formats:
        key = "x".join(map(str, sorted(dims, reverse=True)))
        if key in seen:
            continue
        seen.add(key)
        if len(dims) == 2:
            if dims[0] * dims[1] <= 16:
                assert engine.atlas(key).orbit_count == min(dims)
            continue
        try:
            count = load_reference(key, "small").orbit_count - 1
        except NoReferenceError:
            assert key == "2x2x2x2"
            count = engine.atlas(key).orbit_count
        assert count + BATCH_MAX <= SENTINEL, key
    assert len(seen) == 33
    assert sorted(k for k in seen if k.count("x") > 1) == [
        "2x2x2", "2x2x2x2", "3x2x2", "3x2x2x2", "3x3x2", "3x3x3",
        "4x2x2", "4x3x2", "5x2x2", "6x2x2"]


def test_cell_width_four_is_refused(engine):
    with pytest.raises(ValueError):
        enumerate_orbits(Shape((2, 2, 2)), cell_width=4)
    assert engine.atlas("2x2x2").assignment.dtype == np.uint16


# ---- memory cap ----

def test_memory_cap_refusal():
    # enumerate_orbits refuses with exactly the estimate required_bytes
    # reports, before it allocates
    s = Shape((3, 3, 2))
    need = required_bytes(s)
    with pytest.raises(MemoryCapError) as exc:
        enumerate_orbits(s, mem_cap=need - 1)
    assert exc.value.required == need
    assert exc.value.cap == need - 1
    assert "F2TO_MEM_CAP" in str(exc.value)


def test_required_bytes_on_every_format(accepted_formats):
    """required_bytes on every accepted format, without enumerating: the
    larger of the two phase figures, the permutation build and the spin,
    plus a fixed 16 KiB, and never below atlas_bytes, the figure of
    _atlas, which runs after the spin.  The build holds per subspace a 4-byte CODE key and m
    4-byte INDEX permutations, one per generator; m + k + 2 tables of 2^M
    cells (the CODE slice maps and lead table and the INDEX ranking
    tables); and 20 + 8 k bytes per item of one chunk of at most 2^14
    items, k = min(d1, M).  The spin holds per subspace the permutations,
    a 2-byte CELL id and a 4-byte INDEX queue cell, 24 bytes per item of
    one chunk, and a batch's link mask of at most min(S, 256)^2 bools plus
    one temporary of its size.  S comes from the q-Pascal rule."""
    for dims in accepted_formats:
        s = Shape(dims)
        m, S = len(generator_set(s)), slice_subspaces(dims)
        slice_bits = s.entry_count // dims[0]
        k, chunk = min(dims[0], slice_bits), min(S, 1 << 14)
        build = ((4 + 4 * m) * S + 4 * (m + k + 2) * (1 << slice_bits)
                 + (20 + 8 * k) * chunk)
        spinning = (6 + 4 * m) * S + 24 * chunk + 2 * min(S, 256) ** 2
        assert required_bytes(s) == max(build, spinning) + (16 << 10), dims
        assert required_bytes(s) >= atlas_bytes(s), dims
    assert FIXED_BYTES == 16 << 10
    assert len(accepted_formats) == 70
    # the paper's largest formats need a small part of the old 2^N table
    assert required_bytes(Shape((3, 3, 3))) < 0.05 * 2 * (1 << 27)
    assert required_bytes(Shape((3, 2, 2, 2))) < 0.08 * 2 * (1 << 24)
    assert DEFAULT_MEM_CAP == 2 * 1024 ** 3


# the formats the cap figures are traced on: the largest paper formats
# and formats of a handful of subspaces (13x2 has 5)
TRACED_FORMATS = ((3, 3, 3), (3, 2, 2, 2), (2, 2, 2, 2), (3, 3, 2), (13, 2), (2, 2, 2), (9, 3))
# the most required_bytes may exceed the traced peak of an enumeration:
# its chunk terms at their widest, 335 KB (2.8 %) on 3x3x3, and under
# 44 KB on the other traced formats
REQUIRED_SLACK = 352 << 10
# the most atlas_bytes may exceed the traced peak of a load: 25 KB on
# 2x2x2x2, and about FIXED_BYTES on the smallest formats
LOAD_SLACK = 32 << 10


def test_enumeration_peak_within_required_bytes():
    # tracemalloc's peak over a cold enumeration stays under required_bytes,
    # whose fixed term covers the Python objects, and within REQUIRED_SLACK
    # of it
    for dims in TRACED_FORMATS:
        s = Shape(dims)
        for peak in traced_peaks(lambda: enumerate_orbits(s)):
            assert peak <= required_bytes(s) <= peak + REQUIRED_SLACK, (dims, peak)


def test_load_peak_within_atlas_bytes(tmp_path, engine):
    # a load holds the ids it reads and runs _atlas over them, so its
    # traced peak stays under atlas_bytes, the figure load_atlas checks,
    # and within LOAD_SLACK of it; required_bytes of an enumeration is
    # about 6 times larger on the paper formats
    path = str(tmp_path / "orbits.snap")
    for dims in TRACED_FORMATS:
        s = Shape(dims)
        save_atlas(engine.atlas("x".join(map(str, dims))), path)
        load_atlas(path, s)
        for peak in traced_peaks(lambda: load_atlas(path, s)):
            assert peak <= atlas_bytes(s) <= peak + LOAD_SLACK, (dims, peak)
    assert required_bytes(Shape((3, 3, 3))) > 6 * atlas_bytes(Shape((3, 3, 3)))


def test_merge_peak_within_rank_bytes(engine):
    # the merge allocates no broadcast operand, so its traced peak does not
    # follow numpy's buffer size, and it fits beside the atlas under
    # rank_bytes, the cap check that comes last before it
    for fmt in ("3x3x3", "3x2x2x2", "2x2x2x2", "3x3x2"):
        s, atlas = engine.shape(fmt), engine.atlas(fmt)
        merge_large_orbits(s, atlas)
        first, second = traced_peaks(lambda: merge_large_orbits(s, atlas))
        assert abs(first - second) <= OBJECT_SLACK, (fmt, first, second)
        assert atlas.nbytes + first <= rank_bytes(atlas), (fmt, first)


def test_load_builds_no_keys(tmp_path, engine):
    # a 3x3x3 load holds the S ids, 2 bytes per subspace, and one chunk
    # of their running maximum and sizes, and unranks only the 116
    # canonicals; a running maximum of all S ids would take it to 4 bytes
    # and a uint32 key per subspace to 6
    path = tmp_path / "orbits.snap"
    save_atlas(engine.atlas("3x3x3"), str(path))
    s = Shape((3, 3, 3))
    load_atlas(str(path), s)
    assert max(traced_peaks(lambda: load_atlas(str(path), s))) < 2.5 * slice_subspaces(s.dims)


# ---- large orbits ----

def test_merge_known_example(engine):
    atlas = engine.atlas("2x2x2")
    large = merge_large_orbits(engine.shape("2x2x2"), atlas)
    assert large.orbit_count == 5
    (fused_id,) = np.flatnonzero(large.canonicals == 6)
    assert large.sizes[fused_id] == 54
    ids = np.flatnonzero(large.grouping == fused_id)
    assert sorted(atlas.canonicals[ids].tolist()) == [6, 18, 20]


def test_merge_grouping_invariants(engine):
    for fmt in ("2x2x2", "3x2x2", "2x2x2x2"):
        atlas = engine.atlas(fmt)
        large = engine.large(fmt)
        assert large.grouping.shape == (atlas.orbit_count + 1,)
        assert large.grouping[0] == 0
        # every large id 1..count owns at least one small orbit
        assert sorted(set(large.grouping[1:].tolist())) == \
            list(range(1, large.orbit_count + 1))
        for large_id in range(1, large.orbit_count + 1):
            cons = np.flatnonzero(large.grouping == large_id)
            assert large.canonicals[large_id] == atlas.canonicals[cons].min()
            assert large.sizes[large_id] == atlas.sizes[cons].sum()
        assert large.canonicals.tolist() == sorted(large.canonicals.tolist())
        assert (large.canonicals[0], large.sizes[0]) == (0, 1)
        assert large.sizes[1:].sum() == atlas.shape.code_bound - 1


def test_merge_with_no_equal_dims_is_identity(engine):
    atlas = engine.atlas("4x3x2")
    large = merge_large_orbits(engine.shape("4x3x2"), atlas)
    assert large.orbit_count == atlas.orbit_count
    assert large.canonicals.tolist() == atlas.canonicals.tolist()


def test_merge_matches_direct_enumeration():
    # oracle: enumerate under the per-mode generators plus the
    # mode-permutation maps and compare canonical/size multisets; the
    # direct ids also ascend with the canonical code, so the grouping
    # must send each small orbit to the direct id of its canonical
    for dims in ((2, 2, 2), (3, 2, 2), (2, 2, 2, 2), (3, 3, 2)):
        s = Shape(dims)
        atlas = enumerate_orbits(s)
        large = merge_large_orbits(s, atlas)
        progs = compile_generators(s, per_mode_generators(s))
        progs += tuple(transpose_map(s, p) for p in block_permutations(s)[1:])
        direct = table_orbits(s, progs)
        assert large.canonicals.tolist() == direct.canonicals.tolist()
        assert large.sizes.tolist() == direct.sizes.tolist()
        for oid, canonical in enumerate(atlas.canonicals.tolist()):
            assert large.grouping[oid] == direct.orbit_id(canonical)




# ---- snapshots ----

def reseal(blob):
    # a snapshot ends in the CRC-32 of everything before it
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]))


def test_snapshot_roundtrip(tmp_path, engine):
    atlas = engine.atlas("3x2x2")
    path = tmp_path / "orbits.snap"
    save_atlas(atlas, str(path))
    back = load_atlas(str(path))
    # the atlas is the ids and what they give: no per-subspace keys
    assert [f.name for f in dataclasses.fields(OrbitAtlas)] == \
        ["shape", "assignment", "canonicals", "sizes"]
    assert back.shape == atlas.shape
    assert (back.assignment == atlas.assignment).all()
    assert (back.canonicals == atlas.canonicals).all()
    assert (back.sizes == atlas.sizes).all()
    assert back.assignment.dtype == CELL
    assert (back.canonicals.dtype, back.sizes.dtype) == (CODE, np.int64)
    # the members, unranked from the loaded ids, are every orbit's codes
    for oid in range(atlas.orbit_count + 1):
        assert np.array_equal(back.members(oid), atlas.members(oid)), oid
    codes = np.concatenate([back.members(oid) for oid in range(back.orbit_count + 1)])
    assert np.array_equal(np.sort(codes), np.arange(atlas.shape.code_bound))


def test_snapshot_rejects_corruption(tmp_path, engine):
    atlas = engine.atlas("2x2x2")
    path = tmp_path / "orbits.snap"
    save_atlas(atlas, str(path))
    blob = path.read_bytes()

    bad_magic = b"XXXX" + blob[4:]
    (tmp_path / "m.snap").write_bytes(bad_magic)
    with pytest.raises(ValueError):
        load_atlas(str(tmp_path / "m.snap"))

    # cut inside the CRC, the ids, the dims and the fixed header
    for cut in (len(blob) - 3, 100, 8, 5):
        (tmp_path / "t.snap").write_bytes(blob[:cut])
        with pytest.raises(ValueError):
            load_atlas(str(tmp_path / "t.snap"))

    (tmp_path / "x.snap").write_bytes(blob + b"\x00")
    with pytest.raises(ValueError):
        load_atlas(str(tmp_path / "x.snap"))

    # an edited id fails the CRC
    (tmp_path / "c.snap").write_bytes(blob[:-6] + bytes([blob[-6] ^ 1]) + blob[-5:])
    with pytest.raises(ValueError, match="CRC"):
        load_atlas(str(tmp_path / "c.snap"))

    # the table engine's version 1 and the version 2 that stored keys and
    # orbit records are refused by name
    for version in (1, 2):
        (tmp_path / "v.snap").write_bytes(blob[:4] + bytes([version]) + blob[5:])
        with pytest.raises(ValueError, match=f"unsupported snapshot version {version}"):
            load_atlas(str(tmp_path / "v.snap"))


def test_snapshot_rejects_inconsistent_subspaces(tmp_path, engine):
    # 2x2x2: 9 header bytes, then the ids of the S = 51 subspaces; each
    # edit is resealed, so it reaches the check it breaks
    atlas = engine.atlas("2x2x2")
    path = tmp_path / "orbits.snap"
    save_atlas(atlas, str(path))
    blob = path.read_bytes()
    assert len(blob) == 9 + 2 * 51 + 4
    ids_at = 9

    def edited(index, value):
        out = bytearray(blob)
        struct.pack_into("<H", out, ids_at + 2 * index, value)
        return reseal(bytes(out))

    # subspace 1 is the key 1, the canonical of orbit 1, which has other
    # subspaces, as has orbit 5 of the last subspace; 7 is the last id
    assert atlas.assignment[[0, 1, 50]].tolist() == [0, 1, 5]
    assert (atlas.assignment == 1).sum() > 1 and (atlas.assignment == 5).sum() > 1
    assert atlas.orbit_count == 7
    cases = [
        (edited(0, 1), "orbit id 1 at the zero subspace"),
        (edited(1, 2), "do not ascend with their least keys"),
        (edited(50, 9), "orbit ids skip 8"),
        # ids that load in order can still split an orbit: moving the last
        # subspace to a new orbit 8 leaves orbit 5 with 54 - 6 tensors
        (edited(50, 8), "orbit 5 has 48 tensors, which does not divide the group order 216"),
    ]
    for bad, message in cases:
        (tmp_path / "k.snap").write_bytes(bad)
        with pytest.raises(ValueError, match=message):
            load_atlas(str(tmp_path / "k.snap"))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_snapshot_damage_is_refused(tmp_path_factory, data):
    # any truncation, and any single flipped bit, ends in ValueError
    s = Shape((2, 2, 2))
    path = tmp_path_factory.mktemp("snap") / "orbits.snap"
    save_atlas(enumerate_orbits(s), str(path))
    blob = path.read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        bad = blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")]
    else:
        bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
        bad = bytearray(blob)
        bad[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(bad))
    with pytest.raises(ValueError):
        load_atlas(str(path), s)


def test_snapshot_shape_check(tmp_path, engine):
    path = tmp_path / "orbits.snap"
    save_atlas(engine.atlas("2x2x2"), str(path))
    with pytest.raises(ValueError):
        load_atlas(str(path), Shape((3, 2, 2)))
    ok = load_atlas(str(path), Shape((2, 2, 2)))
    assert ok.orbit_count == 7


def _buffered_writer_bytes(atlas):
    # the snapshot layout written field by field, the byte-layout oracle
    buf = io.BytesIO()
    buf.write(b"F2OA" + bytes([3, atlas.shape.n]) + bytes(atlas.shape.dims))
    for oid in atlas.assignment.tolist():
        buf.write(struct.pack("<H", oid))
    buf.write(struct.pack("<I", zlib.crc32(buf.getvalue())))
    return buf.getvalue()


def test_snapshot_bytes_match_buffered_writer(tmp_path, engine):
    for fmt in ("2x2x2", "3x2x2"):
        path = tmp_path / f"{fmt}.snap"
        save_atlas(engine.atlas(fmt), str(path))
        assert path.read_bytes() == _buffered_writer_bytes(engine.atlas(fmt))
    # the temporary file is renamed over the target, none is left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == ["2x2x2.snap", "3x2x2.snap"]


def test_snapshot_load_honours_cap(tmp_path, engine):
    path = tmp_path / "orbits.snap"
    save_atlas(engine.atlas("3x2x2"), str(path))
    s = Shape((3, 2, 2))
    # a load is refused by exactly atlas_bytes, below the enumeration's figure
    assert atlas_bytes(s) < required_bytes(s)
    with pytest.raises(MemoryCapError) as exc:
        load_atlas(str(path), mem_cap=atlas_bytes(s) - 1)
    assert exc.value.required == atlas_bytes(s)
    assert load_atlas(str(path), mem_cap=atlas_bytes(s)).orbit_count == 9
